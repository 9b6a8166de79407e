//! End-to-end tests of the `rtmdm` CLI binary.

use std::process::Command;

fn rtmdm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtmdm"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn admit_schedulable_mix_exits_zero() {
    let out = rtmdm(&[
        "admit",
        "--platform",
        "stm32f746-qspi",
        "--task",
        "kws=ds-cnn@100",
        "--task",
        "ic=resnet8@400",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("SCHEDULABLE"));
    assert!(stdout.contains("kws"));
}

#[test]
fn admit_infeasible_mix_exits_two() {
    let out = rtmdm(&["admit", "--task", "ic=resnet8@10"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT SCHEDULABLE"));
}

#[test]
fn simulate_reports_misses() {
    let out = rtmdm(&[
        "simulate",
        "--task",
        "kws=ds-cnn@100",
        "--seconds",
        "1",
        "--jitter",
        "25",
        "--seed",
        "7",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("misses: 0"));
}

#[test]
fn optimize_prefers_resident_for_tiny_models() {
    let out = rtmdm(&[
        "optimize",
        "--task",
        "control=micro-mlp@20",
        "--task",
        "kws=ds-cnn@100",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("all-in-sram"), "{stdout}");
    assert!(stdout.contains("headroom"));
}

/// Runs `rtmdm serve` with `args` and the given stdin and environment.
fn serve(args: &[&str], env: &[(&str, &str)], stdin: &str) -> std::process::Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtmdm"))
        .arg("serve")
        .args(args)
        .envs(env.iter().copied())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("stdin written");
    child.wait_with_output().expect("serve exits")
}

/// A line nested far past the parser's depth cap gets an error record
/// and the stream goes on, both streaming and in a sharded `--once`
/// batch (whose worker threads have smaller stacks than the main one).
#[test]
fn deeply_nested_serve_lines_get_error_records() {
    let valid = r#"{"id":"ok","tasks":[{"name":"kws","model":"ds-cnn","period_us":100000}]}"#;
    let input = format!("{valid}\n{}\n{valid}\n", "[".repeat(50_000));
    for (args, env) in [
        (&[][..], &[][..]),
        (&["--once"][..], &[("RTMDM_THREADS", "2")][..]),
    ] {
        let out = serve(args, env, &input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{args:?}: {stdout}");
        assert!(lines[0].contains(r#""verdict":"admit""#), "{}", lines[0]);
        assert!(lines[1].contains(r#""ok":false"#), "{}", lines[1]);
        assert!(lines[1].contains("nesting deeper than 128"), "{}", lines[1]);
        assert_eq!(lines[0], lines[2]);
    }
}

/// A period so long that 16 periods overflow `u64` cycles is not a
/// divergent response-time iteration: the set is admitted, with only
/// the hyperperiod warning, by `check` and by `serve` alike.
#[test]
fn very_long_periods_are_not_reported_divergent() {
    for task in ["kws=ds-cnn@600000000000", "kws=ds-cnn@6000000000000"] {
        let out = rtmdm(&["check", "--platform", "stm32f746-qspi", "--task", task]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{task}: {stdout}");
        assert!(stdout.contains("RTM025"), "{task}: {stdout}");
        assert!(!stdout.contains("RTM026"), "{task}: {stdout}");
    }
    let line =
        r#"{"id":"a","tasks":[{"name":"kws","model":"ds-cnn","period_us":18446744073709551615}]}"#;
    let out = serve(&[], &[], &format!("{line}\n"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains(r#""verdict":"admit""#), "{stdout}");
    assert!(stdout.contains("RTM025"), "{stdout}");
    assert!(!stdout.contains("RTM026"), "{stdout}");
}

#[test]
fn listing_subcommands_work() {
    let p = rtmdm(&["platforms"]);
    assert!(p.status.success());
    assert!(String::from_utf8_lossy(&p.stdout).contains("stm32f746-qspi"));
    let m = rtmdm(&["models"]);
    assert!(m.status.success());
    assert!(String::from_utf8_lossy(&m.stdout).contains("mobilenet-v1-025"));
}

#[test]
fn bad_usage_exits_one() {
    assert_eq!(rtmdm(&[]).status.code(), Some(1));
    assert_eq!(rtmdm(&["frobnicate"]).status.code(), Some(1));
    assert_eq!(
        rtmdm(&["admit", "--task", "not-a-task-spec"]).status.code(),
        Some(1)
    );
    // Unknown model name.
    assert_eq!(
        rtmdm(&["admit", "--task", "x=no-such-model@100"])
            .status
            .code(),
        Some(1)
    );
}

/// Times given in milliseconds or seconds are scaled to microseconds;
/// a value whose scaled form does not fit in `u64` is a usage error,
/// never a silently wrapped period or horizon.
#[test]
fn overflowing_time_arguments_are_usage_errors() {
    // 18446744073709552 ms × 1000 exceeds u64::MAX µs.
    for task in [
        "kws=ds-cnn@18446744073709552",
        "kws=ds-cnn@100/18446744073709552",
    ] {
        let out = rtmdm(&["admit", "--task", task]);
        assert_eq!(out.status.code(), Some(1), "{task}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("SCHEDULABLE"),
            "{task}: no verdict on a wrapped period"
        );
    }
    // 18446744073710 s × 10⁶ exceeds u64::MAX µs.
    for cmd in ["simulate", "trace", "explain"] {
        let out = rtmdm(&[
            cmd,
            "--task",
            "kws=ds-cnn@100",
            "--seconds",
            "18446744073710",
        ]);
        assert_eq!(out.status.code(), Some(1), "{cmd}");
    }
}

#[test]
fn trace_exports_chrome_json() {
    let dir = std::env::temp_dir().join("rtmdm-cli-trace-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let out = rtmdm(&[
        "trace",
        "--platform",
        "stm32f746-qspi",
        "--task",
        "kws=ds-cnn@100",
        "--seconds",
        "1",
        "--out",
        path.to_str().expect("utf-8 path"),
        "--format",
        "chrome",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("trace written");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_jsonl_and_gantt_go_to_stdout() {
    let out = rtmdm(&[
        "trace",
        "--task",
        "kws=ds-cnn@100",
        "--seconds",
        "1",
        "--format",
        "jsonl",
        "--gantt",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("nonempty");
    assert!(first.starts_with('{') && first.ends_with('}'), "{first}");
    assert!(stdout.contains("CPU |"), "{stdout}");
    assert!(stdout.contains("DMA |"), "{stdout}");
}

#[test]
fn unknown_trace_format_gets_specific_error() {
    let out = rtmdm(&["trace", "--task", "kws=ds-cnn@100", "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown --format `yaml` (expected `chrome` or `jsonl`)"),
        "{stderr}"
    );
    // Specific diagnostic, not the generic usage banner.
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn strategy_suffix_is_honoured() {
    let out = rtmdm(&[
        "admit",
        "--task",
        "ic=resnet8@400:whole-dnn",
        "--task",
        "control=micro-mlp@25",
    ]);
    // Whole-DNN staging of resnet8 next to a 25 ms control task is
    // rejected on timing (blocking).
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn huge_fault_jitter_saturates_the_retry_budget_instead_of_wrapping() {
    // 2^62 cycles of jitter per attempt: the summed retry budget
    // overflows u64, and bound + budget must saturate past the
    // deadline, not wrap below it into a false admission.
    let out = rtmdm(&[
        "admit",
        "--task",
        "a=ds-cnn@100",
        "--fault-rate",
        "100000",
        "--fault-jitter",
        "4611686018427387904",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert!(stdout.contains("NOT SCHEDULABLE"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn maximal_fault_jitter_simulates_without_panicking() {
    // A jitter bound of u64::MAX draws over the whole word range, and
    // the DMA work it adds saturates.
    let out = rtmdm(&[
        "trace",
        "--task",
        "a=micro-mlp@1",
        "--seconds",
        "1",
        "--fault-rate",
        "100000",
        "--fault-jitter",
        "18446744073709551615",
        "--format",
        "jsonl",
        "--out",
        "/dev/null",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
