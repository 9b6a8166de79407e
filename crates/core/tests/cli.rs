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

/// The explorer runs one path at a time and takes no thread count:
/// `--threads` is an unknown flag, refused with the usage line.
#[test]
fn threads_flag_is_a_usage_error() {
    let out = rtmdm(&[
        "check",
        "--task",
        "ic=resnet8@10",
        "--explore",
        "--threads",
        "8",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: rtmdm "));
}

/// The explorer's execution strategy is not a command-line choice:
/// `--strategy` is a usage error whatever its value.
#[test]
fn strategy_flag_is_a_usage_error() {
    for strategy in ["fork", "replay"] {
        let out = rtmdm(&[
            "check",
            "--task",
            "ic=resnet8@10",
            "--explore",
            "--strategy",
            strategy,
        ]);
        assert_eq!(out.status.code(), Some(1), "{strategy}");
        assert!(out.stdout.is_empty(), "{strategy}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: rtmdm "),
            "{strategy}"
        );
    }
}

/// `--jitter PCT` is a percentage below WCET, so 99 is its largest
/// value; anything above is a usage error, not a silent clamp to 99.
#[test]
fn jitter_above_99_is_a_usage_error() {
    let simulate = |pct: &str| rtmdm(&["simulate", "--task", "kws=ds-cnn@100", "--jitter", pct]);
    let explore = |pct: &str| {
        rtmdm(&[
            "check",
            "--task",
            "kws=ds-cnn@100",
            "--explore",
            "--jitter",
            pct,
        ])
    };
    for out in [simulate("150"), explore("100")] {
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: rtmdm "));
    }
    for out in [simulate("99"), explore("99")] {
        assert_eq!(out.status.code(), Some(0));
        assert!(!out.stdout.is_empty());
    }
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

/// A line whose `id` is 1 MiB long is answered, the `id` echoed, well
/// within a bound that re-validating the rest of the line at every
/// character of a string (minutes at this size) misses.
#[test]
fn a_megabyte_id_is_answered_promptly() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};
    let id = "x".repeat(1 << 20);
    let line = format!(
        r#"{{"id":"{id}","tasks":[{{"name":"kws","model":"ds-cnn","period_us":100000}}]}}"#
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_rtmdm"))
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(line.as_bytes()).expect("stdin written");
    stdin.write_all(b"\n").expect("stdin written");
    drop(stdin);
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("a 1 MiB id was not answered within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = reader.join().expect("reader").expect("stdout read");
    assert!(out.contains(&format!(r#""id":"{id}""#)), "id not echoed");
    assert!(out.contains(r#""verdict":"admit""#));
}

/// One task set, spelled as `rtmdm admit` flags and as a `serve` line.
struct FrontEndCase {
    platform: &'static str,
    edf: bool,
    /// `(name, model, period_ms, strategy)`.
    tasks: &'static [(&'static str, &'static str, u64, Option<&'static str>)],
}

impl FrontEndCase {
    fn cli_args(&self) -> Vec<String> {
        let mut args = vec![
            "admit".to_owned(),
            "--platform".to_owned(),
            self.platform.to_owned(),
        ];
        if self.edf {
            args.push("--edf".to_owned());
        }
        for (name, model, period_ms, strategy) in self.tasks {
            args.push("--task".to_owned());
            let suffix = strategy.map(|s| format!(":{s}")).unwrap_or_default();
            args.push(format!("{name}={model}@{period_ms}{suffix}"));
        }
        args
    }

    fn serve_line(&self) -> String {
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .map(|(name, model, period_ms, strategy)| {
                let strategy = strategy
                    .map(|s| format!(r#","strategy":"{s}""#))
                    .unwrap_or_default();
                format!(
                    r#"{{"name":"{name}","model":"{model}","period_us":{}{strategy}}}"#,
                    period_ms * 1000
                )
            })
            .collect();
        let policy = if self.edf { "edf" } else { "fixed-priority" };
        format!(
            r#"{{"id":"x","platform":"{}","options":{{"policy":"{policy}"}},"tasks":[{}]}}"#,
            self.platform,
            tasks.join(",")
        )
    }
}

/// `rtmdm admit`'s verdict and `(task, wcrt bound)` rows in priority
/// order; a refusal before analysis has no rows and reports its reason.
fn cli_verdict(case: &FrontEndCase) -> (bool, Vec<(String, Option<u64>)>, String) {
    let args = case.cli_args();
    let out = rtmdm(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows = stdout
        .lines()
        .skip(2)
        .take_while(|l| l.contains('|'))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            (
                cells[1].to_owned(),
                cells[3]
                    .strip_suffix("cy")
                    .map(|n| n.parse().expect("cycles")),
            )
        })
        .collect();
    let reason = String::from_utf8_lossy(&out.stderr)
        .trim()
        .trim_start_matches("rtmdm: ")
        .to_owned();
    (out.status.code() == Some(0), rows, reason)
}

/// The same triple from `serve`'s answer.
fn serve_verdict(case: &FrontEndCase) -> (bool, Vec<(String, Option<u64>)>, String) {
    use serde::Content;
    let out = serve(&[], &[], &format!("{}\n", case.serve_line()));
    let answer: Content =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("one answer");
    let field = |k: &str| answer.get(k).unwrap_or_else(|| panic!("no `{k}`"));
    let Content::Seq(rta) = field("rta") else {
        panic!("rta is not an array");
    };
    let rows = rta
        .iter()
        .map(|row| {
            let Some(Content::Str(task)) = row.get("task") else {
                panic!("row without task");
            };
            let wcrt = match row.get("wcrt_cycles") {
                Some(Content::U64(n)) => Some(*n),
                _ => None,
            };
            (task.clone(), wcrt)
        })
        .collect();
    let reason = match field("reject_reason") {
        Content::Str(r) if !rta.is_empty() => {
            assert_eq!(r, "schedulability analysis rejected the set");
            String::new()
        }
        Content::Str(r) => r.clone(),
        _ => String::new(),
    };
    let admitted = field("verdict") == &Content::Str("admit".to_owned());
    (admitted, rows, reason)
}

/// The CLI and `serve` build the same system from their inputs and run
/// the same admission on it: for each set the two agree on the verdict,
/// the priority order, every WCRT bound, and the reason for a refusal.
#[test]
fn admit_and_serve_agree_on_every_verdict_and_bound() {
    let cases = [
        FrontEndCase {
            platform: "stm32f746-qspi",
            edf: false,
            tasks: &[
                ("control", "micro-mlp", 20, None),
                ("kws", "ds-cnn", 100, None),
                ("vww", "mobilenet-v1-025", 500, None),
            ],
        },
        FrontEndCase {
            platform: "stm32f746-qspi",
            edf: false,
            tasks: &[
                ("ic", "resnet8", 10, None),
                ("kws", "ds-cnn", 100, Some("whole-dnn")),
            ],
        },
        FrontEndCase {
            platform: "stm32h743-ospi",
            edf: true,
            tasks: &[("kws", "ds-cnn", 100, None), ("ic", "resnet8", 400, None)],
        },
        FrontEndCase {
            platform: "cortex-m4-lowend",
            edf: false,
            tasks: &[
                ("kws", "ds-cnn", 100, None),
                ("vww", "mobilenet-v1-025", 500, Some("all-in-sram")),
            ],
        },
    ];
    for case in &cases {
        let cli = cli_verdict(case);
        let served = serve_verdict(case);
        assert_eq!(cli, served, "{}", case.serve_line());
    }
    // The cases cover an admission, an overload, EDF and a refusal.
    let verdicts: Vec<_> = cases.iter().map(cli_verdict).collect();
    assert!(verdicts[0].0 && verdicts[0].1.iter().all(|(_, b)| b.is_some()));
    assert!(!verdicts[1].0 && !verdicts[1].1.is_empty());
    assert!(verdicts[2].0 && verdicts[2].1.iter().all(|(_, b)| b.is_none()));
    assert!(verdicts[3]
        .2
        .starts_with("memory planning: cannot allocate"));
}
