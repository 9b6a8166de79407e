//! End-to-end tests of `rtmdm check`: golden-pinned JSON reports and a
//! zoo × platform sweep.

use std::process::Command;

fn rtmdm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rtmdm"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// The machine-readable report format is pinned byte-for-byte: tooling
/// downstream (CI scripts, dashboards) parses it, so accidental schema
/// drift must fail a test, not a consumer.
#[test]
fn check_clean_spec_matches_golden_json() {
    let out = rtmdm(&[
        "check",
        "--platform",
        "stm32f746-qspi",
        "--task",
        "kws=ds-cnn@100",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim(),
        include_str!("golden/check_clean.json").trim()
    );
}

#[test]
fn check_broken_spec_matches_golden_json_and_exits_two() {
    let out = rtmdm(&[
        "check",
        "--platform",
        "stm32f746-qspi",
        "--task",
        "bad=ds-cnn@100/200",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.trim(),
        include_str!("golden/check_broken.json").trim()
    );
}

#[test]
fn check_text_report_names_the_rule_and_locus() {
    let out = rtmdm(&["check", "--task", "bad=ds-cnn@100/200"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RTM020"), "{stdout}");
    assert!(stdout.contains("task bad"), "{stdout}");
    assert!(stdout.contains("1 error(s)"), "{stdout}");
}

#[test]
fn check_allow_suppresses_and_deny_warnings_escalates() {
    let allowed = rtmdm(&["check", "--task", "bad=ds-cnn@100/200", "--allow", "RTM020"]);
    assert_eq!(allowed.status.code(), Some(0));

    // resnet8 every 140 ms next to ds-cnn every 100 ms sits between the
    // 2-task RM bound (~82.8%) and full load: a warning normally, an
    // error under --deny-warnings.
    let args = [
        "check",
        "--task",
        "ic=resnet8@140",
        "--task",
        "kws=ds-cnn@100",
    ];
    let plain = rtmdm(&args);
    assert_eq!(plain.status.code(), Some(0));
    let plain_out = String::from_utf8_lossy(&plain.stdout);
    assert!(plain_out.contains("warn[RTM024]"), "{plain_out}");
    let strict_args: Vec<_> = args.iter().chain(&["--deny-warnings"]).copied().collect();
    let strict = rtmdm(&strict_args);
    assert_eq!(strict.status.code(), Some(2), "{plain_out}");
}

#[test]
fn check_unknown_rule_is_a_usage_error() {
    let out = rtmdm(&["check", "--task", "kws=ds-cnn@100", "--deny", "RTM999"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("RTM999"));
}

/// Every zoo model on every platform preset: the verifier must always
/// produce parseable JSON and exit 0 (clean) or 2 (findings) — never
/// crash, never emit garbage. Relaxed 1 s periods keep feasibility
/// lints quiet where the configuration actually fits.
#[test]
fn check_sweeps_zoo_times_platforms() {
    let models = [
        "micro-mlp",
        "ds-cnn",
        "lenet5",
        "resnet8",
        "mobilenet-v1-025",
        "autoencoder",
    ];
    let platforms = [
        "cortex-m4-lowend",
        "stm32f746-qspi",
        "stm32h743-ospi",
        "ideal-sram",
    ];
    for platform in platforms {
        for model in models {
            let task = format!("t={model}@1000");
            let out = rtmdm(&["check", "--platform", platform, "--task", &task, "--json"]);
            let code = out.status.code();
            assert!(
                code == Some(0) || code == Some(2),
                "{platform}/{model}: exit {code:?}"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout
                    .trim_start()
                    .starts_with("{\"schema\":\"rtmdm-check/1\""),
                "{platform}/{model}: {stdout}"
            );
            // Big-SRAM platforms fit everything at a relaxed period.
            if platform == "stm32h743-ospi" || platform == "ideal-sram" {
                assert_eq!(code, Some(0), "{platform}/{model}: {stdout}");
            }
        }
    }
}

/// Periods whose cycle counts come near `u64::MAX`: the exploration
/// horizon and the simulator's next release saturate instead of
/// wrapping, so the first job is released and explored, it meets its
/// deadline, and a release whose deadline cannot be represented counts
/// as past the horizon. In a debug build a wrap would panic instead.
#[test]
fn explore_near_the_cycle_limit_releases_a_job_and_reports_no_miss() {
    for period_ms in ["60000000000000", "18000000000000000"] {
        let task = format!("kws=ds-cnn@{period_ms}");
        let out = rtmdm(&["check", "--explore", "--task", &task]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{period_ms}: {stdout}{stderr}");
        assert!(!stdout.contains("RTM050"), "{period_ms}: {stdout}");
        let transitions: u64 = stdout
            .split_once(" runs (")
            .and_then(|(_, rest)| rest.split_once(" transitions)"))
            .and_then(|(n, _)| n.parse().ok())
            .unwrap_or_else(|| panic!("{period_ms}: no summary line in {stdout}"));
        assert!(transitions > 0, "{period_ms}: no job released: {stdout}");
    }
}
