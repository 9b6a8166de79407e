//! `run_all <id>…` argument handling: an unknown id is a usage error
//! that lists the known ids and runs nothing.

use std::process::Command;

#[test]
fn unknown_experiment_id_exits_two_and_lists_the_known_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["t2_platforms", "no_such_experiment"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`no_such_experiment`"), "{stderr}");
    assert!(stderr.contains("f15_fleet"), "{stderr}");
    // Ids are all checked before any experiment runs.
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
