//! `run_all` exit statuses: an unknown id is a usage error that lists
//! the known ids and runs nothing, and an output that cannot be written
//! fails the run.

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

/// An output that cannot be written ends `run_all` with a non-zero
/// status and an error naming the path. Outputs land under the working
/// directory; there a regular file named `results` blocks the results
/// directory.
#[test]
fn unwritable_output_root_exits_nonzero_and_names_the_path() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_all_unwritable");
    std::fs::create_dir_all(&root).expect("scratch root");
    std::fs::write(root.join("results"), "not a directory").expect("blocker file");
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("t2_platforms")
        .current_dir(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let target = root.join("results").join("t2_platforms.txt");
    assert!(
        stderr.contains(&format!("cannot write {}", target.display())),
        "{stderr}"
    );
    std::fs::remove_dir_all(&root).expect("clean up");
}
