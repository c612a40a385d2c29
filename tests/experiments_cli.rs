//! The `experiments` binary's argument handling: a typo must fail the
//! invocation before any experiment runs, not print a line to stderr
//! and exit 0 after the valid ids have already burned their minutes.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn unknown_id_is_a_usage_error_before_anything_runs() {
    // `table4` is valid and listed first: were ids validated lazily it
    // would run (and print its header) before `tabel5` was noticed.
    let out = experiments(&["table4", "tabel5", "--scale", "0.01"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id: tabel5"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
}

#[test]
fn unknown_flag_is_a_usage_error_not_an_experiment_id() {
    let out = experiments(&["table4", "--sclae", "0.01"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --sclae"), "{stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran before the check");
}
