//! The `experiments` binary's argument handling: a typo or a bad flag
//! value must fail the invocation before any experiment runs, not print
//! a line to stderr and exit 0 after the valid ids have already burned
//! their minutes, nor panic.

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

/// A flag value that does not parse, or a scale outside (0, ∞), is a
/// usage error — exit 2 with nothing on stdout — not a panic.
#[test]
fn bad_flag_values_are_usage_errors() {
    for (args, expected) in [
        (&["table4", "--scale", "abc"][..], "--scale: cannot parse"),
        (
            &["table4", "--scale", "0"][..],
            "--scale must be a positive number",
        ),
        (
            &["table4", "--scale", "NaN"][..],
            "--scale must be a positive number",
        ),
        (&["table4", "--repeats", "x"][..], "--repeats: cannot parse"),
        (&["table4", "--seed"][..], "--seed requires a value"),
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: an experiment ran");
    }
}

/// The timing experiments are gone: their ids are unknown, like any
/// typo.
#[test]
fn removed_timing_experiments_are_unknown_ids() {
    for id in ["streaming", "server_load", "batch_scale", "store_footprint"] {
        let out = experiments(&[id]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{id}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown experiment id: {id}")),
            "{id}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{id}: an experiment ran");
    }
}
