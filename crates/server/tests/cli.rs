//! The `popflow-server` binary's argument handling: `--help` succeeds,
//! and a bad invocation exits 2 before the venue is generated or a
//! socket is bound. No case here starts a server — each either prints
//! the usage or fails in argument parsing.

use std::process::{Command, Output};

fn server(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_popflow-server"))
        .args(args)
        .output()
        .expect("the popflow-server binary runs")
}

/// Exit code 2 with `expected` in stderr, and no readiness line.
fn assert_usage_error(args: &[&str], expected: &str) {
    let out = server(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expected), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: the server started: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn help_exits_zero_and_lists_no_strategy_flag() {
    let out = server(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("USAGE: popflow-server"), "{usage}");
    assert!(usage.contains("--scale"), "{usage}");
    assert!(!usage.contains("--strategy"), "{usage}");
}

#[test]
fn strategy_is_an_unknown_flag() {
    assert_usage_error(&["--strategy", "pruned"], "unknown flag \"--strategy\"");
}

#[test]
fn scale_must_be_positive_and_a_number() {
    assert_usage_error(&["--scale", "0"], "--scale must be positive");
    assert_usage_error(&["--scale", "NaN"], "--scale must be positive");
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(&["--seed"], "--seed needs a value");
}
