//! The `--quick` smoke: the whole suite at miniature sizes — all four
//! workloads, untraced and traced, with both output checks (NL against
//! BF, wire deltas against `reference_deltas`). Its numbers mean
//! nothing; that every run ends `correct` is the point.

use std::process::Command;

#[test]
fn quick_suite_runs_every_workload_and_passes_its_checks() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let out = Command::new(env!("CARGO_BIN_EXE_popbench"))
        .args(["--quick", "--seconds", "1", "--seed", "7"])
        .env("POPBENCH_OUT", &out_dir)
        .output()
        .expect("popbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "suite failed:\n{stdout}\n{stderr}");

    let report = std::fs::read_to_string(out_dir.join("report.json")).expect("report written");
    assert_eq!(report.matches("\"correct\": true").count(), 8, "{report}");
    assert_eq!(report.matches("\"correct\": false").count(), 0);
    for key in [
        "\"commit\"",
        "\"rustc\"",
        "\"cores\"",
        "\"seed\": 7",
        "\"samples\"",
        "\"sizes\"",
    ] {
        assert!(report.contains(key), "no {key} in the report envelope");
    }
    for workload in [
        "batch_adhoc",
        "wire_paced_dwell",
        "wire_paced_uniform",
        "wire_saturate",
    ] {
        assert!(stdout.contains(&format!("# {workload} seed 7 seconds 1 trace 0")));
        assert!(stdout.contains(&format!("# {workload} seed 7 seconds 1 trace 1")));
        assert!(out_dir.join(format!("trace-{workload}.json")).is_file());
    }
    // Every metric is printed by name at least once.
    for name in [
        "primary_ms_p90",
        "setup_s",
        "popflow-core.dp_ns_per_cell",
        "trace.overhead_ratio",
    ] {
        assert!(stdout.contains(name), "{name} not printed");
    }
}

#[test]
fn a_bad_argument_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_popbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("popbench starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
