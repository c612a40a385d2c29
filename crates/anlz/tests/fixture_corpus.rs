//! Fixture corpus: each rule fires on its known-bad snippet at the
//! expected lines, and stays quiet on the known-clean twin.
//!
//! Fixtures are analyzed under *virtual* workspace-relative paths so
//! the corpus exercises the real path scoping (hot path, kernel path,
//! obs exemption, crate roots) without living inside those crates.

use popflow_anlz::analyze_source;

const R1_BAD: &str = include_str!("fixtures/r1_bad.rs");
const R1_CLEAN: &str = include_str!("fixtures/r1_clean.rs");
const R2_BAD: &str = include_str!("fixtures/r2_bad.rs");
const R2_CLEAN: &str = include_str!("fixtures/r2_clean.rs");
const R3_BAD: &str = include_str!("fixtures/r3_bad.rs");
const R3_CLEAN: &str = include_str!("fixtures/r3_clean.rs");
const R4_BAD: &str = include_str!("fixtures/r4_bad.rs");
const R4_CLEAN: &str = include_str!("fixtures/r4_clean.rs");
const R5_BAD: &str = include_str!("fixtures/r5_bad.rs");
const R5_CLEAN: &str = include_str!("fixtures/r5_clean.rs");
const DOC_PRAGMA: &str = include_str!("fixtures/doc_pragma.rs");

/// `(rule, line)` pairs of the unsuppressed findings.
fn findings(path: &str, src: &str, is_crate_root: bool) -> Vec<(String, u32)> {
    analyze_source(path, src, is_crate_root)
        .diagnostics
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

const HOT: &str = "crates/serve/src/fixture.rs";
const KERNEL: &str = "crates/core/src/fixture.rs";
const EXEC: &str = "crates/exec/src/fixture.rs";

#[test]
fn r1_bad_fires_on_both_iteration_forms() {
    assert_eq!(
        findings(HOT, R1_BAD, false),
        vec![
            ("nondeterministic-iteration".to_string(), 6),
            ("nondeterministic-iteration".to_string(), 11),
        ]
    );
}

#[test]
fn r1_clean_is_quiet() {
    assert_eq!(findings(HOT, R1_CLEAN, false), vec![]);
}

#[test]
fn r1_bad_is_quiet_outside_the_hot_path() {
    assert_eq!(
        findings("crates/eval/src/fixture.rs", R1_BAD, false),
        vec![]
    );
}

#[test]
fn r2_bad_fires_on_hash_ordered_float_sum() {
    assert_eq!(
        findings(KERNEL, R2_BAD, false),
        vec![("unordered-float-accumulation".to_string(), 6)]
    );
}

#[test]
fn r2_clean_is_quiet() {
    assert_eq!(findings(KERNEL, R2_CLEAN, false), vec![]);
}

#[test]
fn r3_bad_fires_on_unwrap_subscript_and_panic() {
    assert_eq!(
        findings(HOT, R3_BAD, false),
        vec![
            ("panic-in-hot-path".to_string(), 4),
            ("panic-in-hot-path".to_string(), 5),
            ("panic-in-hot-path".to_string(), 10),
        ]
    );
}

#[test]
fn r3_clean_is_quiet() {
    assert_eq!(findings(HOT, R3_CLEAN, false), vec![]);
}

#[test]
fn r4_bad_fires_on_bare_relaxed() {
    assert_eq!(
        findings(EXEC, R4_BAD, false),
        vec![("atomic-ordering-audit".to_string(), 6)]
    );
}

#[test]
fn r4_bad_is_exempt_under_obs() {
    assert_eq!(findings("crates/obs/src/fixture.rs", R4_BAD, false), vec![]);
}

#[test]
fn r4_clean_suppresses_with_pragma() {
    let report = analyze_source(EXEC, R4_CLEAN, false);
    assert!(report.diagnostics.is_empty());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "atomic-ordering-audit");
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].reason, "counter is telemetry-only");
}

#[test]
fn r5_bad_fires_twice_on_the_crate_root() {
    assert_eq!(
        findings("crates/eval/src/lib.rs", R5_BAD, true),
        vec![
            ("missing-crate-hygiene".to_string(), 1),
            ("missing-crate-hygiene".to_string(), 1),
        ]
    );
}

#[test]
fn r5_bad_is_quiet_when_not_a_crate_root() {
    assert_eq!(findings("crates/eval/src/other.rs", R5_BAD, false), vec![]);
}

#[test]
fn r5_clean_is_quiet() {
    assert_eq!(findings("crates/eval/src/lib.rs", R5_CLEAN, true), vec![]);
}

#[test]
fn a_doc_comment_quoting_a_pragma_suppresses_nothing() {
    let report = analyze_source(HOT, DOC_PRAGMA, false);
    assert_eq!(
        findings(HOT, DOC_PRAGMA, false),
        vec![("panic-in-hot-path".to_string(), 8)]
    );
    assert!(report.allows.is_empty(), "{:?}", report.allows);
    assert!(report.suppressed.is_empty());
}
