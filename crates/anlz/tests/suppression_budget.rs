//! The workspace's suppression budget: how many `anlz:allow` pragmas
//! the linted sources may carry. It is pinned like a replay checksum —
//! a change may lower it in its own diff, and raises it only with a
//! stated reason — so "suppressions must not grow" is a gate, not an
//! artifact someone has to open.

use std::path::Path;

use popflow_anlz::{analyze_source, workspace_sources};

/// Real pragmas allowed across the workspace (doc comments that quote
/// the syntax are not pragmas).
const PRAGMA_BUDGET: usize = 8;

#[test]
fn workspace_pragmas_stay_within_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = workspace_sources(&root).expect("workspace discovery");
    assert!(sources.len() > 50, "only {} files found", sources.len());
    let mut pragmas = Vec::new();
    for file in &sources {
        let src = std::fs::read_to_string(&file.abs).expect("readable source");
        let report = analyze_source(&file.rel, &src, file.is_crate_root);
        for allow in report.allows {
            pragmas.push(format!("{}:{}: {}", file.rel, allow.line, allow.rule));
        }
    }
    assert!(
        pragmas.len() <= PRAGMA_BUDGET,
        "{} pragmas, over the budget of {PRAGMA_BUDGET}:\n{}",
        pragmas.len(),
        pragmas.join("\n")
    );
}
