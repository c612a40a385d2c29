//! popflow-anlz: the workspace determinism & hot-path invariant linter.
//!
//! popflow's correctness story rests on one invariant the compiler
//! cannot see: flows are **bit-identical** (`f64::to_bits`) across the
//! serial, parallel and serving engines. That
//! property survives only as long as engine code avoids a handful of
//! patterns — unordered `HashMap` iteration feeding results, float
//! accumulation in visit order, panics where the poisoning contract
//! promises `Result`s, and under-synchronized atomics. This crate is a
//! dependency-free static-analysis pass (no syn/proc-macro2, mirroring
//! the vendored-shim philosophy) that enforces those patterns as a CI
//! gate.
//!
//! Pipeline: [`lexer`] produces a total, lossless token stream;
//! [`scope`] tracks module/fn/test context; [`pragma`] collects
//! `// anlz:allow(rule-id): reason` suppressions; [`rules`] evaluates
//! the five project rules and yields a [`FileReport`] per file;
//! [`workspace`] enumerates which files `--workspace` sweeps. The
//! binary (`cargo run -p popflow-anlz --release -- --workspace`) exits
//! non-zero on any unsuppressed diagnostic.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod pragma;
pub mod rules;
pub mod scope;
pub mod workspace;

pub use pragma::Allow;
pub use rules::{analyze_source, Diagnostic, FileReport};
pub use workspace::{workspace_sources, SourceFile};
