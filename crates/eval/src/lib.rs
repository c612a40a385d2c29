//! `popflow-eval` — evaluation harness for the TKDE'19 reproduction:
//! effectiveness metrics (§5.1), a uniform timed runner over every method,
//! experiment functions regenerating each table and figure of the
//! paper's evaluation (the README's experiment list maps experiment ids
//! to paper artifacts), and the bucket-by-bucket stream [`replay`] the
//! serving demo and tests share. Performance is measured by the
//! separate `bench/` harness, not here.
//!
//! Run the whole suite or one experiment with the bundled binary:
//!
//! ```text
//! cargo run -p popflow-eval --release --bin experiments -- all --scale 0.05
//! cargo run -p popflow-eval --release --bin experiments -- fig8 table7
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod lab;
pub mod method;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod svg;

pub use experiments::ExpOpts;
pub use lab::{Lab, ScoredRun};
pub use method::{run_method, Method, MethodInput, MethodRun};
pub use metrics::{kendall_tau, recall};
pub use report::{render_table, render_tsv, Row};
