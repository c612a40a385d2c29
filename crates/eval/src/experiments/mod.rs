//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§5). Each function returns [`Row`]s ready for rendering;
//! the `experiments` binary dispatches on experiment ids (the README's
//! experiment list maps each id to its paper artifact).

pub mod ablation;
pub mod real;
pub mod synthetic;

use popflow_core::TkPlQuery;

use crate::lab::Lab;
use crate::method::Method;
use crate::report::Row;

/// Global experiment options.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Scale factor for the synthetic scenario (1.0 = the paper's 5K
    /// objects / 2 h — heavy; the binary defaults lower).
    pub scale: f64,
    /// Random (query set, window) draws averaged per measurement point
    /// (the paper uses 15–20).
    pub repeats: usize,
    /// Monte Carlo rounds on the real-analog data (paper: 900).
    pub mc_rounds_real: usize,
    /// Monte Carlo rounds on the synthetic data (paper: 25 000).
    pub mc_rounds_synthetic: usize,
    /// Base seed for workload draws.
    pub seed: u64,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            scale: 0.05,
            repeats: 3,
            mc_rounds_real: 200,
            mc_rounds_synthetic: 120,
            seed: 42,
        }
    }
}

/// Runs every method on every query and averages into one row per method.
pub(crate) fn run_point(
    lab: &mut Lab,
    exp: &str,
    x: &str,
    methods: &[Method],
    queries: &[TkPlQuery],
) -> Vec<Row> {
    let mut rows = Vec::with_capacity(methods.len());
    for &method in methods {
        let mut time = 0.0;
        let mut pruning = 0.0;
        let mut tau = 0.0;
        let mut rec = 0.0;
        let mut fallbacks = 0usize;
        for q in queries {
            let scored = lab.evaluate(method, q);
            time += scored.run.elapsed_secs;
            pruning += scored.run.outcome.stats.pruning_ratio();
            tau += scored.tau;
            rec += scored.recall;
            fallbacks += usize::from(scored.run.dp_fallback);
        }
        let n = queries.len().max(1) as f64;
        let mut row = Row::new(exp, x, method.name());
        row.time_secs = Some(time / n);
        row.pruning = Some(pruning / n);
        row.tau = Some(tau / n);
        row.recall = Some(rec / n);
        if fallbacks > 0 {
            row.note = format!("dp-fallback×{fallbacks}");
        }
        rows.push(row);
    }
    rows
}

/// Derives a per-(experiment, point, repeat) workload seed.
pub(crate) fn seed_for(opts: &ExpOpts, exp_tag: u64, point: u64, repeat: u64) -> u64 {
    opts.seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(exp_tag << 32)
        .wrapping_add(point << 16)
        .wrapping_add(repeat)
}
