//! Ablations beyond the paper (see the README's experiment list): the
//! transition-DP presence engine versus the paper's path enumeration,
//! and the full-product versus valid-path presence normalization.

use std::time::Instant;

use popflow_core::{nested_loop, FlowConfig, Normalization, PresenceEngine, TkPlQuery};

use crate::experiments::{seed_for, ExpOpts};
use crate::lab::Lab;
use crate::metrics::kendall_tau;
use crate::report::Row;

/// ablation-dp: wall-clock of the Nested-Loop search with the enumeration
/// engine vs the transition DP, over growing Δt, with a result-identity
/// check.
pub fn ablation_dp(opts: &ExpOpts) -> Vec<Row> {
    let lab = Lab::synthetic(opts.scale);
    let mut rows = Vec::new();
    for (pi, dt) in [5i64, 15, 30, 60].into_iter().enumerate() {
        let seed = seed_for(opts, 100, pi as u64, 0);
        let query = TkPlQuery::new(
            10,
            lab.query_fraction(0.08, seed),
            lab.random_window(dt, seed ^ 0x1),
        );
        let record = |engine: PresenceEngine, name: &str| {
            let cfg = FlowConfig {
                engine,
                ..FlowConfig::default()
            };
            let start = Instant::now();
            let out = nested_loop(&lab.world.space, lab.iupt(), &query, &cfg);
            let elapsed = start.elapsed().as_secs_f64();
            let mut row = Row::new("ablation-dp", format!("dt={dt}min"), name);
            row.time_secs = Some(elapsed);
            (row, out.ok())
        };
        let (mut row_enum, out_enum) = record(PresenceEngine::PathEnumeration, "NL/enumeration");
        let (mut row_dp, out_dp) = record(PresenceEngine::TransitionDp, "NL/transition-dp");
        let out_dp = out_dp.expect("the DP engine has no path budget");
        // The engines must agree exactly when enumeration completes; an
        // exceeded budget is itself a result (it is what the DP removes).
        let verdict = match &out_enum {
            Some(out_enum) => {
                let identical = out_enum.topk_slocs() == out_dp.topk_slocs();
                let flows_close = out_enum
                    .ranking
                    .iter()
                    .zip(out_dp.ranking.iter())
                    .all(|(a, b)| (a.flow - b.flow).abs() < 1e-6);
                if identical && flows_close {
                    "identical"
                } else {
                    "MISMATCH"
                }
            }
            None => "enum-budget-exceeded",
        };
        row_enum.note = verdict.into();
        row_dp.note = verdict.into();
        rows.push(row_enum);
        rows.push(row_dp);
    }
    rows
}

/// ablation-norm: ranking agreement between the two presence
/// normalizations, each scored against ground truth.
pub fn ablation_norm(opts: &ExpOpts) -> Vec<Row> {
    let lab = Lab::real_analog();
    let mut rows = Vec::new();
    for (pi, dt) in [30i64, 60].into_iter().enumerate() {
        let seed = seed_for(opts, 101, pi as u64, 0);
        let query = TkPlQuery::new(
            3,
            lab.query_fraction(0.6, seed),
            lab.random_window(dt, seed ^ 0x2),
        );
        let truth = lab.ground_truth_topk(&query);
        let run = |norm: Normalization, name: &str| {
            // The DP engine isolates the normalization difference from any
            // path-budget effects (identical values, no enumeration).
            let cfg = FlowConfig {
                normalization: norm,
                engine: PresenceEngine::TransitionDp,
                ..FlowConfig::default()
            };
            let start = Instant::now();
            let out = nested_loop(&lab.world.space, lab.iupt(), &query, &cfg).unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            let mut row = Row::new("ablation-norm", format!("dt={dt}min"), name);
            row.time_secs = Some(elapsed);
            row.tau = Some(kendall_tau(&out.topk_slocs(), &truth));
            (row, out)
        };
        let (mut row_full, out_full) = run(Normalization::FullProduct, "full-product");
        let (mut row_valid, out_valid) = run(Normalization::ValidPaths, "valid-paths");
        let agreement = kendall_tau(&out_full.topk_slocs(), &out_valid.topk_slocs());
        row_full.note = format!("agreement τ={agreement:.3}");
        row_valid.note = row_full.note.clone();
        rows.push(row_full);
        rows.push(row_valid);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_dp_engines_agree_at_micro_scale() {
        let opts = ExpOpts {
            scale: 0.004,
            repeats: 1,
            ..ExpOpts::default()
        };
        let rows = ablation_dp(&opts);
        assert_eq!(rows.len(), 8);
        assert!(rows
            .iter()
            .all(|r| r.note == "identical" || r.note == "enum-budget-exceeded"));
        assert!(rows.iter().all(|r| r.note != "MISMATCH"));
    }

    #[test]
    fn ablation_norm_reports_agreement() {
        let opts = ExpOpts {
            repeats: 1,
            ..ExpOpts::default()
        };
        let rows = ablation_norm(&opts);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.note.starts_with("agreement")));
    }
}
