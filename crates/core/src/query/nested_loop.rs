//! The Nested-Loop TkPLQ algorithm (§4.1, paper Algorithm 3): one pass
//! over the objects, sharing each object's reduced sequence and possible
//! paths across all query locations instead of re-computing them per
//! location as the naive algorithm does.

use std::collections::HashMap;

use indoor_iupt::Iupt;
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowConfig, FlowError};
use crate::flow::object_flow_contributions;
use crate::query::{rank_topk, QueryOutcome, SearchStats, TkPlQuery};

/// Evaluates a TkPLQ in the nested-loop join paradigm.
///
/// Each object's per-location scores come from
/// [`object_flow_contributions`] — the same kernel the incremental
/// `popflow-serve` engine caches per bucket, so batch and incremental
/// evaluation agree bit for bit.
///
/// The search is embarrassingly parallel over objects: each object's
/// kernel is independent, and only the final accumulation couples them.
/// The kernels fan out through [`popflow_exec::try_par_map`] across
/// `cfg.exec.threads` workers (dynamic load balancing, deterministic
/// in-order merge; with the default `threads = 1` nothing is spawned)
/// and the merged contributions accumulate **in ascending object-id
/// order**, so rankings, flows and [`SearchStats`] are **bit-identical**
/// at every thread count, and an error surfaces as the first error in
/// object-id order.
pub fn nested_loop(
    space: &IndoorSpace,
    iupt: &mut Iupt,
    query: &TkPlQuery,
    cfg: &FlowConfig,
) -> Result<QueryOutcome, FlowError> {
    // Global scores `HQ : Q → score` (Algorithm 3 line 5).
    let mut global: HashMap<SLocId, f64> =
        query.query_set.slocs().iter().map(|&s| (s, 0.0)).collect();

    // `sequences_in` returns objects in ascending id order and
    // `try_par_map` preserves item order, so the accumulation below is
    // the same floating-point sum at every thread count.
    let sequences = iupt.sequences_in(query.interval);
    let objects_total = sequences.len();
    let contributions = popflow_exec::try_par_map(cfg.exec, &sequences, |_, seq| {
        object_flow_contributions(
            space,
            seq.records.iter().map(|r| r.samples),
            &query.query_set,
            cfg,
        )
    })?;

    let mut objects_computed = 0;
    let mut dp_fallback_objects = 0;
    // `None` = PSL-pruned (Algorithm 3 line 8).
    for contribution in contributions.into_iter().flatten() {
        objects_computed += 1;
        dp_fallback_objects += usize::from(contribution.dp_fallback);
        contribution.add_to(&mut global);
    }

    Ok(QueryOutcome {
        // Ranked in one expression: the unordered drain feeds straight
        // into rank_topk's total sort, so hash order never escapes.
        ranking: rank_topk(global.into_iter().collect(), query.k),
        stats: SearchStats {
            objects_total,
            objects_computed,
            dp_fallback_objects,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Normalization, PresenceEngine};
    use crate::query::naive;
    use crate::query_set::QuerySet;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    #[test]
    fn example4_top1_is_r6() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval());
        let cfg = FlowConfig {
            use_reduction: false,
            ..FlowConfig::default()
        }
        .with_full_product_normalization();
        let out = nested_loop(&fig.space, &mut iupt, &query, &cfg).unwrap();
        assert_eq!(out.ranking[0].sloc, fig.r[5]);
        assert!((out.ranking[0].flow - 1.97).abs() < 1e-9);
    }

    /// Nested-loop must return exactly the naive ranking and flows, with
    /// every engine/normalization/reduction combination.
    #[test]
    fn agrees_with_naive_in_all_configs() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
        for use_reduction in [true, false] {
            for engine in [
                PresenceEngine::PathEnumeration,
                PresenceEngine::TransitionDp,
            ] {
                for normalization in [Normalization::FullProduct, Normalization::ValidPaths] {
                    let cfg = FlowConfig {
                        use_reduction,
                        engine,
                        normalization,
                        ..FlowConfig::default()
                    };
                    let mut iupt = paper_table2();
                    let nl = nested_loop(&fig.space, &mut iupt, &query, &cfg).unwrap();
                    let mut iupt = paper_table2();
                    let nv = naive(&fig.space, &mut iupt, &query, &cfg).unwrap();
                    assert_eq!(nl.topk_slocs(), nv.topk_slocs(), "cfg {cfg:?}");
                    for (a, b) in nl.ranking.iter().zip(nv.ranking.iter()) {
                        assert!(
                            (a.flow - b.flow).abs() < 1e-9,
                            "cfg {cfg:?}: {} vs {}",
                            a.flow,
                            b.flow
                        );
                    }
                }
            }
        }
    }

    /// With reduction on, nested-loop prunes o3 for a query set not
    /// touching its PSLs.
    #[test]
    fn psl_pruning_reflected_in_stats() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        // Q = {r1, r2, r5}: prunes o3 (PSLs {r3, r4, r6}).
        let query = TkPlQuery::new(
            3,
            QuerySet::new(vec![fig.r[0], fig.r[1], fig.r[4]]),
            interval(),
        );
        let out = nested_loop(&fig.space, &mut iupt, &query, &FlowConfig::default()).unwrap();
        assert_eq!(out.stats.objects_total, 3);
        assert_eq!(out.stats.objects_computed, 2);
        assert!((out.stats.pruning_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    /// Every thread count returns the `threads = 1` outcome bit for bit
    /// — ranking, flows, and stats — across configs.
    #[test]
    fn par_bit_identical_to_serial() {
        let fig = paper_figure1();
        for cfg in [
            FlowConfig::default(),
            FlowConfig::default().with_dp_engine(),
            FlowConfig::default().without_reduction(),
            FlowConfig::default().with_full_product_normalization(),
        ] {
            let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
            let mut i1 = paper_table2();
            let serial = nested_loop(&fig.space, &mut i1, &query, &cfg).unwrap();
            for threads in [1, 2, 4, 7] {
                let par_cfg = FlowConfig {
                    exec: popflow_exec::ExecConfig::with_threads(threads),
                    ..cfg
                };
                let mut i2 = paper_table2();
                let par = nested_loop(&fig.space, &mut i2, &query, &par_cfg).unwrap();
                assert_eq!(serial.topk_slocs(), par.topk_slocs(), "threads {threads}");
                for (a, b) in serial.ranking.iter().zip(par.ranking.iter()) {
                    assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "threads {threads}");
                }
                assert_eq!(serial.stats.objects_total, par.stats.objects_total);
                assert_eq!(serial.stats.objects_computed, par.stats.objects_computed);
                assert_eq!(
                    serial.stats.dp_fallback_objects,
                    par.stats.dp_fallback_objects
                );
            }
        }
    }

    /// A blown path budget on the pure enumeration engine surfaces as
    /// the same error whether or not workers are forked.
    #[test]
    fn budget_error_propagates_at_every_thread_count() {
        let fig = paper_figure1();
        for threads in [1, 4] {
            let cfg = FlowConfig {
                path_budget: 1,
                exec: popflow_exec::ExecConfig::with_threads(threads),
                ..FlowConfig::default()
            };
            let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
            let mut iupt = paper_table2();
            let err = nested_loop(&fig.space, &mut iupt, &query, &cfg).unwrap_err();
            assert_eq!(err, FlowError::PathBudgetExceeded { budget: 1 });
        }
    }

    /// The -ORG variant processes every object.
    #[test]
    fn org_variant_processes_all_objects() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let query = TkPlQuery::new(
            3,
            QuerySet::new(vec![fig.r[0], fig.r[1], fig.r[4]]),
            interval(),
        );
        let cfg = FlowConfig::default().without_reduction();
        let out = nested_loop(&fig.space, &mut iupt, &query, &cfg).unwrap();
        assert_eq!(out.stats.objects_computed, 3);
        assert_eq!(out.stats.pruning_ratio(), 0.0);
    }
}
