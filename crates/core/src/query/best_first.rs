//! The Best-First TkPLQ algorithm (§4.2, paper Algorithm 4): rank the
//! query locations by COUNT upper bounds on their flow and evaluate them
//! lazily, best bound first, so unpromising query locations and the
//! objects only relevant to them are never evaluated.
//!
//! The paper obtains its bounds by joining an R-tree over the query
//! S-locations with a COUNT-aggregate R-tree over the objects' PSL MBRs.
//! This driver keeps the search and drops the join: a bounds pass
//! (forked across `cfg.exec.threads` workers) collects each window
//! object's PSLs — only its PSLs: no reduction runs there — and files the
//! object under every query location they touch, one candidate list per
//! query position ([`LocationBound`] is a list's length). Exact counts
//! are at least as tight as R-tree node counts, and on the `batch_adhoc`
//! benchmark workload building and descending the two trees cost 22 ms
//! of the join's 37 ms per query while pruning no more than the exact
//! counts do — which is why the join is gone.
//!
//! A [`ThresholdHeap`] loop then evaluates locations lazily. "The
//! intermediate results of each called object should be shared"
//! (Algorithm 4): the first location that needs an object computes the
//! object's whole contribution — [`object_flow_contributions`], the
//! Nested-Loop kernel, over `Q ∩ psls` — and every later location reads
//! its presence from that one cache. Each object is computed at most
//! once, whatever the engine.
//!
//! Ties resolve exactly like [`rank_topk`] (descending flow, then
//! ascending location id), flows accumulate in ascending object-id
//! order, and every presence is the one
//! [`nested_loop`](crate::query::nested_loop) computes for the same
//! object (a location's score does not depend on which query set holds
//! it), so rankings and flows are **bit-identical at every thread
//! count** and to Nested-Loop's.

use indoor_iupt::{Iupt, ObjectSequence};
use indoor_model::{IndoorSpace, SLocId};
use popflow_exec::{par_map, try_par_map, ExecConfig};

use crate::config::{FlowConfig, FlowError};
use crate::flow::{object_flow_contributions, ObjectContribution};
use crate::query::bounds::{LocationBound, ThresholdHeap, ThresholdStep};
use crate::query::{rank_topk, QueryOutcome, SearchStats, TkPlQuery};
use crate::query_set::QuerySet;
use crate::reduction::scan_psls;

/// Evaluates a TkPLQ with the best-first COUNT-bound search.
///
/// 1. **Bounds pass** — every window object's PSLs are collected across
///    `cfg.exec.threads` workers (no reduction, see [`scan_psls`]); the
///    coordinator files each object, in ascending object-id order, under
///    every query location its PSLs touch. A location's bound is its
///    candidate count; an object whose PSLs miss `Q` is never a
///    candidate (Algorithm 4 line 8's null check, applied to the `-ORG`
///    variants too).
/// 2. **Threshold loop** — a [`ThresholdHeap`] pops the highest bound;
///    the location's candidates not computed yet get their contribution
///    concurrently through [`object_flow_contributions`], each object's
///    cached for every later location, and the candidates' presences
///    accumulate in ascending object-id order; the exact flow re-enters
///    the heap. Locations whose bound never reaches the k-th exact flow
///    are never evaluated, and objects only they list never computed.
///
/// With the default `threads = 1` nothing is spawned. The ranking, every
/// flow and the [`SearchStats`] are **bit-identical** at every thread
/// count. `objects_computed` counts the computed objects and
/// `dp_fallback_objects` those among them the hybrid engine scored with
/// the DP.
///
/// # Errors
/// Those of [`object_flow_contributions`], for the computed objects only,
/// and the first in object-id order within a location's round. An object
/// the search never computes is never reduced either, so a
/// [`FlowError::InvalidSampleSet`] its merge would have raised does not
/// fail the query (Nested-Loop, which computes every object, still
/// reports it).
pub fn best_first(
    space: &IndoorSpace,
    iupt: &Iupt,
    query: &TkPlQuery,
    cfg: &FlowConfig,
) -> Result<QueryOutcome, FlowError> {
    let query_set = &query.query_set;
    let sequences = iupt.sequences_in(query.interval);

    // ---- Phase 1: the bounds pass (Algorithm 4 lines 1–10). Per query
    // position, the indices of its candidate objects, ascending (the
    // sequences are id-sorted and `par_map` keeps their order).
    let psls = par_map(cfg.exec, &sequences, |_, seq| {
        scan_psls(space, seq.records.iter().map(|r| r.samples))
    });
    let mut candidates: Vec<Vec<u32>> = vec![Vec::new(); query_set.len()];
    for (i, psls) in (0u32..).zip(&psls) {
        for &s in psls {
            let list = query_set.index_of(s).and_then(|k| candidates.get_mut(k));
            if let Some(list) = list {
                list.push(i);
            }
        }
    }

    // ---- Phase 2: the threshold loop.
    let mut heap = ThresholdHeap::new();
    for (&sloc, list) in query_set.slocs().iter().zip(&candidates) {
        match list.len() {
            0 => heap.push_exact(sloc, 0.0),
            n => heap.push_bound(LocationBound {
                sloc,
                candidates: n,
            }),
        }
    }

    let mut cache: Vec<Option<ObjectContribution>> = vec![None; sequences.len()];
    let mut finals: Vec<(SLocId, f64)> = Vec::with_capacity(query.k);
    while finals.len() < query.k {
        match heap.pop() {
            None => break,
            Some(ThresholdStep::Finalize(sloc, flow)) => finals.push((sloc, flow)),
            Some(ThresholdStep::Evaluate(sloc)) => {
                let list = query_set.index_of(sloc).and_then(|k| candidates.get(k));
                let list = list.map_or(&[][..], Vec::as_slice);
                compute_missing(space, cfg, query_set, &sequences, &mut cache, list)?;
                heap.push_exact(sloc, flow_from_cache(&cache, list, sloc));
            }
        }
    }

    let computed = cache.iter().flatten();
    let stats = SearchStats {
        objects_total: sequences.len(),
        objects_computed: computed.clone().count(),
        dp_fallback_objects: computed.filter(|c| c.dp_fallback).count(),
    };
    Ok(QueryOutcome {
        ranking: rank_topk(finals, query.k),
        stats,
    })
}

/// One lazy evaluation round's kernel work: computes the contribution of
/// every object of `list` whose cache is empty, concurrently and
/// read-only, and stores them. A contribution covers the object's whole
/// `Q ∩ psls`, so it answers every later location too.
fn compute_missing(
    space: &IndoorSpace,
    cfg: &FlowConfig,
    query_set: &QuerySet,
    sequences: &[ObjectSequence<'_>],
    cache: &mut [Option<ObjectContribution>],
    list: &[u32],
) -> Result<(), FlowError> {
    let missing: Vec<u32> = list
        .iter()
        .copied()
        .filter(|&i| cache.get(i as usize).is_some_and(Option::is_none))
        .collect();
    // Each round opens its own fork-join scope; for a handful of objects
    // the thread spawns would cost more than the kernel work they split,
    // so short lists run on the coordinator (identical computation,
    // identical bits — only the forking differs).
    const MIN_PAR_OBJECTS: usize = 4;
    let exec = if missing.len() < MIN_PAR_OBJECTS {
        ExecConfig::with_threads(1)
    } else {
        cfg.exec
    };
    let computed = try_par_map(exec, &missing, |_, &i| {
        let Some(seq) = sequences.get(i as usize) else {
            return Ok(None);
        };
        let sets = seq.records.iter().map(|r| r.samples);
        object_flow_contributions(space, sets, query_set, cfg)
    })?;
    for (&i, contribution) in missing.iter().zip(computed) {
        if let Some(slot) = cache.get_mut(i as usize) {
            debug_assert!(slot.is_none(), "object {i} computed twice");
            // A candidate's PSLs touch `Q`, so the kernel prunes it under
            // neither setting; the default only keeps the cache total.
            *slot = Some(contribution.unwrap_or_default());
        }
    }
    Ok(())
}

/// `sloc`'s exact flow: its presence in each of `list`'s cached
/// contributions, summed in ascending object-id order.
fn flow_from_cache(cache: &[Option<ObjectContribution>], list: &[u32], sloc: SLocId) -> f64 {
    let mut flow = 0.0;
    for c in list.iter().filter_map(|&i| cache.get(i as usize)?.as_ref()) {
        if let Ok(k) = c.relevant.binary_search(&sloc) {
            flow += c.scores.get(k).copied().unwrap_or(0.0);
        }
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PresenceEngine;
    use crate::query::{naive, nested_loop};
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use indoor_sim::{Scenario, World};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    #[test]
    fn example4_top1_is_r6() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query = TkPlQuery::new(1, QuerySet::new(vec![fig.r[0], fig.r[5]]), interval());
        let cfg = FlowConfig {
            use_reduction: false,
            ..FlowConfig::default()
        }
        .with_full_product_normalization();
        let out = best_first(&fig.space, &iupt, &query, &cfg).unwrap();
        assert_eq!(out.ranking[0].sloc, fig.r[5]);
        assert!((out.ranking[0].flow - 1.97).abs() < 1e-9);
    }

    /// BF returns the same top-k as Naive and NL ("Naive, NL, BF return
    /// the same top-k results for the same query", §5.1) across engines,
    /// reduction settings, normalizations and k values. BF and NL must
    /// agree exactly; against Naive — which sums per location instead of
    /// per object — flow ties at the k-th position make multiple
    /// k-subsets valid per Problem 1, so that comparison is tie-aware:
    /// the per-rank flows must match, and every returned location's flow
    /// must equal its exact (naive, full-ranking) flow.
    #[test]
    fn agrees_with_naive_and_nested_loop() {
        use crate::config::Normalization;
        let fig = paper_figure1();
        let mut cfgs = Vec::new();
        for use_reduction in [true, false] {
            for engine in [
                PresenceEngine::PathEnumeration,
                PresenceEngine::TransitionDp,
            ] {
                for normalization in [Normalization::FullProduct, Normalization::ValidPaths] {
                    cfgs.push(FlowConfig {
                        use_reduction,
                        engine,
                        normalization,
                        ..FlowConfig::default()
                    });
                }
            }
        }
        for k in 1..=6 {
            for cfg in &cfgs {
                let query = TkPlQuery::new(k, QuerySet::new(fig.r.to_vec()), interval());
                let full_query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
                let i1 = paper_table2();
                let bf = best_first(&fig.space, &i1, &query, cfg).unwrap();
                let i2 = paper_table2();
                let nv = naive(&fig.space, &i2, &query, cfg).unwrap();
                let i3 = paper_table2();
                let nl = nested_loop(&fig.space, &i3, &query, cfg).unwrap();
                let i4 = paper_table2();
                let exact = naive(&fig.space, &i4, &full_query, cfg).unwrap();

                assert_eq!(nl.topk_slocs(), nv.topk_slocs(), "k={k} cfg={cfg:?}");
                assert_eq!(bf.topk_slocs(), nl.topk_slocs(), "k={k} cfg={cfg:?}");
                assert_eq!(bf.ranking.len(), k);
                for (rank, (a, b)) in bf.ranking.iter().zip(nv.ranking.iter()).enumerate() {
                    assert!(
                        (a.flow - b.flow).abs() < 1e-9,
                        "k={k} cfg={cfg:?} rank {rank}: {} vs {}",
                        a.flow,
                        b.flow
                    );
                }
                for r in &bf.ranking {
                    let want = exact
                        .ranking
                        .iter()
                        .find(|e| e.sloc == r.sloc)
                        .expect("full ranking covers Q")
                        .flow;
                    assert!(
                        (r.flow - want).abs() < 1e-9,
                        "k={k} cfg={cfg:?} {}: {} vs exact {want}",
                        r.sloc,
                        r.flow
                    );
                }
            }
        }
    }

    /// Small k terminates early and computes no more objects than NL.
    #[test]
    fn early_termination_prunes_objects() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(1, QuerySet::new(fig.r.to_vec()), interval());
        let cfg = FlowConfig::default();
        let i1 = paper_table2();
        let bf = best_first(&fig.space, &i1, &query, &cfg).unwrap();
        let i2 = paper_table2();
        let nl = nested_loop(&fig.space, &i2, &query, &cfg).unwrap();
        assert!(bf.stats.objects_computed <= nl.stats.objects_computed);
        assert_eq!(bf.ranking[0].sloc, nl.ranking[0].sloc);
    }

    /// Zero-flow padding and k-th-rank ties: over a window only some
    /// objects report in, several query locations have zero flow —
    /// some with candidates (evaluated to zero or never evaluated),
    /// some with none (seeded as exact zeros). At every k the returned
    /// order must be the one [`rank_topk`] gives Nested-Loop's full
    /// score table: descending flow, then ascending location id.
    #[test]
    fn pads_with_zero_flow_locations() {
        let fig = paper_figure1();
        let mut zero_flows_seen = 0;
        for (from, to) in [(1, 8), (1, 2), (7, 8)] {
            let window = TimeInterval::new(Timestamp::from_secs(from), Timestamp::from_secs(to));
            for k in 1..=6 {
                let query = TkPlQuery::new(k, QuerySet::new(fig.r.to_vec()), window);
                let i1 = paper_table2();
                let bf = best_first(&fig.space, &i1, &query, &FlowConfig::default()).unwrap();
                let i2 = paper_table2();
                let nl = nested_loop(&fig.space, &i2, &query, &FlowConfig::default()).unwrap();
                assert_eq!(bf.ranking.len(), k);
                assert_eq!(
                    bf.topk_slocs(),
                    nl.topk_slocs(),
                    "window {from}..{to} k={k}"
                );
                for (a, b) in bf.ranking.iter().zip(&nl.ranking) {
                    assert_eq!(
                        a.flow.to_bits(),
                        b.flow.to_bits(),
                        "window {from}..{to} k={k}"
                    );
                }
                zero_flows_seen += bf.ranking.iter().filter(|r| r.flow == 0.0).count();
            }
        }
        assert!(
            zero_flows_seen > 0,
            "the fixture windows must exercise zero flows"
        );
    }

    /// DP engine agreement.
    #[test]
    fn dp_engine_agrees() {
        let fig = paper_figure1();
        let query = TkPlQuery::new(3, QuerySet::new(fig.r.to_vec()), interval());
        let i1 = paper_table2();
        let en = best_first(&fig.space, &i1, &query, &FlowConfig::default()).unwrap();
        let i2 = paper_table2();
        let dp = best_first(
            &fig.space,
            &i2,
            &query,
            &FlowConfig::default().with_dp_engine(),
        )
        .unwrap();
        assert_eq!(en.topk_slocs(), dp.topk_slocs());
        for (a, b) in en.ranking.iter().zip(dp.ranking.iter()) {
            assert!((a.flow - b.flow).abs() < 1e-9);
        }
    }

    /// Every thread count returns the `threads = 1` outcome bit for bit
    /// — every rank, sloc, and flow bit — across engines, reduction
    /// settings, normalizations and k values; and that outcome is
    /// Nested-Loop's, with no more objects evaluated than Nested-Loop
    /// evaluates.
    #[test]
    fn par_bit_identical_to_serial() {
        let fig = paper_figure1();
        for k in [1, 3, 6] {
            for cfg in [
                FlowConfig::default(),
                FlowConfig::default().with_dp_engine(),
                FlowConfig::default().without_reduction(),
                FlowConfig::default().with_full_product_normalization(),
            ] {
                let query = TkPlQuery::new(k, QuerySet::new(fig.r.to_vec()), interval());
                let i1 = paper_table2();
                let serial = best_first(&fig.space, &i1, &query, &cfg).unwrap();
                let i3 = paper_table2();
                let nl = nested_loop(&fig.space, &i3, &query, &cfg).unwrap();
                assert_eq!(serial.topk_slocs(), nl.topk_slocs(), "k={k} cfg={cfg:?}");
                for (a, b) in serial.ranking.iter().zip(&nl.ranking) {
                    assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "k={k} cfg={cfg:?}");
                }
                assert!(serial.stats.objects_computed <= nl.stats.objects_computed);
                for threads in [1, 2, 4, 7] {
                    let par_cfg = FlowConfig {
                        exec: popflow_exec::ExecConfig::with_threads(threads),
                        ..cfg
                    };
                    let i2 = paper_table2();
                    let par = best_first(&fig.space, &i2, &query, &par_cfg).unwrap();
                    assert_eq!(
                        serial.topk_slocs(),
                        par.topk_slocs(),
                        "k={k} threads={threads} cfg={cfg:?}"
                    );
                    for (a, b) in serial.ranking.iter().zip(par.ranking.iter()) {
                        assert_eq!(
                            a.flow.to_bits(),
                            b.flow.to_bits(),
                            "k={k} threads={threads} cfg={cfg:?}"
                        );
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
    }

    /// A blown path budget on the pure enumeration engine surfaces as
    /// the same error whether or not workers are forked.
    #[test]
    fn par_propagates_budget_error() {
        let fig = paper_figure1();
        for threads in [1, 4] {
            let cfg = FlowConfig {
                path_budget: 1,
                exec: popflow_exec::ExecConfig::with_threads(threads),
                ..FlowConfig::default()
            };
            let query = TkPlQuery::new(6, QuerySet::new(fig.r.to_vec()), interval());
            let iupt = paper_table2();
            let err = best_first(&fig.space, &iupt, &query, &cfg).unwrap_err();
            assert_eq!(err, FlowError::PathBudgetExceeded { budget: 1 });
        }
    }

    /// Ten seeded ad hoc queries over `world`: 300 s windows, about 30 %
    /// of the S-locations, k cycling through 1, 3, 5 and 10.
    fn adhoc_queries(world: &World) -> Vec<TkPlQuery> {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let all: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
        let duration = world.scenario.mobility.duration_secs;
        (0..10)
            .map(|i| {
                let start = rng.gen_range(0..duration - 300);
                let window = TimeInterval::new(
                    Timestamp::from_secs(start),
                    Timestamp::from_secs(start + 300),
                );
                let slocs = all.iter().copied().filter(|_| rng.gen_range(0..10) < 3);
                TkPlQuery::new([1, 3, 5, 10][i % 4], slocs.collect(), window)
            })
            .collect()
    }

    /// Per query of [`adhoc_queries`] on a seeded synthetic world and per
    /// configuration (DP, DP without reduction, hybrid with a 2,000-step
    /// path budget, and the hybrid without reduction): `[objects_total,
    /// NL objects_computed, NL dp_fallback_objects, BF objects_computed,
    /// BF dp_fallback_objects, Naive objects_computed, Naive
    /// dp_fallback_objects]`. Naive's hybrid `-ORG` fallbacks count every
    /// window object, relevant to the location or not: Algorithm 2
    /// enumerates every raw sequence, and all fifty blow the budget.
    const PINNED_STATS: [[[usize; 7]; 4]; 10] = [
        [
            [50, 22, 0, 22, 0, 22, 0],
            [50, 50, 0, 5, 0, 50, 0],
            [50, 22, 6, 22, 6, 22, 2],
            [50, 50, 22, 5, 5, 50, 50],
        ],
        [
            [50, 32, 0, 32, 0, 32, 0],
            [50, 50, 0, 13, 0, 50, 0],
            [50, 32, 6, 32, 6, 32, 2],
            [50, 50, 32, 13, 13, 50, 50],
        ],
        [
            [50, 22, 0, 22, 0, 22, 0],
            [50, 50, 0, 22, 0, 50, 0],
            [50, 22, 0, 22, 0, 22, 0],
            [50, 50, 22, 22, 22, 50, 50],
        ],
        [
            [50, 27, 0, 27, 0, 27, 0],
            [50, 50, 0, 27, 0, 50, 0],
            [50, 27, 6, 27, 6, 27, 2],
            [50, 50, 27, 27, 27, 50, 50],
        ],
        [
            [50, 30, 0, 7, 0, 30, 0],
            [50, 50, 0, 3, 0, 50, 0],
            [50, 30, 3, 7, 2, 30, 2],
            [50, 50, 30, 3, 3, 50, 50],
        ],
        [
            [50, 25, 0, 25, 0, 25, 0],
            [50, 50, 0, 6, 0, 50, 0],
            [50, 25, 3, 25, 3, 25, 2],
            [50, 50, 25, 6, 6, 50, 50],
        ],
        [
            [50, 26, 0, 26, 0, 26, 0],
            [50, 50, 0, 26, 0, 50, 0],
            [50, 26, 2, 26, 2, 26, 1],
            [50, 50, 26, 26, 26, 50, 50],
        ],
        [
            [50, 33, 0, 33, 0, 33, 0],
            [50, 50, 0, 33, 0, 50, 0],
            [50, 33, 0, 33, 0, 33, 0],
            [50, 50, 33, 33, 33, 50, 50],
        ],
        [
            [50, 31, 0, 16, 0, 31, 0],
            [50, 50, 0, 8, 0, 50, 0],
            [50, 31, 6, 16, 5, 31, 2],
            [50, 50, 31, 8, 8, 50, 50],
        ],
        [
            [50, 32, 0, 32, 0, 32, 0],
            [50, 50, 0, 15, 0, 50, 0],
            [50, 32, 6, 32, 6, 32, 2],
            [50, 50, 32, 15, 15, 50, 50],
        ],
    ];

    /// Counts, not times: on a seeded synthetic world, the three
    /// searches' statistics are the pinned ones and their flows agree bit
    /// for bit; under pure path enumeration with the same budget, Naive
    /// and BF fail exactly where NL does. (A debug assertion in
    /// `compute_missing` checks that BF computes no object twice.)
    #[test]
    fn pinned_counts_on_a_synthetic_world() {
        let world = World::generate(Scenario::synthetic_scaled(0.01).with_seed(42));
        let dp = FlowConfig::default().with_dp_engine();
        let budgeted = |engine| FlowConfig {
            engine,
            path_budget: 2_000,
            ..FlowConfig::default()
        };
        let hybrid = budgeted(PresenceEngine::Hybrid);
        let cfgs = [
            dp,
            dp.without_reduction(),
            hybrid,
            hybrid.without_reduction(),
        ];
        let (space, iupt) = (&world.space, &world.iupt);
        for (i, (query, pins)) in adhoc_queries(&world).iter().zip(PINNED_STATS).enumerate() {
            for (
                cfg,
                [total, nl_computed, nl_fallback, bf_computed, bf_fallback, nv_computed, nv_fallback],
            ) in cfgs.iter().zip(pins)
            {
                let tag = format!("query {i} cfg {cfg:?}");
                let nl = nested_loop(space, iupt, query, cfg).unwrap();
                let bf = best_first(space, iupt, query, cfg).unwrap();
                let nv = naive(space, iupt, query, cfg).unwrap();
                let stats = |objects_computed, dp_fallback_objects| SearchStats {
                    objects_total: total,
                    objects_computed,
                    dp_fallback_objects,
                };
                assert_eq!(nl.stats, stats(nl_computed, nl_fallback), "{tag}: NL");
                assert_eq!(bf.stats, stats(bf_computed, bf_fallback), "{tag}: BF");
                assert_eq!(nv.stats, stats(nv_computed, nv_fallback), "{tag}: Naive");
                for other in [&bf, &nv] {
                    assert_eq!(other.topk_slocs(), nl.topk_slocs(), "{tag}");
                    for (a, b) in other.ranking.iter().zip(&nl.ranking) {
                        assert_eq!(a.flow.to_bits(), b.flow.to_bits(), "{tag}");
                    }
                }
            }
            let enumeration = budgeted(PresenceEngine::PathEnumeration);
            for cfg in [enumeration, enumeration.without_reduction()] {
                let nl = nested_loop(space, iupt, query, &cfg).is_ok();
                // Only queries 2 and 7, with reduction, fit the budget.
                assert_eq!(nl, cfg.use_reduction && (i == 2 || i == 7), "query {i}");
                assert_eq!(
                    best_first(space, iupt, query, &cfg).is_ok(),
                    nl,
                    "query {i}"
                );
                assert_eq!(naive(space, iupt, query, &cfg).is_ok(), nl, "query {i}");
            }
        }
    }
}
