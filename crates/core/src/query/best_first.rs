//! The Best-First TkPLQ algorithm (§4.2, paper Algorithm 4): rank the
//! query locations by COUNT upper bounds on their flow and evaluate them
//! lazily, best bound first, so unpromising query locations and the
//! objects only relevant to them are never evaluated.
//!
//! The paper obtains its bounds by joining an R-tree over the query
//! S-locations with a COUNT-aggregate R-tree over the objects' PSL MBRs.
//! This driver keeps the search and drops the join: a preparation pass
//! (forked across `cfg.exec.threads` workers) merges the per-object PSL
//! lists into one exact candidate count per query location
//! ([`LocationBound`]), and a [`ThresholdHeap`] loop evaluates locations
//! lazily, fanning each location's candidate objects across the same
//! workers and accumulating the flow in ascending object-id order. Exact
//! counts are at least as tight as R-tree node counts, and on the
//! `batch_adhoc` benchmark workload building and descending the two
//! trees cost 22 ms of the join's 37 ms per query while pruning no more
//! than the exact counts do — which is why the join is gone.
//!
//! Ties resolve exactly like [`rank_topk`] (descending flow, then
//! ascending location id), and every per-object presence goes through one
//! function over shared per-object state, so rankings and flows are
//! **bit-identical at every thread count** and to
//! [`nested_loop`](crate::query::nested_loop)'s.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use indoor_iupt::{Iupt, ObjectId, ObjectSequence, SampleSet};
use indoor_model::{IndoorSpace, SLocId};
use popflow_exec::try_par_map;

use crate::config::{FlowConfig, FlowError, PresenceEngine};
use crate::dp::presence_dp;
use crate::paths::{build_paths, full_product_mass, PathSet};
use crate::presence::presence_from_paths;
use crate::query::bounds::{LocationBound, ThresholdHeap, ThresholdStep};
use crate::query::{rank_topk, QueryOutcome, SearchStats, TkPlQuery};
use crate::query_set::{intersect_sorted, QuerySet};
use crate::reduction::scan_sequence;

/// Per-object cached state shared across all exact flow computations
/// ("the intermediate results of each called object should be shared",
/// Algorithm 4 line 28 discussion). Sample sets the reduction left
/// untouched are borrowed straight from the IUPT log.
struct ObjectData<'a> {
    sets: Vec<Cow<'a, SampleSet>>,
    psls: Vec<SLocId>,
    /// Valid possible paths, built lazily on the first exact computation
    /// involving this object (enumeration engines only).
    paths: Option<PathSet>,
    /// Set when the hybrid engine's enumeration exceeded its budget for
    /// this object — subsequent computations go straight to the DP.
    enum_failed: bool,
    full_mass: f64,
}

/// Prepares one object's shared evaluation state: scan (and, per `cfg`,
/// reduce) the sequence and extract its PSLs. Returns `None` when the
/// PSLs miss the query set entirely — the object can never contribute
/// (Algorithm 4 line 8's null check; applied to the `-ORG` variants too,
/// whose sequences stay raw but whose PSLs are still scanned).
fn prepare_object<'a>(
    space: &IndoorSpace,
    query_set: &QuerySet,
    cfg: &FlowConfig,
    seq: &ObjectSequence<'a>,
) -> Result<Option<ObjectData<'a>>, FlowError> {
    // With `merge = false` (the -ORG variants) the scan returns the raw
    // sets borrowed in order, so `sets` is the right sequence under
    // either setting.
    let scanned = scan_sequence(
        space,
        seq.records.iter().map(|r| r.samples),
        cfg.use_reduction,
    )?;
    if !query_set.intersects_sorted(&scanned.psls) {
        return Ok(None);
    }
    let full_mass = full_product_mass(&scanned.sets);
    Ok(Some(ObjectData {
        sets: scanned.sets,
        psls: scanned.psls,
        paths: None,
        enum_failed: false,
        full_mass,
    }))
}

/// A deferred mutation of an [`ObjectData`] discovered while computing a
/// presence against it read-only (so parallel workers can share the
/// state and the coordinator applies updates after the workers join).
enum PathUpdate {
    /// The cached state already had everything needed.
    Keep,
    /// Paths were built for the first time — cache them.
    Built(PathSet),
    /// The hybrid enumeration blew the budget — go straight to the DP
    /// from now on.
    BudgetExceeded,
}

/// One object's presence `Φ(q, o)` against its shared state, without
/// mutating it. Every thread count computes presences through this one
/// function, which is what makes the flows bit-identical.
fn shared_presence(
    space: &IndoorSpace,
    data: &ObjectData<'_>,
    q: SLocId,
    cfg: &FlowConfig,
) -> Result<(f64, bool, PathUpdate), FlowError> {
    match cfg.engine {
        PresenceEngine::TransitionDp => Ok((
            presence_dp(space, &data.sets, q, cfg.normalization),
            false,
            PathUpdate::Keep,
        )),
        PresenceEngine::PathEnumeration => match &data.paths {
            Some(paths) => Ok((
                presence_from_paths(space, paths, q, cfg.normalization, data.full_mass),
                false,
                PathUpdate::Keep,
            )),
            None => {
                let built = build_paths(space.matrix(), &data.sets, cfg.path_budget)?;
                let phi = presence_from_paths(space, &built, q, cfg.normalization, data.full_mass);
                Ok((phi, false, PathUpdate::Built(built)))
            }
        },
        PresenceEngine::Hybrid => {
            if let Some(paths) = &data.paths {
                return Ok((
                    presence_from_paths(space, paths, q, cfg.normalization, data.full_mass),
                    false,
                    PathUpdate::Keep,
                ));
            }
            if !data.enum_failed {
                match build_paths(space.matrix(), &data.sets, cfg.path_budget) {
                    Ok(built) => {
                        let phi = presence_from_paths(
                            space,
                            &built,
                            q,
                            cfg.normalization,
                            data.full_mass,
                        );
                        return Ok((phi, false, PathUpdate::Built(built)));
                    }
                    // Only a blown budget degrades to the exact DP — any
                    // other failure propagates.
                    Err(FlowError::PathBudgetExceeded { .. }) => {
                        return Ok((
                            presence_dp(space, &data.sets, q, cfg.normalization),
                            true,
                            PathUpdate::BudgetExceeded,
                        ));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((
                presence_dp(space, &data.sets, q, cfg.normalization),
                true,
                PathUpdate::Keep,
            ))
        }
    }
}

/// Applies a deferred [`PathUpdate`] to the object's cached state.
fn apply_update(data: &mut ObjectData<'_>, update: PathUpdate) {
    match update {
        PathUpdate::Keep => {}
        PathUpdate::Built(paths) => {
            if data.paths.is_none() {
                data.paths = Some(paths);
            }
        }
        PathUpdate::BudgetExceeded => data.enum_failed = true,
    }
}

/// Evaluates a TkPLQ with the best-first COUNT-bound search.
///
/// 1. **Bounds pass** — every window object is prepared (scan +
///    reduction + PSL extraction) across `cfg.exec.threads` workers; the
///    coordinator merges the per-object candidate lists, in ascending
///    object-id order, into one [`LocationBound`] per query location.
/// 2. **Threshold loop** — a [`ThresholdHeap`] pops the highest bound;
///    the location's candidate objects are evaluated concurrently (paths
///    built lazily and cached per object — "the intermediate results of
///    each called object should be shared") and their presences
///    accumulate in ascending object-id order; the exact flow re-enters
///    the heap. Locations whose bound never reaches the k-th exact flow
///    are never evaluated.
///
/// With the default `threads = 1` nothing is spawned. The ranking and
/// every flow are **bit-identical** at every thread count.
pub fn best_first(
    space: &IndoorSpace,
    iupt: &Iupt,
    query: &TkPlQuery,
    cfg: &FlowConfig,
) -> Result<QueryOutcome, FlowError> {
    let sequences = iupt.sequences_in(query.interval);
    let objects_total = sequences.len();

    // ---- Phase 1: the bounds pass (Algorithm 4 lines 1–10).
    let prepared = try_par_map(cfg.exec, &sequences, |_, seq| {
        prepare_object(space, &query.query_set, cfg, seq)
    })?;
    let mut objects: Vec<(ObjectId, ObjectData<'_>)> = Vec::new();
    for (seq, data) in sequences.iter().zip(prepared) {
        if let Some(data) = data {
            objects.push((seq.oid, data));
        }
    }

    // Coordinator-merged candidate lists: per location, the indices of
    // its candidate objects, ascending by object id (`sequences` is
    // id-sorted and the merge preserves that order).
    let mut candidates: HashMap<SLocId, Vec<usize>> = HashMap::new();
    for (i, (_, data)) in objects.iter().enumerate() {
        for q in intersect_sorted(query.query_set.slocs(), &data.psls) {
            candidates.entry(q).or_default().push(i);
        }
    }

    // ---- Phase 2: the threshold loop.
    let mut heap = ThresholdHeap::new();
    for &sloc in query.query_set.slocs() {
        match candidates.get(&sloc).map_or(0, Vec::len) {
            0 => heap.push_exact(sloc, 0.0),
            n => heap.push_bound(LocationBound {
                sloc,
                candidates: n,
            }),
        }
    }

    let mut computed: HashSet<ObjectId> = HashSet::new();
    let mut dp_fallbacks: HashSet<ObjectId> = HashSet::new();
    let mut finals: Vec<(SLocId, f64)> = Vec::with_capacity(query.k);
    while finals.len() < query.k {
        match heap.pop() {
            None => break,
            Some(ThresholdStep::Finalize(sloc, flow)) => finals.push((sloc, flow)),
            Some(ThresholdStep::Evaluate(sloc)) => {
                // anlz:allow(panic-in-hot-path): the heap only yields Evaluate for locations seeded from `candidates` with n > 0
                let idxs = candidates
                    .get(&sloc)
                    .expect("only seeded locations are evaluated");
                let flow = evaluate_location(
                    space,
                    cfg,
                    &mut objects,
                    idxs,
                    sloc,
                    &mut computed,
                    &mut dp_fallbacks,
                )?;
                heap.push_exact(sloc, flow);
            }
        }
    }

    Ok(QueryOutcome {
        ranking: rank_topk(finals, query.k),
        stats: SearchStats {
            objects_total,
            objects_computed: computed.len(),
            dp_fallback_objects: dp_fallbacks.len(),
        },
    })
}

/// One lazy evaluation round: computes `q`'s exact flow over its
/// candidate objects. Presences run concurrently against the shared
/// read-only object states; the coordinator then applies the deferred
/// path updates and accumulates the flow in ascending object-id order,
/// so the floating-point sum does not depend on the thread count.
fn evaluate_location(
    space: &IndoorSpace,
    cfg: &FlowConfig,
    objects: &mut [(ObjectId, ObjectData<'_>)],
    idxs: &[usize],
    q: SLocId,
    computed: &mut HashSet<ObjectId>,
    dp_fallbacks: &mut HashSet<ObjectId>,
) -> Result<f64, FlowError> {
    // Each threshold round opens its own fork-join scope; for a handful
    // of candidates the thread spawns would cost more than the presence
    // work they split, so short lists evaluate on the coordinator
    // (identical computation, identical bits — only the forking differs).
    const MIN_PAR_CANDIDATES: usize = 4;
    let exec = if idxs.len() < MIN_PAR_CANDIDATES {
        popflow_exec::ExecConfig::with_threads(1)
    } else {
        cfg.exec
    };
    let results = {
        let shared: &[(ObjectId, ObjectData<'_>)] = objects;
        try_par_map(exec, idxs, |_, &i| {
            // anlz:allow(panic-in-hot-path): idxs were produced by enumerate() over this exact slice
            shared_presence(space, &shared[i].1, q, cfg)
        })?
    };
    let mut flow = 0.0;
    for (&i, (phi, fell_back, update)) in idxs.iter().zip(results) {
        // anlz:allow(panic-in-hot-path): idxs were produced by enumerate() over this exact Vec
        let (oid, data) = &mut objects[i];
        apply_update(data, update);
        computed.insert(*oid);
        if fell_back {
            dp_fallbacks.insert(*oid);
        }
        flow += phi;
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{naive, nested_loop};
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

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
}
