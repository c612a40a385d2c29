//! Indoor flow computation for a single S-location (§3.3, paper
//! Algorithm 2 `Flow`) and the reusable per-object contribution kernel
//! shared by the batch Nested-Loop search and the incremental
//! `popflow-serve` engine.

use std::collections::HashMap;

use indoor_iupt::{Iupt, ObjectId, SampleSet, TimeInterval};
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowConfig, FlowError, Normalization, PresenceEngine};
use crate::dp::presence_dp_multi;
use crate::fold::SpanFold;
use crate::paths::{build_paths_tracking, full_product_mass, TrackedPathSet};
use crate::presence::presence_prepared_tracked;
use crate::query_set::{intersect_sorted, QuerySet};
use crate::reduction::{reduce_for_query, scan_sequence};

/// Result of a single-location flow computation.
#[derive(Debug, Clone)]
pub struct FlowComputation {
    /// The indoor flow `Θ_{ts,te,O}(q)` (Definition 1).
    pub flow: f64,
    /// Objects with records in the query window.
    pub objects_seen: usize,
    /// Objects whose presence was actually computed (survived PSL pruning).
    pub computed_objects: Vec<ObjectId>,
    /// Objects the hybrid engine evaluated with the DP fallback.
    pub dp_fallback_objects: usize,
}

impl FlowComputation {
    /// The pruning ratio `σ = (|O| − |Of|) / |O|` (§5.1).
    pub fn pruning_ratio(&self) -> f64 {
        if self.objects_seen == 0 {
            return 0.0;
        }
        (self.objects_seen - self.computed_objects.len()) as f64 / self.objects_seen as f64
    }
}

/// One object's flow contributions to the locations of a query set — the
/// per-object unit of work of the Nested-Loop search (Algorithm 3 lines
/// 9–27), factored out so that every evaluation strategy (batch
/// [`crate::query::nested_loop`], the incremental `popflow-serve` engine)
/// computes bit-identical per-object scores from the same records.
#[derive(Debug, Clone, Default)]
pub struct ObjectContribution {
    /// Query locations this object's PSLs touch (`Q ∩ psls`, ascending).
    pub relevant: Vec<SLocId>,
    /// Presence `Φ(q, o)` for each entry of `relevant`.
    pub scores: Vec<f64>,
    /// Whether the hybrid engine fell back to the transition DP.
    pub dp_fallback: bool,
}

impl ObjectContribution {
    /// Adds the contribution into a global score table (Algorithm 3 line
    /// 26). Zero scores are skipped exactly as the batch search skips
    /// them, keeping accumulation bit-identical across strategies.
    pub fn add_to(&self, global: &mut HashMap<SLocId, f64>) {
        for (&q, &score) in self.relevant.iter().zip(&self.scores) {
            if score > 0.0 {
                if let Some(slot) = global.get_mut(&q) {
                    *slot += score;
                }
            }
        }
    }
}

/// Computes one object's contributions to every location of `query_set`
/// from its windowed positioning sequence: runs the §3.2 reduction
/// (per `cfg`), applies PSL pruning, and evaluates presence with the
/// configured engine. The transition DP pushes every record into one
/// [`SpanFold`] and finishes it; the path engines run Algorithm 2 as
/// printed — reduce the whole sequence, enumerate its valid paths, score
/// them — with [`PresenceEngine::Hybrid`] falling back to
/// [`presence_dp_multi`] when the path budget runs out.
///
/// Returns `Ok(None)` when the object is pruned by its PSLs (reduction
/// enabled and `psls ∩ Q = ∅`) — the Algorithm 1 line 13 exclusion. With
/// reduction disabled the object is processed regardless (the `-ORG`
/// semantics) and may return an empty contribution.
///
/// Per-location presence does not depend on which other locations are
/// evaluated alongside it — paths, probabilities, and normalization
/// denominators are all per-object quantities — so each location's score
/// is **bit-identical** whichever query set holds it.
///
/// # Errors
/// The reduction's [`FlowError::InvalidSampleSet`], and
/// [`FlowError::PathBudgetExceeded`] from [`PresenceEngine::PathEnumeration`].
pub fn object_flow_contributions<'a, I>(
    space: &IndoorSpace,
    sets: I,
    query_set: &QuerySet,
    cfg: &FlowConfig,
) -> Result<Option<ObjectContribution>, FlowError>
where
    I: IntoIterator<Item = &'a SampleSet>,
{
    if cfg.engine != PresenceEngine::TransitionDp {
        return path_contributions(space, sets, query_set, cfg);
    }
    let mut fold = SpanFold::new(space, cfg.normalization, cfg.use_reduction);
    for set in sets {
        fold.push(space, query_set, set)?;
    }
    fold.finish(space)
}

/// [`object_flow_contributions`] for the path engines (Algorithm 2 as
/// printed): reduce the whole sequence, intersect its PSLs with the
/// query set, enumerate the reduced sequence's valid paths tracking the
/// locations each can pass (Algorithm 3 lines 14–19), and score them.
fn path_contributions<'a, I>(
    space: &IndoorSpace,
    sets: I,
    query_set: &QuerySet,
    cfg: &FlowConfig,
) -> Result<Option<ObjectContribution>, FlowError>
where
    I: IntoIterator<Item = &'a SampleSet>,
{
    let scanned = scan_sequence(space, sets, cfg.use_reduction)?;
    if cfg.use_reduction && !query_set.intersects_sorted(&scanned.psls) {
        return Ok(None);
    }
    let relevant = intersect_sorted(query_set.slocs(), &scanned.psls);
    if relevant.is_empty() {
        return Ok(Some(ObjectContribution::default()));
    }
    let sets = &scanned.sets;
    let (scores, dp_fallback) = match build_paths_tracking(space, &relevant, sets, cfg.path_budget)
    {
        Ok(tracked) => {
            let full_mass = full_product_mass(sets);
            let scores = scores_from_tracked(space, &relevant, cfg, &tracked, full_mass);
            (scores, false)
        }
        Err(FlowError::PathBudgetExceeded { .. }) if cfg.engine == PresenceEngine::Hybrid => {
            let scores = presence_dp_multi(space, sets, &relevant, cfg.normalization);
            (scores, true)
        }
        Err(e) => return Err(e),
    };
    Ok(Some(ObjectContribution {
        relevant,
        scores,
        dp_fallback,
    }))
}

/// Per-location scores from a tracked path set (Algorithm 3 lines 9–25):
/// each valid path's pass probability is weighted by the path probability
/// and normalized per `cfg` (`full_mass` is the
/// [`Normalization::FullProduct`] denominator).
fn scores_from_tracked(
    space: &IndoorSpace,
    relevant: &[SLocId],
    cfg: &FlowConfig,
    tracked: &TrackedPathSet,
    full_mass: f64,
) -> Vec<f64> {
    let mut local = vec![0.0; relevant.len()];
    let mut prsum = 0.0;
    for tp in &tracked.tracked {
        prsum += tp.path.prob;
        for bit in tp.touched.iter() {
            let (Some(&q), Some(slot)) = (relevant.get(bit), local.get_mut(bit)) else {
                continue;
            };
            let pass = tracked.set.pass_probability(space, tp.path, q);
            if pass > 0.0 {
                *slot += pass * tp.path.prob;
            }
        }
    }
    let denom = match cfg.normalization {
        Normalization::FullProduct => full_mass,
        Normalization::ValidPaths => prsum,
    };
    if denom > 0.0 {
        for v in &mut local {
            *v /= denom;
        }
    } else {
        local.iter_mut().for_each(|v| *v = 0.0);
    }
    local
}

/// Computes the indoor flow for S-location `q` over `[ts, te]`
/// (Algorithm 2): fetch the window's records through the time index (the
/// paper's 1D R-tree; here a binary search on the log's sorted time
/// column), group them per object, reduce each sequence (pruning objects
/// whose PSLs miss `q` when reduction is enabled), and sum per-object
/// presences.
pub fn flow(
    space: &IndoorSpace,
    iupt: &Iupt,
    q: SLocId,
    interval: TimeInterval,
    cfg: &FlowConfig,
) -> Result<FlowComputation, FlowError> {
    let q_set = QuerySet::new(vec![q]);
    let sequences = iupt.sequences_in(interval);
    let objects_seen = sequences.len();
    let mut computed_objects = Vec::new();
    let mut total = 0.0;
    let mut dp_fallback_objects = 0usize;

    for seq in sequences {
        let sets_iter = seq.records.iter().map(|r| r.samples);
        let effective: Vec<std::borrow::Cow<'_, SampleSet>> = if cfg.use_reduction {
            match reduce_for_query(space, sets_iter, &q_set, true)? {
                Some(reduced) => reduced.sets,
                None => continue, // pruned by PSLs
            }
        } else {
            // The -ORG variants process every object's raw sequence
            // (borrowed — no sample data is copied).
            sets_iter.map(std::borrow::Cow::Borrowed).collect()
        };
        let (phi, fell_back) = presence_prepared_tracked(space, &effective, q, cfg)?;
        dp_fallback_objects += usize::from(fell_back);
        computed_objects.push(seq.oid);
        total += phi;
    }

    Ok(FlowComputation {
        flow: total,
        objects_seen,
        computed_objects,
        dp_fallback_objects,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::Timestamp;
    use indoor_model::fixtures::paper_figure1;

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    /// `c` restricted to the **sorted** location subset `subset`: a
    /// two-pointer merge of the two ascending lists.
    fn sliced(c: &ObjectContribution, subset: &[SLocId]) -> ObjectContribution {
        let mut out = ObjectContribution {
            dp_fallback: c.dp_fallback,
            ..ObjectContribution::default()
        };
        let mut subset = subset.iter().peekable();
        for (&q, &score) in c.relevant.iter().zip(&c.scores) {
            while subset.next_if(|&&s| s < q).is_some() {}
            if subset.next_if_eq(&&q).is_some() {
                out.relevant.push(q);
                out.scores.push(score);
            }
        }
        out
    }

    /// Worked-example configuration (Example 3 numbers assume the
    /// full-product normalization).
    fn raw_cfg() -> FlowConfig {
        FlowConfig {
            use_reduction: false,
            ..FlowConfig::default()
        }
        .with_full_product_normalization()
    }

    /// Example 3: Θ(r6) = 1 + 0.85 + 0.12 = 1.97 and Θ(r1) = 0.5.
    #[test]
    fn example3_flows_raw() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let r6 = flow(&fig.space, &iupt, fig.r[5], interval(), &raw_cfg()).unwrap();
        assert!((r6.flow - 1.97).abs() < 1e-9, "Θ(r6) = {}", r6.flow);
        let r1 = flow(&fig.space, &iupt, fig.r[0], interval(), &raw_cfg()).unwrap();
        assert!((r1.flow - 0.5).abs() < 1e-9, "Θ(r1) = {}", r1.flow);
        // No reduction → no pruning; all 3 objects computed.
        assert_eq!(r6.objects_seen, 3);
        assert_eq!(r6.computed_objects.len(), 3);
        assert_eq!(r6.pruning_ratio(), 0.0);
    }

    /// With data reduction, o3 is pruned for q = r1 (its PSLs are
    /// {r3, r4, r6}) and o2's presence in r6 is unchanged at 0.85.
    #[test]
    fn reduction_prunes_and_preserves_flows() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let cfg = FlowConfig::default().with_full_product_normalization();
        let r1 = flow(&fig.space, &iupt, fig.r[0], interval(), &cfg).unwrap();
        assert!((r1.flow - 0.5).abs() < 1e-9);
        // r1's flow involves only o1 (o2 and o3 are pruned: o2's PSLs do
        // include r1? o2's reports touch p1..p8 — cells c4, c5, c6, c1 —
        // so r1 IS in o2's PSLs; only o3 gets pruned).
        assert!(r1.computed_objects.len() < r1.objects_seen);
        assert!(r1.pruning_ratio() > 0.0);

        // Reduction is approximate: o3's inter-merge collapses the
        // (p2, p2) self-transition that was its only chance of touching r6,
        // so Θ(r6) becomes 1 + 0.85 + 0 = 1.85 instead of the raw 1.97.
        // (The paper's Table 4 likewise reports slightly different
        // effectiveness with and without reduction.)
        let r6 = flow(&fig.space, &iupt, fig.r[5], interval(), &cfg).unwrap();
        assert!((r6.flow - 1.85).abs() < 1e-9, "Θ(r6) = {}", r6.flow);
        // o3 is not pruned for r6 (r6 ∈ its PSLs), merely contributes 0.
        assert_eq!(r6.computed_objects.len(), 3);
    }

    /// DP engine produces identical flows.
    #[test]
    fn dp_engine_agrees() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        for q in fig.r {
            let en = flow(&fig.space, &iupt, q, interval(), &raw_cfg()).unwrap();
            let dp = flow(
                &fig.space,
                &iupt,
                q,
                interval(),
                &raw_cfg().with_dp_engine(),
            )
            .unwrap();
            assert!(
                (en.flow - dp.flow).abs() < 1e-9,
                "{q}: {} vs {}",
                en.flow,
                dp.flow
            );
        }
    }

    /// Per-location independence on the public kernel: for every
    /// location, computing against that location alone — or against all
    /// of the object's locations but the first — gives the bit-identical
    /// score the whole query set gives, across engines and
    /// normalizations.
    #[test]
    fn partial_kernel_scores_bit_identical_to_full() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let query_set = QuerySet::new(fig.r.to_vec());
        for cfg in [
            FlowConfig::default(),
            FlowConfig::default().with_dp_engine(),
            FlowConfig::default().with_full_product_normalization(),
            FlowConfig::default().without_reduction(),
        ] {
            for seq in iupt.sequences_in(interval()) {
                let contributions = |set: &QuerySet| {
                    object_flow_contributions(
                        &fig.space,
                        seq.records.iter().map(|r| r.samples),
                        set,
                        &cfg,
                    )
                    .unwrap()
                };
                let Some(full) = contributions(&query_set) else {
                    continue;
                };
                let singles = full.relevant.iter().map(|&q| vec![q]);
                let rest = full.relevant.get(1..).unwrap_or_default().to_vec();
                for subset in singles.chain([rest]).filter(|s| !s.is_empty()) {
                    let part = contributions(&QuerySet::new(subset.clone()))
                        .expect("a location among the object's PSLs is not pruned");
                    let want = sliced(&full, &subset);
                    assert_eq!(part.relevant, subset);
                    assert_eq!(part.relevant, want.relevant);
                    for (s, f) in part.scores.iter().zip(&want.scores) {
                        assert_eq!(
                            s.to_bits(),
                            f.to_bits(),
                            "cfg {cfg:?} object {} locations {subset:?}",
                            seq.oid
                        );
                    }
                }
            }
        }
    }

    /// The registry's sharing claim at the contribution level: slicing a
    /// contribution computed against a *union* query set down to one
    /// query's subset is bit-identical to computing against that subset
    /// as its own query set — including PSL pruning agreement for every
    /// location the subset actually contains.
    #[test]
    fn sliced_union_contribution_matches_dedicated_subset() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let union = QuerySet::new(fig.r.to_vec());
        // Overlapping subsets as a registry would hold them.
        let subsets = [
            QuerySet::new(vec![fig.r[0], fig.r[2], fig.r[5]]),
            QuerySet::new(vec![fig.r[2], fig.r[3], fig.r[4], fig.r[5]]),
            QuerySet::new(vec![fig.r[5]]),
        ];
        for cfg in [
            FlowConfig::default(),
            FlowConfig::default().with_dp_engine(),
            FlowConfig::default().with_full_product_normalization(),
        ] {
            for seq in iupt.sequences_in(interval()) {
                let full = object_flow_contributions(
                    &fig.space,
                    seq.records.iter().map(|r| r.samples),
                    &union,
                    &cfg,
                )
                .unwrap();
                let Some(full) = full else { continue };
                for subset in &subsets {
                    let part = sliced(&full, subset.slocs());
                    let direct = object_flow_contributions(
                        &fig.space,
                        seq.records.iter().map(|r| r.samples),
                        subset,
                        &cfg,
                    )
                    .unwrap();
                    match direct {
                        // PSL-pruned against the subset: the union
                        // contribution must hold nothing for it either.
                        None => assert!(part.relevant.is_empty()),
                        Some(direct) => {
                            assert_eq!(part.relevant, direct.relevant);
                            for (s, d) in part.scores.iter().zip(&direct.scores) {
                                assert_eq!(s.to_bits(), d.to_bits(), "cfg {cfg:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sliced_restricts_to_subset() {
        let c = ObjectContribution {
            relevant: vec![SLocId(2), SLocId(5), SLocId(9)],
            scores: vec![0.25, 0.5, 0.75],
            dp_fallback: true,
        };
        let s = sliced(&c, &[SLocId(1), SLocId(5), SLocId(9), SLocId(11)]);
        assert_eq!(s.relevant, vec![SLocId(5), SLocId(9)]);
        assert_eq!(s.scores, vec![0.5, 0.75]);
        assert!(s.dp_fallback);
        assert!(sliced(&c, &[SLocId(3)]).relevant.is_empty());
    }

    /// `scan_psls` returns exactly the PSL list `scan_sequence` computes.
    #[test]
    fn scan_psls_matches_scan_sequence() {
        use crate::reduction::scan_sequence;
        let fig = paper_figure1();
        let iupt = paper_table2();
        for seq in iupt.sequences_in(interval()) {
            let cheap =
                crate::reduction::scan_psls(&fig.space, seq.records.iter().map(|r| r.samples));
            for merge in [true, false] {
                let scanned =
                    scan_sequence(&fig.space, seq.records.iter().map(|r| r.samples), merge)
                        .unwrap();
                assert_eq!(cheap, scanned.psls, "object {} merge {merge}", seq.oid);
            }
        }
    }

    /// An interval with no records yields zero flow.
    #[test]
    fn empty_window() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(100), Timestamp::from_secs(200));
        let out = flow(&fig.space, &iupt, fig.r[0], iv, &FlowConfig::default()).unwrap();
        assert_eq!(out.flow, 0.0);
        assert_eq!(out.objects_seen, 0);
        assert_eq!(out.pruning_ratio(), 0.0);
    }

    /// Sub-interval query: restricting to [t1, t3] sees only the early
    /// records.
    #[test]
    fn subinterval_flow_smaller() {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(3));
        let sub = flow(&fig.space, &iupt, fig.r[5], iv, &raw_cfg()).unwrap();
        let full = flow(&fig.space, &iupt, fig.r[5], interval(), &raw_cfg()).unwrap();
        assert!(sub.flow <= full.flow + 1e-9);
    }
}
