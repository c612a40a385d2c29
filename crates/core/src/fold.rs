//! The per-object contribution kernel as a resumable left fold.
//!
//! An object's contributions are a fold over its records twice over:
//! the §3.2 reduction is one streaming pass ([`crate::scan_sequence`]),
//! and presence (Eq. 1–2) factorizes over consecutive P-location pairs,
//! so the transition DP ([`crate::dp::presence_dp_multi`]) is a forward
//! pass over the reduced sets. [`SpanFold`] keeps both passes' state
//! between records: [`SpanFold::push`] takes one record,
//! [`SpanFold::finish`] reads the contributions of everything pushed so
//! far without ending the fold, and more records may follow. A sequence
//! that grows record by record — the open bucket of a serving shard —
//! is then paid for once per record instead of once per look.
//!
//! [`crate::object_flow_contributions`] is "push every record, finish",
//! so the batch search and the serving shards run this one kernel.

use std::borrow::Cow;

use indoor_iupt::SampleSet;
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowConfig, FlowError, Normalization, PresenceEngine};
use crate::dp::{presence_dp_multi, DpScratch, DpState};
use crate::flow::ObjectContribution;
use crate::paths::{build_paths_tracking, TrackedPathSet};
use crate::query_set::QuerySet;
use crate::reduction::{PslCollector, RunFold};

/// One object's contribution kernel, resumable: the §3.2 reduction's
/// open run, the PSLs seen so far, the locations of the query set among
/// them, and — per engine — the transition DP's forward state or the
/// closed sets the path engines enumerate at [`SpanFold::finish`].
///
/// A `SpanFold` owns all of its state: it borrows neither the records
/// pushed into it nor the space or query set, which every call passes
/// in. Every call must pass the same space and query set.
///
/// # Bit-identity
///
/// After any sequence of pushes, [`SpanFold::finish`] is `to_bits`-equal
/// to reducing the records pushed so far with [`crate::scan_sequence`]
/// and scoring the reduced sequence with the configured engine over
/// `Q ∩ psls`:
///
/// * the reduction is the same fold [`crate::scan_sequence`] runs;
/// * the DP takes the same steps, in the same order, through the one
///   step implementation [`crate::dp::presence_dp_multi`] uses; the only
///   difference is that a query location's row starts when the location
///   first becomes a PSL instead of at the first set — and starts as a
///   copy of the valid mass, which is what the row would hold had it
///   been there from the start (see [`SpanFold::push`]);
/// * the full-product mass is multiplied up set by set in order, as
///   `Iterator::product` does.
#[derive(Debug)]
pub struct SpanFold {
    cfg: FlowConfig,
    run: RunFold<'static>,
    psls: PslCollector,
    /// `Q ∩ psls`, ascending: the locations the contributions cover.
    rows: Vec<SLocId>,
    /// `Π Σ prob` over the closed sets, in order.
    mass: f64,
    scoring: Scoring,
}

/// What the configured engine keeps of the closed sets.
#[derive(Debug)]
enum Scoring {
    /// The transition DP: its forward state over the closed sets (`None`
    /// before the first), whether that state is dead — no valid path
    /// continues, so every presence is 0 whatever follows — and its
    /// buffers.
    Dp {
        state: Option<DpState>,
        dead: bool,
        scratch: DpScratch,
        /// The state before the last step, whose buffers the next step
        /// fills.
        spare: DpState,
    },
    /// Path enumeration (plain or hybrid): the closed sets themselves.
    Paths(Vec<SampleSet>),
}

impl SpanFold {
    /// An empty fold for `cfg`.
    pub fn new(space: &IndoorSpace, cfg: &FlowConfig) -> Self {
        let scoring = match cfg.engine {
            PresenceEngine::TransitionDp => Scoring::Dp {
                state: None,
                dead: false,
                scratch: DpScratch::default(),
                spare: DpState::default(),
            },
            PresenceEngine::PathEnumeration | PresenceEngine::Hybrid => Scoring::Paths(Vec::new()),
        };
        SpanFold {
            cfg: *cfg,
            run: RunFold::new(cfg.use_reduction),
            psls: PslCollector::new(space),
            rows: Vec::new(),
            mass: 1.0,
            scoring,
        }
    }

    /// Folds in the object's next record.
    ///
    /// The reduction takes the record; a run it closes takes one DP step
    /// (or is kept for the path engines); and every location of
    /// `query_set` the record's cells add to the PSLs gets a row, a copy
    /// of the current valid mass. The copy is exact: a pair's pass
    /// probability for `q` is 0 unless a cell of both P-locations covers
    /// `q`, which makes `q` a PSL of both
    /// (`psl_cover_invariant_holds_on_both_spaces` checks this on every
    /// pair), so no pair folded in before `q` became a PSL can pass it.
    ///
    /// # Errors
    /// The reduction's [`FlowError::InvalidSampleSet`]. The fold is then
    /// unusable; drop it.
    pub fn push(
        &mut self,
        space: &IndoorSpace,
        query_set: &QuerySet,
        set: &SampleSet,
    ) -> Result<(), FlowError> {
        let (closed, new_support) = self
            .run
            .push(space, set, |merged| Cow::Owned(merged.into_owned()))?;
        if let Some(closed) = closed {
            self.mass *= closed.prob_sum();
            match &mut self.scoring {
                Scoring::Dp {
                    state,
                    dead,
                    scratch,
                    spare,
                } => match state {
                    None => *state = Some(DpState::start(&closed, self.rows.len())),
                    Some(state) if !*dead => {
                        state.step_into(space, &closed, &self.rows, scratch, spare);
                        std::mem::swap(state, spare);
                        *dead = state.is_dead();
                    }
                    Some(_) => {}
                },
                Scoring::Paths(sets) => sets.push(closed.into_owned()),
            }
        }
        if new_support {
            let before = self.psls.added().len();
            self.psls.add(space, set);
            for &q in self.psls.added().get(before..).unwrap_or_default() {
                if !query_set.contains(q) {
                    continue;
                }
                if let Err(k) = self.rows.binary_search(&q) {
                    // Exact as a copy of the valid mass: see
                    // `psl_cover_invariant_holds_on_both_spaces`.
                    self.rows.insert(k, q);
                    if let Scoring::Dp {
                        state: Some(state), ..
                    } = &mut self.scoring
                    {
                        state.insert_row(k);
                    }
                }
            }
        }
        Ok(())
    }

    /// The contributions of every record pushed so far, exactly as
    /// [`crate::object_flow_contributions`] defines them — `Ok(None)`
    /// when PSL pruning excludes the object. Closes the open run into
    /// scratch and takes one DP step there (or enumerates the paths),
    /// leaving the fold as it was.
    ///
    /// # Errors
    /// The reduction's [`FlowError::InvalidSampleSet`] from closing the
    /// open run, and the path engine's
    /// [`FlowError::PathBudgetExceeded`].
    pub fn finish(&self, space: &IndoorSpace) -> Result<Option<ObjectContribution>, FlowError> {
        self.finish_with(space, &mut FinishScratch::default())
    }

    /// [`SpanFold::finish`] with the closing DP step's buffers taken
    /// from `scratch` instead of allocated: a caller that finishes many
    /// folds keeps one [`FinishScratch`] for all of them. The result
    /// does not depend on what `scratch` held.
    ///
    /// # Errors
    /// As [`SpanFold::finish`].
    pub fn finish_with(
        &self,
        space: &IndoorSpace,
        scratch: &mut FinishScratch,
    ) -> Result<Option<ObjectContribution>, FlowError> {
        let open = self.run.close_open()?;
        let open = match open {
            Some(open) if !self.rows.is_empty() => open,
            // PSL pruning applies only with data reduction on; the
            // paper's -ORG variants report a pruning ratio of 0, and
            // such an object cannot contribute but was still processed.
            _ if self.cfg.use_reduction => return Ok(None),
            _ => return Ok(Some(ObjectContribution::default())),
        };
        let full_mass = self.mass * open.prob_sum();
        let nq = self.rows.len();
        let (scores, dp_fallback) = match &self.scoring {
            Scoring::Dp { state, dead, .. } => {
                let scores = match state {
                    None => DpState::start(&open, nq).scores(nq, self.cfg.normalization, full_mass),
                    Some(_) if *dead => vec![0.0; nq],
                    Some(state) => {
                        let FinishScratch { dp, last } = scratch;
                        state.step_into(space, &open, &self.rows, dp, last);
                        if last.is_dead() {
                            vec![0.0; nq]
                        } else {
                            last.scores(nq, self.cfg.normalization, full_mass)
                        }
                    }
                };
                (scores, false)
            }
            Scoring::Paths(closed) => {
                let sets: Vec<&SampleSet> = closed.iter().chain([&*open]).collect();
                let budget = self.cfg.path_budget;
                match build_paths_tracking(space, &self.rows, &sets, budget) {
                    Ok(tracked) => (
                        scores_from_tracked(space, &self.rows, &self.cfg, &tracked, full_mass),
                        false,
                    ),
                    Err(FlowError::PathBudgetExceeded { .. })
                        if self.cfg.engine == PresenceEngine::Hybrid =>
                    {
                        let scores =
                            presence_dp_multi(space, &sets, &self.rows, self.cfg.normalization);
                        (scores, true)
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        Ok(Some(ObjectContribution {
            relevant: self.rows.clone(),
            scores,
            dp_fallback,
        }))
    }
}

/// The buffers [`SpanFold::finish_with`] takes its closing DP step in.
#[derive(Debug, Default)]
pub struct FinishScratch {
    dp: DpScratch,
    /// The state after the closing step.
    last: DpState,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::full_product_mass;
    use crate::presence::pair_pass_probability;
    use crate::query_set::intersect_sorted;
    use crate::reduction::scan_psls;
    use crate::reduction::scan_sequence;
    use crate::reduction::tests::random_sequence;
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::PLocId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The kernel as it was before it became a fold, kept as the
    /// reference the fold is tested against: reduce the whole sequence,
    /// intersect its PSLs with the query set, then score the reduced
    /// sets in one batch pass.
    fn reference_contributions(
        space: &IndoorSpace,
        sets: &[SampleSet],
        query_set: &QuerySet,
        cfg: &FlowConfig,
    ) -> Result<Option<ObjectContribution>, FlowError> {
        let scanned = scan_sequence(space, sets.iter(), cfg.use_reduction)?;
        if cfg.use_reduction && !query_set.intersects_sorted(&scanned.psls) {
            return Ok(None);
        }
        let relevant = intersect_sorted(query_set.slocs(), &scanned.psls);
        if relevant.is_empty() {
            return Ok(Some(ObjectContribution::default()));
        }
        let sets = &scanned.sets;
        let full_mass = full_product_mass(sets);
        let dp = || presence_dp_multi(space, sets, &relevant, cfg.normalization);
        let paths = build_paths_tracking(space, &relevant, sets, cfg.path_budget);
        let (scores, dp_fallback) = match (cfg.engine, paths) {
            (PresenceEngine::TransitionDp, _) => (dp(), false),
            (_, Ok(tracked)) => (
                scores_from_tracked(space, &relevant, cfg, &tracked, full_mass),
                false,
            ),
            (PresenceEngine::Hybrid, Err(FlowError::PathBudgetExceeded { .. })) => (dp(), true),
            (_, Err(e)) => return Err(e),
        };
        Ok(Some(ObjectContribution {
            relevant,
            scores,
            dp_fallback,
        }))
    }

    type Bits = Result<Option<(Vec<SLocId>, Vec<u64>, bool)>, FlowError>;

    fn bits(c: Result<Option<ObjectContribution>, FlowError>) -> Bits {
        c.map(|c| {
            c.map(|c| {
                let scores = c.scores.iter().map(|s| s.to_bits()).collect();
                (c.relevant, scores, c.dp_fallback)
            })
        })
    }

    /// Every engine, both normalizations, reduction on and off; the path
    /// engines under a budget some sequences exceed, so the hybrid engine
    /// falls back and the plain one fails.
    fn configs(budget: u64) -> Vec<FlowConfig> {
        let mut out = Vec::new();
        for engine in [
            PresenceEngine::TransitionDp,
            PresenceEngine::PathEnumeration,
            PresenceEngine::Hybrid,
        ] {
            for normalization in [Normalization::ValidPaths, Normalization::FullProduct] {
                for use_reduction in [true, false] {
                    out.push(FlowConfig {
                        engine,
                        normalization,
                        use_reduction,
                        path_budget: budget,
                        ..FlowConfig::default()
                    });
                }
            }
        }
        out
    }

    /// A random non-empty subset of the space's S-locations.
    fn random_query(rng: &mut StdRng, space: &IndoorSpace) -> QuerySet {
        let all: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
        let keep = rng.gen_range(1..=all.len());
        let picked = (0..keep).map(|_| all[rng.gen_range(0..all.len())]);
        QuerySet::new(picked.collect())
    }

    /// Pushes `sets` one by one and checks, after every push, that
    /// finishing — twice, since finishing must leave the fold as it was
    /// — gives the reference over the prefix pushed so far. Returns how
    /// many prefixes fell back to the DP.
    fn check_prefixes(
        space: &IndoorSpace,
        sets: &[SampleSet],
        query_set: &QuerySet,
        cfg: &FlowConfig,
    ) -> usize {
        let mut fold = SpanFold::new(space, cfg);
        let mut fallbacks = 0;
        for (i, set) in sets.iter().enumerate() {
            let pushed = fold.push(space, query_set, set);
            let want = bits(reference_contributions(space, &sets[..=i], query_set, cfg));
            if let Err(e) = pushed {
                // A reduction error: the reference meets it too.
                assert_eq!(Err(e), want, "{cfg:?}, prefix {i}");
                return fallbacks;
            }
            let got = bits(fold.finish(space));
            assert_eq!(got, want, "{cfg:?}, prefix {i} of {sets:?}");
            assert_eq!(
                bits(fold.finish(space)),
                got,
                "{cfg:?}: finish moved the fold"
            );
            fallbacks += usize::from(matches!(got, Ok(Some((_, _, true)))));
        }
        fallbacks
    }

    /// On Figure 1: random sequences pushed record by record finish
    /// `to_bits`-equal to the batch kernel over every prefix, for every
    /// configuration and random query sets.
    #[test]
    fn fold_finishes_like_the_batch_kernel_on_figure1() {
        let fig = paper_figure1();
        let mut rng = StdRng::seed_from_u64(29);
        let mut fallbacks = 0;
        for _ in 0..150 {
            let sets = random_sequence(&mut rng, &fig.space);
            let query_set = random_query(&mut rng, &fig.space);
            for cfg in configs(rng.gen_range(8..200)) {
                fallbacks += check_prefixes(&fig.space, &sets, &query_set, &cfg);
            }
        }
        assert!(fallbacks > 50, "only {fallbacks} hybrid fallbacks");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        /// The same on generated buildings, whose P-locations touch
        /// several cells and whose S-locations span several cells.
        #[test]
        fn fold_finishes_like_the_batch_kernel_on_a_generated_building(seed in 0u64..u64::MAX) {
            let cfg = indoor_sim::BuildingGenConfig { seed, ..indoor_sim::BuildingGenConfig::tiny() };
            let space = indoor_sim::generate_building(&cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..3 {
                let sets = random_sequence(&mut rng, &space);
                let query_set = random_query(&mut rng, &space);
                for cfg in configs(rng.gen_range(8..400)) {
                    check_prefixes(&space, &sets, &query_set, &cfg);
                }
            }
        }
    }

    /// What makes a late row exact ([`SpanFold::push`]): a pair that can
    /// pass `q` has `q` among the PSLs of both of its P-locations — for
    /// every pair and location of Figure 1 and of generated buildings.
    #[test]
    fn psl_cover_invariant_holds_on_both_spaces() {
        let mut spaces = vec![paper_figure1().space];
        for seed in 0..4 {
            let cfg = indoor_sim::BuildingGenConfig {
                seed,
                ..indoor_sim::BuildingGenConfig::tiny()
            };
            spaces.push(indoor_sim::generate_building(&cfg));
        }
        for space in &spaces {
            let plocs: Vec<PLocId> = space.plocs().iter().map(|p| p.id).collect();
            let psls: Vec<Vec<SLocId>> = plocs
                .iter()
                .map(|&p| scan_psls(space, [&SampleSet::certain(p)]))
                .collect();
            let mut passing = 0;
            for (a, psls_a) in plocs.iter().zip(&psls) {
                for (b, psls_b) in plocs.iter().zip(&psls) {
                    for q in space.slocs().iter().map(|s| s.id) {
                        if pair_pass_probability(space, *a, *b, q) > 0.0 {
                            passing += 1;
                            assert!(psls_a.binary_search(&q).is_ok(), "{a:?} {b:?} {q:?}");
                            assert!(psls_b.binary_search(&q).is_ok(), "{a:?} {b:?} {q:?}");
                        }
                    }
                }
            }
            assert!(passing > 0);
        }
    }
}
