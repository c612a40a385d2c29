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
//! For the transition DP, [`crate::object_flow_contributions`] is "push
//! every record, finish", so the batch search and the serving shards run
//! this one kernel. The path engines are batch-only and run Algorithm 2
//! as printed instead (reduce, enumerate, score).

use std::borrow::Cow;

use indoor_iupt::SampleSet;
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowError, Normalization};
use crate::dp::{DpScratch, DpState};
use crate::flow::ObjectContribution;
use crate::query_set::QuerySet;
use crate::reduction::{PslCollector, RunFold};

/// One object's contribution kernel, resumable: the §3.2 reduction's
/// open run, the PSLs seen so far, the locations of the query set among
/// them, and the transition DP's forward state over the closed sets.
///
/// A `SpanFold` owns all of its state: it borrows neither the records
/// pushed into it nor the space or query set, which every call passes
/// in. Every call must pass the same space and query set.
///
/// # Bit-identity
///
/// After any sequence of pushes, [`SpanFold::finish`] is `to_bits`-equal
/// to reducing the records pushed so far with [`crate::scan_sequence`]
/// and scoring the reduced sequence with
/// [`crate::dp::presence_dp_multi`] over `Q ∩ psls`:
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
    normalization: Normalization,
    /// Whether the §3.2 reduction (and with it PSL pruning) is on; the
    /// paper's `-ORG` variants turn it off.
    use_reduction: bool,
    run: RunFold<'static>,
    psls: PslCollector,
    /// `Q ∩ psls`, ascending: the locations the contributions cover.
    rows: Vec<SLocId>,
    /// `Π Σ prob` over the closed sets, in order.
    mass: f64,
    /// The DP's forward state over the closed sets (`None` before the
    /// first).
    state: Option<DpState>,
    /// Whether `state` is dead: no valid path continues, so every
    /// presence is 0 whatever follows.
    dead: bool,
    scratch: DpScratch,
    /// The state before the last step, whose buffers the next step
    /// fills.
    spare: DpState,
}

impl SpanFold {
    /// An empty fold normalizing presence by `normalization`, with the
    /// §3.2 reduction on or off.
    pub fn new(space: &IndoorSpace, normalization: Normalization, use_reduction: bool) -> Self {
        SpanFold {
            normalization,
            use_reduction,
            run: RunFold::new(use_reduction),
            psls: PslCollector::new(space),
            rows: Vec::new(),
            mass: 1.0,
            state: None,
            dead: false,
            scratch: DpScratch::default(),
            spare: DpState::default(),
        }
    }

    /// Folds in the object's next record.
    ///
    /// The reduction takes the record; a run it closes takes one DP step;
    /// and every location of `query_set` the record's cells add to the
    /// PSLs gets a row, a copy of the current valid mass. The copy is
    /// exact: a pair's pass probability for `q` is 0 unless a cell of
    /// both P-locations covers `q`, which makes `q` a PSL of both
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
            match &mut self.state {
                None => self.state = Some(DpState::start(&closed, self.rows.len())),
                Some(state) if !self.dead => {
                    state.step_into(
                        space,
                        &closed,
                        &self.rows,
                        &mut self.scratch,
                        &mut self.spare,
                    );
                    std::mem::swap(state, &mut self.spare);
                    self.dead = state.is_dead();
                }
                Some(_) => {}
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
                    if let Some(state) = &mut self.state {
                        state.insert_row(k);
                    }
                }
            }
        }
        Ok(())
    }

    /// The contributions of every record pushed so far, exactly as
    /// [`crate::object_flow_contributions`] defines them for
    /// [`crate::PresenceEngine::TransitionDp`] — `Ok(None)` when PSL
    /// pruning excludes the object. Closes the open run into scratch and
    /// takes one DP step there, leaving the fold as it was.
    ///
    /// # Errors
    /// The reduction's [`FlowError::InvalidSampleSet`] from closing the
    /// open run.
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
            _ if self.use_reduction => return Ok(None),
            _ => return Ok(Some(ObjectContribution::default())),
        };
        let full_mass = self.mass * open.prob_sum();
        let nq = self.rows.len();
        let scores = match &self.state {
            None => DpState::start(&open, nq).scores(nq, self.normalization, full_mass),
            Some(_) if self.dead => vec![0.0; nq],
            Some(state) => {
                let FinishScratch { dp, last } = scratch;
                state.step_into(space, &open, &self.rows, dp, last);
                if last.is_dead() {
                    vec![0.0; nq]
                } else {
                    last.scores(nq, self.normalization, full_mass)
                }
            }
        };
        Ok(Some(ObjectContribution {
            relevant: self.rows.clone(),
            scores,
            dp_fallback: false,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlowConfig, PresenceEngine};
    use crate::object_flow_contributions;
    use crate::presence::pair_pass_probability;
    use crate::reduction::scan_psls;
    use crate::reduction::tests::random_sequence;
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::PLocId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Bits = Result<Option<(Vec<SLocId>, Vec<u64>)>, FlowError>;

    /// A contribution in comparable form, and whether the hybrid engine
    /// fell back to the DP for it.
    fn bits(c: Result<Option<ObjectContribution>, FlowError>) -> (Bits, bool) {
        let fell_back = matches!(&c, Ok(Some(c)) if c.dp_fallback);
        let bits = c.map(|c| {
            c.map(|c| {
                let scores = c.scores.iter().map(|s| s.to_bits()).collect();
                (c.relevant, scores)
            })
        });
        (bits, fell_back)
    }

    /// The batch kernel under `engine` with `budget`.
    fn batch(
        space: &IndoorSpace,
        sets: &[SampleSet],
        query_set: &QuerySet,
        (normalization, use_reduction): (Normalization, bool),
        (engine, path_budget): (PresenceEngine, u64),
    ) -> (Bits, bool) {
        let cfg = FlowConfig {
            engine,
            normalization,
            use_reduction,
            path_budget,
            ..FlowConfig::default()
        };
        bits(object_flow_contributions(space, sets, query_set, &cfg))
    }

    /// A random non-empty subset of the space's S-locations.
    fn random_query(rng: &mut StdRng, space: &IndoorSpace) -> QuerySet {
        let all: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
        let keep = rng.gen_range(1..=all.len());
        let picked = (0..keep).map(|_| all[rng.gen_range(0..all.len())]);
        QuerySet::new(picked.collect())
    }

    /// Pushes `sets` one by one, under both normalizations with the
    /// reduction on and off, and checks after every push:
    ///
    /// * that finishing — twice, since finishing must leave the fold as
    ///   it was — is `to_bits`-equal to the hybrid engine over the prefix
    ///   pushed so far under a budget of 0, which falls back to the batch
    ///   DP ([`crate::dp::presence_dp_multi`] over the reduced sets) for
    ///   every object with two reduced sets or more;
    /// * that the path engines under `budget` agree with each other: the
    ///   hybrid engine is the plain one wherever enumeration fits the
    ///   budget, and the DP exactly where it does not;
    /// * that enumeration, where it fits, is within 1e-9 of the fold.
    ///
    /// Returns how many prefixes the hybrid engine fell back on.
    fn check_prefixes(
        space: &IndoorSpace,
        sets: &[SampleSet],
        query_set: &QuerySet,
        budget: u64,
    ) -> usize {
        let mut fallbacks = 0;
        for setting in [Normalization::ValidPaths, Normalization::FullProduct]
            .into_iter()
            .flat_map(|n| [(n, true), (n, false)])
        {
            let mut fold = SpanFold::new(space, setting.0, setting.1);
            for (i, set) in sets.iter().enumerate() {
                let prefix = &sets[..=i];
                let pushed = fold.push(space, query_set, set);
                let (want, _) = batch(
                    space,
                    prefix,
                    query_set,
                    setting,
                    (PresenceEngine::Hybrid, 0),
                );
                if let Err(e) = pushed {
                    // A reduction error: the batch kernel meets it too.
                    assert_eq!(Err(e), want, "{setting:?}, prefix {i}");
                    break;
                }
                let (got, _) = bits(fold.finish(space));
                assert_eq!(got, want, "{setting:?}, prefix {i} of {sets:?}");
                let (again, _) = bits(fold.finish(space));
                assert_eq!(again, got, "{setting:?}: finish moved the fold");

                let paths = (PresenceEngine::PathEnumeration, budget);
                let (plain, _) = batch(space, prefix, query_set, setting, paths);
                let hybrid = (PresenceEngine::Hybrid, budget);
                let (hybrid, fell_back) = batch(space, prefix, query_set, setting, hybrid);
                match &plain {
                    Err(FlowError::PathBudgetExceeded { .. }) => {
                        assert!(fell_back, "{setting:?}, prefix {i}");
                        assert_eq!(hybrid, got, "{setting:?}, prefix {i}: fallback");
                        fallbacks += 1;
                    }
                    _ => {
                        assert!(!fell_back, "{setting:?}, prefix {i}");
                        assert_eq!(hybrid, plain, "{setting:?}, prefix {i}: hybrid");
                    }
                }
                if let (Ok(Some((_, plain))), Ok(Some((_, dp)))) = (&plain, &got) {
                    for (p, d) in plain.iter().zip(dp) {
                        let (p, d) = (f64::from_bits(*p), f64::from_bits(*d));
                        assert!((p - d).abs() < 1e-9, "{setting:?}, prefix {i}: {p} vs {d}");
                    }
                }
            }
        }
        fallbacks
    }

    /// On Figure 1: random sequences pushed record by record finish
    /// `to_bits`-equal to the batch DP over every prefix, for both
    /// normalizations, reduction on and off, and random query sets; the
    /// path engines, under budgets some prefixes exceed, agree with each
    /// other and with the fold.
    #[test]
    fn fold_finishes_like_the_batch_kernel_on_figure1() {
        let fig = paper_figure1();
        let mut rng = StdRng::seed_from_u64(29);
        let mut fallbacks = 0;
        for _ in 0..150 {
            let sets = random_sequence(&mut rng, &fig.space);
            let query_set = random_query(&mut rng, &fig.space);
            let budget = rng.gen_range(8..200);
            fallbacks += check_prefixes(&fig.space, &sets, &query_set, budget);
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
                check_prefixes(&space, &sets, &query_set, rng.gen_range(8..400));
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
