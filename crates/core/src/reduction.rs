//! The data reduction method of §3.2 (paper Algorithm 1 `ReduceData`):
//! intra-merge, inter-merge, and possible-semantic-location (PSL)
//! extraction with query-based pruning.

use std::borrow::Cow;

use indoor_iupt::{Sample, SampleSet, SampleSetError};
use indoor_model::{IndoorSpace, LocationMatrix, PLocId, SLocId};

use crate::bitset::SmallBitset;
use crate::config::FlowError;
use crate::query_set::QuerySet;

/// An object's positioning sequence after data reduction.
///
/// Sets the merge pipeline left untouched are **borrowed** from the
/// input sequence ([`Cow::Borrowed`]); only sets an intra- or
/// inter-merge actually rewrote are owned. How many are rewritten is a
/// property of the feed: a sequence whose reports never name two
/// equivalent P-locations and never repeat a support comes back wholly
/// borrowed, while on the synthetic building nearly every record names
/// equivalent P-locations (98.7 % of a window's records) and is
/// rewritten. Scanning with `merge = false` borrows every set.
#[derive(Debug, Clone)]
pub struct ReducedSequence<'a> {
    /// The (possibly merged) sample sets, in time order.
    pub sets: Vec<Cow<'a, SampleSet>>,
    /// The object's possible semantic locations: every S-location whose
    /// parent cell is touched by any reported P-location. Sorted by id.
    pub psls: Vec<SLocId>,
}

impl ReducedSequence<'_> {
    /// Upper bound on the possible paths of the reduced sequence.
    pub fn max_paths(&self) -> u128 {
        self.sets
            .iter()
            .fold(1u128, |acc, s| acc.saturating_mul(s.len() as u128))
    }
}

/// Scans a sequence, optionally merging, and extracts PSLs.
///
/// With `merge = true` this is the paper's `ReduceData` pipeline:
/// 1. **intra-merge** each sample set — samples at equivalent P-locations
///    (identical `cells(p)`, i.e. the same `GISL` edge) are folded into one
///    sample at the smallest-id representative, probabilities summed;
/// 2. **inter-merge** maximal runs of consecutive sets with identical
///    P-location support into one set with per-location *mean*
///    probabilities;
/// 3. collect PSLs from the cells of every reported P-location
///    (`psls' = ⋃ C2S(MIL[loc, *])`).
///
/// With `merge = false` only step 3 runs and every set is returned
/// borrowed, in order: the configuration without data reduction
/// (`FlowConfig::without_reduction`, the paper's `-ORG` variants) still
/// selects its candidate locations by PSLs but evaluates the original
/// sequence.
///
/// # One streaming fold
///
/// Steps 1 and 2 run as one pass that builds no sample set per record,
/// and the pass is a left fold: everything it carries from one record
/// to the next is one resumable state, which [`crate::SpanFold`] keeps
/// between records that arrive apart. A record whose raw support
/// differs from its predecessor's is intra-merged by [`intra_merge`]'s
/// own code and either opens a run or joins the open one. A record that *repeats* its predecessor's
/// support — a dwelling device re-reporting the same candidate
/// positions, the bulk of an indoor feed — belongs to the open run by
/// construction, so its probabilities are added straight into the run's
/// per-location sums through a plan of that support (which sample feeds
/// which representative, worked out once), and one mean set is built
/// when the run closes.
///
/// The result is **bit-identical** (`to_bits`) to running
/// [`intra_merge`] on every record and [`inter_merge`] on every run,
/// because the same additions happen in the same order: within a record,
/// each representative's probability is the sum of its samples in
/// ascending location order; across a run, each location's sum starts
/// from the run head's probability and adds the later records' in record
/// order; the mean is that sum divided by the run length. Every
/// intermediate the two procedures would pass to [`SampleSet::new`] goes
/// through the same [`SampleSet::validate_probs`] in the same order, so
/// the same clamps apply and the same errors fire.
///
/// # Errors
/// [`FlowError::InvalidSampleSet`] when a merge step produces a set that
/// violates the sample-set invariants — reachable only at the edge of
/// the sum tolerance (re-associated additions landing a hair outside
/// it), and surfaced as an error so a serving layer can drop the
/// offending sequence instead of crashing.
pub fn scan_sequence<'a, I>(
    space: &IndoorSpace,
    sets: I,
    merge: bool,
) -> Result<ReducedSequence<'a>, FlowError>
where
    I: IntoIterator<Item = &'a SampleSet>,
{
    let mut psls = PslCollector::new(space);
    let mut run = RunFold::new(merge);
    let mut out: Vec<Cow<'a, SampleSet>> = Vec::new();
    for set in sets {
        let (closed, new_support) = run.push(space, set, |merged| merged)?;
        // PSLs come from the raw support (equivalent after intra-merge,
        // since equivalent P-locations share their cell sets), so a
        // repeated support adds none.
        if new_support {
            psls.add(space, set);
        }
        out.extend(closed);
    }
    out.extend(run.close()?);
    Ok(ReducedSequence {
        sets: out,
        psls: psls.finish(),
    })
}

/// The §3.2 reduction as a left fold, one record at a time: the state
/// [`scan_sequence`] carries from one record to the next, and all of
/// it — so a caller that keeps a `RunFold` can resume the reduction
/// where it stopped.
///
/// `'a` is how long the open run's head may borrow its record: the
/// whole input for [`scan_sequence`], which then returns untouched sets
/// borrowed; `'static` for [`crate::SpanFold`], which owns every head.
#[derive(Debug)]
pub(crate) struct RunFold<'a> {
    /// Merge (`true`) or pass every set through as a run of its own.
    merge: bool,
    /// The open run's first record, intra-merged; `None` before the
    /// first record.
    head: Option<Cow<'a, SampleSet>>,
    /// The per-location probability sums over the open run's records,
    /// in `head.samples()` order.
    sums: Vec<f64>,
    /// The open run's length.
    len: usize,
    /// The predecessor record's raw support.
    prev: Vec<PLocId>,
    /// The fold plan of `prev` — built on the first repeat, so a support
    /// seen once costs no plan.
    plan: FoldPlan,
    plan_stale: bool,
}

impl<'a> RunFold<'a> {
    pub(crate) fn new(merge: bool) -> Self {
        RunFold {
            merge,
            head: None,
            sums: Vec::new(),
            len: 0,
            prev: Vec::new(),
            plan: FoldPlan::default(),
            plan_stale: true,
        }
    }

    /// Folds in the next record. Returns the run it closed, if any, and
    /// whether the record's raw support differs from its predecessor's
    /// (only then can it bring new PSLs). `keep` turns the record, when
    /// it opens a run, into the run's head.
    pub(crate) fn push<'b>(
        &mut self,
        space: &IndoorSpace,
        set: &'b SampleSet,
        keep: impl FnOnce(Cow<'b, SampleSet>) -> Cow<'a, SampleSet>,
    ) -> Result<(Option<Cow<'a, SampleSet>>, bool), FlowError> {
        let repeat = self.head.is_some()
            && self.prev.len() == set.len()
            && self
                .prev
                .iter()
                .zip(set.samples())
                .all(|(&p, s)| p == s.loc);
        if !repeat {
            self.prev.clear();
            self.prev.extend(set.plocs());
        }
        if !self.merge {
            let closed = self.head.replace(keep(Cow::Borrowed(set)));
            self.len = 1;
            return Ok((closed, !repeat));
        }
        if repeat {
            // A record that repeats its predecessor's support belongs
            // to the open run by construction.
            if self.plan_stale {
                self.plan.rebuild(space.matrix(), set);
                self.plan_stale = false;
            }
            self.plan.add_record(set.samples(), &mut self.sums)?;
            self.len += 1;
            return Ok((None, false));
        }
        self.plan_stale = true;
        let merged = intra_merge_cow(space, set)?;
        // A different raw support with the same merged one (`{p6}` then
        // `{p6, p8}`) continues the run.
        if self.head.as_ref().is_some_and(|h| h.same_plocs(&merged)) {
            for (sum, s) in self.sums.iter_mut().zip(merged.samples()) {
                *sum += s.prob;
            }
            self.len += 1;
            return Ok((None, true));
        }
        let closed = match self.head.take() {
            Some(h) => Some(close_run(h, &self.sums, self.len)?),
            None => None,
        };
        self.sums.clear();
        self.sums.extend(merged.samples().iter().map(|s| s.prob));
        self.head = Some(keep(merged));
        self.len = 1;
        Ok((closed, true))
    }

    /// The open run, closed — `None` before the first record. Leaves the
    /// fold as it was, so more records can follow.
    pub(crate) fn close_open(&self) -> Result<Option<Cow<'_, SampleSet>>, FlowError> {
        let head = self.head.as_deref().map(Cow::Borrowed);
        head.map(|h| close_run(h, &self.sums, self.len)).transpose()
    }

    /// The open run, closed, consuming the fold.
    fn close(self) -> Result<Option<Cow<'a, SampleSet>>, FlowError> {
        let (sums, len) = (self.sums, self.len);
        self.head.map(|h| close_run(h, &sums, len)).transpose()
    }
}

/// How one raw support intra-merges, worked out once and applied to
/// every record that repeats the support.
#[derive(Debug, Default)]
struct FoldPlan {
    /// Per raw sample (ascending location order), the slot of its
    /// equivalence class in `merged`.
    slot_of: Vec<usize>,
    /// One sample per equivalence class at its representative, in order
    /// of first appearance — the order [`intra_merge`] pushes and hence
    /// validates them. `prob` is scratch for the record being folded.
    merged: Vec<Sample>,
    /// Per `merged` slot, its rank by representative id: its position in
    /// the intra-merged set, and so in the open run's sums.
    rank_of: Vec<usize>,
}

impl FoldPlan {
    fn rebuild(&mut self, matrix: &LocationMatrix, set: &SampleSet) {
        self.slot_of.clear();
        self.merged.clear();
        for s in set.samples() {
            let rep = matrix.representative(s.loc);
            let slot = match self.merged.iter().position(|m| m.loc == rep) {
                Some(slot) => slot,
                None => {
                    self.merged.push(Sample::new(rep, 0.0));
                    self.merged.len() - 1
                }
            };
            self.slot_of.push(slot);
        }
        let merged = &self.merged;
        self.rank_of.clear();
        self.rank_of.extend(
            merged
                .iter()
                .map(|m| merged.iter().filter(|o| o.loc < m.loc).count()),
        );
    }

    /// Intra-merges one record of the plan's support (`samples`, in
    /// ascending location order) and adds the result into the open run's
    /// `sums`: what pushing `intra_merge(record)` onto the run and
    /// summing it later does, without the set in between.
    fn add_record(&mut self, samples: &[Sample], sums: &mut [f64]) -> Result<(), FlowError> {
        if self.merged.len() == samples.len() {
            // No two samples are equivalent: intra-merge leaves the
            // record as it is, representatives not substituted.
            for (sum, s) in sums.iter_mut().zip(samples) {
                *sum += s.prob;
            }
            return Ok(());
        }
        for m in &mut self.merged {
            m.prob = 0.0;
        }
        for (s, &slot) in samples.iter().zip(&self.slot_of) {
            self.merged[slot].prob += s.prob;
        }
        SampleSet::validate_probs(&mut self.merged).map_err(intra_merge_error)?;
        for (m, &rank) in self.merged.iter().zip(&self.rank_of) {
            sums[rank] += m.prob;
        }
        Ok(())
    }
}

/// Closes a run of `len` records: a run of one passes its (possibly
/// still borrowed) head through untouched; a longer one becomes an owned
/// set of per-location means — [`inter_merge`]'s result.
fn close_run<'a>(
    head: Cow<'a, SampleSet>,
    sums: &[f64],
    len: usize,
) -> Result<Cow<'a, SampleSet>, FlowError> {
    if len == 1 {
        return Ok(head);
    }
    let n = len as f64;
    let means = head
        .plocs()
        .zip(sums)
        .map(|(loc, &sum)| Sample::new(loc, sum / n))
        .collect();
    SampleSet::new(means)
        .map(Cow::Owned)
        .map_err(inter_merge_error)
}

/// The one place the `plocs → cells_of → slocs_in_cell` walk happens:
/// collects the S-locations of every cell a sample set touches, visiting
/// each distinct cell once.
#[derive(Debug, Clone)]
pub(crate) struct PslCollector {
    seen_cells: SmallBitset,
    psls: Vec<SLocId>,
}

impl PslCollector {
    pub(crate) fn new(space: &IndoorSpace) -> Self {
        PslCollector {
            seen_cells: SmallBitset::with_capacity(space.cells().len()),
            psls: Vec::new(),
        }
    }

    pub(crate) fn add(&mut self, space: &IndoorSpace, set: &SampleSet) {
        let matrix = space.matrix();
        for loc in set.plocs() {
            for cell in matrix.cells_of(loc).iter() {
                if !self.seen_cells.get(cell.index()) {
                    self.seen_cells.set(cell.index());
                    self.psls.extend_from_slice(space.slocs_in_cell(cell));
                }
            }
        }
    }

    /// Every S-location collected so far, in collection order, with
    /// repeats (one per cell that lists it); `added()[before..]` is what
    /// the adds since `added().len()` was `before` brought.
    pub(crate) fn added(&self) -> &[SLocId] {
        &self.psls
    }

    /// The collected PSLs, sorted and deduplicated (an S-location
    /// spanning several cells is listed under each).
    fn finish(mut self) -> Vec<SLocId> {
        self.psls.sort_unstable();
        self.psls.dedup();
        self.psls
    }
}

/// Collects a sequence's possible semantic locations **without** running
/// the merge pipeline — the cheap half of [`scan_sequence`], and all of
/// it when merging is off.
///
/// Returns exactly the `psls` field [`scan_sequence`] would return for
/// the same sets (sorted, deduplicated): PSLs come from the raw sample
/// support, which the merge steps never change. Like [`scan_sequence`],
/// it visits a record's cells only when its raw support differs from its
/// predecessor's, since a repeated support adds none.
pub fn scan_psls<'a, I>(space: &IndoorSpace, sets: I) -> Vec<SLocId>
where
    I: IntoIterator<Item = &'a SampleSet>,
{
    let mut psls = PslCollector::new(space);
    let mut prev: Vec<PLocId> = Vec::new();
    for set in sets {
        if !set.plocs().eq(prev.iter().copied()) {
            prev.clear();
            prev.extend(set.plocs());
            psls.add(space, set);
        }
    }
    psls.finish()
}

/// [`scan_sequence`] plus the Algorithm 1 line 13 pruning: returns `None`
/// when the object's PSLs do not intersect the query set, so the object can
/// be excluded from flow computing entirely.
pub fn reduce_for_query<'a, I>(
    space: &IndoorSpace,
    sets: I,
    query: &QuerySet,
    merge: bool,
) -> Result<Option<ReducedSequence<'a>>, FlowError>
where
    I: IntoIterator<Item = &'a SampleSet>,
{
    let reduced = scan_sequence(space, sets, merge)?;
    if query.intersects_sorted(&reduced.psls) {
        Ok(Some(reduced))
    } else {
        Ok(None)
    }
}

/// The `IntraMerge` procedure: folds samples of equivalent P-locations
/// (paper Algorithm 1 lines 14–21). The representative keeps the smallest
/// subscript (footnote 5) and the merged probability is the sum.
pub fn intra_merge(space: &IndoorSpace, set: &SampleSet) -> Result<SampleSet, FlowError> {
    intra_merge_cow(space, set).map(Cow::into_owned)
}

/// [`intra_merge`] without the defensive copy: a set with no equivalent
/// samples is returned borrowed, so the no-merge fast path allocates
/// nothing.
fn intra_merge_cow<'a>(
    space: &IndoorSpace,
    set: &'a SampleSet,
) -> Result<Cow<'a, SampleSet>, FlowError> {
    let matrix = space.matrix();
    let samples = set.samples();

    // Fast path: no two samples share an equivalence class.
    let mut needs_merge = false;
    for (i, a) in samples.iter().enumerate() {
        for b in &samples[i + 1..] {
            if matrix.equivalent(a.loc, b.loc) {
                needs_merge = true;
                break;
            }
        }
        if needs_merge {
            break;
        }
    }
    if !needs_merge {
        return Ok(Cow::Borrowed(set));
    }

    let mut merged: Vec<Sample> = Vec::with_capacity(samples.len());
    for s in samples {
        let rep = matrix.representative(s.loc);
        match merged.iter_mut().find(|m| m.loc == rep) {
            Some(m) => m.prob += s.prob,
            None => merged.push(Sample::new(rep, s.prob)),
        }
    }
    SampleSet::new(merged)
        .map(Cow::Owned)
        .map_err(intra_merge_error)
}

fn intra_merge_error(e: SampleSetError) -> FlowError {
    FlowError::InvalidSampleSet {
        detail: format!("intra-merge: {e}"),
    }
}

fn inter_merge_error(e: SampleSetError) -> FlowError {
    FlowError::InvalidSampleSet {
        detail: format!("inter-merge: {e}"),
    }
}

/// The `InterMerge` procedure (paper Algorithm 1 lines 22–30): collapses a
/// run of sample sets with identical P-location support into one set whose
/// probabilities are the per-location means. Generic over owned,
/// borrowed, or [`Cow`] sets.
pub fn inter_merge<S: std::borrow::Borrow<SampleSet>>(run: &[S]) -> Result<SampleSet, FlowError> {
    let Some(front) = run.first() else {
        return Err(FlowError::InvalidSampleSet {
            detail: "inter-merge requires a non-empty run".into(),
        });
    };
    let front = front.borrow();
    if run.len() == 1 {
        return Ok(front.clone());
    }
    let n = run.len() as f64;
    debug_assert!(run.iter().all(|s| s.borrow().same_plocs(front)));
    let samples: Vec<Sample> = front
        .plocs()
        .map(|loc| {
            let mean = run.iter().map(|s| s.borrow().prob_of(loc)).sum::<f64>() / n;
            Sample::new(loc, mean)
        })
        .collect();
    SampleSet::new(samples).map_err(inter_merge_error)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::borrow::Cow;

    use indoor_iupt::fixtures::{paper_table2, O2, O3};
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::PLocId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-record pipeline [`scan_sequence`] replaced, kept as the
    /// reference the fold is tested against: intra-merge every record
    /// into a set, collect runs of equal support, inter-merge each run,
    /// and gather PSLs from every cell of every sample of every record.
    fn reference_scan_sequence<'a>(
        space: &IndoorSpace,
        sets: &'a [SampleSet],
        merge: bool,
    ) -> Result<ReducedSequence<'a>, FlowError> {
        fn flush_run<'a>(
            run: &mut Vec<Cow<'a, SampleSet>>,
        ) -> Result<Cow<'a, SampleSet>, FlowError> {
            if run.len() == 1 {
                return Ok(run.pop().expect("run checked non-empty"));
            }
            let merged = inter_merge(run)?;
            run.clear();
            Ok(Cow::Owned(merged))
        }

        let matrix = space.matrix();
        let mut out: Vec<Cow<'a, SampleSet>> = Vec::new();
        let mut run: Vec<Cow<'a, SampleSet>> = Vec::new();
        let mut psls: Vec<SLocId> = Vec::new();
        for set in sets {
            for loc in set.plocs() {
                for cell in matrix.cells_of(loc).iter() {
                    psls.extend_from_slice(space.slocs_in_cell(cell));
                }
            }
            if !merge {
                out.push(Cow::Borrowed(set));
                continue;
            }
            let merged = intra_merge_cow(space, set)?;
            match run.last() {
                Some(tail) if tail.same_plocs(&merged) => run.push(merged),
                Some(_) => {
                    out.push(flush_run(&mut run)?);
                    run.push(merged);
                }
                None => run.push(merged),
            }
        }
        if !run.is_empty() {
            out.push(flush_run(&mut run)?);
        }
        psls.sort_unstable();
        psls.dedup();
        Ok(ReducedSequence { sets: out, psls })
    }

    /// The identity gate: the fold returns the reference pipeline's
    /// sets — count, locations, probability bits, and which ones are
    /// borrowed from the input — and its PSLs, or its error.
    fn assert_matches_reference(space: &IndoorSpace, sets: &[SampleSet], merge: bool) {
        let got = scan_sequence(space, sets.iter(), merge);
        let want = reference_scan_sequence(space, sets, merge);
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                assert_eq!(got.err(), want.err(), "merge={merge} sets={sets:?}");
                return;
            }
        };
        assert_eq!(got.psls, want.psls, "merge={merge} sets={sets:?}");
        assert_eq!(got.sets.len(), want.sets.len(), "merge={merge} {sets:?}");
        for (i, (g, w)) in got.sets.iter().zip(&want.sets).enumerate() {
            assert!(g.same_plocs(w), "set {i}: {g} vs {w} from {sets:?}");
            for (a, b) in g.samples().iter().zip(w.samples()) {
                assert_eq!(
                    a.prob.to_bits(),
                    b.prob.to_bits(),
                    "set {i} at {}: {g} vs {w} from {sets:?}",
                    a.loc
                );
            }
            match (g, w) {
                (Cow::Borrowed(g), Cow::Borrowed(w)) => {
                    assert!(std::ptr::eq(*g, *w), "set {i} borrowed from elsewhere")
                }
                (Cow::Owned(_), Cow::Owned(_)) => {}
                _ => panic!("set {i}: {g:?} vs {w:?} differ in ownership"),
            }
        }
    }

    /// A sample set over `locs` with random probabilities.
    fn random_set(rng: &mut StdRng, locs: &[PLocId]) -> SampleSet {
        let weights = locs
            .iter()
            .map(|&l| (l, rng.gen_range(0.05..1.0)))
            .collect();
        SampleSet::normalized(weights).unwrap()
    }

    /// A random support of 1–4 P-locations; half the time one of them
    /// brings an equivalent P-location along, so the record intra-merges.
    fn random_support(rng: &mut StdRng, space: &IndoorSpace) -> Vec<PLocId> {
        let matrix = space.matrix();
        let n = matrix.ploc_count();
        let mut locs: Vec<PLocId> = (0..rng.gen_range(1..5usize))
            .map(|_| PLocId::from_index(rng.gen_range(0..n)))
            .collect();
        if rng.gen_range(0..2) == 0 {
            let shared: Vec<&indoor_model::EquivClass> = matrix
                .classes()
                .iter()
                .filter(|c| c.members.len() > 1)
                .collect();
            if !shared.is_empty() {
                let class = shared[rng.gen_range(0..shared.len())];
                locs.extend_from_slice(&class.members[..2]);
            }
        }
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// A sequence stitched from the shapes the fold tells apart: a
    /// support reported once; a long run of one support with fresh
    /// probabilities; the same record repeated verbatim; a return to the
    /// support before last (A, B, A); and a run continued by a different
    /// raw support with the same intra-merged one (a lone class member,
    /// then the representative with a class-mate).
    pub(crate) fn random_sequence(rng: &mut StdRng, space: &IndoorSpace) -> Vec<SampleSet> {
        let mut sets: Vec<SampleSet> = Vec::new();
        let mut supports: Vec<Vec<PLocId>> = Vec::new();
        for _ in 0..rng.gen_range(1..7usize) {
            let shape = rng.gen_range(0..5);
            let support = match shape {
                3 if supports.len() >= 2 => supports[supports.len() - 2].clone(),
                _ => random_support(rng, space),
            };
            match shape {
                0 | 3 => sets.push(random_set(rng, &support)),
                1 => {
                    for _ in 0..rng.gen_range(2..20usize) {
                        sets.push(random_set(rng, &support));
                    }
                }
                2 => {
                    let set = random_set(rng, &support);
                    sets.extend(std::iter::repeat_n(set, rng.gen_range(2..6usize)));
                }
                _ => {
                    let matrix = space.matrix();
                    let Some(class) = matrix.classes().iter().find(|c| c.members.len() > 1) else {
                        continue;
                    };
                    let rep = class.members[0];
                    let mate = class.members[1];
                    for locs in [vec![rep], vec![rep, mate], vec![rep, mate], vec![rep]] {
                        sets.push(random_set(rng, &locs));
                    }
                }
            }
            supports.push(support);
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn fold_matches_reference_on_figure1(seed in 0u64..u64::MAX) {
            let fig = paper_figure1();
            let mut rng = StdRng::seed_from_u64(seed);
            let sets = random_sequence(&mut rng, &fig.space);
            assert_matches_reference(&fig.space, &sets, true);
            assert_matches_reference(&fig.space, &sets, false);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `scan_psls`, which skips the cells of a repeated support, is
        /// `scan_sequence`'s PSL list under both merge settings, on
        /// sequences full of repeated supports.
        #[test]
        fn scan_psls_matches_scan_sequence_on_random_sequences(seed in 0u64..u64::MAX) {
            let fig = paper_figure1();
            let mut rng = StdRng::seed_from_u64(seed);
            let sets = random_sequence(&mut rng, &fig.space);
            let psls = scan_psls(&fig.space, sets.iter());
            for merge in [true, false] {
                let scanned = scan_sequence(&fig.space, sets.iter(), merge).unwrap();
                prop_assert_eq!(&psls, &scanned.psls, "merge={}", merge);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn fold_matches_reference_on_generated_building(seed in 0u64..u64::MAX) {
            let cfg = indoor_sim::BuildingGenConfig { seed, ..indoor_sim::BuildingGenConfig::tiny() };
            let space = indoor_sim::generate_building(&cfg);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                let sets = random_sequence(&mut rng, &space);
                assert_matches_reference(&space, &sets, true);
                assert_matches_reference(&space, &sets, false);
            }
        }
    }

    /// The shapes the fold distinguishes, one by one, on Figure 1 where
    /// p6 ≡ p8 (ids 5, 7) and p4 ≡ p9 (ids 3, 8).
    #[test]
    fn fold_matches_reference_on_each_shape() {
        let fig = paper_figure1();
        let set = |pairs: &[(u32, f64)]| {
            SampleSet::new(
                pairs
                    .iter()
                    .map(|&(l, p)| Sample::new(PLocId(l), p))
                    .collect(),
            )
            .unwrap()
        };
        let a1 = set(&[(0, 0.5), (1, 0.5)]);
        let a2 = set(&[(0, 0.25), (1, 0.75)]);
        let b = set(&[(2, 1.0)]);
        let p6 = set(&[(5, 1.0)]);
        let p8 = set(&[(7, 1.0)]);
        let p6_p8 = set(&[(5, 0.6), (7, 0.4)]);
        let merging = set(&[(4, 0.3), (5, 0.6), (7, 0.1)]);
        let merging2 = set(&[(4, 0.1), (5, 0.2), (7, 0.7)]);
        // A class member ahead of another class's representative: the
        // intra-merge pushes p4's class after p6's … and sorts it first.
        let crossed = set(&[(5, 0.2), (7, 0.3), (8, 0.5)]);
        let crossed2 = set(&[(5, 0.1), (7, 0.1), (8, 0.8)]);
        let class_mates = vec![p6.clone(), p6_p8.clone(), p6_p8.clone(), p6.clone()];
        let shapes: Vec<(&str, Vec<SampleSet>)> = vec![
            ("single record", vec![a1.clone()]),
            ("single merging record", vec![merging.clone()]),
            ("runs of length 1", vec![a1.clone(), b.clone(), p6.clone()]),
            (
                "long run, plain",
                vec![a1.clone(), a2.clone(), a1.clone(), a2.clone()],
            ),
            (
                "long run, merging",
                vec![merging.clone(), merging2.clone(), merging.clone()],
            ),
            ("A, B, A", vec![a1.clone(), b.clone(), a2.clone()]),
            (
                "A, A, B, B, A, A",
                vec![a1.clone(), a2.clone(), b.clone(), b.clone(), a2, a1],
            ),
            ("{p6} then {p6, p8}", class_mates.clone()),
            ("{p8} is not {p6}", vec![p8.clone(), p6_p8, p8, p6]),
            (
                "push order differs from id order",
                vec![crossed.clone(), crossed2, crossed],
            ),
            (
                "verbatim repeats",
                vec![merging.clone(), merging.clone(), merging],
            ),
        ];
        for (name, sets) in &shapes {
            eprintln!("shape: {name}");
            assert_matches_reference(&fig.space, sets, true);
            assert_matches_reference(&fig.space, sets, false);
        }
        // `{p6}`, `{p6, p8}`, `{p6, p8}`, `{p6}` is one run.
        let one_run = scan_sequence(&fig.space, class_mates.iter(), true).unwrap();
        assert_eq!(one_run.sets.len(), 1);
        assert_eq!(one_run.sets[0].prob_of(PLocId(5)), 1.0);
    }

    /// `SampleSet::new` and the in-place fold reject through one routine:
    /// an out-of-range and an off-sum merge result fail in the fold with
    /// exactly the error — variant, payload, detail string — that
    /// building the merged set with `new` gives, and leave the run's sums
    /// untouched.
    #[test]
    fn fold_and_new_share_validation() {
        let fig = paper_figure1();
        let support = SampleSet::new(vec![
            Sample::new(PLocId(5), 0.5),
            Sample::new(PLocId(7), 0.5),
        ])
        .unwrap();
        let mut plan = FoldPlan::default();
        plan.rebuild(fig.space.matrix(), &support);
        for (p6, p8) in [(0.7, 0.7), (0.3, 0.3)] {
            let record = [Sample::new(PLocId(5), p6), Sample::new(PLocId(7), p8)];
            let mut sums = vec![1.0];
            let folded = plan.add_record(&record, &mut sums).unwrap_err();
            let built = SampleSet::new(vec![Sample::new(PLocId(5), p6 + p8)]).unwrap_err();
            assert_eq!(folded, intra_merge_error(built));
            assert_eq!(sums, vec![1.0]);
        }
        let mut merged = vec![Sample::new(PLocId(5), 1.4)];
        assert!(matches!(
            SampleSet::validate_probs(&mut merged),
            Err(SampleSetError::BadProbability { prob, .. }) if prob == 1.4
        ));
        let mut merged = vec![Sample::new(PLocId(5), 0.6)];
        assert!(matches!(
            SampleSet::validate_probs(&mut merged),
            Err(SampleSetError::BadSum { sum }) if sum == 0.6
        ));
        // In range and on sum: accepted, and the tolerance band clamps.
        let mut sums = vec![1.0];
        let record = [
            Sample::new(PLocId(5), 0.5),
            Sample::new(PLocId(7), 0.5000004),
        ];
        plan.add_record(&record, &mut sums).unwrap();
        assert_eq!(sums, vec![2.0]);
    }

    fn o2_sets() -> (indoor_model::IndoorSpace, Vec<SampleSet>) {
        let fig = paper_figure1();
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let sets: Vec<SampleSet> = iupt
            .sequence_of(O2, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect();
        (fig.space, sets)
    }

    /// Reproduces the paper's Figure 4 trace on object o2.
    #[test]
    fn figure4_intra_then_inter_merge() {
        let (space, sets) = o2_sets();
        assert_eq!(sets.len(), 4);

        // Intra-merge X3 = {(p5,.3),(p6,.6),(p8,.1)} → {(p5,.3),(p6,.7)}.
        let x3 = intra_merge(&space, &sets[2]).unwrap();
        assert_eq!(x3.len(), 2);
        assert!((x3.prob_of(PLocId(4)) - 0.3).abs() < 1e-12); // p5
        assert!((x3.prob_of(PLocId(5)) - 0.7).abs() < 1e-12); // p6 (+p8)

        // Full scan: 4 sets → 3 sets; |P| bound 36 → 8 (the paper counts
        // generated paths as 32 → 8; the Cartesian bound is 2·2·2 = 8).
        let reduced = scan_sequence(&space, sets.iter(), true).unwrap();
        assert_eq!(reduced.sets.len(), 3);
        assert_eq!(reduced.max_paths(), 8);

        // The merged X̄3 has mean probabilities (p5: .25, p6: .75).
        let merged = &reduced.sets[2];
        assert!((merged.prob_of(PLocId(4)) - 0.25).abs() < 1e-12);
        assert!((merged.prob_of(PLocId(5)) - 0.75).abs() < 1e-12);
        assert!((merged.prob_sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn psls_of_o3_match_paper() {
        // §3.2: o3's PSLs are r3, r4 and r6.
        let fig = paper_figure1();
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let sets: Vec<SampleSet> = iupt
            .sequence_of(O3, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect();
        let reduced = scan_sequence(&fig.space, sets.iter(), true).unwrap();
        let expected = {
            let mut v = vec![fig.r[2], fig.r[3], fig.r[5]];
            v.sort_unstable();
            v
        };
        assert_eq!(reduced.psls, expected);
    }

    #[test]
    fn query_pruning_rules_out_irrelevant_object() {
        // §3.2: "if a query location set is {r1, r2, r5} or one of its
        // subsets, o3's sequence can be ruled out".
        let fig = paper_figure1();
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let sets: Vec<SampleSet> = iupt
            .sequence_of(O3, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect();
        let q_irrelevant = QuerySet::new(vec![fig.r[0], fig.r[1], fig.r[4]]);
        assert!(
            reduce_for_query(&fig.space, sets.iter(), &q_irrelevant, true)
                .unwrap()
                .is_none()
        );
        let q_relevant = QuerySet::new(vec![fig.r[5]]);
        assert!(reduce_for_query(&fig.space, sets.iter(), &q_relevant, true)
            .unwrap()
            .is_some());
    }

    #[test]
    fn no_merge_keeps_sets_but_computes_psls() {
        let (space, sets) = o2_sets();
        let scanned = scan_sequence(&space, sets.iter(), false).unwrap();
        assert_eq!(scanned.sets.len(), 4);
        assert_eq!(*scanned.sets[2], sets[2]);
        assert!(!scanned.psls.is_empty());
    }

    /// The no-clone guarantee: scanning without merging borrows every
    /// set straight from the input (pointer-identical, zero sample
    /// copies), and even the merging scan borrows the sets its pipeline
    /// left untouched.
    #[test]
    fn scan_borrows_untouched_sets() {
        let (space, sets) = o2_sets();
        let scanned = scan_sequence(&space, sets.iter(), false).unwrap();
        for (cow, original) in scanned.sets.iter().zip(&sets) {
            assert!(
                matches!(cow, Cow::Borrowed(b) if std::ptr::eq(*b, original)),
                "merge=false cloned a set"
            );
        }

        // o2's X1 and X2 have distinct support and no equivalent samples:
        // the merging scan must pass them through borrowed too. (X3/X4
        // intra- and inter-merge, so they are owned rewrites.)
        let merged = scan_sequence(&space, sets.iter(), true).unwrap();
        assert_eq!(merged.sets.len(), 3);
        for (i, cow) in merged.sets[..2].iter().enumerate() {
            assert!(
                matches!(cow, Cow::Borrowed(b) if std::ptr::eq(*b, &sets[i])),
                "untouched set {i} was cloned by the merging scan"
            );
        }
        assert!(matches!(merged.sets[2], Cow::Owned(_)));
    }

    #[test]
    fn inter_merge_single_set_is_identity() {
        let (_, sets) = o2_sets();
        assert_eq!(inter_merge(&sets[0..1]).unwrap(), sets[0]);
    }

    #[test]
    fn intra_merge_without_equivalents_is_identity() {
        let (space, sets) = o2_sets();
        // X1 = {(p1,.5),(p2,.5)}: p1 and p2 are not equivalent.
        assert_eq!(intra_merge(&space, &sets[0]).unwrap(), sets[0]);
    }

    #[test]
    fn reduction_preserves_probability_mass() {
        let (space, sets) = o2_sets();
        let reduced = scan_sequence(&space, sets.iter(), true).unwrap();
        for s in &reduced.sets {
            assert!((s.prob_sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn psls_identical_with_and_without_merge() {
        let (space, sets) = o2_sets();
        let with = scan_sequence(&space, sets.iter(), true).unwrap();
        let without = scan_sequence(&space, sets.iter(), false).unwrap();
        assert_eq!(with.psls, without.psls);
    }
}
