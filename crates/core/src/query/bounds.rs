//! Count-based flow upper bounds and the threshold heap that drives
//! bound-pruned lazy evaluation — Algorithm 4's (§4.2) COUNT bound and
//! best-first loop, as the batch Best-First search uses them.
//!
//! Every object's presence at a location is a probability, so
//! `Φ(q, o) ≤ 1` and a location's windowed flow is bounded by its number
//! of *candidate* objects — objects whose possible semantic locations
//! touch `q`. A top-k evaluation can therefore process locations
//! best-first by bound, computing exact flows lazily and stopping as
//! soon as `k` exact flows dominate every remaining bound; sub-threshold
//! locations never pay a presence computation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use indoor_model::SLocId;

/// The COUNT upper bound on one location's windowed flow (Algorithm 4
/// line 38, with exact per-location candidate counts in place of R-tree
/// node counts): each candidate object contributes presence ≤ 1, so
/// `flow(q) ≤ candidates`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationBound {
    /// The bounded query location.
    pub sloc: SLocId,
    /// Distinct candidate objects in the window whose PSLs touch `sloc`.
    pub candidates: usize,
}

impl LocationBound {
    /// The bound as an `f64` heap priority, inflated by a hair of
    /// relative slack: an exact flow is a floating-point sum of
    /// per-object presences, and summation error must never push it past
    /// its own location's bound (which would let the threshold loop
    /// finalize a ranking that skips this location incorrectly).
    pub fn flow_bound(&self) -> f64 {
        self.candidates as f64 * (1.0 + 1e-9)
    }
}

/// What the threshold loop should do next (see [`ThresholdHeap::pop`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdStep {
    /// The location with the highest upper bound has no exact flow yet:
    /// compute it and report back with [`ThresholdHeap::push_exact`].
    Evaluate(SLocId),
    /// This exact flow dominates every remaining bound — the location is
    /// final at the next rank. Collecting `k` of these yields exactly
    /// the locations [`crate::rank_topk`] would select from the full
    /// score table, in rank order.
    Finalize(SLocId, f64),
}

/// Max-heap ordering for the lazy threshold loop, mirroring the
/// Best-First join's heap with one deliberate difference: at equal
/// priority a *bound* outranks an *exact* flow, so a location whose
/// bound ties the current best exact value is always evaluated before
/// that exact value is finalized. This is what makes the loop's output
/// agree with [`crate::rank_topk`]'s deterministic tie-breaking
/// (descending flow, then ascending location id) instead of merely
/// returning *some* valid top-k under ties.
#[derive(Debug)]
struct Entry {
    value: f64,
    exact: bool,
    sloc: SLocId,
}

impl Entry {
    fn key(&self, other: &Self) -> Ordering {
        self.value
            .total_cmp(&other.value)
            // `false > true` here: bounds pop before exacts on ties.
            .then(other.exact.cmp(&self.exact))
            // Smaller ids pop first, matching rank_topk's tie order.
            .then(other.sloc.cmp(&self.sloc))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key(other)
    }
}

/// The driver of a bound-pruned lazy top-k evaluation.
///
/// Seed it with one [`push_bound`](ThresholdHeap::push_bound) or
/// [`push_exact`](ThresholdHeap::push_exact) per query location, then
/// loop on [`pop`](ThresholdHeap::pop) until `k` locations have been
/// finalized (or the heap runs dry):
///
/// ```
/// use indoor_model::SLocId;
/// use popflow_core::{LocationBound, ThresholdHeap, ThresholdStep};
///
/// let exact_flows = [(SLocId(0), 0.4), (SLocId(1), 1.6), (SLocId(2), 0.9)];
/// let mut heap = ThresholdHeap::new();
/// for &(sloc, _) in &exact_flows {
///     heap.push_bound(LocationBound { sloc, candidates: 2 });
/// }
/// let mut top1 = Vec::new();
/// while top1.len() < 1 {
///     match heap.pop() {
///         None => break,
///         Some(ThresholdStep::Finalize(sloc, flow)) => top1.push((sloc, flow)),
///         Some(ThresholdStep::Evaluate(sloc)) => {
///             let flow = exact_flows.iter().find(|e| e.0 == sloc).unwrap().1;
///             heap.push_exact(sloc, flow);
///         }
///     }
/// }
/// assert_eq!(top1, vec![(SLocId(1), 1.6)]);
/// ```
#[derive(Debug, Default)]
pub struct ThresholdHeap {
    heap: BinaryHeap<Entry>,
}

impl ThresholdHeap {
    /// An empty heap.
    pub fn new() -> Self {
        ThresholdHeap::default()
    }

    /// Registers a location by its flow upper bound.
    pub fn push_bound(&mut self, bound: LocationBound) {
        self.heap.push(Entry {
            value: bound.flow_bound(),
            exact: false,
            sloc: bound.sloc,
        });
    }

    /// Registers a location whose exact flow is already known (reply to
    /// an [`ThresholdStep::Evaluate`], or a zero-candidate location whose
    /// flow is trivially 0).
    pub fn push_exact(&mut self, sloc: SLocId, flow: f64) {
        self.heap.push(Entry {
            value: flow,
            exact: true,
            sloc,
        });
    }

    /// The next step: `Evaluate` when a bound still tops the heap,
    /// `Finalize` when an exact flow does, `None` when the heap is empty.
    pub fn pop(&mut self) -> Option<ThresholdStep> {
        self.heap.pop().map(|e| {
            if e.exact {
                ThresholdStep::Finalize(e.sloc, e.value)
            } else {
                ThresholdStep::Evaluate(e.sloc)
            }
        })
    }

    /// Locations still in the heap (bounds and exacts).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::rank_topk;

    /// Runs the lazy loop over known exact flows and returns the
    /// finalized (sloc, flow) list plus how many evaluations it paid.
    fn run_loop(
        flows: &[(SLocId, f64)],
        counts: &[usize],
        k: usize,
    ) -> (Vec<(SLocId, f64)>, usize) {
        let mut heap = ThresholdHeap::new();
        for (&(sloc, _), &candidates) in flows.iter().zip(counts) {
            if candidates == 0 {
                heap.push_exact(sloc, 0.0);
            } else {
                heap.push_bound(LocationBound { sloc, candidates });
            }
        }
        let mut finals = Vec::new();
        let mut evaluations = 0;
        while finals.len() < k {
            match heap.pop() {
                None => break,
                Some(ThresholdStep::Finalize(sloc, flow)) => finals.push((sloc, flow)),
                Some(ThresholdStep::Evaluate(sloc)) => {
                    evaluations += 1;
                    let flow = flows.iter().find(|e| e.0 == sloc).unwrap().1;
                    heap.push_exact(sloc, flow);
                }
            }
        }
        (finals, evaluations)
    }

    #[test]
    fn agrees_with_rank_topk_and_prunes() {
        // Candidate counts bound the flows; the two 0.0x locations are
        // never worth evaluating for k = 2.
        let flows = [
            (SLocId(3), 0.02),
            (SLocId(1), 2.5),
            (SLocId(4), 1.9),
            (SLocId(2), 0.01),
        ];
        let counts = [1, 3, 2, 1];
        let (finals, evaluations) = run_loop(&flows, &counts, 2);
        assert_eq!(
            finals,
            vec![(SLocId(1), 2.5), (SLocId(4), 1.9)],
            "lazy loop diverged from exact ranking"
        );
        // Only the two winners were evaluated: bounds 1 < exact 1.9.
        assert_eq!(evaluations, 2);
        let full = rank_topk(flows.to_vec(), 2);
        assert_eq!(
            finals,
            full.iter().map(|r| (r.sloc, r.flow)).collect::<Vec<_>>()
        );
    }

    /// Deterministic pseudo-random configurations (no external RNG):
    /// whatever the flow/count mix, the finalized list must equal
    /// `rank_topk` over the full exact score table — including flow ties
    /// broken by ascending id and zero-flow padding.
    #[test]
    fn matches_rank_topk_on_many_configs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let n = 1 + (next() % 12) as usize;
            let k = 1 + (next() % 6) as usize;
            let mut flows = Vec::with_capacity(n);
            let mut counts = Vec::with_capacity(n);
            for i in 0..n {
                let candidates = (next() % 4) as usize;
                counts.push(candidates);
                let flow = if candidates == 0 {
                    0.0
                } else {
                    // Quantized flows so ties actually occur; ≤ count.
                    (next() % (candidates as u64 * 4 + 1)) as f64 * 0.25
                };
                flows.push((SLocId(i as u32), flow));
            }
            let (finals, _) = run_loop(&flows, &counts, k);
            let want: Vec<(SLocId, f64)> = rank_topk(flows.clone(), k)
                .into_iter()
                .map(|r| (r.sloc, r.flow))
                .collect();
            assert_eq!(finals, want, "trial {trial}: flows {flows:?} k {k}");
        }
    }

    #[test]
    fn bound_slack_covers_summation_error() {
        let b = LocationBound {
            sloc: SLocId(0),
            candidates: 1000,
        };
        // A flow that "sums" to fractionally above the integer count must
        // still sit below the inflated bound.
        assert!(b.flow_bound() > 1000.0 + 1000.0 * 1e-12);
        assert!(b.flow_bound() < 1000.1);
    }

    #[test]
    fn heap_len_tracks_entries() {
        let mut heap = ThresholdHeap::new();
        assert!(heap.is_empty());
        heap.push_exact(SLocId(1), 0.5);
        heap.push_bound(LocationBound {
            sloc: SLocId(2),
            candidates: 1,
        });
        assert_eq!(heap.len(), 2);
    }
}
