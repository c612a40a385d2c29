//! Possible-path construction (§2.3 step 2, Algorithm 2 lines 9–15):
//! incremental Cartesian expansion of a positioning sequence, filtered by
//! indoor-location-matrix validity so invalid branches are never generated.
//!
//! Paths are stored in a *prefix-sharing arena*: every node records only
//! its last P-location and a parent pointer, so appending a sample to a
//! path is O(1) instead of copying the whole prefix. With thousands of
//! paths over hundreds of steps this is the difference between megabytes
//! and gigabytes of traffic (the paper spills materialized paths to disk;
//! prefix sharing keeps them in memory).

use indoor_iupt::SampleSet;
use indoor_model::{IndoorSpace, LocationMatrix, PLocId, SLocId};

use crate::bitset::SmallBitset;
use crate::config::FlowError;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct PathNode {
    parent: u32,
    loc: PLocId,
}

/// One valid possible path `φ = (loc1, …, locn)`: a tail node in the
/// arena plus the path probability `pr(φ) = Π_j prob_j` (§2.3 step 3).
#[derive(Debug, Clone, Copy)]
pub struct PathRef {
    node: u32,
    /// The path probability `pr(φ)`.
    pub prob: f64,
}

/// A set of valid possible paths sharing prefixes through an arena.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    nodes: Vec<PathNode>,
    paths: Vec<PathRef>,
}

impl PathSet {
    /// The valid paths.
    pub fn paths(&self) -> &[PathRef] {
        &self.paths
    }

    /// Number of valid paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether no valid path survived.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Total probability mass of the valid paths.
    pub fn valid_mass(&self) -> f64 {
        self.paths.iter().map(|p| p.prob).sum()
    }

    /// The path's P-locations in sequence order (materialized; prefer the
    /// pair iterator for probability computations).
    pub fn locs(&self, path: PathRef) -> Vec<PLocId> {
        let mut out = Vec::new();
        let mut cur = path.node;
        while cur != NO_PARENT {
            let n = self.nodes[cur as usize];
            out.push(n.loc);
            cur = n.parent;
        }
        out.reverse();
        out
    }

    /// Iterates over the path's sequential P-location pairs
    /// `(loc_j, loc_{j+1})` in *reverse* order — products over pairs
    /// (Eq. 2) are order-independent.
    pub fn pairs(&self, path: PathRef) -> PairIter<'_> {
        PairIter {
            nodes: &self.nodes,
            cur: path.node,
        }
    }

    /// The pass probability `pr_{φ⊃q}` of a path (Eq. 2):
    /// `1 − Π_j (1 − pr_{locj,locj+1 ⊃ q})`.
    pub fn pass_probability(&self, space: &IndoorSpace, path: PathRef, q: SLocId) -> f64 {
        let mut miss = 1.0;
        for (a, b) in self.pairs(path) {
            miss *= 1.0 - crate::presence::pair_pass_probability(space, a, b, q);
            if miss == 0.0 {
                break;
            }
        }
        1.0 - miss
    }

    fn push_root(&mut self, loc: PLocId, prob: f64) {
        let node = self.nodes.len() as u32;
        self.nodes.push(PathNode {
            parent: NO_PARENT,
            loc,
        });
        self.paths.push(PathRef { node, prob });
    }

    fn extend(&mut self, from: PathRef, loc: PLocId, prob: f64, out: &mut Vec<PathRef>) {
        let node = self.nodes.len() as u32;
        self.nodes.push(PathNode {
            parent: from.node,
            loc,
        });
        out.push(PathRef {
            node,
            prob: from.prob * prob,
        });
    }

    fn tail_loc(&self, path: PathRef) -> PLocId {
        self.nodes[path.node as usize].loc
    }
}

/// Iterator over a path's consecutive pairs, tail-first.
pub struct PairIter<'a> {
    nodes: &'a [PathNode],
    cur: u32,
}

impl Iterator for PairIter<'_> {
    type Item = (PLocId, PLocId);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NO_PARENT {
            return None;
        }
        let n = self.nodes[self.cur as usize];
        if n.parent == NO_PARENT {
            self.cur = NO_PARENT;
            return None;
        }
        let p = self.nodes[n.parent as usize];
        self.cur = n.parent;
        Some((p.loc, n.loc))
    }
}

/// Builds all valid possible paths for a positioning sequence. Generic
/// over owned, borrowed, or `Cow` sample sets.
///
/// `budget` caps the number of path-extension attempts: each considered
/// `append(φ, e)` counts one unit, bounding both time and memory on
/// adversarial inputs ([`FlowError::PathBudgetExceeded`] on overflow).
pub fn build_paths<S: std::borrow::Borrow<SampleSet>>(
    matrix: &LocationMatrix,
    sets: &[S],
    budget: u64,
) -> Result<PathSet, FlowError> {
    let mut set = PathSet::default();
    let Some(first) = sets.first() else {
        return Ok(set);
    };
    for s in first.borrow().samples() {
        set.push_root(s.loc, s.prob);
    }
    let mut spent: u64 = 0;
    let mut current = std::mem::take(&mut set.paths);
    let mut next: Vec<PathRef> = Vec::new();

    for sample_set in &sets[1..] {
        next.clear();
        next.reserve(current.len());
        for &path in &current {
            let tail = set.tail_loc(path);
            for s in sample_set.borrow().samples() {
                spent += 1;
                if spent > budget {
                    return Err(FlowError::PathBudgetExceeded { budget });
                }
                if matrix.connected(tail, s.loc) {
                    set.extend(path, s.loc, s.prob, &mut next);
                }
            }
        }
        std::mem::swap(&mut current, &mut next);
        if current.is_empty() {
            break;
        }
    }
    set.paths = current;
    Ok(set)
}

/// A path annotated with the set of *relevant query S-locations* it can
/// pass, tracked during construction exactly as Algorithm 3 lines 14–19
/// record `Hφ[φ'] = listQ ∪ list'Q`. Bits index into the object's
/// relevant query list.
#[derive(Debug, Clone)]
pub struct TrackedPath {
    /// The underlying arena path.
    pub path: PathRef,
    /// Which relevant query locations the path can pass.
    pub touched: SmallBitset,
}

/// A tracked path set (Algorithm 3's construction).
#[derive(Debug, Clone, Default)]
pub struct TrackedPathSet {
    /// The shared-prefix path arena.
    pub set: PathSet,
    /// One tracked entry per valid path in `set`.
    pub tracked: Vec<TrackedPath>,
}

/// Builds valid paths while recording, per path, which of the object's
/// relevant query locations its transitions can pass.
///
/// `relevant` is the object's `psls ∩ Q` (sorted); a touched bit `b`
/// means some transition of the path crosses a cell covering
/// `relevant[b]`.
pub fn build_paths_tracking<S: std::borrow::Borrow<SampleSet>>(
    space: &IndoorSpace,
    relevant: &[SLocId],
    sets: &[S],
    budget: u64,
) -> Result<TrackedPathSet, FlowError> {
    debug_assert!(relevant.windows(2).all(|w| w[0] < w[1]));
    let matrix = space.matrix();
    let mut out = TrackedPathSet::default();
    let Some(first) = sets.first() else {
        return Ok(out);
    };
    for s in first.borrow().samples() {
        out.set.push_root(s.loc, s.prob);
    }
    let roots = std::mem::take(&mut out.set.paths);
    let mut current: Vec<TrackedPath> = roots
        .into_iter()
        .map(|path| TrackedPath {
            path,
            touched: SmallBitset::with_capacity(relevant.len()),
        })
        .collect();
    let mut spent: u64 = 0;
    let mut extended: Vec<PathRef> = Vec::with_capacity(4);

    for sample_set in &sets[1..] {
        let mut next = Vec::with_capacity(current.len());
        for tp in &current {
            let tail = out.set.tail_loc(tp.path);
            for s in sample_set.borrow().samples() {
                spent += 1;
                if spent > budget {
                    return Err(FlowError::PathBudgetExceeded { budget });
                }
                let cells = matrix.cells_between(tail, s.loc);
                if cells.is_empty() {
                    continue;
                }
                // list'Q ← C2S(MIL[tail, e.loc]) ∩ Q, restricted to the
                // object's relevant list (a superset of anything
                // reachable, by the PSL definition).
                let mut touched = tp.touched.clone();
                for cell in cells.iter() {
                    for &sloc in space.slocs_in_cell(cell) {
                        if let Ok(b) = relevant.binary_search(&sloc) {
                            touched.set(b);
                        }
                    }
                }
                extended.clear();
                out.set.extend(tp.path, s.loc, s.prob, &mut extended);
                next.push(TrackedPath {
                    path: extended[0],
                    touched,
                });
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    out.tracked = current;
    out.set.paths = out.tracked.iter().map(|tp| tp.path).collect();
    Ok(out)
}

/// Total probability mass of the raw Cartesian product,
/// `Π_i Σ_e prob(e)` — the [`crate::Normalization::FullProduct`]
/// denominator (1 for well-formed sample sets, kept explicit for
/// robustness).
pub fn full_product_mass<S: std::borrow::Borrow<SampleSet>>(sets: &[S]) -> f64 {
    sets.iter().map(|s| s.borrow().prob_sum()).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::{paper_table2, O1, O2, O3};
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

    fn sets_of(oid: indoor_iupt::ObjectId) -> (indoor_model::IndoorSpace, Vec<SampleSet>) {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        let sets = iupt
            .sequence_of(oid, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect();
        (fig.space, sets)
    }

    /// Example 2: o3 has exactly 4 possible paths with probabilities
    /// .24, .36, .16, .24.
    #[test]
    fn o3_paths_match_example2() {
        let (space, sets) = sets_of(O3);
        let ps = build_paths(space.matrix(), &sets, u64::MAX).unwrap();
        assert_eq!(ps.len(), 4);
        let mut probs: Vec<f64> = ps.paths().iter().map(|p| p.prob).collect();
        probs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected = [0.16, 0.24, 0.24, 0.36];
        for (got, want) in probs.iter().zip(expected.iter()) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        // All paths end at p3 (the only sample of the last set).
        for &p in ps.paths() {
            assert_eq!(*ps.locs(p).last().unwrap(), indoor_model::PLocId(2));
        }
    }

    /// Example 3: o1 has only one valid path (p4, p9, p8).
    #[test]
    fn o1_single_valid_path() {
        let (space, sets) = sets_of(O1);
        let ps = build_paths(space.matrix(), &sets, u64::MAX).unwrap();
        assert_eq!(ps.len(), 1);
        let path = ps.paths()[0];
        assert_eq!(
            ps.locs(path),
            vec![
                indoor_model::PLocId(3), // p4
                indoor_model::PLocId(8), // p9
                indoor_model::PLocId(7), // p8
            ]
        );
        assert!((path.prob - 1.0).abs() < 1e-12);
        // Pairs iterate tail-first.
        let pairs: Vec<_> = ps.pairs(path).collect();
        assert_eq!(
            pairs,
            vec![
                (indoor_model::PLocId(8), indoor_model::PLocId(7)),
                (indoor_model::PLocId(3), indoor_model::PLocId(8)),
            ]
        );
    }

    /// o2's raw sequence: the (p1, p4) transition is invalid, so the valid
    /// mass is 0.85 (the number behind Example 3's Φ(r6, o2) = 0.85).
    #[test]
    fn o2_valid_mass_is_085() {
        let (space, sets) = sets_of(O2);
        let ps = build_paths(space.matrix(), &sets, u64::MAX).unwrap();
        assert!(
            (ps.valid_mass() - 0.85).abs() < 1e-9,
            "mass {}",
            ps.valid_mass()
        );
        assert!((full_product_mass(&sets) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exceeded_errors() {
        let (space, sets) = sets_of(O2);
        let err = build_paths(space.matrix(), &sets, 3).unwrap_err();
        assert_eq!(err, FlowError::PathBudgetExceeded { budget: 3 });
    }

    #[test]
    fn empty_sequence_builds_no_paths() {
        let (space, _) = sets_of(O1);
        assert!(build_paths::<SampleSet>(space.matrix(), &[], u64::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn tracked_paths_touch_expected_slocs() {
        let fig = paper_figure1();
        let (space, sets) = sets_of(O3);
        // Q = {r4, r6}; o3's PSLs are {r3, r4, r6} → relevant = {r4, r6}.
        let mut relevant = vec![fig.r[3], fig.r[5]];
        relevant.sort_unstable();
        let out = build_paths_tracking(&space, &relevant, &sets, u64::MAX).unwrap();
        assert_eq!(out.tracked.len(), 4);
        // Every path of o3 crosses r4's cell; only (p2, p2, p3) touches r6.
        let r4_bit = relevant.binary_search(&fig.r[3]).unwrap();
        let r6_bit = relevant.binary_search(&fig.r[5]).unwrap();
        assert!(out.tracked.iter().all(|tp| tp.touched.get(r4_bit)));
        let touching_r6: Vec<&TrackedPath> = out
            .tracked
            .iter()
            .filter(|tp| tp.touched.get(r6_bit))
            .collect();
        assert_eq!(touching_r6.len(), 1);
        assert!((touching_r6[0].path.prob - 0.24).abs() < 1e-12);
    }

    #[test]
    fn tracking_and_plain_agree_on_paths() {
        let fig = paper_figure1();
        let (space, sets) = sets_of(O2);
        let relevant = crate::QuerySet::new(fig.r.to_vec()).slocs().to_vec();
        let plain = build_paths(space.matrix(), &sets, u64::MAX).unwrap();
        let tracked = build_paths_tracking(&space, &relevant, &sets, u64::MAX).unwrap();
        assert_eq!(plain.len(), tracked.tracked.len());
        for (&a, b) in plain.paths().iter().zip(tracked.tracked.iter()) {
            assert_eq!(plain.locs(a), tracked.set.locs(b.path));
            assert!((a.prob - b.path.prob).abs() < 1e-12);
        }
    }

    #[test]
    fn pass_probability_via_arena_matches_direct() {
        let fig = paper_figure1();
        let (space, sets) = sets_of(O3);
        let ps = build_paths(space.matrix(), &sets, u64::MAX).unwrap();
        for &p in ps.paths() {
            let locs = ps.locs(p);
            for q in fig.r {
                let direct = crate::presence::path_pass_probability(&space, &locs, q);
                let arena = ps.pass_probability(&space, p, q);
                assert!((direct - arena).abs() < 1e-12);
            }
        }
    }
}
