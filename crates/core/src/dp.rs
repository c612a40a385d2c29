//! Transition-DP presence engine — our exact optimization over the paper's
//! path enumeration (see DESIGN.md §2.3).
//!
//! Eq. 2 factorizes over consecutive pairs:
//! `pr_{φ⊃q} = 1 − Π_j (1 − a_j)` with `a_j` depending only on
//! `(loc_j, loc_{j+1})`. Hence
//!
//! ```text
//! Σ_φ pr(φ)·pr_{φ⊃q} = Σ_φ pr(φ) − Σ_φ pr(φ)·Π_j (1 − a_j)
//! ```
//!
//! and both sums are computable by a forward dynamic program over
//! (step, last P-location): `S` accumulates the valid-path mass, `M` the
//! miss-weighted mass. Complexity is `O(n · m²)` per object/query (`m` =
//! samples per set, ≤ mss) instead of `O(Π |πl(Xi)|)`, with identical
//! results — property-tested against the enumeration engine.

use indoor_iupt::SampleSet;
use indoor_model::{IndoorSpace, PLocId, SLocId};

use crate::config::Normalization;
use crate::paths::full_product_mass;
use crate::presence::{pair_pass_probabilities, pair_pass_probability};

/// Object presence `Φ(q, o)` (Eq. 1) via the transition DP. Generic
/// over owned, borrowed, or `Cow` sample sets.
pub fn presence_dp<S: std::borrow::Borrow<SampleSet>>(
    space: &IndoorSpace,
    sets: &[S],
    q: SLocId,
    normalization: Normalization,
) -> f64 {
    let Some(first) = sets.first() else {
        return 0.0;
    };
    let first = first.borrow();
    let matrix = space.matrix();

    // Per-step state, indexed like the step's sample list.
    let mut locs: Vec<PLocId> = first.plocs().collect();
    let mut s_mass: Vec<f64> = first.samples().iter().map(|e| e.prob).collect();
    let mut m_mass = s_mass.clone();

    for set in &sets[1..] {
        let next_samples = set.borrow().samples();
        let mut next_locs = Vec::with_capacity(next_samples.len());
        let mut next_s = vec![0.0; next_samples.len()];
        let mut next_m = vec![0.0; next_samples.len()];
        for (j, e) in next_samples.iter().enumerate() {
            next_locs.push(e.loc);
            let mut s_in = 0.0;
            let mut m_in = 0.0;
            for (i, &prev) in locs.iter().enumerate() {
                if s_mass[i] == 0.0 && m_mass[i] == 0.0 {
                    continue;
                }
                if !matrix.connected(prev, e.loc) {
                    continue;
                }
                s_in += s_mass[i];
                let a = pair_pass_probability(space, prev, e.loc, q);
                m_in += m_mass[i] * (1.0 - a);
            }
            next_s[j] = s_in * e.prob;
            next_m[j] = m_in * e.prob;
        }
        locs = next_locs;
        s_mass = next_s;
        m_mass = next_m;
        if s_mass.iter().all(|&v| v == 0.0) {
            // No valid continuation: presence is 0 under both
            // normalizations (no valid paths exist).
            return 0.0;
        }
    }

    let valid_mass: f64 = s_mass.iter().sum();
    let miss_mass: f64 = m_mass.iter().sum();
    let weighted = (valid_mass - miss_mass).max(0.0);
    let denom = match normalization {
        Normalization::FullProduct => full_product_mass(sets),
        Normalization::ValidPaths => valid_mass,
    };
    if denom <= 0.0 {
        0.0
    } else {
        weighted / denom
    }
}

/// [`presence_dp`] for **many query locations at once** — the flat-pass
/// (struct-of-arrays) presence kernel behind the dense
/// [`crate::object_flow_contributions`] DP scoring.
///
/// Two structural facts make one shared forward pass serve every query:
///
/// * the **valid-path mass recursion is query-independent** — it is
///   gated only by matrix connectivity — so one shared `s` vector
///   replaces `|qs|` identical ones;
/// * only the **miss-weighted mass is per-query**, kept here as a
///   q-major flat matrix (`m[k·n + i]`) updated by chunked slice passes,
///   with **one** `MIL[prev, loc]` cell scan per connected transition
///   ([`pair_pass_probabilities`]) instead of `|qs|` scans.
///
/// # Bit-identity
///
/// The result is guaranteed (and property-tested below) to satisfy
/// `presence_dp_multi(..)[k].to_bits() ==
/// presence_dp(.., qs[k], ..).to_bits()` for every `k`:
///
/// * per-query accumulation order is unchanged (ascending predecessor
///   index `i`, then ascending sample index `j`, then ascending step);
/// * the single-query kernel's `s[i] == 0 && m[i] == 0` skip generalizes
///   to its shared form — a predecessor is skipped when its valid mass
///   AND its miss mass under **every** query are zero, and the MIL cell
///   scan is skipped when only the miss masses are zero — which only
///   ever omits `+0.0` terms: every mass is a sum/product of
///   non-negative finite values, so no `-0.0` or `NaN` can make
///   `x + 0.0 ≠ x` bitwise;
/// * the shared early-exit (`s` all zero) fires exactly when every
///   single-query run would return `0.0`;
/// * the [`Normalization::FullProduct`] denominator is computed once and
///   shared — it is a pure product over the sets, identical across
///   queries.
pub fn presence_dp_multi<S: std::borrow::Borrow<SampleSet>>(
    space: &IndoorSpace,
    sets: &[S],
    qs: &[SLocId],
    normalization: Normalization,
) -> Vec<f64> {
    let nq = qs.len();
    if nq == 0 {
        return Vec::new();
    }
    let Some(first) = sets.first() else {
        return vec![0.0; nq];
    };
    let mut state = DpState::start(first.borrow(), nq);
    let mut next = DpState::default();
    let mut scratch = DpScratch::default();
    for set in &sets[1..] {
        state.step_into(space, set.borrow(), qs, &mut scratch, &mut next);
        std::mem::swap(&mut state, &mut next);
        if state.is_dead() {
            // No valid continuation: presence is 0 for every query under
            // both normalizations (no valid paths exist).
            return vec![0.0; nq];
        }
    }
    let full_mass = match normalization {
        Normalization::FullProduct => full_product_mass(sets),
        Normalization::ValidPaths => 0.0, // unused
    };
    state.scores(nq, normalization, full_mass)
}

/// The forward state of [`presence_dp_multi`] after some steps — what
/// one step hands the next, and everything the final sums read.
/// [`crate::SpanFold`] keeps one between records.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpState {
    /// The last step's P-locations, in sample order.
    locs: Vec<PLocId>,
    /// Shared valid-path mass, indexed like `locs`.
    s: Vec<f64>,
    /// Per-query miss-weighted mass, q-major: `m[k * n + i]`.
    m: Vec<f64>,
}

/// Buffers a step reuses.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpScratch {
    pass: Vec<f64>,
    alive: Vec<bool>,
}

impl DpState {
    /// The state after the first set, with `nq` query rows.
    pub(crate) fn start(first: &SampleSet, nq: usize) -> Self {
        let s: Vec<f64> = first.samples().iter().map(|e| e.prob).collect();
        let mut m = Vec::with_capacity(nq * s.len());
        for _ in 0..nq {
            m.extend_from_slice(&s);
        }
        DpState {
            locs: first.plocs().collect(),
            s,
            m,
        }
    }

    /// Writes into `next` the state after one more set, with one row per
    /// entry of `qs` (the rows this state holds, in order), reusing
    /// `next`'s buffers.
    pub(crate) fn step_into(
        &self,
        space: &IndoorSpace,
        set: &SampleSet,
        qs: &[SLocId],
        scratch: &mut DpScratch,
        next: &mut DpState,
    ) {
        let matrix = space.matrix();
        let nq = qs.len();
        let next_samples = set.samples();
        let n = self.locs.len();
        let m = next_samples.len();
        debug_assert_eq!(self.m.len(), nq * n);
        scratch.pass.resize(nq, 0.0);
        // Per-predecessor liveness, hoisted out of the j loop: a dead
        // predecessor (zero valid mass, zero miss mass under every
        // query) contributes only `+0.0` terms, and one with live valid
        // mass but all-zero miss masses needs no MIL cell scan — both
        // skips are bit-safe (see `presence_dp_multi`) and mirror the
        // single-query kernel's `s[i] == 0 && m[i] == 0` skip.
        scratch.alive.clear();
        scratch
            .alive
            .extend((0..n).map(|i| (0..nq).any(|k| self.m[k * n + i] != 0.0)));
        let DpState {
            locs: next_locs,
            s: next_s,
            m: next_m,
        } = next;
        next_locs.clear();
        next_s.clear();
        next_s.resize(m, 0.0);
        next_m.clear();
        next_m.resize(nq * m, 0.0);
        for (j, e) in next_samples.iter().enumerate() {
            next_locs.push(e.loc);
            let mut s_in = 0.0;
            for (i, &prev) in self.locs.iter().enumerate() {
                let miss_alive = scratch.alive[i];
                if self.s[i] == 0.0 && !miss_alive {
                    continue;
                }
                if !matrix.connected(prev, e.loc) {
                    continue;
                }
                s_in += self.s[i];
                if miss_alive {
                    pair_pass_probabilities(space, prev, e.loc, qs, &mut scratch.pass);
                    // Chunked flat pass: for each query row, fold this
                    // predecessor's miss mass into sample j's slot. Fixed
                    // i-ascending accumulation order per (k, j) slot.
                    for (k, &a) in scratch.pass.iter().enumerate() {
                        next_m[k * m + j] += self.m[k * n + i] * (1.0 - a);
                    }
                }
            }
            next_s[j] = s_in * e.prob;
            for k in 0..nq {
                next_m[k * m + j] *= e.prob;
            }
        }
    }

    /// Whether no valid path continues through the last step: presence
    /// is then 0 everywhere, whatever follows.
    pub(crate) fn is_dead(&self) -> bool {
        self.s.iter().all(|&v| v == 0.0)
    }

    /// Inserts a query row at `k` as a copy of the valid mass — exact
    /// for a location no pair folded in so far can pass, whose miss mass
    /// has had every predecessor's mass added at factor `1.0 - 0.0`,
    /// that is, equals `s` bit for bit.
    pub(crate) fn insert_row(&mut self, k: usize) {
        let n = self.locs.len();
        self.m.splice(k * n..k * n, self.s.iter().copied());
    }

    /// Presence per query row (`nq` of them). `full_mass` is the
    /// [`Normalization::FullProduct`] denominator; unused otherwise.
    pub(crate) fn scores(
        &self,
        nq: usize,
        normalization: Normalization,
        full_mass: f64,
    ) -> Vec<f64> {
        let n = self.locs.len();
        // Fixed ascending-index summation — same order as the
        // single-query kernel's final sums.
        let valid_mass: f64 = self.s.iter().sum();
        (0..nq)
            .map(|k| {
                let miss_mass: f64 = self.m[k * n..(k + 1) * n].iter().sum();
                let weighted = (valid_mass - miss_mass).max(0.0);
                let denom = match normalization {
                    Normalization::FullProduct => full_mass,
                    Normalization::ValidPaths => valid_mass,
                };
                if denom <= 0.0 {
                    0.0
                } else {
                    weighted / denom
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlowConfig, PresenceEngine};
    use crate::presence::object_presence;
    use indoor_iupt::fixtures::{paper_table2, O1, O2, O3};
    use indoor_iupt::{ObjectId, Sample, TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::PLocId;
    use proptest::prelude::*;

    fn sets_of(oid: ObjectId) -> Vec<SampleSet> {
        let mut iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        iupt.sequence_of(oid, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect()
    }

    #[test]
    fn matches_worked_examples() {
        let fig = paper_figure1();
        let cases = [
            (O3, fig.r[5], 0.12),
            (O3, fig.r[0], 0.0),
            (O1, fig.r[0], 0.5),
            (O1, fig.r[5], 1.0),
            (O2, fig.r[5], 0.85),
            (O2, fig.r[0], 0.0),
        ];
        for (oid, q, want) in cases {
            let phi = presence_dp(&fig.space, &sets_of(oid), q, Normalization::FullProduct);
            assert!((phi - want).abs() < 1e-9, "{oid}, {q}: {phi} vs {want}");
        }
    }

    #[test]
    fn empty_sequence_is_zero() {
        let fig = paper_figure1();
        assert_eq!(
            presence_dp::<SampleSet>(&fig.space, &[], fig.r[0], Normalization::FullProduct),
            0.0
        );
    }

    #[test]
    fn agrees_with_enumeration_on_paper_objects() {
        let fig = paper_figure1();
        for oid in [O1, O2, O3] {
            let sets = sets_of(oid);
            for q in fig.r {
                for norm in [Normalization::FullProduct, Normalization::ValidPaths] {
                    let enum_cfg = FlowConfig {
                        use_reduction: false,
                        normalization: norm,
                        engine: PresenceEngine::PathEnumeration,
                        ..FlowConfig::default()
                    };
                    let dp = presence_dp(&fig.space, &sets, q, norm);
                    let en = object_presence(&fig.space, &sets, q, &enum_cfg).unwrap();
                    assert!(
                        (dp - en).abs() < 1e-9,
                        "{oid} {q} {norm:?}: dp {dp} vs enum {en}"
                    );
                }
            }
        }
    }

    /// Random sample-set sequences over the Figure 1 P-locations: DP and
    /// enumeration must agree everywhere.
    #[test]
    fn property_dp_equals_enumeration() {
        let fig = paper_figure1();
        let space = &fig.space;
        let strategy =
            proptest::collection::vec(proptest::collection::vec((0u32..9, 1u32..10), 1..4), 1..6);
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig {
            cases: 60,
            ..ProptestConfig::default()
        });
        runner
            .run(&strategy, |raw| {
                let mut sets = Vec::new();
                for raw_set in raw {
                    // Deduplicate locations, normalize weights.
                    let mut weights: Vec<(PLocId, f64)> = Vec::new();
                    for (loc, w) in raw_set {
                        let loc = PLocId(loc);
                        match weights.iter_mut().find(|(l, _)| *l == loc) {
                            Some((_, acc)) => *acc += w as f64,
                            None => weights.push((loc, w as f64)),
                        }
                    }
                    sets.push(SampleSet::normalized(weights).unwrap());
                }
                for q in fig.r {
                    for norm in [Normalization::FullProduct, Normalization::ValidPaths] {
                        let dp = presence_dp(space, &sets, q, norm);
                        let cfg = FlowConfig {
                            use_reduction: false,
                            normalization: norm,
                            ..FlowConfig::default()
                        };
                        let en = object_presence(space, &sets, q, &cfg).unwrap();
                        prop_assert!(
                            (dp - en).abs() < 1e-9,
                            "dp {} vs enum {} for {:?} {:?}",
                            dp,
                            en,
                            q,
                            norm
                        );
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    /// The flat-pass multi-query DP is **bit-identical** to the
    /// single-query DP on the paper objects, for every query subset
    /// shape and both normalizations.
    #[test]
    fn multi_bit_identical_to_single_on_paper_objects() {
        let fig = paper_figure1();
        let qsets: Vec<Vec<_>> = vec![
            fig.r.to_vec(),
            vec![fig.r[5]],
            vec![fig.r[0], fig.r[3], fig.r[5]],
            vec![],
        ];
        for oid in [O1, O2, O3] {
            let sets = sets_of(oid);
            for qs in &qsets {
                for norm in [Normalization::FullProduct, Normalization::ValidPaths] {
                    let multi = presence_dp_multi(&fig.space, &sets, qs, norm);
                    assert_eq!(multi.len(), qs.len());
                    for (&q, &got) in qs.iter().zip(&multi) {
                        let want = presence_dp(&fig.space, &sets, q, norm);
                        assert_eq!(got.to_bits(), want.to_bits(), "{oid} {q} {norm:?}");
                    }
                }
            }
        }
        // Empty sequence.
        let multi =
            presence_dp_multi::<SampleSet>(&fig.space, &[], &fig.r, Normalization::ValidPaths);
        assert_eq!(multi, vec![0.0; fig.r.len()]);
    }

    /// Random sequences: multi-query DP bits equal single-query DP bits
    /// everywhere (the guarantee sliced union contributions lean on).
    #[test]
    fn property_multi_equals_single_bitwise() {
        let fig = paper_figure1();
        let space = &fig.space;
        let strategy =
            proptest::collection::vec(proptest::collection::vec((0u32..9, 1u32..10), 1..4), 1..7);
        let mut runner = proptest::test_runner::TestRunner::new(ProptestConfig {
            cases: 80,
            ..ProptestConfig::default()
        });
        runner
            .run(&strategy, |raw| {
                let mut sets = Vec::new();
                for raw_set in raw {
                    let mut weights: Vec<(PLocId, f64)> = Vec::new();
                    for (loc, w) in raw_set {
                        let loc = PLocId(loc);
                        match weights.iter_mut().find(|(l, _)| *l == loc) {
                            Some((_, acc)) => *acc += w as f64,
                            None => weights.push((loc, w as f64)),
                        }
                    }
                    sets.push(SampleSet::normalized(weights).unwrap());
                }
                for norm in [Normalization::FullProduct, Normalization::ValidPaths] {
                    let multi = presence_dp_multi(space, &sets, &fig.r, norm);
                    for (&q, &got) in fig.r.iter().zip(&multi) {
                        let want = presence_dp(space, &sets, q, norm);
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{:?} {:?}: {} vs {}",
                            q,
                            norm,
                            got,
                            want
                        );
                    }
                }
                Ok(())
            })
            .unwrap();
    }

    /// The DP stays numerically stable on long sequences where per-path
    /// products would underflow.
    #[test]
    fn long_sequence_stability() {
        let fig = paper_figure1();
        // 500 alternating reports between p6 and p8's hallway class and p5.
        let a =
            SampleSet::new(vec![Sample::new(fig.p[5], 0.5), Sample::new(fig.p[4], 0.5)]).unwrap();
        let sets: Vec<SampleSet> = (0..500).map(|_| a.clone()).collect();
        let phi = presence_dp(&fig.space, &sets, fig.r[5], Normalization::FullProduct);
        assert!(phi > 0.99, "Φ = {phi}");
        assert!(phi <= 1.0 + 1e-9);
    }
}
