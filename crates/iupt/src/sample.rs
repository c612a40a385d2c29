use indoor_model::PLocId;

/// One positioning sample `(loc, prob)`: the object is at P-location `loc`
/// with probability `prob` (§2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The reported P-location.
    pub loc: PLocId,
    /// Probability mass assigned to it.
    pub prob: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(loc: PLocId, prob: f64) -> Self {
        Sample { loc, prob }
    }
}

/// Errors raised by [`SampleSet::new`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleSetError {
    /// The set is empty.
    Empty,
    /// A probability is not in `(0, `[`SampleSet::MAX_PROB`]`]`.
    BadProbability {
        /// The offending sample location.
        loc: PLocId,
        /// Its out-of-range probability.
        prob: f64,
    },
    /// The same P-location appears twice.
    DuplicateLocation {
        /// The repeated P-location.
        loc: PLocId,
    },
    /// Probabilities do not sum to 1 (within tolerance).
    BadSum {
        /// The actual sum of the probabilities.
        sum: f64,
    },
}

impl std::fmt::Display for SampleSetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleSetError::Empty => write!(f, "sample set is empty"),
            SampleSetError::BadProbability { loc, prob } => {
                write!(
                    f,
                    "sample ({loc}, {prob}) has probability outside (0, 1 + tolerance]"
                )
            }
            SampleSetError::DuplicateLocation { loc } => {
                write!(f, "P-location {loc} appears more than once")
            }
            SampleSetError::BadSum { sum } => {
                write!(f, "sample probabilities sum to {sum}, expected 1")
            }
        }
    }
}

impl std::error::Error for SampleSetError {}

/// Tolerance for the `Σ prob = 1` invariant.
const SUM_TOLERANCE: f64 = 1e-6;

/// A positioning sample set `X`: the probabilistic location description of
/// one report. Invariants (§2.2): probabilities are in `(0, 1]`, sum to 1,
/// and P-locations are unique. Samples are kept sorted by P-location id so
/// equality and iteration order are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    samples: Vec<Sample>,
}

impl SampleSet {
    /// The unified per-sample acceptance ceiling. Floating-point
    /// summation (an intra-merge folding a whole set into one sample, a
    /// caller normalizing by an inexact total) can legitimately land a
    /// hair above 1, so validation accepts up to `1 + SUM_TOLERANCE` —
    /// the *same* slack the sum invariant allows. Accepted values above
    /// 1 are then snapped down to exactly 1.0, so every constructor
    /// ([`SampleSet::new`], [`SampleSet::normalized`],
    /// [`SampleSet::certain`], [`SampleSet::capped`]) upholds one
    /// invariant: **a stored probability never exceeds 1.0**.
    pub const MAX_PROB: f64 = 1.0 + SUM_TOLERANCE;

    /// Validates and creates a sample set. Input probabilities must lie
    /// in `(0, `[`SampleSet::MAX_PROB`]`]`; values in the tolerance band
    /// above 1 are clamped to exactly 1.0 before the sum check, so the
    /// stored set always satisfies `prob ∈ (0, 1]`.
    pub fn new(mut samples: Vec<Sample>) -> Result<Self, SampleSetError> {
        if samples.is_empty() {
            return Err(SampleSetError::Empty);
        }
        Self::validate_probs(&mut samples)?;
        samples.sort_by_key(|s| s.loc);
        for w in samples.windows(2) {
            if w[0].loc == w[1].loc {
                return Err(SampleSetError::DuplicateLocation { loc: w[0].loc });
            }
        }
        Ok(SampleSet { samples })
    }

    /// The probability half of the invariants, applied in place and in
    /// slice order: every probability must lie in
    /// `(0, `[`SampleSet::MAX_PROB`]`]`, values in the tolerance band
    /// above 1 are clamped to exactly 1.0, and the clamped values must
    /// sum to 1 within tolerance. [`SampleSet::new`] validates through
    /// this routine; it is public so code that merges probabilities
    /// without building a set per step (the streaming data reduction)
    /// accepts and rejects exactly what `new` would.
    pub fn validate_probs(samples: &mut [Sample]) -> Result<(), SampleSetError> {
        let mut sum = 0.0;
        for s in samples {
            if !(s.prob > 0.0 && s.prob <= Self::MAX_PROB) {
                return Err(SampleSetError::BadProbability {
                    loc: s.loc,
                    prob: s.prob,
                });
            }
            s.prob = s.prob.min(1.0);
            sum += s.prob;
        }
        if (sum - 1.0).abs() > SUM_TOLERANCE {
            return Err(SampleSetError::BadSum { sum });
        }
        Ok(())
    }

    /// Creates a sample set from raw weights, normalizing them to sum to 1.
    /// Weights must be positive and locations unique.
    ///
    /// Validation runs through [`SampleSet::new`], so this constructor
    /// obeys the same unified probability bound: a normalized weight can
    /// land exactly on the `1.0` edge (a single weight, or a total the
    /// summation rounded down), and is stored as exactly `1.0` — never
    /// above it.
    pub fn normalized(weights: Vec<(PLocId, f64)>) -> Result<Self, SampleSetError> {
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Err(SampleSetError::Empty);
        }
        Self::new(
            weights
                .into_iter()
                .map(|(loc, w)| Sample::new(loc, w / total))
                .collect(),
        )
    }

    /// A certain (single-sample, probability 1) set.
    pub fn certain(loc: PLocId) -> Self {
        SampleSet {
            samples: vec![Sample::new(loc, 1.0)],
        }
    }

    /// The samples, sorted by P-location id.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether empty (never true for a constructed set; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The P-location set `πl(X) = {e.loc | e ∈ X}` (§2.2).
    pub fn plocs(&self) -> impl Iterator<Item = PLocId> + '_ {
        self.samples.iter().map(|s| s.loc)
    }

    /// Whether both sets cover exactly the same P-locations — the
    /// inter-merge precondition (`πl(Xi) = πl(Xtail)`, Algorithm 1 line 9).
    pub fn same_plocs(&self, other: &SampleSet) -> bool {
        self.len() == other.len()
            && self
                .samples
                .iter()
                .zip(other.samples.iter())
                .all(|(a, b)| a.loc == b.loc)
    }

    /// Probability of `loc` in this set (0 when absent).
    pub fn prob_of(&self, loc: PLocId) -> f64 {
        self.samples
            .binary_search_by_key(&loc, |s| s.loc)
            .map(|i| self.samples[i].prob)
            .unwrap_or(0.0)
    }

    /// The sample with the highest probability (first such sample on ties,
    /// matching the SC baseline's "picks the (first) sample with the
    /// highest probability", §5.1).
    pub fn argmax(&self) -> Sample {
        *self
            .samples
            .iter()
            .max_by(|a, b| a.prob.partial_cmp(&b.prob).unwrap())
            .expect("sample sets are non-empty")
    }

    /// Samples with probability at least `rho` (the SC-ρ baseline).
    pub fn above_threshold(&self, rho: f64) -> impl Iterator<Item = &Sample> + '_ {
        self.samples.iter().filter(move |s| s.prob >= rho)
    }

    /// Caps the set at `mss` samples by dropping the lowest-probability
    /// samples and renormalizing — the uncertainty-control knob of §5.2.2
    /// ("if the number of its containing samples exceeds the maximum
    /// sample-set size mss, the samples with lower probabilities are
    /// removed until only mss samples remain").
    pub fn capped(&self, mss: usize) -> SampleSet {
        assert!(mss >= 1, "mss must be at least 1");
        if self.samples.len() <= mss {
            return self.clone();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| b.prob.partial_cmp(&a.prob).unwrap().then(a.loc.cmp(&b.loc)));
        sorted.truncate(mss);
        let total: f64 = sorted.iter().map(|s| s.prob).sum();
        for s in &mut sorted {
            s.prob /= total;
        }
        sorted.sort_by_key(|s| s.loc);
        SampleSet { samples: sorted }
    }

    /// Sum of probabilities (≈ 1; exposed for tests and invariant checks).
    pub fn prob_sum(&self) -> f64 {
        self.samples.iter().map(|s| s.prob).sum()
    }
}

/// Hash-consing support for the log's interner.
impl SampleSet {
    /// Content hash over the exact `(loc, prob-bits)` pairs, the key the
    /// interner buckets candidates by. Consistent with the derived
    /// [`PartialEq`] for every constructible set: probabilities are
    /// positive and finite, so value equality coincides with bit
    /// equality, and equal sets hash equal.
    pub(crate) fn content_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for s in &self.samples {
            h.write_u32(s.loc.0);
            h.write_u64(s.prob.to_bits());
        }
        h.finish()
    }

    /// Heap bytes owned by this set (beyond `size_of::<SampleSet>()`),
    /// for footprint accounting.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.samples.len() * std::mem::size_of::<Sample>()
    }
}

impl std::fmt::Display for SampleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}, {:.3})", s.loc, s.prob)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> PLocId {
        PLocId(i)
    }

    #[test]
    fn valid_set_constructs_sorted() {
        let s = SampleSet::new(vec![Sample::new(p(5), 0.3), Sample::new(p(1), 0.7)]).unwrap();
        assert_eq!(s.samples()[0].loc, p(1));
        assert_eq!(s.len(), 2);
        assert!((s.prob_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(SampleSet::new(vec![]).unwrap_err(), SampleSetError::Empty);
        assert!(matches!(
            SampleSet::new(vec![Sample::new(p(0), 0.4)]).unwrap_err(),
            SampleSetError::BadSum { .. }
        ));
        assert!(matches!(
            SampleSet::new(vec![Sample::new(p(0), -0.5), Sample::new(p(1), 1.5)]).unwrap_err(),
            SampleSetError::BadProbability { .. }
        ));
        assert!(matches!(
            SampleSet::new(vec![Sample::new(p(0), 0.5), Sample::new(p(0), 0.5)]).unwrap_err(),
            SampleSetError::DuplicateLocation { .. }
        ));
    }

    /// `new` validates through `validate_probs`: on out-of-range,
    /// off-sum, tolerance-band and plain inputs the in-place routine
    /// gives `new`'s verdict — the same error, or the same stored
    /// (clamped) probabilities.
    #[test]
    fn validate_probs_gives_news_verdict() {
        let cases: [&[(u32, f64)]; 5] = [
            &[(0, 1.4)],
            &[(0, 0.0), (1, 1.0)],
            &[(0, 0.6)],
            &[(0, 1.000_000_5)],
            &[(0, 0.25), (1, 0.75)],
        ];
        for case in cases {
            let samples: Vec<Sample> = case.iter().map(|&(l, pr)| Sample::new(p(l), pr)).collect();
            let mut in_place = samples.clone();
            match (
                SampleSet::validate_probs(&mut in_place),
                SampleSet::new(samples),
            ) {
                (Ok(()), Ok(set)) => assert_eq!(in_place, set.samples()),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("verdicts differ on {case:?}: {a:?} vs {b:?}"),
            }
        }
        let mut band = [Sample::new(p(0), 1.000_000_5)];
        SampleSet::validate_probs(&mut band).unwrap();
        assert_eq!(band[0].prob, 1.0, "the tolerance band clamps in place");
    }

    #[test]
    fn normalized_rescales_weights() {
        let s = SampleSet::normalized(vec![(p(0), 2.0), (p(1), 6.0)]).unwrap();
        assert!((s.prob_of(p(0)) - 0.25).abs() < 1e-12);
        assert!((s.prob_of(p(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn certain_set() {
        let s = SampleSet::certain(p(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.prob_of(p(3)), 1.0);
        assert_eq!(s.argmax().loc, p(3));
    }

    #[test]
    fn prob_of_missing_is_zero() {
        let s = SampleSet::certain(p(3));
        assert_eq!(s.prob_of(p(4)), 0.0);
    }

    #[test]
    fn argmax_and_threshold() {
        let s = SampleSet::new(vec![
            Sample::new(p(0), 0.5),
            Sample::new(p(1), 0.3),
            Sample::new(p(2), 0.2),
        ])
        .unwrap();
        assert_eq!(s.argmax().loc, p(0));
        let above: Vec<PLocId> = s.above_threshold(0.25).map(|x| x.loc).collect();
        assert_eq!(above, vec![p(0), p(1)]);
    }

    #[test]
    fn same_plocs_detects_identical_support() {
        let a = SampleSet::new(vec![Sample::new(p(0), 0.5), Sample::new(p(1), 0.5)]).unwrap();
        let b = SampleSet::new(vec![Sample::new(p(1), 0.9), Sample::new(p(0), 0.1)]).unwrap();
        let c = SampleSet::certain(p(0));
        assert!(a.same_plocs(&b));
        assert!(!a.same_plocs(&c));
    }

    #[test]
    fn capped_keeps_top_probabilities_and_renormalizes() {
        let s = SampleSet::new(vec![
            Sample::new(p(0), 0.1),
            Sample::new(p(1), 0.4),
            Sample::new(p(2), 0.3),
            Sample::new(p(3), 0.2),
        ])
        .unwrap();
        let capped = s.capped(2);
        assert_eq!(capped.len(), 2);
        // Keeps p1 (0.4) and p2 (0.3), renormalized to 4/7 and 3/7.
        assert!((capped.prob_of(p(1)) - 4.0 / 7.0).abs() < 1e-12);
        assert!((capped.prob_of(p(2)) - 3.0 / 7.0).abs() < 1e-12);
        assert!((capped.prob_sum() - 1.0).abs() < 1e-12);
        // mss = 1 yields a certain report.
        let one = s.capped(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one.prob_of(p(1)), 1.0);
        // A cap wider than the set is the identity.
        assert_eq!(s.capped(10), s);
    }

    proptest! {
        #[test]
        fn normalized_always_sums_to_one(
            weights in proptest::collection::vec(0.01..10.0f64, 1..8)
        ) {
            let items: Vec<(PLocId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (p(i as u32), w))
                .collect();
            let s = SampleSet::normalized(items).unwrap();
            prop_assert!((s.prob_sum() - 1.0).abs() < 1e-9);
        }

        #[test]
        fn capped_preserves_invariants(
            weights in proptest::collection::vec(0.01..10.0f64, 1..8),
            mss in 1usize..8,
        ) {
            let items: Vec<(PLocId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (p(i as u32), w))
                .collect();
            let s = SampleSet::normalized(items).unwrap().capped(mss);
            prop_assert!(s.len() <= mss);
            prop_assert!((s.prob_sum() - 1.0).abs() < 1e-9);
        }

        /// The unified probability bound: whatever constructor a set
        /// comes through — `normalized` over weights of wildly different
        /// magnitudes, or `new` over probabilities fed up to the
        /// tolerance-inflated acceptance ceiling — the *stored*
        /// probabilities never exceed 1.0, matching the edge `normalized`
        /// can emit exactly (a lone weight divides to exactly 1.0).
        #[test]
        fn stored_probabilities_never_exceed_one(
            exponents in proptest::collection::vec(-9i32..9, 1..8),
            above in 0.0..1.0f64,
        ) {
            let weights: Vec<(PLocId, f64)> = exponents
                .iter()
                .enumerate()
                .map(|(i, &e)| (p(i as u32), 10f64.powi(e)))
                .collect();
            let s = SampleSet::normalized(weights).unwrap();
            for sample in s.samples() {
                prop_assert!(sample.prob > 0.0 && sample.prob <= 1.0);
            }
            prop_assert!((s.prob_sum() - 1.0).abs() <= 1e-6);

            // `new` accepts the whole tolerance band above 1 for a
            // singleton — and snaps it to the same 1.0 edge `normalized`
            // emits, so both constructors agree on the stored bound.
            let edge = 1.0 + above * (SampleSet::MAX_PROB - 1.0);
            let s = SampleSet::new(vec![Sample::new(p(0), edge)]).unwrap();
            prop_assert_eq!(s.prob_of(p(0)), 1.0);
            prop_assert_eq!(s.prob_of(p(0)), SampleSet::certain(p(0)).prob_of(p(0)));

            // Just past the ceiling is rejected, not clamped.
            let err = SampleSet::new(vec![Sample::new(p(0), SampleSet::MAX_PROB * 1.001)]);
            let rejected = matches!(err, Err(SampleSetError::BadProbability { .. }));
            prop_assert!(rejected);
        }

        /// Interning consistency: equal sets hash equal (the property the
        /// log's interner rests on).
        #[test]
        fn equal_sets_hash_equal(
            weights in proptest::collection::vec(0.01..10.0f64, 1..6)
        ) {
            let items: Vec<(PLocId, f64)> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| (p(i as u32), w))
                .collect();
            let a = SampleSet::normalized(items.clone()).unwrap();
            let b = SampleSet::normalized(items).unwrap();
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a.content_hash(), b.content_hash());
        }
    }
}
