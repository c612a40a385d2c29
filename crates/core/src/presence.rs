//! Pass probabilities (Eq. 2) and uncertainty-aware object presence
//! (Eq. 1), the latter through the one per-object kernel.

use indoor_iupt::SampleSet;
use indoor_model::{IndoorSpace, PLocId, SLocId};

use crate::config::{FlowConfig, FlowError};
use crate::flow::contributions;
use crate::query_set::QuerySet;

/// The probability that one sequential P-location pair passes `q`:
/// `pr_{locj,locj+1 ⊃ q} = |{c ∈ C | c covers q}| / |C|` where
/// `C = MIL[locj, locj+1]` (§2.3). Zero when the pair is disconnected.
#[inline]
pub fn pair_pass_probability(space: &IndoorSpace, a: PLocId, b: PLocId, q: SLocId) -> f64 {
    let cells = space.matrix().cells_between(a, b);
    if cells.is_empty() {
        return 0.0;
    }
    let covering = cells.iter().filter(|&c| space.covers(c, q)).count();
    covering as f64 / cells.len() as f64
}

/// [`pair_pass_probability`] for many query locations in **one**
/// `MIL[a, b]` cell scan — the flat-pass kernel behind
/// [`crate::dp::presence_dp_multi`]. Writes `pr_{a,b ⊃ qs[k]}` into
/// `out[k]`.
///
/// Bit-identity with the single-query kernel: covering counts
/// accumulate as exact small integers in `f64` (`+1.0` per covering
/// cell, in the fixed cell order of the matrix), so every final
/// division sees the identical `covering as f64 / cells.len() as f64`
/// operands the single-query kernel produces.
pub fn pair_pass_probabilities(
    space: &IndoorSpace,
    a: PLocId,
    b: PLocId,
    qs: &[SLocId],
    out: &mut [f64],
) {
    debug_assert_eq!(qs.len(), out.len());
    out.fill(0.0);
    let cells = space.matrix().cells_between(a, b);
    if cells.is_empty() {
        return;
    }
    for c in cells.iter() {
        for (slot, &q) in out.iter_mut().zip(qs) {
            if space.covers(c, q) {
                *slot += 1.0;
            }
        }
    }
    let denom = cells.len() as f64;
    for slot in out.iter_mut() {
        *slot /= denom;
    }
}

/// The pass probability of a whole path with respect to `q` (Eq. 2):
/// `pr_{φ ⊃ q} = 1 − Π_j (1 − pr_{locj,locj+1 ⊃ q})`.
///
/// A single-location path has no sequential pair, so its pass probability
/// is 0 (`1 − empty product`); see DESIGN.md §2.4.
pub fn path_pass_probability(space: &IndoorSpace, locs: &[PLocId], q: SLocId) -> f64 {
    let mut miss = 1.0;
    for w in locs.windows(2) {
        miss *= 1.0 - pair_pass_probability(space, w[0], w[1], q);
        if miss == 0.0 {
            break;
        }
    }
    1.0 - miss
}

/// The object presence `Φ_{ts,te}(q, o)` (Eq. 1) of one positioning
/// sequence: [`crate::object_flow_contributions`] over the one-location
/// query set `{q}`, so the data reduction and the engine are `cfg`'s. An
/// object whose PSLs miss `q` has presence 0; the path engines still
/// enumerate its sequence.
///
/// # Errors
/// Those of [`crate::object_flow_contributions`], whose
/// [`FlowError::PathBudgetExceeded`] a sequence can raise whether or not
/// its PSLs hold `q`.
pub fn object_presence(
    space: &IndoorSpace,
    sets: &[SampleSet],
    q: SLocId,
    cfg: &FlowConfig,
) -> Result<f64, FlowError> {
    let contribution = contributions(space, sets, &QuerySet::new(vec![q]), cfg, true)?;
    Ok(contribution
        .and_then(|c| c.scores.first().copied())
        .unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_iupt::fixtures::{paper_table2, O1, O2, O3};
    use indoor_iupt::{ObjectId, TimeInterval, Timestamp};
    use indoor_model::fixtures::{paper_figure1, Figure1};

    fn sets_of(fig: &Figure1, oid: ObjectId) -> Vec<SampleSet> {
        let _ = fig;
        let iupt = paper_table2();
        let iv = TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8));
        iupt.sequence_of(oid, iv)
            .records
            .iter()
            .map(|r| r.samples.clone())
            .collect()
    }

    /// Worked-example configuration: raw sequences, full-product
    /// normalization (the semantics Examples 2–4 use).
    fn raw_cfg() -> FlowConfig {
        FlowConfig {
            use_reduction: false,
            ..FlowConfig::default()
        }
        .with_full_product_normalization()
    }

    /// Example 2 pair probabilities: pr_{p2,p2⊃r6} = 1/2, pr_{p2,p3⊃r4} = 1,
    /// pr_{p2,p3⊃r6} = 0.
    #[test]
    fn example2_pair_probabilities() {
        let fig = paper_figure1();
        let (p2, p3) = (fig.p[1], fig.p[2]);
        let (r4, r6) = (fig.r[3], fig.r[5]);
        assert_eq!(pair_pass_probability(&fig.space, p2, p2, r6), 0.5);
        assert_eq!(pair_pass_probability(&fig.space, p2, p2, r4), 0.5);
        assert_eq!(pair_pass_probability(&fig.space, p2, p3, r4), 1.0);
        assert_eq!(pair_pass_probability(&fig.space, p2, p3, r6), 0.0);
        // Disconnected pair.
        assert_eq!(
            pair_pass_probability(&fig.space, fig.p[2], fig.p[3], r6),
            0.0
        );
    }

    /// The multi-query pair kernel is bit-identical to the single-query
    /// one over every P-location pair and query subset shape.
    #[test]
    fn pair_pass_probabilities_bit_identical_to_single() {
        let fig = paper_figure1();
        let qsets: Vec<Vec<_>> = vec![
            fig.r.to_vec(),
            vec![fig.r[5]],
            vec![fig.r[0], fig.r[3], fig.r[5]],
            vec![],
        ];
        let mut out = Vec::new();
        for a in (0..9).map(indoor_model::PLocId) {
            for b in (0..9).map(indoor_model::PLocId) {
                for qs in &qsets {
                    out.clear();
                    out.resize(qs.len(), f64::NAN);
                    pair_pass_probabilities(&fig.space, a, b, qs, &mut out);
                    for (&q, &got) in qs.iter().zip(&out) {
                        let want = pair_pass_probability(&fig.space, a, b, q);
                        assert_eq!(got.to_bits(), want.to_bits(), "{a:?} {b:?} {q:?}");
                    }
                }
            }
        }
    }

    /// Example 2: pr_{φ1 ⊃ r6} = 1 − (1 − 1/2)(1 − 0) = 0.5 for
    /// φ1 = (p2, p2, p3).
    #[test]
    fn example2_path_pass_probability() {
        let fig = paper_figure1();
        let phi1 = [fig.p[1], fig.p[1], fig.p[2]];
        assert_eq!(path_pass_probability(&fig.space, &phi1, fig.r[5]), 0.5);
        let phi4 = [fig.p[2], fig.p[2], fig.p[2]];
        assert_eq!(path_pass_probability(&fig.space, &phi4, fig.r[5]), 0.0);
    }

    /// Example 2: Φ(r6, o3) = 0.12 and Φ(r1, o3) = 0 on the raw sequence.
    #[test]
    fn example2_o3_presence() {
        let fig = paper_figure1();
        let sets = sets_of(&fig, O3);
        let phi_r6 = object_presence(&fig.space, &sets, fig.r[5], &raw_cfg()).unwrap();
        assert!((phi_r6 - 0.12).abs() < 1e-12, "Φ(r6,o3) = {phi_r6}");
        let phi_r1 = object_presence(&fig.space, &sets, fig.r[0], &raw_cfg()).unwrap();
        assert_eq!(phi_r1, 0.0);
    }

    /// Example 3: Φ(r1, o1) = 0.5, Φ(r6, o1) = 1.
    #[test]
    fn example3_o1_presence() {
        let fig = paper_figure1();
        let sets = sets_of(&fig, O1);
        let phi_r1 = object_presence(&fig.space, &sets, fig.r[0], &raw_cfg()).unwrap();
        assert!((phi_r1 - 0.5).abs() < 1e-12);
        let phi_r6 = object_presence(&fig.space, &sets, fig.r[5], &raw_cfg()).unwrap();
        assert!((phi_r6 - 1.0).abs() < 1e-12);
    }

    /// Example 3: Φ(r1, o2) = 0 and Φ(r6, o2) = 0.85 under the
    /// full-product normalization the worked example uses.
    #[test]
    fn example3_o2_presence_full_product() {
        let fig = paper_figure1();
        let sets = sets_of(&fig, O2);
        let phi_r1 = object_presence(&fig.space, &sets, fig.r[0], &raw_cfg()).unwrap();
        assert_eq!(phi_r1, 0.0);
        let phi_r6 = object_presence(&fig.space, &sets, fig.r[5], &raw_cfg()).unwrap();
        assert!((phi_r6 - 0.85).abs() < 1e-9, "Φ(r6,o2) = {phi_r6}");
    }

    /// Under Algorithm 2's valid-path normalization the same presence is 1
    /// (every valid path of o2 passes r6 with probability 1) — the paper's
    /// internal inconsistency, pinned here as a regression test.
    #[test]
    fn o2_presence_valid_paths_normalization() {
        let fig = paper_figure1();
        let sets = sets_of(&fig, O2);
        let cfg = raw_cfg().with_valid_paths_normalization();
        let phi_r6 = object_presence(&fig.space, &sets, fig.r[5], &cfg).unwrap();
        assert!((phi_r6 - 1.0).abs() < 1e-9, "Φ(r6,o2) = {phi_r6}");
    }

    /// With data reduction, o2's presence in r6 stays high but is computed
    /// on the 3-set merged sequence (the reduction is approximate; the
    /// paper's Table 4 shows slightly different effectiveness with/without
    /// it).
    #[test]
    fn o2_presence_with_reduction() {
        let fig = paper_figure1();
        let sets = sets_of(&fig, O2);
        let cfg = FlowConfig::default().with_full_product_normalization();
        let phi = object_presence(&fig.space, &sets, fig.r[5], &cfg).unwrap();
        assert!((phi - 0.85).abs() < 1e-9, "Φ = {phi}");
    }

    /// Presence is always within [0, 1].
    #[test]
    fn presence_bounded() {
        let fig = paper_figure1();
        for oid in [O1, O2, O3] {
            let sets = sets_of(&fig, oid);
            for q in fig.r {
                for cfg in [raw_cfg(), FlowConfig::default()] {
                    let phi = object_presence(&fig.space, &sets, q, &cfg).unwrap();
                    assert!((0.0..=1.0 + 1e-12).contains(&phi), "Φ = {phi}");
                }
            }
        }
    }

    /// A single-report sequence yields zero presence everywhere (Eq. 2
    /// over an empty pair set).
    #[test]
    fn single_report_zero_presence() {
        let fig = paper_figure1();
        let sets = vec![SampleSet::certain(fig.p[5])];
        for q in fig.r {
            let phi = object_presence(&fig.space, &sets, q, &raw_cfg()).unwrap();
            assert_eq!(phi, 0.0);
        }
    }
}
