//! Order statistics for the report: nearest-rank percentiles with the
//! "at least ten samples beyond it" rule, medians and quartile spread.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond it.
    pub supported: bool,
}

/// Nearest-rank percentile of `samples` (`q` in `(0, 1]`): the value at
/// rank `ceil(q · n)` of the ascending order. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        n,
        supported: n - rank >= MIN_BEYOND,
    })
}

/// Median by the same nearest-rank rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|p| p.value)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// which is what the acceptance procedure computes. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).unwrap().value, 5.0);
        assert_eq!(percentile(&xs, 0.9).unwrap().value, 9.0);
        assert_eq!(percentile(&xs, 0.91).unwrap().value, 10.0);
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 10.0);
        assert_eq!(percentile(&[7.0], 0.5).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten beyond; rank 99 leaves one.
        assert!(percentile(&xs, 0.90).unwrap().supported);
        assert!(!percentile(&xs, 0.99).unwrap().supported);
        let ys: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(!percentile(&ys, 0.90).unwrap().supported);
        assert!(percentile(&ys, 0.50).unwrap().supported);
        let zs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&zs, 0.99).unwrap().supported);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((iqr_spread(&xs).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let [a, b, c] = quartiles(&[3.0, 1.0]).unwrap();
        assert_eq!((a, b, c), (0.5, 2.0, 3.5));
    }
}
