//! Order statistics: nearest-rank percentiles for samples inside one
//! run, and exclusive-method quartiles (what Python's
//! `statistics.quantiles(v, n=4)` returns) for values across runs.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. Always one of the samples, never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending (samples are finite wall-clock values).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// `(q1, q2, q3)` by the exclusive method. One value is its own three
/// quartiles (no spread can be stated from it).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the bounds in `BENCHMARK.json` are held against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_odd_even_and_single_samples() {
        // Odd: the middle sample.
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // Even: the lower of the two middle samples, never their mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
        let s = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 75.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.5], 75.0), 7.5);
        // n = 40: p75 is the 30th sample, leaving ten beyond it.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&forty, 75.0), 30.0);
        assert_eq!(percentile(&forty, 50.0), 20.0);
        // Odd n = 5: p75 is the 4th.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 75.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
