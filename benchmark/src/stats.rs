//! Order statistics on raw samples: nearest-rank percentiles, medians,
//! and the quartiles the acceptance rule is written in.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `pct` % of the samples at or below it.
///
/// # Panics
/// Panics if `sorted` is empty or `pct` is outside `(0, 100]`.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct > 0.0 && pct <= 100.0, "percentile {pct} out of range");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles considered, ascending, in hundredths of a
/// percent (p90, p99, p99.9, p99.99) so the arithmetic stays exact.
const TAILS: [usize; 4] = [9_000, 9_900, 9_990, 9_999];

/// The highest of p90/p99/p99.9/p99.99 that still has at least ten of
/// `n` samples beyond it — above that a percentile is one or two
/// outliers, not a statistic. `None` when even p90 lacks the support
/// (`n < 100`).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|&&tail| n * (10_000 - tail) / 10_000 >= 10)
        .map(|&tail| tail as f64 / 100.0)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them — the acceptance rule's own definition.
///
/// # Panics
/// Panics on fewer than two values or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median; 0 for a single value.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_raw_samples() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.9), 100);
        assert_eq!(percentile(&s, 100.0), 100);
        // Five samples: p50 is the third, anything above 80 % the last.
        let s = [10u32, 20, 30, 40, 50];
        assert_eq!(percentile(&s, 50.0), 30);
        assert_eq!(percentile(&s, 60.0), 30);
        assert_eq!(percentile(&s, 61.0), 40);
        assert_eq!(percentile(&s, 81.0), 50);
        assert_eq!(percentile(&[7u32], 0.1), 7);
    }

    #[test]
    fn highest_tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(999), Some(90.0));
        assert_eq!(highest_supported_tail(1_000), Some(99.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(99_999), Some(99.9));
        assert_eq!(highest_supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // Two values extrapolate, as Python does: [0.75, 1.5, 2.25].
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_frac(&[4.0]), 0.0);
    }
}
