//! Sample summaries: nearest-rank percentiles and the rule that a
//! percentile is only reported when enough samples lie beyond it.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported (choosing-metrics §1).
pub const BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it (rank `ceil(p·n)`,
/// 1-based).  `p` in (0, 1]; panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `want` that still has [`BEYOND`]
/// samples beyond its rank, never below the median: with 100 samples
/// p90 stands, with 50 it degrades to p80, with 12 to the median.  The
/// fall-back is continuous in `n`, so a run that completes a few jobs
/// fewer does not jump to a different statistic.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = n.saturating_sub(BEYOND) as f64 / n as f64;
    want.min(highest).max(0.5)
}

/// Sort ascending in place (samples are finite wall-clock readings).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Median (nearest rank) of unsorted samples; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    sort(&mut s);
    Some(percentile(&s, 0.5))
}

/// Quartiles the way Python's `statistics.quantiles(v, n=4)` computes
/// them (exclusive method) — the driver's own spread rule, so
/// `--compare` and the A/A script agree with it.  Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut s = samples.to_vec();
    sort(&mut s);
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 100 samples: rank 90, ten beyond.
        assert_eq!(supported_percentile(100, 0.9), 0.9);
        assert_eq!(supported_percentile(1000, 0.9), 0.9);
        // 99 samples: rank ceil(89.1) = 90 leaves nine beyond.
        assert!(supported_percentile(99, 0.9) < 0.9);
        let p = supported_percentile(50, 0.9);
        assert!((p - 0.8).abs() < 1e-12);
        let rank = (p * 50.0).ceil() as usize;
        assert_eq!(50 - rank, BEYOND);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(12, 0.9), 0.5);
        assert_eq!(supported_percentile(0, 0.9), 0.5);
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
