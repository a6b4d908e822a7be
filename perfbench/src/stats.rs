//! Order statistics, with the rule the benchmark reports tails by: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure is never one or two outliers.

/// Fewest samples that must rank beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first, by [`tail`].
pub const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Sorts samples ascending (total order, so a NaN cannot scramble it).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
/// Computed in tenths of a percent so that `99.0` of `1000` is exactly
/// rank 990, with no floating-point rounding.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples rank beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it and may be reported.
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// The highest of [`TAIL_CANDIDATES`] the samples support, with its
/// value; `None` when even the lowest candidate lacks the samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| supported(sorted.len(), p))
        .map(|&p| (p, percentile(sorted, p)))
}

/// The median (mean of the middle two for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — reportable.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert_eq!(percentile(&ramp(1000), 99.0), 990.0);
        // 999 samples: rank 990 again, only nine beyond — not reportable.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!supported(999, 99.0));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        // 200 samples support p95 (10 beyond) but not p99 (2 beyond).
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        // 40 samples: p75 leaves exactly ten beyond.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&ramp(39)), Some((50.0, 20.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_nearest_rank_agree_with_definitions() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
