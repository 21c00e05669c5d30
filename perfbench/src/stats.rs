//! Percentiles and medians with one fixed rank convention.

/// The `p`-th percentile (`0 < p ≤ 100`) by the nearest-rank rule: the
/// smallest sample with at least `p` % of the samples at or below it,
/// i.e. `sorted[⌈p·n/100⌉ − 1]`. Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[percentile_rank(sorted.len(), p)])
}

/// Zero-based rank of the `p`-th percentile of `n` sorted samples.
pub fn percentile_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly above the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - 1 - percentile_rank(n, p)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
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

    #[test]
    fn nearest_rank_on_a_hand_made_sample() {
        // Ten samples, deliberately unsorted.
        let sample = [7.0, 1.0, 10.0, 3.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0];
        assert_eq!(percentile(&sample, 50.0), Some(5.0));
        assert_eq!(percentile(&sample, 90.0), Some(9.0));
        assert_eq!(percentile(&sample, 91.0), Some(10.0));
        assert_eq!(percentile(&sample, 99.0), Some(10.0));
        assert_eq!(percentile(&sample, 10.0), Some(1.0));
        assert_eq!(percentile(&sample, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_rank(1000, 99.0), 989);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
