//! Order statistics over latency samples and per-round figures.

/// The percentiles a tail is reported at, lowest first.
pub const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// A tail percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank
/// (99.9 / 100 · 10 000 is 9990.000…2 in binary floating point).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile of `sorted` (ascending) by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it among `n` samples, if any does.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(40_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        for n in [20, 137, 1000, 5000, 40_000, 123_457] {
            let p = highest_supported(n).unwrap();
            assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&next) = LADDER.iter().find(|&&q| q > p) {
                assert!(beyond(next, n) < MIN_BEYOND, "n={n}: {next} also fits");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(percentile(&[3.0], 99.9), 3.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
