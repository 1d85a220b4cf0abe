//! Order statistics over exact client-side samples.

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile a sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. `95.0`).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// How many samples lie strictly beyond its rank.
    pub beyond: usize,
}

/// 0-based nearest-rank index of percentile `p` (to 0.1) in `n` sorted
/// samples, in integer arithmetic so that p99.9 of 10 000 is rank 9990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`], at most `cap`, with at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer. `sorted` must be ascending.
///
/// Each workload caps the ladder at the highest percentile its sample
/// size supports at the time the benchmark was defined, so that a faster
/// program (more samples in the same window) is still judged on the same
/// percentile; a slower one falls down the ladder rather than report a
/// percentile with fewer than ten samples beyond it.
pub fn tail(sorted: &[f64], cap: f64) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().filter(|&&p| p <= cap).find_map(|&p| {
        let rank = nearest_rank(n.max(1), p);
        let beyond = n.saturating_sub(rank + 1);
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail { percentile: p, value: sorted[rank], beyond })
    })
}

/// Median with linear interpolation between the two middle samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// [`median`] of an already ascending slice; `NaN` when empty.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile of an ascending slice; `NaN` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // n = 1000: p99 is rank 990 with exactly 10 beyond.
        let t = tail(&ramp(1_000), 99.9).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // n = 999: p99 leaves only 9 beyond, so p95 is the tail.
        let t = tail(&ramp(999), 99.9).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= MIN_BEYOND);
        // n = 10 000: p99.9 leaves exactly 10.
        assert_eq!(tail(&ramp(10_000), 99.9).unwrap().percentile, 99.9);
        // n = 120: p90 (rank 108, 12 beyond).
        let t = tail(&ramp(120), 99.9).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 12));
    }

    #[test]
    fn tail_respects_the_workload_cap() {
        // Plenty of samples for p99.9, but the workload is judged at p95.
        let t = tail(&ramp(50_000), 95.0).unwrap();
        assert_eq!((t.percentile, t.value), (95.0, 47_500.0));
        // Too few for the cap: fall down the ladder.
        assert_eq!(tail(&ramp(150), 95.0).unwrap().percentile, 90.0);
    }

    #[test]
    fn tail_is_absent_for_tiny_samples() {
        assert_eq!(tail(&[], 99.9), None);
        assert_eq!(tail(&ramp(19), 99.9), None);
        assert_eq!(tail(&ramp(20), 99.9).unwrap().percentile, 50.0);
    }

    #[test]
    fn every_ladder_choice_keeps_ten_beyond() {
        for n in 20..12_000 {
            let t = tail(&ramp(n), 99.9).unwrap();
            assert!(t.beyond >= MIN_BEYOND, "n={n}");
            assert_eq!(t.value as usize + t.beyond, n, "n={n}");
        }
    }

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile_sorted(&ramp(100), 99.0), 99.0);
    }
}
