//! Seeded randomness for workload generation: a SplitMix64 stream, a
//! Poisson arrival schedule and a Zipf popularity sampler.
//!
//! Everything here is a pure function of the seed. Nothing reads a clock,
//! so the inputs and the arrival schedule do not depend on how fast the
//! program under test runs.

use std::time::Duration;

/// SplitMix64: tiny, fast, and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrivals in each slot the schedule is stratified into.
pub const ARRIVALS_PER_SLOT: usize = 2;

/// Due times of seeded Poisson arrivals at `rate_per_s` over
/// `[0, horizon)`, stratified into slots of [`ARRIVALS_PER_SLOT`] /
/// `rate_per_s` seconds: each whole slot receives exactly
/// [`ARRIVALS_PER_SLOT`] arrivals, placed as sorted uniform draws inside
/// it, which is a Poisson process conditioned on that count. The seed
/// decides every gap and two arrivals of a slot can land close together,
/// so short bursts queue; but the offered load is identical from slot to
/// slot and across seeds. Unconditioned, the count swings between seconds
/// alone moved the open-loop tail by half its median from one seed to the
/// next.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon: Duration) -> Vec<Duration> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let slot = Duration::from_secs_f64(ARRIVALS_PER_SLOT as f64 / rate_per_s);
    let n_slots = (horizon.as_nanos() / slot.as_nanos()) as u32;
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::new();
    for k in 0..n_slots {
        let start = slot * k;
        let mut inside: Vec<Duration> =
            (0..ARRIVALS_PER_SLOT).map(|_| start + slot.mul_f64(rng.next_f64())).collect();
        inside.sort_unstable();
        due.extend(inside);
    }
    due
}

/// Zipf(s) popularity over `n` ranks: rank `k` (0-based) is drawn with
/// probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_its_seed() {
        let a = poisson_schedule(7, 20.0, Duration::from_secs(5));
        // Burn time between the two draws: the schedule must not care.
        let mut spin = 0u64;
        for i in 0..2_000_000u64 {
            spin = spin.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(spin);
        let b = poisson_schedule(7, 20.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 20.0, Duration::from_secs(5)));
    }

    #[test]
    fn schedule_has_the_expected_count_inside_the_window() {
        let due = poisson_schedule(3, 50.0, Duration::from_secs(20));
        assert_eq!(due.len(), 1_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&d| d < Duration::from_secs(20)));
        // 40 ms slots at 50/s, two arrivals in each.
        let slot = Duration::from_millis(40);
        for k in 0..500u32 {
            let (lo, hi) = (slot * k, slot * (k + 1));
            let inside = due.iter().filter(|&&d| lo <= d && d < hi).count();
            assert_eq!(inside, ARRIVALS_PER_SLOT, "slot {k}");
        }
        // Mean gap 20 ms; with two uniform arrivals per slot about 55% of
        // the gaps are shorter than the mean (63% for unconditioned
        // Poisson arrivals), so bursts remain.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((0.019..0.021).contains(&mean), "mean gap {mean}");
        let short = gaps.iter().filter(|&&g| g < mean).count() as f64 / gaps.len() as f64;
        assert!((0.49..0.61).contains(&short), "share of short gaps {short}");
    }

    #[test]
    fn zipf_prefers_low_ranks_and_covers_the_range() {
        let z = Zipf::new(10, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
