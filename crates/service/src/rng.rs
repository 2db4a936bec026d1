//! Seeded randomness for the workload engine: the workspace's
//! [`SplitMix64`] stream (defined next to `ae_api::mix64`) plus a Zipf
//! sampler built on it.

pub use ae_api::SplitMix64;

/// A Zipf(θ) sampler over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^θ`, so rank 0 is the most popular. θ = 0 degenerates to
/// uniform; θ around 1 matches the skew of real tenant and key
/// popularity distributions.
///
/// The CDF is precomputed once and sampled by binary search, so draws are
/// O(log n) with no floating-point accumulation at sample time —
/// a given build's sampler is fully determined by `(n, theta)` and the
/// generator stream.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf skew must be a finite non-negative number"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has no ranks (never true — `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        // First rank whose CDF covers u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_split_streams_diverge() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, second);
        let mut c = b.split();
        assert_ne!(c.next_u64(), b.next_u64(), "split stream is independent");
    }

    #[test]
    fn unit_f64_stays_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = SplitMix64::new(11);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 beats rank 10");
        assert!(counts[0] > counts[99] * 10, "heavy head");
        // Every draw is a valid rank.
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = SplitMix64::new(5);
        let mut counts = vec![0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        Zipf::new(0, 1.0);
    }
}
