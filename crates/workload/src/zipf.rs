//! Zipf-distributed sampling.
//!
//! Real-world storage workloads are highly skewed — "a large body of the
//! writes might go to a small part of the data set" (§II, citing \[16\]).
//! The synthesizer models file popularity with a Zipf law: the k-th most
//! popular of `n` items is drawn with probability ∝ 1/k^θ.

use rand::Rng;

/// A Zipf(n, θ) sampler over ranks `0..n` (rank 0 is the most popular).
///
/// Uses a precomputed cumulative table with binary search: O(n) memory,
/// O(log n) per sample, exact (no rejection), deterministic given the RNG.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// cdf[k] = P(rank <= k); cdf[n-1] == 1.0.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `theta`.
    ///
    /// `theta == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += (k as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the tail.
        #[expect(
            clippy::expect_used,
            reason = "constructor asserts n > 0, so the cdf is non-empty"
        )]
        let last = cdf.last_mut().expect("n > 0");
        *last = 1.0;
        Zipf { cdf }
    }

    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of a given rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.1);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12, "rank {k}");
        }
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mild = Zipf::new(1000, 0.6);
        let steep = Zipf::new(1000, 1.4);
        assert!(steep.pmf(0) > mild.pmf(0));
        assert!(steep.pmf(999) < mild.pmf(999));
    }

    #[test]
    fn samples_follow_rank_order() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Head strictly dominates the tail.
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 5 * counts[49].max(1));
        // Empirical head frequency tracks the pmf within 10 %.
        let head = counts[0] as f64 / 50_000.0;
        assert!((head - z.pmf(0)).abs() / z.pmf(0) < 0.1);
    }

    #[test]
    fn sample_is_always_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn single_rank_always_sampled() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }
}
