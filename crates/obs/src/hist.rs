//! Fixed-bucket log2 latency histogram.
//!
//! Bucket 0 holds the value 0; bucket `i` (i ≥ 1) holds values in
//! `[2^(i-1), 2^i)`. 65 buckets cover the full `u64` range, so recording
//! is a single `leading_zeros` plus an array increment — cheap enough to
//! leave enabled at the `metrics` level — and merging two histograms is
//! exact (bucket-wise addition), which the property tests exploit.

/// Number of buckets: value 0 plus one bucket per bit position.
pub const BUCKETS: usize = 65;

/// A log2 histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a sample.
#[inline]
fn index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-wise merge: the result is exactly the histogram of the
    /// concatenation of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Inclusive `[lo, hi]` bounds of the bucket containing the
    /// q-quantile sample (rank `ceil(q·count)`, 1-based — the same
    /// nearest-rank definition used by `RunReport` percentiles). The true
    /// quantile is guaranteed to lie within these bounds; `hi` is
    /// additionally clamped to the observed maximum.
    #[expect(
        clippy::unreachable,
        reason = "rank <= count is checked by the caller; bucket sums cover every observation"
    )]
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                let (lo, hi) = bucket_range(i);
                return (lo, hi.min(self.max));
            }
        }
        unreachable!("rank <= count implies a bucket is found");
    }

    /// Point estimate of the q-quantile: the upper bound of its bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// (p50, p95, p99, max) summary used by journal trailer records.
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max,
        )
    }

    /// Non-empty buckets as `(lo, hi, count)` rows, for reports.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = bucket_range(i);
                (lo, hi, n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(index(0), 0);
        assert_eq!(index(1), 1);
        assert_eq!(index(2), 2);
        assert_eq!(index(3), 2);
        assert_eq!(index(4), 3);
        assert_eq!(index(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!(lo <= hi);
            assert_eq!(index(lo), i, "lo of bucket {i}");
            assert_eq!(index(hi), i, "hi of bucket {i}");
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), (0, 0, 0, 0));
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = Histogram::new();
        h.record(100);
        let (lo, hi) = h.quantile_bounds(0.5);
        assert!(lo <= 100 && 100 <= hi);
        assert_eq!(h.max(), 100);
        // hi is clamped to the observed max.
        assert_eq!(hi, 100);
    }

    #[test]
    fn uniform_samples_median() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (lo, hi) = h.quantile_bounds(0.5);
        // True median 500 lives in [256, 511].
        assert!(lo <= 500 && 500 <= hi, "({lo}, {hi})");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_equals_concat() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [0u64, 1, 5, 17, 300, 300, 4096] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 2, 9, 1 << 40] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
