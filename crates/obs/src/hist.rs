//! Fixed-bucket log-linear latency histogram, the one latency type of
//! the workspace: the run report's percentiles, journal trailers and
//! `/metrics` all read it.
//!
//! Values 0–15 each own a bucket. Above that, every octave
//! `[2^k, 2^(k+1))` is cut into 16 equal sub-buckets, chosen by the top
//! set bit and the next 4 bits (HdrHistogram's layout), so a bucket is
//! never wider than 1/16 of its lower edge. 976 buckets cover the full
//! `u64` range with integer edges, and every octave edge `2^k − 1` is a
//! bucket edge. Recording is a `leading_zeros`, a shift and a mask plus
//! an array increment, cheap enough to leave enabled at the `metrics`
//! level, and merging two histograms is exact (bucket-wise addition),
//! which the property tests exploit.

use std::fmt;

/// Number of buckets: 16 exact values, then 16 per octave for the 60
/// octaves `[2^4, 2^64)`.
pub const BUCKETS: usize = 976;

/// Sub-bucket bits per octave: `2^SUB_BITS` = 16 sub-buckets.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Why [`Histogram::from_parts`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// The bucket list does not have [`BUCKETS`] entries.
    BucketCount(usize),
    /// `max` does not lie in the highest non-empty bucket (or is
    /// non-zero while every bucket is empty).
    MaxOutsideTopBucket(u64),
    /// The bucket counts sum past `u64::MAX`.
    CountOverflow,
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::BucketCount(n) => write!(f, "has {n} buckets, not {BUCKETS}"),
            HistogramError::MaxOutsideTopBucket(max) => {
                write!(f, "max {max} lies outside the top non-empty bucket")
            }
            HistogramError::CountOverflow => f.write_str("bucket counts overflow u64"),
        }
    }
}

impl std::error::Error for HistogramError {}

/// Bucket index for a sample.
#[inline]
fn index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let top = u64::BITS - 1 - value.leading_zeros();
    let sub = (value >> (top - SUB_BITS)) & (SUB - 1);
    ((top - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Inclusive `[lo, hi]` value range of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = (i / SUB - 1) as u32;
    let lo = (SUB + i % SUB) << shift;
    (lo, lo + ((1 << shift) - 1))
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            max: 0,
        }
    }

    /// Rebuilds a histogram from its [`buckets`](Self::buckets) and
    /// [`max`](Self::max), as a checkpoint stores it. The count is the
    /// sum of the buckets.
    pub fn from_parts(buckets: &[u64], max: u64) -> Result<Histogram, HistogramError> {
        let buckets: [u64; BUCKETS] = buckets
            .try_into()
            .map_err(|_| HistogramError::BucketCount(buckets.len()))?;
        let count = buckets
            .iter()
            .try_fold(0u64, |sum, &n| sum.checked_add(n))
            .ok_or(HistogramError::CountOverflow)?;
        let (lo, hi) = buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or((0, 0), bucket_range);
        if !(lo..=hi).contains(&max) {
            return Err(HistogramError::MaxOutsideTopBucket(max));
        }
        Ok(Histogram {
            buckets: Box::new(buckets),
            count,
            max,
        })
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

    /// Per-bucket sample counts, [`BUCKETS`] of them.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets[..]
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-wise merge: the result is exactly the histogram of the
    /// concatenation of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Inclusive `[lo, hi]` bounds of the bucket containing the
    /// q-quantile sample (rank `ceil(q·count)` clamped to `[1, count]`,
    /// 1-based). The true quantile is guaranteed to lie within these
    /// bounds; `hi` is additionally clamped to the observed maximum.
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

    /// Point estimate of the q-quantile: the upper bound of its bucket,
    /// never above the maximum.
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
        for v in 0..16 {
            assert_eq!(index(v), v as usize);
        }
        assert_eq!(bucket_range(index(100)), (100, 103));
        assert_eq!(bucket_range(index(500)), (496, 511));
        assert_eq!(bucket_range(index(990)), (960, 991));
        assert_eq!(index(u64::MAX), BUCKETS - 1);
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ends", i.max(1) - 1);
            assert!(lo <= hi);
            assert_eq!(index(lo), i, "lo of bucket {i}");
            assert_eq!(index(hi), i, "hi of bucket {i}");
            if lo >= SUB {
                assert!(16 * (hi - lo + 1) <= lo, "bucket {i} is [{lo}, {hi}]");
            }
            next = hi.wrapping_add(1);
        }
        assert_eq!(next, 0, "the buckets end at u64::MAX");
        // Every octave edge 2^k − 1 closes a bucket.
        for k in 0..=64 {
            let edge = u64::MAX.checked_shr(64 - k).unwrap_or(0);
            assert_eq!(bucket_range(index(edge)).1, edge, "2^{k} - 1");
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
        assert_eq!(h.summary(), (100, 100, 100, 100));
    }

    #[test]
    fn uniform_samples_median() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (lo, hi) = h.quantile_bounds(0.5);
        // True median 500 lives in [496, 511].
        assert!(lo <= 500 && 500 <= hi, "({lo}, {hi})");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn latency_histogram_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        // ~5 % bucket resolution around the true median of 500.
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((930..=1100).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.quantile(0.1) <= 2);
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

    #[test]
    fn from_parts_round_trips_and_refuses_inconsistent_parts() {
        let mut h = Histogram::new();
        for v in [0u64, 7, 100, 103, 5000] {
            h.record(v);
        }
        assert_eq!(Histogram::from_parts(h.buckets(), h.max()), Ok(h.clone()));
        assert_eq!(
            Histogram::from_parts(&[0; BUCKETS], 0),
            Ok(Histogram::new())
        );
        assert_eq!(
            Histogram::from_parts(&h.buckets()[1..], h.max()),
            Err(HistogramError::BucketCount(BUCKETS - 1))
        );
        // 5000 lies in [4864, 5119]; a max outside it is refused.
        for max in [4863, 5120, 103] {
            assert_eq!(
                Histogram::from_parts(h.buckets(), max),
                Err(HistogramError::MaxOutsideTopBucket(max))
            );
        }
        assert_eq!(
            Histogram::from_parts(&[0; BUCKETS], 1),
            Err(HistogramError::MaxOutsideTopBucket(1))
        );
        let mut huge = [0u64; BUCKETS];
        huge[0] = u64::MAX;
        huge[1] = 1;
        assert_eq!(
            Histogram::from_parts(&huge, 1),
            Err(HistogramError::CountOverflow)
        );
    }
}
