//! Order statistics for the benchmark's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because the acceptance procedure for
//! this benchmark computes its spreads with exactly that function.

/// Five-number summary of one metric's samples, with the sample count
/// that must be printed beside every median and percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// A metric measured once (a count, a digest-checked statistic).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }

    /// Summarises `samples`; panics on an empty slice (a metric with no
    /// sample is a bug in the workload driver, not a measurement).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// `(q1, q2, q3)` of ascending `sorted`, as `statistics.quantiles(n=4)`
/// computes them. One sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "quartiles of zero samples");
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The percentiles a latency report may quote, ascending.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Highest ladder percentile not above `wanted` that still has at least
/// ten samples beyond it among `n`; the median when none has (a handful
/// of samples supports no tail claim at all).
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of ascending `sorted` (p in 0..=100); the
/// median proper at p = 50 so a fallback agrees with [`Summary`].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of zero samples");
    if p == 50.0 {
        return quartiles(sorted).1;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    }

    #[test]
    fn summary_sorts_and_counts() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let one = Summary::single(7.0);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        assert_eq!(Summary::of(&[7.0]), one);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 leaves 1 % beyond it: 1000 samples are the least that
        // put ten there.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(1594, 99.0), 99.0);
        assert_eq!(supported_percentile(200, 99.0), 95.0);
        assert_eq!(supported_percentile(199, 99.0), 90.0);
        assert_eq!(supported_percentile(40, 99.0), 75.0);
        assert_eq!(supported_percentile(20, 99.0), 50.0);
        // Three timed passes support nothing past the median.
        assert_eq!(supported_percentile(3, 99.0), 50.0);
        // Never quotes a higher percentile than asked for.
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
        assert_eq!(supported_percentile(1_000_000, 99.9), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank_with_a_true_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }
}
