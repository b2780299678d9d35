//! Property tests for the log-linear histogram: merging is exactly
//! concatenation, and quantile estimates bound the true quantile within
//! one bucket.

use edm_obs::Histogram;
use proptest::prelude::*;

/// Sample values spanning several octaves, with zeros included.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => Just(0u64),
        8 => 0u64..1_000,
        8 => 0u64..1_000_000,
        2 => 0u64..u64::MAX,
    ]
}

fn build(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Nearest-rank true quantile: sorted[ceil(q·n) − 1].
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(A, B) is exactly the histogram of A ++ B, for any split.
    #[test]
    fn merged_histograms_equal_concatenated_samples(
        a in prop::collection::vec(sample(), 0..200),
        b in prop::collection::vec(sample(), 0..200),
    ) {
        let mut merged = build(&a);
        merged.merge(&build(&b));

        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        let direct = build(&concat);

        prop_assert_eq!(&merged, &direct);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.max(), concat.iter().copied().max().unwrap_or(0));
    }

    /// The true quantile always lies inside the reported bucket bounds,
    /// and the point estimate is the (max-clamped) bucket upper bound —
    /// i.e. the estimate is off by at most one bucket, 1/16 of an octave.
    #[test]
    fn quantile_bounds_contain_true_quantile(
        samples in prop::collection::vec(sample(), 1..300),
        q in 0.01f64..1.0,
    ) {
        let h = build(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        for q in [q, 0.5, 0.95, 0.99] {
            let truth = true_quantile(&sorted, q);
            let (lo, hi) = h.quantile_bounds(q);
            prop_assert!(
                lo <= truth && truth <= hi,
                "q={q}: true quantile {truth} outside [{lo}, {hi}]"
            );
            prop_assert_eq!(h.quantile(q), hi);
            // One-bucket error bound: above 15 a bucket is at most 1/16
            // of its lower edge wide (values below 16 are exact).
            if lo >= 16 {
                prop_assert!(
                    16 * (hi - lo + 1) <= lo,
                    "bucket wider than 1/16 octave: [{lo}, {hi}]"
                );
            }
        }
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_monotone(samples in prop::collection::vec(sample(), 1..300)) {
        let h = build(&samples);
        let qs = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.quantile(w[0]) <= h.quantile(w[1]));
        }
        prop_assert!(h.quantile(1.0) <= h.max());
    }
}
