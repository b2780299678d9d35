//! Property-based tests of the closed-form invariants the analytic model
//! promises its consumers: the cluster prediction is the per-OSD model
//! with a proper share distribution and the population RSD, and erase
//! counts respect the write amplification identity.

use edm_model::{ClusterPrediction, GcPolicy, MeanFieldModel, OsdLoad};
use proptest::prelude::*;

fn load_strategy() -> impl Strategy<Value = OsdLoad> {
    (1.0f64..100_000.0, 0.05f64..0.98).prop_map(|(write_rate, utilization)| OsdLoad {
        write_rate,
        utilization,
    })
}

fn gc_strategy() -> impl Strategy<Value = GcPolicy> {
    prop_oneof![Just(GcPolicy::Greedy), Just(GcPolicy::Fifo)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The predicted erase shares are a proper distribution: every share
    /// in [0, 1], summing to 1.
    #[test]
    fn distribution_sums_to_one(
        loads in prop::collection::vec(load_strategy(), 1..24),
        gc in gc_strategy(),
        sigma in 0.0f64..0.4,
    ) {
        let model = MeanFieldModel::with_gc(32, sigma, gc);
        let p = ClusterPrediction::predict(&model, &loads);
        let total: f64 = p.shares.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        for share in p.shares {
            prop_assert!((0.0..=1.0).contains(&share), "share {share}");
        }
    }

    /// Each OSD's predicted erases are the per-device model applied to
    /// that OSD's own load, and the cluster RSD is the population RSD of
    /// those counts.
    #[test]
    fn prediction_is_the_per_osd_model(
        loads in prop::collection::vec(load_strategy(), 1..24),
        gc in gc_strategy(),
        sigma in 0.0f64..0.4,
    ) {
        let model = MeanFieldModel::with_gc(32, sigma, gc);
        let p = ClusterPrediction::predict(&model, &loads);
        prop_assert_eq!(p.erases.len(), loads.len());
        for (e, l) in p.erases.iter().zip(&loads) {
            prop_assert_eq!(*e, model.erase_count(l.write_rate, l.utilization));
        }
        let n = p.erases.len() as f64;
        let mean = p.erases.iter().sum::<f64>() / n;
        let var = p.erases.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
        let rsd = var.sqrt() / mean;
        prop_assert!((p.rsd - rsd).abs() <= 1e-12 * rsd.max(1.0), "{} vs {rsd}", p.rsd);
    }

    /// Write amplification identity: predicted erases times pages per
    /// block equal host writes times WA — GC relocations are accounted
    /// exactly once, for either GC policy.
    #[test]
    fn erase_mean_matches_wa_identity(
        wc in 0.0f64..1e9,
        u in 0.0f64..1.0,
        np in prop_oneof![Just(16u32), Just(32u32), Just(64u32), Just(256u32)],
        gc in gc_strategy(),
        sigma in 0.0f64..0.4,
    ) {
        let model = MeanFieldModel::with_gc(np, sigma, gc);
        let erases = model.erase_count(wc, u);
        let physical = wc * model.write_amplification(u);
        prop_assert!(
            (erases * np as f64 - physical).abs() <= 1e-9 * physical.max(1.0),
            "erases·Np = {} vs Wc·WA = {physical}",
            erases * np as f64
        );
        // And the identity survives aggregation: summing erases over a
        // cluster equals summing amplified writes over it.
        let mean_gc_rate = model.gc_rate(u);
        prop_assert!((mean_gc_rate * wc - erases).abs() <= 1e-9 * erases.max(1.0));
    }
}
