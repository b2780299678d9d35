//! Property-based tests of the EDM core: Algorithm 1 conservation and
//! improvement properties, wear-model monotonicity, temperature decay
//! bounds, and trigger set consistency.

use edm_core::{calculate_cdf, calculate_hdf, free_pages_per_erase, trigger, Alg1Config};
use edm_model::{u_of_v, GcPolicy, MeanFieldModel};
use proptest::prelude::*;

fn wc_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..200_000.0, n..=n)
}

fn u_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..0.95, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// HDF's ΔWc sums to ~0 (moved writes are conserved) and never
    /// exceeds a device's own writes.
    #[test]
    fn hdf_conserves_and_bounds_deltas(
        wc in wc_strategy(6),
        u in u_strategy(6),
    ) {
        let free_pages = free_pages_per_erase(&u, &MeanFieldModel::paper(32));
        let out = calculate_hdf(&wc, &free_pages, &Alg1Config::default());
        let total: f64 = out.delta.iter().sum();
        prop_assert!(total.abs() < 1e-6, "ΔWc sum {total}");
        for (i, d) in out.delta.iter().enumerate() {
            prop_assert!(-d <= wc[i] + 1e-6, "device {i} sheds more than it wrote");
        }
    }

    /// HDF never increases the spread of the model erase counts.
    #[test]
    fn hdf_never_worsens_imbalance(
        wc in wc_strategy(5),
        u in u_strategy(5),
    ) {
        let model = MeanFieldModel::paper(32);
        let before: Vec<f64> = wc.iter().zip(&u).map(|(&w, &uu)| model.erase_count(w, uu)).collect();
        let out = calculate_hdf(&wc, &free_pages_per_erase(&u, &model), &Alg1Config::default());
        let spread = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            if mean == 0.0 { return 0.0; }
            (v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64).sqrt() / mean
        };
        prop_assert!(
            spread(&out.final_erases) <= spread(&before) + 1e-9,
            "imbalance grew: {} -> {}",
            spread(&before),
            spread(&out.final_erases)
        );
    }

    /// CDF conserves utilization, respects the 50 % source floor, the
    /// per-round shed cap, and the destination ceiling.
    #[test]
    fn cdf_respects_all_guard_rails(
        wc in wc_strategy(6),
        u in u_strategy(6),
    ) {
        let cfg = Alg1Config::default();
        let out = calculate_cdf(&wc, &u, &MeanFieldModel::paper(32), &cfg);
        let total: f64 = out.delta.iter().sum();
        prop_assert!(total.abs() < 1e-6, "Δu sum {total}");
        for (i, d) in out.delta.iter().enumerate() {
            let after = u[i] + d;
            if *d < 0.0 {
                prop_assert!(after >= cfg.min_source_utilization - 1e-9,
                    "source {i} drained below floor: {after}");
                prop_assert!(-d <= cfg.max_shed_per_device + 1e-9,
                    "source {i} exceeded round cap: {d}");
            } else if *d > 0.0 {
                prop_assert!(after <= cfg.dest_util_cap + 1e-9,
                    "dest {i} overfilled: {after}");
            }
        }
    }

    /// The wear model is monotone: more writes or higher utilization never
    /// predict fewer erases.
    #[test]
    fn wear_model_monotone(
        w1 in 0.0f64..1e6, w2 in 0.0f64..1e6,
        ua in 0.0f64..1.0, ub in 0.0f64..1.0,
    ) {
        let m = MeanFieldModel::paper(32);
        let (wlo, whi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let (ulo, uhi) = if ua <= ub { (ua, ub) } else { (ub, ua) };
        prop_assert!(m.erase_count(wlo, ulo) <= m.erase_count(whi, ulo) + 1e-9);
        prop_assert!(m.erase_count(wlo, ulo) <= m.erase_count(wlo, uhi) + 1e-9);
    }

    /// F(u) — the greedy victim ratio — inverts Eq. 3's forward relation
    /// on the valid range for any σ.
    #[test]
    fn f_of_u_is_inverse(ur in 0.01f64..0.95, sigma in 0.0f64..0.5) {
        let m = MeanFieldModel::with_gc(32, sigma, GcPolicy::Greedy);
        let u = u_of_v(ur) + sigma;
        if u <= 1.0 {
            let back = m.victim_valid_ratio(u);
            prop_assert!((back - ur).abs() < 1e-6, "ur {ur} -> {back}");
        }
    }

    /// Trigger partition: sources and destinations never overlap, sources
    /// all exceed the λ margin, destinations all sit below the mean.
    #[test]
    fn trigger_partition_is_consistent(
        ecs in prop::collection::vec(0.0f64..10_000.0, 1..30),
        lambda in 0.0f64..1.0,
    ) {
        let d = trigger::evaluate(&ecs, lambda);
        for &s in &d.sources {
            prop_assert!(ecs[s] - d.mean > d.mean * lambda - 1e-9);
            prop_assert!(!d.destinations.contains(&s));
        }
        for &t in &d.destinations {
            prop_assert!(ecs[t] < d.mean);
        }
        if d.triggered {
            prop_assert!(d.rsd > lambda);
        }
    }
}

mod temperature_props {
    use edm_cluster::{AccessEvent, AccessKind, ObjectId};
    use edm_core::AccessTracker;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The incremental recurrence (Eq. 6) matches the closed form
        /// (Eq. 5) for arbitrary per-interval access counts.
        #[test]
        fn recurrence_matches_closed_form(counts in prop::collection::vec(0u32..20, 1..12)) {
            let interval = 1_000u64;
            let mut t = AccessTracker::new(interval);
            for (i, &a) in counts.iter().enumerate() {
                for _ in 0..a {
                    t.record(AccessEvent {
                        now_us: i as u64 * interval + 1,
                        object: ObjectId(7),
                        kind: AccessKind::Write,
                        pages: 1,
                    });
                }
            }
            let k = counts.len() as u64 - 1;
            let now = k * interval + 500;
            let measured = t.heat(ObjectId(7), now).write_temp;
            // Eq. 5: T_k = sum_i A_i / 2^(k - i), with i, k 0-based here.
            let expected: f64 = counts
                .iter()
                .enumerate()
                .map(|(i, &a)| a as f64 / 2f64.powi((k - i as u64) as i32))
                .sum();
            prop_assert!(
                (measured - expected).abs() < 1e-9,
                "measured {measured}, closed form {expected}"
            );
        }

        /// Temperatures are non-negative, finite, and monotone under
        /// additional accesses within one interval.
        #[test]
        fn temperature_sane_under_random_streams(
            events in prop::collection::vec((0u64..1_000_000, 0u64..50, any::<bool>(), 1u64..16), 1..300)
        ) {
            let mut t = AccessTracker::new(10_000);
            let mut sorted = events;
            sorted.sort_by_key(|e| e.0);
            for (now, obj, is_write, pages) in sorted {
                t.record(AccessEvent {
                    now_us: now,
                    object: ObjectId(obj),
                    kind: if is_write { AccessKind::Write } else { AccessKind::Read },
                    pages,
                });
                let h = t.heat(ObjectId(obj), now);
                prop_assert!(h.total_temp.is_finite() && h.total_temp >= 1.0);
                prop_assert!(h.write_temp <= h.total_temp);
            }
        }
    }
}
