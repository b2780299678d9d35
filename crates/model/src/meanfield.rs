//! The per-device mean-field model: victim valid-page ratio, write
//! amplification, and erase counts.
//!
//! ## The cleaning law (EDM Eq. 2 / Eq. 3)
//!
//! The classic log-structured cleaning analysis relates the victim's
//! valid-page ratio `v` to the disk utilization `u`:
//!
//! > u = (v − 1) / ln v                     (EDM Eq. 2)
//!
//! Taking logs shows this is the FIFO (oldest-block-first) cleaning law,
//! `v = exp(−(1 − v) / u)`: a block filled at the write frontier is
//! reclaimed after the frontier traverses the whole device once, and
//! with uniform writes over the live set a page survives that traversal
//! with probability `exp(−(1 − v)/u)` (Li–Lee–Lui, arXiv 1303.4816). The
//! FTL's greedy victim choice does better than this law; the model keeps
//! the paper's equation because EDM plans with it.
//!
//! Real (skewed) workloads segregate hot and cold data, so victims hold
//! fewer valid pages than the uniform analysis predicts; the EDM paper
//! corrects with an empirical offset σ = 0.28:
//!
//! > u = (v − 1) / ln v + σ                 (EDM Eq. 3)
//!
//! ## Erases and write amplification
//!
//! Each reclaimed block returns `Np·(1 − v)` net free pages, so
//!
//! > erases(Wc, u) = Wc / (Np · (1 − v(u)))   (EDM Eq. 1 / Eq. 4)
//! > WA(u)         = 1 / (1 − v(u))
//!
//! tying the two by the identity `erases · Np = Wc · WA` (each erase
//! rewrites `Np·v` valid pages, and physical writes are host writes plus
//! relocations).

/// The empirical skew offset σ of the EDM paper (§III.B.1, Fig. 3).
pub const MODEL_SIGMA: f64 = 0.28;

/// Victim-ratio ceiling: above this GC reclaims almost nothing and the
/// erase count diverges; clamping keeps every prediction finite.
const V_MAX: f64 = 0.999;

/// Bisection steps for the victim-ratio inversion: interval width ends
/// below 1e-18, far under f64 noise on these curves.
const BISECT_STEPS: u32 = 60;

/// The analytic per-device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanFieldModel {
    /// Pages per erase block (`Np`); the paper's geometry gives 32.
    pub pages_per_block: u32,
    /// Skew offset σ; 0 recovers the uniform-workload curves.
    pub sigma: f64,
}

/// Forward relation (Eq. 2): utilization implied by a victim
/// ratio `v` in `[0, 1]`, `u = (v − 1)/ln v`, continuously extended with
/// `u(0) = 0` and `u(1) = 1`.
pub fn u_of_v(v: f64) -> f64 {
    if v <= f64::EPSILON {
        return 0.0;
    }
    if v >= 1.0 - 1e-12 {
        return 1.0;
    }
    (v - 1.0) / v.ln()
}

impl MeanFieldModel {
    /// The paper's configuration: σ = 0.28.
    pub fn paper(pages_per_block: u32) -> Self {
        MeanFieldModel::new(pages_per_block, MODEL_SIGMA)
    }

    /// Eq. 3 with skew offset `sigma`; σ = 0 is Eq. 2.
    pub fn new(pages_per_block: u32, sigma: f64) -> Self {
        MeanFieldModel {
            pages_per_block,
            sigma,
        }
    }

    /// Victim valid-page ratio `v(u)` predicted for disk utilization `u`:
    /// the root of Eq. 3.
    ///
    /// Eq. 2 is strictly increasing in `v`, so bisection finds the
    /// unique root. Utilizations at or below σ clamp to 0 (victims
    /// entirely invalid); the top end clamps to a ratio of 0.999 so the
    /// erase count stays finite.
    pub fn victim_valid_ratio(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "utilization must be in [0, 1]");
        let ueff = u - self.sigma;
        if ueff <= 0.0 {
            return 0.0;
        }
        if ueff >= u_of_v(V_MAX) {
            return V_MAX;
        }
        // Root of u_of_v(v) = ueff.
        let (mut lo, mut hi) = (0.0f64, V_MAX);
        for _ in 0..BISECT_STEPS {
            let mid = 0.5 * (lo + hi);
            if u_of_v(mid) < ueff {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Write amplification `1 / (1 − v(u))`: physical page writes per
    /// host page write, relocations included.
    pub fn write_amplification(&self, u: f64) -> f64 {
        1.0 / (1.0 - self.victim_valid_ratio(u))
    }

    /// Predicted block erases for `wc_pages` host page writes at
    /// utilization `u`: `Wc / (Np · (1 − v(u)))` (Eq. 4).
    pub fn erase_count(&self, wc_pages: f64, u: f64) -> f64 {
        assert!(wc_pages >= 0.0, "write pages must be non-negative");
        wc_pages / self.free_pages_per_erase(u)
    }

    /// Net free pages one erase yields at utilization `u`,
    /// `Np · (1 − v(u))` — Eq. 4's denominator. Algorithm 1 holds `u`
    /// fixed for HDF, so it solves this once per device and divides.
    pub fn free_pages_per_erase(&self, u: f64) -> f64 {
        self.pages_per_block as f64 * (1.0 - self.victim_valid_ratio(u))
    }

    /// Erases per host page write at utilization `u` — the device's GC
    /// rate, `WA(u) / Np`.
    pub fn gc_rate(&self, u: f64) -> f64 {
        self.write_amplification(u) / self.pages_per_block as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_of_v_endpoints_and_monotonicity() {
        assert_eq!(u_of_v(0.0), 0.0);
        assert_eq!(u_of_v(1.0), 1.0);
        let mut prev = 0.0;
        for i in 1..100 {
            let u = u_of_v(i as f64 / 100.0);
            assert!(u > prev, "u_of_v must be strictly increasing");
            prev = u;
        }
        // Known value: v = 0.5 ⇒ u = 0.5/ln 2 ≈ 0.7213.
        assert!((u_of_v(0.5) - 0.5 / std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn greedy_inverts_the_forward_relation() {
        let m = MeanFieldModel::new(32, 0.0);
        for v in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let u = u_of_v(v);
            assert!((m.victim_valid_ratio(u) - v).abs() < 1e-9, "v {v}");
        }
    }

    #[test]
    fn greedy_inverts_eq3_with_sigma() {
        let m = MeanFieldModel::paper(32);
        for v in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let u = u_of_v(v) + MODEL_SIGMA;
            if u <= 1.0 {
                assert!((m.victim_valid_ratio(u) - v).abs() < 1e-9, "v {v}");
            }
        }
    }

    /// The planner's Eq. 3 / Eq. 4 bits at 100 000 host page writes:
    /// both clamps (`u ≤ σ`, and `u ≥ u_of_v(0.999)` under σ = 0) and
    /// interior points. A change to the Eq. 3 inversion that moves any
    /// bit moves every EDM plan.
    #[test]
    fn greedy_bits_are_pinned() {
        let top = u_of_v(V_MAX);
        let cases: [(f64, f64, u64, u64); 11] = [
            (MODEL_SIGMA, 0.0, 0x0000000000000000, 0x40a86a0000000000),
            (
                MODEL_SIGMA,
                MODEL_SIGMA,
                0x0000000000000000,
                0x40a86a0000000000,
            ),
            (MODEL_SIGMA, 0.3, 0x3cb003e560418937, 0x40a86a0000000002),
            (MODEL_SIGMA, 0.5, 0x3f86df5241ef3fa8, 0x40a8b096d719b9f3),
            (MODEL_SIGMA, 0.7, 0x3fbfd2c99ff827e0, 0x40abe13ad7a4fd6d),
            (MODEL_SIGMA, 1.0, 0x3fdfdd758832aa04, 0x40b84fc20ed6c1e6),
            (0.0, 0.0, 0x0000000000000000, 0x40a86a0000000000),
            (0.0, 0.3, 0x3fa4ee84e1d701ca, 0x40a97467c52d8867),
            (0.0, 0.85, 0x3fe6e7e40a117b4e, 0x40c57a061a580f9d),
            (0.0, top, 0x3feff7ced916872b, 0x4147d783fffffffa),
            (0.0, 1.0, 0x3feff7ced916872b, 0x4147d783fffffffa),
        ];
        for (sigma, u, v_bits, erase_bits) in cases {
            let m = MeanFieldModel::new(32, sigma);
            assert_eq!(
                m.victim_valid_ratio(u).to_bits(),
                v_bits,
                "v: σ {sigma} u {u}"
            );
            assert_eq!(
                m.erase_count(1e5, u).to_bits(),
                erase_bits,
                "erases: σ {sigma} u {u}"
            );
        }
        assert_eq!(
            MeanFieldModel::paper(32),
            MeanFieldModel::new(32, MODEL_SIGMA)
        );
    }

    /// Eq. 2 is the FIFO cleaning law: its root is the fixed point of
    /// `v = exp(−(1 − v)/u)`.
    #[test]
    fn fifo_satisfies_its_fixed_point() {
        let m = MeanFieldModel::new(32, 0.0);
        for u in [0.3, 0.5, 0.7, 0.9] {
            let v = m.victim_valid_ratio(u);
            let back = (-(1.0 - v) / u).exp();
            assert!((v - back).abs() < 1e-9, "u {u}: v {v} vs g(v) {back}");
        }
    }

    #[test]
    fn fifo_picks_the_stable_root_not_v_equals_one() {
        let m = MeanFieldModel::new(32, 0.0);
        // At u = 0.5 the stable root sits near 0.2, well below 1.
        let v = m.victim_valid_ratio(0.5);
        assert!(v > 0.15 && v < 0.25, "v = {v}");
    }

    #[test]
    fn sigma_lowers_the_victim_ratio() {
        let uniform = MeanFieldModel::new(32, 0.0);
        let skewed = MeanFieldModel::paper(32);
        for u in [0.5, 0.7, 0.9] {
            assert!(
                skewed.victim_valid_ratio(u) < uniform.victim_valid_ratio(u),
                "at u = {u}"
            );
        }
    }

    #[test]
    fn below_sigma_gc_is_free() {
        let m = MeanFieldModel::paper(32);
        assert_eq!(m.victim_valid_ratio(0.0), 0.0);
        assert_eq!(m.victim_valid_ratio(MODEL_SIGMA), 0.0);
        assert!((m.write_amplification(0.2) - 1.0).abs() < 1e-12);
        assert!((m.erase_count(3200.0, 0.2) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn low_utilization_clamps_to_zero_victim_ratio() {
        let m = MeanFieldModel::paper(32);
        assert_eq!(m.victim_valid_ratio(0.0), 0.0);
        assert_eq!(m.victim_valid_ratio(0.28), 0.0);
        // Just above σ it rises off zero.
        assert!(m.victim_valid_ratio(0.30) > 0.0);
    }

    #[test]
    fn predictions_stay_finite_at_full_utilization() {
        for sigma in [0.0, MODEL_SIGMA] {
            let e = MeanFieldModel::new(32, sigma).erase_count(10_000.0, 1.0);
            assert!(e.is_finite() && e > 0.0, "σ {sigma}: {e}");
        }
    }

    #[test]
    fn erase_count_is_linear_in_writes_and_monotone_in_u() {
        let m = MeanFieldModel::paper(32);
        assert!((m.erase_count(2e4, 0.6) / m.erase_count(1e4, 0.6) - 2.0).abs() < 1e-9);
        let mut prev = 0.0;
        for u in [0.3, 0.5, 0.7, 0.9, 0.99] {
            let e = m.erase_count(1e4, u);
            assert!(e >= prev);
            prev = e;
        }
    }

    #[test]
    fn below_sigma_knee_utilization_has_no_effect() {
        // "Further reduction of the disk utilization has almost no effect
        // on the wear frequency" below 50 % (§III.B.5; the CDF guard).
        let m = MeanFieldModel::paper(32);
        assert_eq!(m.erase_count(1e4, 0.05), m.erase_count(1e4, MODEL_SIGMA));
    }

    #[test]
    fn erases_grow_strictly_above_the_sigma_knee() {
        let m = MeanFieldModel::paper(32);
        assert!(m.erase_count(1e4, 0.9) > m.erase_count(1e4, 0.5));
    }

    #[test]
    fn zero_writes_zero_erases() {
        assert_eq!(MeanFieldModel::paper(32).erase_count(0.0, 0.7), 0.0);
    }

    #[test]
    fn free_pages_per_erase_shrinks_with_utilization() {
        let m = MeanFieldModel::paper(32);
        assert!(m.free_pages_per_erase(0.9) < m.free_pages_per_erase(0.5));
        assert!((m.free_pages_per_erase(0.0) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_the_paper_twin_on_greedy() {
        // A closed-form value on the curve the EDM paper fits (Eq. 2):
        // u = 0.5/ln 2 maps back to v = 0.5 under σ = 0.
        let m = MeanFieldModel::new(32, 0.0);
        let u = 0.5 / std::f64::consts::LN_2;
        assert!((m.victim_valid_ratio(u) - 0.5).abs() < 1e-9);
    }
}
