//! The SSD wear model of §III.B.1 (Equations 1–4).
//!
//! Under greedy garbage collection, each reclaimed victim block with
//! average valid-page ratio uᵣ yields only `Np · (1 − uᵣ)` net free pages,
//! so the erase count over a period with `Wc` host page writes is
//!
//! > Ec = Wc / (Np · (1 − uᵣ))                         (Eq. 1)
//!
//! uᵣ is invisible above the device, but relates to disk utilization `u`
//! through the classic log-structured cleaning relation
//!
//! > u = (uᵣ − 1) / ln uᵣ                              (Eq. 2)
//!
//! which fits uniformly random workloads but overestimates uᵣ for skewed
//! real-world traces; the paper corrects it with an empirical offset
//! σ = 0.28 (good for u ≤ 85 %):
//!
//! > u = (uᵣ − 1) / ln uᵣ + σ                          (Eq. 3)
//!
//! Writing F(u) for the inverse (uᵣ = F(u)) gives the wear model
//!
//! > Ec(Wc, u) = Wc / (Np · (1 − F(u)))                (Eq. 4)

/// The paper's empirical impact factor σ (§III.B.1, Fig. 3).
pub const PAPER_SIGMA: f64 = 0.28;

/// Utilization→uᵣ ceiling: above this, GC reclaims almost nothing and
/// Eq. 4 diverges; we clamp so the model stays finite.
const UR_MAX: f64 = 0.999;

/// Forward direction of Eq. 2: utilization implied by a victim ratio.
///
/// `u = (ur - 1) / ln(ur)`, continuously extended with `u(0) = 0` and
/// `u(1) = 1`.
pub fn u_of_ur(ur: f64) -> f64 {
    assert!((0.0..=1.0).contains(&ur), "ur must be in [0, 1]");
    if ur <= f64::EPSILON {
        return 0.0;
    }
    if ur >= 1.0 - 1e-12 {
        return 1.0;
    }
    (ur - 1.0) / ur.ln()
}

/// The SSD wear model: Eq. 4 with a configurable σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearModel {
    /// Pages per erase block (`Np`); the paper's geometry gives 32.
    pub pages_per_block: u32,
    /// Impact factor σ of Eq. 3; 0 recovers Eq. 2, 0.28 is the paper's
    /// empirical fit.
    pub sigma: f64,
}

impl WearModel {
    /// Eq. 3 model with the paper's σ = 0.28.
    pub fn paper(pages_per_block: u32) -> Self {
        WearModel {
            pages_per_block,
            sigma: PAPER_SIGMA,
        }
    }

    /// Eq. 2 model (σ = 0), the uniform-workload baseline of Fig. 3.
    pub fn eq2(pages_per_block: u32) -> Self {
        WearModel {
            pages_per_block,
            sigma: 0.0,
        }
    }

    /// F(u): the victim valid-page ratio uᵣ predicted for utilization `u`.
    ///
    /// Solves `u = (ur − 1)/ln(ur) + σ` for uᵣ by bisection; the right-hand
    /// side is strictly increasing in uᵣ, so the root is unique. Inputs at
    /// or below σ clamp to 0 (victims are entirely invalid); inputs whose
    /// corrected utilization reaches 1 clamp just below 1.
    pub fn f_of_u(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "utilization must be in [0, 1]");
        #[cfg(test)]
        F_OF_U_CALLS.set(F_OF_U_CALLS.get() + 1);
        let target = u - self.sigma;
        if target <= 0.0 {
            return 0.0;
        }
        if target >= u_of_ur(UR_MAX) {
            return UR_MAX;
        }
        let (mut lo, mut hi) = (0.0f64, UR_MAX);
        // 60 bisection steps: |hi − lo| < 1e-18, far below f64 noise here.
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if u_of_ur(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Eq. 4: estimated block erases for `wc_pages` host page writes at
    /// disk utilization `u`.
    pub fn erase_count(&self, wc_pages: f64, u: f64) -> f64 {
        erase_count_over(wc_pages, self.free_pages_per_erase(u))
    }

    /// Net free pages produced per erase at utilization `u` (the
    /// denominator of Eq. 4).
    pub fn free_pages_per_erase(&self, u: f64) -> f64 {
        self.pages_per_block as f64 * (1.0 - self.f_of_u(u))
    }
}

/// Eq. 4 from its denominator: block erases for `wc_pages` host page
/// writes on a device that nets `free_pages_per_erase` pages per erase
/// ([`WearModel::free_pages_per_erase`]). Algorithm 1 evaluates Eq. 4
/// thousands of times per device at a fixed utilization; it solves F(u)
/// once and calls this, which is all [`WearModel::erase_count`] does
/// after its own solve.
pub(crate) fn erase_count_over(wc_pages: f64, free_pages_per_erase: f64) -> f64 {
    assert!(wc_pages >= 0.0, "write pages must be non-negative");
    wc_pages / free_pages_per_erase
}

#[cfg(test)]
thread_local! {
    /// [`WearModel::f_of_u`] calls made on this thread — an exact work
    /// count for tests that pin how often Eq. 3 is solved.
    pub(crate) static F_OF_U_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u_of_ur_endpoints_and_monotonicity() {
        assert_eq!(u_of_ur(0.0), 0.0);
        assert_eq!(u_of_ur(1.0), 1.0);
        let mut prev = 0.0;
        for i in 1..100 {
            let u = u_of_ur(i as f64 / 100.0);
            assert!(u > prev, "u_of_ur must be strictly increasing");
            prev = u;
        }
        // Known value: ur = 0.5 ⇒ u = 0.5/ln 2 ≈ 0.7213.
        assert!((u_of_ur(0.5) - 0.5 / std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn f_of_u_inverts_eq2() {
        let m = WearModel::eq2(32);
        for ur in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let u = u_of_ur(ur);
            let back = m.f_of_u(u);
            assert!((back - ur).abs() < 1e-9, "ur {ur} -> u {u} -> {back}");
        }
    }

    #[test]
    fn f_of_u_inverts_eq3_with_sigma() {
        let m = WearModel::paper(32);
        for ur in [0.1, 0.3, 0.5] {
            let u = u_of_ur(ur) + PAPER_SIGMA;
            if u <= 1.0 {
                let back = m.f_of_u(u);
                assert!((back - ur).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sigma_lowers_predicted_ur() {
        // Skewed workloads segregate hot and cold data, so victims hold
        // fewer valid pages than Eq. 2 predicts — Eq. 3's whole point.
        let eq2 = WearModel::eq2(32);
        let eq3 = WearModel::paper(32);
        for u in [0.4, 0.6, 0.8] {
            assert!(eq3.f_of_u(u) < eq2.f_of_u(u), "at u = {u}");
        }
    }

    #[test]
    fn low_utilization_clamps_to_zero_ur() {
        let m = WearModel::paper(32);
        assert_eq!(m.f_of_u(0.0), 0.0);
        assert_eq!(m.f_of_u(0.28), 0.0);
        // Just above σ it rises off zero.
        assert!(m.f_of_u(0.30) > 0.0);
    }

    #[test]
    fn erase_count_scales_linearly_in_writes() {
        let m = WearModel::paper(32);
        let e1 = m.erase_count(10_000.0, 0.6);
        let e2 = m.erase_count(20_000.0, 0.6);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn erase_count_grows_with_utilization() {
        let m = WearModel::paper(32);
        let mut prev = 0.0;
        for u in [0.3, 0.5, 0.7, 0.9, 0.99] {
            let e = m.erase_count(10_000.0, u);
            assert!(e >= prev, "erases must not decrease with utilization");
            prev = e;
        }
        // And the dependence is strict above the σ knee.
        assert!(m.erase_count(1e4, 0.9) > m.erase_count(1e4, 0.5));
    }

    #[test]
    fn erase_count_stays_finite_at_full_utilization() {
        let m = WearModel::paper(32);
        let e = m.erase_count(10_000.0, 1.0);
        assert!(e.is_finite());
        assert!(e > 0.0);
    }

    #[test]
    fn below_sigma_knee_utilization_has_no_effect() {
        // "Further reduction of the disk utilization has almost no effect
        // on the wear frequency" below 50 % (§III.B.5; the CDF guard).
        let m = WearModel::paper(32);
        let e_low = m.erase_count(1e4, 0.05);
        let e_mid = m.erase_count(1e4, 0.28);
        assert_eq!(e_low, e_mid);
    }

    #[test]
    fn zero_writes_zero_erases() {
        let m = WearModel::paper(32);
        assert_eq!(m.erase_count(0.0, 0.7), 0.0);
    }

    #[test]
    fn free_pages_per_erase_shrinks_with_utilization() {
        let m = WearModel::paper(32);
        assert!(m.free_pages_per_erase(0.9) < m.free_pages_per_erase(0.5));
        assert!((m.free_pages_per_erase(0.0) - 32.0).abs() < 1e-9);
    }
}
