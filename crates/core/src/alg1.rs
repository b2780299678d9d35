//! Algorithm 1 (§III.B.5): calculate the amount of data movement on each
//! source or destination device.
//!
//! A well-balanced wear is approached by iteratively balancing the pair of
//! devices with maximum and minimum model erase count (Eq. 4). Each outer
//! iteration sweeps ε upward in steps of 0.001 until shifting
//! `Δw = Wc_max · ε` pages (HDF) — or `Δu = u_max · ε` utilization (CDF) —
//! from the max device to the min device equalizes their erase estimates
//! (`Δe ≤ 0`), then commits that shift. The paper runs 500 iterations.
//!
//! The HDF variant holds the utilization array fixed ("the impact of
//! migration on disk utilization is ignored for HDF"); the CDF variant
//! symmetrically holds the write-page array fixed (§III.B.5).

use edm_cluster::metrics::rsd;
use edm_model::MeanFieldModel;

/// Tunables of Algorithm 1. `Default` holds the values every policy run
/// uses (`Edm` passes it); other values are for this module's tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alg1Config {
    /// Outer iteration count ("total iteration step is set to 500").
    pub iterations: usize,
    /// ε grid step of the inner sweep (0.001 in the paper).
    pub eps_step: f64,
    /// CDF only: never raise a destination's utilization beyond this.
    pub dest_util_cap: f64,
    /// CDF only: never lower a source below 50 % utilization — below the
    /// knee of Fig. 3, "further reduction of the disk utilization has
    /// almost no effect on the wear frequency" (§III.B.5).
    pub min_source_utilization: f64,
    /// Stop iterating once the relative standard deviation of the model
    /// erase counts falls below this — the same "significant wear
    /// imbalance" criterion as the trigger (§III.B.2); further shuffling
    /// would move data for no wear benefit.
    pub stop_rsd: f64,
    /// CDF only: utilization a single migration round may shed from one
    /// device. When write intensities differ strongly, equalizing Eq. 4
    /// through utilization alone would drain hot sources straight to the
    /// 50 % floor — tens of percent of capacity in one round; this cap
    /// bounds the round (the same disk-saturation reasoning as §III.B.5's
    /// destination threshold) and leaves the rest to later rounds.
    pub max_shed_per_device: f64,
}

impl Default for Alg1Config {
    fn default() -> Self {
        Alg1Config {
            iterations: 500,
            eps_step: 0.001,
            stop_rsd: 0.05,
            dest_util_cap: 0.95,
            min_source_utilization: 0.50,
            max_shed_per_device: 0.015,
        }
    }
}

/// Result of the movement calculation.
#[derive(Debug, Clone, PartialEq)]
pub struct MovementAmounts {
    /// Per-device delta. HDF: ΔWc in pages (negative ⇒ shift that many
    /// page writes away). CDF: Δu as a utilization fraction (negative ⇒
    /// shed that share of capacity).
    pub delta: Vec<f64>,
    /// Model erase counts after the hypothetical rebalance (diagnostics).
    pub final_erases: Vec<f64>,
    /// Outer iterations actually used before convergence.
    pub iterations_used: usize,
}

/// HDF variant: returns ΔWc per device (pages). HDF holds utilization
/// fixed, so the model enters only through each device's Eq. 4
/// denominator, `free_pages` ([`free_pages_per_erase`]): Eq. 3 is solved
/// once per device, by the caller, and every evaluation here divides.
pub fn calculate_hdf(wc_pages: &[f64], free_pages: &[f64], cfg: &Alg1Config) -> MovementAmounts {
    validate_wc(wc_pages, free_pages);
    assert!(
        free_pages.iter().all(|f| f.is_finite() && *f > 0.0),
        "free pages per erase must be finite and positive"
    );
    let n = wc_pages.len();
    let mut wc = wc_pages.to_vec();
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..cfg.iterations {
        let ec = erase_counts(&wc, free_pages);
        if rsd(ec.iter().copied()) < cfg.stop_rsd {
            break;
        }
        let Some((x, y)) = max_min_pair(&ec, |_| true) else {
            break;
        };
        // Inner ε sweep: smallest shift that equalizes the pair.
        let mut shift = 0.0;
        let mut eps = 0.0;
        while eps < 1.0 {
            let dw = wc[x] * eps;
            let de = (wc[x] - dw) / free_pages[x] - (wc[y] + dw) / free_pages[y];
            if de <= 0.0 {
                shift = dw;
                break;
            }
            eps += cfg.eps_step;
        }
        if shift <= 0.0 {
            break; // pair already balanced ⇒ whole array converged
        }
        delta[x] -= shift;
        delta[y] += shift;
        wc[x] -= shift;
        wc[y] += shift;
        used += 1;
    }
    MovementAmounts {
        delta,
        final_erases: erase_counts(&wc, free_pages),
        iterations_used: used,
    }
}

/// CDF variant: returns Δu per device (utilization fraction). Sources are
/// restricted to devices at or above `min_source_utilization`, and no
/// destination is pushed past `dest_util_cap`.
pub fn calculate_cdf(
    wc_pages: &[f64],
    utilization: &[f64],
    model: &MeanFieldModel,
    cfg: &Alg1Config,
) -> MovementAmounts {
    validate_wc(wc_pages, utilization);
    assert!(
        utilization.iter().all(|x| (0.0..=1.0).contains(x)),
        "utilizations must be in [0, 1]"
    );
    let n = wc_pages.len();
    let mut u = utilization.to_vec();
    // CDF moves u, so the ε sweep re-solves Eq. 3 at every step; between
    // sweeps only the committed pair's denominators change.
    let mut free_pages = free_pages_per_erase(&u, model);
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..cfg.iterations {
        let ec = erase_counts(wc_pages, &free_pages);
        if rsd(ec.iter().copied()) < cfg.stop_rsd {
            break;
        }
        // A source must sit above the 50 % floor and still have round
        // budget left.
        let Some((x, y)) = max_min_pair(&ec, |i| {
            u[i] >= cfg.min_source_utilization && -delta[i] < cfg.max_shed_per_device
        }) else {
            break;
        };
        // Per-device floor for this round: the 50 % rule or the shed cap,
        // whichever binds first.
        let floor = cfg
            .min_source_utilization
            .max(utilization[x] - cfg.max_shed_per_device);
        let mut shift = 0.0;
        let mut eps = 0.0;
        while eps < 1.0 {
            let du = u[x] * eps;
            if u[x] - du < floor || u[y] + du > cfg.dest_util_cap {
                // Hit a guard rail before equalizing: commit the largest
                // admissible shift.
                shift = (u[x] - floor).min(cfg.dest_util_cap - u[y]).max(0.0);
                break;
            }
            let de = model.erase_count(wc_pages[x], u[x] - du)
                - model.erase_count(wc_pages[y], u[y] + du);
            if de <= 0.0 {
                shift = du;
                break;
            }
            eps += cfg.eps_step;
        }
        if shift <= 1e-9 {
            break;
        }
        delta[x] -= shift;
        delta[y] += shift;
        u[x] -= shift;
        u[y] += shift;
        for i in [x, y] {
            free_pages[i] = model.free_pages_per_erase(u[i]);
        }
        used += 1;
    }
    MovementAmounts {
        delta,
        final_erases: erase_counts(wc_pages, &free_pages),
        iterations_used: used,
    }
}

/// Eq. 4's denominator `Np · (1 − F(uᵢ))` per device: one Eq. 3 solve
/// each. [`calculate_hdf`] takes these in place of utilizations.
pub fn free_pages_per_erase(utilization: &[f64], model: &MeanFieldModel) -> Vec<f64> {
    utilization
        .iter()
        .map(|&u| model.free_pages_per_erase(u))
        .collect()
}

/// Eq. 4 per device from the precomputed denominators.
fn erase_counts(wc: &[f64], free_pages: &[f64]) -> Vec<f64> {
    wc.iter().zip(free_pages).map(|(&w, &f)| w / f).collect()
}

fn validate_wc(wc: &[f64], per_device: &[f64]) {
    assert_eq!(
        wc.len(),
        per_device.len(),
        "wc and per-device arrays must align"
    );
    assert!(
        wc.iter().all(|w| w.is_finite() && *w >= 0.0),
        "write pages must be finite and non-negative"
    );
}

/// Indices of the devices with maximal and minimal erase count; the source
/// must additionally satisfy `source_ok`. `None` when no distinct
/// admissible pair with a strict gap exists.
fn max_min_pair(ec: &[f64], source_ok: impl Fn(usize) -> bool) -> Option<(usize, usize)> {
    let mut x: Option<usize> = None;
    let mut y: Option<usize> = None;
    for i in 0..ec.len() {
        if source_ok(i) && x.is_none_or(|x| ec[i] > ec[x]) {
            x = Some(i);
        }
        if y.is_none_or(|y| ec[i] < ec[y]) {
            y = Some(i);
        }
    }
    match (x, y) {
        (Some(x), Some(y)) if x != y && ec[x] > ec[y] => Some((x, y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_model::{u_of_v, GcPolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> MeanFieldModel {
        MeanFieldModel::paper(32)
    }

    /// HDF as `Edm` runs it: the paper model's denominators, then
    /// Algorithm 1.
    fn hdf(wc: &[f64], u: &[f64], cfg: &Alg1Config) -> MovementAmounts {
        calculate_hdf(wc, &free_pages_per_erase(u, &model()), cfg)
    }

    /// Algorithm 1 as the paper states it: Eq. 4 through
    /// `MeanFieldModel::erase_count` — one Eq. 3 solve — at every evaluation.
    /// `move_u` selects the CDF variant. The functions above must match
    /// this bit for bit.
    fn naive(
        move_u: bool,
        wc_pages: &[f64],
        utilization: &[f64],
        m: &MeanFieldModel,
        cfg: &Alg1Config,
    ) -> MovementAmounts {
        let n = wc_pages.len();
        let (mut wc, mut u) = (wc_pages.to_vec(), utilization.to_vec());
        let mut delta = vec![0.0; n];
        let mut used = 0;
        let erases = |wc: &[f64], u: &[f64]| -> Vec<f64> {
            (0..n).map(|i| m.erase_count(wc[i], u[i])).collect()
        };
        for _ in 0..cfg.iterations {
            let ec = erases(&wc, &u);
            if rsd(ec.iter().copied()) < cfg.stop_rsd {
                break;
            }
            let pair = max_min_pair(&ec, |i| {
                !move_u
                    || (u[i] >= cfg.min_source_utilization && -delta[i] < cfg.max_shed_per_device)
            });
            let Some((x, y)) = pair else {
                break;
            };
            let floor = cfg
                .min_source_utilization
                .max(utilization[x] - cfg.max_shed_per_device);
            let mut shift = 0.0;
            let mut eps = 0.0;
            while eps < 1.0 {
                let d = if move_u { u[x] * eps } else { wc[x] * eps };
                if move_u && (u[x] - d < floor || u[y] + d > cfg.dest_util_cap) {
                    shift = (u[x] - floor).min(cfg.dest_util_cap - u[y]).max(0.0);
                    break;
                }
                let de = if move_u {
                    m.erase_count(wc[x], u[x] - d) - m.erase_count(wc[y], u[y] + d)
                } else {
                    m.erase_count(wc[x] - d, u[x]) - m.erase_count(wc[y] + d, u[y])
                };
                if de <= 0.0 {
                    shift = d;
                    break;
                }
                eps += cfg.eps_step;
            }
            if shift <= if move_u { 1e-9 } else { 0.0 } {
                break;
            }
            delta[x] -= shift;
            delta[y] += shift;
            let moved = if move_u { &mut u } else { &mut wc };
            moved[x] -= shift;
            moved[y] += shift;
            used += 1;
        }
        MovementAmounts {
            delta,
            final_erases: erases(&wc, &u),
            iterations_used: used,
        }
    }

    fn assert_bit_identical(got: &MovementAmounts, want: &MovementAmounts, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.delta), bits(&want.delta), "{what}: delta");
        assert_eq!(
            bits(&got.final_erases),
            bits(&want.final_erases),
            "{what}: final_erases"
        );
        assert_eq!(got.iterations_used, want.iterations_used, "{what}");
    }

    /// Seeded grid: group sizes 2–64, both σ, utilizations on both clamps
    /// of the Eq. 3 solve (≤ σ and ≥ `u_of_v(0.999)`) and between, zero and
    /// equal write counts.
    #[test]
    fn matches_the_naive_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xA161);
        let cfg = Alg1Config {
            iterations: 40, // keeps the naive side's debug-build cost down
            ..Alg1Config::default()
        };
        let high_clamp = u_of_v(0.999);
        let (mut hdf_moved, mut cdf_moved) = (0, 0);
        for m in [MeanFieldModel::with_gc(32, 0.0, GcPolicy::Greedy), model()] {
            for n in [2usize, 3, 4, 7, 16, 64] {
                for case in 0..4 {
                    let u: Vec<f64> = (0..n)
                        .map(|i| match (case + i) % 5 {
                            0 => m.sigma * rng.gen::<f64>(),
                            1 => high_clamp + (1.0 - high_clamp) * rng.gen::<f64>(),
                            _ => rng.gen_range(0.3..0.95),
                        })
                        .collect();
                    let wc: Vec<f64> = (0..n)
                        .map(|i| match (case, i % 3) {
                            (0, _) => 25_000.0,
                            (1, 0) => 0.0,
                            _ => rng.gen_range(0.0..200_000.0f64).floor(),
                        })
                        .collect();
                    let what = format!("σ={} n={n} case={case}", m.sigma);
                    let hdf = calculate_hdf(&wc, &free_pages_per_erase(&u, &m), &cfg);
                    assert_bit_identical(
                        &hdf,
                        &naive(false, &wc, &u, &m, &cfg),
                        &format!("hdf {what}"),
                    );
                    let cdf = calculate_cdf(&wc, &u, &m, &cfg);
                    assert_bit_identical(
                        &cdf,
                        &naive(true, &wc, &u, &m, &cfg),
                        &format!("cdf {what}"),
                    );
                    hdf_moved += usize::from(hdf.iterations_used > 0);
                    cdf_moved += usize::from(cdf.iterations_used > 0);
                }
            }
        }
        // 48 inputs per variant; the grid must not be all fixed points.
        assert!(
            hdf_moved >= 24 && cdf_moved >= 24,
            "{hdf_moved} {cdf_moved}"
        );
    }

    #[test]
    fn hdf_reduces_wear_imbalance() {
        let wc = [100_000.0, 20_000.0, 30_000.0, 10_000.0];
        let u = [0.7, 0.6, 0.65, 0.5];
        let m = model();
        let before: Vec<f64> = (0..4).map(|i| m.erase_count(wc[i], u[i])).collect();
        let out = hdf(&wc, &u, &Alg1Config::default());
        assert!(
            rsd(out.final_erases.iter().copied()) < rsd(before.iter().copied()) * 0.2,
            "imbalance must shrink dramatically: {:?} -> {:?}",
            before,
            out.final_erases
        );
    }

    #[test]
    fn hdf_deltas_conserve_write_pages() {
        let wc = [50_000.0, 10_000.0, 5_000.0];
        let u = [0.7, 0.7, 0.7];
        let out = hdf(&wc, &u, &Alg1Config::default());
        let total: f64 = out.delta.iter().sum();
        assert!(total.abs() < 1e-6, "ΔWc must sum to zero, got {total}");
        // The hottest device sheds, the coldest gains.
        assert!(out.delta[0] < 0.0);
        assert!(out.delta[2] > 0.0);
    }

    #[test]
    fn equal_utilization_hdf_equalizes_wc() {
        let wc = [40_000.0, 0.0];
        let u = [0.6, 0.6];
        let out = hdf(&wc, &u, &Alg1Config::default());
        // With equal u, balance means equal Wc: each ends near 20 000.
        assert!((out.delta[0] + 20_000.0).abs() < 1_000.0, "{:?}", out.delta);
        assert!((out.delta[1] - 20_000.0).abs() < 1_000.0);
    }

    #[test]
    fn balanced_input_is_a_fixed_point() {
        let wc = [10_000.0; 4];
        let u = [0.6; 4];
        let out = hdf(&wc, &u, &Alg1Config::default());
        assert!(out.delta.iter().all(|d| *d == 0.0));
        assert_eq!(out.iterations_used, 0);
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta.iter().all(|d| *d == 0.0));
    }

    #[test]
    fn hdf_respects_utilization_in_the_model() {
        // Same writes everywhere, but one device is much fuller: it has
        // the highest model wear, so HDF shifts writes away from it.
        let wc = [20_000.0; 3];
        let u = [0.95, 0.5, 0.5];
        let out = hdf(&wc, &u, &Alg1Config::default());
        assert!(out.delta[0] < 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_deltas_conserve_utilization() {
        let wc = [30_000.0, 30_000.0, 30_000.0];
        let u = [0.9, 0.6, 0.55];
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        let total: f64 = out.delta.iter().sum();
        assert!(total.abs() < 1e-9);
        assert!(
            out.delta[0] < 0.0,
            "fullest device must shed: {:?}",
            out.delta
        );
    }

    #[test]
    fn cdf_never_drains_source_below_half() {
        let wc = [80_000.0, 10_000.0];
        let u = [0.55, 0.30];
        let cfg = Alg1Config::default();
        let out = calculate_cdf(&wc, &u, &model(), &cfg);
        assert!(u[0] + out.delta[0] >= cfg.min_source_utilization - 1e-9);
    }

    #[test]
    fn cdf_skips_sources_already_below_half() {
        // The wear-hottest device sits below 50 % utilization: CDF cannot
        // help it (§III.B.5), so no movement is planned from it.
        let wc = [90_000.0, 10_000.0];
        let u = [0.40, 0.60];
        let out = calculate_cdf(&wc, &u, &model(), &Alg1Config::default());
        assert!(out.delta[0] >= 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_respects_destination_cap() {
        let wc = [50_000.0, 50_000.0];
        let u = [0.94, 0.93];
        let cfg = Alg1Config::default();
        let out = calculate_cdf(&wc, &u, &model(), &cfg);
        assert!(u[1] + out.delta[1] <= cfg.dest_util_cap + 1e-9);
    }

    #[test]
    fn single_device_is_a_noop() {
        let out = hdf(&[1e5], &[0.7], &Alg1Config::default());
        assert_eq!(out.delta, vec![0.0]);
        let out = calculate_cdf(&[1e5], &[0.7], &model(), &Alg1Config::default());
        assert_eq!(out.delta, vec![0.0]);
    }

    #[test]
    fn iteration_budget_limits_work() {
        let wc = [100_000.0, 10.0, 20.0, 30.0];
        let u = [0.7; 4];
        let cfg = Alg1Config {
            iterations: 3,
            ..Default::default()
        };
        let out = hdf(&wc, &u, &cfg);
        assert!(out.iterations_used <= 3);
    }

    #[test]
    fn coarser_epsilon_still_converges_roughly() {
        let wc = [60_000.0, 10_000.0, 5_000.0];
        let u = [0.7, 0.6, 0.6];
        let fine = hdf(&wc, &u, &Alg1Config::default());
        let coarse = hdf(
            &wc,
            &u,
            &Alg1Config {
                eps_step: 0.01,
                ..Default::default()
            },
        );
        let r_fine = rsd(fine.final_erases.iter().copied());
        let r_coarse = rsd(coarse.final_erases.iter().copied());
        assert!(
            r_coarse < 0.15,
            "coarse grid should still balance: {r_coarse}"
        );
        assert!(r_fine <= r_coarse + 0.05);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_arrays_panic() {
        calculate_hdf(&[1.0], &[32.0, 32.0], &Alg1Config::default());
    }
}
