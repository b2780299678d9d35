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

/// Outer iteration count ("total iteration step is set to 500").
pub const ITERATIONS: usize = 500;

/// ε grid step of the inner sweep (0.001 in the paper).
pub const EPS_STEP: f64 = 0.001;

/// Stop iterating once the relative standard deviation of the model
/// erase counts falls below this — the same "significant wear imbalance"
/// criterion as the trigger (§III.B.2); further shuffling would move data
/// for no wear benefit.
pub const STOP_RSD: f64 = 0.05;

/// CDF only: never raise a destination's utilization beyond this.
pub const DEST_UTIL_CAP: f64 = 0.95;

/// CDF only: never lower a source below 50 % utilization — below the knee
/// of Fig. 3, "further reduction of the disk utilization has almost no
/// effect on the wear frequency" (§III.B.5). Also read by
/// `Selection::may_shed`.
pub(crate) const MIN_SOURCE_UTILIZATION: f64 = 0.50;

/// CDF only: utilization a single migration round may shed from one
/// device. When write intensities differ strongly, equalizing Eq. 4
/// through utilization alone would drain hot sources straight to the
/// 50 % floor — tens of percent of capacity in one round; this cap bounds
/// the round (the same disk-saturation reasoning as §III.B.5's
/// destination threshold) and leaves the rest to later rounds.
pub const MAX_SHED_PER_DEVICE: f64 = 0.015;

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
pub fn calculate_hdf(wc_pages: &[f64], free_pages: &[f64]) -> MovementAmounts {
    validate_wc(wc_pages, free_pages);
    assert!(
        free_pages.iter().all(|f| f.is_finite() && *f > 0.0),
        "free pages per erase must be finite and positive"
    );
    let n = wc_pages.len();
    let mut wc = wc_pages.to_vec();
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..ITERATIONS {
        let ec = erase_counts(&wc, free_pages);
        if rsd(ec.iter().copied()) < STOP_RSD {
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
            eps += EPS_STEP;
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
/// restricted to devices at or above `MIN_SOURCE_UTILIZATION`, and no
/// destination is pushed past [`DEST_UTIL_CAP`].
pub fn calculate_cdf(
    wc_pages: &[f64],
    utilization: &[f64],
    model: &MeanFieldModel,
) -> MovementAmounts {
    validate_wc(wc_pages, utilization);
    assert!(
        utilization.iter().all(|x| (0.0..=1.0).contains(x)),
        "utilizations must be in [0, 1]"
    );
    let n = wc_pages.len();
    let mut u = utilization.to_vec();
    // CDF moves u, so each ε probe solves Eq. 3 for the pair. The sweep
    // starts at the first nonzero ε: at ε = 0, Δe = ec[x] − ec[y] > 0 by
    // the pair's choice, and any guard rail that fires there fires again
    // at ε = EPS_STEP with the same shift (the shift does not depend on
    // ε). A crossing commits `shift = du`, whose `u` bits are the ones the
    // probe solved, so those two denominators are kept; only a guard-rail
    // commit re-solves. Bit-identical to solving at every evaluation.
    let mut free_pages = free_pages_per_erase(&u, model);
    let mut delta = vec![0.0; n];
    let mut used = 0;
    for _ in 0..ITERATIONS {
        let ec = erase_counts(wc_pages, &free_pages);
        if rsd(ec.iter().copied()) < STOP_RSD {
            break;
        }
        // A source must sit above the 50 % floor and still have round
        // budget left.
        let Some((x, y)) = max_min_pair(&ec, |i| {
            u[i] >= MIN_SOURCE_UTILIZATION && -delta[i] < MAX_SHED_PER_DEVICE
        }) else {
            break;
        };
        // Per-device floor for this round: the 50 % rule or the shed cap,
        // whichever binds first.
        let floor = MIN_SOURCE_UTILIZATION.max(utilization[x] - MAX_SHED_PER_DEVICE);
        let mut shift = 0.0;
        let mut crossed = None;
        let mut eps = EPS_STEP;
        while eps < 1.0 {
            let du = u[x] * eps;
            if u[x] - du < floor || u[y] + du > DEST_UTIL_CAP {
                // Hit a guard rail before equalizing: commit the largest
                // admissible shift.
                shift = (u[x] - floor).min(DEST_UTIL_CAP - u[y]).max(0.0);
                break;
            }
            let fx = model.free_pages_per_erase(u[x] - du);
            let fy = model.free_pages_per_erase(u[y] + du);
            if wc_pages[x] / fx - wc_pages[y] / fy <= 0.0 {
                shift = du;
                crossed = Some((fx, fy));
                break;
            }
            eps += EPS_STEP;
        }
        if shift <= 1e-9 {
            break;
        }
        delta[x] -= shift;
        delta[y] += shift;
        u[x] -= shift;
        u[y] += shift;
        (free_pages[x], free_pages[y]) = crossed.unwrap_or_else(|| {
            (
                model.free_pages_per_erase(u[x]),
                model.free_pages_per_erase(u[y]),
            )
        });
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
    use edm_model::u_of_v;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model() -> MeanFieldModel {
        MeanFieldModel::paper(32)
    }

    /// HDF as `Edm` runs it: the paper model's denominators, then
    /// Algorithm 1.
    fn hdf(wc: &[f64], u: &[f64]) -> MovementAmounts {
        calculate_hdf(wc, &free_pages_per_erase(u, &model()))
    }

    /// Algorithm 1 as the paper states it: Eq. 4 through
    /// `MeanFieldModel::erase_count` — one Eq. 3 solve — at every evaluation.
    /// `move_u` selects the CDF variant. The functions above must match
    /// this bit for bit. Tallies how each CDF sweep ends into `exits`.
    fn naive(
        move_u: bool,
        wc_pages: &[f64],
        utilization: &[f64],
        m: &MeanFieldModel,
        exits: &mut SweepExits,
    ) -> MovementAmounts {
        let n = wc_pages.len();
        let (mut wc, mut u) = (wc_pages.to_vec(), utilization.to_vec());
        let mut delta = vec![0.0; n];
        let mut used = 0;
        let erases = |wc: &[f64], u: &[f64]| -> Vec<f64> {
            (0..n).map(|i| m.erase_count(wc[i], u[i])).collect()
        };
        for _ in 0..ITERATIONS {
            let ec = erases(&wc, &u);
            if rsd(ec.iter().copied()) < STOP_RSD {
                break;
            }
            let pair = max_min_pair(&ec, |i| {
                !move_u || (u[i] >= MIN_SOURCE_UTILIZATION && -delta[i] < MAX_SHED_PER_DEVICE)
            });
            let Some((x, y)) = pair else {
                break;
            };
            let floor = MIN_SOURCE_UTILIZATION.max(utilization[x] - MAX_SHED_PER_DEVICE);
            let mut shift = 0.0;
            let mut eps = 0.0;
            while eps < 1.0 {
                let d = if move_u { u[x] * eps } else { wc[x] * eps };
                if move_u && (u[x] - d < floor || u[y] + d > DEST_UTIL_CAP) {
                    shift = (u[x] - floor).min(DEST_UTIL_CAP - u[y]).max(0.0);
                    let rail = if eps == 0.0 {
                        &mut exits.rail_at_zero
                    } else {
                        &mut exits.later_rail
                    };
                    *rail += 1;
                    break;
                }
                let de = if move_u {
                    m.erase_count(wc[x], u[x] - d) - m.erase_count(wc[y], u[y] + d)
                } else {
                    m.erase_count(wc[x] - d, u[x]) - m.erase_count(wc[y] + d, u[y])
                };
                if de <= 0.0 {
                    shift = d;
                    if move_u {
                        let crossing = if eps == EPS_STEP {
                            &mut exits.first_crossing
                        } else {
                            &mut exits.later_crossing
                        };
                        *crossing += 1;
                    }
                    break;
                }
                eps += EPS_STEP;
            }
            if shift <= if move_u { 1e-9 } else { 0.0 } {
                exits.no_shift += usize::from(move_u);
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

    /// How the reference's CDF sweeps ended: at a crossing on the first
    /// nonzero ε or a later one, at a guard rail on ε = 0 or later; and
    /// how many runs stopped on a shift ≤ 1e-9.
    #[derive(Debug, Default)]
    struct SweepExits {
        first_crossing: usize,
        later_crossing: usize,
        rail_at_zero: usize,
        later_rail: usize,
        no_shift: usize,
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
    /// equal write counts; then the ingest regime. Every CDF sweep exit
    /// is taken at least once.
    #[test]
    fn matches_the_naive_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xA161);
        let high_clamp = u_of_v(0.999);
        let (mut hdf_moved, mut cdf_moved) = (0, 0);
        let mut exits = SweepExits::default();
        for m in [MeanFieldModel::new(32, 0.0), model()] {
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
                    let hdf = calculate_hdf(&wc, &free_pages_per_erase(&u, &m));
                    let want = naive(false, &wc, &u, &m, &mut exits);
                    assert_bit_identical(&hdf, &want, &format!("hdf {what}"));
                    let cdf = calculate_cdf(&wc, &u, &m);
                    let want = naive(true, &wc, &u, &m, &mut exits);
                    assert_bit_identical(&cdf, &want, &format!("cdf {what}"));
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
        // The ingest regime, where the shed cap and the 50 % floor bind:
        // groups of 4 (as `Edm` runs them) and 16, utilizations in
        // [0.5, 0.95] spread under 0.03, write counts spread 10×.
        let m = model();
        for n in [4usize, 16] {
            for case in 0..32 {
                let base = rng.gen_range(0.5..0.92);
                let u: Vec<f64> = (0..n).map(|_| base + rng.gen_range(0.0..0.03)).collect();
                let wc: Vec<f64> = (0..n)
                    .map(|_| (10_000.0 * rng.gen_range(1.0..10.0f64)).floor())
                    .collect();
                let want = naive(true, &wc, &u, &m, &mut exits);
                let what = format!("ingest n={n} case={case}");
                assert_bit_identical(&calculate_cdf(&wc, &u, &m), &want, &what);
            }
        }
        // Every way a CDF sweep can end must occur. A rail at ε = 0 needs
        // a destination above the cap from the start (a source never
        // drops below its floor), so the first grid supplies it.
        let e = &exits;
        assert!(
            [
                e.first_crossing,
                e.later_crossing,
                e.rail_at_zero,
                e.later_rail,
                e.no_shift
            ]
            .iter()
            .all(|&k| k > 0),
            "{exits:?}"
        );
    }

    #[test]
    fn hdf_reduces_wear_imbalance() {
        let wc = [100_000.0, 20_000.0, 30_000.0, 10_000.0];
        let u = [0.7, 0.6, 0.65, 0.5];
        let m = model();
        let before: Vec<f64> = (0..4).map(|i| m.erase_count(wc[i], u[i])).collect();
        let out = hdf(&wc, &u);
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
        let out = hdf(&wc, &u);
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
        let out = hdf(&wc, &u);
        // With equal u, balance means equal Wc: each ends near 20 000.
        assert!((out.delta[0] + 20_000.0).abs() < 1_000.0, "{:?}", out.delta);
        assert!((out.delta[1] - 20_000.0).abs() < 1_000.0);
    }

    #[test]
    fn balanced_input_is_a_fixed_point() {
        let wc = [10_000.0; 4];
        let u = [0.6; 4];
        let out = hdf(&wc, &u);
        assert!(out.delta.iter().all(|d| *d == 0.0));
        assert_eq!(out.iterations_used, 0);
        let out = calculate_cdf(&wc, &u, &model());
        assert!(out.delta.iter().all(|d| *d == 0.0));
    }

    #[test]
    fn hdf_respects_utilization_in_the_model() {
        // Same writes everywhere, but one device is much fuller: it has
        // the highest model wear, so HDF shifts writes away from it.
        let wc = [20_000.0; 3];
        let u = [0.95, 0.5, 0.5];
        let out = hdf(&wc, &u);
        assert!(out.delta[0] < 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_deltas_conserve_utilization() {
        let wc = [30_000.0, 30_000.0, 30_000.0];
        let u = [0.9, 0.6, 0.55];
        let out = calculate_cdf(&wc, &u, &model());
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
        let out = calculate_cdf(&wc, &u, &model());
        assert!(u[0] + out.delta[0] >= MIN_SOURCE_UTILIZATION - 1e-9);
    }

    #[test]
    fn cdf_skips_sources_already_below_half() {
        // The wear-hottest device sits below 50 % utilization: CDF cannot
        // help it (§III.B.5), so no movement is planned from it.
        let wc = [90_000.0, 10_000.0];
        let u = [0.40, 0.60];
        let out = calculate_cdf(&wc, &u, &model());
        assert!(out.delta[0] >= 0.0, "{:?}", out.delta);
    }

    #[test]
    fn cdf_respects_destination_cap() {
        let wc = [50_000.0, 50_000.0];
        let u = [0.94, 0.93];
        let out = calculate_cdf(&wc, &u, &model());
        assert!(u[1] + out.delta[1] <= DEST_UTIL_CAP + 1e-9);
    }

    #[test]
    fn single_device_is_a_noop() {
        let out = hdf(&[1e5], &[0.7]);
        assert_eq!(out.delta, vec![0.0]);
        let out = calculate_cdf(&[1e5], &[0.7], &model());
        assert_eq!(out.delta, vec![0.0]);
    }

    /// One hot device and 600 idle ones: balancing reaches the stop RSD
    /// only after nearly every idle device has absorbed a share, one pair
    /// per iteration, so the run spends the whole budget.
    #[test]
    fn iteration_budget_limits_work() {
        let mut wc = vec![0.0; 601];
        wc[0] = 1e9;
        let out = hdf(&wc, &[0.7; 601]);
        assert_eq!(out.iterations_used, ITERATIONS);
        assert!(rsd(out.final_erases.iter().copied()) >= STOP_RSD);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_arrays_panic() {
        calculate_hdf(&[1.0], &[32.0, 32.0]);
    }
}
