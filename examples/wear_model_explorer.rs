//! Explore the SSD wear model (Eq. 1–4) against the simulated device.
//!
//! Prints, for a sweep of utilizations, the analytic uᵣ of Eq. 2 and
//! Eq. 3 next to the uᵣ actually measured on the flash simulator under a
//! skewed and a uniform write workload — a miniature of the paper's
//! Fig. 3.
//!
//! ```text
//! cargo run --release -p edm-harness --example wear_model_explorer
//! ```

use edm_model::{u_of_v, MeanFieldModel};
use edm_obs::NoopRecorder;
use edm_ssd::{Geometry, LatencyModel, Ssd};

/// Measures uᵣ on a real simulated SSD at a given live-data utilization,
/// under either uniform or skewed (90/10) overwrites.
fn measure(utilization: f64, skewed: bool) -> f64 {
    let capacity = 64u64 << 20; // 64 MB device
    let mut ssd = Ssd::new(
        Geometry::for_exported_capacity(capacity),
        LatencyModel::INSTANT,
    );
    let page = ssd.geometry().page_size;
    let live_pages = (ssd.geometry().exported_pages() as f64 * utilization) as u64;
    for p in 0..live_pages {
        ssd.write(p * page, page, &mut NoopRecorder)
            .expect("populate");
    }
    ssd.warm_up().expect("warm-up");
    // Overwrite traffic: either uniform over the live set, or 90 % of
    // writes to the first 10 % of pages.
    let mut x = 0x243F6A8885A308D3u64;
    let writes = live_pages * 8;
    for _ in 0..writes {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 11;
        let p = if skewed {
            if r % 10 < 9 {
                r % (live_pages / 10).max(1)
            } else {
                r % live_pages
            }
        } else {
            r % live_pages
        };
        ssd.write(p * page, page, &mut NoopRecorder)
            .expect("overwrite");
    }
    ssd.snapshot().measured_ur.unwrap_or(0.0)
}

fn main() {
    let eq2 = MeanFieldModel::new(32, 0.0);
    let eq3 = MeanFieldModel::paper(32);

    println!("analytic check: u(ur=0.5) = {:.4}", u_of_v(0.5));
    println!();
    println!("   u | Eq.2 ur | Eq.3 ur | uniform measured | skewed measured");
    println!("-----+---------+---------+------------------+----------------");
    for i in 3..=9 {
        let u = i as f64 / 10.0;
        let uniform = measure(u, false);
        let skewed = measure(u, true);
        println!(
            "{u:.2} |  {:.3}  |  {:.3}  |       {uniform:.3}      |      {skewed:.3}",
            eq2.victim_valid_ratio(u),
            eq3.victim_valid_ratio(u),
        );
    }
    println!();
    println!("Eq.2 tracks the uniform column; the skewed column falls below it,");
    println!("which is why EDM corrects the estimate with sigma = 0.28 (Eq. 3).");
    println!();
    println!("Eq. 4 in action: erases for 1M page writes on a 32-page-block SSD");
    for u in [0.4, 0.6, 0.8, 0.95] {
        println!(
            "  u = {u:.2}: {:>8.0} erases (ideal floor {:.0})",
            eq3.erase_count(1e6, u),
            1e6 / 32.0
        );
    }
}
