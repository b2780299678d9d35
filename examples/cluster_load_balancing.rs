//! Watch EDM balance wear across a cluster: replay a write-skewed trace
//! under Baseline and EDM-HDF and compare the per-OSD erase distribution
//! before/after — the motivation of §II made visible.
//!
//! ```text
//! cargo run --release -p edm-harness --example cluster_load_balancing
//! ```

use edm_cluster::{run_trace, Cluster, ClusterConfig, NoMigration, SimOptions};
use edm_core::{Edm, EdmConfig, Selection};
use edm_workload::harvard;
use edm_workload::synth::synthesize;

fn bar(value: u64, max: u64, width: usize) -> String {
    let filled = if max == 0 {
        0
    } else {
        (value as f64 / max as f64 * width as f64).round() as usize
    };
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn main() {
    // lair62: the most write-skewed of the seven traces (Fig. 1 shows its
    // wear variance is among the widest).
    let trace = synthesize(&harvard::spec("lair62").scaled(0.01));
    let osds = 8u32;

    let mut outcomes = Vec::new();
    for policy_name in ["Baseline", "EDM-HDF"] {
        let cluster = Cluster::build(ClusterConfig::paper(osds), &trace).expect("build");
        let report = match policy_name {
            "Baseline" => {
                let mut p = NoMigration;
                run_trace(cluster, &trace, &mut p, SimOptions::default())
            }
            _ => {
                let mut p = Edm::new(Selection::Hdf, EdmConfig::default());
                run_trace(cluster, &trace, &mut p, SimOptions::default())
            }
        };
        outcomes.push(report);
    }

    for report in &outcomes {
        println!("== {} ==", report.policy);
        let max = report
            .per_osd
            .iter()
            .map(|o| o.erase_count)
            .max()
            .unwrap_or(0);
        for o in &report.per_osd {
            println!(
                "  osd{:<2} {:>7} erases  {}",
                o.osd,
                o.erase_count,
                bar(o.erase_count, max, 40)
            );
        }
        println!(
            "  erase RSD {:.3} | aggregate erases {} | throughput {:.0} ops/s | moved {}",
            report.erase_rsd(),
            report.aggregate_erases(),
            report.throughput_ops_per_sec(),
            report.moved_objects
        );
        println!();
    }

    let (base, hdf) = (&outcomes[0], &outcomes[1]);
    println!(
        "EDM-HDF vs Baseline: wear RSD {:.3} -> {:.3}, erases {:+.1}%, throughput {:+.1}%",
        base.erase_rsd(),
        hdf.erase_rsd(),
        (hdf.aggregate_erases() as f64 / base.aggregate_erases() as f64 - 1.0) * 100.0,
        (hdf.throughput_ops_per_sec() / base.throughput_ops_per_sec() - 1.0) * 100.0,
    );
}
