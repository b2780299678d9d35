//! Compose two tenants' workloads onto one cluster and compare how each
//! migration policy handles the combined skew: a read-heavy home
//! directory tenant plus a write-heavy research tenant — the
//! "non-uniform access distribution" setting of §I, doubled.
//!
//! ```text
//! cargo run --release -p edm-harness --example multi_tenant
//! ```

use edm_cluster::{run_trace, Cluster, ClusterConfig, SimOptions};
use edm_core::{make_policy, EdmConfig, POLICY_NAMES};
use edm_workload::synth::synthesize;
use edm_workload::transform::merge;
use edm_workload::{harvard, profile};

fn main() {
    let tenant_a = synthesize(&harvard::spec("home02").scaled(0.01));
    let tenant_b = synthesize(&harvard::spec("lair62").scaled(0.01));
    let combined = merge("home02+lair62", &[&tenant_a, &tenant_b]);

    println!(
        "tenant A (home02): {} records | tenant B (lair62): {} records",
        tenant_a.records.len(),
        tenant_b.records.len()
    );
    let p = profile(&combined);
    println!(
        "combined: {} records, {} files, write gini {:.3}, hot-set overlap {:.3}\n",
        combined.records.len(),
        combined.file_sizes.len(),
        p.write_gini,
        p.hot_set_overlap
    );

    println!(
        "{:<9} {:>10} {:>10} {:>8} {:>10}",
        "policy", "ops/s", "erases", "moved", "erase RSD"
    );
    let mut base_tp = 0.0;
    for name in POLICY_NAMES {
        let cluster = Cluster::build(ClusterConfig::paper(16), &combined).expect("build");
        let mut policy = make_policy(name, EdmConfig::default()).expect("evaluation name");
        let r = run_trace(cluster, &combined, policy.as_mut(), SimOptions::default());
        if name == "Baseline" {
            base_tp = r.throughput_ops_per_sec();
        }
        println!(
            "{:<9} {:>10.0} {:>10} {:>8} {:>10.3}  ({:+.1}% vs base)",
            r.policy,
            r.throughput_ops_per_sec(),
            r.aggregate_erases(),
            r.moved_objects,
            r.erase_rsd(),
            (r.throughput_ops_per_sec() / base_tp - 1.0) * 100.0
        );
    }
    println!();
    println!("the write-heavy tenant concentrates wear; EDM-HDF relocates its hot");
    println!("objects without disturbing the read-mostly tenant's working set.");
}
