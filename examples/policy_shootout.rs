//! All four systems of the paper's evaluation head to head on one trace:
//! Baseline, CMT (Sorrento-style), EDM-HDF, EDM-CDF — a one-trace slice
//! of Figures 5, 6 and 8.
//!
//! Pass a trace name (default `home02`) and an optional scale:
//!
//! ```text
//! cargo run --release -p edm-harness --example policy_shootout -- lair62 0.02
//! ```

use edm_cluster::{run_trace, Cluster, ClusterConfig, SimOptions};
use edm_core::{make_policy, EdmConfig, POLICY_NAMES};
use edm_workload::harvard;
use edm_workload::synth::synthesize;

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the tool's configuration, not simulation input"
    )]
    let mut args = std::env::args().skip(1);
    let trace_name = args.next().unwrap_or_else(|| "home02".into());
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(0.01);

    let trace = synthesize(&harvard::spec(&trace_name).scaled(scale));
    println!(
        "trace {trace_name} @ scale {scale}: {} records over {} files\n",
        trace.records.len(),
        trace.file_sizes.len()
    );

    let mut rows = Vec::new();
    for name in POLICY_NAMES {
        let cluster = Cluster::build(ClusterConfig::paper(16), &trace).expect("build");
        let mut policy = make_policy(name, EdmConfig::default()).expect("evaluation name");
        let r = run_trace(cluster, &trace, policy.as_mut(), SimOptions::default());
        rows.push(r);
    }

    let base_tp = rows[0].throughput_ops_per_sec();
    let base_er = rows[0].aggregate_erases() as f64;
    println!(
        "{:<9} {:>10} {:>9} {:>10} {:>9} {:>7} {:>9}",
        "policy", "ops/s", "vs base", "erases", "vs base", "moved", "erase RSD"
    );
    for r in &rows {
        println!(
            "{:<9} {:>10.0} {:>8.1}% {:>10} {:>8.1}% {:>7} {:>9.3}",
            r.policy,
            r.throughput_ops_per_sec(),
            (r.throughput_ops_per_sec() / base_tp - 1.0) * 100.0,
            r.aggregate_erases(),
            (r.aggregate_erases() as f64 / base_er - 1.0) * 100.0,
            r.moved_objects,
            r.erase_rsd(),
        );
    }
    println!();
    println!("Expected shape (paper §V): HDF ~ CMT > CDF > Baseline on throughput;");
    println!("HDF cuts erases, CMT often increases them; moved: CMT > CDF > HDF.");
}
