//! Quickstart: build a small SSD cluster, replay a scaled Harvard trace
//! under EDM-HDF, and print the headline numbers.
//!
//! ```text
//! cargo run --release -p edm-harness --example quickstart
//! ```

use edm_cluster::{run_trace, Cluster, ClusterConfig, SimOptions};
use edm_core::{Edm, EdmConfig, Selection};
use edm_workload::harvard;
use edm_workload::synth::synthesize;

fn main() {
    // 1. A workload: home02 from Table 1 of the paper, scaled to 1 % so
    //    the example finishes in seconds.
    let spec = harvard::spec("home02").scaled(0.01);
    let trace = synthesize(&spec);
    println!(
        "trace {}: {} files, {} writes, {} reads",
        trace.name,
        trace.file_sizes.len(),
        trace.stats().write_cnt,
        trace.stats().read_cnt
    );

    // 2. A cluster: 16 OSDs in the paper's configuration (4 groups, 4
    //    objects per file, max utilization ~70 %).
    let cluster = Cluster::build(ClusterConfig::paper(16), &trace).expect("build cluster");
    println!(
        "cluster: 16 OSDs, {:.1} MB each, max utilization {:.2}",
        cluster.osd(edm_cluster::OsdId(0)).capacity_bytes() as f64 / 1e6,
        cluster.max_utilization()
    );

    // 3. Replay under EDM-HDF: migration fires at the trace midpoint.
    let mut policy = Edm::new(Selection::Hdf, EdmConfig::default());
    let report = run_trace(cluster, &trace, &mut policy, SimOptions::default());

    println!("== {} ==", report.policy);
    println!(
        "throughput        {:.0} file ops/s",
        report.throughput_ops_per_sec()
    );
    println!("mean response     {:.0} us", report.mean_response_us);
    println!("aggregate erases  {}", report.aggregate_erases());
    println!(
        "moved objects     {} of {} ({:.2}%)",
        report.moved_objects,
        report.total_objects,
        report.moved_fraction() * 100.0
    );
    println!("erase-count RSD   {:.3}", report.erase_rsd());
}
