//! Write your own migration scheme: implement `edm_cluster::Migrator`
//! and plug it into the same simulator the paper's policies run on.
//!
//! The example policy below is deliberately simple — "WearRoundRobin":
//! at the migration point it takes the most-written object of the single
//! most-worn OSD and parks it on the least-worn member of the same group.
//! It under-performs EDM-HDF (it ignores the wear model entirely), which
//! is exactly the point: the harness makes that measurable.
//!
//! ```text
//! cargo run --release -p edm-harness --example custom_policy
//! ```

use std::collections::HashMap;

use edm_cluster::{
    run_trace, AccessEvent, AccessKind, Cluster, ClusterConfig, ClusterView, Migrator, MoveAction,
    ObjectId, SimOptions,
};
use edm_core::{Edm, EdmConfig, Selection};
use edm_workload::harvard;
use edm_workload::synth::synthesize;

/// A minimal wear-aware policy: one object, hottest-from-most-worn, to
/// the least-worn group peer.
struct WearRoundRobin {
    write_pages: HashMap<ObjectId, u64>,
}

impl WearRoundRobin {
    fn new() -> Self {
        WearRoundRobin {
            write_pages: HashMap::new(),
        }
    }
}

impl Migrator for WearRoundRobin {
    fn name(&self) -> &str {
        "WearRoundRobin"
    }

    // Hook 1: observe every object-level I/O.
    fn on_access(&mut self, event: AccessEvent) {
        if event.kind == AccessKind::Write {
            *self.write_pages.entry(event.object).or_insert(0) += event.pages;
        }
    }

    // Hook 2: produce movement triples when the simulator asks.
    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
        // Most-worn OSD by real write volume.
        let Some(hot) = view.osds.iter().max_by_key(|o| o.wc_pages) else {
            return Vec::new();
        };
        // Least-worn member of its group (the intra-group rule of §III.A).
        let Some(cold) = view
            .osds
            .iter()
            .filter(|o| o.group == hot.group && o.osd != hot.osd)
            .min_by_key(|o| o.wc_pages)
        else {
            return Vec::new();
        };
        // Hottest written object currently on the hot device.
        let best = view
            .objects_on(hot.osd)
            .max_by_key(|o| self.write_pages.get(&o.object).copied().unwrap_or(0));
        match best {
            Some(obj) if self.write_pages.get(&obj.object).copied().unwrap_or(0) > 0 => {
                vec![MoveAction {
                    object: obj.object,
                    source: hot.osd,
                    dest: cold.osd,
                }]
            }
            _ => Vec::new(),
        }
    }
}

fn main() {
    let trace = synthesize(&harvard::spec("home02").scaled(0.01));

    println!(
        "{:<15} {:>10} {:>9} {:>8} {:>10}",
        "policy", "ops/s", "erases", "moved", "erase RSD"
    );
    // The custom policy...
    let cluster = Cluster::build(ClusterConfig::paper(16), &trace).expect("build");
    let mut custom = WearRoundRobin::new();
    let r1 = run_trace(cluster, &trace, &mut custom, SimOptions::default());
    println!(
        "{:<15} {:>10.0} {:>9} {:>8} {:>10.3}",
        r1.policy,
        r1.throughput_ops_per_sec(),
        r1.aggregate_erases(),
        r1.moved_objects,
        r1.erase_rsd()
    );

    // ...against the real thing.
    let cluster = Cluster::build(ClusterConfig::paper(16), &trace).expect("build");
    let mut hdf = Edm::new(Selection::Hdf, EdmConfig::default());
    let r2 = run_trace(cluster, &trace, &mut hdf, SimOptions::default());
    println!(
        "{:<15} {:>10.0} {:>9} {:>8} {:>10.3}",
        r2.policy,
        r2.throughput_ops_per_sec(),
        r2.aggregate_erases(),
        r2.moved_objects,
        r2.erase_rsd()
    );

    println!();
    println!(
        "EDM-HDF balances wear to RSD {:.3} vs the toy policy's {:.3}: Algorithm 1",
        r2.erase_rsd(),
        r1.erase_rsd()
    );
    println!("sizes the move set from the wear model instead of guessing one object.");
}
