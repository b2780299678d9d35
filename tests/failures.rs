//! Failure-injection tests: OSD death, degraded RAID-5 service, data
//! loss on double failure, and reconstruction onto surviving group
//! members (§III.A/§III.D machinery under fault).

use edm_cluster::sim::FailureSpec;
use edm_cluster::{
    run_trace, Cluster, ClusterConfig, MigrationSchedule, NoMigration, OsdId, RunReport, SimOptions,
};
use edm_core::{Edm, EdmConfig, Selection};
use edm_workload::synth::synthesize;
use edm_workload::{harvard, Trace};

fn trace(scale: f64) -> Trace {
    synthesize(&harvard::spec("home02").scaled(scale))
}

fn run_with_failures(trace: &Trace, failures: Vec<FailureSpec>) -> RunReport {
    let cluster = Cluster::build(ClusterConfig::paper(8), trace).expect("build");
    let mut policy = NoMigration;
    run_trace(
        cluster,
        trace,
        &mut policy,
        SimOptions {
            schedule: MigrationSchedule::Never,
            failures,
            checkpoint: None,
            ..SimOptions::default()
        },
    )
}

#[test]
fn single_failure_degrades_but_completes_everything() {
    let t = trace(0.002);
    let r = run_with_failures(
        &t,
        vec![FailureSpec {
            at_us: 1_000,
            osd: OsdId(3),
            rebuild: false,
        }],
    );
    assert_eq!(r.completed_ops, t.records.len() as u64, "records lost");
    assert_eq!(r.failed_osds, vec![3]);
    assert!(r.degraded_ops > 0, "no degraded service observed");
    assert_eq!(r.lost_ops, 0, "single failure must be recoverable");
    assert_eq!(r.rebuilt_objects, 0);
}

#[test]
fn degraded_mode_shifts_load_to_siblings() {
    let t = trace(0.002);
    let healthy = run_with_failures(&t, vec![]);
    let failed = run_with_failures(
        &t,
        vec![FailureSpec {
            at_us: 1_000,
            osd: OsdId(0),
            rebuild: false,
        }],
    );
    // The dead OSD stops accumulating busy time; reconstruction reads land
    // on the survivors, so their total busy time grows.
    let healthy_others: u64 = healthy.per_osd.iter().skip(1).map(|o| o.busy_us).sum();
    let failed_others: u64 = failed.per_osd.iter().skip(1).map(|o| o.busy_us).sum();
    assert!(
        failed_others > healthy_others,
        "survivors should absorb reconstruction load: {failed_others} vs {healthy_others}"
    );
    // And the run as a whole slows down.
    assert!(failed.duration_us >= healthy.duration_us);
}

#[test]
fn rebuild_reconstructs_lost_objects_intra_group() {
    let t = trace(0.002);
    let r = run_with_failures(
        &t,
        vec![FailureSpec {
            at_us: 1_000,
            osd: OsdId(2),
            rebuild: true,
        }],
    );
    assert_eq!(r.completed_ops, t.records.len() as u64);
    assert!(r.rebuilt_objects > 0, "nothing was reconstructed");
    // Rebuilt copies count as remapped (they no longer sit on their home).
    assert!(r.remap_entries >= r.rebuilt_objects);
}

#[test]
fn double_failure_in_different_groups_loses_data() {
    // Two failed OSDs in different groups can hold two objects of the
    // same file: RAID-5 cannot reconstruct, and the engine must account
    // the loss rather than wedge.
    let t = trace(0.004);
    let r = run_with_failures(
        &t,
        vec![
            FailureSpec {
                at_us: 1_000,
                osd: OsdId(1),
                rebuild: false,
            },
            FailureSpec {
                at_us: 2_000,
                osd: OsdId(2),
                rebuild: false,
            },
        ],
    );
    assert_eq!(r.completed_ops, t.records.len() as u64, "engine wedged");
    assert_eq!(r.failed_osds, vec![1, 2]);
    assert!(
        r.lost_ops > 0,
        "adjacent-OSD double failure should lose stripes"
    );
}

#[test]
fn same_group_double_failure_does_not_break_raid() {
    // §III.D's whole point: OSDs 0 and 4 share group 0 (8 OSDs, m = 4),
    // and no two objects of one file share a group — so even two failures
    // in the same group must not produce unrecoverable stripes.
    let t = trace(0.004);
    let r = run_with_failures(
        &t,
        vec![
            FailureSpec {
                at_us: 1_000,
                osd: OsdId(0),
                rebuild: false,
            },
            FailureSpec {
                at_us: 2_000,
                osd: OsdId(4),
                rebuild: false,
            },
        ],
    );
    assert_eq!(r.completed_ops, t.records.len() as u64);
    assert_eq!(
        r.lost_ops, 0,
        "same-group failures must never lose data (§III.D)"
    );
    assert!(r.degraded_ops > 0);
}

#[test]
fn failure_during_migration_aborts_cleanly() {
    // Kill an OSD right around the migration midpoint while EDM-HDF is
    // shuffling objects: moves touching the dead device abort, everything
    // else completes.
    let t = trace(0.004);
    let cluster = Cluster::build(ClusterConfig::paper(8), &t).expect("build");
    let mut policy = Edm::new(Selection::Hdf, EdmConfig::default());
    let r = run_trace(
        cluster,
        &t,
        &mut policy,
        SimOptions {
            schedule: MigrationSchedule::Midpoint,
            failures: (0..2)
                .map(|i| FailureSpec {
                    at_us: 1_000 + i * 500_000,
                    osd: OsdId(i as u32),
                    rebuild: false,
                })
                .collect(),
            checkpoint: None,
            ..SimOptions::default()
        },
    );
    assert_eq!(r.completed_ops, t.records.len() as u64);
}

#[test]
fn failure_runs_are_deterministic() {
    let t = trace(0.002);
    let spec = vec![FailureSpec {
        at_us: 5_000,
        osd: OsdId(5),
        rebuild: true,
    }];
    let a = run_with_failures(&t, spec.clone());
    let b = run_with_failures(&t, spec);
    assert_eq!(a.duration_us, b.duration_us);
    assert_eq!(a.degraded_ops, b.degraded_ops);
    assert_eq!(a.rebuilt_objects, b.rebuilt_objects);
    assert_eq!(a.aggregate_erases(), b.aggregate_erases());
}
