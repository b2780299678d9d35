//! Cross-crate integration tests: trace synthesis → cluster build →
//! replay → policies, exercised end to end.

use edm_cluster::{
    run_trace, Cluster, ClusterConfig, MigrationSchedule, Migrator, NoMigration, RunReport,
    SimOptions,
};
use edm_core::{make_policy, Cmt, CmtConfig, Edm, EdmConfig, Selection, POLICY_NAMES};
use edm_workload::synth::synthesize;
use edm_workload::{harvard, Trace};

fn scaled_trace(name: &str, scale: f64) -> Trace {
    synthesize(&harvard::spec(name).scaled(scale))
}

fn run_policy(trace: &Trace, osds: u32, policy: &str) -> RunReport {
    let cluster = Cluster::build(ClusterConfig::paper(osds), trace).expect("build");
    let mut p = make_policy(policy, EdmConfig::default()).expect("evaluation name");
    run_trace(cluster, trace, p.as_mut(), SimOptions::default())
}

#[test]
fn every_policy_completes_the_full_replay() {
    let trace = scaled_trace("home02", 0.002);
    for policy in POLICY_NAMES {
        let r = run_policy(&trace, 8, policy);
        assert_eq!(
            r.completed_ops,
            trace.records.len() as u64,
            "{policy} lost records"
        );
        assert!(r.duration_us > 0);
    }
}

#[test]
fn migration_policies_actually_migrate_on_skewed_traces() {
    let trace = scaled_trace("lair62", 0.002);
    for policy in ["CMT", "EDM-HDF", "EDM-CDF"] {
        let r = run_policy(&trace, 8, policy);
        assert!(r.moved_objects > 0, "{policy} moved nothing");
        assert!(r.migrations_triggered >= 1);
        assert!(r.remap_entries <= r.moved_objects);
    }
}

#[test]
fn baseline_never_migrates() {
    let trace = scaled_trace("home03", 0.002);
    let r = run_policy(&trace, 8, "Baseline");
    assert_eq!(r.moved_objects, 0);
    assert_eq!(r.remap_entries, 0);
    assert_eq!(r.migrations_triggered, 0);
}

#[test]
fn hdf_reduces_wear_imbalance_vs_baseline() {
    let trace = scaled_trace("lair62", 0.008);
    let base = run_policy(&trace, 8, "Baseline");
    let hdf = run_policy(&trace, 8, "EDM-HDF");
    assert!(
        hdf.erase_rsd() < base.erase_rsd(),
        "HDF must narrow the erase distribution: {} -> {}",
        base.erase_rsd(),
        hdf.erase_rsd()
    );
}

#[test]
fn hdf_moves_fewer_objects_than_cmt() {
    let trace = scaled_trace("home02", 0.004);
    let hdf = run_policy(&trace, 8, "EDM-HDF");
    let cmt = run_policy(&trace, 8, "CMT");
    assert!(
        hdf.moved_objects < cmt.moved_objects,
        "Fig. 8 ordering violated: HDF {} vs CMT {}",
        hdf.moved_objects,
        cmt.moved_objects
    );
}

#[test]
fn intra_group_rule_holds_for_edm_end_to_end() {
    // After an EDM-HDF run, every remapped object must still live on an
    // OSD of its home group (§III.A/§III.D).
    let trace = scaled_trace("lair62", 0.002);
    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let placement = *cluster.catalog.placement();
    let mut policy = Edm::new(Selection::Hdf, EdmConfig::default());
    // Run and inspect through the report-side remap count; then rebuild
    // the final locations by replaying the plan through a fresh catalog —
    // instead we simply re-run and check the catalog via a custom check:
    let report = run_trace(cluster, &trace, &mut policy, SimOptions::default());
    assert!(report.moved_objects > 0);
    // The engine's `validate_plan` accepts cross-group moves (CMT plans
    // them). EDM keeps to its groups by construction; verify through the
    // policy's own planning output on a fresh view:
    let cluster2 = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let view = cluster2.view(0);
    let mut policy2 = Edm::new(Selection::Hdf, EdmConfig::default());
    // Without any recorded accesses the plan is empty, which is fine; the
    // group rule is structurally tested in edm-core. Here we just make
    // sure planning on a live view does not violate groups.
    for m in policy2.plan(&view) {
        assert_eq!(
            placement.group_of(m.source),
            placement.group_of(m.dest),
            "cross-group EDM move"
        );
    }
}

#[test]
fn forced_midpoint_vs_never_schedules() {
    let trace = scaled_trace("home04", 0.002);
    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let mut p = Edm::new(Selection::Hdf, EdmConfig::default());
    let never = run_trace(
        cluster,
        &trace,
        &mut p,
        SimOptions {
            schedule: MigrationSchedule::Never,
            failures: Vec::new(),
            checkpoint: None,
            ..SimOptions::default()
        },
    );
    assert_eq!(never.moved_objects, 0, "Never schedule must not migrate");
}

#[test]
fn trigger_gated_policy_stays_quiet_on_uniform_trace() {
    // The random workload spreads writes uniformly; with the trigger
    // check on (force = false) and a generous lambda, EDM should not move.
    let trace = synthesize(&harvard::random_spec().scaled(0.01));
    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let mut policy = Edm::new(
        Selection::Hdf,
        EdmConfig {
            force: false,
            lambda: 0.8,
            ..EdmConfig::default()
        },
    );
    let r = run_trace(cluster, &trace, &mut policy, SimOptions::default());
    assert_eq!(
        r.moved_objects, 0,
        "uniform workload must not trip a lambda=0.8 trigger"
    );
}

#[test]
fn cdf_and_hdf_policies_are_configurable() {
    let trace = scaled_trace("deasna", 0.002);
    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let mut cdf = Edm::new(
        Selection::Cdf,
        EdmConfig {
            temperature_interval_us: 10_000_000,
            ..EdmConfig::default()
        },
    );
    let r = run_trace(cluster, &trace, &mut cdf, SimOptions::default());
    assert_eq!(r.completed_ops, trace.records.len() as u64);

    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let mut cmt = Cmt::new(CmtConfig {
        lambda: 0.05,
        ..CmtConfig::default()
    });
    let r = run_trace(cluster, &trace, &mut cmt, SimOptions::default());
    assert_eq!(r.completed_ops, trace.records.len() as u64);
}

#[test]
fn reports_are_internally_consistent() {
    let trace = scaled_trace("home02", 0.002);
    for policy in POLICY_NAMES {
        let r = run_policy(&trace, 8, policy);
        let windowed: u64 = r.response_windows.iter().map(|w| w.completed_ops).sum();
        assert_eq!(windowed, r.completed_ops, "{policy} window totals");
        assert_eq!(r.per_osd.len(), 8);
        assert!(r.mean_response_us > 0.0);
        assert!(r.moved_fraction() <= 1.0);
        // Throughput consistency: ops / duration.
        let tp = r.completed_ops as f64 / (r.duration_us as f64 / 1e6);
        assert!((tp - r.throughput_ops_per_sec()).abs() < 1e-6);
    }
}

#[test]
fn same_trace_different_cluster_sizes_scale_sanely() {
    let trace = scaled_trace("home03", 0.004);
    let small = run_policy(&trace, 8, "Baseline");
    let large = run_policy(&trace, 16, "Baseline");
    // More OSDs, more parallel service: the replay must not get slower.
    assert!(
        large.duration_us <= small.duration_us,
        "16 OSDs slower than 8: {} vs {}",
        large.duration_us,
        small.duration_us
    );
}

#[test]
fn noop_policy_trait_object_roundtrip() {
    let mut p: Box<dyn edm_cluster::Migrator> = Box::new(NoMigration);
    assert_eq!(p.name(), "Baseline");
    let trace = scaled_trace("deasna2", 0.001);
    let cluster = Cluster::build(ClusterConfig::paper(8), &trace).expect("build");
    let r = run_trace(cluster, &trace, p.as_mut(), SimOptions::default());
    assert_eq!(r.policy, "Baseline");
}

#[test]
fn every_tick_schedule_completes_and_migrates() {
    let trace = scaled_trace("home02", 0.004);
    let mut config = ClusterConfig::paper(8);
    config.wear_tick_us = 200_000; // several rounds within the scaled run
    let cluster = Cluster::build(config, &trace).expect("build");
    let mut policy = Edm::new(
        Selection::Hdf,
        EdmConfig {
            force: false,
            ..EdmConfig::default()
        },
    );
    let r = run_trace(
        cluster,
        &trace,
        &mut policy,
        SimOptions {
            schedule: MigrationSchedule::EveryTick,
            failures: Vec::new(),
            checkpoint: None,
            ..SimOptions::default()
        },
    );
    assert_eq!(r.completed_ops, trace.records.len() as u64);
    assert!(r.migrations_triggered >= 1, "continuous mode never fired");
}

#[test]
fn small_cluster_and_alternate_geometry_work() {
    // k = m = 2 on 4 OSDs: the placement and RAID layout still hold
    // together end to end.
    let trace = scaled_trace("deasna", 0.002);
    let mut config = ClusterConfig::paper(4);
    config.groups = 2;
    config.objects_per_file = 2;
    let cluster = Cluster::build(config, &trace).expect("build");
    let mut policy = Edm::new(Selection::Hdf, EdmConfig::default());
    let r = run_trace(cluster, &trace, &mut policy, SimOptions::default());
    assert_eq!(r.completed_ops, trace.records.len() as u64);
    assert_eq!(r.total_objects, trace.file_sizes.len() as u64 * 2);
}

#[test]
fn write_only_and_read_only_traces_replay() {
    for (w, r) in [(500u64, 0u64), (0, 500)] {
        let spec = edm_workload::WorkloadSpec {
            name: "onesided".into(),
            file_cnt: 40,
            write_cnt: w,
            avg_write_size: if w > 0 { 8_192 } else { 0 },
            read_cnt: r,
            avg_read_size: if r > 0 { 8_192 } else { 0 },
            skew: edm_workload::SkewProfile::MODERATE,
            file_sizes: edm_workload::FileSizeModel::DEFAULT,
            users: 4,
            seed: 9,
        };
        let trace = synthesize(&spec);
        let report = run_policy(&trace, 8, "EDM-HDF");
        assert_eq!(report.completed_ops, trace.records.len() as u64);
        if w == 0 {
            // A read-only workload writes nothing and wears nothing.
            assert_eq!(report.aggregate_write_pages(), 0);
            assert_eq!(report.moved_objects, 0, "nothing write-hot to move");
        }
    }
}

#[test]
fn observability_levels_do_not_change_the_run() {
    use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel};
    use edm_scenario::Scenario;
    let scenario = Scenario::parse(
        "trace home02\nscale 0.002\nosds 8\ngroups 4\npolicy EDM-HDF\n\
         schedule midpoint\nforce true\n",
    )
    .unwrap();
    let (baseline, _) = scenario.run(&mut NoopRecorder, None).unwrap();
    for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events] {
        let mut rec = MemoryRecorder::new(level);
        let (report, _) = scenario.run(&mut rec, None).unwrap();
        assert_eq!(report.duration_us, baseline.duration_us, "{level:?}");
        assert_eq!(report.completed_ops, baseline.completed_ops, "{level:?}");
        assert_eq!(report.moved_objects, baseline.moved_objects, "{level:?}");
        assert_eq!(
            report.aggregate_erases(),
            baseline.aggregate_erases(),
            "{level:?}"
        );
        assert_eq!(
            report.mean_response_us, baseline.mean_response_us,
            "{level:?}"
        );
        if level == ObsLevel::Events {
            // The decision trace the probe renders must be present.
            assert!(rec.count_kind("trigger_eval") >= 1);
            assert_eq!(rec.count_kind("wear_model_input"), 8);
            assert_eq!(rec.count_kind("plan_chosen"), 1);
            assert_eq!(rec.count_kind("plan_assessment"), 1);
            assert!(rec.count_kind("block_erase") > 0);
            // And the journal round-trips through the JSONL writer.
            let mut buf = Vec::new();
            rec.write_jsonl(&mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert!(text.lines().count() > rec.journal().len());
            for line in text.lines() {
                edm_obs::json::parse(line).expect("journal line parses");
            }
        }
    }
}

/// The report's percentiles and the recorder's `response_us` histogram
/// are one type with one quantile rule, so they agree — sequentially and
/// when per-shard tallies and recorders are merged — and no percentile
/// exceeds the slowest response.
#[test]
fn report_percentiles_are_the_recorders_response_quantiles() {
    use edm_obs::{MemoryRecorder, ObsLevel};
    use edm_scenario::Scenario;
    for text in [
        "trace home02\nscale 0.002\nosds 8\ngroups 4\npolicy EDM-HDF\n\
         schedule midpoint\nforce true\n",
        "trace home02\nscale 0.002\nosds 16\ngroups 4\npolicy EDM-HDF\n\
         schedule every-tick\nstride 2\naffinity component\nshards 2\n",
    ] {
        let scenario = Scenario::parse(text).unwrap();
        let mut rec = MemoryRecorder::new(ObsLevel::Metrics);
        let (report, _) = scenario.run(&mut rec, None).unwrap();
        let hist = rec.histogram("response_us").expect("response histogram");
        assert_eq!(hist.count(), report.completed_ops, "{text}");
        let (p50, p95, p99) = report.response_percentiles_us;
        let q = |p| hist.quantile(p);
        assert_eq!((p50, p95, p99), (q(0.50), q(0.95), q(0.99)), "{text}");
        assert!(p99 <= hist.max(), "p99 {p99} above max {}", hist.max());
    }
}
