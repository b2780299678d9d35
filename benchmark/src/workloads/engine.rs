//! `replay_read`, `replay_write` and `scale_sharded`: a trace replayed
//! through the discrete-event engine with `NoopRecorder`, the path
//! `edm-sim` runs to regenerate the paper's figures.

use edm_cluster::{
    run_trace_obs_keep, shard_decision, Cluster, MigrationSchedule, Migrator, NoMigration,
    RunReport, SimOptions,
};
use edm_core::Assessor;
use edm_harness::experiments::model_diff::diff_report;
use edm_obs::NoopRecorder;
use edm_scenario::{report_digest, Scenario};
use edm_ssd::WearStats;
use edm_workload::{harvard, FileOp, Trace};

use super::{
    account, cluster_wear, hex, host_metrics, pass_request_metrics, peak_rss_mib, sim_metrics,
    timed_passes, Args,
};
use crate::alloc;
use crate::inputs::seeded_trace;
use crate::policy::TimedMigrator;
use crate::report::Outcome;
use crate::spans::Tracer;

/// What distinguishes the three engine workloads. (A sharded scenario
/// also gets a sequential rung, `shards 0`, in its traced run.)
struct Shape {
    scenario: String,
    /// Trimmer head-to-head: one extra rung under `assessor model`.
    model_rung: bool,
}

fn shape(args: &Args) -> Shape {
    let common = "osds 16\ngroups 4\nobjects_per_file 4\n";
    match args.workload {
        // The paper's Fig. 5–8 configuration: one forced plan at the
        // midpoint of the replay.
        "replay_read" => Shape {
            scenario: format!(
                "trace home02\nscale {}\n{common}policy EDM-HDF\nschedule midpoint\nforce true\n",
                args.scale.unwrap_or(1.0)
            ),
            model_rung: false,
        },
        "replay_write" => Shape {
            scenario: format!(
                "trace lair62\nscale {}\n{common}policy EDM-CDF\nschedule every-tick\n\
                 lambda 0.10\nforce false\n",
                args.scale.unwrap_or(1.0)
            ),
            model_rung: true,
        },
        // 32 groups at stride 4 make 8 placement components; shards is
        // fixed at 2, not nproc, so numbers compare across machines.
        _ => Shape {
            scenario: format!(
                "trace home02\nscale {}\nosds 1024\ngroups 32\nobjects_per_file 4\nstride 4\n\
                 affinity component\npolicy EDM-HDF\nschedule every-tick\nshards 2\n",
                args.scale.unwrap_or(0.3)
            ),
            model_rung: false,
        },
    }
}

fn options(scenario: &Scenario) -> SimOptions {
    SimOptions {
        shards: scenario.shards,
        ..scenario.sim_options()
    }
}

struct Pass {
    build_s: f64,
    run_s: f64,
    report: RunReport,
}

/// One pass: a freshly built, warmed cluster, then the replay.
fn pass(
    scenario: &Scenario,
    trace: &Trace,
    policy: &mut dyn Migrator,
    options: SimOptions,
    run_span: &str,
    tr: &mut Tracer,
) -> Result<Pass, String> {
    let (cluster, build_s) = tr.time("cluster.build", || scenario.build_cluster(trace));
    let cluster = cluster?;
    let ((report, _final), run_s) = tr.time(run_span, || {
        run_trace_obs_keep(cluster, trace, policy, options, &mut NoopRecorder)
    });
    Ok(Pass {
        build_s,
        run_s,
        report,
    })
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let shape = shape(args);
    let scenario = Scenario::parse(&shape.scenario)?;
    let mut o = Outcome::new(args.workload, args.seed, args.traced);
    o.output("scenario", shape.scenario.trim_end().replace('\n', "; "));
    if args.traced {
        traced(args, &shape, &scenario, tr, &mut o)?;
    } else {
        untraced(args, &scenario, tr, &mut o)?;
    }
    Ok(o)
}

/// Prints the input's fingerprint and checks it against Table 1. For a
/// sharded scenario, checks that the shard gates hold — or the workload
/// silently measures the sequential loop — and returns the number of
/// placement components.
fn check_input(
    scenario: &Scenario,
    trace: &Trace,
    o: &mut Outcome,
) -> Result<Option<usize>, String> {
    o.output("trace_fingerprint", hex(trace.fingerprint()));
    let made = trace.stats();
    let want = harvard::spec(&scenario.trace).scaled(scenario.scale);
    o.check(
        "trace_has_the_table1_counts",
        made.read_cnt == want.read_cnt && made.write_cnt == want.write_cnt,
        format!(
            "{} reads, {} writes, {} records in all",
            made.read_cnt,
            made.write_cnt,
            trace.records.len()
        ),
    );
    if scenario.shards == 0 {
        return Ok(None);
    }
    let cluster = scenario.build_cluster(trace)?;
    let policy = scenario.build_policy()?;
    let decision = shard_decision(&cluster, trace, policy.as_ref(), &options(scenario));
    o.check(
        "sharded_execution_is_active",
        decision.active && decision.threads == scenario.shards as usize,
        decision.to_string(),
    );
    Ok(Some(decision.components))
}

fn untraced(
    args: &Args,
    scenario: &Scenario,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_s = Vec::new();
    let mut records = 0;
    timed_passes(args.seconds, |i| {
        tr.set_id(format!("{}/pass{i}", args.workload));
        // Every pass sets up from nothing — input, cluster, policy — so
        // that set-up time is a median of several samples too.
        let (trace, synth_s) = tr.time("workload.synth", || seeded_trace(scenario, args.seed));
        records = trace.records.len() as u64;
        if i == 0 {
            check_input(scenario, &trace, o)?;
        }
        let mut policy = scenario.build_policy()?;
        let p = pass(
            scenario,
            &trace,
            policy.as_mut(),
            options(scenario),
            "cluster.run",
            tr,
        )?;
        setup_s.push(synth_s + p.build_s);
        let run_s = p.run_s;
        passes.push(p);
        Ok(run_s)
    })?;

    let first = &passes[0].report;
    let digest = report_digest(first);
    o.output("report_digest", hex(digest));
    o.check(
        "digests_equal_across_passes",
        passes.iter().all(|p| report_digest(&p.report) == digest),
        format!("{} passes", passes.len()),
    );
    o.check(
        "completed_ops_equal_trace_records",
        passes.iter().all(|p| p.report.completed_ops == records),
        format!("{} completed of {records}", first.completed_ops),
    );
    for p in &passes {
        account(o, records, &p.report);
    }

    let run_s: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    host_metrics(o, records, &run_s, &setup_s);
    sim_metrics(o, first);
    pass_request_metrics(o, &run_s);
    Ok(())
}

/// The device rung: every trace read and write mapped through the RAID
/// layout and the catalog and issued straight to its OSD, in trace
/// order — no event queue, no clients, no policy.
struct DeviceRung {
    seconds: f64,
    object_ios: u64,
    wear: WearStats,
}

fn device_rung(
    cluster: &mut Cluster,
    trace: &Trace,
    tr: &mut Tracer,
) -> Result<DeviceRung, String> {
    let layout = *cluster.catalog.layout();
    let placement = *cluster.catalog.placement();
    let mut object_ios = 0u64;
    let (result, seconds) = tr.time("ssd.device", || -> Result<(), String> {
        for record in &trace.records {
            let ios = match record.op {
                FileOp::Read { offset, len } => layout.map_read(offset, len),
                FileOp::Write { offset, len } => layout.map_write(offset, len),
                FileOp::Open | FileOp::Close => continue,
            };
            for io in ios {
                let object = placement.object_id(record.file, io.object_index);
                let osd = cluster.catalog.locate(object);
                let device = cluster.osd_mut(osd);
                if io.kind.is_write() {
                    device.write_object(object, io.offset, io.len)
                } else {
                    device.read_object(object, io.offset, io.len)
                }
                .map_err(|e| format!("device rung: {object} on {osd}: {e}"))?;
                object_ios += 1;
            }
        }
        Ok(())
    });
    result?;
    Ok(DeviceRung {
        seconds,
        object_ios,
        wear: cluster_wear(cluster),
    })
}

fn traced(
    args: &Args,
    shape: &Shape,
    scenario: &Scenario,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    tr.set_id(format!("{}/setup", args.workload));
    let (trace, synth_s) = tr.time("workload.synth", || seeded_trace(scenario, args.seed));
    let trace = &trace;
    let components = check_input(scenario, trace, o)?;
    let records = trace.records.len() as u64;
    o.value(
        "workload.synth_s",
        synth_s,
        "span around Scenario::synth_trace + seed shuffle",
    );
    o.value("workload.records", records as f64, "");

    // Sequential rung first, so that VmHWM still reads the sequential
    // peak when it ends (the high-water mark never comes back down).
    let mut seq = None;
    if scenario.shards > 0 {
        tr.set_id(format!("{}/sequential", args.workload));
        let sequential = Scenario {
            shards: 0,
            ..scenario.clone()
        };
        let mut policy = sequential.build_policy()?;
        let p = pass(
            &sequential,
            trace,
            policy.as_mut(),
            options(&sequential),
            "cluster.seq_run",
            tr,
        )?;
        account(o, records, &p.report);
        seq = Some((p, peak_rss_mib()));
    }

    // Reference pass: the workload exactly as the untraced run executes
    // it. Overhead and self times are taken against this one.
    tr.set_id(format!("{}/reference", args.workload));
    let mut policy = scenario.build_policy()?;
    let reference = pass(
        scenario,
        trace,
        policy.as_mut(),
        options(scenario),
        "cluster.ref_run",
        tr,
    )?;
    let reference_rss = peak_rss_mib();
    account(o, records, &reference.report);
    let digest = report_digest(&reference.report);
    o.output("report_digest", hex(digest));
    o.value(
        "trace.ref_pass_s",
        reference.run_s,
        "untraced pass inside the traced run",
    );

    // Traced pass: the policy behind the timing wrapper, allocations
    // counted.
    tr.set_id(format!("{}/traced", args.workload));
    let (cluster, build_s) = tr.time("cluster.build", || scenario.build_cluster(trace));
    let cluster = cluster?;
    let mut timed = TimedMigrator::new(scenario.build_policy()?, tr.epoch());
    let open = tr.begin("cluster.run");
    alloc::start();
    let (report, _final) = run_trace_obs_keep(
        cluster,
        trace,
        &mut timed,
        options(scenario),
        &mut NoopRecorder,
    );
    let (allocs, alloc_bytes) = alloc::stop();
    let parent = open.index();
    let run_s = tr.end(open);
    tr.aggregate(
        parent,
        "core.on_access",
        timed.on_access_calls,
        timed.on_access_ns(),
    );
    tr.adopt(parent, "core.on_tick", &timed.ticks);
    tr.adopt(parent, "core.plan", &timed.plans);
    account(o, records, &report);
    o.check(
        "traced_digest_equals_reference",
        report_digest(&report) == digest,
        "the timing wrapper must not change the run",
    );
    o.check(
        "completed_ops_equal_trace_records",
        report.completed_ops == records && reference.report.completed_ops == records,
        format!("{} completed of {records}", report.completed_ops),
    );

    // Baseline rung: same trace and engine, no policy at all.
    tr.set_id(format!("{}/baseline", args.workload));
    let baseline_options = SimOptions {
        schedule: MigrationSchedule::Never,
        ..options(scenario)
    };
    let baseline = pass(
        scenario,
        trace,
        &mut NoMigration,
        baseline_options,
        "cluster.baseline_run",
        tr,
    )?;
    account(o, records, &baseline.report);

    // Device rung.
    tr.set_id(format!("{}/device", args.workload));
    let mut fresh = scenario.build_cluster(trace)?;
    let device = device_rung(&mut fresh, trace, tr)?;
    drop(fresh);
    o.check(
        "device_rung_page_writes_equal_baseline",
        device.wear.host_page_writes == baseline.report.aggregate_write_pages(),
        format!(
            "{} host page writes on both rungs",
            device.wear.host_page_writes
        ),
    );
    // GC victim choice depends on the order writes reach a device, and
    // the engine interleaves closed-loop clients where this rung keeps
    // trace order: erases agree to a percent or so, not exactly.
    let base_erases = baseline.report.aggregate_erases();
    let drift = device.wear.block_erases.abs_diff(base_erases) as f64 / base_erases.max(1) as f64;
    o.check(
        "device_rung_erases_match_baseline",
        drift <= 0.05,
        format!(
            "{} erases on the device rung, {base_erases} on the Baseline rung ({:.3} % apart, 5 % allowed)",
            device.wear.block_erases,
            drift * 100.0
        ),
    );

    // cluster
    let on_access_s = timed.on_access_ns() as f64 / 1e9;
    let core_s = on_access_s + timed.plan_seconds() + timed.tick_seconds();
    let self_s = (reference.run_s - core_s - device.seconds).max(0.0);
    o.value(
        "cluster.build_s",
        build_s,
        "span around Scenario::build_cluster",
    );
    o.value(
        "cluster.run_s",
        run_s,
        "traced pass, policy behind the timing wrapper",
    );
    o.value(
        "cluster.baseline_run_s",
        baseline.run_s,
        "Baseline policy, schedule never",
    );
    o.value(
        "cluster.engine_self_s",
        self_s,
        "trace.ref_pass_s − core.*_s − ssd.device_s (across rungs)",
    );
    o.value(
        "cluster.engine_ns_per_op",
        self_s / records as f64 * 1e9,
        "",
    );
    o.value(
        "cluster.object_ios_per_op",
        device.object_ios as f64 / records as f64,
        format!("{} object I/Os", device.object_ios),
    );
    if let (Some((seq_pass, seq_rss)), Some(components)) = (&seq, components) {
        o.check(
            "sharded_digest_equals_sequential",
            report_digest(&seq_pass.report) == digest,
            hex(report_digest(&seq_pass.report)),
        );
        o.value("cluster.seq_run_s", seq_pass.run_s, "shards 0");
        o.value(
            "cluster.sharded_run_s",
            reference.run_s,
            "shards 2 (the reference pass)",
        );
        o.value(
            "cluster.shard_speedup",
            seq_pass.run_s / reference.run_s,
            format!(
                "sequential / sharded, {} cores available",
                std::thread::available_parallelism().map_or(0, usize::from)
            ),
        );
        o.value("cluster.shard_components", components as f64, "");
        o.value(
            "cluster.shard_rss_ratio",
            reference_rss / seq_rss,
            format!("VmHWM {reference_rss:.0} MiB after the sharded pass / {seq_rss:.0} MiB after the sequential"),
        );
    }

    // ssd
    let w = &device.wear;
    let page_ops = w.host_page_reads + w.host_page_writes;
    o.value("ssd.device_s", device.seconds, "device rung");
    o.value(
        "ssd.ns_per_page_op",
        device.seconds / page_ops.max(1) as f64 * 1e9,
        "",
    );
    o.value("ssd.page_reads", w.host_page_reads as f64, "");
    o.value("ssd.page_writes", w.host_page_writes as f64, "");
    o.value("ssd.erases", w.block_erases as f64, "");
    o.value(
        "ssd.gc_copies_per_host_write",
        w.gc_page_moves as f64 / w.host_page_writes.max(1) as f64,
        format!("{} GC page copies", w.gc_page_moves),
    );

    // core
    let plans = timed.plans.len() as f64;
    o.value("core.on_access_calls", timed.on_access_calls as f64, "");
    o.value(
        "core.on_access_s",
        on_access_s,
        "count + sum, not spans; net of the calibrated cost of reading the clock",
    );
    o.value("core.tick_calls", timed.ticks.len() as f64, "");
    o.value("core.tick_s", timed.tick_seconds(), "");
    o.value("core.plan_calls", plans, "");
    o.value("core.plan_s", timed.plan_seconds(), "");
    o.value("core.plan_max_ms", timed.plan_max_ms(), "");
    o.value(
        "core.nonempty_plan_share",
        timed.nonempty_plans as f64 / plans.max(1.0),
        "",
    );
    o.value(
        "core.moved_object_share",
        report.moved_fraction(),
        format!(
            "{} moves over {} rounds",
            report.moved_objects, report.migrations_triggered
        ),
    );
    o.value(
        "core.policy_delta_s",
        reference.run_s - baseline.run_s,
        "trace.ref_pass_s − cluster.baseline_run_s",
    );
    if shape.model_rung {
        // The two plan trimmers head to head, on the same trace.
        tr.set_id(format!("{}/model-assessor", args.workload));
        let modelled = Scenario {
            assessor: Assessor::Model,
            ..scenario.clone()
        };
        let mut timed_model = TimedMigrator::new(modelled.build_policy()?, tr.epoch());
        let p = pass(
            &modelled,
            trace,
            &mut timed_model,
            options(&modelled),
            "cluster.model_run",
            tr,
        )?;
        account(o, records, &p.report);
        o.value(
            "core.plan_model_s",
            timed_model.plan_seconds(),
            format!(
                "{} plans under `assessor model`; projection took core.plan_s",
                timed_model.plans.len()
            ),
        );
        o.output("model_assessor_digest", hex(report_digest(&p.report)));
    }

    // model: accuracy beside every speed number.
    let diff = diff_report(args.workload, &report);
    let note = "hardware-unvalidated; reference = edm-model mean-field";
    o.value("model.ks_distance", diff.ks, note);
    o.value("model.max_rel_erase_err", diff.max_rel, note);
    o.value("model.gc_rate_rel_err", diff.gc_rate_err, note);

    // host
    if scenario.shards == 0 {
        o.value(
            "host.allocs_per_op",
            allocs as f64 / records as f64,
            format!("{allocs} allocations"),
        );
        o.value(
            "host.alloc_bytes_per_op",
            alloc_bytes as f64 / records as f64,
            format!("{alloc_bytes} bytes"),
        );
    }
    o.value(
        "trace.overhead_share",
        (run_s - reference.run_s) / reference.run_s,
        "(cluster.run_s − trace.ref_pass_s) / trace.ref_pass_s",
    );
    Ok(())
}
