//! `journal_verify`: the reproducibility pipeline — a run recorded at
//! `Events` level with periodic checkpoints (`edm-sim --obs events
//! --checkpoint-every`), the journal written to a file and replayed
//! through the conformance spec (`edm-probe --verify`), and the run
//! resumed from its middle checkpoint (`edm-sim --resume`).
//!
//! Unlike the engine workloads the trace is the preset on every seed:
//! `resume_snapshot` re-synthesises it from the scenario text embedded
//! in the checkpoint, and that text has no seed. The seed moves the
//! injected failure instead (± 0.5 % of a wear tick, ± 0.15 s here:
//! ± 2 s already moved simulated throughput by ± 3 %).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use edm_cluster::{run_trace_obs_keep, CheckpointConfig, RunReport, SimOptions};
use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel, Recorder};
use edm_scenario::{report_digest, resume_snapshot, Scenario, SnapMeta};
use edm_snap::SnapshotFile;
use edm_spec::{verify_journal, SpecReport};
use edm_workload::Trace;

use super::{account, hex, host_metrics, pass_request_metrics, sim_metrics, timed_passes, Args};
use crate::alloc;
use crate::inputs::SplitMix64;
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::median;

/// Event kinds the journal must hold for the workload to mean anything.
const REQUIRED_KINDS: [&str; 5] = [
    "migration_start",
    "migration_finish",
    "device_failed",
    "rebuild_start",
    "rebuild_finish",
];

/// The wear tick: 60 s × scale of virtual time (floor 100 ms), as
/// `Scenario::build_cluster` sets it.
fn wear_tick_us(scale: f64) -> u64 {
    ((60_000_000.0 * scale) as u64).max(100_000)
}

fn scenario_text(args: &Args) -> String {
    let scale = args.scale.unwrap_or(0.5);
    // The failure lands half a tick after the first tick, i.e. after the
    // first migration round.
    let tick_us = wear_tick_us(scale);
    let span = tick_us / 200;
    let jitter = match args.seed {
        0 => span,
        seed => SplitMix64::new(seed).below(2 * span + 1),
    };
    let fail_at = tick_us * 3 / 2 - span + jitter;
    format!(
        "trace deasna\nscale {scale}\nosds 16\ngroups 4\nobjects_per_file 4\npolicy EDM-HDF\n\
         schedule every-tick\nlambda 0.05\nforce false\nfail {fail_at} 3 rebuild\n"
    )
}

struct Pipeline {
    records: u64,
    trace_fingerprint: u64,
    synth_s: f64,
    build_s: f64,
    total_s: f64,
    run_s: f64,
    write_s: f64,
    verify_s: f64,
    resume_s: f64,
    report: RunReport,
    resumed_digest: u64,
    spec: SpecReport,
    events: u64,
    journal_bytes: u64,
    checkpoints: Vec<PathBuf>,
}

/// The checkpoint the pass resumes from.
fn middle(checkpoints: &[PathBuf]) -> Result<&PathBuf, String> {
    checkpoints
        .get(checkpoints.len() / 2)
        .ok_or_else(|| "the run cut no checkpoint".to_string())
}

/// One pass of the pipeline in `dir`, set up from nothing. The timed
/// region starts after the trace is made and the cluster is built.
fn pipeline(scenario: &Scenario, dir: &Path, tr: &mut Tracer) -> Result<Pipeline, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let (trace, synth_s) = tr.time("workload.synth", || scenario.synth_trace());
    let trace = &trace;
    let (cluster, build_s) = tr.time("cluster.build", || scenario.build_cluster(trace));
    let cluster = cluster?;
    let mut policy = scenario.build_policy()?;
    let trace_fingerprint = trace.fingerprint();
    let options = SimOptions {
        // A checkpoint at every wear tick: they are only ever cut at
        // ticks, and the full-size run crosses two.
        checkpoint: Some(CheckpointConfig {
            every_us: wear_tick_us(scenario.scale),
            dir: dir.to_path_buf(),
            meta: SnapMeta {
                scenario: scenario.to_text(),
                trace_fingerprint,
            }
            .encode(),
        }),
        ..scenario.sim_options()
    };

    let whole = tr.begin("journal.pipeline");
    let mut recorder = MemoryRecorder::new(ObsLevel::Events);
    let ((report, _final), run_s) = tr.time("cluster.run", || {
        run_trace_obs_keep(cluster, trace, policy.as_mut(), options, &mut recorder)
    });

    let journal = dir.join("journal.jsonl");
    let (written, write_s) = tr.time("obs.write_jsonl", || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&journal)?);
        recorder.write_jsonl(&mut w)?;
        w.flush()
    });
    written.map_err(|e| format!("writing {}: {e}", journal.display()))?;
    let events = recorder.journal().len() as u64;
    // `edm-sim` exits here; `edm-probe` starts from the file alone.
    drop(recorder);

    let (text, _) = tr.time("journal.read", || std::fs::read_to_string(&journal));
    let text = text.map_err(|e| format!("reading {}: {e}", journal.display()))?;
    let journal_bytes = text.len() as u64;
    let (spec, verify_s) = tr.time("spec.verify", || verify_journal(&text));
    drop(text);

    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    checkpoints.sort();
    let from = middle(&checkpoints)?;
    let (resumed, resume_s) = tr.time("scenario.resume", || {
        resume_snapshot(from, &mut NoopRecorder)
    });
    let (_, resumed) = resumed?;
    let total_s = tr.end(whole);

    Ok(Pipeline {
        records: trace.records.len() as u64,
        trace_fingerprint,
        synth_s,
        build_s,
        total_s,
        run_s,
        write_s,
        verify_s,
        resume_s,
        resumed_digest: report_digest(&resumed),
        report,
        spec,
        events,
        journal_bytes,
        checkpoints,
    })
}

/// The output checks, each over every pass (details from the first).
fn check_passes(o: &mut Outcome, passes: &[&Pipeline], digest: u64) {
    let first = passes[0];
    let records = first.records;
    for p in passes {
        account(o, records, &p.report);
    }
    let count = |p: &Pipeline, kind: &str| p.spec.kind_counts.get(kind).copied().unwrap_or(0);
    let violation = passes
        .iter()
        .find_map(|p| p.spec.violation.as_ref())
        .map_or("conforms".to_string(), |v| {
            format!("line {}: {}", v.line, v.message)
        });
    o.check(
        "journal_conforms_to_spec",
        passes.iter().all(|p| p.spec.ok()),
        violation,
    );
    let kinds: Vec<String> = REQUIRED_KINDS
        .iter()
        .map(|k| format!("{k} {}", count(first, k)))
        .collect();
    o.check(
        "journal_holds_migration_failure_rebuild",
        passes
            .iter()
            .all(|p| REQUIRED_KINDS.iter().all(|k| count(p, k) > 0)),
        kinds.join(", "),
    );
    o.check(
        "resumed_digest_equals_uninterrupted",
        passes
            .iter()
            .all(|p| p.resumed_digest == digest && report_digest(&p.report) == digest),
        format!(
            "resumed {} from checkpoint {} of {}, {} passes",
            hex(first.resumed_digest),
            first.checkpoints.len() / 2 + 1,
            first.checkpoints.len(),
            passes.len()
        ),
    );
    o.check(
        "completed_ops_equal_trace_records",
        passes.iter().all(|p| p.report.completed_ops == records),
        format!("{} completed of {records}", first.report.completed_ops),
    );
}

pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let text = scenario_text(args);
    let scenario = Scenario::parse(&text)?;
    let mut o = Outcome::new(args.workload, args.seed, args.traced);
    o.output("scenario", text.trim_end().replace('\n', "; "));

    let scratch = args
        .out_dir
        .join(format!("scratch-{}-{}", args.workload, std::process::id()));
    let result = if args.traced {
        traced(args, &scenario, &scratch, tr, &mut o)
    } else {
        let mut passes = Vec::new();
        let result = timed_passes(args.seconds, |i| {
            tr.set_id(format!("{}/pass{i}", args.workload));
            let p = pipeline(&scenario, &scratch.join(format!("pass{i}")), tr)?;
            let total_s = p.total_s;
            passes.push(p);
            Ok(total_s)
        });
        if result.is_ok() {
            let digest = report_digest(&passes[0].report);
            o.output("trace_fingerprint", hex(passes[0].trace_fingerprint));
            o.output("report_digest", hex(digest));
            check_passes(&mut o, &passes.iter().collect::<Vec<_>>(), digest);
            let total_s: Vec<f64> = passes.iter().map(|p| p.total_s).collect();
            let setup_s: Vec<f64> = passes.iter().map(|p| p.synth_s + p.build_s).collect();
            host_metrics(&mut o, passes[0].records, &total_s, &setup_s);
            sim_metrics(&mut o, &passes[0].report);
            pass_request_metrics(&mut o, &total_s);
        }
        result
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|()| o)
}

/// A plain engine run on a fresh cluster under `recorder`; the rungs the
/// recording and checkpointing costs are differenced from.
fn plain_run(
    scenario: &Scenario,
    trace: &Trace,
    recorder: &mut dyn Recorder,
    span: &str,
    tr: &mut Tracer,
) -> Result<(f64, u64), String> {
    let cluster = scenario.build_cluster(trace)?;
    let mut policy = scenario.build_policy()?;
    let ((report, _final), run_s) = tr.time(span, || {
        run_trace_obs_keep(
            cluster,
            trace,
            policy.as_mut(),
            scenario.sim_options(),
            recorder,
        )
    });
    Ok((run_s, report_digest(&report)))
}

fn traced(
    args: &Args,
    scenario: &Scenario,
    scratch: &Path,
    tr: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    // Reference pass, then the same pass with allocations counted.
    tr.set_id(format!("{}/reference", args.workload));
    let reference = pipeline(scenario, &scratch.join("reference"), tr)?;
    let digest = report_digest(&reference.report);
    let records = reference.records;
    o.output("trace_fingerprint", hex(reference.trace_fingerprint));
    o.output("report_digest", hex(digest));
    tr.set_id(format!("{}/traced", args.workload));
    alloc::start();
    let p = pipeline(scenario, &scratch.join("traced"), tr);
    let (allocs, alloc_bytes) = alloc::stop();
    let p = p?;
    check_passes(o, &[&reference, &p], digest);
    o.value(
        "workload.synth_s",
        p.synth_s,
        "span around Scenario::synth_trace",
    );
    o.value("workload.records", records as f64, "");

    // obs: Events rung minus Noop rung, three alternating pairs.
    let trace = &scenario.synth_trace();
    let mut events_s = Vec::new();
    let mut noop_s = Vec::new();
    let mut same = true;
    for pair in 0..3 {
        tr.set_id(format!("{}/obs-pair{pair}", args.workload));
        let mut recorder = MemoryRecorder::new(ObsLevel::Events);
        let (s, d) = plain_run(scenario, trace, &mut recorder, "cluster.events_run", tr)?;
        drop(recorder);
        events_s.push(s);
        same &= d == digest;
        let (s, d) = plain_run(scenario, trace, &mut NoopRecorder, "cluster.noop_run", tr)?;
        noop_s.push(s);
        same &= d == digest;
    }
    o.attempted += 6 * records;
    o.check(
        "events_digest_equals_noop",
        same,
        "three Events runs and three Noop runs against the pipeline's digest",
    );

    // snap: one checkpoint re-read and re-written under spans.
    tr.set_id(format!("{}/snapshot", args.workload));
    let from = middle(&p.checkpoints)?;
    let bytes = std::fs::read(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    let (snap, restore_s) = tr.time("snap.restore", || -> Result<SnapshotFile, String> {
        let snap = SnapshotFile::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let names: Vec<String> = snap.section_names().map(str::to_string).collect();
        for name in &names {
            // `reader` verifies the section's CRC.
            snap.reader(name).map_err(|e| e.to_string())?;
        }
        Ok(snap)
    });
    let snap = snap?;
    let copy = scratch.join("copy.snap");
    let (saved, save_s) = tr.time("snap.save", || snap.write_to(&copy));
    saved.map_err(|e| format!("writing {}: {e}", copy.display()))?;
    let snap_bytes: u64 = p
        .checkpoints
        .iter()
        .filter_map(|c| std::fs::metadata(c).ok())
        .map(|m| m.len())
        .sum();

    o.value(
        "cluster.build_s",
        p.build_s,
        "span around Scenario::build_cluster",
    );
    o.value(
        "cluster.run_s",
        p.run_s,
        "Events recorder and checkpoints on",
    );
    let megabytes = p.journal_bytes as f64 / 1e6;
    o.value("obs.events", p.events as f64, "");
    o.value("obs.journal_bytes", p.journal_bytes as f64, "");
    o.value(
        "obs.bytes_per_op",
        p.journal_bytes as f64 / records as f64,
        "",
    );
    o.value(
        "obs.record_delta_s",
        median(&events_s) - median(&noop_s),
        format!(
            "median of 3 Events runs {:.3} s − median of 3 Noop runs {:.3} s",
            median(&events_s),
            median(&noop_s)
        ),
    );
    o.value(
        "obs.write_jsonl_s",
        p.write_s,
        "span around MemoryRecorder::write_jsonl",
    );
    o.value("obs.write_jsonl_mb_per_s", megabytes / p.write_s, "");
    o.value("spec.verify_s", p.verify_s, "span around verify_journal");
    o.value("spec.events_per_s", p.spec.events as f64 / p.verify_s, "");
    o.value(
        "spec.kinds_seen",
        p.spec.kinds_seen() as f64,
        format!("of {}", SpecReport::kinds_known()),
    );
    o.value("spec.violations", f64::from(u8::from(!p.spec.ok())), "");
    o.value("snap.checkpoints", p.checkpoints.len() as f64, "");
    o.value(
        "snap.bytes",
        snap_bytes as f64,
        "all checkpoints of the pass",
    );
    o.value(
        "snap.checkpoint_delta_s",
        p.run_s - median(&events_s),
        "cluster.run_s − median Events run without checkpoints",
    );
    o.value(
        "snap.save_mb_per_s",
        bytes.len() as f64 / 1e6 / save_s,
        "SnapshotFile::write_to",
    );
    o.value(
        "snap.restore_mb_per_s",
        bytes.len() as f64 / 1e6 / restore_s,
        "SnapshotFile::from_bytes + reader() CRC of every section",
    );
    o.value(
        "scenario.resume_s",
        p.resume_s,
        "span around resume_snapshot",
    );
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
    o.value(
        "trace.ref_pass_s",
        reference.total_s,
        "untraced pass inside the traced run",
    );
    o.value(
        "trace.overhead_share",
        (p.total_s - reference.total_s) / reference.total_s,
        "(traced pass − trace.ref_pass_s) / trace.ref_pass_s",
    );
    Ok(())
}
