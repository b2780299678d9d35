//! The five workloads. Each driver touches the program only through its
//! public functions and returns an [`Outcome`].

use std::path::PathBuf;

use edm_cluster::{Cluster, RunReport};
use edm_ssd::WearStats;

use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{percentile, supported_percentile, Summary};

mod engine;
mod journal;
mod serve;

/// Timed passes are never fewer than this, however short `--seconds`.
pub const MIN_PASSES: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the untraced run measures; the traced run walks a fixed
    /// ladder of rungs instead.
    pub seconds: f64,
    pub traced: bool,
    /// Where traces, details and scratch files go (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Overrides the workload's input scale. For the benchmark's own
    /// tests only: numbers taken at another scale are not results.
    pub scale: Option<f64>,
}

/// Runs one workload once, untraced or traced, and writes
/// `trace-<workload>.json` after a traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let mut tracer = Tracer::new(args.traced);
    let mut outcome = match args.workload {
        "replay_read" | "replay_write" | "scale_sharded" => engine::run(args, &mut tracer)?,
        "journal_verify" => journal::run(args, &mut tracer)?,
        "serve_ingest" => serve::run(args, &mut tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.traced {
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        tracer
            .write_json(&path, args.workload, args.seed)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome.output("trace_file", path.display().to_string());
    }
    Ok(outcome)
}

/// Repeats `pass` (which returns the seconds of its timed region) until
/// at least [`MIN_PASSES`] ran and `seconds` of timed region went by.
fn timed_passes(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<f64, String>,
) -> Result<(), String> {
    let mut measured = 0.0;
    let mut done = 0;
    while done < MIN_PASSES || measured < seconds {
        measured += pass(done)?;
        done += 1;
    }
    Ok(())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Books one finished replay: every record attempted, those the run did
/// not complete or lost failed.
fn account(o: &mut Outcome, records: u64, report: &RunReport) {
    o.attempted += records;
    o.failed += records.saturating_sub(report.completed_ops) + report.lost_ops;
}

/// Wear counters summed over a cluster's devices.
fn cluster_wear(cluster: &Cluster) -> WearStats {
    let mut wear = WearStats::default();
    for osd in &cluster.osds {
        wear.merge(osd.ssd().wear());
    }
    wear
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// Write amplification of a finished run: (host page writes + GC page
/// moves) / host page writes.
fn write_amp(report: &RunReport) -> f64 {
    let host = report.aggregate_write_pages() as f64;
    let gc: u64 = report.per_osd.iter().map(|o| o.gc_page_moves).sum();
    (host + gc as f64) / host.max(1.0)
}

/// The four simulated statistics of a batch run (Fig. 5, Fig. 6, the
/// §III.B.2 imbalance, write amplification).
fn sim_metrics(o: &mut Outcome, report: &RunReport) {
    let note = "virtual time; identical on every pass (digest-checked)";
    o.value(
        "sim_throughput_ops_per_s",
        report.throughput_ops_per_sec(),
        note,
    );
    o.value(
        "sim_aggregate_erases",
        report.aggregate_erases() as f64,
        note,
    );
    o.value("sim_erase_rsd", report.erase_rsd(), note);
    o.value("sim_write_amp", write_amp(report), note);
}

/// The end-to-end metrics every untraced run reports the same way.
/// `ops` is the work of one pass, `pass_s` the timed regions, `setup_s`
/// what each pass spent before its timed region: input generation and
/// cluster build (daemon start), all of it repeated on every pass.
fn host_metrics(o: &mut Outcome, ops: u64, pass_s: &[f64], setup_s: &[f64]) {
    let rate: Vec<f64> = pass_s.iter().map(|s| ops as f64 / s).collect();
    o.set("host_ops_per_s", Summary::of(&rate), "timed passes");
    o.set(
        "setup_s",
        Summary::of(setup_s),
        "input generation + cluster build of each pass",
    );
    o.value("host_peak_rss_mib", peak_rss_mib(), "VmHWM of this process");
}

/// For a batch run the one request a user issues is the run itself, so
/// a request is a timed pass. A handful of passes supports no percentile
/// beyond the median; the tail metric then repeats the median and says
/// so, rather than quote a maximum as a p99.
fn pass_request_metrics(o: &mut Outcome, pass_s: &[f64]) {
    let mut ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    o.set(
        "req_p50_ms",
        Summary::of(&ms),
        "one request = one timed pass",
    );
    let p = supported_percentile(ms.len(), 99.0);
    let tail = if p == 50.0 {
        Summary::of(&ms)
    } else {
        Summary::single(percentile(&ms, p))
    };
    o.set(
        "req_p99_ms",
        tail,
        format!(
            "p{p} of {} timed passes (p99 needs 1000 samples to have 10 beyond it)",
            ms.len()
        ),
    );
}
