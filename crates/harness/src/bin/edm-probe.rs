//! `edm-probe` — diagnostic deep-dive into one run: windowed response
//! times around the migration point and the per-OSD wear/load profile.
//!
//! ```text
//! edm-probe <trace> <policy> [scale] [osds]
//! edm-probe --journal <file.jsonl>
//! edm-probe --verify <file.jsonl>
//! edm-probe --snapshot <file.snap>
//! ```
//!
//! The `--journal` mode summarizes an observability journal written by
//! `edm-sim --obs <file> --obs-level events`: the per-OSD erase
//! timeline, the migration-decision trace (trigger evaluations, chosen
//! plans, predicted effects), per-component sections for sharded runs,
//! and the latency histograms. Exits nonzero if any line fails to
//! parse.
//!
//! The `--verify` mode replays the journal through the `edm-spec`
//! abstract state machine: every event must be a legal EDM transition
//! (placement, remap bijection, migration lifecycle, trigger semantics,
//! plan consistency, GC/wear accounting). Prints the events checked,
//! the state-machine coverage, and — on the first illegal event — the
//! violating journal line. Exits nonzero on any violation.
//!
//! The `--snapshot` mode prints an `edm-snap` checkpoint's manifest —
//! sections and sizes, virtual clock, progress, policy, per-OSD erase
//! counts, and the embedded scenario — without materializing a
//! simulator, so it is safe to point at checkpoints from newer or older
//! simulator builds. Exits nonzero on a corrupt or truncated file.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use edm_cluster::SnapManifest;
use edm_harness::runner::{run_one, Run};
use edm_harness::SnapMeta;
use edm_obs::json::{Raw, Record};
use edm_snap::{SnapshotFile, FORMAT_VERSION};

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the tool's configuration, not simulation input"
    )]
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--journal") => {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: edm-probe --journal <file.jsonl>");
                std::process::exit(2);
            });
            journal_mode(&path);
        }
        Some("--verify") => {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: edm-probe --verify <file.jsonl>");
                std::process::exit(2);
            });
            verify_mode(&path);
        }
        Some("--snapshot") => {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("usage: edm-probe --snapshot <file.snap>");
                std::process::exit(2);
            });
            snapshot_mode(&path);
        }
        first => run_mode(first.map(str::to_string), args),
    }
}

fn snapshot_mode(path: &str) {
    let snap = SnapshotFile::read_from(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let size: u64 = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("{path}: edm-snap v{FORMAT_VERSION}, {size} bytes");
    println!("-- sections --");
    for name in snap.section_names() {
        let len = snap.reader(name).map(|r| r.remaining()).unwrap_or(0);
        println!("{name:<10} {len} bytes");
    }
    let manifest = SnapManifest::from_snapshot(&snap).unwrap_or_else(|e| {
        eprintln!("{path}: bad manifest: {e}");
        std::process::exit(1);
    });
    println!("-- manifest --");
    println!("virtual clock   {:.3}s", manifest.now_us as f64 / 1e6);
    println!(
        "progress        {} / {} ops ({:.1}%)",
        manifest.completed_ops,
        manifest.total_records,
        manifest.completed_ops as f64 / manifest.total_records.max(1) as f64 * 100.0
    );
    println!("policy          {}", manifest.policy);
    let total: u64 = manifest.per_osd_erases.iter().sum();
    println!(
        "erases          {} total across {} OSDs",
        total,
        manifest.per_osd_erases.len()
    );
    for (o, e) in manifest.per_osd_erases.iter().enumerate() {
        println!("  osd{o:<3} {e}");
    }
    match SnapMeta::decode(&manifest.extra) {
        Ok(meta) => {
            println!("trace fp        {:#018x}", meta.trace_fingerprint);
            println!("-- embedded scenario --");
            print!("{}", meta.scenario);
        }
        Err(_) if manifest.extra.is_empty() => println!("(no embedded scenario)"),
        Err(e) => {
            eprintln!("{path}: bad embedded scenario metadata: {e}");
            std::process::exit(1);
        }
    }
}

fn verify_mode(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let report = edm_spec::verify_journal(&text);
    println!(
        "{path}: {} events checked, {} trailers, {} component tags",
        report.events, report.trailers, report.components
    );
    println!(
        "-- state-machine coverage ({} of {} kinds) --",
        report.kinds_seen(),
        edm_spec::SpecReport::kinds_known()
    );
    for kind in edm_obs::Event::KINDS {
        let n = report.kind_counts.get(kind).copied().unwrap_or(0);
        let mark = if n > 0 { ' ' } else { '-' };
        println!("{mark} {kind:<18} {n}");
    }
    match &report.violation {
        None => println!("conformant: every event is a legal EDM transition"),
        Some(v) => {
            eprintln!("{path}:{}: violation: {}", v.line, v.message);
            std::process::exit(1);
        }
    }
}

fn get_u64(r: &Record<'_>, key: &str) -> u64 {
    r.get(key).and_then(Raw::as_u64).unwrap_or(0)
}

fn get_f64(r: &Record<'_>, key: &str) -> f64 {
    r.get(key).and_then(Raw::as_f64).unwrap_or(f64::NAN)
}

fn get_str<'a>(r: &Record<'a>, key: &str) -> Cow<'a, str> {
    r.get(key)
        .and_then(Raw::as_str)
        .unwrap_or(Cow::Borrowed("?"))
}

/// One component tag's share of a sharded journal.
#[derive(Default)]
struct Comp {
    events: u64,
    erase_times: Vec<u64>,
    osds: BTreeSet<u64>,
}

/// Everything `--journal` prints, gathered in one pass over the records
/// so no record outlives its line.
#[derive(Default)]
struct Summary {
    records: usize,
    trailers: usize,
    max_t: u64,
    /// `(t_us, osd)` of every `block_erase`.
    erases: Vec<(u64, u64)>,
    comps: BTreeMap<u64, Comp>,
    triggers: Vec<String>,
    plans: Vec<String>,
    counters: Vec<String>,
    hists: Vec<String>,
}

impl Summary {
    fn add(&mut self, r: &Record<'_>) {
        let kind = get_str(r, "kind");
        let t_us = get_u64(r, "t_us");
        self.records += 1;
        self.max_t = self.max_t.max(t_us);
        if matches!(&*kind, "counter" | "gauge" | "hist") {
            self.trailers += 1;
        }
        if kind == "block_erase" {
            self.erases.push((t_us, get_u64(r, "osd")));
        }
        if r.get("comp").is_some() {
            let comp = self.comps.entry(get_u64(r, "comp")).or_default();
            comp.events += 1;
            if kind == "block_erase" {
                comp.erase_times.push(t_us);
            }
            if let Some(o) = r.get("osd").and_then(Raw::as_u64) {
                comp.osds.insert(o);
            }
        }
        let len = |key: &str| r.get(key).and_then(Raw::items).map_or(0, |v| v.len());
        match &*kind {
            "trigger_eval" => self.triggers.push(format!(
                "{:>10.3}  {:<8} {:<16} {:>8.4} {:>8.4}  {:<5}  {:>3} {:>3}",
                t_us as f64 / 1e6,
                get_str(r, "policy"),
                get_str(r, "metric"),
                get_f64(r, "rsd"),
                get_f64(r, "lambda"),
                r.get("triggered").and_then(Raw::as_bool) == Some(true),
                len("sources"),
                len("destinations"),
            )),
            "plan_chosen" => self.plans.push(format!(
                "plan at {:.3}s: {} moves {} objects / {} bytes",
                t_us as f64 / 1e6,
                get_str(r, "policy"),
                get_u64(r, "moves"),
                get_u64(r, "moved_bytes"),
            )),
            "plan_assessment" => self.plans.push(format!(
                "  predicted RSD {:.4} -> {:.4} for {} bytes / {} write pages shifted",
                get_f64(r, "rsd_before"),
                get_f64(r, "rsd_after"),
                get_u64(r, "moved_bytes"),
                get_u64(r, "moved_write_pages"),
            )),
            "counter" => self.counters.push(format!(
                "{:<28} {}",
                get_str(r, "name"),
                get_u64(r, "value")
            )),
            "hist" => self.hists.push(format!(
                "{:<20} n={:<9} p50={} p95={} p99={} max={}",
                get_str(r, "name"),
                get_u64(r, "count"),
                get_u64(r, "p50"),
                get_u64(r, "p95"),
                get_u64(r, "p99"),
                get_u64(r, "max"),
            )),
            _ => {}
        }
    }

    fn print(&self, path: &str) {
        println!(
            "{path}: {} records ({} events, {} trailers, {} components)",
            self.records,
            self.records - self.trailers,
            self.trailers,
            self.comps.len()
        );

        // Per-OSD erase timeline: block_erase events bucketed over the run.
        const COLS: usize = 12;
        if !self.erases.is_empty() {
            let max_t = self.erases.iter().map(|&(t, _)| t).max().unwrap_or(0);
            let max_osd = self.erases.iter().map(|&(_, o)| o).max().unwrap_or(0) as usize;
            let width = max_t / COLS as u64 + 1;
            let mut counts = vec![[0u64; COLS]; max_osd + 1];
            for &(t, o) in &self.erases {
                counts[o as usize][(t / width) as usize] += 1;
            }
            println!(
                "-- per-OSD erase timeline ({COLS} x {:.2}s buckets) --",
                width as f64 / 1e6
            );
            for (o, row) in counts.iter().enumerate() {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    continue;
                }
                let cells: Vec<String> = row.iter().map(|c| format!("{c:>5}")).collect();
                println!("osd{o:<3} |{}| total {total}", cells.join(" "));
            }
        }

        // Per-component sections for sharded runs: each worker's share of
        // the event stream and its erase timeline. Triggers and plans stay
        // in the global tables below — planning runs on the coordinator and
        // its events carry no component tag.
        if !self.comps.is_empty() {
            let width = self.max_t / COLS as u64 + 1;
            println!(
                "-- per-component erase timelines ({} workers, {COLS} x {:.2}s buckets) --",
                self.comps.len(),
                width as f64 / 1e6
            );
            for (c, comp) in &self.comps {
                let mut row = [0u64; COLS];
                for &t in &comp.erase_times {
                    row[(t / width) as usize] += 1;
                }
                let cells: Vec<String> = row.iter().map(|n| format!("{n:>5}")).collect();
                println!(
                    "comp{c:<3} |{}| {} erases / {} events on {} OSDs",
                    cells.join(" "),
                    comp.erase_times.len(),
                    comp.events,
                    comp.osds.len()
                );
            }
        }

        // Migration-decision trace: trigger verdicts, plans, predictions.
        if !self.triggers.is_empty() {
            println!("-- trigger evaluations --");
            println!(
                "{:>10}  {:<8} {:<16} {:>8} {:>8}  fired  src dst",
                "t(s)", "policy", "metric", "rsd", "lambda"
            );
        }
        for line in self.triggers.iter().chain(&self.plans) {
            println!("{line}");
        }

        // Counter and histogram trailer records.
        if !self.counters.is_empty() {
            println!("-- counters --");
        }
        for line in &self.counters {
            println!("{line}");
        }
        if !self.hists.is_empty() {
            println!("-- latency histograms (us) --");
        }
        for line in &self.hists {
            println!("{line}");
        }
    }
}

fn journal_mode(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut rec = Record::default();
    let mut summary = Summary::default();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = rec.read(line) {
            eprintln!("{path}:{}: bad journal line: {e}", no + 1);
            std::process::exit(1);
        }
        summary.add(&rec);
    }
    summary.print(path);
}

fn run_mode(first: Option<String>, mut args: impl Iterator<Item = String>) {
    fn usage(why: &str) -> ! {
        eprintln!("edm-probe: {why}\nusage: edm-probe <trace> <policy> [scale] [osds]");
        std::process::exit(2);
    }
    let trace_name = first.unwrap_or_else(|| "home02".into());
    let policy_name = args.next().unwrap_or_else(|| "EDM-HDF".into());
    let scale: f64 = args.next().map_or(0.01, |s| {
        s.parse()
            .unwrap_or_else(|e| usage(&format!("bad scale {s:?}: {e}")))
    });
    let osds: u32 = args.next().map_or(16, |s| {
        s.parse()
            .unwrap_or_else(|e| usage(&format!("bad osds {s:?}: {e}")))
    });

    let run = Run::paper(&trace_name, &policy_name, osds, scale);
    let window_us = run.cluster.response_window_us;
    let report = run_one(&run).unwrap_or_else(|why| usage(&why));

    println!(
        "{} on {} (scale {scale}, {osds} OSDs): {:.0} ops/s, mean {:.0}us, moved {}, {} erases",
        report.policy,
        report.trace,
        report.throughput_ops_per_sec(),
        report.mean_response_us,
        report.moved_objects,
        report.aggregate_erases()
    );
    let (p50, p95, p99) = report.response_percentiles_us;
    println!("response percentiles: p50={p50}us p95={p95}us p99={p99}us");
    println!("-- response windows ({window_us}us each) --");
    for w in &report.response_windows {
        if w.completed_ops == 0 {
            continue;
        }
        println!(
            "t={:>6.2}s ops={:>7} mean={:>8.0}us",
            w.start_us as f64 / 1e6,
            w.completed_ops,
            w.mean_response_us
        );
    }
    println!("-- per-OSD --");
    for o in &report.per_osd {
        println!(
            "osd{:<2} erases={:>6} writes={:>8} gc_moves={:>8} util={:.3} busy={:.2}s ({:.0}%) peakq={}",
            o.osd,
            o.erase_count,
            o.write_pages,
            o.gc_page_moves,
            o.utilization,
            o.busy_us as f64 / 1e6,
            o.busy_us as f64 / report.duration_us.max(1) as f64 * 100.0, o.peak_queue_depth
        );
    }
}
