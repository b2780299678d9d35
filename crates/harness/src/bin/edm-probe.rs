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

use edm_cluster::SnapManifest;
use edm_harness::runner::{run_one, Run};
use edm_harness::SnapMeta;
use edm_obs::json::{self, JsonValue};
use edm_snap::SnapshotFile;

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
    println!("{path}: edm-snap v1, {size} bytes");
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

fn get_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

fn journal_mode(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let mut records = Vec::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line) {
            Ok(v) => records.push(v),
            Err(e) => {
                eprintln!("{path}:{}: bad journal line: {e}", no + 1);
                std::process::exit(1);
            }
        }
    }
    let trailers = records
        .iter()
        .filter(|r| matches!(get_str(r, "kind"), "counter" | "gauge" | "hist"))
        .count();
    let events = records.len() - trailers;
    let mut comps: Vec<u64> = records
        .iter()
        .filter(|r| r.get("comp").is_some())
        .map(|r| get_u64(r, "comp"))
        .collect();
    comps.sort_unstable();
    comps.dedup();
    println!(
        "{path}: {} records ({events} events, {trailers} trailers, {} components)",
        records.len(),
        comps.len()
    );

    // Per-OSD erase timeline: block_erase events bucketed over the run.
    let erases: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| get_str(r, "kind") == "block_erase")
        .map(|r| (get_u64(r, "t_us"), get_u64(r, "osd")))
        .collect();
    if !erases.is_empty() {
        let max_t = erases.iter().map(|&(t, _)| t).max().unwrap_or(0);
        let max_osd = erases.iter().map(|&(_, o)| o).max().unwrap_or(0) as usize;
        const COLS: usize = 12;
        let width = max_t / COLS as u64 + 1;
        let mut counts = vec![[0u64; COLS]; max_osd + 1];
        for &(t, o) in &erases {
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
    if !comps.is_empty() {
        const COLS: usize = 12;
        let max_t = records
            .iter()
            .map(|r| get_u64(r, "t_us"))
            .max()
            .unwrap_or(0);
        let width = max_t / COLS as u64 + 1;
        println!(
            "-- per-component erase timelines ({} workers, {COLS} x {:.2}s buckets) --",
            comps.len(),
            width as f64 / 1e6
        );
        for &c in &comps {
            let mut row = [0u64; COLS];
            let mut comp_events = 0u64;
            let mut comp_erases = 0u64;
            let mut osds: Vec<u64> = Vec::new();
            for r in records
                .iter()
                .filter(|r| r.get("comp").is_some() && get_u64(r, "comp") == c)
            {
                comp_events += 1;
                if get_str(r, "kind") == "block_erase" {
                    comp_erases += 1;
                    row[(get_u64(r, "t_us") / width) as usize] += 1;
                }
                if let Some(o) = r.get("osd").and_then(JsonValue::as_u64) {
                    osds.push(o);
                }
            }
            osds.sort_unstable();
            osds.dedup();
            let cells: Vec<String> = row.iter().map(|n| format!("{n:>5}")).collect();
            println!(
                "comp{c:<3} |{}| {comp_erases} erases / {comp_events} events on {} OSDs",
                cells.join(" "),
                osds.len()
            );
        }
    }

    // Migration-decision trace: trigger verdicts, plans, predictions.
    let triggers: Vec<&JsonValue> = records
        .iter()
        .filter(|r| get_str(r, "kind") == "trigger_eval")
        .collect();
    if !triggers.is_empty() {
        println!("-- trigger evaluations --");
        println!(
            "{:>10}  {:<8} {:<16} {:>8} {:>8}  fired  src dst",
            "t(s)", "policy", "metric", "rsd", "lambda"
        );
        for t in &triggers {
            let srcs = t.get("sources").and_then(JsonValue::as_arr);
            let dsts = t.get("destinations").and_then(JsonValue::as_arr);
            println!(
                "{:>10.3}  {:<8} {:<16} {:>8.4} {:>8.4}  {:<5}  {:>3} {:>3}",
                get_u64(t, "t_us") as f64 / 1e6,
                get_str(t, "policy"),
                get_str(t, "metric"),
                get_f64(t, "rsd"),
                get_f64(t, "lambda"),
                t.get("triggered").and_then(JsonValue::as_bool) == Some(true),
                srcs.map_or(0, <[JsonValue]>::len),
                dsts.map_or(0, <[JsonValue]>::len),
            );
        }
    }
    for r in &records {
        match get_str(r, "kind") {
            "plan_chosen" => println!(
                "plan at {:.3}s: {} moves {} objects / {} bytes",
                get_u64(r, "t_us") as f64 / 1e6,
                get_str(r, "policy"),
                get_u64(r, "moves"),
                get_u64(r, "moved_bytes"),
            ),
            "plan_assessment" => println!(
                "  predicted RSD {:.4} -> {:.4} for {} bytes / {} write pages shifted",
                get_f64(r, "rsd_before"),
                get_f64(r, "rsd_after"),
                get_u64(r, "moved_bytes"),
                get_u64(r, "moved_write_pages"),
            ),
            _ => {}
        }
    }

    // Counter and histogram trailer records.
    let counters: Vec<&JsonValue> = records
        .iter()
        .filter(|r| get_str(r, "kind") == "counter")
        .collect();
    if !counters.is_empty() {
        println!("-- counters --");
        for c in counters {
            println!("{:<28} {}", get_str(c, "name"), get_u64(c, "value"));
        }
    }
    let hists: Vec<&JsonValue> = records
        .iter()
        .filter(|r| get_str(r, "kind") == "hist")
        .collect();
    if !hists.is_empty() {
        println!("-- latency histograms (us) --");
        for h in hists {
            println!(
                "{:<20} n={:<9} p50={} p95={} p99={} max={}",
                get_str(h, "name"),
                get_u64(h, "count"),
                get_u64(h, "p50"),
                get_u64(h, "p95"),
                get_u64(h, "p99"),
                get_u64(h, "max"),
            );
        }
    }
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
