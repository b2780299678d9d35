//! `edm-sim` — run a declarative scenario file.
//!
//! ```text
//! edm-sim <scenario-file> [--obs <out.jsonl>] [--obs-level off|metrics|events]
//!         [--checkpoint-every <virtual-secs> --checkpoint-dir <dir>]
//! edm-sim --resume <snapshot.snap> [--obs ...]
//! edm-sim --example          # print a commented example scenario
//! ```
//!
//! `--obs` writes the run's observability output to a file as JSONL:
//! the event journal followed by counter/gauge/histogram trailer
//! records at `--obs-level events`, the trailer records alone at
//! `--obs-level metrics`. `edm-probe --journal` reads either. Passing
//! `--obs` alone implies `--obs-level events`. Recording is read-only —
//! the printed report is identical at every level. Sharding is the
//! scenario's `shards` key.
//!
//! `--checkpoint-every N` cuts an `edm-snap` checkpoint into
//! `--checkpoint-dir` every N seconds of *virtual* time (at wear-tick
//! granularity; `0` means every tick); a run that ends before the first
//! one is due says so on stderr. Each checkpoint embeds the
//! scenario, so `--resume <file>` needs no scenario argument and drives
//! the run to completion — the printed report and determinism digest are
//! bit-identical to the uninterrupted run's.

use std::path::{Path, PathBuf};

use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel, Recorder};
use edm_scenario::{render_report, report_digest, resume_snapshot, Scenario};

const EXAMPLE: &str = "\
# Example edm-sim scenario: lair62 under EDM-HDF with one failure.
trace lair62          # Table 1 preset, or `random`
scale 0.02            # fraction of the full Table 1 op counts
osds 16
groups 4
objects_per_file 4
policy EDM-HDF        # Baseline | CMT | EDM-HDF | EDM-CDF
schedule midpoint     # never | midpoint | every-tick
lambda 0.10
force true            # skip the trigger check at plan time
fail 2000000 3 rebuild  # at 2s of virtual time, OSD 3 dies; rebuild it
";

const USAGE: &str = "usage: edm-sim <scenario-file> [--obs <file>] \
     [--obs-level off|metrics|events] \
     [--checkpoint-every <virtual-secs> --checkpoint-dir <dir>] \
     | edm-sim --resume <snapshot.snap> | edm-sim --example";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// The `ckpt_*` files in `dir` with their modification times. Every cut
/// writes a fresh file, so the listing changes exactly when the run cut
/// one, even over the files of an earlier run.
fn checkpoint_files(dir: &Path) -> Vec<(PathBuf, Option<std::time::SystemTime>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt_"))
        .map(|e| (e.path(), e.metadata().and_then(|m| m.modified()).ok()))
        .collect();
    files.sort();
    files
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the tool's configuration, not simulation input"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--example") {
        print!("{EXAMPLE}");
        return;
    }
    let mut path: Option<String> = None;
    let mut obs_path: Option<String> = None;
    let mut obs_level: Option<ObsLevel> = None;
    let mut ckpt_every_us: Option<u64> = None;
    let mut ckpt_dir: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--obs" => {
                let v = it.next().unwrap_or_else(|| fail("--obs needs a file path"));
                obs_path = Some(v);
            }
            "--checkpoint-every" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--checkpoint-every needs a virtual-seconds value"));
                ckpt_every_us =
                    Some(Scenario::checkpoint_every_us(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--checkpoint-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--checkpoint-dir needs a directory"));
                ckpt_dir = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--resume needs a snapshot file"));
                resume = Some(PathBuf::from(v));
            }
            "--obs-level" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--obs-level needs off|metrics|events"));
                obs_level = Some(
                    ObsLevel::parse(&v)
                        .unwrap_or_else(|| fail(&format!("unknown obs level {v:?}"))),
                );
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(arg),
            other => fail(&format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if resume.is_some() && (path.is_some() || ckpt_every_us.is_some() || ckpt_dir.is_some()) {
        fail("--resume reconstructs the scenario from the snapshot; it takes no scenario file or checkpoint flags");
    }
    let checkpoint = match (ckpt_every_us, ckpt_dir) {
        (Some(every_us), Some(dir)) => Some((every_us, dir)),
        (None, None) => None,
        _ => fail("--checkpoint-every and --checkpoint-dir must be given together"),
    };
    if resume.is_none() && path.is_none() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // `--obs FILE` alone implies the full journal; a non-off level needs
    // somewhere to go.
    let level = obs_level.unwrap_or(if obs_path.is_some() {
        ObsLevel::Events
    } else {
        ObsLevel::Off
    });
    if level > ObsLevel::Off && obs_path.is_none() {
        fail("--obs-level metrics|events requires --obs <file>");
    }

    let mut noop = NoopRecorder;
    let mut mem = MemoryRecorder::new(level);
    let obs: &mut dyn Recorder = if level == ObsLevel::Off {
        &mut noop
    } else {
        &mut mem
    };
    let report = if let Some(snap) = &resume {
        eprintln!("resuming {}", snap.display());
        let (scenario, report) = resume_snapshot(Path::new(snap), obs).unwrap_or_else(|e| fail(&e));
        eprintln!("resumed {scenario:?}");
        report
    } else {
        let path = path.expect("checked above");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        eprintln!("running {scenario:?}");
        if scenario.shards > 0 {
            let decision = scenario
                .shard_decision()
                .unwrap_or_else(|e| fail(&format!("scenario failed: {e}")));
            eprintln!("{decision}");
            if checkpoint.is_some() {
                eprintln!("shard-plan: checkpointing forces the sequential path");
            }
        }
        let before = checkpoint.as_ref().map(|(_, dir)| checkpoint_files(dir));
        let report = scenario
            .run(obs, checkpoint.clone())
            .unwrap_or_else(|e| fail(&format!("scenario failed: {e}")))
            .0;
        if let (Some((every_us, dir)), Some(before)) = (&checkpoint, before) {
            if checkpoint_files(dir) == before {
                eprintln!(
                    "edm-sim: no checkpoint was cut: the run ended at {} s of virtual time, \
                     before the first one was due (--checkpoint-every {} s)",
                    report.duration_us as f64 / 1e6,
                    *every_us as f64 / 1e6
                );
            }
        }
        report
    };
    print!("{}", render_report(&report));
    println!("determinism digest {:#018x}", report_digest(&report));

    if let Some(out) = obs_path.filter(|_| level > ObsLevel::Off) {
        mem.write_jsonl_file(Path::new(&out))
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        eprintln!(
            "obs: wrote {} ({} journal events)",
            out,
            mem.journal().len()
        );
    }
}
