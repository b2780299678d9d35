//! `edm-serve` — live endurance-aware migration daemon.
//!
//! ```text
//! edm-serve <scenario-file> [--mode replay|ingest] [--speed <x>]
//!           [--port <n>] [--port-file <path>]
//!           [--checkpoint-dir <dir>] [--checkpoint-every <virtual-secs>]
//!           [--journal <out.jsonl>] [--obs-level off|metrics|events]
//!           [--backend mem|dir:<root>]
//! edm-serve --resume <snapshot.snap> [same options]
//! edm-serve --dump-ops <scenario-file>
//! ```
//!
//! Replay mode drives the scenario's synthesized trace through the full
//! engine, dilated against the wall clock (`--speed` virtual µs per wall
//! µs; omit it to replay flat out). Ingest mode starts an idle cluster
//! and applies operations POSTed to `/ingest` (`r|w <file> <offset>
//! <len>` lines, `end` to close the stream). Either way the daemon
//! serves `GET /healthz /nodes /plan /stats /metrics` and accepts
//! `POST /pause /resume /checkpoint /shutdown` on a loopback port.
//!
//! `--dump-ops` prints a scenario's trace as ingest protocol lines, so a
//! shell can pipe a corpus scenario straight back into `POST /ingest`.
//!
//! Crash recovery: with `--checkpoint-dir`, `POST /checkpoint` (or the
//! `--checkpoint-every` cadence) cuts `edm-snap` checkpoints at safe
//! points. `--resume <snap>` rebuilds the world from the embedded
//! scenario; in ingest mode, re-feed the *entire* op stream — the
//! resumed daemon skips what the checkpoint already covers and converges
//! on the uninterrupted run's `/stats` bit for bit.

use std::net::TcpListener;
use std::path::PathBuf;

use edm_obs::ObsLevel;
use edm_scenario::Scenario;
use edm_serve::{dump_ops, run_daemon_on, BackendKind, DaemonConfig, Mode};

const USAGE: &str = "usage: edm-serve <scenario-file> [--mode replay|ingest] \
     [--speed <x>] [--port <n>] [--port-file <path>] \
     [--checkpoint-dir <dir>] [--checkpoint-every <virtual-secs>] \
     [--journal <out.jsonl>] [--obs-level off|metrics|events] \
     [--backend mem|dir:<root>] \
     | edm-serve --resume <snapshot.snap> [options] \
     | edm-serve --dump-ops <scenario-file>";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

fn read_scenario(path: &str) -> Scenario {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("{path}: cannot read scenario: {e}")));
    Scenario::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the daemon's configuration, not simulation input"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail(USAGE);
    }
    let mut scenario_path: Option<String> = None;
    let mut dump: Option<String> = None;
    let mut mode = Mode::Replay;
    let mut speed: Option<f64> = None;
    let mut port: u16 = 0;
    let mut port_file: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every_us: Option<u64> = None;
    let mut resume: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut obs_level = ObsLevel::Events;
    let mut backend = BackendKind::Mem;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--dump-ops" => dump = Some(value("--dump-ops")),
            "--mode" => {
                mode = match value("--mode").as_str() {
                    "replay" => Mode::Replay,
                    "ingest" => Mode::Ingest,
                    other => fail(&format!("bad --mode {other:?} (replay|ingest)")),
                }
            }
            "--speed" => {
                let v = value("--speed");
                let x: f64 = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --speed value {v:?}")));
                if x.is_nan() || x <= 0.0 {
                    fail("--speed must be positive");
                }
                speed = Some(x);
            }
            "--port" => {
                let v = value("--port");
                port = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --port value {v:?}")));
            }
            "--port-file" => port_file = Some(PathBuf::from(value("--port-file"))),
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir"))),
            "--checkpoint-every" => {
                let v = value("--checkpoint-every");
                checkpoint_every_us =
                    Some(Scenario::checkpoint_every_us(&v).unwrap_or_else(|e| fail(&e)));
            }
            "--resume" => resume = Some(PathBuf::from(value("--resume"))),
            "--journal" => journal = Some(PathBuf::from(value("--journal"))),
            "--obs-level" => {
                let v = value("--obs-level");
                obs_level = ObsLevel::parse(&v).unwrap_or_else(|| {
                    fail(&format!("bad --obs-level {v:?} (off|metrics|events)"))
                });
            }
            "--backend" => {
                let v = value("--backend");
                backend = if v == "mem" {
                    BackendKind::Mem
                } else if let Some(root) = v.strip_prefix("dir:") {
                    BackendKind::Dir(PathBuf::from(root))
                } else {
                    fail(&format!("bad --backend {v:?} (mem|dir:<root>)"))
                };
            }
            other if other.starts_with("--") => fail(&format!("unknown option {other}\n{USAGE}")),
            other => {
                if scenario_path.is_some() {
                    fail(USAGE);
                }
                scenario_path = Some(other.to_string());
            }
        }
    }

    if let Some(path) = dump {
        print!("{}", dump_ops(&read_scenario(&path)));
        return;
    }

    // `--checkpoint-dir` alone is fine (`POST /checkpoint`); a cadence
    // with nowhere to write would silently never checkpoint.
    if checkpoint_every_us.is_some() && checkpoint_dir.is_none() {
        fail("--checkpoint-every needs --checkpoint-dir");
    }
    let scenario = match (&scenario_path, &resume) {
        (Some(path), _) => read_scenario(path),
        // A pure resume takes its scenario from the checkpoint; this one
        // is a placeholder the daemon never builds from.
        (None, Some(_)) => Scenario::default(),
        (None, None) => fail(USAGE),
    };

    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| fail(&format!("cannot bind 127.0.0.1:{port}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("cannot read bound address: {e}")));
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .unwrap_or_else(|e| fail(&format!("{}: cannot write port file: {e}", path.display())));
    }
    println!("edm-serve listening on {addr}");

    let config = DaemonConfig {
        scenario,
        mode,
        speed,
        checkpoint_dir,
        checkpoint_every_us,
        resume,
        journal,
        obs_level,
        backend,
    };
    if let Err(e) = run_daemon_on(listener, config) {
        fail(&e);
    }
}
