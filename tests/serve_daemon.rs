//! End-to-end tests of the edm-serve daemon over a real loopback socket.
//!
//! Each test binds an ephemeral port, runs the daemon session on a
//! thread, and speaks actual HTTP/1.1 through `TcpStream` — covering
//! the full ingest → wear tick → trigger → migration → observability
//! pipeline, the replay digest equivalence, and the checkpoint/resume
//! convergence contract through the daemon (not just the library).
//!
//! These tests race a real daemon against wall-clock deadlines, so they
//! legitimately read `Instant::now` at the process boundary — the
//! simulation state they assert on stays virtual-time-deterministic.
#![expect(
    clippy::disallowed_methods,
    reason = "races a real daemon against wall-clock deadlines and spawns its session thread; asserted state stays virtual-time-deterministic"
)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use edm_cluster::MigrationSchedule;
use edm_obs::{render_prometheus, MemoryRecorder, NoopRecorder, ObsLevel};
use edm_scenario::{report_digest, Scenario};
use edm_serve::{
    dump_ops, run_daemon_on, views, BackendKind, DaemonConfig, LiveWorld, MemBackend, Mode,
    ServeRecorder,
};

fn scenario() -> Scenario {
    // Mirrors fuzz/corpus/random-trace-every-tick.scn: a workload that
    // demonstrably crosses wear ticks and fires migrations.
    Scenario {
        trace: "random".into(),
        scale: 0.002,
        schedule: MigrationSchedule::EveryTick,
        lambda: 0.05,
        ..Scenario::default()
    }
}

fn config(mode: Mode) -> DaemonConfig {
    DaemonConfig {
        scenario: scenario(),
        mode,
        speed: None,
        checkpoint_dir: None,
        checkpoint_every_us: None,
        resume: None,
        journal: None,
        obs_level: ObsLevel::Events,
        backend: BackendKind::Mem,
    }
}

struct Daemon {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn start(config: DaemonConfig) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || run_daemon_on(listener, config));
        Daemon { addr, handle }
    }

    fn request(&self, raw: String) -> String {
        let mut s = TcpStream::connect(self.addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        reply
    }

    /// GET `path`, assert 200, return the body.
    fn get(&self, path: &str) -> String {
        let reply = self.request(format!("GET {path} HTTP/1.1\r\n\r\n"));
        assert!(reply.starts_with("HTTP/1.1 200"), "GET {path}: {reply}");
        body_of(&reply)
    }

    fn post(&self, path: &str, body: &str) -> String {
        let reply = self.request(format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        assert!(reply.starts_with("HTTP/1.1 200"), "POST {path}: {reply}");
        body_of(&reply)
    }

    /// Polls `/healthz` until it contains `needle`. Every body is rendered
    /// after the request that asked for it, but what the needles report —
    /// a built world, a drained queue, a cut checkpoint — is the session's
    /// own progress, which no request waits for.
    fn wait_health(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if self.get("/healthz").contains(needle) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "healthz never contained {needle:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Polls `/healthz` until it reports `"done":true`.
    fn wait_done(&self) {
        self.wait_health("\"done\":true");
    }

    fn shutdown(self) {
        self.post("/shutdown", "");
        self.handle.join().unwrap().unwrap();
    }
}

fn body_of(reply: &str) -> String {
    match reply.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => panic!("no header/body separator in {reply:?}"),
    }
}

/// `edm_serve_view_renders_total` of a `/metrics` body, by view.
fn renders(metrics: &str) -> BTreeMap<String, u64> {
    metrics
        .lines()
        .filter_map(|l| {
            l.strip_prefix("edm_serve_view_renders_total{view=\"")?
                .split_once("\"} ")
        })
        .map(|(view, n)| (view.to_string(), n.parse().unwrap()))
        .collect()
}

/// Pulls `edm_<name>_total <value>` out of a Prometheus rendering.
fn metric(metrics: &str, name: &str) -> u64 {
    let needle = format!("edm_{name}_total ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .unwrap_or_else(|| panic!("{name} not in metrics:\n{metrics}"))
        .trim()
        .parse()
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edm-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ingest_daemon_runs_the_full_migration_pipeline() {
    let daemon = Daemon::start(config(Mode::Ingest));
    let ops = dump_ops(&scenario());
    let lines: Vec<&str> = ops.lines().collect();

    // Feed the stream in two chunks plus the end marker, like a client.
    let mid = lines.len() / 2;
    daemon.post("/ingest", &format!("{}\n", lines[..mid].join("\n")));
    // Pause/resume mid-stream: the daemon must hold position, not drop ops.
    daemon.post("/pause", "");
    daemon.wait_health("\"paused\":true");
    daemon.post("/resume", "");
    daemon.post("/ingest", &format!("{}\nend\n", lines[mid..].join("\n")));
    daemon.wait_done();

    // The pipeline ran: ticks fired, the trigger tripped, objects moved.
    let metrics = daemon.get("/metrics");
    assert!(metric(&metrics, "sim_ticks") > 0);
    assert!(metric(&metrics, "sim_migration_evaluations") > 0);
    let moved = metric(&metrics, "sim_moved_objects");
    assert!(moved > 0, "no migrations fired:\n{metrics}");

    // /plan carries the journal's latest trigger/plan records.
    let plan = daemon.get("/plan");
    assert!(plan.contains("\"trigger_eval\""), "{plan}");
    assert!(plan.contains("\"plan_chosen\""), "{plan}");

    // /stats agrees with the metrics and saw every line we sent.
    let stats = daemon.get("/stats");
    assert!(
        stats.contains(&format!("\"applied_ops\":{}", lines.len())),
        "{stats}"
    );
    assert!(
        stats.contains(&format!("\"moved_objects\":{moved}")),
        "{stats}"
    );

    // The in-memory backend applied exactly the completed migrations.
    let healthz = daemon.get("/healthz");
    assert!(
        healthz.contains(&format!("\"backend_moves\":{moved}")),
        "{healthz}"
    );
    assert!(healthz.contains("\"backend_errors\":0"), "{healthz}");

    // /nodes exposes the whole cluster.
    assert!(daemon.get("/nodes").contains("\"osds\":16"));
    daemon.shutdown();
}

#[test]
fn replay_daemon_reproduces_the_batch_digest() {
    let expected = report_digest(&scenario().run(&mut NoopRecorder, None).unwrap().0);
    let daemon = Daemon::start(config(Mode::Replay));
    daemon.wait_done();
    let stats = daemon.get("/stats");
    assert!(
        stats.contains(&format!("{expected:#018x}")),
        "digest mismatch: want {expected:#018x} in {stats}"
    );
    assert!(stats.contains("\"mode\":\"replay\""));
    daemon.shutdown();
}

/// `/metrics` without the control plane's block, which follows the
/// recorder's metrics.
fn recorder_metrics(metrics: &str) -> &str {
    metrics
        .split_once("# TYPE edm_serve_view_renders_total counter\n")
        .map_or(metrics, |(recorder, _)| recorder)
}

/// The integer after the first `prefix` in `text`: a `/stats` field
/// (`"completed_ops":`) or a `/metrics` sample (`\nedm_…_count `).
fn field(text: &str, prefix: &str) -> u64 {
    let rest = &text[text
        .find(prefix)
        .unwrap_or_else(|| panic!("{prefix} not in:\n{text}"))
        + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

#[test]
fn paused_replay_metrics_count_the_ops_stats_reports() {
    let slow = DaemonConfig {
        speed: Some(0.05),
        ..config(Mode::Replay)
    };
    let daemon = Daemon::start(slow);
    daemon.wait_health("\"mode\"");
    let deadline = Instant::now() + Duration::from_secs(60);
    while field(&daemon.get("/stats"), "\"completed_ops\":") == 0 {
        assert!(Instant::now() < deadline, "replay never completed an op");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.post("/pause", "");
    let stats = daemon.get("/stats");
    assert!(stats.contains("\"done\":false"), "{stats}");
    let completed = field(&stats, "\"completed_ops\":");
    let metrics = daemon.get("/metrics");
    assert_eq!(
        metric(&metrics, "sim_ops_completed"),
        completed,
        "{metrics}"
    );
    assert_eq!(field(&metrics, "\nedm_response_us_count "), completed);
    daemon.shutdown();
}

#[test]
fn finished_replay_metrics_are_the_batch_recorders() {
    let mut batch = MemoryRecorder::new(ObsLevel::Events);
    scenario().run(&mut batch, None).unwrap();
    let daemon = Daemon::start(config(Mode::Replay));
    daemon.wait_done();
    let metrics = daemon.get("/metrics");
    assert_eq!(recorder_metrics(&metrics), render_prometheus(&batch));
    daemon.shutdown();
}

#[test]
fn ingest_daemon_resume_converges_on_uninterrupted_stats() {
    let ops = dump_ops(&scenario());
    let lines: Vec<&str> = ops.lines().collect();
    let ckpt_dir = temp_dir("resume");

    // Uninterrupted reference run.
    let daemon = Daemon::start(config(Mode::Ingest));
    daemon.post("/ingest", &format!("{}\nend\n", lines.join("\n")));
    daemon.wait_done();
    let reference = daemon.get("/stats");
    daemon.shutdown();

    // Interrupted run: feed part of the stream, cut a checkpoint, stop.
    let mut interrupted = config(Mode::Ingest);
    interrupted.checkpoint_dir = Some(ckpt_dir.clone());
    let daemon = Daemon::start(interrupted);
    let part = lines.len() / 3;
    daemon.post("/ingest", &format!("{}\n", lines[..part].join("\n")));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let h = daemon.get("/healthz");
        if h.contains(&format!("\"ingest_accepted\":{part}")) && h.contains("\"ingest_buffered\":0")
        {
            break;
        }
        assert!(Instant::now() < deadline, "partial stream never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.post("/checkpoint", "");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !daemon.get("/healthz").contains("\"checkpoints\":1") {
        assert!(Instant::now() < deadline, "checkpoint never cut");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.shutdown(); // the crash stand-in: state survives only in the snapshot

    let snap = std::fs::read_dir(&ckpt_dir)
        .unwrap()
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max()
        .expect("no checkpoint written");

    // Resumed run: re-feed the ENTIRE stream; dedup skips what the
    // checkpoint covers and /stats must converge bit-identically.
    let mut resumed = config(Mode::Ingest);
    resumed.resume = Some(snap);
    let daemon = Daemon::start(resumed);
    daemon.post("/ingest", &format!("{}\nend\n", lines.join("\n")));
    daemon.wait_done();
    let converged = daemon.get("/stats");
    let healthz = daemon.get("/healthz");
    daemon.shutdown();

    assert!(
        healthz.contains(&format!("\"skipped_ops\":{part}")),
        "resume dedup did not consume the checkpointed prefix: {healthz}"
    );
    assert_eq!(reference, converged);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn daemon_rejects_malformed_and_unknown_requests() {
    let daemon = Daemon::start(config(Mode::Ingest));
    let reply = daemon.request("BREW /healthz HTTP/1.1\r\n\r\n".to_string());
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    let reply = daemon.request("GET /no-such-endpoint HTTP/1.1\r\n\r\n".to_string());
    assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
    let reply = daemon.request("GET /healthz\r\n\r\n".to_string());
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    // Bad ingest lines are rejected by the world but the daemon survives.
    daemon.post("/ingest", "not a real op\nw 999999 0 1\nend\n");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !daemon.get("/healthz").contains("\"rejected_lines\":2") {
        assert!(Instant::now() < deadline, "rejects never surfaced");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(daemon.get("/healthz").contains("\"ok\":true"));
    daemon.shutdown();
}

#[test]
fn views_are_rendered_when_asked_for_and_only_then() {
    let daemon = Daemon::start(config(Mode::Ingest));
    daemon.wait_health("\"mode\"");
    let ops = dump_ops(&scenario());
    let lines: Vec<&str> = ops.lines().collect();
    // A render is counted once its body is stored, so a /metrics body
    // counts every /metrics render but its own.
    let before = renders(&daemon.get("/metrics"));
    assert_eq!(before["metrics"], 0);

    // Ingest with nobody reading...
    for batch in lines.chunks(64) {
        daemon.post("/ingest", &format!("{}\n", batch.join("\n")));
    }
    // ...then watch the drain through /metrics alone.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut polls = 0;
    let drained = loop {
        let metrics = daemon.get("/metrics");
        polls += 1;
        // (The counter is absent until the first op is applied.)
        let applied = format!("edm_serve_ops_applied_total {}\n", lines.len());
        if metrics.contains(&applied) {
            break renders(&metrics);
        }
        assert!(Instant::now() < deadline, "stream never drained");
        std::thread::sleep(Duration::from_millis(2));
    };
    // One GET rendered one view, the one it named; the rest stayed at
    // their start-up values through every batch.
    let mut expected = before;
    *expected.get_mut("metrics").unwrap() += polls;
    assert_eq!(drained, expected);

    // The first /stats ever rendered is the in-process world's.
    assert_eq!(drained["stats"], 0);
    let mut world = LiveWorld::new(scenario()).unwrap();
    let mut recorder = ServeRecorder::new(ObsLevel::Events, Box::new(MemBackend::new()));
    world.emit_run_meta(&mut recorder);
    for line in &lines {
        world.apply_line(line, &mut recorder);
    }
    assert_eq!(
        daemon.get("/stats"),
        views::render_live_stats(&world.stats(), world.now_us(), world.cluster())
    );
    assert_eq!(renders(&daemon.get("/metrics"))["stats"], 1);
    daemon.shutdown();
}

#[test]
fn polling_healthz_through_a_drain_renders_only_healthz() {
    let daemon = Daemon::start(config(Mode::Ingest));
    daemon.post("/ingest", &format!("{}end\n", dump_ops(&scenario())));
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut polls = 0;
    while !daemon.get("/healthz").contains("\"done\":true") {
        polls += 1;
        assert!(Instant::now() < deadline, "stream never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    for (view, n) in renders(&daemon.get("/metrics")) {
        match view.as_str() {
            // Reads from before the world was built found no session to ask.
            "healthz" => assert!((1..=polls + 1).contains(&n), "{n} of {polls}"),
            _ => assert_eq!(n, 0, "{view} was rendered unasked"),
        }
    }
    daemon.shutdown();
}

#[test]
fn paused_daemon_still_cuts_requested_checkpoints() {
    let ckpt_dir = temp_dir("paused");
    let mut paused = config(Mode::Ingest);
    paused.checkpoint_dir = Some(ckpt_dir.clone());
    let daemon = Daemon::start(paused);
    daemon.wait_health("\"mode\"");
    // A live session renders a view after the request for it: no polling.
    daemon.post("/pause", "");
    assert!(daemon.get("/healthz").contains("\"paused\":true"));
    daemon.post("/ingest", "r 0 0 1\n");
    daemon.post("/checkpoint", "");
    // A paused world is a safe point: the request is not held for /resume.
    daemon.wait_health("\"checkpoints\":1");
    let healthz = daemon.get("/healthz");
    assert!(healthz.contains("\"paused\":true"), "{healthz}");
    assert!(healthz.contains("\"ingest_buffered\":1"), "{healthz}");
    daemon.post("/resume", "");
    daemon.wait_health("\"ingest_buffered\":0");
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}
