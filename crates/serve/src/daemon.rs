//! The daemon itself: session loops wiring the simulation to the HTTP
//! control plane.
//!
//! Threading model: `run_daemon_on` spawns exactly one extra thread (the
//! HTTP server) and keeps every piece of simulation state — trace,
//! policy, cluster, recorder — on the calling thread's stack. The two
//! threads meet only at the [`Ctrl`] block: at every safe point (batch
//! boundary, wear tick, replay step return, wake-up from a park) the
//! session renders the views a reader is waiting for — none, when nobody
//! reads — and with nothing to do it parks on the block's condvar
//! instead of polling. In replay mode the recorder
//! sits in a `RefCell` because the [`LiveRun`] engine holds an exclusive
//! borrow of its recorder for the whole run; the cell lets the session
//! loop read journals and counters between steps, when the engine is
//! suspended and provably not borrowing.

use std::cell::RefCell;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use edm_cluster::{
    CheckpointConfig, Cluster, LiveRun, SimOptions, SnapManifest, StepPause, TimeSource,
};
use edm_obs::{render_prometheus, Histogram, ObsLevel, Recorder};
use edm_scenario::{render_report, report_digest, Scenario, SnapMeta};
use edm_snap::SnapshotFile;

use crate::backend::{Backend, DirBackend, MemBackend};
use crate::ingest::{ApplyOutcome, LiveWorld};
use crate::pacer::{DilatedPacer, FlatOut};
use crate::recorder::ServeRecorder;
use crate::server::{spawn_server, wake_server};
use crate::state::{Ctrl, View};
use crate::views::{self, HealthInfo};

/// How the daemon sources its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Replay the scenario's synthesized trace through the full engine,
    /// dilated against the wall clock.
    Replay,
    /// Accept operations over `POST /ingest` and apply them live.
    Ingest,
}

/// Which backend receives completed migrations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    Mem,
    Dir(PathBuf),
}

/// Everything `run_daemon_on` needs besides the listener.
pub struct DaemonConfig {
    pub scenario: Scenario,
    pub mode: Mode,
    /// Virtual µs per wall µs for replay pacing; `None` replays flat out.
    pub speed: Option<f64>,
    pub checkpoint_dir: Option<PathBuf>,
    /// Periodic checkpoint cadence (virtual µs). On-demand
    /// `POST /checkpoint` works regardless whenever a dir is configured.
    pub checkpoint_every_us: Option<u64>,
    /// Resume from this checkpoint instead of starting fresh.
    pub resume: Option<PathBuf>,
    /// Write the event journal here on exit.
    pub journal: Option<PathBuf>,
    pub obs_level: ObsLevel,
    pub backend: BackendKind,
}

/// Ingest lines drained per session-loop iteration.
const DRAIN_BATCH: usize = 256;

/// Runs the daemon on an already-bound listener until a shutdown is
/// requested over HTTP (or the session fails to build). Binding is left
/// to the caller so tests and the CLI can pick ports their own way.
pub fn run_daemon_on(listener: TcpListener, config: DaemonConfig) -> Result<(), String> {
    let backend: Box<dyn Backend> = match &config.backend {
        BackendKind::Mem => Box::new(MemBackend::new()),
        BackendKind::Dir(root) => Box::new(DirBackend::open(root.clone())?),
    };
    let recorder = RefCell::new(ServeRecorder::new(config.obs_level, backend));
    let ctrl = Arc::new(Ctrl::new());
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener has no local address: {e}"))?;
    let server = spawn_server(listener, Arc::clone(&ctrl));
    let session = match config.mode {
        Mode::Ingest => run_ingest_session(&config, &ctrl, &recorder),
        Mode::Replay => run_replay_session(&config, &ctrl, &recorder),
    };
    // Whatever happened, release any waiting reader and the server
    // thread (which may be blocked in `accept`) before returning.
    ctrl.end_session();
    ctrl.request_shutdown();
    wake_server(addr);
    if server.join().is_err() {
        return Err("server thread panicked".to_string());
    }
    if let Some(path) = &config.journal {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("creating journal {}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        recorder
            .borrow()
            .inner()
            .write_jsonl(&mut w)
            .map_err(|e| format!("writing journal {}: {e}", path.display()))?;
    }
    session
}

// ---------------------------------------------------------------------------
// Ingest mode
// ---------------------------------------------------------------------------

fn run_ingest_session(
    config: &DaemonConfig,
    ctrl: &Ctrl,
    recorder: &RefCell<ServeRecorder>,
) -> Result<(), String> {
    let mut world = match &config.resume {
        Some(path) => LiveWorld::resume(path)?,
        None => LiveWorld::new(config.scenario.clone())?,
    };
    {
        let mut rec = recorder.borrow_mut();
        world.emit_run_meta(&mut *rec);
    }
    let mut checkpoints = 0u64;
    let mut last_ckpt_us = world.now_us();
    let mut batch = Vec::new();
    loop {
        let seen = ctrl.serve_views(|v| {
            let done = ctrl.ingest_complete();
            render_ingest(v, ctrl, &world, recorder, checkpoints, done)
        });
        if ctrl.shutdown_requested() {
            return Ok(());
        }
        // Between operations the live world holds no mid-decision state,
        // paused or not: an explicit checkpoint request is honored here.
        if ctrl.take_checkpoint_request() {
            checkpoint_world(config, &world, &mut checkpoints, &mut last_ckpt_us)?;
        }
        if ctrl.is_paused() {
            batch.clear();
        } else {
            ctrl.drain_ingest(DRAIN_BATCH, &mut batch);
        }
        if batch.is_empty() {
            ctrl.park(seen);
            continue;
        }
        for line in &batch {
            let outcome = {
                let mut rec = recorder.borrow_mut();
                world.apply_line(line, &mut *rec)
            };
            if let ApplyOutcome::Applied { ticked: true } = outcome {
                let due = config
                    .checkpoint_every_us
                    .is_some_and(|every| world.now_us() >= last_ckpt_us.saturating_add(every));
                if due {
                    checkpoint_world(config, &world, &mut checkpoints, &mut last_ckpt_us)?;
                }
                ctrl.serve_views(|v| render_ingest(v, ctrl, &world, recorder, checkpoints, false));
            }
        }
    }
}

fn checkpoint_world(
    config: &DaemonConfig,
    world: &LiveWorld,
    checkpoints: &mut u64,
    last_ckpt_us: &mut u64,
) -> Result<(), String> {
    let Some(dir) = &config.checkpoint_dir else {
        // No dir configured: the request is acknowledged but inert.
        return Ok(());
    };
    world
        .checkpoint_now(dir)
        .map_err(|e| format!("checkpoint failed: {e}"))?;
    *checkpoints += 1;
    *last_ckpt_us = world.now_us();
    Ok(())
}

/// The `/healthz` inputs both modes share; ingest adds its own counters.
fn health<'a>(
    ctrl: &Ctrl,
    rec: &'a ServeRecorder,
    mode: &'a str,
    policy: &'a str,
    now_us: u64,
    checkpoints: u64,
    done: bool,
) -> HealthInfo<'a> {
    let (accepted, buffered, closed) = ctrl.ingest_status();
    HealthInfo {
        mode,
        policy,
        backend: rec.backend().name(),
        now_us,
        paused: ctrl.is_paused(),
        done,
        ingest_accepted: accepted,
        ingest_buffered: buffered as u64,
        ingest_closed: closed,
        skipped_ops: 0,
        rejected_lines: 0,
        checkpoints,
        backend_moves: rec.backend().moves_applied(),
        backend_errors: rec.backend_errors(),
        last_error: rec.last_backend_error(),
    }
}

/// Renders one view of a session at a safe point; `stats` is the mode's
/// own `/stats` body.
fn render_view(
    view: View,
    ctrl: &Ctrl,
    rec: &ServeRecorder,
    cluster: &Cluster,
    health: &HealthInfo<'_>,
    stats: impl FnOnce() -> String,
) -> String {
    match view {
        View::Healthz => views::render_healthz(health),
        View::Nodes => views::render_nodes(cluster, health.now_us),
        View::Plan => views::render_plan(rec.journal()),
        View::Stats => stats(),
        View::Model => views::render_model(cluster, health.now_us),
        View::Metrics => {
            let mut out = render_prometheus(rec.inner());
            ctrl.write_metrics(&mut out);
            out
        }
    }
}

fn render_ingest(
    view: View,
    ctrl: &Ctrl,
    world: &LiveWorld,
    recorder: &RefCell<ServeRecorder>,
    checkpoints: u64,
    done: bool,
) -> String {
    let rec = recorder.borrow();
    let (policy, now_us) = (world.policy_name(), world.now_us());
    let health = HealthInfo {
        skipped_ops: world.skipped_ops(),
        rejected_lines: world.rejected_lines(),
        last_error: world.last_error().or(rec.last_backend_error()),
        ..health(ctrl, &rec, "ingest", &policy, now_us, checkpoints, done)
    };
    render_view(view, ctrl, &rec, world.cluster(), &health, || {
        views::render_live_stats(&world.stats(), now_us, world.cluster())
    })
}

// ---------------------------------------------------------------------------
// Replay mode
// ---------------------------------------------------------------------------

/// Forwards every recorder hook into the shared cell. The engine holds
/// this for the whole run; the session loop reads the cell only while
/// the engine is suspended between steps, so the borrows never overlap.
struct TapRef<'r>(&'r RefCell<ServeRecorder>);

impl Recorder for TapRef<'_> {
    fn level(&self) -> ObsLevel {
        self.0.borrow().level()
    }
    fn set_now(&mut self, now_us: u64) {
        self.0.borrow_mut().set_now(now_us);
    }
    fn set_device(&mut self, device: Option<u32>) {
        self.0.borrow_mut().set_device(device);
    }
    fn set_component(&mut self, component: Option<u32>) {
        self.0.borrow_mut().set_component(component);
    }
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.0.borrow_mut().counter(name, delta);
    }
    fn gauge(&mut self, name: &'static str, value: f64) {
        self.0.borrow_mut().gauge(name, value);
    }
    fn latency(&mut self, name: &'static str, us: u64) {
        self.0.borrow_mut().latency(name, us);
    }
    fn event(&mut self, event: edm_obs::Event) {
        self.0.borrow_mut().event(event);
    }
    fn merge_histogram(&mut self, name: &'static str, hist: &Histogram) {
        self.0.borrow_mut().merge_histogram(name, hist);
    }
    fn events_on(&self) -> bool {
        self.0.borrow().events_on()
    }
}

fn run_replay_session(
    config: &DaemonConfig,
    ctrl: &Ctrl,
    recorder: &RefCell<ServeRecorder>,
) -> Result<(), String> {
    // Resolve the scenario: a resume takes it from the checkpoint's own
    // manifest (mirroring the batch tool), a fresh run from the config.
    let (scenario, snap) = match &config.resume {
        Some(path) => {
            let snap = SnapshotFile::read_from(path)
                .map_err(|e| format!("{}: cannot read snapshot: {e}", path.display()))?;
            let manifest = SnapManifest::from_snapshot(&snap)
                .map_err(|e| format!("{}: bad manifest: {e}", path.display()))?;
            let meta = SnapMeta::decode(&manifest.extra)
                .map_err(|e| format!("{}: bad scenario metadata: {e}", path.display()))?;
            let scenario = Scenario::parse(&meta.scenario)
                .map_err(|e| format!("{}: embedded scenario: {e}", path.display()))?;
            (scenario, Some((snap, meta.trace_fingerprint)))
        }
        None => (config.scenario.clone(), None),
    };
    let trace = scenario.synth_trace();
    if let Some((_, fingerprint)) = &snap {
        if trace.fingerprint() != *fingerprint {
            return Err(format!(
                "re-synthesized trace fingerprint {:#018x} does not match the \
                 checkpoint's {:#018x} — workload generator changed?",
                trace.fingerprint(),
                fingerprint
            ));
        }
    }
    let mut policy = scenario.build_policy()?;
    let policy_name = policy.name().to_string();
    // Always attach a checkpoint config when a dir is given: the engine
    // takes the snapshot's embedded metadata from it, so even purely
    // on-demand checkpoints stay resumable. Without a cadence the
    // interval is effectively infinite (saturating add in the engine).
    let checkpoint = config.checkpoint_dir.as_ref().map(|dir| CheckpointConfig {
        every_us: config.checkpoint_every_us.unwrap_or(u64::MAX),
        dir: dir.clone(),
        meta: SnapMeta {
            scenario: scenario.to_text(),
            trace_fingerprint: trace.fingerprint(),
        }
        .encode(),
    });
    let options = SimOptions {
        schedule: scenario.schedule,
        failures: scenario.failures.clone(),
        affinity: scenario.affinity,
        checkpoint,
        ..SimOptions::default()
    };
    let mut tap = TapRef(recorder);
    let mut live = match &snap {
        Some((snap, _)) => LiveRun::resume(snap, &trace, policy.as_mut(), options, &mut tap)
            .map_err(|e| format!("resume failed: {e}"))?,
        None => {
            let cluster = scenario.build_cluster(&trace)?;
            LiveRun::new(cluster, &trace, policy.as_mut(), options, &mut tap)
        }
    };
    let mut dilated = config.speed.map(|s| DilatedPacer::new(s, live.now_us()));
    let mut flat = FlatOut::new();
    let mut checkpoints = 0u64;
    let mut was_paused = false;
    let done = loop {
        let seen = ctrl
            .serve_views(|v| render_replay(v, ctrl, &live, recorder, &policy_name, checkpoints));
        if ctrl.shutdown_requested() {
            break false;
        }
        if ctrl.is_paused() {
            was_paused = true;
            ctrl.park(seen);
            continue;
        }
        if was_paused {
            // Forgive the paused stretch instead of replaying it as a
            // burst of overdue events.
            was_paused = false;
            if let Some(p) = dilated.as_mut() {
                p.rebase(live.now_us());
            }
        }
        let pace: &mut dyn TimeSource = match dilated.as_mut() {
            Some(p) => p,
            None => &mut flat,
        };
        match live.step(pace) {
            StepPause::Done => break true,
            StepPause::Tick => {
                if ctrl.take_checkpoint_request() {
                    if let Some(dir) = &config.checkpoint_dir {
                        live.checkpoint_now(dir)
                            .map_err(|e| format!("checkpoint failed: {e}"))?;
                        checkpoints += 1;
                    }
                }
            }
            StepPause::Yielded => {}
        }
    };
    if !done {
        return Ok(()); // shut down mid-replay; nothing to finalize
    }
    let (report, cluster) = live.finish();
    let digest = report_digest(&report);
    {
        let rec = recorder.borrow();
        let now_us = report.duration_us;
        let health = health(
            ctrl,
            &rec,
            "replay",
            &policy_name,
            now_us,
            checkpoints,
            true,
        );
        ctrl.freeze_views(|view| {
            render_view(view, ctrl, &rec, &cluster, &health, || {
                views::render_replay_final(&render_report(&report), digest)
            })
        });
    }
    // Keep serving the final views until the client says shutdown.
    ctrl.park_until_shutdown();
    Ok(())
}

fn render_replay(
    view: View,
    ctrl: &Ctrl,
    live: &LiveRun<'_>,
    recorder: &RefCell<ServeRecorder>,
    policy_name: &str,
    checkpoints: u64,
) -> String {
    let rec = recorder.borrow();
    let now_us = live.now_us();
    let health = health(
        ctrl,
        &rec,
        "replay",
        policy_name,
        now_us,
        checkpoints,
        false,
    );
    render_view(view, ctrl, &rec, live.cluster(), &health, || {
        views::render_replay_progress(now_us, live.completed_ops(), live.total_ops())
    })
}
