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
//! instead of polling. In replay mode the [`LiveRun`] engine holds the
//! recorder for the whole run and lends it out read-only between steps
//! ([`LiveRun::recorder`]); the session gets it back when the run is
//! finished or dropped.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

use edm_cluster::{Cluster, LiveRun, SimOptions, StepPause, TimeSource};
use edm_obs::{render_prometheus, ObsLevel, Recorder};
use edm_scenario::{render_report, report_digest, Checkpoint, Scenario};

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
    let mut recorder = ServeRecorder::new(config.obs_level, backend);
    let ctrl = Arc::new(Ctrl::new());
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener has no local address: {e}"))?;
    let server = spawn_server(listener, Arc::clone(&ctrl));
    let session = match config.mode {
        Mode::Ingest => run_ingest_session(&config, &ctrl, &mut recorder),
        Mode::Replay => run_replay_session(&config, &ctrl, &mut recorder),
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
        recorder
            .inner()
            .write_jsonl_file(path)
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
    recorder: &mut ServeRecorder,
) -> Result<(), String> {
    let mut world = match &config.resume {
        Some(path) => LiveWorld::resume(path)?,
        None => LiveWorld::new(config.scenario.clone())?,
    };
    world.emit_run_meta(recorder);
    let mut checkpoints = 0u64;
    let mut last_ckpt_us = world.now_us();
    let mut batch = Vec::new();
    // Every exit of the loop, a shutdown or a failed checkpoint, passes
    // the publish below: what the world counts reaches the recorder
    // once, before the journal is written.
    let session = (|| -> Result<(), String> {
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
                if let ApplyOutcome::Applied { ticked: true } = world.apply_line(line, recorder) {
                    let due = config
                        .checkpoint_every_us
                        .is_some_and(|every| world.now_us() >= last_ckpt_us.saturating_add(every));
                    if due {
                        checkpoint_world(config, &world, &mut checkpoints, &mut last_ckpt_us)?;
                    }
                    ctrl.serve_views(|v| {
                        render_ingest(v, ctrl, &world, recorder, checkpoints, false)
                    });
                }
            }
        }
    })();
    world.publish(recorder);
    session
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
/// own `/stats` body and `publish` hands over what the mode's own
/// tallies hold. Those reach the recorder only when the session ends,
/// so `/metrics`, in both modes, renders a metrics-only copy of the
/// recorder with them published into it, then the control plane's.
fn render_view(
    view: View,
    ctrl: &Ctrl,
    rec: &ServeRecorder,
    cluster: &Cluster,
    health: &HealthInfo<'_>,
    stats: impl FnOnce() -> String,
    publish: impl FnOnce(&mut dyn Recorder),
) -> String {
    match view {
        View::Healthz => views::render_healthz(health),
        View::Nodes => views::render_nodes(cluster, health.now_us),
        View::Plan => views::render_plan(rec.journal()),
        View::Stats => stats(),
        View::Model => views::render_model(cluster, health.now_us),
        View::Metrics => {
            let mut metrics = rec.inner().metrics_copy();
            publish(&mut metrics);
            let mut out = render_prometheus(&metrics);
            ctrl.write_metrics(&mut out);
            out
        }
    }
}

fn render_ingest(
    view: View,
    ctrl: &Ctrl,
    world: &LiveWorld,
    rec: &ServeRecorder,
    checkpoints: u64,
    done: bool,
) -> String {
    let (policy, now_us) = (world.policy_name(), world.now_us());
    let health = HealthInfo {
        skipped_ops: world.skipped_ops(),
        rejected_lines: world.rejected_lines(),
        last_error: world.last_error().or(rec.last_backend_error()),
        ..health(ctrl, rec, "ingest", &policy, now_us, checkpoints, done)
    };
    let stats = || views::render_live_stats(&world.stats(), now_us, world.cluster());
    render_view(view, ctrl, rec, world.cluster(), &health, stats, |m| {
        world.publish(m)
    })
}

// ---------------------------------------------------------------------------
// Replay mode
// ---------------------------------------------------------------------------

fn run_replay_session(
    config: &DaemonConfig,
    ctrl: &Ctrl,
    recorder: &mut ServeRecorder,
) -> Result<(), String> {
    // A resume takes the scenario from the checkpoint (mirroring the
    // batch tool), a fresh run from the config.
    let ckpt = config.resume.as_deref().map(Checkpoint::open).transpose()?;
    let scenario = ckpt.as_ref().map_or(&config.scenario, |c| &c.scenario);
    let trace = match &ckpt {
        Some(c) => c.trace()?,
        None => scenario.synth_trace(),
    };
    let mut policy = scenario.build_policy()?;
    let policy_name = policy.name().to_string();
    // Always attach a checkpoint config when a dir is given: the engine
    // takes the snapshot's embedded metadata from it, so even purely
    // on-demand checkpoints stay resumable. Without a cadence the
    // interval is effectively infinite (saturating add in the engine).
    let checkpoint = config.checkpoint_dir.as_ref().map(|dir| {
        let every_us = config.checkpoint_every_us.unwrap_or(u64::MAX);
        scenario.checkpoint_config(&trace, every_us, dir.clone())
    });
    let options = SimOptions {
        checkpoint,
        ..scenario.sim_options()
    };
    let mut live = match &ckpt {
        Some(c) => LiveRun::resume(&c.snap, &trace, policy.as_mut(), options, recorder)
            .map_err(|e| format!("resume failed: {e}"))?,
        None => {
            let cluster = scenario.build_cluster(&trace)?;
            LiveRun::new(cluster, &trace, policy.as_mut(), options, recorder)
        }
    };
    let mut dilated = config.speed.map(|s| DilatedPacer::new(s, live.now_us()));
    let mut flat = FlatOut::new();
    let mut checkpoints = 0u64;
    let mut was_paused = false;
    let done = loop {
        let seen = ctrl.serve_views(|v| render_replay(v, ctrl, &live, &policy_name, checkpoints));
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
    let health = health(
        ctrl,
        recorder,
        "replay",
        &policy_name,
        report.duration_us,
        checkpoints,
        true,
    );
    // `finish` has published the tallies into the recorder.
    ctrl.freeze_views(|view| {
        let stats = || views::render_replay_final(&render_report(&report), digest);
        render_view(view, ctrl, recorder, &cluster, &health, stats, |_| {})
    });
    // Keep serving the final views until the client says shutdown.
    ctrl.park_until_shutdown();
    Ok(())
}

fn render_replay(
    view: View,
    ctrl: &Ctrl,
    live: &LiveRun<'_, ServeRecorder>,
    policy_name: &str,
    checkpoints: u64,
) -> String {
    let rec = live.recorder();
    let now_us = live.now_us();
    let health = health(ctrl, rec, "replay", policy_name, now_us, checkpoints, false);
    let stats = || views::render_replay_progress(now_us, live.completed_ops(), live.total_ops());
    render_view(view, ctrl, rec, live.cluster(), &health, stats, |m| {
        live.publish_tallies(m)
    })
}
