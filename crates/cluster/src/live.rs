//! Step-wise driver over the replay engine for long-running hosts.
//!
//! The batch entry points ([`crate::sim::run_trace_obs_keep`]) own the
//! whole run: seed, drain, finalize, return. A live daemon cannot hand
//! its thread over like that — it needs to pace events against a wall
//! clock, service control traffic (pause/checkpoint/shutdown) between
//! events, and cut checkpoints on demand. [`LiveRun`] exposes exactly
//! that seam: the same engine, stepped one leg at a time under a caller
//! supplied [`TimeSource`], with every pause point surfaced as a
//! [`StepPause`].
//!
//! Determinism contract: a `LiveRun` stepped to completion produces the
//! same [`RunReport`] (and the same journal) as the batch run of the
//! same world, whatever the time source does — yields only suspend the
//! loop, they never reorder it. That is what makes the daemon's
//! `--resume` equivalence checkable with the existing report digest.

use std::path::{Path, PathBuf};

use edm_obs::{AsDynRecorder, Recorder};
use edm_snap::{SnapError, SnapshotFile};
use edm_workload::Trace;

use crate::cluster::Cluster;
use crate::metrics::RunReport;
use crate::migrate::Migrator;
use crate::pace::TimeSource;
use crate::sim::{new_engine, resume_engine, ClientScripts, Engine, Pause, SimOptions};

/// Where [`LiveRun::step`] handed control back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPause {
    /// A wear-monitor tick body just ran. This is the only point where
    /// the engine has no mid-decision state on the stack, so it is the
    /// only point where [`LiveRun::checkpoint_now`] may be called.
    Tick,
    /// The [`TimeSource`] yielded: the next event is not due yet. The
    /// caller may sleep or service control traffic, then step again.
    Yielded,
    /// The replay is complete; call [`LiveRun::finish`].
    Done,
}

/// A replay engine suspended between legs, owned by a host that decides
/// when to step it. Borrows the trace, policy, and recorder from the
/// caller — the host thread keeps them on its stack for the lifetime of
/// the run, exactly like the batch entry points do internally. Generic
/// over the recorder, like the engine, so the host gets its own recorder
/// type back from [`recorder`](Self::recorder) between steps.
pub struct LiveRun<'a, R: Recorder + AsDynRecorder + ?Sized> {
    engine: Engine<'a, dyn Migrator + 'a, R>,
}

impl<'a, R: Recorder + AsDynRecorder + ?Sized> LiveRun<'a, R> {
    /// Builds a fresh, seeded run (the live analogue of
    /// [`crate::sim::run_trace_obs_keep`], minus the drain). Live runs
    /// are always sequential: pacing is per-event, which has no meaning
    /// under the sharded coordinator's barriers.
    pub fn new(
        cluster: Cluster,
        trace: &'a Trace,
        policy: &'a mut dyn Migrator,
        options: SimOptions,
        obs: &'a mut R,
    ) -> LiveRun<'a, R> {
        cluster.emit_run_meta(obs.as_dyn_mut());
        let clients = ClientScripts::build(&cluster, trace, options.affinity);
        let mut engine = new_engine(cluster, trace, policy, options, obs, clients);
        engine.seed_events();
        LiveRun { engine }
    }

    /// Rebuilds a run from a wear-tick checkpoint (the live analogue of
    /// [`crate::sim::resume_trace_obs_keep`], minus the drain). The
    /// caller supplies the same world the checkpoint was cut in; see
    /// that function's docs for the contract.
    pub fn resume(
        snap: &SnapshotFile,
        trace: &'a Trace,
        policy: &'a mut dyn Migrator,
        options: SimOptions,
        obs: &'a mut R,
    ) -> Result<LiveRun<'a, R>, SnapError> {
        resume_engine(snap, trace, policy, options, obs).map(|engine| LiveRun { engine })
    }

    /// Runs one leg: dispatches events under `pace` until the source
    /// yields, a wear-monitor tick body completes, or the replay drains.
    /// The tick body (policy notification, continuous-mode migration,
    /// scheduled checkpoints) runs *inside* this call, so a returned
    /// [`StepPause::Tick`] means the engine is already past it.
    pub fn step(&mut self, pace: &mut dyn TimeSource) -> StepPause {
        if self.engine.run_paced(pace) {
            return StepPause::Yielded;
        }
        match self.engine.paused {
            Pause::Tick => {
                self.engine.handle_tick();
                StepPause::Tick
            }
            Pause::Done => StepPause::Done,
        }
    }

    /// Cuts a checkpoint into `dir` right now and returns its path.
    /// Only legal immediately after [`StepPause::Tick`] — between other
    /// events the engine holds mid-decision state that the snapshot
    /// format deliberately cannot represent.
    pub fn checkpoint_now(&mut self, dir: &Path) -> Result<PathBuf, SnapError> {
        self.engine.write_checkpoint(dir)
    }

    /// Virtual time of the last dispatched event.
    pub fn now_us(&self) -> u64 {
        self.engine.now
    }

    /// File operations completed so far.
    pub fn completed_ops(&self) -> u64 {
        self.engine.tally.completed_ops
    }

    /// File operations in the whole trace.
    pub fn total_ops(&self) -> u64 {
        self.engine.total_records
    }

    /// Read access to the simulated cluster mid-run.
    pub fn cluster(&self) -> &Cluster {
        &self.engine.cluster
    }

    /// Read access to the recorder between steps.
    pub fn recorder(&self) -> &R {
        self.engine.obs
    }

    /// Finalizes a drained run: invariant checks + report construction.
    /// Call only after [`StepPause::Done`].
    pub fn finish(self) -> (RunReport, Cluster) {
        self.engine.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::NoMigration;
    use crate::pace::TimeStep;
    use crate::sim::run_trace_obs_keep;
    use edm_obs::NoopRecorder;
    use edm_workload::{harvard, synth::synthesize};

    fn world() -> (Trace, Cluster) {
        let trace = synthesize(&harvard::spec("deasna").scaled(0.001));
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        (trace, cluster)
    }

    /// Yields on every other consultation — the adversarial pacer.
    struct Choppy(u64);
    impl TimeSource for Choppy {
        fn wait_until(&mut self, _at: u64) -> TimeStep {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                TimeStep::Yield
            } else {
                TimeStep::Proceed
            }
        }
    }

    #[test]
    fn stepped_run_matches_batch_run() {
        let (trace, cluster) = world();
        let batch = {
            let (t, c) = (trace.clone(), cluster.clone());
            run_trace_obs_keep(
                c,
                &t,
                &mut NoMigration,
                SimOptions::default(),
                &mut NoopRecorder,
            )
            .0
        };
        let mut policy = NoMigration;
        let mut obs = NoopRecorder;
        let mut live = LiveRun::new(
            cluster,
            &trace,
            &mut policy,
            SimOptions::default(),
            &mut obs,
        );
        let mut pace = Choppy(0);
        let mut yields = 0u64;
        loop {
            match live.step(&mut pace) {
                StepPause::Done => break,
                StepPause::Yielded => yields += 1,
                StepPause::Tick => {}
            }
        }
        assert!(yields > 0, "the choppy pacer must actually yield");
        let (report, _) = live.finish();
        assert_eq!(format!("{report:?}"), format!("{batch:?}"));
    }
}
