//! A forwarding [`Migrator`] that times every policy hook.
//!
//! This is how the `core` layer is traced from outside: the engine is
//! handed the wrapper instead of the policy. `on_access` runs once per
//! object I/O, so it is aggregated as a count and a sum; `on_tick` and
//! `plan_obs` are rare and kept as individual spans.

use std::time::Instant;

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction};
use edm_snap::{SnapReader, SnapWriter};

use crate::spans::ns_between;

pub struct TimedMigrator {
    inner: Box<dyn Migrator>,
    epoch: Instant,
    /// What reading the clock twice around nothing measures, ns: taken
    /// off every `on_access`, which is short enough for it to matter.
    timer_ns: f64,
    pub on_access_calls: u64,
    on_access_ns: u64,
    /// `(start_ns, end_ns)` of every `on_tick`.
    pub ticks: Vec<(u64, u64)>,
    /// `(start_ns, end_ns)` of every `plan`/`plan_obs`.
    pub plans: Vec<(u64, u64)>,
    /// Plans that returned at least one move.
    pub nonempty_plans: u64,
}

impl TimedMigrator {
    /// `epoch` is the tracer's, so the spans line up with its own.
    pub fn new(inner: Box<dyn Migrator>, epoch: Instant) -> TimedMigrator {
        const CALIBRATION: u32 = 200_000;
        let mut empty_ns = 0u64;
        for _ in 0..CALIBRATION {
            let start = Instant::now();
            empty_ns += start.elapsed().as_nanos() as u64;
        }
        TimedMigrator {
            inner,
            epoch,
            timer_ns: empty_ns as f64 / f64::from(CALIBRATION),
            on_access_calls: 0,
            on_access_ns: 0,
            ticks: Vec::new(),
            plans: Vec::new(),
            nonempty_plans: 0,
        }
    }

    fn timed_plan(
        &mut self,
        plan: impl FnOnce(&mut dyn Migrator) -> Vec<MoveAction>,
    ) -> Vec<MoveAction> {
        let start = Instant::now();
        let moves = plan(self.inner.as_mut());
        let end = Instant::now();
        self.plans
            .push((ns_between(self.epoch, start), ns_between(self.epoch, end)));
        self.nonempty_plans += u64::from(!moves.is_empty());
        moves
    }

    /// Summed `on_access` time, ns, net of the clock reads themselves.
    pub fn on_access_ns(&self) -> u64 {
        let clock = self.timer_ns * self.on_access_calls as f64;
        (self.on_access_ns as f64 - clock).max(0.0) as u64
    }

    pub fn plan_seconds(&self) -> f64 {
        self.plans.iter().map(|(s, e)| (e - s) as f64 / 1e9).sum()
    }

    pub fn plan_max_ms(&self) -> f64 {
        self.plans
            .iter()
            .map(|(s, e)| (e - s) as f64 / 1e6)
            .fold(0.0, f64::max)
    }

    pub fn tick_seconds(&self) -> f64 {
        self.ticks.iter().map(|(s, e)| (e - s) as f64 / 1e9).sum()
    }
}

impl Migrator for TimedMigrator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, event: AccessEvent) {
        let start = Instant::now();
        self.inner.on_access(event);
        self.on_access_ns += start.elapsed().as_nanos() as u64;
        self.on_access_calls += 1;
    }

    fn on_tick(&mut self, now_us: u64) {
        let start = Instant::now();
        self.inner.on_tick(now_us);
        let end = Instant::now();
        self.ticks
            .push((ns_between(self.epoch, start), ns_between(self.epoch, end)));
    }

    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
        self.timed_plan(|inner| inner.plan(view))
    }

    fn plan_obs(&mut self, view: &ClusterView, obs: &mut dyn edm_obs::Recorder) -> Vec<MoveAction> {
        self.timed_plan(|inner| inner.plan_obs(view, obs))
    }

    fn on_window_reset(&mut self) {
        self.inner.on_window_reset();
    }

    fn blocking_moves(&self) -> bool {
        self.inner.blocking_moves()
    }

    fn parallel_safe(&self) -> bool {
        self.inner.parallel_safe()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) {
        self.inner.load_state(r);
    }
}
