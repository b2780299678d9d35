//! The one way the harness simulates.
//!
//! A [`Run`] is plain data — which trace, which cluster, which policy,
//! which replay options — and [`Run::execute`] is the only place under
//! `crates/harness/src` that builds a cluster and replays a trace. Every
//! experiment is a list of `Run`s plus a renderer: it hands the list to
//! [`run_all`], which rejects a run that cannot be built with an `Err`
//! (never a panic), synthesizes each distinct [`TraceKey`] once, shares
//! the trace between the runs that read it, and fans the runs out over
//! [`par_map`] — the scoped-thread pool Fig. 3's device measurements use
//! too. The simulation itself is a deterministic single-threaded DES, so
//! the worker count never reaches a result.

use std::sync::atomic::{AtomicUsize, Ordering};

use edm_cluster::{
    run_trace, Cluster, ClusterConfig, MigrationSchedule, Migrator, RunReport, SimOptions,
};
use edm_core::{make_policy, EdmConfig};
use edm_workload::synth::synthesize;
use edm_workload::{harvard, Trace, WorkloadSpec};

/// Scale and parallelism of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Trace scale factor in (0, 1]; 1.0 replays the full Table 1 counts.
    pub scale: f64,
    /// Worker-thread cap for [`par_map`] (`edm-exp --jobs`). `None` uses
    /// the available cores.
    pub jobs: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.05,
            jobs: None,
        }
    }
}

/// Which trace a run replays: a preset ([`harvard::named`]) at a scale,
/// with its popularity ranking rotating through `phases` temporal phases
/// (1 = the preset as Table 1 has it).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceKey {
    pub name: String,
    pub scale: f64,
    pub phases: u32,
}

impl TraceKey {
    pub fn preset(name: &str, scale: f64) -> Self {
        TraceKey {
            name: name.into(),
            scale,
            phases: 1,
        }
    }

    fn spec(&self) -> Result<WorkloadSpec, String> {
        let mut spec = harvard::named(&self.name).ok_or_else(|| {
            format!(
                "unknown trace {:?} (random | {})",
                self.name,
                harvard::TRACE_NAMES.join(" | ")
            )
        })?;
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(format!("scale {} is not in (0, 1]", self.scale));
        }
        spec.skew.phases = self.phases;
        Ok(spec.scaled(self.scale))
    }

    /// Synthesizes the trace (deterministic: the preset carries its seed).
    pub fn synthesize(&self) -> Result<Trace, String> {
        #[cfg(test)]
        log(Work::Synthesized(self.clone()));
        Ok(synthesize(&self.spec()?))
    }
}

/// One cell of the Fig. 5–8 evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    pub trace: String,
    pub policy: String,
    pub osds: u32,
}

impl Cell {
    pub fn new(trace: &str, policy: &str, osds: u32) -> Self {
        Cell {
            trace: trace.into(),
            policy: policy.into(),
            osds,
        }
    }

    pub fn run(&self, scale: f64) -> Run {
        Run::paper(&self.trace, &self.policy, self.osds, scale)
    }
}

/// One simulation, described: everything [`execute`](Run::execute) needs
/// besides the synthesized trace.
#[derive(Debug, Clone)]
pub struct Run {
    pub trace: TraceKey,
    pub cluster: ClusterConfig,
    /// An evaluation name of [`make_policy`], configured by `edm`.
    pub policy: String,
    pub edm: EdmConfig,
    pub options: SimOptions,
}

impl Run {
    /// The paper's run of `policy` on `osds` devices replaying the preset
    /// `trace` at `scale`: its cluster, its policy tunables, and its one
    /// forced migration at the trace midpoint (§V.A). An experiment that
    /// schedules differently says so in its runs.
    ///
    /// The response-time reporting window is one tenth of the paper's
    /// 3-minute window scaled with the trace — fine enough for Fig. 7 to
    /// show the spike and recovery around the midpoint. It only buckets
    /// the report's series, so every other reader is indifferent.
    pub fn paper(trace: &str, policy: &str, osds: u32, scale: f64) -> Run {
        let mut cluster = ClusterConfig::paper(osds);
        cluster.response_window_us =
            ((cluster.response_window_us as f64 * scale) as u64 / 10).max(20_000);
        Run {
            trace: TraceKey::preset(trace, scale),
            cluster,
            policy: policy.into(),
            edm: EdmConfig::default(),
            options: SimOptions {
                schedule: MigrationSchedule::Midpoint,
                ..SimOptions::default()
            },
        }
    }

    /// Scales the 1-minute wear tick with the trace, so an every-tick
    /// schedule gets several evaluation rounds within a scaled replay.
    pub fn with_scaled_wear_tick(mut self) -> Run {
        self.cluster.wear_tick_us =
            ((self.cluster.wear_tick_us as f64 * self.trace.scale) as u64).max(100_000);
        self
    }

    /// Everything that can be rejected before the trace exists; hands
    /// back the policy so a checked run need not build it twice.
    fn check(&self) -> Result<Box<dyn Migrator>, String> {
        self.trace.spec()?;
        self.cluster.validate()?;
        if let Some(f) = self
            .options
            .failures
            .iter()
            .find(|f| f.osd.0 >= self.cluster.osds)
        {
            return Err(format!(
                "failure names {} but the cluster has {} OSDs",
                f.osd, self.cluster.osds
            ));
        }
        self.edm.validate()?;
        make_policy(&self.policy, self.edm)
    }

    fn blame(&self, why: String) -> String {
        format!(
            "{} on {} ({} OSDs): {why}",
            self.policy, self.trace.name, self.cluster.osds
        )
    }

    /// Build → warm up → replay `trace`, which the caller synthesized
    /// from [`Run::trace`]. `Err` when the run cannot be built.
    pub fn execute(&self, trace: &Trace) -> Result<RunReport, String> {
        #[cfg(test)]
        log(Work::Executed(Box::new(self.clone())));
        let setup = || Ok((self.check()?, Cluster::build(self.cluster.clone(), trace)?));
        let (mut policy, cluster) = setup().map_err(|why| self.blame(why))?;
        Ok(run_trace(
            cluster,
            trace,
            policy.as_mut(),
            self.options.clone(),
        ))
    }
}

/// Resolves the worker count for `items` pieces of work: an explicit
/// request wins, then available parallelism; always at least 1 and at
/// most the number of items.
fn resolve_jobs(jobs: Option<usize>, items: usize) -> usize {
    jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
    .clamp(1, items.max(1))
}

/// `items.iter().map(f)`, computed on scoped worker threads that pull
/// indices off a shared counter; results come back in `items` order
/// however the workers interleave. A worker's panic is re-raised here.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: Option<usize>,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Relaxed: the counter only deals out indices; results reach this
    // thread through the joins below.
    let next = AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        items.get(i).map(|item| (i, item))
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        #[expect(
            clippy::disallowed_methods,
            reason = "workers return (index, result) pairs that are sorted by index after the joins; scheduling order never reaches the output"
        )]
        let workers: Vec<_> = (0..resolve_jobs(jobs, items.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some((i, item)) = claim() {
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Executes `runs` on the pool; reports come back in `runs` order. Every
/// run is checked before anything is synthesized, each distinct trace key
/// is synthesized once, and the first run that cannot be built is the
/// `Err`.
pub fn run_all(runs: &[Run], jobs: Option<usize>) -> Result<Vec<RunReport>, String> {
    let mut keys: Vec<&TraceKey> = Vec::new();
    let mut work: Vec<(&Run, usize)> = Vec::with_capacity(runs.len());
    for run in runs {
        run.check().map_err(|why| run.blame(why))?;
        let key = keys
            .iter()
            .position(|k| **k == run.trace)
            .unwrap_or_else(|| {
                keys.push(&run.trace);
                keys.len() - 1
            });
        work.push((run, key));
    }
    eprintln!(
        "runner: {} runs on {} traces across {} workers",
        runs.len(),
        keys.len(),
        resolve_jobs(jobs, runs.len())
    );
    let traces: Vec<Trace> = par_map(&keys, jobs, |key| key.synthesize())
        .into_iter()
        .collect::<Result<_, _>>()?;
    par_map(&work, jobs, |&(run, key)| run.execute(&traces[key]))
        .into_iter()
        .collect()
}

/// [`run_all`] for a single run.
pub fn run_one(run: &Run) -> Result<RunReport, String> {
    run_all(std::slice::from_ref(run), Some(1))?
        .pop()
        .ok_or_else(|| run.blame("no report".into()))
}

/// [`run_all`] over runs that carry a label each (a sweep's parameter
/// value, a scenario's name), which the reports keep.
pub fn run_labelled<L>(
    runs: Vec<(L, Run)>,
    jobs: Option<usize>,
) -> Result<Vec<(L, RunReport)>, String> {
    let (labels, runs): (Vec<L>, Vec<Run>) = runs.into_iter().unzip();
    Ok(labels.into_iter().zip(run_all(&runs, jobs)?).collect())
}

/// What the pool has been asked to do and has done, process-wide (workers
/// are their own threads) — an exact work count for tests that pin how
/// often a trace is synthesized, a run simulated or a device measured.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) enum Work {
    Synthesized(TraceKey),
    Executed(Box<Run>),
    /// One `fig3::measure_ur` call on a trace of this name and length.
    Measured(String, usize),
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test-only work log: tests count its entries after the pool has joined and never read their order"
)]
pub(crate) static WORK_LOG: std::sync::Mutex<Vec<Work>> = std::sync::Mutex::new(Vec::new());

#[cfg(test)]
pub(crate) fn log(work: Work) {
    if let Ok(mut log) = WORK_LOG.lock() {
        log.push(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_cluster::{FailureSpec, OsdId};

    const TINY: f64 = 0.001;

    #[test]
    fn jobs_resolution_prefers_config() {
        assert_eq!(resolve_jobs(Some(3), 10), 3);
        // Clamped to the number of items.
        assert_eq!(resolve_jobs(Some(3), 2), 2);
        // Never zero, even for an empty list.
        assert!(resolve_jobs(None, 0) >= 1);
    }

    #[test]
    fn par_map_keeps_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        for jobs in [1, 2, 5, 64] {
            let squares = par_map(&items, Some(jobs), |&i| i * i);
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map(&[] as &[u64], Some(4), |&i| i).is_empty());
    }

    #[test]
    fn run_cell_produces_complete_report() {
        let run = Cell::new("deasna", "Baseline", 8).run(TINY);
        let trace = run.trace.synthesize().expect("preset");
        let r = run.execute(&trace).expect("valid run");
        assert_eq!(r.policy, "Baseline");
        assert_eq!(r.osds, 8);
        assert!(r.completed_ops > 0);
    }

    #[test]
    fn run_matrix_covers_all_cells() {
        let cells = [
            Cell::new("deasna", "Baseline", 8),
            Cell::new("deasna", "EDM-HDF", 8),
        ];
        let runs: Vec<Run> = cells.iter().map(|c| c.run(TINY)).collect();
        let out = run_all(&runs, None).expect("valid runs");
        assert_eq!(out.len(), 2);
        for (cell, report) in cells.iter().zip(&out) {
            assert_eq!(report.policy, cell.policy, "reports out of order");
        }
    }

    #[test]
    fn matrix_results_match_single_runs() {
        // Parallel execution must not perturb the deterministic DES: every
        // run of a mixed trace × policy list must reproduce its solo
        // execution exactly, however the worker threads interleave.
        let runs: Vec<Run> = [
            Cell::new("deasna", "EDM-CDF", 8),
            Cell::new("deasna", "Baseline", 8),
            Cell::new("home02", "EDM-HDF", 8),
            Cell::new("lair62", "CMT", 8),
        ]
        .iter()
        .map(|c| c.run(TINY))
        .collect();
        let pooled = run_all(&runs, None).expect("valid runs");
        assert_eq!(pooled.len(), runs.len());
        for (run, from_pool) in runs.iter().zip(&pooled) {
            let trace = run.trace.synthesize().expect("preset");
            let solo = run.execute(&trace).expect("valid run");
            assert_eq!(solo.duration_us, from_pool.duration_us, "{run:?}");
            assert_eq!(
                solo.aggregate_erases(),
                from_pool.aggregate_erases(),
                "{run:?}"
            );
            assert_eq!(solo.moved_objects, from_pool.moved_objects, "{run:?}");
            assert_eq!(solo.completed_ops, from_pool.completed_ops, "{run:?}");
        }
    }

    #[test]
    fn trace_for_handles_random() {
        let t = TraceKey::preset("random", TINY)
            .synthesize()
            .expect("preset");
        assert_eq!(t.name, "random");
        assert!(t.stats().write_cnt > 0);
    }

    /// Every way a run can be unbuildable is an `Err` that names the run —
    /// from `run_all` before anything is simulated, and from a solo
    /// `execute` — never a panic.
    #[test]
    fn unbuildable_runs_are_errors_not_panics() {
        let paper = |trace: &str, policy: &str, osds: u32| Cell::new(trace, policy, osds).run(TINY);
        let mut eight_groups = paper("home02", "EDM-HDF", 6);
        eight_groups.cluster.groups = 8;
        let mut dead_osd = paper("home02", "Baseline", 4);
        dead_osd.options.failures = vec![FailureSpec {
            at_us: 1_000,
            osd: OsdId(5),
            rebuild: false,
        }];
        let mut oversized = paper("home02", "EDM-HDF", 8);
        oversized.trace.scale = 7.0;
        let good_trace = TraceKey::preset("home02", TINY)
            .synthesize()
            .expect("preset");
        for (run, want) in [
            (paper("home02", "EDM-HDF", 2), "groups <= osds"),
            (eight_groups, "groups <= osds"),
            (paper("home02", "EDM-XYZ", 8), "unknown policy"),
            (paper("nosuch", "EDM-HDF", 8), "unknown trace"),
            (dead_osd, "failure names osd5"),
            (oversized, "not in (0, 1]"),
        ] {
            for err in [
                run_all(std::slice::from_ref(&run), Some(1)).expect_err("must not build"),
                run.execute(&good_trace).expect_err("must not build"),
            ] {
                assert!(err.contains(want), "{err:?} lacks {want:?}");
                assert!(err.contains(&run.policy), "{err:?} does not name the run");
            }
        }
    }
}
