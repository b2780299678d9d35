//! Parallel experiment runner.
//!
//! The simulation itself is a deterministic single-threaded DES; the
//! parallelism lives here: the (trace × policy × cluster-size) matrix fans
//! out over scoped threads pulling cells off a shared queue, bounded by
//! the available cores.

use std::collections::HashMap;
use std::sync::Mutex;

use edm_cluster::{run_trace, Cluster, ClusterConfig, MigrationSchedule, RunReport, SimOptions};
use edm_core::{make_policy, EdmConfig};
use edm_workload::synth::synthesize;
use edm_workload::{harvard, Trace};

/// One cell of an experiment matrix.
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
}

/// Scaling and scheduling knobs of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Trace scale factor in (0, 1]; 1.0 replays the full Table 1 counts.
    pub scale: f64,
    pub schedule: MigrationSchedule,
    /// Worker-thread cap for [`run_matrix`]. `None` falls back to the
    /// `EDM_JOBS` environment variable, then to the available cores.
    pub jobs: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: 0.05,
            schedule: MigrationSchedule::Midpoint,
            jobs: None,
        }
    }
}

/// Resolves the worker count for a matrix of `cells` cells: explicit
/// config wins, then the `EDM_JOBS` environment variable, then available
/// parallelism; always at least 1 and at most the number of cells.
fn resolve_jobs(cfg: &RunConfig, cells: usize) -> usize {
    let requested = cfg.jobs.or_else(|| {
        // edm-audit: allow(det.env_read, "operator override for sweep parallelism; the job count never affects per-cell results")
        std::env::var("EDM_JOBS")
            .ok()
            .and_then(|v| match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => Some(n),
                _ => {
                    eprintln!("runner: ignoring invalid EDM_JOBS={v:?} (want a positive integer)");
                    None
                }
            })
    });
    requested
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, cells.max(1))
}

/// Synthesizes the named trace at the given scale (Harvard preset or the
/// Fig. 3 `random` workload).
pub fn trace_for(name: &str, scale: f64) -> Trace {
    let spec = if name == "random" {
        harvard::random_spec()
    } else {
        harvard::spec(name)
    };
    synthesize(&spec.scaled(scale))
}

/// Runs one cell end to end: synthesize → build → warm up → replay.
///
/// The response-time reporting window is one tenth of the paper's
/// 3-minute window scaled with the trace — fine enough for Fig. 7 to
/// show the spike and recovery around the midpoint. It only buckets the
/// report's series, so every other reader of the cell is indifferent.
pub fn run_cell(cell: &Cell, cfg: &RunConfig) -> RunReport {
    #[cfg(test)]
    if let Ok(mut log) = RUN_CELL_LOG.lock() {
        log.push(cell.clone());
    }
    let trace = trace_for(&cell.trace, cfg.scale);
    let mut config = ClusterConfig::paper(cell.osds);
    config.response_window_us =
        ((config.response_window_us as f64 * cfg.scale) as u64 / 10).max(20_000);
    let (cluster, mut policy) = Cluster::build(config, &trace)
        .and_then(|cluster| Ok((cluster, make_policy(&cell.policy, EdmConfig::default())?)))
        // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config and an evaluation policy name; abort is the harness failure mode")
        .expect("cell setup failed");
    run_trace(
        cluster,
        &trace,
        policy.as_mut(),
        SimOptions {
            schedule: cfg.schedule,
            failures: Vec::new(),
            checkpoint: None,
            ..SimOptions::default()
        },
    )
}

/// Runs a whole matrix in parallel; results keyed by cell. Worker count
/// comes from [`RunConfig::jobs`], the `EDM_JOBS` environment variable,
/// or the available cores, in that order.
pub fn run_matrix(cells: &[Cell], cfg: &RunConfig) -> HashMap<Cell, RunReport> {
    let results = Mutex::new(HashMap::with_capacity(cells.len()));
    let workers = resolve_jobs(cfg, cells.len());
    eprintln!("runner: {} cells across {} workers", cells.len(), workers);
    let queue = Mutex::new(cells.to_vec());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // edm-audit: allow(panic.expect, "a poisoned queue means a worker already panicked; propagate the abort")
                let Some(cell) = queue.lock().expect("queue poisoned").pop() else {
                    break;
                };
                let report = run_cell(&cell, cfg);
                results
                    .lock()
                    // edm-audit: allow(panic.expect, "a poisoned results lock means a worker already panicked; propagate the abort")
                    .expect("results poisoned")
                    .insert(cell, report);
            });
        }
    });
    // edm-audit: allow(panic.expect, "a poisoned results lock means a worker already panicked; propagate the abort")
    results.into_inner().expect("results poisoned")
}

/// Every cell [`run_cell`] has simulated, process-wide (matrix workers
/// are their own threads) — an exact work count for tests that pin how
/// often a cell is simulated.
#[cfg(test)]
pub(crate) static RUN_CELL_LOG: Mutex<Vec<Cell>> = Mutex::new(Vec::new());

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.001,
            ..RunConfig::default()
        }
    }

    #[test]
    fn jobs_resolution_prefers_config() {
        let cfg = RunConfig {
            jobs: Some(3),
            ..RunConfig::default()
        };
        assert_eq!(resolve_jobs(&cfg, 10), 3);
        // Clamped to the number of cells.
        assert_eq!(resolve_jobs(&cfg, 2), 2);
        // Never zero, even for an empty matrix.
        assert!(resolve_jobs(&RunConfig::default(), 0) >= 1);
    }

    #[test]
    fn run_cell_produces_complete_report() {
        let cell = Cell::new("deasna", "Baseline", 8);
        let r = run_cell(&cell, &tiny());
        assert_eq!(r.policy, "Baseline");
        assert_eq!(r.osds, 8);
        assert!(r.completed_ops > 0);
    }

    #[test]
    fn run_matrix_covers_all_cells() {
        let cells = vec![
            Cell::new("deasna", "Baseline", 8),
            Cell::new("deasna", "EDM-HDF", 8),
        ];
        let out = run_matrix(&cells, &tiny());
        assert_eq!(out.len(), 2);
        for c in &cells {
            assert!(out.contains_key(c), "missing {c:?}");
        }
    }

    #[test]
    fn matrix_results_match_single_runs() {
        // Parallel execution must not perturb the deterministic DES: every
        // cell of a mixed trace × policy matrix must reproduce its solo
        // run exactly, however the worker threads interleave.
        let cells = vec![
            Cell::new("deasna", "EDM-CDF", 8),
            Cell::new("deasna", "Baseline", 8),
            Cell::new("home02", "EDM-HDF", 8),
            Cell::new("lair62", "CMT", 8),
        ];
        let matrix = run_matrix(&cells, &tiny());
        assert_eq!(matrix.len(), cells.len());
        for cell in &cells {
            let solo = run_cell(cell, &tiny());
            let from_matrix = &matrix[cell];
            assert_eq!(solo.duration_us, from_matrix.duration_us, "{cell:?}");
            assert_eq!(
                solo.aggregate_erases(),
                from_matrix.aggregate_erases(),
                "{cell:?}"
            );
            assert_eq!(solo.moved_objects, from_matrix.moved_objects, "{cell:?}");
            assert_eq!(solo.completed_ops, from_matrix.completed_ops, "{cell:?}");
        }
    }

    #[test]
    fn trace_for_handles_random() {
        let t = trace_for("random", 0.001);
        assert_eq!(t.name, "random");
        assert!(t.stats().write_cnt > 0);
    }
}
