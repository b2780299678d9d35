//! One module per paper artifact. Each experiment is a list of
//! [`Run`](crate::runner::Run)s handed to the runner's pool — its `run`
//! (or `*_sweep`) function, `Err` when a run cannot be built — plus a
//! `render` into the ASCII rows/series the paper's table or figure
//! reports, so the CLI and the integration tests share one code path.
//! What the paper says a figure must show is its entries in
//! [`claims::CLAIMS`].

pub mod ablate;
pub mod claims;
pub mod failure;
pub mod fig1;
pub mod fig3;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod model_diff;
pub mod reliability;
pub mod table1;
pub mod wearout;

/// The canonical experiment ids accepted by `edm-exp`.
pub const EXPERIMENT_IDS: [&str; 17] = [
    "table1",
    "fig1",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "reliability",
    "failure",
    "wearout",
    "ablate-sigma",
    "ablate-lambda",
    "ablate-groups",
    "ablate-continuous",
    "ablate-decay",
    "ablate-gc",
    "model-diff",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Run, RunConfig, TraceKey, Work, WORK_LOG};
    use edm_workload::harvard::TRACE_NAMES;

    /// Each test below takes a scale no other test in the crate
    /// synthesizes or replays at, so the process-wide work log can be
    /// filtered by it.
    fn at(scale: f64) -> RunConfig {
        RunConfig { scale, jobs: None }
    }

    /// The work logged at `scale` from log position `since` on: (trace
    /// keys synthesized, runs executed).
    fn work_since(since: usize, scale: f64) -> (Vec<TraceKey>, Vec<Run>) {
        let log = WORK_LOG.lock().expect("log poisoned");
        let (mut synthesized, mut executed) = (Vec::new(), Vec::new());
        for work in &log[since..] {
            match work {
                Work::Synthesized(key) if key.scale == scale => synthesized.push(key.clone()),
                Work::Executed(run) if run.trace.scale == scale => executed.push(Run::clone(run)),
                _ => {}
            }
        }
        (synthesized, executed)
    }

    /// Every cluster experiment of `edm-exp all`, through its library
    /// entry point: the pool executes exactly as many runs as the
    /// experiment lists (each once), and synthesizes each distinct trace
    /// key among them once — as Fig. 3 does for its four workloads.
    #[test]
    fn every_cluster_experiment_executes_its_listed_runs_on_shared_traces() {
        let cfg = at(0.0013);
        let mut matrix = fig56::Matrix::default();
        type Experiment<'a> = &'a mut dyn FnMut() -> Result<(), String>;
        let experiments: [(&str, usize, usize, Experiment); 10] = [
            ("fig1", 3, 3, &mut || fig1::run(&cfg, 8).map(drop)),
            ("fig5-8", 28, 7, &mut || {
                matrix.ensure(&cfg, &fig56::cells(&[8], &TRACE_NAMES))?;
                matrix.ensure(&cfg, &fig7::cells(8))?;
                matrix.ensure(&cfg, &fig8::cells(8, &TRACE_NAMES))
            }),
            ("reliability", 1, 1, &mut || {
                reliability::run(&cfg, 10, "lair62").map(drop)
            }),
            ("failure", 5, 1, &mut || {
                failure::run(&cfg, 8, "home02").map(drop)
            }),
            ("ablate-lambda", 2, 1, &mut || {
                ablate::lambda_sweep(&cfg, 8, &[0.05, 0.4]).map(drop)
            }),
            ("ablate-groups", 3, 1, &mut || {
                ablate::group_sweep(&cfg, 8, &[2, 4, 8]).map(drop)
            }),
            ("ablate-continuous", 3, 1, &mut || {
                ablate::continuous_sweep(&cfg, 8).map(drop)
            }),
            ("ablate-decay", 2, 1, &mut || {
                ablate::decay_sweep(&cfg, 8).map(drop)
            }),
            ("ablate-gc", 3, 1, &mut || {
                ablate::gc_policy_sweep(&cfg, 8).map(drop)
            }),
            ("fig3", 0, 4, &mut || {
                fig3::run(&cfg, &fig3::FIG3_WORKLOADS, &[0.5]).map(drop)
            }),
        ];
        for (id, runs, traces, experiment) in experiments {
            let since = WORK_LOG.lock().expect("log poisoned").len();
            experiment().unwrap_or_else(|why| panic!("{id}: {why}"));
            let (synthesized, executed) = work_since(since, cfg.scale);
            assert_eq!(executed.len(), runs, "{id}: runs executed");
            assert_eq!(synthesized.len(), traces, "{id}: traces synthesized");
            for key in executed.iter().map(|run| &run.trace).chain(&synthesized) {
                let times = synthesized.iter().filter(|k| *k == key).count();
                assert_eq!(times, 1, "{id} synthesized {key:?} {times} times");
            }
            // Each listed run executed once: no experiment lists the same
            // trace, policy, cluster and options twice.
            let mut distinct: Vec<String> = executed.iter().map(|r| format!("{r:?}")).collect();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), runs, "{id}: a run executed twice");
        }
    }

    /// `ablate-sigma` fits the home02 points Fig. 3 measured when handed
    /// them — zero device measurements of its own — and prints the same
    /// table as when it measures its twelve standalone.
    #[test]
    fn ablate_sigma_reads_fig3s_measurement_instead_of_repeating_it() {
        let cfg = at(0.0017);
        let home02 = TraceKey::preset("home02", cfg.scale)
            .synthesize()
            .expect("preset")
            .records
            .len();
        let measured = || {
            let log = WORK_LOG.lock().expect("log poisoned");
            log.iter()
                .filter(|w| matches!(w, Work::Measured(name, len) if name == "home02" && *len == home02))
                .count()
        };
        let sigmas = [0.0, 0.28, 0.4];
        let series =
            fig3::run(&cfg, &fig3::FIG3_WORKLOADS, &fig3::default_grid()).expect("presets");
        assert_eq!(measured(), 14, "Fig. 3 measures home02 once per grid point");
        let shared = ablate::sigma_sweep(&cfg, &sigmas, Some(&series)).expect("valid");
        assert_eq!(
            measured(),
            14,
            "ablate-sigma re-measured what it was handed"
        );
        let standalone = ablate::sigma_sweep(&cfg, &sigmas, None).expect("valid");
        assert_eq!(measured(), 14 + 12);
        assert_eq!(shared, standalone);
    }

    /// The CLI invocations that used to abort in experiment setup: a
    /// cluster too small for what the experiment asks of it is an `Err`.
    #[test]
    fn experiments_refuse_clusters_they_cannot_build() {
        let cfg = at(0.0019);
        let too_small: [(&str, Result<(), String>); 4] = [
            ("fig1 --osds 2", fig1::run(&cfg, 2).map(drop)),
            (
                "ablate-groups --osds 3",
                ablate::group_sweep(&cfg, 3, &[2, 4, 8]).map(drop),
            ),
            (
                "reliability --osds 2",
                reliability::run(&cfg, 2, "lair62").map(drop),
            ),
            (
                "failure --osds 4",
                failure::run(&cfg, 4, "home02").map(drop),
            ),
        ];
        for (invocation, outcome) in too_small {
            let why = outcome.expect_err(invocation);
            assert!(why.contains("OSDs"), "{invocation}: {why}");
        }
    }
}
