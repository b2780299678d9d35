//! Failure experiment (extension): kill one OSD mid-replay and compare
//! degraded service with and without RAID-5 reconstruction, plus the
//! §III.D fault-independence check (same-group double failure loses
//! nothing; cross-group double failure loses stripes).

use edm_cluster::{
    run_trace, Cluster, ClusterConfig, FailureSpec, MigrationSchedule, NoMigration, OsdId,
    RunReport, SimOptions,
};

use crate::report::{render_table, signed_pct};
use crate::runner::{trace_for, RunConfig};

/// One scenario of the failure study.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub label: String,
    pub report: RunReport,
}

fn run_one(cfg: &RunConfig, osds: u32, trace_name: &str, failures: Vec<FailureSpec>) -> RunReport {
    let trace = trace_for(trace_name, cfg.scale);
    // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
    let cluster = Cluster::build(ClusterConfig::paper(osds), &trace).expect("build");
    let mut policy = NoMigration;
    run_trace(
        cluster,
        &trace,
        &mut policy,
        SimOptions {
            schedule: MigrationSchedule::Never,
            failures,
            checkpoint: None,
            ..SimOptions::default()
        },
    )
}

/// Runs the four scenarios: healthy, one failure (degraded only), one
/// failure with rebuild, same-group double failure, cross-group double
/// failure.
pub fn run(cfg: &RunConfig, osds: u32, trace_name: &str) -> Vec<Scenario> {
    assert!(osds > 4, "need at least two groups' worth of OSDs");
    let at = 1_000; // fail early so most of the run is degraded
    let mk = |osd: u32, rebuild: bool| FailureSpec {
        at_us: at,
        osd: OsdId(osd),
        rebuild,
    };
    vec![
        Scenario {
            label: "healthy".into(),
            report: run_one(cfg, osds, trace_name, vec![]),
        },
        Scenario {
            label: "1 failure, degraded".into(),
            report: run_one(cfg, osds, trace_name, vec![mk(1, false)]),
        },
        Scenario {
            label: "1 failure, rebuild".into(),
            report: run_one(cfg, osds, trace_name, vec![mk(1, true)]),
        },
        Scenario {
            label: "2 failures, same group".into(),
            // Group of OSD j is j mod 4: 1 and 5 share group 1.
            report: run_one(cfg, osds, trace_name, vec![mk(1, false), mk(5, false)]),
        },
        Scenario {
            label: "2 failures, cross group".into(),
            report: run_one(cfg, osds, trace_name, vec![mk(1, false), mk(2, false)]),
        },
    ]
}

pub fn render(scenarios: &[Scenario]) -> String {
    let healthy_tp = scenarios
        .first()
        .map(|s| s.report.throughput_ops_per_sec())
        .unwrap_or(0.0);
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|s| {
            let r = &s.report;
            vec![
                s.label.clone(),
                format!("{:.0}", r.throughput_ops_per_sec()),
                signed_pct(r.throughput_ops_per_sec() / healthy_tp - 1.0),
                r.degraded_ops.to_string(),
                r.lost_ops.to_string(),
                r.rebuilt_objects.to_string(),
            ]
        })
        .collect();
    format!(
        "Failure study (extension; RAID-5 of SIII.A under fault)\n{}",
        render_table(
            &[
                "scenario",
                "ops/s",
                "vs healthy",
                "degraded ops",
                "lost ops",
                "rebuilt",
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.002,
            schedule: MigrationSchedule::Never,
            jobs: None,
        }
    }

    #[test]
    fn scenarios_have_expected_shape() {
        let s = run(&tiny(), 8, "home02");
        assert_eq!(s.len(), 5);
        let by = |label: &str| {
            &s.iter()
                .find(|x| x.label.starts_with(label))
                .expect("scenario present")
                .report
        };
        assert_eq!(by("healthy").degraded_ops, 0);
        assert!(by("1 failure, degraded").degraded_ops > 0);
        assert!(by("1 failure, rebuild").rebuilt_objects > 0);
        assert_eq!(by("2 failures, same group").lost_ops, 0);
        assert!(by("2 failures, cross group").lost_ops > 0);
    }

    #[test]
    fn degraded_run_is_slower_than_healthy() {
        let s = run(&tiny(), 8, "home02");
        let healthy = s[0].report.throughput_ops_per_sec();
        let degraded = s[1].report.throughput_ops_per_sec();
        assert!(degraded <= healthy, "{degraded} vs {healthy}");
    }

    #[test]
    fn render_lists_all_scenarios() {
        let text = render(&run(&tiny(), 8, "home02"));
        for label in ["healthy", "rebuild", "same group", "cross group"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
