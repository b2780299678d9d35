//! Failure experiment (extension): kill one OSD mid-replay and compare
//! degraded service with and without RAID-5 reconstruction, plus the
//! §III.D fault-independence check (same-group double failure loses
//! nothing; cross-group double failure loses stripes).

use edm_cluster::{FailureSpec, MigrationSchedule, OsdId, RunReport};
use edm_scenario::{render_table, signed_pct};

use crate::runner::{run_labelled, Run, RunConfig};

/// Runs the five scenarios: healthy, one failure (degraded only), one
/// failure with rebuild, same-group double failure, cross-group double
/// failure — each a Baseline replay that never migrates. OSDs 1, 2 and 5
/// must exist, so a cluster of fewer than six is an `Err`.
pub fn run(
    cfg: &RunConfig,
    osds: u32,
    trace_name: &str,
) -> Result<Vec<(&'static str, RunReport)>, String> {
    let at = 1_000; // fail early so most of the run is degraded
    let mk = |osd: u32, rebuild: bool| FailureSpec {
        at_us: at,
        osd: OsdId(osd),
        rebuild,
    };
    let runs = [
        ("healthy", vec![]),
        ("1 failure, degraded", vec![mk(1, false)]),
        ("1 failure, rebuild", vec![mk(1, true)]),
        // Group of OSD j is j mod 4: 1 and 5 share group 1.
        ("2 failures, same group", vec![mk(1, false), mk(5, false)]),
        ("2 failures, cross group", vec![mk(1, false), mk(2, false)]),
    ]
    .into_iter()
    .map(|(label, failures)| {
        let mut run = Run::paper(trace_name, "Baseline", osds, cfg.scale);
        run.options.schedule = MigrationSchedule::Never;
        run.options.failures = failures;
        (label, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
}

pub fn render(scenarios: &[(&'static str, RunReport)]) -> String {
    let healthy_tp = scenarios
        .first()
        .map(|(_, r)| r.throughput_ops_per_sec())
        .unwrap_or(0.0);
    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
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
            jobs: None,
        }
    }

    #[test]
    fn scenarios_have_expected_shape() {
        let s = run(&tiny(), 8, "home02").expect("valid");
        assert_eq!(s.len(), 5);
        let by = |label: &str| {
            &s.iter()
                .find(|x| x.0.starts_with(label))
                .expect("scenario present")
                .1
        };
        assert_eq!(by("healthy").degraded_ops, 0);
        assert!(by("1 failure, degraded").degraded_ops > 0);
        assert!(by("1 failure, rebuild").rebuilt_objects > 0);
        assert_eq!(by("2 failures, same group").lost_ops, 0);
        assert!(by("2 failures, cross group").lost_ops > 0);
    }

    #[test]
    fn degraded_run_is_slower_than_healthy() {
        let s = run(&tiny(), 8, "home02").expect("valid");
        let healthy = s[0].1.throughput_ops_per_sec();
        let degraded = s[1].1.throughput_ops_per_sec();
        assert!(degraded <= healthy, "{degraded} vs {healthy}");
    }

    #[test]
    fn render_lists_all_scenarios() {
        let text = render(&run(&tiny(), 8, "home02").expect("valid"));
        for label in ["healthy", "rebuild", "same group", "cross group"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
