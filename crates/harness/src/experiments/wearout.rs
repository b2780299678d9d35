//! Long-horizon wear-out trajectory via checkpointed segments.
//!
//! The paper's Fig. 6 shows erase-count balance at the *end* of a run;
//! this experiment reconstructs the whole trajectory without any
//! in-process sampling hooks: the run cuts an `edm-snap` checkpoint at
//! every wear tick, and each checkpoint's manifest already carries the
//! per-OSD erase counters at that instant. Reading the manifests back
//! (cheap — no simulator is materialized) yields erase totals and RSD
//! over virtual time.
//!
//! It doubles as the end-to-end resume-determinism demonstration: after
//! the uninterrupted run, the middle checkpoint is resumed to completion
//! and the two reports' digests are compared — they must be identical.

use std::path::PathBuf;

use edm_cluster::metrics::rsd;
use edm_cluster::{MigrationSchedule, RunReport, SnapManifest};
use edm_obs::NoopRecorder;
use edm_scenario::{render_table, report_digest, resume_snapshot, Checkpoint, Scenario};

use crate::runner::RunConfig;

#[derive(Debug)]
pub struct WearoutResult {
    pub scenario: Scenario,
    /// Each checkpoint's manifest: clock, progress, per-OSD erases.
    pub points: Vec<SnapManifest>,
    pub report: RunReport,
    /// Digest of the uninterrupted run's report.
    pub digest: u64,
    /// Digest of the report obtained by resuming the middle checkpoint.
    /// Equal to [`digest`](Self::digest) iff resume is deterministic.
    pub resumed_digest: u64,
}

/// Runs the checkpointed trajectory and the resume-determinism check,
/// migrating on every wear tick so the trajectory has migration work to
/// capture. The run goes through [`Scenario`], not a `Run`: checkpoints
/// that resume from their embedded scenario text are what it demonstrates.
pub fn run(cfg: &RunConfig, osds: u32, trace: &str) -> Result<WearoutResult, String> {
    let scenario = Scenario {
        trace: trace.into(),
        scale: cfg.scale,
        osds,
        schedule: MigrationSchedule::EveryTick,
        ..Scenario::default()
    };
    let dir = wearout_dir();
    let _ = std::fs::remove_dir_all(&dir);
    // every_us = 0: cut a checkpoint at every wear tick.
    let (report, _) = scenario.run(&mut NoopRecorder, Some((0, dir.clone())))?;
    let digest = report_digest(&report);

    let unreadable = |e: &dyn std::fmt::Display| format!("checkpoints in {}: {e}", dir.display());
    let mut snaps: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| unreadable(&e))? {
        let path = entry.map_err(|e| unreadable(&e))?.path();
        if path.extension().is_some_and(|x| x == "snap") {
            snaps.push(path);
        }
    }
    snaps.sort();

    let mut points = Vec::with_capacity(snaps.len());
    for path in &snaps {
        points.push(Checkpoint::open(path)?.manifest);
    }

    let mid = snaps
        .get(snaps.len() / 2)
        .ok_or_else(|| unreadable(&"the run cut none"))?;
    let (_, resumed) = resume_snapshot(mid, &mut NoopRecorder)?;
    let _ = std::fs::remove_dir_all(&dir);

    Ok(WearoutResult {
        scenario,
        points,
        report,
        digest,
        resumed_digest: report_digest(&resumed),
    })
}

fn wearout_dir() -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "scratch directory for experiment checkpoints; its location never reaches simulation state"
    )]
    std::env::temp_dir().join(format!("edm-wearout-{}", std::process::id()))
}

pub fn render(r: &WearoutResult) -> String {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            let erases = &p.per_osd_erases;
            let max = erases.iter().max().copied().unwrap_or(0);
            let min = erases.iter().min().copied().unwrap_or(0);
            vec![
                format!("{:.2}", p.now_us as f64 / 1e6),
                p.completed_ops.to_string(),
                erases.iter().sum::<u64>().to_string(),
                // The paper's wear-balance metric.
                format!("{:.3}", rsd(erases.iter().map(|&e| e as f64))),
                format!("{}", max - min),
            ]
        })
        .collect();
    let mut out = format!(
        "wear-out trajectory: {} on {} ({} OSDs), {} checkpoints\n",
        r.scenario.policy,
        r.scenario.trace,
        r.scenario.osds,
        r.points.len()
    );
    out.push_str(&render_table(
        &["t (s)", "ops", "erases", "RSD", "max-min"],
        &rows,
    ));
    out.push_str(&format!(
        "final: {} erases, RSD {:.3} | digest {:#018x} | resumed {:#018x} ({})\n",
        r.report.aggregate_erases(),
        r.report.erase_rsd(),
        r.digest,
        r.resumed_digest,
        if r.digest == r.resumed_digest {
            "MATCH — resume is bit-identical"
        } else {
            "MISMATCH — resume diverged"
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wearout_trajectory_and_resume_match() {
        let cfg = RunConfig {
            scale: 0.002,
            ..RunConfig::default()
        };
        let r = run(&cfg, 8, "home02").expect("valid");
        assert!(r.points.len() >= 2, "want a trajectory, got {:?}", r.points);
        // Erase totals are monotone over checkpoints.
        for w in r.points.windows(2) {
            let aggregate = |m: &SnapManifest| m.per_osd_erases.iter().sum::<u64>();
            assert!(aggregate(&w[0]) <= aggregate(&w[1]));
            assert!(w[0].now_us < w[1].now_us);
        }
        assert_eq!(r.digest, r.resumed_digest, "resume diverged");
        let text = render(&r);
        assert!(text.contains("MATCH"));
    }
}
