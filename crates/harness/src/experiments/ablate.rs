//! Ablations beyond the paper's figures (DESIGN.md §6): sensitivity of
//! the reproduction to σ (wear-model fit), λ (trigger threshold), and the
//! group count m (intra-group constraint).

use edm_cluster::{run_trace, Cluster, ClusterConfig, NoMigration, RunReport, SimOptions};
use edm_cluster::{MigrationSchedule, Migrator};
use edm_core::{Edm, EdmConfig, Selection, WearModel};
use edm_ssd::ftl::VictimPolicy;
use edm_workload::harvard;
use edm_workload::synth::synthesize;

use crate::experiments::fig3;
use crate::report::render_table;
use crate::runner::{trace_for, RunConfig};

/// σ sweep: how well Eq. 3 with each σ fits the measured uᵣ of a skewed
/// trace, reported as mean absolute error over the utilization grid.
pub fn sigma_sweep(cfg: &RunConfig, sigmas: &[f64]) -> Vec<(f64, f64)> {
    let trace = synthesize(&harvard::spec("home02").scaled(cfg.scale));
    let grid: Vec<f64> = (6..=17).map(|i| i as f64 * 0.05).collect();
    let measured: Vec<(f64, f64)> = grid
        .iter()
        .filter_map(|&u| fig3::measure_ur(&trace, u).map(|m| (u, m)))
        .collect();
    sigmas
        .iter()
        .map(|&sigma| {
            let model = WearModel {
                pages_per_block: 32,
                sigma,
            };
            let mae = measured
                .iter()
                .map(|&(u, m)| (model.f_of_u(u) - m).abs())
                .sum::<f64>()
                / measured.len().max(1) as f64;
            (sigma, mae)
        })
        .collect()
}

pub fn render_sigma(rows: &[(f64, f64)]) -> String {
    let best = rows
        .iter()
        // edm-audit: allow(panic.expect, "per-OSD means of finite latencies")
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .map(|r| r.0)
        .unwrap_or(f64::NAN);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(s, mae)| vec![format!("{s:.2}"), format!("{mae:.4}")])
        .collect();
    format!(
        "Ablation: sigma sweep (Eq. 3 fit on home02); best sigma = {best:.2}\n{}",
        render_table(&["sigma", "mean |estimated - measured| u_r"], &table)
    )
}

/// λ sweep: trigger threshold vs moved objects and erase savings under
/// EDM-HDF with the trigger check enabled (not forced).
pub fn lambda_sweep(cfg: &RunConfig, osds: u32, lambdas: &[f64]) -> Vec<(f64, RunReport)> {
    let trace = trace_for("home02", cfg.scale);
    lambdas
        .iter()
        .map(|&lambda| {
            let cluster =
                // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
                Cluster::build(ClusterConfig::paper(osds), &trace).expect("cluster build");
            let mut policy = Edm::new(
                Selection::Hdf,
                EdmConfig {
                    lambda,
                    force: false,
                    ..EdmConfig::default()
                },
            );
            let report = run_trace(
                cluster,
                &trace,
                &mut policy,
                SimOptions {
                    schedule: MigrationSchedule::Midpoint,
                    failures: Vec::new(),
                    checkpoint: None,
                    ..SimOptions::default()
                },
            );
            (lambda, report)
        })
        .collect()
}

pub fn render_lambda(rows: &[(f64, RunReport)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(l, r)| {
            vec![
                format!("{l:.2}"),
                r.moved_objects.to_string(),
                r.aggregate_erases().to_string(),
                format!("{:.0}", r.throughput_ops_per_sec()),
            ]
        })
        .collect();
    format!(
        "Ablation: lambda sweep (EDM-HDF, trigger checked, home02)\n{}",
        render_table(&["lambda", "moved", "aggregate erases", "ops/s"], &table)
    )
}

/// Group-count sweep: the intra-group constraint narrows the destination
/// choice; more groups = smaller groups = tighter constraint.
pub fn group_sweep(cfg: &RunConfig, osds: u32, groups: &[u32]) -> Vec<(u32, RunReport)> {
    let trace = trace_for("home02", cfg.scale);
    groups
        .iter()
        .map(|&m| {
            let mut cluster_cfg = ClusterConfig::paper(osds);
            cluster_cfg.groups = m;
            cluster_cfg.objects_per_file = m.min(4);
            // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
            let cluster = Cluster::build(cluster_cfg, &trace).expect("cluster build");
            let mut policy = Edm::new(Selection::Hdf, EdmConfig::default());
            let report = run_trace(
                cluster,
                &trace,
                &mut policy,
                SimOptions {
                    schedule: MigrationSchedule::Midpoint,
                    failures: Vec::new(),
                    checkpoint: None,
                    ..SimOptions::default()
                },
            );
            (m, report)
        })
        .collect()
}

pub fn render_groups(rows: &[(u32, RunReport)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(m, r)| {
            vec![
                m.to_string(),
                r.moved_objects.to_string(),
                format!("{:.3}", r.erase_rsd()),
                r.aggregate_erases().to_string(),
            ]
        })
        .collect();
    format!(
        "Ablation: group-count sweep (EDM-HDF, home02)\n{}",
        render_table(
            &["groups m", "moved", "final erase RSD", "aggregate erases"],
            &table
        )
    )
}

/// Check that `policy` as a trait object still reports its proper name
/// (used by the CLI to label ablation output).
pub fn policy_label(policy: &dyn Migrator) -> &str {
    policy.name()
}

/// Continuous-migration ablation (extension): the paper forces one
/// migration at the trace midpoint (§V.A); in deployment the wear monitor
/// re-evaluates the trigger every minute (§III.B.2). This compares three
/// operating modes of EDM-HDF on one trace:
/// never migrate, one forced midpoint round, and continuous trigger-gated
/// rounds at every (scaled) wear tick.
pub fn continuous_sweep(cfg: &RunConfig, osds: u32) -> Vec<(&'static str, RunReport)> {
    let trace = trace_for("home02", cfg.scale);
    let run_mode = |label: &'static str,
                    schedule: MigrationSchedule,
                    force: bool|
     -> (&'static str, RunReport) {
        let mut cluster_cfg = ClusterConfig::paper(osds);
        // Scale the 1-minute wear tick with the trace so continuous mode
        // gets multiple evaluation rounds within the scaled replay.
        cluster_cfg.wear_tick_us =
            ((cluster_cfg.wear_tick_us as f64 * cfg.scale) as u64).max(100_000);
        // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
        let cluster = Cluster::build(cluster_cfg, &trace).expect("cluster build");
        let mut policy = Edm::new(
            Selection::Hdf,
            EdmConfig {
                force,
                ..EdmConfig::default()
            },
        );
        let report = run_trace(
            cluster,
            &trace,
            &mut policy,
            SimOptions {
                schedule,
                failures: Vec::new(),
                checkpoint: None,
                ..SimOptions::default()
            },
        );
        (label, report)
    };
    vec![
        run_mode("never", MigrationSchedule::Never, false),
        run_mode("forced midpoint", MigrationSchedule::Midpoint, true),
        run_mode(
            "continuous (trigger-gated)",
            MigrationSchedule::EveryTick,
            false,
        ),
    ]
}

/// GC victim-policy ablation (extension): the wear model (Eq. 1) is
/// derived for *greedy* reclamation; this runs the whole cluster under
/// each victim policy and reports what the choice costs in erases and
/// throughput.
pub fn gc_policy_sweep(cfg: &RunConfig, osds: u32) -> Vec<(&'static str, RunReport)> {
    let trace = trace_for("home02", cfg.scale);
    [
        ("greedy (paper)", VictimPolicy::Greedy),
        ("cost-benefit", VictimPolicy::CostBenefit),
        ("fifo", VictimPolicy::Fifo),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let mut cluster_cfg = ClusterConfig::paper(osds);
        cluster_cfg.ftl.victim_policy = policy;
        // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
        let cluster = Cluster::build(cluster_cfg, &trace).expect("cluster build");
        let mut noop = NoMigration;
        let report = run_trace(
            cluster,
            &trace,
            &mut noop,
            SimOptions {
                schedule: MigrationSchedule::Never,
                failures: Vec::new(),
                checkpoint: None,
                ..SimOptions::default()
            },
        );
        (label, report)
    })
    .collect()
}

pub fn render_gc_policy(rows: &[(&'static str, RunReport)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            let gc_moves: u64 = r.per_osd.iter().map(|o| o.gc_page_moves).sum();
            vec![
                label.to_string(),
                r.aggregate_erases().to_string(),
                gc_moves.to_string(),
                format!("{:.0}", r.throughput_ops_per_sec()),
            ]
        })
        .collect();
    format!(
        "Ablation: GC victim policy (Baseline replay, home02)
{}",
        render_table(
            &[
                "victim policy",
                "aggregate erases",
                "gc page moves",
                "ops/s"
            ],
            &table
        )
    )
}

/// Temperature-decay ablation (DESIGN.md §6): on a workload whose hot set
/// drifts over time (4 temporal phases), compare EDM-HDF with the paper's
/// decayed temperature (interval = one scaled minute) against a
/// no-decay variant (one interval spanning the whole run, so temperature
/// degenerates to a cumulative access count). Continuous trigger-gated
/// migration, where stale rankings have repeated chances to mislead.
pub fn decay_sweep(cfg: &RunConfig, osds: u32) -> Vec<(&'static str, RunReport)> {
    let mut spec = harvard::spec("home02").scaled(cfg.scale);
    spec.skew.phases = 4;
    let trace = synthesize(&spec);
    let tick_us = ((60e6 * cfg.scale) as u64).max(100_000);
    let run_mode = |label: &'static str, interval_us: u64| -> (&'static str, RunReport) {
        let mut cluster_cfg = ClusterConfig::paper(osds);
        cluster_cfg.wear_tick_us = tick_us;
        // edm-audit: allow(panic.expect, "experiment setup with a pinned valid config; abort is the harness failure mode")
        let cluster = Cluster::build(cluster_cfg, &trace).expect("cluster build");
        let mut policy = Edm::new(
            Selection::Hdf,
            EdmConfig {
                force: false,
                temperature_interval_us: interval_us,
                ..EdmConfig::default()
            },
        );
        let report = run_trace(
            cluster,
            &trace,
            &mut policy,
            SimOptions {
                schedule: MigrationSchedule::EveryTick,
                failures: Vec::new(),
                checkpoint: None,
                ..SimOptions::default()
            },
        );
        (label, report)
    };
    vec![
        run_mode("decay (scaled minute)", tick_us),
        run_mode("no decay (one interval)", u64::MAX / 4),
    ]
}

pub fn render_decay(rows: &[(&'static str, RunReport)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
                r.moved_objects.to_string(),
                format!("{:.3}", r.erase_rsd()),
                format!("{:.0}", r.throughput_ops_per_sec()),
            ]
        })
        .collect();
    format!(
        "Ablation: temperature decay (EDM-HDF, phase-shifting home02)
{}",
        render_table(&["mode", "moved", "final erase RSD", "ops/s"], &table)
    )
}

pub fn render_continuous(rows: &[(&'static str, RunReport)]) -> String {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, r)| {
            vec![
                label.to_string(),
                r.migrations_triggered.to_string(),
                r.moved_objects.to_string(),
                r.aggregate_erases().to_string(),
                format!("{:.0}", r.throughput_ops_per_sec()),
                format!("{:.3}", r.erase_rsd()),
            ]
        })
        .collect();
    format!(
        "Ablation: migration schedule (EDM-HDF, home02)
{}",
        render_table(
            &["mode", "rounds", "moved", "erases", "ops/s", "erase RSD"],
            &table
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.002,
            ..Default::default()
        }
    }

    #[test]
    fn sigma_sweep_prefers_positive_sigma_on_skewed_trace() {
        let rows = sigma_sweep(&tiny(), &[0.0, 0.28]);
        assert_eq!(rows.len(), 2);
        let (mae0, mae28) = (rows[0].1, rows[1].1);
        assert!(
            mae28 < mae0,
            "σ=0.28 should fit home02 better than σ=0: {mae28} vs {mae0}"
        );
    }

    #[test]
    fn lambda_sweep_monotone_moves() {
        let rows = lambda_sweep(&tiny(), 8, &[0.05, 10.0]);
        // An absurdly high λ never triggers ⇒ no moves.
        assert_eq!(rows[1].1.moved_objects, 0);
        assert!(rows[0].1.moved_objects >= rows[1].1.moved_objects);
    }

    #[test]
    fn group_sweep_runs_each_m() {
        let rows = group_sweep(&tiny(), 8, &[2, 4]);
        assert_eq!(rows.len(), 2);
        for (_, r) in &rows {
            assert!(r.completed_ops > 0);
        }
    }

    #[test]
    fn gc_policy_sweep_orders_sanely() {
        let rows = gc_policy_sweep(&tiny(), 8);
        assert_eq!(rows.len(), 3);
        let erases = |label: &str| {
            rows.iter()
                .find(|(l, _)| l.starts_with(label))
                .expect("present")
                .1
                .aggregate_erases()
        };
        // Greedy is the floor; FIFO can only do worse or equal.
        assert!(erases("greedy") <= erases("fifo"));
    }

    #[test]
    fn decay_sweep_runs_both_modes() {
        let rows = decay_sweep(&tiny(), 8);
        assert_eq!(rows.len(), 2);
        for (label, r) in &rows {
            assert!(r.completed_ops > 0, "{label} did not run");
        }
        // The decayed variant must track the drifting hot set at least as
        // well as the stale cumulative ranking.
        assert!(rows[0].1.erase_rsd() <= rows[1].1.erase_rsd() + 0.1);
    }

    #[test]
    fn continuous_mode_migrates_repeatedly() {
        let rows = continuous_sweep(&tiny(), 8);
        assert_eq!(rows.len(), 3);
        let by = |label: &str| {
            &rows
                .iter()
                .find(|(l, _)| l.starts_with(label))
                .expect("mode present")
                .1
        };
        assert_eq!(by("never").migrations_triggered, 0);
        assert_eq!(by("forced").migrations_triggered, 1);
        // Trigger-gated continuous mode fires at least once on a skewed
        // trace and balances wear at least as well as one forced round.
        assert!(by("continuous").migrations_triggered >= 1);
        assert!(by("continuous").erase_rsd() <= by("never").erase_rsd());
    }

    #[test]
    fn renders_are_nonempty() {
        let s = sigma_sweep(&tiny(), &[0.0, 0.28]);
        assert!(render_sigma(&s).contains("sigma"));
        let l = lambda_sweep(&tiny(), 8, &[0.1]);
        assert!(render_lambda(&l).contains("lambda"));
        let g = group_sweep(&tiny(), 8, &[4]);
        assert!(render_groups(&g).contains("groups"));
        let c = continuous_sweep(&tiny(), 8);
        assert!(render_continuous(&c).contains("schedule"));
    }
}
