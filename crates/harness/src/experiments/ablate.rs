//! Ablations beyond the paper's figures (DESIGN.md §6): sensitivity of
//! the reproduction to σ (wear-model fit), λ (trigger threshold), and the
//! group count m (intra-group constraint).

use edm_cluster::{MigrationSchedule, RunReport};
use edm_model::MeanFieldModel;
use edm_scenario::render_table;
use edm_ssd::ftl::VictimPolicy;

use crate::experiments::fig3;
use crate::runner::{run_labelled, Run, RunConfig};

/// The run every EDM sweep below varies: the paper's EDM-HDF on home02.
fn hdf_on_home02(cfg: &RunConfig, osds: u32) -> Run {
    Run::paper("home02", "EDM-HDF", osds, cfg.scale)
}

/// σ sweep: how well Eq. 3 with each σ fits the measured uᵣ of a skewed
/// trace (home02), reported as mean absolute error over 30–85 %
/// utilization — the range §III.B.1 claims the fit for. The measured
/// points are Fig. 3's own: read from `fig3` when the caller already holds
/// that measurement, measured here (the same way) when it does not.
pub fn sigma_sweep(
    cfg: &RunConfig,
    sigmas: &[f64],
    fig3: Option<&[fig3::Series]>,
) -> Result<Vec<(f64, f64)>, String> {
    let grid = fig3::default_grid();
    let grid = &grid[..12]; // 30–85 % of Fig. 3's 30–95 %
    let own;
    let series = match fig3 {
        Some(series) => series,
        None => {
            own = fig3::run(cfg, &["home02"], grid)?;
            &own
        }
    };
    let measured: Vec<&fig3::Point> = series
        .iter()
        .filter(|s| s.workload == "home02")
        .flat_map(|s| &s.points)
        .filter(|p| grid.contains(&p.utilization))
        .collect();
    Ok(sigmas
        .iter()
        .map(|&sigma| {
            let model = MeanFieldModel::new(32, sigma);
            let mae = measured
                .iter()
                .map(|p| (model.victim_valid_ratio(p.utilization) - p.measured_ur).abs())
                .sum::<f64>()
                / measured.len().max(1) as f64;
            (sigma, mae)
        })
        .collect())
}

pub fn render_sigma(rows: &[(f64, f64)]) -> String {
    let best = rows
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
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
pub fn lambda_sweep(
    cfg: &RunConfig,
    osds: u32,
    lambdas: &[f64],
) -> Result<Vec<(f64, RunReport)>, String> {
    let runs = lambdas.iter().map(|&lambda| {
        let mut run = hdf_on_home02(cfg, osds);
        run.edm.lambda = lambda;
        run.edm.force = false;
        (lambda, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
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
pub fn group_sweep(
    cfg: &RunConfig,
    osds: u32,
    groups: &[u32],
) -> Result<Vec<(u32, RunReport)>, String> {
    let runs = groups.iter().map(|&m| {
        let mut run = hdf_on_home02(cfg, osds);
        run.cluster.groups = m;
        run.cluster.objects_per_file = m.min(4);
        (m, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
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

/// Continuous-migration ablation (extension): the paper forces one
/// migration at the trace midpoint (§V.A); in deployment the wear monitor
/// re-evaluates the trigger every minute (§III.B.2). This compares three
/// operating modes of EDM-HDF on one trace:
/// never migrate, one forced midpoint round, and continuous trigger-gated
/// rounds at every (scaled) wear tick.
pub fn continuous_sweep(
    cfg: &RunConfig,
    osds: u32,
) -> Result<Vec<(&'static str, RunReport)>, String> {
    let runs = [
        ("never", MigrationSchedule::Never, false),
        ("forced midpoint", MigrationSchedule::Midpoint, true),
        (
            "continuous (trigger-gated)",
            MigrationSchedule::EveryTick,
            false,
        ),
    ]
    .into_iter()
    .map(|(label, schedule, force)| {
        let mut run = hdf_on_home02(cfg, osds).with_scaled_wear_tick();
        run.options.schedule = schedule;
        run.edm.force = force;
        (label, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
}

/// GC victim-policy ablation (extension): the wear model (Eq. 1) is
/// derived for *greedy* reclamation; this runs the whole cluster under
/// each victim policy and reports what the choice costs in erases and
/// throughput.
pub fn gc_policy_sweep(
    cfg: &RunConfig,
    osds: u32,
) -> Result<Vec<(&'static str, RunReport)>, String> {
    let runs = [
        ("greedy (paper)", VictimPolicy::Greedy),
        ("cost-benefit", VictimPolicy::CostBenefit),
        ("fifo", VictimPolicy::Fifo),
    ]
    .into_iter()
    .map(|(label, victim_policy)| {
        let mut run = Run::paper("home02", "Baseline", osds, cfg.scale);
        run.options.schedule = MigrationSchedule::Never;
        run.cluster.ftl.victim_policy = victim_policy;
        (label, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
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
pub fn decay_sweep(cfg: &RunConfig, osds: u32) -> Result<Vec<(&'static str, RunReport)>, String> {
    let mut drifting = hdf_on_home02(cfg, osds).with_scaled_wear_tick();
    drifting.options.schedule = MigrationSchedule::EveryTick;
    drifting.trace.phases = 4;
    drifting.edm.force = false;
    let runs = [
        ("decay (scaled minute)", drifting.cluster.wear_tick_us),
        ("no decay (one interval)", u64::MAX / 4),
    ]
    .into_iter()
    .map(|(label, interval_us)| {
        let mut run = drifting.clone();
        run.edm.temperature_interval_us = interval_us;
        (label, run)
    });
    run_labelled(runs.collect(), cfg.jobs)
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
        let rows = sigma_sweep(&tiny(), &[0.0, 0.28], None).expect("valid");
        assert_eq!(rows.len(), 2);
        let (mae0, mae28) = (rows[0].1, rows[1].1);
        assert!(
            mae28 < mae0,
            "σ=0.28 should fit home02 better than σ=0: {mae28} vs {mae0}"
        );
    }

    #[test]
    fn lambda_sweep_monotone_moves() {
        let rows = lambda_sweep(&tiny(), 8, &[0.05, 10.0]).expect("valid");
        // An absurdly high λ never triggers ⇒ no moves.
        assert_eq!(rows[1].1.moved_objects, 0);
        assert!(rows[0].1.moved_objects >= rows[1].1.moved_objects);
    }

    #[test]
    fn group_sweep_runs_each_m() {
        let rows = group_sweep(&tiny(), 8, &[2, 4]).expect("valid");
        assert_eq!(rows.len(), 2);
        for (_, r) in &rows {
            assert!(r.completed_ops > 0);
        }
    }

    #[test]
    fn gc_policy_sweep_orders_sanely() {
        let rows = gc_policy_sweep(&tiny(), 8).expect("valid");
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
        let rows = decay_sweep(&tiny(), 8).expect("valid");
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
        let rows = continuous_sweep(&tiny(), 8).expect("valid");
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
        let s = sigma_sweep(&tiny(), &[0.0, 0.28], None).expect("valid");
        assert!(render_sigma(&s).contains("sigma"));
        let l = lambda_sweep(&tiny(), 8, &[0.1]).expect("valid");
        assert!(render_lambda(&l).contains("lambda"));
        let g = group_sweep(&tiny(), 8, &[4]).expect("valid");
        assert!(render_groups(&g).contains("groups"));
        let c = continuous_sweep(&tiny(), 8).expect("valid");
        assert!(render_continuous(&c).contains("schedule"));
    }
}
