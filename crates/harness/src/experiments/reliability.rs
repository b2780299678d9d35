//! §III.D — the reliability argument, made measurable.
//!
//! Balancing wear raises the risk of *simultaneous* SSD worn-out. EDM's
//! answer: RAID-5 stripes span groups, migration stays within a group,
//! and groups get *different numbers of SSDs*, so per-SSD wear speeds
//! differ **across** groups while staying balanced **within** each group
//! — correlated failures stay inside one group, where they cannot take
//! out a stripe.
//!
//! This experiment replays a write-heavy trace under EDM-HDF on a cluster
//! whose OSD count is not a multiple of the group count (uneven groups)
//! and reports, per group: members, mean per-SSD erase count, and the
//! within-group RSD. Claims: `reliability.*`.

use edm_cluster::metrics::rsd;
use edm_cluster::GroupId;
use edm_core::lifetime::{project, EnduranceSpec};
use edm_scenario::render_table;

use super::claims::{self, Record};
use crate::runner::{run_one, Run, RunConfig};

/// Per-group wear summary.
#[derive(Debug, Clone)]
pub struct GroupWear {
    pub group: u32,
    pub members: usize,
    /// Mean erase count per member SSD (the group's wear speed).
    pub mean_erases: f64,
    /// RSD of erase counts within the group.
    pub within_rsd: f64,
}

/// Outcome of the reliability experiment.
#[derive(Debug, Clone)]
pub struct Reliability {
    pub osds: u32,
    pub groups: Vec<GroupWear>,
    /// Projected periods-to-wearout per OSD (one period = this run),
    /// assuming a 3 000 P/E-cycle device.
    pub periods_to_wearout: Vec<f64>,
}

impl Reliability {
    /// Spread (RSD) of the per-group mean wear speeds — the margin that
    /// staggers group worn-out times.
    pub fn between_group_rsd(&self) -> f64 {
        rsd(self.groups.iter().map(|g| g.mean_erases))
    }

    /// Largest within-group RSD.
    pub fn max_within_rsd(&self) -> f64 {
        self.groups.iter().map(|g| g.within_rsd).fold(0.0, f64::max)
    }

    /// Largest cohort of devices projected to wear out within 1 % of the
    /// longest lifetime — the §III.D simultaneous-worn-out hazard. RAID
    /// safety wants this cohort to fit inside one group.
    pub fn simultaneous_wearouts(&self) -> usize {
        let finite: Vec<f64> = self
            .periods_to_wearout
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .collect();
        let window = finite.iter().copied().fold(0.0_f64, f64::max) * 0.01;
        let mut order = finite;
        order.sort_by(f64::total_cmp);
        let mut best = usize::from(!order.is_empty());
        for i in 0..order.len() {
            let cohort = order[i..]
                .iter()
                .take_while(|&&t| t - order[i] <= window)
                .count();
            best = best.max(cohort);
        }
        best
    }
}

/// Runs EDM-HDF with the paper's forced midpoint migration on `osds`
/// devices (pick a count not divisible by 4, e.g. 18, for uneven groups)
/// and summarizes wear per group.
pub fn run(cfg: &RunConfig, osds: u32, trace_name: &str) -> Result<Reliability, String> {
    let run = Run::paper(trace_name, "EDM-HDF", osds, cfg.scale);
    let report = run_one(&run)?;
    // Valid: the cluster was just built from this configuration.
    let placement = run.cluster.placement();
    // Lifetime projection on a nominal 3 000 P/E-cycle, 4 096-block
    // device: the projection only needs erases-per-period and a budget.
    let spec = EnduranceSpec {
        pe_cycles: 3_000,
        blocks: 4_096,
    };
    let lifetimes = project(
        &spec,
        report.per_osd.iter().map(|o| o.erase_count),
        std::iter::repeat_n(0, report.per_osd.len()),
    );
    let periods_to_wearout: Vec<f64> = lifetimes.iter().map(|l| l.periods_to_wearout).collect();
    let groups = (0..placement.groups)
        .map(|g| {
            let members = placement.group_members(GroupId(g));
            let erases: Vec<f64> = members
                .iter()
                .map(|m| report.per_osd[m.0 as usize].erase_count as f64)
                .collect();
            GroupWear {
                group: g,
                members: members.len(),
                mean_erases: erases.iter().sum::<f64>() / erases.len().max(1) as f64,
                within_rsd: rsd(erases.iter().copied()),
            }
        })
        .collect();
    Ok(Reliability {
        osds,
        groups,
        periods_to_wearout,
    })
}

pub fn render(r: &Reliability) -> String {
    let rows: Vec<Vec<String>> = r
        .groups
        .iter()
        .map(|g| {
            vec![
                g.group.to_string(),
                g.members.to_string(),
                format!("{:.1}", g.mean_erases),
                format!("{:.3}", g.within_rsd),
            ]
        })
        .collect();
    format!(
        "Reliability (SIII.D): per-group wear speeds under EDM-HDF, {} OSDs\n{}\
         between-group wear-speed RSD: {:.3} (staggers group worn-out)\n\
         max within-group RSD:         {:.3} (EDM balances inside groups)\n",
        r.osds,
        render_table(
            &["group", "members", "mean erases/SSD", "within RSD"],
            &rows
        ),
        r.between_group_rsd(),
        r.max_within_rsd(),
    ) + &format!(
        "largest 1%-window simultaneous-wearout cohort: {} of {} devices\n",
        r.simultaneous_wearouts(),
        r.osds
    ) + &claims::render("reliability", Record::Reliability(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.003,
            jobs: None,
        }
    }

    #[test]
    fn uneven_osd_count_gives_uneven_groups() {
        let r = run(&tiny(), 10, "lair62").expect("valid");
        assert_eq!(r.groups.len(), 4);
        let sizes: Vec<usize> = r.groups.iter().map(|g| g.members).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        for g in &r.groups {
            assert!(g.mean_erases > 0.0, "group {} saw no wear", g.group);
        }
    }

    #[test]
    fn group_wear_speeds_differ() {
        // With uneven member counts, per-SSD wear speed differs between
        // groups — the §III.D mechanism.
        let r = run(&tiny(), 10, "lair62").expect("valid");
        assert!(
            r.between_group_rsd() > 0.0,
            "group wear speeds should differ: {:?}",
            r.groups
        );
    }

    #[test]
    fn render_mentions_both_spreads() {
        let text = render(&run(&tiny(), 10, "lair62").expect("valid"));
        assert!(text.contains("between-group"));
        assert!(text.contains("within-group"));
    }
}
