//! Figures 5 and 6 — aggregate throughput and cluster-wide aggregate
//! erase count for all seven traces under the four systems (Baseline,
//! CMT, EDM-HDF, EDM-CDF) at 16 and 20 OSDs.
//!
//! The two figures come from the same runs — as do Figs. 7 and 8, which
//! read sub-matrices of this one — so one [`Matrix`] feeds all four.
//! Claims: `fig5.*`, `fig6.*`.

use std::collections::HashMap;

use edm_cluster::RunReport;
use edm_core::POLICY_NAMES;
use edm_scenario::{grouped, render_table, signed_pct};

use super::claims::{self, Record};
use crate::runner::{run_all, Cell, Run, RunConfig};

/// The reports of the evaluation matrix, keyed by cell. Figs. 5–8 are
/// four renderings of it (DESIGN.md §4): each figure names the cells it
/// reads (`cells`) and renders from here, so a cell that several figures
/// share is simulated once.
#[derive(Default)]
pub struct Matrix {
    reports: HashMap<Cell, RunReport>,
}

impl Matrix {
    /// Simulates those of `cells` that have no report yet.
    pub fn ensure(&mut self, cfg: &RunConfig, cells: &[Cell]) -> Result<(), String> {
        let mut missing: Vec<&Cell> = Vec::new();
        for cell in cells {
            if !self.reports.contains_key(cell) && !missing.contains(&cell) {
                missing.push(cell);
            }
        }
        if !missing.is_empty() {
            let runs: Vec<Run> = missing.iter().map(|cell| cell.run(cfg.scale)).collect();
            let reports = run_all(&runs, cfg.jobs)?;
            self.reports
                .extend(missing.into_iter().cloned().zip(reports));
        }
        Ok(())
    }

    pub fn report(&self, trace: &str, policy: &str, osds: u32) -> &RunReport {
        &self.reports[&Cell::new(trace, policy, osds)]
    }
}

/// The cells Figs. 5 and 6 read: the full (trace × policy × osds) sweep.
pub fn cells(osds_list: &[u32], traces: &[&str]) -> Vec<Cell> {
    osds_list
        .iter()
        .flat_map(|&n| {
            traces
                .iter()
                .flat_map(move |t| POLICY_NAMES.iter().map(move |p| Cell::new(t, p, n)))
        })
        .collect()
}

/// One table per cluster size: each trace's value under the four systems,
/// then the three migrating systems' `metric` deltas vs Baseline (the
/// percentages the paper prints above the bars).
fn render_bars(
    m: &Matrix,
    osds_list: &[u32],
    traces: &[&str],
    figure: &str,
    title: &str,
    value: impl Fn(&RunReport) -> String,
    metric: fn(&RunReport) -> f64,
) -> String {
    let mut out = String::new();
    for &osds in osds_list {
        out.push_str(&title.replace("{osds}", &osds.to_string()));
        let rows: Vec<Vec<String>> = traces
            .iter()
            .map(|t| {
                let mut row = vec![t.to_string()];
                row.extend(POLICY_NAMES.iter().map(|p| value(m.report(t, p, osds))));
                let base = metric(m.report(t, "Baseline", osds));
                row.extend(
                    POLICY_NAMES[1..]
                        .iter()
                        .map(|p| signed_pct(metric(m.report(t, p, osds)) / base - 1.0)),
                );
                row
            })
            .collect();
        out.push_str(&render_table(
            &[
                "trace",
                "Baseline",
                "CMT",
                "EDM-HDF",
                "EDM-CDF",
                "CMT vs base",
                "HDF vs base",
                "CDF vs base",
            ],
            &rows,
        ));
        out.push('\n');
    }
    out + &claims::render(figure, Record::Matrix(m, &cells(osds_list, traces)))
}

/// Figure 5 rendering: aggregate throughput (file ops per second).
pub fn render_fig5(m: &Matrix, osds_list: &[u32], traces: &[&str]) -> String {
    render_bars(
        m,
        osds_list,
        traces,
        "fig5",
        "Figure 5 ({osds}-OSDs): aggregate throughput [ops/s]\n",
        |r| format!("{:.0}", r.throughput_ops_per_sec()),
        RunReport::throughput_ops_per_sec,
    )
}

/// Figure 6 rendering: aggregate erase count among all OSDs, each with
/// its GC page copies per host-written page (write amplification − 1).
pub fn render_fig6(m: &Matrix, osds_list: &[u32], traces: &[&str]) -> String {
    render_bars(
        m,
        osds_list,
        traces,
        "fig6",
        "Figure 6 ({osds}-OSDs): aggregate erase count among all OSDs (GC copies per host-written page)\n",
        |r| {
            let gc: u64 = r.per_osd.iter().map(|o| o.gc_page_moves).sum();
            let host: u64 = r.per_osd.iter().map(|o| o.write_pages).sum();
            format!("{} ({:.3})", grouped(r.aggregate_erases()), gc as f64 / host.max(1) as f64)
        },
        |r| r.aggregate_erases() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{fig7, fig8};
    use crate::runner::{Work, WORK_LOG};
    use edm_workload::harvard::MOTIVATION_TRACES;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.002,
            jobs: None,
        }
    }

    fn deasna_on_8() -> Matrix {
        let mut m = Matrix::default();
        m.ensure(&tiny(), &cells(&[8], &["deasna"])).expect("valid");
        m
    }

    #[test]
    fn matrix_is_complete() {
        let m = deasna_on_8();
        assert_eq!(m.reports.len(), 4);
        for p in POLICY_NAMES {
            assert!(m.report("deasna", p, 8).completed_ops > 0);
        }
    }

    #[test]
    fn renders_include_deltas() {
        let m = deasna_on_8();
        let f5 = render_fig5(&m, &[8], &["deasna"]);
        let f6 = render_fig6(&m, &[8], &["deasna"]);
        assert!(f5.contains("Figure 5 (8-OSDs)"));
        assert!(f6.contains("Figure 6 (8-OSDs)"));
        assert!(f5.contains('%'));
        assert!(f6.contains('%'));
    }

    /// Exact work count: rendering all four figures simulates each
    /// distinct cell of the matrix once, not once per figure that reads
    /// it. 12 OSDs is this test's own: no other test in the crate runs a
    /// 12-OSD cluster, so the process-wide log can be filtered by it.
    #[test]
    fn figs_5_to_8_simulate_each_distinct_cell_once() {
        let (cfg, osds) = (
            RunConfig {
                scale: 0.001,
                ..tiny()
            },
            12,
        );
        let mut m = Matrix::default();
        let sweep = cells(&[osds], &MOTIVATION_TRACES);
        m.ensure(&cfg, &sweep).expect("valid");
        let fig5 = render_fig5(&m, &[osds], &MOTIVATION_TRACES);
        m.ensure(&cfg, &sweep).expect("valid");
        let fig6 = render_fig6(&m, &[osds], &MOTIVATION_TRACES);
        m.ensure(&cfg, &fig7::cells(osds)).expect("valid");
        let fig7 = fig7::render(&m, osds);
        m.ensure(&cfg, &fig8::cells(osds, &MOTIVATION_TRACES))
            .expect("valid");
        let fig8 = fig8::render(&m, osds, &MOTIVATION_TRACES);
        for (text, title) in [
            (fig5, "Figure 5"),
            (fig6, "Figure 6"),
            (fig7, "Figure 7"),
            (fig8, "Figure 8"),
        ] {
            assert!(text.contains(title), "{title} not rendered");
        }

        let log = WORK_LOG.lock().expect("log poisoned");
        let simulated: Vec<Cell> = log
            .iter()
            .filter_map(|work| match work {
                Work::Executed(run) if run.cluster.osds == osds => {
                    Some(Cell::new(&run.trace.name, &run.policy, osds))
                }
                _ => None,
            })
            .collect();
        assert_eq!(simulated.len(), sweep.len(), "{simulated:?}");
        for cell in &sweep {
            assert_eq!(
                simulated.iter().filter(|c| *c == cell).count(),
                1,
                "{cell:?}"
            );
        }
    }
}
