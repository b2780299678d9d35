//! Figure 7 — mean response time of file operations served during data
//! migration, per 3-minute window, for home02, deasna and lair62 under
//! Baseline, EDM-HDF and EDM-CDF. The series is bucketed by
//! [`Run::paper`](crate::runner::Run::paper)'s response window — a tenth
//! of the paper's, scaled with the trace — so the spike and recovery
//! around the midpoint are visible at any scale. Claims: `fig7.*`.

use edm_cluster::RunReport;
use edm_scenario::render_table;
use edm_workload::harvard::MOTIVATION_TRACES;

use super::claims::{self, Record};
use super::fig56::Matrix;
use crate::runner::Cell;

/// The policies Fig. 7 compares.
pub const FIG7_POLICIES: [&str; 3] = ["Baseline", "EDM-HDF", "EDM-CDF"];

/// The cells Fig. 7 reads.
pub fn cells(osds: u32) -> Vec<Cell> {
    MOTIVATION_TRACES
        .iter()
        .flat_map(|t| FIG7_POLICIES.iter().map(move |p| Cell::new(t, p, osds)))
        .collect()
}

pub fn render(m: &Matrix, osds: u32) -> String {
    let mut out = String::new();
    for trace in MOTIVATION_TRACES {
        out.push_str(&format!(
            "Figure 7: mean response time during migration — {trace}\n"
        ));
        let reports: Vec<&RunReport> = FIG7_POLICIES
            .iter()
            .map(|p| m.report(trace, p, osds))
            .collect();
        // Align windows across policies (series can differ in length
        // because migration changes the run's duration).
        let max_windows = reports
            .iter()
            .map(|r| r.response_windows.len())
            .max()
            .unwrap_or(0);
        let mut headers = vec!["window"];
        headers.extend(FIG7_POLICIES);
        let rows: Vec<Vec<String>> = (0..max_windows)
            .map(|w| {
                let mut row = vec![format!("t{w}")];
                for r in &reports {
                    row.push(match r.response_windows.get(w) {
                        Some(win) if win.completed_ops > 0 => {
                            format!("{:.0}us", win.mean_response_us)
                        }
                        _ => "-".into(),
                    });
                }
                row
            })
            .collect();
        out.push_str(&render_table(&headers, &rows));
        for (p, r) in FIG7_POLICIES.iter().zip(&reports) {
            out.push_str(&format!(
                "  {p}: whole-run mean {:.0}us, moved objects {}\n",
                r.mean_response_us, r.moved_objects
            ));
        }
        out.push('\n');
    }
    out + &claims::render("fig7", Record::Matrix(m, &cells(osds)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    fn run_on_8() -> Matrix {
        let cfg = RunConfig {
            scale: 0.002,
            jobs: None,
        };
        let mut m = Matrix::default();
        m.ensure(&cfg, &cells(8)).expect("valid");
        m
    }

    #[test]
    fn produces_series_for_each_trace_and_policy() {
        let m = run_on_8();
        let cells = cells(8);
        assert_eq!(cells.len(), 9);
        for c in &cells {
            let r = m.report(&c.trace, &c.policy, c.osds);
            assert!(!r.response_windows.is_empty(), "{c:?} empty series");
            assert!(r.mean_response_us > 0.0);
        }
    }

    #[test]
    fn render_lists_policies_and_windows() {
        let text = render(&run_on_8(), 8);
        assert!(text.contains("home02"));
        assert!(text.contains("EDM-HDF"));
        assert!(text.contains("moved objects"));
    }
}
