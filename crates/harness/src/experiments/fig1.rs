//! Figure 1 — erase count (a) and write pages (b) of different SSDs under
//! the baseline system (the motivation experiment of §II).
//!
//! Replays home02, deasna and lair62 with no migration and reports the
//! per-OSD block erasure counts and written pages. Claims: `fig1.*`.

use edm_cluster::metrics::rsd;
use edm_cluster::MigrationSchedule;
use edm_scenario::{grouped, render_table};
use edm_workload::harvard::MOTIVATION_TRACES;

use super::claims::{self, Record};
use crate::runner::{run_all, Run, RunConfig};

/// Per-trace outcome: per-OSD wear under Baseline.
#[derive(Debug, Clone)]
pub struct TraceWear {
    pub trace: String,
    pub erase_counts: Vec<u64>,
    pub write_pages: Vec<u64>,
}

impl TraceWear {
    /// Relative standard deviation of the per-OSD erase counts — the
    /// variance Fig. 1(a) visualizes.
    pub fn erase_rsd(&self) -> f64 {
        rsd(self.erase_counts.iter().map(|&e| e as f64))
    }

    pub fn write_rsd(&self) -> f64 {
        rsd(self.write_pages.iter().map(|&w| w as f64))
    }
}

/// Runs the motivation experiment — each trace under Baseline, never
/// migrating — on `osds` devices at the given scale.
pub fn run(cfg: &RunConfig, osds: u32) -> Result<Vec<TraceWear>, String> {
    let runs: Vec<Run> = MOTIVATION_TRACES
        .iter()
        .map(|trace| {
            let mut run = Run::paper(trace, "Baseline", osds, cfg.scale);
            run.options.schedule = MigrationSchedule::Never;
            run
        })
        .collect();
    Ok(MOTIVATION_TRACES
        .iter()
        .zip(run_all(&runs, cfg.jobs)?)
        .map(|(trace, report)| TraceWear {
            trace: trace.to_string(),
            erase_counts: report.per_osd.iter().map(|o| o.erase_count).collect(),
            write_pages: report.per_osd.iter().map(|o| o.write_pages).collect(),
        })
        .collect())
}

pub fn render(results: &[TraceWear]) -> String {
    let mut out = String::new();
    for panel in ["(a) erase count", "(b) write pages"] {
        out.push_str(&format!("Figure 1{panel} of different SSDs (Baseline)\n"));
        let osds = results.first().map(|r| r.erase_counts.len()).unwrap_or(0);
        let mut headers: Vec<String> = vec!["trace".into()];
        headers.extend((0..osds).map(|i| format!("osd{i}")));
        headers.push("RSD".into());
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                let (values, spread) = if panel.starts_with("(a)") {
                    (&r.erase_counts, r.erase_rsd())
                } else {
                    (&r.write_pages, r.write_rsd())
                };
                let mut row = vec![r.trace.clone()];
                row.extend(values.iter().map(|&v| grouped(v)));
                row.push(format!("{spread:.3}"));
                row
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));
        out.push('\n');
    }
    out + &claims::render("fig1", Record::Fig1(results))
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
    fn covers_the_three_motivation_traces() {
        let results = run(&tiny(), 8).expect("valid");
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.erase_counts.len(), 8);
            assert_eq!(r.write_pages.len(), 8);
            assert!(r.write_pages.iter().sum::<u64>() > 0);
        }
    }

    #[test]
    fn render_contains_panels_and_traces() {
        let results = run(&tiny(), 8).expect("valid");
        let text = render(&results);
        assert!(text.contains("(a) erase count"));
        assert!(text.contains("(b) write pages"));
        assert!(text.contains("home02"));
        assert!(text.contains("lair62"));
    }
}
