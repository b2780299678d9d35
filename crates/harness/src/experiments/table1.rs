//! Table 1 — characteristics of the workloads.
//!
//! Synthesizes each of the seven Harvard presets and reports the measured
//! characteristics next to the paper's targets. Op counts must match
//! exactly; mean sizes within a small tolerance (the synthesizer samples
//! request sizes around the target mean).

use edm_workload::harvard;
use edm_workload::synth::synthesize;
use edm_workload::TraceStats;

use edm_scenario::{grouped, render_table};

/// One row: paper target vs. measured synthesis.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub target_files: u64,
    pub target_writes: u64,
    pub target_avg_write: u64,
    pub target_reads: u64,
    pub target_avg_read: u64,
    pub measured: TraceStats,
}

impl Row {
    /// Largest relative error across the five Table 1 columns.
    pub fn worst_relative_error(&self) -> f64 {
        let rel = |target: u64, got: u64| {
            if target == 0 {
                return 0.0;
            }
            (got as f64 - target as f64).abs() / target as f64
        };
        [
            rel(self.target_files, self.measured.file_cnt),
            rel(self.target_writes, self.measured.write_cnt),
            rel(self.target_avg_write, self.measured.avg_write_size),
            rel(self.target_reads, self.measured.read_cnt),
            rel(self.target_avg_read, self.measured.avg_read_size),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// Synthesizes all seven workloads at `scale` and measures them.
pub fn run(scale: f64) -> Vec<Row> {
    harvard::TRACE_NAMES
        .iter()
        .map(|name| {
            let spec = harvard::spec(name).scaled(scale);
            let trace = synthesize(&spec);
            Row {
                workload: name.to_string(),
                target_files: spec.file_cnt,
                target_writes: spec.write_cnt,
                target_avg_write: spec.avg_write_size,
                target_reads: spec.read_cnt,
                target_avg_read: spec.avg_read_size,
                measured: trace.stats(),
            }
        })
        .collect()
}

pub fn render(rows: &[Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                grouped(r.measured.file_cnt),
                grouped(r.measured.write_cnt),
                grouped(r.measured.avg_write_size),
                grouped(r.measured.read_cnt),
                grouped(r.measured.avg_read_size),
                format!("{:.2}%", r.worst_relative_error() * 100.0),
            ]
        })
        .collect();
    format!(
        "Table 1: characteristics of the workloads (synthesized)\n{}",
        render_table(
            &[
                "workload",
                "file cnt",
                "write cnt",
                "avg write (B)",
                "read cnt",
                "avg read (B)",
                "max err vs paper",
            ],
            &table_rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exact_sizes_close() {
        for row in run(0.01) {
            assert_eq!(row.measured.file_cnt, row.target_files, "{}", row.workload);
            assert_eq!(
                row.measured.write_cnt, row.target_writes,
                "{}",
                row.workload
            );
            assert_eq!(row.measured.read_cnt, row.target_reads, "{}", row.workload);
            assert!(
                row.worst_relative_error() < 0.05,
                "{}: err {}",
                row.workload,
                row.worst_relative_error()
            );
        }
    }

    #[test]
    fn render_mentions_every_workload() {
        let rows = run(0.005);
        let text = render(&rows);
        for name in edm_workload::harvard::TRACE_NAMES {
            assert!(text.contains(name));
        }
    }
}
