//! Figure 8 — the total number of moved objects per trace for CMT,
//! EDM-CDF and EDM-HDF (remapping-table overhead, §V.E). Claims:
//! `fig8.*`.

use edm_scenario::{grouped, render_table};

use super::claims::{self, Record};
use super::fig56::Matrix;
use crate::runner::Cell;

/// The migrating policies Fig. 8 compares (Baseline moves nothing).
pub const FIG8_POLICIES: [&str; 3] = ["CMT", "EDM-CDF", "EDM-HDF"];

/// The cells Fig. 8 reads (the paper's setup: all seven traces on 16
/// OSDs).
pub fn cells(osds: u32, traces: &[&str]) -> Vec<Cell> {
    traces
        .iter()
        .flat_map(|t| FIG8_POLICIES.iter().map(move |p| Cell::new(t, p, osds)))
        .collect()
}

pub fn render(m: &Matrix, osds: u32, traces: &[&str]) -> String {
    let rows: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            let mut row = vec![t.to_string()];
            for p in FIG8_POLICIES {
                let r = m.report(t, p, osds);
                row.push(format!(
                    "{} ({:.2}%)",
                    grouped(r.moved_objects),
                    r.moved_fraction() * 100.0
                ));
            }
            for p in FIG8_POLICIES {
                row.push(grouped(m.report(t, p, osds).remap_entries));
            }
            row
        })
        .collect();
    format!(
        "Figure 8 ({osds}-OSDs): total moved objects (and % of all objects)\n{}",
        render_table(
            &[
                "trace",
                "CMT moved",
                "CDF moved",
                "HDF moved",
                "CMT remap",
                "CDF remap",
                "HDF remap",
            ],
            &rows,
        )
    ) + &claims::render("fig8", Record::Matrix(m, &cells(osds, traces)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;

    fn home02_on_8() -> Matrix {
        let cfg = RunConfig {
            scale: 0.002,
            jobs: None,
        };
        let mut m = Matrix::default();
        m.ensure(&cfg, &cells(8, &["home02"])).expect("valid");
        m
    }

    #[test]
    fn migrating_policies_move_objects() {
        let m = home02_on_8();
        for p in FIG8_POLICIES {
            assert!(
                m.report("home02", p, 8).moved_objects > 0,
                "{p} moved nothing on a skewed trace"
            );
        }
    }

    #[test]
    fn remap_entries_bounded_by_moved() {
        let m = home02_on_8();
        for p in FIG8_POLICIES {
            let r = m.report("home02", p, 8);
            assert!(r.remap_entries <= r.moved_objects);
        }
    }

    #[test]
    fn render_includes_percentages() {
        let text = render(&home02_on_8(), 8, &["home02"]);
        assert!(text.contains("Figure 8"));
        assert!(text.contains('%'));
    }
}
