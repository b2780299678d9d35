//! Figure 3 — measured and estimated values of uᵣ and its relation with u.
//!
//! For each workload (home02, deasna, lair62, and the synthetic `random`)
//! a single SSD is sized so the trace's footprint lands at each target
//! utilization; the write stream is replayed and the measured victim
//! valid-page ratio uᵣ is compared against the estimates of Eq. 2 (no
//! correction) and Eq. 3 (σ = 0.28, "EDM"). Claims: `fig3.*`.

use edm_model::{MeanFieldModel, MODEL_SIGMA};
use edm_obs::NoopRecorder;
use edm_scenario::render_table;
use edm_ssd::{Geometry, LatencyModel, Ssd};
use edm_workload::{FileId, FileOp, Trace};

use super::claims::{self, Record};
use crate::runner::{par_map, RunConfig, TraceKey};

/// Minimum erases (GC victims) before we trust a measured uᵣ sample.
const MIN_VICTIMS: u64 = 200;
/// Maximum write-stream replays while hunting for victims.
const MAX_LOOPS: u32 = 50;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub utilization: f64,
    pub measured_ur: f64,
    pub eq2_ur: f64,
    pub eq3_ur: f64,
}

/// The uᵣ(u) series of one workload.
#[derive(Debug, Clone)]
pub struct Series {
    pub workload: String,
    pub points: Vec<Point>,
}

/// The workloads Fig. 3 plots.
pub const FIG3_WORKLOADS: [&str; 4] = ["home02", "deasna", "lair62", "random"];

/// Lays the trace's files out contiguously on one SSD and returns the
/// per-file base offsets plus the total footprint.
fn flat_layout(trace: &Trace) -> (std::collections::BTreeMap<FileId, u64>, u64) {
    let mut offsets = std::collections::BTreeMap::new();
    let mut cursor = 0u64;
    for (&file, &size) in &trace.file_sizes {
        offsets.insert(file, cursor);
        // Page-align files so footprint maps exactly onto mapped pages.
        cursor += size.div_ceil(4096) * 4096;
    }
    (offsets, cursor)
}

/// Measures uᵣ for one trace at one target utilization.
pub fn measure_ur(trace: &Trace, utilization: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&utilization) && utilization > 0.0);
    #[cfg(test)]
    crate::runner::log(crate::runner::Work::Measured(
        trace.name.clone(),
        trace.records.len(),
    ));
    let (offsets, footprint) = flat_layout(trace);
    if footprint == 0 {
        return None;
    }
    let capacity = (footprint as f64 / utilization) as u64;
    let mut ssd = Ssd::new(
        Geometry::for_exported_capacity(capacity),
        LatencyModel::INSTANT,
    );
    // Pre-create all files, then reach steady state.
    for (&file, &base) in &offsets {
        let size = trace.file_sizes[&file];
        #[expect(
            clippy::expect_used,
            reason = "writes stay inside the exported capacity by construction"
        )]
        ssd.write(base, size, &mut NoopRecorder).expect("populate");
    }
    #[expect(
        clippy::expect_used,
        reason = "warm-up of a freshly built SSD cannot fail"
    )]
    ssd.warm_up().expect("warm-up");
    // Replay the write stream (reads cannot touch uᵣ) until the GC has
    // reclaimed enough victims for a stable average.
    for _ in 0..MAX_LOOPS {
        for r in &trace.records {
            if let FileOp::Write { offset, len } = r.op {
                let base = offsets[&r.file];
                #[expect(
                    clippy::expect_used,
                    reason = "writes stay inside the exported capacity by construction"
                )]
                ssd.write(base + offset, len, &mut NoopRecorder)
                    .expect("replay write");
            }
        }
        if ssd.wear().block_erases >= MIN_VICTIMS {
            break;
        }
    }
    ssd.snapshot().measured_ur
}

/// Measures the uᵣ(u) series of each of `workloads` (Fig. 3 plots
/// [`FIG3_WORKLOADS`]) over `utilizations` (Fig. 3: [`default_grid`]): one
/// trace per workload, every (workload × utilization) device measurement
/// a piece of work on the runner's pool.
pub fn run(
    cfg: &RunConfig,
    workloads: &[&str],
    utilizations: &[f64],
) -> Result<Vec<Series>, String> {
    let eq2 = MeanFieldModel::new(32, 0.0);
    let eq3 = MeanFieldModel::new(32, MODEL_SIGMA);
    let traces: Vec<Trace> = par_map(workloads, cfg.jobs, |name| {
        TraceKey::preset(name, cfg.scale).synthesize()
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    let grid: Vec<(&Trace, f64)> = traces
        .iter()
        .flat_map(|trace| utilizations.iter().map(move |&u| (trace, u)))
        .collect();
    let mut measured = par_map(&grid, cfg.jobs, |&(trace, u)| measure_ur(trace, u)).into_iter();
    Ok(workloads
        .iter()
        .map(|name| Series {
            workload: name.to_string(),
            points: utilizations
                .iter()
                .zip(measured.by_ref())
                .filter_map(|(&u, measured_ur)| {
                    Some(Point {
                        utilization: u,
                        measured_ur: measured_ur?,
                        eq2_ur: eq2.victim_valid_ratio(u),
                        eq3_ur: eq3.victim_valid_ratio(u),
                    })
                })
                .collect(),
        })
        .collect())
}

/// The default utilization grid.
pub fn default_grid() -> Vec<f64> {
    (6..=19).map(|i| i as f64 * 0.05).collect()
}

pub fn render(series: &[Series]) -> String {
    let mut out = String::from("Figure 3: measured and estimated u_r vs disk utilization u\n");
    for s in series {
        out.push_str(&format!("workload {}\n", s.workload));
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.utilization),
                    format!("{:.3}", p.measured_ur),
                    format!("{:.3}", p.eq2_ur),
                    format!("{:.3}", p.eq3_ur),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["u", "measured u_r", "Eq.(2) u_r", "Eq.(3)-EDM u_r"],
            &rows,
        ));
        out.push('\n');
    }
    out + &claims::render("fig3", Record::Fig3(series))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_workload::harvard;
    use edm_workload::synth::synthesize;

    fn tiny() -> RunConfig {
        RunConfig {
            scale: 0.002,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_points_for_all_workloads() {
        let series = run(&tiny(), &FIG3_WORKLOADS, &[0.5, 0.8]).expect("presets");
        assert_eq!(series.len(), 4);
        for s in &series {
            assert_eq!(s.points.len(), 2, "{}", s.workload);
            for p in &s.points {
                assert!((0.0..1.0).contains(&p.measured_ur), "{p:?}");
            }
        }
    }

    #[test]
    fn measured_ur_increases_with_utilization() {
        let trace = synthesize(&harvard::spec("deasna").scaled(0.002));
        let low = measure_ur(&trace, 0.5).unwrap();
        let high = measure_ur(&trace, 0.9).unwrap();
        assert!(
            high > low,
            "fuller disks must have fuller victims: {low} vs {high}"
        );
    }

    #[test]
    fn skewed_traces_fall_below_eq2() {
        // The paper's key observation: real workloads' measured uᵣ is well
        // below the Eq. 2 estimate because hot/cold data segregate.
        let trace = synthesize(&harvard::spec("home02").scaled(0.002));
        let u = 0.7;
        let measured = measure_ur(&trace, u).unwrap();
        let eq2 = MeanFieldModel::new(32, 0.0).victim_valid_ratio(u);
        assert!(
            measured < eq2,
            "measured {measured} should undershoot Eq.2 {eq2}"
        );
    }

    #[test]
    fn random_tracks_eq2_more_closely_than_skewed() {
        let u = 0.8;
        let random = synthesize(&harvard::random_spec().scaled(0.002));
        let skewed = synthesize(&harvard::spec("lair62").scaled(0.002));
        let eq2 = MeanFieldModel::new(32, 0.0).victim_valid_ratio(u);
        let r = measure_ur(&random, u).unwrap();
        let s = measure_ur(&skewed, u).unwrap();
        assert!(
            (r - eq2).abs() < (s - eq2).abs(),
            "random {r} should fit Eq.2 {eq2} better than lair62 {s}"
        );
    }

    #[test]
    fn render_has_all_four_workloads() {
        let text = render(&run(&tiny(), &FIG3_WORKLOADS, &[0.6]).expect("presets"));
        for w in FIG3_WORKLOADS {
            assert!(text.contains(w));
        }
    }
}
