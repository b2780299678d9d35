//! Differential experiment (extension): simulator vs the closed-form
//! mean-field model of `edm-model`, over the fuzz regression corpus.
//!
//! Each corpus scenario replays on the event-driven simulator, then the
//! same per-OSD aggregates (host write pages, end-of-run utilization) are
//! pushed through the analytic model. Three divergence figures gate the
//! comparison:
//!
//! * **KS** — Kolmogorov–Smirnov statistic between the simulated and the
//!   predicted per-OSD erase *shares*: does the model put the wear on the
//!   right devices?
//! * **max rel** — worst per-OSD relative erase-count error: is the
//!   magnitude right, device by device?
//! * **GC rate** — relative error of cluster erases per host page
//!   written: is the garbage-collection overhead right in aggregate?
//!
//! Tolerances live in `scripts/model_tolerances.json`, committed next to
//! the corpus they were calibrated against, so any engine change that
//! moves the physics past the model's error band fails `check.sh model`.
//! DESIGN.md §15 documents where the two sides are *expected* to diverge
//! (transient fill-up, trim-induced utilization dips).

use std::path::{Path, PathBuf};

use edm_cluster::RunReport;
use edm_model::{
    ks_statistic, max_rel_error, rel_error, ClusterPrediction, MeanFieldModel, OsdLoad,
};
use edm_obs::json::{parse, JsonValue};
use edm_obs::NoopRecorder;

use edm_scenario::render_table;
use edm_scenario::Scenario;

/// Erase-count floor for relative errors. Corpus scenarios are small
/// (tens of erases per OSD), so on a device with single-digit erases a
/// couple of erases of transient noise would read as a huge relative
/// error; differences are measured against at least this many erases.
const REL_ERROR_FLOOR: f64 = 16.0;

/// Committed divergence tolerances (`scripts/model_tolerances.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Max allowed KS statistic on the per-OSD erase shares.
    pub ks: f64,
    /// Max allowed per-OSD relative erase-count error.
    pub max_rel_error: f64,
    /// Max allowed relative error of the cluster GC rate.
    pub gc_rate_rel_error: f64,
}

impl Tolerances {
    /// Loads the committed tolerance file. Every key is required — a
    /// missing key means the file and the gate disagree about what is
    /// being checked, which must fail loudly.
    pub fn load(path: &Path) -> Result<Tolerances, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let field = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{}: missing numeric field {key:?}", path.display()))
        };
        Ok(Tolerances {
            ks: field("ks")?,
            max_rel_error: field("max_rel_error")?,
            gc_rate_rel_error: field("gc_rate_rel_error")?,
        })
    }
}

/// One scenario's simulator-vs-model comparison.
#[derive(Debug, Clone)]
pub struct ScenarioDiff {
    pub name: String,
    pub osds: usize,
    pub sim_erases: u64,
    pub model_erases: f64,
    pub ks: f64,
    pub max_rel: f64,
    pub gc_rate_sim: f64,
    pub gc_rate_model: f64,
    pub gc_rate_err: f64,
}

impl ScenarioDiff {
    pub fn within(&self, tol: &Tolerances) -> bool {
        self.ks <= tol.ks
            && self.max_rel <= tol.max_rel_error
            && self.gc_rate_err <= tol.gc_rate_rel_error
    }
}

/// Compares one finished run against the analytic prediction built from
/// its own per-OSD aggregates. Public so the integration tests can diff
/// a single scenario without walking the corpus.
pub fn diff_report(name: &str, report: &RunReport) -> ScenarioDiff {
    // The scenario engine builds paper-geometry clusters: 32 pages per
    // block, greedy GC (ClusterConfig::paper). σ = 0.28 is the paper's
    // skew fit for exactly these traces.
    let model = MeanFieldModel::paper(32);
    let loads: Vec<OsdLoad> = report
        .per_osd
        .iter()
        .map(|o| OsdLoad {
            write_rate: o.write_pages as f64,
            utilization: o.utilization,
        })
        .collect();
    let prediction = ClusterPrediction::predict(&model, &loads);

    let observed: Vec<f64> = report
        .per_osd
        .iter()
        .map(|o| o.erase_count as f64)
        .collect();
    let host_pages = report.aggregate_write_pages() as f64;
    let gc_rate_sim = if host_pages > 0.0 {
        report.aggregate_erases() as f64 / host_pages
    } else {
        0.0
    };
    ScenarioDiff {
        name: name.to_string(),
        osds: report.per_osd.len(),
        sim_erases: report.aggregate_erases(),
        model_erases: prediction.erases.iter().sum(),
        ks: ks_statistic(&observed, &prediction.erases),
        max_rel: max_rel_error(&observed, &prediction.erases, REL_ERROR_FLOOR),
        gc_rate_sim,
        gc_rate_model: prediction.gc_rate,
        gc_rate_err: rel_error(gc_rate_sim, prediction.gc_rate, 1e-6),
    }
}

/// The full corpus comparison.
#[derive(Debug)]
pub struct ModelDiffResult {
    pub diffs: Vec<ScenarioDiff>,
    pub tolerances: Tolerances,
}

impl ModelDiffResult {
    pub fn passed(&self) -> bool {
        !self.diffs.is_empty() && self.diffs.iter().all(|d| d.within(&self.tolerances))
    }
}

/// Runs every `.scn` in `corpus_dir` (sorted by file name, so the report
/// is deterministic) and diffs each against the model.
pub fn run(corpus_dir: &Path, tolerances: Tolerances) -> Result<ModelDiffResult, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir)
        .map_err(|e| format!("reading {}: {e}", corpus_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .scn scenarios in {}", corpus_dir.display()));
    }

    let mut diffs = Vec::new();
    for path in &paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let scenario = Scenario::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let (report, _) = scenario
            .run(&mut NoopRecorder, None)
            .map_err(|e| format!("{name}: {e}"))?;
        diffs.push(diff_report(&name, &report));
    }
    Ok(ModelDiffResult { diffs, tolerances })
}

pub fn render(result: &ModelDiffResult) -> String {
    let tol = &result.tolerances;
    let rows: Vec<Vec<String>> = result
        .diffs
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                d.osds.to_string(),
                d.sim_erases.to_string(),
                format!("{:.0}", d.model_erases),
                format!("{:.4}", d.ks),
                format!("{:.3}", d.max_rel),
                format!("{:.4}", d.gc_rate_sim),
                format!("{:.4}", d.gc_rate_model),
                format!("{:.3}", d.gc_rate_err),
                if d.within(tol) { "ok" } else { "FAIL" }.to_string(),
            ]
        })
        .collect();
    format!(
        "Differential: simulator vs mean-field model (fuzz corpus)\n\
         tolerances: ks <= {}, max rel <= {}, gc rate rel <= {}\n{}\n{}",
        tol.ks,
        tol.max_rel_error,
        tol.gc_rate_rel_error,
        render_table(
            &[
                "scenario",
                "osds",
                "sim erases",
                "model",
                "KS",
                "max rel",
                "gc/pg sim",
                "gc/pg model",
                "gc err",
                "gate",
            ],
            &rows,
        ),
        if result.passed() {
            "model-diff: PASS"
        } else {
            "model-diff: FAIL (divergence exceeds committed tolerances)"
        }
    )
}
