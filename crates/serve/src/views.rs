//! Rendering of the daemon's HTTP views.
//!
//! The session thread renders one of these strings when a `GET` has
//! asked for it — at its next safe point (batch boundary, tick, wake-up
//! from a pause, replay step return), through
//! [`Ctrl::serve_views`](crate::state::Ctrl::serve_views) — and the
//! server thread serves what it is handed. Rendering therefore never
//! races the simulation: a view is a consistent cut of the world, taken
//! after the request arrived, and a view nobody asks for costs nothing.
//!
//! The `/stats` body is part of the crash-recovery contract: it carries
//! only *convergent* state, values an interrupted-and-resumed session
//! arrives at bit-identically after being re-fed the same op stream. The
//! incarnation-local bookkeeping (skips, buffered lines, checkpoint
//! counts) lives in `/healthz`, which makes no such promise.

use edm_cluster::Cluster;
use edm_obs::json::{field_bool, field_f64, field_raw, field_str, field_u64};
use edm_obs::{Event, JournalEntry};

use crate::ingest::LiveStats;

/// Inputs for `/healthz` (assembled by the daemon for each render).
pub struct HealthInfo<'a> {
    pub mode: &'a str,
    pub policy: &'a str,
    pub backend: &'a str,
    pub now_us: u64,
    pub paused: bool,
    pub done: bool,
    pub ingest_accepted: u64,
    pub ingest_buffered: u64,
    pub ingest_closed: bool,
    pub skipped_ops: u64,
    pub rejected_lines: u64,
    pub checkpoints: u64,
    pub backend_moves: u64,
    pub backend_errors: u64,
    pub last_error: Option<&'a str>,
}

pub fn render_healthz(h: &HealthInfo<'_>) -> String {
    let mut out = String::from("{");
    field_bool(&mut out, "ok", true);
    field_str(&mut out, "mode", h.mode);
    field_str(&mut out, "policy", h.policy);
    field_str(&mut out, "backend", h.backend);
    field_u64(&mut out, "now_us", h.now_us);
    field_bool(&mut out, "paused", h.paused);
    field_bool(&mut out, "done", h.done);
    field_u64(&mut out, "ingest_accepted", h.ingest_accepted);
    field_u64(&mut out, "ingest_buffered", h.ingest_buffered);
    field_bool(&mut out, "ingest_closed", h.ingest_closed);
    field_u64(&mut out, "skipped_ops", h.skipped_ops);
    field_u64(&mut out, "rejected_lines", h.rejected_lines);
    field_u64(&mut out, "checkpoints", h.checkpoints);
    field_u64(&mut out, "backend_moves", h.backend_moves);
    field_u64(&mut out, "backend_errors", h.backend_errors);
    match h.last_error {
        Some(e) => field_str(&mut out, "last_error", e),
        None => field_raw(&mut out, "last_error", "null"),
    }
    out.push('}');
    out
}

/// `/nodes`: one object per OSD, straight from the policy's own view of
/// the cluster (wear-model inputs included) plus the object count.
pub fn render_nodes(cluster: &Cluster, now_us: u64) -> String {
    let view = cluster.view(now_us);
    let mut out = String::from("{");
    field_u64(&mut out, "now_us", now_us);
    field_u64(&mut out, "osds", view.osds.len() as u64);
    let mut nodes = String::from("[");
    for osd in &view.osds {
        if !nodes.ends_with('[') {
            nodes.push(',');
        }
        let mut n = String::from("{");
        field_u64(&mut n, "osd", osd.osd.0 as u64);
        field_u64(&mut n, "group", osd.group.0 as u64);
        field_f64(&mut n, "utilization", osd.utilization);
        field_u64(&mut n, "free_bytes", osd.free_bytes);
        field_u64(&mut n, "capacity_bytes", osd.capacity_bytes);
        field_u64(&mut n, "wc_pages", osd.wc_pages);
        field_u64(&mut n, "erases", osd.measured_erases);
        field_f64(&mut n, "ewma_latency_us", osd.ewma_latency_us);
        field_u64(
            &mut n,
            "objects",
            cluster.osd(osd.osd).object_count() as u64,
        );
        n.push('}');
        nodes.push_str(&n);
    }
    nodes.push(']');
    field_raw(&mut out, "nodes", &nodes);
    out.push('}');
    out
}

/// `/plan`: the most recent trigger evaluation, chosen plan, and plan
/// assessment from the journal, each rendered with the journal's own
/// field serialization (so `/plan` speaks the same schema as the event
/// log). Requires the daemon to run at the `events` obs level; below it
/// the journal is empty and `/plan` says so.
pub fn render_plan(journal: &[JournalEntry]) -> String {
    let mut trigger: Option<&JournalEntry> = None;
    let mut plan: Option<&JournalEntry> = None;
    let mut assessment: Option<&JournalEntry> = None;
    let mut evaluations = 0u64;
    for entry in journal {
        match entry.event {
            Event::TriggerEval { .. } => {
                evaluations += 1;
                trigger = Some(entry);
            }
            Event::PlanChosen { .. } => plan = Some(entry),
            Event::PlanAssessment { .. } => assessment = Some(entry),
            _ => {}
        }
    }
    let render = |entry: Option<&JournalEntry>| -> String {
        match entry {
            None => "null".to_string(),
            Some(e) => {
                let mut o = String::from("{");
                field_str(&mut o, "kind", e.event.kind());
                field_u64(&mut o, "t_us", e.t_us);
                e.event.write_fields(&mut o);
                o.push('}');
                o
            }
        }
    };
    let mut out = String::from("{");
    field_u64(&mut out, "evaluations", evaluations);
    field_raw(&mut out, "trigger", &render(trigger));
    field_raw(&mut out, "plan", &render(plan));
    field_raw(&mut out, "assessment", &render(assessment));
    out.push('}');
    out
}

/// Ingest-mode `/stats`. Every field is convergent (see module docs);
/// the serve gate diffs this body between an uninterrupted session and a
/// killed-and-resumed one.
pub fn render_live_stats(stats: &LiveStats, now_us: u64, cluster: &Cluster) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "mode", "ingest");
    field_u64(&mut out, "now_us", now_us);
    field_u64(&mut out, "applied_ops", stats.applied_ops);
    field_u64(&mut out, "reads", stats.reads);
    field_u64(&mut out, "writes", stats.writes);
    field_u64(&mut out, "ticks", stats.ticks);
    field_u64(
        &mut out,
        "migration_evaluations",
        stats.migration_evaluations,
    );
    field_u64(&mut out, "migrations_triggered", stats.migrations_triggered);
    field_u64(&mut out, "failed_moves", stats.failed_moves);
    field_u64(&mut out, "moved_objects", stats.moved_objects);
    field_u64(&mut out, "moved_bytes", stats.moved_bytes);
    let view = cluster.view(now_us);
    let mut osds = String::from("[");
    for osd in &view.osds {
        if !osds.ends_with('[') {
            osds.push(',');
        }
        let mut n = String::from("{");
        field_u64(&mut n, "osd", osd.osd.0 as u64);
        field_u64(&mut n, "erases", osd.measured_erases);
        field_u64(&mut n, "free_bytes", osd.free_bytes);
        field_u64(
            &mut n,
            "objects",
            cluster.osd(osd.osd).object_count() as u64,
        );
        field_f64(&mut n, "utilization", osd.utilization);
        n.push('}');
        osds.push_str(&n);
    }
    osds.push(']');
    field_raw(&mut out, "osds", &osds);
    out.push('}');
    out
}

/// Replay-mode `/stats` while the trace is still running.
pub fn render_replay_progress(now_us: u64, completed: u64, total: u64) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "mode", "replay");
    field_bool(&mut out, "done", false);
    field_u64(&mut out, "now_us", now_us);
    field_u64(&mut out, "completed_ops", completed);
    field_u64(&mut out, "total_ops", total);
    out.push('}');
    out
}

/// Replay-mode `/stats` once the trace finished: the batch tool's
/// rendered report plus the frozen digest, so a dilated live replay can
/// be checked against `edm-sim` output directly.
pub fn render_replay_final(report_text: &str, digest: u64) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "mode", "replay");
    field_bool(&mut out, "done", true);
    field_str(&mut out, "digest", &format!("{digest:#018x}"));
    field_str(&mut out, "report", report_text);
    out.push('}');
    out
}

/// `/model`: the analytic mean-field assessment of the live cluster
/// (`edm-model`), rendered from the same view the policies plan with.
/// Per OSD it reports the measured erase count next to the closed-form
/// prediction from that device's own write volume and utilization, so
/// live divergence between the daemon's physics and the model is
/// directly visible — the serving-side counterpart of the
/// `edm-exp model-diff` CI gate.
pub fn render_model(cluster: &Cluster, now_us: u64) -> String {
    let view = cluster.view(now_us);
    let model = edm_model::MeanFieldModel::paper(view.pages_per_block);
    // Cumulative host page writes, not the view's windowed `wc_pages`
    // (that counter resets at every wear tick and would predict near
    // zero right after one) — the prediction must cover the same span
    // as the measured erase counts it is shown against.
    let loads: Vec<edm_model::OsdLoad> = view
        .osds
        .iter()
        .map(|o| edm_model::OsdLoad {
            write_rate: cluster.osd(o.osd).ssd().wear().host_page_writes as f64,
            utilization: o.utilization,
        })
        .collect();
    let prediction = edm_model::ClusterPrediction::predict(&model, &loads);

    let mut out = String::from("{");
    field_u64(&mut out, "now_us", now_us);
    field_str(&mut out, "model", "mean-field");
    field_f64(&mut out, "sigma", model.sigma);
    field_f64(&mut out, "gc_rate", prediction.gc_rate);
    field_f64(&mut out, "rsd_model", prediction.rsd);
    field_f64(
        &mut out,
        "rsd_measured",
        edm_cluster::metrics::rsd(view.osds.iter().map(|o| o.measured_erases as f64)),
    );
    let mut osds = String::from("[");
    for (i, osd) in view.osds.iter().enumerate() {
        if !osds.ends_with('[') {
            osds.push(',');
        }
        let mut n = String::from("{");
        field_u64(&mut n, "osd", osd.osd.0 as u64);
        field_u64(&mut n, "erases_measured", osd.measured_erases);
        field_f64(
            &mut n,
            "erases_model",
            prediction.erases.get(i).copied().unwrap_or(0.0),
        );
        field_f64(
            &mut n,
            "write_amplification",
            prediction
                .write_amplification
                .get(i)
                .copied()
                .unwrap_or(1.0),
        );
        field_f64(
            &mut n,
            "share",
            prediction.shares.get(i).copied().unwrap_or(0.0),
        );
        n.push('}');
        osds.push_str(&n);
    }
    osds.push(']');
    field_raw(&mut out, "osds", &osds);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_obs::json;

    #[test]
    fn healthz_is_valid_json() {
        let h = HealthInfo {
            mode: "ingest",
            policy: "EDM-HDF",
            backend: "mem",
            now_us: 12,
            paused: false,
            done: false,
            ingest_accepted: 3,
            ingest_buffered: 1,
            ingest_closed: false,
            skipped_ops: 0,
            rejected_lines: 0,
            checkpoints: 2,
            backend_moves: 1,
            backend_errors: 0,
            last_error: Some("a \"quoted\" problem"),
        };
        let v = json::parse(&render_healthz(&h)).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("checkpoints").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("last_error").unwrap().as_str(),
            Some("a \"quoted\" problem")
        );
    }

    #[test]
    fn plan_view_picks_latest_entries() {
        let mut rec = edm_obs::MemoryRecorder::new(edm_obs::ObsLevel::Events);
        use edm_obs::Recorder;
        rec.set_now(5);
        for round in 0..2u64 {
            rec.event(Event::TriggerEval {
                policy: "EDM-HDF",
                metric: "wear",
                rsd: 0.2 + round as f64,
                lambda: 0.1,
                mean: 1.0,
                triggered: true,
                sources: vec![1],
                destinations: vec![2],
            });
            rec.event(Event::PlanChosen {
                policy: "EDM-HDF",
                moves: round + 1,
                moved_bytes: 4096,
                objects: vec![7],
                sources: vec![1],
                destinations: vec![2],
            });
        }
        let v = json::parse(&render_plan(rec.journal())).unwrap();
        assert_eq!(v.get("evaluations").unwrap().as_u64(), Some(2));
        let trigger = v.get("trigger").unwrap();
        assert_eq!(trigger.get("kind").unwrap().as_str(), Some("trigger_eval"));
        assert_eq!(trigger.get("rsd").unwrap().as_f64(), Some(1.2));
        assert_eq!(
            v.get("plan").unwrap().get("moves").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(v.get("assessment"), Some(&json::JsonValue::Null));
    }

    #[test]
    fn empty_journal_renders_null_plan() {
        let v = json::parse(&render_plan(&[])).unwrap();
        assert_eq!(v.get("evaluations").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("trigger"), Some(&json::JsonValue::Null));
    }

    #[test]
    fn model_view_is_valid_json_with_per_osd_predictions() {
        use crate::ingest::LiveWorld;
        use edm_cluster::MigrationSchedule;
        use edm_scenario::Scenario;
        let scenario = Scenario {
            trace: "random".into(),
            scale: 0.002,
            osds: 8,
            groups: 4,
            schedule: MigrationSchedule::EveryTick,
            ..Scenario::default()
        };
        let mut world = LiveWorld::new(scenario).unwrap();
        let mut obs = edm_obs::MemoryRecorder::new(edm_obs::ObsLevel::Off);
        for file in 0..4u64 {
            let outcome = world.apply_line(&format!("w {file} 0 65536"), &mut obs);
            assert!(
                matches!(outcome, crate::ingest::ApplyOutcome::Applied { .. }),
                "write rejected: {outcome:?}"
            );
        }
        let v = json::parse(&render_model(world.cluster(), world.now_us())).unwrap();
        assert_eq!(v.get("model").unwrap().as_str(), Some("mean-field"));
        let osds = v.get("osds").unwrap().as_arr().unwrap();
        assert_eq!(osds.len(), 8);
        for osd in osds {
            let wa = osd.get("write_amplification").unwrap().as_f64().unwrap();
            assert!(wa >= 1.0, "WA below physical floor: {wa}");
            let share = osd.get("share").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&share), "share out of range: {share}");
        }
        let rsd_model = v.get("rsd_model").unwrap().as_f64().unwrap();
        assert!(rsd_model.is_finite() && rsd_model >= 0.0);
    }

    #[test]
    fn replay_views_are_valid_json() {
        let v = json::parse(&render_replay_progress(10, 3, 9)).unwrap();
        assert_eq!(v.get("total_ops").unwrap().as_u64(), Some(9));
        let v = json::parse(&render_replay_final("line one\nline two", 0xabcd)).unwrap();
        assert_eq!(
            v.get("digest").unwrap().as_str(),
            Some("0x000000000000abcd")
        );
        assert!(v.get("report").unwrap().as_str().unwrap().contains('\n'));
    }
}
