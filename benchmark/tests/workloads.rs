//! Seconds-scale end-to-end test: each of the five workload drivers at
//! scale 0.004, untraced and traced, through the same code path and the
//! same output checks as the full-size benchmark.

use std::path::PathBuf;

use edm_benchmark::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use edm_benchmark::report::Outcome;
use edm_benchmark::workloads::{run, Args, MIN_PASSES};
use edm_obs::json::{parse, JsonValue};

fn drive(workload: &'static str, seed: u64, traced: bool) -> (Outcome, PathBuf) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{seed}-{}", u8::from(traced)));
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        traced,
        out_dir: out_dir.clone(),
        scale: Some(0.004),
    };
    let outcome = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
    (outcome, out_dir)
}

fn assert_sound(o: &Outcome) {
    for c in &o.checks {
        assert!(
            c.ok,
            "{}: check {} failed: {}",
            o.workload, c.name, c.detail
        );
    }
    assert!(!o.checks.is_empty(), "{}: no output check ran", o.workload);
    assert_eq!(o.failed, 0, "{}", o.workload);
    assert!(o.correct(), "{}", o.workload);
}

/// `seed_moves_inputs`: false where 0.004 of the input is a single
/// shuffle block, which no seed can reorder.
fn untraced(workload: &'static str, seed_moves_inputs: bool) {
    let (o, _) = drive(workload, 0, false);
    assert_sound(&o);
    for d in &END_TO_END {
        let m = &o.metrics[d.name];
        assert!(
            m.summary.median > 0.0,
            "{workload}: {} is not positive",
            d.name
        );
    }
    assert!(o.metrics["host_ops_per_s"].summary.n >= MIN_PASSES);
    assert!(o.metrics["setup_s"].summary.n >= MIN_PASSES);
    // Same seed, same inputs, same simulated statistics; another seed,
    // other inputs, every check still passing.
    let (again, _) = drive(workload, 0, false);
    let (other, _) = drive(workload, 1, false);
    assert_sound(&other);
    assert_eq!(o.outputs, again.outputs, "{workload}");
    assert_eq!(o.outputs != other.outputs, seed_moves_inputs, "{workload}");
    for d in END_TO_END.iter().filter(|d| d.name.starts_with("sim_")) {
        assert_eq!(o.get(d.name), again.get(d.name), "{workload}: {}", d.name);
    }
}

fn traced(workload: &'static str, layers: &[&str]) {
    let (o, out_dir) = drive(workload, 0, true);
    assert_sound(&o);
    // Every per-layer metric is in the result object, measured or 0.
    let line = o.result_line();
    assert!(PER_LAYER
        .iter()
        .all(|d| line.contains(&format!("\"{}\":", d.name))));
    for prefix in layers {
        let measured = o
            .metrics
            .values()
            .filter(|m| m.def.name.starts_with(prefix) && m.summary.median != 0.0)
            .count();
        assert!(measured > 0, "{workload}: nothing measured under {prefix}");
    }
    // The trace is on disk: spans with parents and a shared id.
    let text = std::fs::read_to_string(out_dir.join(format!("trace-{workload}.json"))).unwrap();
    let doc = parse(&text).unwrap();
    let spans = doc.get("spans").and_then(JsonValue::as_arr).unwrap();
    assert!(spans.len() >= 4, "{workload}: {} spans", spans.len());
    for span in spans {
        let field = |k: &str| span.get(k).and_then(JsonValue::as_u64).unwrap();
        assert!(field("end_ns") >= field("start_ns"));
        assert!(span
            .get("id")
            .and_then(JsonValue::as_str)
            .is_some_and(|id| id.starts_with(workload)));
    }
    assert!(spans
        .iter()
        .any(|s| s.get("parent").and_then(JsonValue::as_u64).is_some()));
}

#[test]
fn the_five_workloads_are_the_catalogue() {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        names,
        [
            "replay_read",
            "replay_write",
            "scale_sharded",
            "journal_verify",
            "serve_ingest"
        ]
    );
}

#[test]
fn replay_read_end_to_end() {
    untraced("replay_read", true);
}

#[test]
fn replay_read_layers() {
    traced(
        "replay_read",
        &[
            "workload.",
            "cluster.",
            "ssd.",
            "core.",
            "model.",
            "host.",
            "trace.",
        ],
    );
}

#[test]
fn replay_write_end_to_end() {
    untraced("replay_write", false);
}

#[test]
fn replay_write_layers() {
    traced(
        "replay_write",
        &["cluster.", "ssd.", "core.plan_model_s", "model."],
    );
}

#[test]
fn scale_sharded_end_to_end() {
    untraced("scale_sharded", true);
}

#[test]
fn scale_sharded_layers() {
    traced(
        "scale_sharded",
        &["cluster.shard_speedup", "cluster.shard_components", "core."],
    );
}

#[test]
fn journal_verify_end_to_end() {
    untraced("journal_verify", true);
}

#[test]
fn journal_verify_layers() {
    traced(
        "journal_verify",
        &["obs.", "spec.", "snap.", "scenario.", "host."],
    );
}

#[test]
fn serve_ingest_end_to_end() {
    untraced("serve_ingest", false);
}

#[test]
fn serve_ingest_layers() {
    traced("serve_ingest", &["serve.", "workload.records"]);
}
