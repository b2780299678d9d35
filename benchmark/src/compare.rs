//! `compare A.json B.json`: two result sets of the full command (A the
//! parent or first set, B the change or second set) under the
//! benchmark's bounds. `exact` metrics, digests and input fingerprints
//! must be equal; every end-to-end metric may be worse in B by at most
//! its bound. This is the tool the self-agreement criterion and every
//! later parent-versus-change comparison use.

use std::path::Path;

use edm_obs::json::{parse, JsonValue};

use crate::report::short;

/// Outputs that must be equal between the two sets.
const EQUAL_OUTPUTS: [&str; 5] = [
    "report_digest",
    "trace_fingerprint",
    "op_stream_hash",
    "stats_digest",
    "model_assessor_digest",
];

struct Run<'a> {
    workload: &'a str,
    traced: bool,
    doc: &'a JsonValue,
}

fn runs(doc: &JsonValue) -> Result<Vec<Run<'_>>, String> {
    doc.get("runs")
        .and_then(JsonValue::as_arr)
        .ok_or("no \"runs\" array")?
        .iter()
        .map(|run| {
            Ok(Run {
                workload: run
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .ok_or("a run without a workload")?,
                traced: run
                    .get("traced")
                    .and_then(JsonValue::as_bool)
                    .ok_or("a run without a traced flag")?,
                doc: run,
            })
        })
        .collect()
}

fn load(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(metric: &JsonValue, key: &str) -> f64 {
    metric
        .get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    if delta == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

fn summary(metric: &JsonValue) -> String {
    let n = metric.get("n").and_then(JsonValue::as_u64).unwrap_or(0);
    if n > 1 {
        format!(
            "{} [{} … {}] n={n}",
            short(num(metric, "value")),
            short(num(metric, "q1")),
            short(num(metric, "q3"))
        )
    } else {
        format!("{} n={n}", short(num(metric, "value")))
    }
}

pub fn run(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let (doc_a, doc_b) = (load(path_a)?, load(path_b)?);
    let (runs_a, runs_b) = (runs(&doc_a)?, runs(&doc_b)?);
    let seed = |d: &JsonValue| d.get("seed").and_then(JsonValue::as_u64);
    for (side, path, doc) in [("A", path_a, &doc_a), ("B", path_b, &doc_b)] {
        let seed = seed(doc).map_or("?".to_string(), |s| s.to_string());
        println!("{side} = {} (seed {seed})", path.display());
    }
    let mut failures: Vec<String> = Vec::new();
    if seed(&doc_a) != seed(&doc_b) {
        failures.push("the two sets were run with different seeds".to_string());
    }
    // One row per workload for the closing matrix.
    let mut matrix: Vec<(String, Vec<(String, String)>)> = Vec::new();

    for a in &runs_a {
        let Some(b) = runs_b
            .iter()
            .find(|b| b.workload == a.workload && b.traced == a.traced)
        else {
            failures.push(format!("{}: missing from B", a.workload));
            continue;
        };
        let mode = if a.traced { "per-layer" } else { "end-to-end" };
        println!("\n== {} ({mode})", a.workload);
        for (side, run) in [("A", a), ("B", b)] {
            if run.doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
                failures.push(format!("{} ({mode}): {side} is not correct", a.workload));
            }
        }
        for key in EQUAL_OUTPUTS {
            let value = |r: &Run| {
                r.doc
                    .get("outputs")
                    .and_then(|o| o.get(key))
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            };
            let (va, vb) = (value(a), value(b));
            if va.is_none() && vb.is_none() {
                continue;
            }
            let equal = va == vb;
            println!(
                "  {key:<28} {} {}",
                va.as_deref().unwrap_or("-"),
                if equal {
                    "equal".to_string()
                } else {
                    format!("!= {}", vb.as_deref().unwrap_or("-"))
                }
            );
            if !equal {
                failures.push(format!("{} ({mode}): {key} differs", a.workload));
            }
        }
        let Some(JsonValue::Obj(metrics_a)) = a.doc.get("metrics") else {
            failures.push(format!("{} ({mode}): A has no metrics", a.workload));
            continue;
        };
        let mut row = Vec::new();
        for (name, ma) in metrics_a {
            let Some(mb) = b.doc.get("metrics").and_then(|m| m.get(name)) else {
                failures.push(format!("{} ({mode}): {name} missing from B", a.workload));
                continue;
            };
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let lower = ma.get("better").and_then(JsonValue::as_str) == Some("lower");
            let exact = ma.get("exact").and_then(JsonValue::as_bool) == Some(true);
            let bound = ma.get("bound").and_then(JsonValue::as_f64);
            let worse = worse_by(va, vb, lower);
            // (verdict, fails)
            let (verdict, fails) = match (exact, bound) {
                (true, _) if va == vb => ("equal", false),
                (true, _) => ("EXACT METRIC DIFFERS", true),
                (false, Some(bound)) if worse > bound => ("WORSE THAN BOUND", true),
                (false, Some(_)) if va == vb => ("identical", false),
                (false, Some(_)) => ("within bound", false),
                (false, None) => ("", false),
            };
            let unit = ma.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            let bound_text = bound.map_or(String::new(), |b| format!(" (≤ {:.0} %)", b * 100.0));
            let change = if worse > 0.0 {
                format!("{:.2} % worse", worse * 100.0)
            } else {
                format!("{:.2} % better", -worse * 100.0)
            };
            println!(
                "  {name:<28} A {:<34} B {:<34} {unit:<6} {change}{bound_text} {verdict}",
                summary(ma),
                summary(mb),
            );
            if fails {
                failures.push(format!(
                    "{} ({mode}): {name} {verdict}: {} -> {} ({:+.2} %)",
                    a.workload,
                    short(va),
                    short(vb),
                    worse * 100.0
                ));
            }
            if bound.is_some() {
                let mark = if fails { "!" } else { "" };
                row.push((name.clone(), format!("{:+.1}%{mark}", worse * 100.0)));
            }
        }
        if !a.traced {
            matrix.push((a.workload.to_string(), row));
        }
    }

    if let Some((_, first)) = matrix.first() {
        println!("\nB against A, % worse (negative = better; ! = beyond the bound), one row per workload");
        print!("{:<16}", "workload");
        for (name, _) in first {
            print!(
                " {:>14}",
                name.trim_start_matches("sim_").trim_start_matches("host_")
            );
        }
        println!();
        for (workload, row) in &matrix {
            print!("{workload:<16}");
            for (_, cell) in row {
                print!(" {cell:>14}");
            }
            println!();
        }
    }
    if failures.is_empty() {
        println!("\ncompare: PASS — exact metrics and digests equal, every end-to-end metric within its bound");
    } else {
        println!("\ncompare: FAIL");
        for f in &failures {
            println!("  {f}");
        }
    }
    Ok(failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;
    use crate::report::Outcome;
    use crate::stats::Summary;

    fn set(
        dir: &Path,
        name: &str,
        ops_per_s: f64,
        erases: f64,
        digest: &str,
    ) -> std::path::PathBuf {
        let mut e2e = Outcome::new("replay_read", 0, false);
        e2e.attempted = 1;
        for d in &END_TO_END {
            e2e.set(d.name, Summary::of(&[1.0, 2.0, 3.0]), "");
        }
        e2e.set("host_ops_per_s", Summary::of(&[ops_per_s]), "");
        e2e.output("report_digest", digest);
        let mut layers = Outcome::new("replay_read", 0, true);
        layers.attempted = 1;
        layers.value("ssd.erases", erases, "");
        layers.value("ssd.device_s", ops_per_s, "");
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"seed\":0,\"runs\":[{},{}]}}",
                e2e.detail_json(),
                layers.detail_json()
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn bounds_exact_flags_and_digests_decide() {
        let dir =
            std::env::temp_dir().join(format!("edm-benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = set(&dir, "a.json", 100.0, 7.0, "0x1");
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == "host_ops_per_s")
            .and_then(|d| d.bound)
            .unwrap();
        // A point inside the bound; a layer metric without one may move freely.
        let inside = 100.0 * (1.0 - bound) + 1.0;
        assert!(run(&base, &set(&dir, "b.json", inside, 7.0, "0x1")).unwrap());
        // A point beyond it.
        let beyond = 100.0 * (1.0 - bound) - 1.0;
        assert!(!run(&base, &set(&dir, "c.json", beyond, 7.0, "0x1")).unwrap());
        // Faster is never a failure.
        assert!(run(&base, &set(&dir, "d.json", 500.0, 7.0, "0x1")).unwrap());
        // An exact count moved.
        assert!(!run(&base, &set(&dir, "e.json", 100.0, 8.0, "0x1")).unwrap());
        // A digest moved.
        assert!(!run(&base, &set(&dir, "f.json", 100.0, 7.0, "0x2")).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(100.0, 110.0, true), 0.1);
        assert_eq!(worse_by(100.0, 110.0, false), -0.1);
        assert_eq!(worse_by(0.0, 0.0, true), 0.0);
        assert_eq!(worse_by(0.0, 1.0, true), f64::INFINITY);
    }
}
