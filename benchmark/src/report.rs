//! What one run of one workload produced: metrics, output checks and
//! checked outputs, and how they are printed and serialised.

use std::collections::BTreeMap;

use edm_obs::json::{field_bool, field_f64, field_raw, field_str, field_u64};

use crate::catalog::{self, Def};
use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Measured {
    pub def: &'static Def,
    pub summary: Summary,
    /// What the samples are (e.g. "timed passes", "p99 of 1594 requests").
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted over all timed passes, and how many of them
    /// failed, were lost or were rejected.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Measured>,
    pub checks: Vec<Check>,
    /// Checked outputs that are not metrics: digests, fingerprints.
    pub outputs: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The metric list this run must fill.
    fn expected(&self) -> &'static [Def] {
        if self.traced {
            &catalog::PER_LAYER
        } else {
            &catalog::END_TO_END
        }
    }

    /// Records a metric. Panics on a name outside this run's list or a
    /// value that is not finite: both are bugs in a workload driver.
    pub fn set(&mut self, name: &str, summary: Summary, note: impl Into<String>) {
        let def = self
            .expected()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        assert!(
            summary.median.is_finite(),
            "{name} measured a value that is not finite"
        );
        self.metrics.insert(
            def.name,
            Measured {
                def,
                summary,
                note: note.into(),
            },
        );
    }

    /// Records a metric measured once.
    pub fn value(&mut self, name: &str, value: f64, note: impl Into<String>) {
        self.set(name, Summary::single(value), note);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.summary.median)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn output(&mut self, key: &str, value: impl Into<String>) {
        self.outputs.push((key.to_string(), value.into()));
    }

    /// Every output check passed, no operation failed and the run's
    /// metrics were measured: every end-to-end metric by every workload;
    /// of the per-layer metrics, those the workload has a use for (the
    /// rest read 0 in the result object and are left out elsewhere).
    pub fn correct(&self) -> bool {
        let measured = |d: &Def| self.metrics.contains_key(d.name);
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|c| c.ok)
            && if self.traced {
                !self.metrics.is_empty()
            } else {
                self.expected().iter().all(measured)
            }
    }

    /// `failed / attempted`, the issue's `failed_op_share`; 1 if any
    /// output check failed.
    pub fn failed_op_share(&self) -> f64 {
        if !self.checks.iter().all(|c| c.ok) || self.attempted == 0 {
            return 1.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Every metric by name with its unit, clock and sample count, then
    /// the outputs and the checks.
    pub fn render_human(&self) -> String {
        let mode = if self.traced {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        };
        let mut out = format!("== {} seed={} ({mode})\n", self.workload, self.seed);
        for m in self
            .expected()
            .iter()
            .filter_map(|d| self.metrics.get(d.name))
        {
            let s = &m.summary;
            let bound = match m.def.bound {
                Some(b) => format!(", may worsen {:.0} %", b * 100.0),
                None => String::new(),
            };
            let exact = if m.def.exact { ", exact" } else { "" };
            let spread = if s.n > 1 {
                format!(
                    " [min {} q1 {} q3 {} max {}]",
                    short(s.min),
                    short(s.q1),
                    short(s.q3),
                    short(s.max)
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:<28} {:>14} {:<6} n={}{spread}  ({}, {} is better{bound}{exact}) {}\n",
                m.def.name,
                short(s.median),
                m.def.unit,
                s.n,
                m.def.clock.as_str(),
                m.def.better.as_str(),
                m.note
            ));
        }
        let unmeasured: Vec<&str> = self
            .expected()
            .iter()
            .filter(|d| !self.metrics.contains_key(d.name))
            .map(|d| d.name)
            .collect();
        if !unmeasured.is_empty() {
            out.push_str(&format!(
                "  not applicable to this workload, 0 in the result object: {}\n",
                unmeasured.join(" ")
            ));
        }
        if !self.traced {
            out.push_str(&format!(
                "  {:<28} {:>14} {:<6} ({} failed of {} attempted)\n",
                "failed_op_share",
                short(self.failed_op_share()),
                "ratio",
                self.failed,
                self.attempted
            ));
        }
        for (key, value) in &self.outputs {
            out.push_str(&format!("  output {key} = {value}\n"));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!("  check {verdict} {} — {}\n", c.name, c.detail));
        }
        out
    }

    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::from("{");
        for def in self.expected() {
            let value = match self.metrics.get(def.name) {
                Some(m) => m.summary.median,
                // The driver wants every per-layer metric from every
                // workload; an end-to-end metric is never made up.
                None if self.traced => 0.0,
                None => continue,
            };
            let mut one = String::from("{");
            field_f64(&mut one, "value", value);
            field_str(&mut one, "unit", def.unit);
            one.push('}');
            field_raw(&mut metrics, def.name, &one);
        }
        metrics.push('}');
        let mut out = String::from("{");
        field_bool(&mut out, "correct", self.correct());
        field_u64(&mut out, "attempted", self.attempted.max(1));
        field_u64(&mut out, "failed", self.failed);
        field_raw(&mut out, "metrics", &metrics);
        out.push('}');
        out
    }

    /// Everything, for `compare` and for the record.
    pub fn detail_json(&self) -> String {
        let mut metrics = String::from("{");
        for def in self.expected() {
            let Some(m) = self.metrics.get(def.name) else {
                continue;
            };
            let s = &m.summary;
            let mut one = String::from("{");
            field_f64(&mut one, "value", s.median);
            field_str(&mut one, "unit", def.unit);
            field_str(&mut one, "better", def.better.as_str());
            if let Some(bound) = def.bound {
                field_f64(&mut one, "bound", bound);
            }
            field_bool(&mut one, "exact", def.exact);
            field_str(&mut one, "clock", def.clock.as_str());
            field_u64(&mut one, "n", s.n as u64);
            field_f64(&mut one, "min", s.min);
            field_f64(&mut one, "q1", s.q1);
            field_f64(&mut one, "q3", s.q3);
            field_f64(&mut one, "max", s.max);
            field_str(&mut one, "note", &m.note);
            one.push('}');
            field_raw(&mut metrics, def.name, &one);
        }
        metrics.push('}');
        let mut outputs = String::from("{");
        for (key, value) in &self.outputs {
            field_str(&mut outputs, key, value);
        }
        outputs.push('}');
        let mut checks = String::from("[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                checks.push(',');
            }
            let mut one = String::from("{");
            field_str(&mut one, "name", &c.name);
            field_bool(&mut one, "ok", c.ok);
            field_str(&mut one, "detail", &c.detail);
            one.push('}');
            checks.push_str(&one);
        }
        checks.push(']');
        let mut out = String::from("{");
        field_str(&mut out, "workload", self.workload);
        field_u64(&mut out, "seed", self.seed);
        field_bool(&mut out, "traced", self.traced);
        field_bool(&mut out, "correct", self.correct());
        field_u64(&mut out, "attempted", self.attempted);
        field_u64(&mut out, "failed", self.failed);
        field_f64(&mut out, "failed_op_share", self.failed_op_share());
        field_raw(&mut out, "outputs", &outputs);
        field_raw(&mut out, "checks", &checks);
        field_raw(&mut out, "metrics", &metrics);
        out.push('}');
        out
    }
}

/// Six significant digits for the human-readable lines (the JSON keeps
/// every digit).
pub fn short(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    if (-4..9).contains(&magnitude) {
        let decimals = (5 - magnitude).clamp(0, 9) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_obs::json::{parse, JsonValue};

    fn filled(traced: bool) -> Outcome {
        let mut o = Outcome::new("replay_read", 3, traced);
        o.attempted = 10;
        if traced {
            o.value("workload.records", 10.0, "");
        } else {
            for d in &catalog::END_TO_END {
                o.set(d.name, Summary::of(&[1.0, 2.0, 4.0]), "timed passes");
            }
        }
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        for traced in [false, true] {
            let o = filled(traced);
            assert!(o.correct());
            let JsonValue::Obj(fields) = parse(&o.result_line()).unwrap() else {
                panic!("not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let JsonValue::Obj(metrics) = &fields[3].1 else {
                panic!("metrics is not an object");
            };
            let expected: Vec<&str> = o.expected().iter().map(|d| d.name).collect();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, expected);
            for (name, m) in metrics {
                let JsonValue::Obj(inner) = m else {
                    panic!("{name} is not an object");
                };
                let keys: Vec<&str> = inner.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["value", "unit"], "{name}");
            }
        }
    }

    #[test]
    fn a_failed_check_or_op_or_missing_metric_is_incorrect() {
        let mut o = filled(false);
        o.check("digest", false, "differs");
        assert!(!o.correct());
        assert_eq!(o.failed_op_share(), 1.0);
        let mut o = filled(false);
        o.failed = 1;
        assert!(!o.correct());
        assert_eq!(o.failed_op_share(), 0.1);
        let mut o = filled(false);
        o.metrics.remove("setup_s");
        assert!(!o.correct());
        // End-to-end metrics are never defaulted.
        assert!(!o.result_line().contains("setup_s"));
    }

    #[test]
    fn detail_json_round_trips_the_summary() {
        let o = filled(false);
        let doc = parse(&o.detail_json()).unwrap();
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("host_ops_per_s"))
            .unwrap();
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(m.get("n").and_then(JsonValue::as_u64), Some(3));
        let bound = catalog::END_TO_END
            .iter()
            .find(|d| d.name == "host_ops_per_s");
        assert_eq!(
            m.get("bound").and_then(JsonValue::as_f64),
            bound.and_then(|d| d.bound)
        );
        assert!(o.render_human().contains("failed_op_share"));
    }

    #[test]
    fn short_keeps_six_digits() {
        assert_eq!(short(752135.4), "752135");
        assert_eq!(short(6.6789123), "6.67891");
        assert_eq!(short(0.114712), "0.114712");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(20762.0), "20762");
        assert_eq!(short(1.5e12), "1500000000000");
        assert_eq!(short(1.5e-7), "1.50000e-7");
    }

    #[test]
    #[should_panic(expected = "not a metric of this run")]
    fn per_layer_names_are_refused_in_an_untraced_run() {
        Outcome::new("replay_read", 0, false).value("cluster.run_s", 1.0, "");
    }
}
