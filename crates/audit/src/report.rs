//! Findings, suppression bookkeeping, and the two output renderings
//! (human text, machine JSON). Both renderings are deterministic:
//! findings sort by (path, line, rule, message) and JSON keys are
//! emitted in sorted order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rule violation at a source location.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// A finding that an `edm-audit: allow` pragma silenced, kept for the
/// JSON summary so suppression volume is visible per rule and crate.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub finding: Finding,
    pub reason: String,
}

/// The result of an audit run.
#[derive(Debug, Default)]
pub struct AuditOutcome {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    pub files_scanned: usize,
}

impl AuditOutcome {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    pub fn sort(&mut self) {
        let key = |f: &Finding| (f.path.clone(), f.line, f.rule, f.message.clone());
        self.findings.sort_by_key(key);
        self.suppressed.sort_by_key(|s| key(&s.finding));
    }

    /// The human report: one `path:line: [rule] message` per finding,
    /// path-sorted, plus a one-line summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "edm-audit: {} finding{} ({} suppressed) in {} files",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            self.suppressed.len(),
            self.files_scanned,
        );
        out
    }

    /// The `--fix-report` machine summary: per-rule, per-crate counts of
    /// open and suppressed findings, plus the open findings themselves.
    pub fn render_json(&self) -> String {
        // rule -> crate -> (open, suppressed)
        let mut counts: BTreeMap<&str, BTreeMap<String, (u64, u64)>> = BTreeMap::new();
        for f in &self.findings {
            counts
                .entry(f.rule)
                .or_default()
                .entry(crate_of(&f.path))
                .or_default()
                .0 += 1;
        }
        for s in &self.suppressed {
            counts
                .entry(s.finding.rule)
                .or_default()
                .entry(crate_of(&s.finding.path))
                .or_default()
                .1 += 1;
        }
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"open\": {},", self.findings.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed.len());
        out.push_str("  \"rules\": {\n");
        let nrules = counts.len();
        for (ri, (rule, per_crate)) in counts.iter().enumerate() {
            let _ = write!(out, "    {}: {{", json_str(rule));
            let ncrates = per_crate.len();
            for (ci, (krate, (open, supp))) in per_crate.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}: {{\"open\": {open}, \"suppressed\": {supp}}}{}",
                    json_str(krate),
                    if ci + 1 < ncrates { ", " } else { "" }
                );
            }
            let _ = writeln!(out, "}}{}", if ri + 1 < nrules { "," } else { "" });
        }
        out.push_str("  },\n");
        out.push_str("  \"findings\": [\n");
        let n = self.findings.len();
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}}}{}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                if i + 1 < n { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Crate a workspace-relative path belongs to (`crates/<name>/…`);
/// top-level `tests/` and `examples/` roll up under "harness", which is
/// the crate that compiles them.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("<root>").to_string(),
        Some("tests") | Some("examples") => "harness".to_string(),
        _ => "<root>".to_string(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
