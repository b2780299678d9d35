#![forbid(unsafe_code)]
//! # edm-audit — workspace determinism & panic-hygiene static analyzer
//!
//! The repo's core contract is that every simulation run is
//! bit-identically replayable (checkpoint/restore, the determinism
//! digest). This crate turns that contract from a convention into an
//! enforced invariant: it tokenizes every `.rs` file in the workspace
//! with a small hand-rolled lexer and runs a rule engine over the token
//! stream, flagging the classic determinism killers (hash-map
//! iteration in simulation state, wall-clock reads, ambient RNG),
//! panic-hygiene violations, and lossy numeric patterns in wear
//! accounting.
//!
//! Findings are suppressible only via an inline pragma with a mandatory
//! reason:
//!
//! ```text
//! // edm-audit: allow(det.map_iter, "keys are sorted before use")
//! ```
//!
//! The binary prints a deterministic, path-sorted report and exits
//! nonzero on any unsuppressed finding; `--fix-report` emits a JSON
//! summary of rule counts per crate. Rule ids and rationale: DESIGN.md
//! §8. The `vendor/` stand-ins are deliberately out of scope — they
//! model *external* crates.

pub mod ci;
mod lexer;
mod pragma;
mod report;
mod rules;
mod source;

pub use ci::check_workflow_gate;
pub use lexer::{lex, TokKind, Token};
pub use pragma::{parse_pragmas, Pragma, PragmaError};
pub use report::{AuditOutcome, Finding, Suppressed};
pub use rules::{rule_exists, PANIC_PRAGMA_BUDGETS, RULES};
pub use source::{FileKind, SourceFile};

use std::path::{Path, PathBuf};

/// Audits a set of already-loaded files (workspace-relative path,
/// source). Pure: the unit under test for the whole engine.
pub fn audit_sources(files: Vec<(String, String)>) -> AuditOutcome {
    let mut files: Vec<SourceFile> = files
        .into_iter()
        .map(|(rel, src)| SourceFile::new(rel, src))
        .collect();
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    let mut raw: Vec<Finding> = Vec::new();
    for f in &files {
        rules::check_file(f, &mut raw);
        rules::check_forbid_unsafe(f, &mut raw);
    }
    // Workspace-level: every crate must stay inside its frozen det.* and
    // panic.* pragma budgets (needs every crate's pragmas at once).
    rules::check_suppression_budget(&files, &mut raw);

    // Suppression: a pragma silences findings of its rule on its target
    // line. Pragma problems are findings themselves and cannot be
    // suppressed.
    let mut outcome = AuditOutcome {
        files_scanned: files.len(),
        ..AuditOutcome::default()
    };
    for f in &files {
        for e in &f.pragma_errors {
            outcome.findings.push(Finding {
                rule: "pragma.malformed",
                path: f.rel_path.clone(),
                line: e.line,
                message: e.detail.clone(),
            });
        }
        for p in &f.pragmas {
            if !rule_exists(&p.rule) {
                outcome.findings.push(Finding {
                    rule: "pragma.unknown_rule",
                    path: f.rel_path.clone(),
                    line: p.line,
                    message: format!("no rule named `{}` (see edm-audit --list-rules)", p.rule),
                });
            }
        }
    }
    let mut pragma_hits = vec![0usize; files.iter().map(|f| f.pragmas.len()).sum()];
    let mut pragma_index = Vec::new(); // (path, &pragma, global idx)
    {
        let mut g = 0;
        for f in &files {
            for p in &f.pragmas {
                pragma_index.push((f.rel_path.clone(), p.clone(), g));
                g += 1;
            }
        }
    }
    for finding in raw {
        let hit = pragma_index.iter().find(|(path, p, _)| {
            *path == finding.path
                && p.rule == finding.rule
                && p.target_line == finding.line
                && rule_exists(&p.rule)
        });
        match hit {
            Some((_, p, g)) => {
                pragma_hits[*g] += 1;
                outcome.suppressed.push(Suppressed {
                    finding,
                    reason: p.reason.clone(),
                });
            }
            None => outcome.findings.push(finding),
        }
    }
    for (path, p, g) in &pragma_index {
        if pragma_hits[*g] == 0 && rule_exists(&p.rule) {
            outcome.findings.push(Finding {
                rule: "pragma.unused",
                path: path.clone(),
                line: p.line,
                message: format!(
                    "pragma allows `{}` but suppressed nothing on line {}",
                    p.rule, p.target_line
                ),
            });
        }
    }
    outcome.sort();
    outcome
}

/// Audits the workspace rooted at `root`: every `.rs` file under
/// `crates/`, `tests/`, and `examples/` (the `vendor/` stand-ins model
/// external crates and are out of scope; `target/` is build output).
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditOutcome> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let loaded = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            std::fs::read_to_string(&p).map(|src| (rel, src))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut outcome = audit_sources(loaded);
    // Non-.rs gate files: the CI workflow must invoke every check.sh
    // step (ci.workflow_gate). Not pragma-suppressible — there is no
    // Rust source line to hang a pragma on, and drift here should hurt.
    let check_sh = std::fs::read_to_string(root.join(ci::CHECK_SH_PATH)).ok();
    let workflow = std::fs::read_to_string(root.join(ci::WORKFLOW_PATH)).ok();
    outcome.findings.extend(ci::check_workflow_gate(
        check_sh.as_deref(),
        workflow.as_deref(),
    ));
    outcome.sort();
    Ok(outcome)
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — the scan root when none is given.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}
