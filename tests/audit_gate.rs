//! The audit gate as a cargo test: `cargo test` alone — without
//! scripts/check.sh — fails if anyone introduces an unsuppressed
//! determinism/panic-hygiene finding, so the auditor cannot silently
//! rot out of the workflow.

use edm_audit::{audit_workspace, find_workspace_root};

fn workspace_root() -> std::path::PathBuf {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(here).expect("workspace root above crates/harness")
}

#[test]
fn workspace_scans_clean() {
    let outcome = audit_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        outcome.files_scanned > 100,
        "suspiciously few files scanned ({}): wrong root?",
        outcome.files_scanned
    );
    assert!(
        outcome.is_clean(),
        "unsuppressed edm-audit findings:\n{}",
        outcome.render_text()
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let outcome = audit_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        !outcome.suppressed.is_empty(),
        "the workspace is known to carry suppressions; zero means the \
         pragma matcher broke"
    );
    for s in &outcome.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "empty suppression reason at {}:{}",
            s.finding.path,
            s.finding.line
        );
    }
}

#[test]
fn report_is_deterministic_across_scans() {
    let a = audit_workspace(&workspace_root()).expect("scan a");
    let b = audit_workspace(&workspace_root()).expect("scan b");
    assert_eq!(a.render_json(), b.render_json());
}
