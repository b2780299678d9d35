//! What `scripts/check.sh lint` cannot say about itself (DESIGN.md §8):
//! how many `expect(clippy::…)` escapes each crate carries, that every
//! library root switches the lints on, and that CI runs every gate step.

use std::path::{Path, PathBuf};

const PANIC_LINTS: &str = "unwrap_used expect_used panic todo unimplemented unreachable";
const DET_LINTS: &str = "disallowed_methods disallowed_types iter_over_hash_type";

/// (crate, panic-family expects, determinism-family expects) under
/// `crates/<crate>/src`, test modules and bins included. Exact counts:
/// a new escape is a number raised here, in the same change, where
/// review sees it; a removed one is a number lowered.
const BUDGETS: &[(&str, usize, usize)] = &[
    ("cluster", 24, 5),
    ("core", 7, 0),
    ("fuzz", 0, 4),
    ("harness", 3, 7),
    ("model", 0, 0),
    ("obs", 1, 0),
    ("scenario", 0, 0),
    ("serve", 0, 9),
    ("snap", 0, 1),
    ("spec", 2, 0),
    ("ssd", 8, 0),
    ("workload", 3, 2),
];

const LIB_HEADER: &str = "#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
";

fn root(rel: &str) -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(rel)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Appends every `.rs` file under `dir` with all whitespace removed
/// (rustfmt breaks a long attribute over several lines).
fn squeezed_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            squeezed_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.extend(read(&path).chars().filter(|c| !c.is_whitespace()));
        }
    }
}

#[test]
fn expect_counts_match_the_frozen_tables() {
    let crates = std::fs::read_dir(root("crates")).unwrap().count();
    assert_eq!(crates, BUDGETS.len(), "every crate has a BUDGETS row");
    for &(krate, panic_budget, det_budget) in BUDGETS {
        let mut src = String::new();
        squeezed_sources(&root("crates").join(krate).join("src"), &mut src);
        let count = |lints: &str| -> usize {
            let hits = |l| src.matches(&format!("expect(clippy::{l},")).count();
            lints.split(' ').map(hits).sum()
        };
        assert_eq!(count(PANIC_LINTS), panic_budget, "{krate}: panic family");
        assert_eq!(count(DET_LINTS), det_budget, "{krate}: determinism family");
    }
}

#[test]
fn every_lib_root_forbids_unsafe_and_warns_on_the_shared_lints() {
    for &(krate, ..) in BUDGETS {
        let lib = read(&root("crates").join(krate).join("src/lib.rs"));
        assert!(
            lib.starts_with(LIB_HEADER),
            "{krate}: lib.rs must open with\n{LIB_HEADER}"
        );
    }
}

#[test]
fn ci_invokes_every_check_sh_step() {
    let check_sh = read(&root("scripts/check.sh"));
    let ci = read(&root(".github/workflows/ci.yml"));
    let steps = check_sh
        .lines()
        .find_map(|l| l.strip_prefix("STEPS=\"")?.strip_suffix('"'))
        .expect("check.sh declares STEPS=\"...\"");
    assert!(
        !steps.trim().is_empty(),
        "STEPS is empty: the gate runs nothing"
    );
    for step in steps.split_whitespace() {
        let invoked = |l: &str| l.trim_end().ends_with(&format!("check.sh {step}"));
        assert!(
            ci.lines().any(invoked),
            "ci.yml never runs `check.sh {step}`"
        );
    }
}
