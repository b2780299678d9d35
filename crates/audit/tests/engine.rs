//! End-to-end rule-engine tests over synthetic workspaces fed through
//! `audit_sources`: each determinism/panic/numeric rule fires
//! on a seeded violation with the right id, scoping exempts the right
//! file kinds, and the suppression pragma machinery (unknown rule,
//! unused pragma) behaves.

use edm_audit::{audit_sources, AuditOutcome};

fn audit(files: &[(&str, &str)]) -> AuditOutcome {
    audit_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    )
}

fn rules_of(outcome: &AuditOutcome) -> Vec<&str> {
    outcome.findings.iter().map(|f| f.rule).collect()
}

const LIB_OK: &str = "#![forbid(unsafe_code)]\npub fn ok() {}\n";

#[test]
fn hashmap_for_loop_in_sim_state_crate_fires() {
    let src = "\
#![forbid(unsafe_code)]
use std::collections::HashMap;
pub fn f() {
    let m: HashMap<u64, u64> = HashMap::new();
    for (k, v) in &m {
        let _ = (k, v);
    }
}
";
    let out = audit(&[("crates/cluster/src/lib.rs", src)]);
    assert_eq!(rules_of(&out), vec!["det.map_iter"], "{out:?}");
    assert_eq!(out.findings[0].line, 5);
}

#[test]
fn hashmap_values_iteration_fires_and_btreemap_does_not() {
    let hash = "\
#![forbid(unsafe_code)]
use std::collections::HashMap;
pub fn f(m: &HashMap<u64, u64>) -> Vec<u64> { m.values().copied().collect() }
";
    let btree = "\
#![forbid(unsafe_code)]
use std::collections::BTreeMap;
pub fn f(m: &BTreeMap<u64, u64>) -> Vec<u64> { m.values().copied().collect() }
";
    assert_eq!(
        rules_of(&audit(&[("crates/core/src/lib.rs", hash)])),
        vec!["det.map_iter"]
    );
    // edm-snap's fixed-hasher alias is still a hash map.
    let id_map = hash
        .replace("std::collections::HashMap", "edm_snap::IdMap")
        .replace("HashMap", "IdMap");
    assert_eq!(
        rules_of(&audit(&[("crates/core/src/lib.rs", &id_map)])),
        vec!["det.map_iter"]
    );
    assert!(audit(&[("crates/core/src/lib.rs", btree)]).is_clean());
}

#[test]
fn map_iter_is_scoped_to_sim_state_crates() {
    let src = "\
#![forbid(unsafe_code)]
use std::collections::HashMap;
pub fn f(m: &HashMap<u64, u64>) -> Vec<u64> { m.values().copied().collect() }
";
    // Same code in a non-sim-state crate (obs) passes.
    assert!(audit(&[("crates/obs/src/lib.rs", src)]).is_clean());
}

#[test]
fn wallclock_and_rng_fire_in_lib_but_not_harness_bin() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f() {
    let t = std::time::Instant::now();
    let r = rand::thread_rng();
    let _ = (t, r);
}
";
    let out = audit(&[("crates/ssd/src/clock.rs", src)]);
    assert_eq!(rules_of(&out), vec!["det.wallclock", "det.ambient_rng"]);

    let bin = "\
fn main() {
    let t = std::time::Instant::now();
    let _ = t;
}
";
    assert!(audit(&[("crates/harness/src/bin/edm-x.rs", bin)]).is_clean());
}

#[test]
fn thread_order_fires_on_spawn_and_aggregation_primitives() {
    let src = "\
#![forbid(unsafe_code)]
use std::sync::Mutex;
pub fn f() {
    let agg = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| agg.lock().unwrap().push(1u64));
    });
}
";
    let out = audit(&[("crates/cluster/src/par.rs", src)]);
    let rules = rules_of(&out);
    assert!(
        rules.iter().filter(|r| **r == "det.thread_order").count() >= 2,
        "Mutex and spawn must both fire: {out:?}"
    );
    // Same code outside the sim-state crates (harness lib) passes.
    assert!(!rules_of(&audit(&[("crates/harness/src/par.rs", src)])).contains(&"det.thread_order"));
}

#[test]
fn thread_order_pragma_documents_the_join_discipline() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f(slots: &mut [u64]) {
    std::thread::scope(|s| {
        for slot in slots.iter_mut() {
            // edm-audit: allow(det.thread_order, \"disjoint &mut slots read back in index order\")
            s.spawn(move || *slot += 1);
        }
    });
}
";
    assert!(
        audit(&[("crates/cluster/src/par.rs", src)]).is_clean(),
        "{:?}",
        audit(&[("crates/cluster/src/par.rs", src)])
    );
}

#[test]
fn thread_order_covers_the_serve_daemon_lib_and_bin() {
    let src = "\
#![forbid(unsafe_code)]
use std::sync::Mutex;
pub fn f() {
    let agg = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| agg.lock().unwrap().push(1u64));
    });
}
";
    for path in [
        "crates/serve/src/server.rs",
        "crates/serve/src/bin/edm-serve.rs",
    ] {
        let out = audit(&[(path, src)]);
        assert!(
            rules_of(&out).contains(&"det.thread_order"),
            "{path} must be in det.thread_order scope: {out:?}"
        );
    }
    // A pragma arguing scheduler-independence suppresses it there too.
    let suppressed = "\
#![forbid(unsafe_code)]
pub fn f() {
    // edm-audit: allow(det.thread_order, \"server thread shares only the control block\")
    std::thread::spawn(|| {});
}
";
    let out = audit(&[("crates/serve/src/server.rs", suppressed)]);
    assert!(out.is_clean(), "{out:?}");
}

#[test]
fn suppression_budget_fires_when_a_core_crate_grows_a_det_pragma() {
    // `ssd` has a frozen budget of zero: one reasoned (and otherwise
    // legitimate) det.* suppression is one too many.
    let src = "\
#![forbid(unsafe_code)]
pub fn f() -> Option<String> {
    // edm-audit: allow(det.env_read, \"plausible-sounding excuse\")
    std::env::var(\"SEED\").ok()
}
";
    let out = audit(&[("crates/ssd/src/lib.rs", src)]);
    let rules = rules_of(&out);
    assert!(
        rules.contains(&"det.suppression_budget"),
        "over-budget crate must fire: {out:?}"
    );
    // The same pragma in an unbudgeted tooling crate draws no finding.
    let out = audit(&[("crates/fuzz/src/lib.rs", src)]);
    assert!(
        !rules_of(&out).contains(&"det.suppression_budget"),
        "tooling crates are unbudgeted: {out:?}"
    );
    // The harness library is budgeted at its two sites: a third fires.
    let two = [
        ("crates/harness/src/a.rs", src),
        ("crates/harness/src/b.rs", src),
    ];
    assert!(!rules_of(&audit(&two)).contains(&"det.suppression_budget"));
    let three = [two[0], two[1], ("crates/harness/src/c.rs", src)];
    assert!(rules_of(&audit(&three)).contains(&"det.suppression_budget"));
}

#[test]
fn suppression_budget_accepts_a_crate_at_its_frozen_allowance() {
    // `workload` has a budget of one: a single suppressed det finding
    // is within allowance and the audit stays clean.
    let src = "\
#![forbid(unsafe_code)]
pub fn f() -> Option<String> {
    // edm-audit: allow(det.env_read, \"documented escape within budget\")
    std::env::var(\"SEED\").ok()
}
";
    let out = audit(&[("crates/workload/src/cfg.rs", src)]);
    assert!(out.is_clean(), "{out:?}");
}

#[test]
fn panic_budget_holds_cluster_to_its_frozen_pragma_count() {
    let budget_of = |krate: &str| {
        let row = edm_audit::PANIC_PRAGMA_BUDGETS
            .iter()
            .find(|(c, _)| *c == krate);
        row.unwrap_or_else(|| panic!("no row for {krate}")).1
    };
    let budget = budget_of("cluster");
    let with_pragmas = |n: usize| {
        let mut src = String::from("#![forbid(unsafe_code)]\n");
        for i in 0..n {
            src.push_str(&format!(
                "pub fn f{i}(o: Option<u64>) -> u64 {{\n    \
                 // edm-audit: allow(panic.unwrap, \"invariant {i}\")\n    o.unwrap()\n}}\n"
            ));
        }
        src
    };
    let at = audit(&[("crates/cluster/src/lib.rs", &with_pragmas(budget))]);
    assert!(at.is_clean(), "{at:?}");
    let over = audit(&[("crates/cluster/src/lib.rs", &with_pragmas(budget + 1))]);
    assert_eq!(
        rules_of(&over),
        vec!["panic.suppression_budget"],
        "{over:?}"
    );
    // Every crate has a row: one frozen at zero fires on its first pragma.
    assert_eq!(budget_of("serve"), 0);
    let first = audit(&[("crates/serve/src/lib.rs", &with_pragmas(1))]);
    assert_eq!(
        rules_of(&first),
        vec!["panic.suppression_budget"],
        "{first:?}"
    );
}

#[test]
fn env_read_fires_outside_the_harness() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f() -> Option<String> { std::env::var(\"SEED\").ok() }
";
    assert_eq!(
        rules_of(&audit(&[("crates/workload/src/cfg.rs", src)])),
        vec!["det.env_read"]
    );
}

#[test]
fn panic_rules_fire_in_lib_code_with_correct_ids() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f(v: &[u64], o: Option<u64>) -> u64 {
    let a = o.unwrap();
    let b = o.expect(\"set\");
    if a == 0 { panic!(\"boom\") }
    if b == 1 { unreachable!() }
    v[0]
}
";
    let out = audit(&[("crates/snap/src/x.rs", src)]);
    assert_eq!(
        rules_of(&out),
        vec![
            "panic.unwrap",
            "panic.expect",
            "panic.panic",
            "panic.unreachable",
            "panic.slice_index"
        ]
    );
}

#[test]
fn panic_rules_skip_tests_benches_and_cfg_test_modules() {
    let test_code = "pub fn f(o: Option<u64>) -> u64 { o.unwrap() }\n";
    assert!(audit(&[("crates/snap/tests/t.rs", test_code)]).is_clean());
    assert!(audit(&[("crates/bench/benches/b.rs", test_code)]).is_clean());

    let lib_with_test_mod = "\
#![forbid(unsafe_code)]
pub fn ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1u64).unwrap();
    }
}
";
    assert!(audit(&[("crates/snap/src/lib.rs", lib_with_test_mod)]).is_clean());
}

#[test]
fn numeric_rules_fire_only_in_wear_scoped_files() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f(x: u64, y: f64) -> bool {
    let small = x as u32;
    small as f64 + y == 1.0
}
";
    let out = audit(&[("crates/ssd/src/wear.rs", src)]);
    assert_eq!(rules_of(&out), vec!["num.lossy_cast", "num.float_eq"]);
    // The same code outside the numeric scope is not flagged.
    assert!(audit(&[("crates/ssd/src/queue.rs", src)]).is_clean());
}

#[test]
fn missing_forbid_unsafe_in_crate_root_fires() {
    let out = audit(&[("crates/core/src/lib.rs", "pub fn ok() {}\n")]);
    assert_eq!(rules_of(&out), vec!["unsafe.forbid_missing"]);
    assert!(audit(&[("crates/core/src/lib.rs", LIB_OK)]).is_clean());
}

#[test]
fn pragma_suppresses_exactly_its_rule_on_its_line() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f(o: Option<u64>) -> u64 {
    // edm-audit: allow(panic.unwrap, \"value set by constructor\")
    o.unwrap()
}
";
    let out = audit(&[("crates/obs/src/x.rs", src)]);
    assert!(out.is_clean(), "{out:?}");
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].finding.rule, "panic.unwrap");
    assert_eq!(out.suppressed[0].reason, "value set by constructor");
}

#[test]
fn pragma_for_the_wrong_rule_does_not_suppress() {
    let src = "\
#![forbid(unsafe_code)]
pub fn f(o: Option<u64>) -> u64 {
    // edm-audit: allow(panic.expect, \"wrong rule\")
    o.unwrap()
}
";
    let out = audit(&[("crates/obs/src/x.rs", src)]);
    let mut rules = rules_of(&out);
    rules.sort_unstable();
    // The unwrap stays open and the pragma reports as unused.
    assert_eq!(rules, vec!["panic.unwrap", "pragma.unused"]);
}

#[test]
fn unknown_rule_and_unused_pragma_are_findings() {
    let src = "\
#![forbid(unsafe_code)]
// edm-audit: allow(det.nonexistent, \"typo'd rule id\")
pub fn ok() {}
// edm-audit: allow(panic.unwrap, \"nothing here unwraps\")
pub fn also_ok() {}
";
    let out = audit(&[("crates/obs/src/x.rs", src)]);
    let mut rules = rules_of(&out);
    rules.sort_unstable();
    assert_eq!(rules, vec!["pragma.unknown_rule", "pragma.unused"]);
}

#[test]
fn report_is_sorted_and_renders_deterministically() {
    let bad = "\
#![forbid(unsafe_code)]
pub fn f(o: Option<u64>) -> u64 { o.unwrap() }
";
    // Feed files out of order; findings must come back path-sorted.
    let out = audit(&[
        ("crates/ssd/src/z.rs", bad),
        ("crates/cluster/src/a.rs", bad),
    ]);
    let paths: Vec<&str> = out.findings.iter().map(|f| f.path.as_str()).collect();
    let mut sorted = paths.clone();
    sorted.sort_unstable();
    assert_eq!(paths, sorted);

    let text = out.render_text();
    assert!(
        text.contains("crates/cluster/src/a.rs:2: [panic.unwrap]"),
        "{text}"
    );
    let json = out.render_json();
    assert!(json.contains("\"open\""), "{json}");
    // Rendering twice is byte-identical (no ambient state).
    assert_eq!(json, out.render_json());
}
