//! Replays every checked-in corpus scenario through the full
//! differential-oracle battery under `cargo test`, so a regression that
//! breaks a previously-found (or hand-picked) scenario fails the gate —
//! not just the nightly fuzz job. The corpus is the only list of
//! hand-picked scenarios, so this test also asserts what it covers: every
//! file crosses a wear tick, and together they journal the planning,
//! assessment and failure transitions and a component-tagged run.

use std::collections::BTreeSet;
use std::path::PathBuf;

use edm_fuzz::check_scenario;
use edm_scenario::Scenario;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

#[test]
fn corpus_scenarios_pass_all_oracles() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("scn"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 9,
        "fuzz/corpus must hold at least 9 seed scenarios, found {}",
        files.len()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory; its location never reaches simulation state"
    )]
    let work = std::env::temp_dir().join(format!("edm-fuzz-replay-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();
    let mut kinds = BTreeSet::new();
    let mut max_components = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let scenario = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let stats = check_scenario(&scenario, &work)
            .unwrap_or_else(|failure| panic!("{} fails its oracles: {failure}", path.display()));
        assert!(
            stats.journal_events > 0 && stats.checkpoints > 0,
            "{} must journal events and cross a wear tick: {} events, {} checkpoints",
            path.display(),
            stats.journal_events,
            stats.checkpoints
        );
        kinds.extend(stats.kind_counts.into_keys());
        max_components = max_components.max(stats.components);
    }
    std::fs::remove_dir_all(&work).ok();
    for kind in [
        "run_meta",
        "block_erase",
        "trigger_eval",
        "plan_chosen",
        "plan_assessment",
        "device_failed",
    ] {
        assert!(kinds.contains(kind), "no corpus journal exercises {kind}");
    }
    assert!(
        max_components >= 2,
        "no corpus journal carries two component tags, most was {max_components}"
    );
}

#[test]
fn corpus_scenarios_round_trip_through_scenario_text() {
    for path in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = path.unwrap().path();
        if path.extension().and_then(|x| x.to_str()) != Some("scn") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let scenario = Scenario::parse(&text).unwrap();
        let reparsed = Scenario::parse(&scenario.to_text()).unwrap();
        assert_eq!(
            scenario,
            reparsed,
            "{} drifts through to_text",
            path.display()
        );
    }
}
