//! Replays every checked-in corpus scenario through the full
//! differential-oracle battery under `cargo test`, so a regression that
//! breaks a previously-found (or hand-picked) scenario fails the gate —
//! not just the nightly fuzz job.

use std::path::PathBuf;

use edm_fuzz::check_scenario;
use edm_harness::Scenario;

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
        files.len() >= 3,
        "fuzz/corpus must hold at least 3 seed scenarios, found {}",
        files.len()
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory; its location never reaches simulation state"
    )]
    let work = std::env::temp_dir().join(format!("edm-fuzz-replay-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let scenario = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        if let Err(failure) = check_scenario(&scenario, &work) {
            panic!("{} fails its oracles: {failure}", path.display());
        }
    }
    std::fs::remove_dir_all(&work).ok();
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
