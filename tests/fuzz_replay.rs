//! Replays every checked-in corpus scenario through the full
//! differential-oracle battery under `cargo test`, so a regression that
//! breaks a previously-found (or hand-picked) scenario fails the gate —
//! not just the nightly fuzz job. The corpus is the only list of
//! hand-picked scenarios, so this test also asserts what it covers: every
//! file crosses a wear tick, and together they journal the planning,
//! assessment and failure transitions and a component-tagged run. The
//! same texts, byte-mangled, check that the scenario parser refuses
//! garbage without panicking and that whatever it accepts round-trips.

use std::collections::BTreeSet;
use std::path::PathBuf;

use edm_fuzz::check_scenario;
use edm_scenario::Scenario;
use edm_spec::mutate::mangle;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

/// Every `.scn` file of the corpus, sorted.
fn corpus_files() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_scenarios_pass_all_oracles() {
    let files = corpus_files();
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
    for path in corpus_files() {
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

/// Scenario text under hostile bytes: each corpus file, mangled under a
/// few thousand seeds, parses to `Ok` or `Err` and never panics, and
/// every accepted text round-trips through `to_text` — the promise
/// checkpoints rely on. The parsed scenarios are never run.
#[test]
fn mangled_scenario_text_parses_or_errs_and_round_trips() {
    let (mut ok, mut err) = (0, 0);
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        for seed in 0..4_000 {
            let mangled = mangle(&text, seed);
            let Ok(s) = Scenario::parse(&mangled) else {
                err += 1;
                continue;
            };
            ok += 1;
            assert!(s.shards <= 64, "{mangled:?} asks for {} shards", s.shards);
            assert_eq!(
                Scenario::parse(&s.to_text()).as_ref(),
                Ok(&s),
                "{} seed {seed}: {mangled:?} drifts through to_text",
                path.display()
            );
        }
    }
    assert!(ok > 0 && err > 0, "{ok} accepted, {err} refused");
}
