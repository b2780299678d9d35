//! Repro emission and the regression corpus.
//!
//! Every fuzzer-found failure becomes a small `.scn` file under
//! `fuzz/corpus/`: a comment header (seed, oracle, one-line diagnosis)
//! followed by the *minimal* scenario text — only the keys that differ
//! from [`Scenario::default`], since the parser starts from the default.
//! `tests/fuzz_replay.rs` replays the whole directory under `cargo test`,
//! so once a repro is committed the bug stays fixed.

use std::path::{Path, PathBuf};

use edm_scenario::Scenario;

use crate::oracle::OracleFailure;

/// Renders only the keys that differ from the default scenario: the
/// lines of [`Scenario::to_text`] that the default's rendering lacks.
/// Every key line is unique and optional keys are written only off their
/// default, so parsing the result reproduces `s` exactly (asserted in
/// tests), because [`Scenario::parse`] starts from the same default.
pub fn minimal_text(s: &Scenario) -> String {
    let default = Scenario::default().to_text();
    let default_lines: Vec<&str> = default.lines().collect();
    s.to_text()
        .lines()
        .filter(|l| !default_lines.contains(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// First line of `detail`, bounded, so the repro header stays one line.
fn one_line(detail: &str) -> String {
    let line = detail.lines().next().unwrap_or("");
    let mut s: String = line.chars().take(160).collect();
    if s.len() < line.len() {
        s.push('…');
    }
    s
}

/// Writes a shrunk failure as a replayable repro under `dir` and returns
/// its path. The header is `#`-commented so the file feeds straight back
/// into `edm-fuzz --replay` (and `Scenario::parse`).
pub fn write_repro(
    dir: &Path,
    seed: u64,
    failure: &OracleFailure,
    shrunk: &Scenario,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("repro-{}-seed{seed}.scn", failure.oracle));
    let text = format!(
        "# edm-fuzz repro: oracle {} failed at seed {seed}\n# {}\n{}",
        failure.oracle,
        one_line(&failure.detail),
        minimal_text(shrunk)
    );
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_text_of_default_is_empty() {
        assert_eq!(minimal_text(&Scenario::default()), "");
    }

    #[test]
    fn minimal_text_round_trips() {
        let texts = [
            "",
            "scale 0.002\n",
            "trace lair62\nosds 8\npolicy CMT\nschedule every-tick\nlambda 0.2\n\
             force false\nclient_concurrency 16\nfail 100000 3 rebuild\nfail 200000 1\n",
            "groups 2\nobjects_per_file 2\n",
            "groups 4\nobjects_per_file 2\nstride 2\nshards 2\naffinity component\n",
        ];
        for t in texts {
            let s = Scenario::parse(t).expect("parse");
            let m = minimal_text(&s);
            let reparsed = Scenario::parse(&m).expect("reparse");
            assert_eq!(reparsed, s, "minimal text {m:?} of {t:?}");
        }
    }

    #[test]
    fn repro_file_replays_and_stays_small() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test scratch directory; its location never reaches simulation state"
        )]
        let dir = std::env::temp_dir().join(format!("edm-fuzz-corpus-{}", std::process::id()));
        let failure = OracleFailure {
            oracle: "policy_invariants",
            detail: "t=120us planned RSD worsens: 0.1 -> 0.2\nsecond line dropped".into(),
        };
        let shrunk = Scenario::parse("scale 0.001\npolicy EDM-CDF\n").expect("parse");
        let path = write_repro(&dir, 77, &failure, &shrunk).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.lines().count() <= 8, "repro must stay tiny:\n{text}");
        assert!(!text.contains("second line"));
        let replayed = Scenario::parse(&text).expect("repro must parse");
        assert_eq!(replayed, shrunk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
