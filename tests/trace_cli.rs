//! The `edm-trace` command line: `stats` profiles a synthesized preset
//! in memory, and an unknown preset or an out-of-range scale is a usage
//! error (exit 2).

use std::process::{Command, Output};

fn edm_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edm-trace"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn stats_profiles_a_synthesized_preset() {
    let out = edm_trace(&["stats", "random", "--scale", "0.002"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.starts_with("trace    random\n"), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("write gini ")),
        "{stdout}"
    );
}

#[test]
fn stats_refuses_an_unknown_preset_and_a_zero_scale() {
    for args in [
        &["stats", "nosuch"][..],
        &["stats", "home02", "--scale", "0"],
    ] {
        let out = edm_trace(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage:"), "{args:?}: {stderr}");
    }
}
