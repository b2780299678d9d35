//! The `edm-serve` command line refuses, before it binds a port, a
//! `--checkpoint-every` that is not a finite, non-negative number of
//! seconds or that has no `--checkpoint-dir` to write to.

use std::process::Command;

#[test]
fn checkpoint_every_refuses_negative_nan_and_infinite_seconds() {
    for secs in ["-1", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
            .args(["unused.scn", "--checkpoint-every", secs])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{secs}: {stderr}");
        assert!(stderr.contains("--checkpoint-every"), "{secs}: {stderr}");
    }
}

#[test]
fn checkpoint_every_without_a_directory_is_refused() {
    let port_file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-cli.port");
    let _ = std::fs::remove_file(&port_file);
    let out = Command::new(env!("CARGO_BIN_EXE_edm-serve"))
        .args(["unused.scn", "--checkpoint-every", "1", "--port-file"])
        .arg(&port_file)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--checkpoint-dir"), "{stderr}");
    assert!(!port_file.exists(), "bound a port before refusing");
}
