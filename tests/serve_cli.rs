//! The `edm-serve` command line refuses a `--checkpoint-every` that is
//! not a finite, non-negative number of seconds before it binds a port.

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
