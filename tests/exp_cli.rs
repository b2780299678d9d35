//! `edm-exp` as a process: the model-diff gate reads the committed
//! corpus and tolerances from the source tree, not from the working
//! directory it is started in.

use std::path::Path;
use std::process::{Command, Output};

fn model_diff_in(dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_edm-exp"))
        .arg("model-diff")
        .current_dir(dir)
        .output()
        .expect("edm-exp runs")
}

#[test]
fn model_diff_runs_from_any_directory() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory; its location never reaches simulation state"
    )]
    let elsewhere = std::env::temp_dir().join(format!("edm-exp-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&elsewhere).unwrap();
    let from_root = model_diff_in(root);
    let from_elsewhere = model_diff_in(&elsewhere);
    std::fs::remove_dir_all(&elsewhere).unwrap();
    for out in [&from_root, &from_elsewhere] {
        assert!(
            out.status.success(),
            "{:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!from_root.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&from_elsewhere.stdout),
        String::from_utf8_lossy(&from_root.stdout)
    );
}
