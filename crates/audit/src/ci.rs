//! `ci.workflow_gate`: the CI workflow and `scripts/check.sh` must not
//! drift apart.
//!
//! `check.sh` declares its composable steps in a machine-readable
//! `STEPS="..."` line; this rule asserts the GitHub workflow invokes
//! every one of them — either individually (`check.sh <step>`, one CI
//! stage per gate step) or via the `check.sh all` umbrella. A gate step
//! that CI silently stops running is exactly the kind of rot this
//! workspace's audit exists to catch.

use crate::report::Finding;

/// Workspace-relative path of the gate script.
pub const CHECK_SH_PATH: &str = "scripts/check.sh";
/// Workspace-relative path of the CI workflow.
pub const WORKFLOW_PATH: &str = ".github/workflows/ci.yml";

/// Extracts the step list from the gate script's `STEPS="..."`
/// declaration (first match wins).
pub fn parse_steps(check_sh: &str) -> Option<Vec<String>> {
    for line in check_sh.lines() {
        if let Some(rest) = line.trim().strip_prefix("STEPS=\"") {
            if let Some(end) = rest.find('"') {
                return Some(
                    rest.get(..end)
                        .unwrap_or("")
                        .split_whitespace()
                        .map(str::to_string)
                        .collect(),
                );
            }
        }
    }
    None
}

/// True when `line` runs `check.sh` with `step` as its own shell word
/// (`./scripts/check.sh lint`, `bash scripts/check.sh all`, ...).
fn invokes(line: &str, step: &str) -> bool {
    let words: Vec<&str> = line.split_whitespace().collect();
    words
        .windows(2)
        .any(|w| matches!(w, [cmd, arg] if cmd.ends_with("check.sh") && *arg == step))
}

/// Checks gate/workflow agreement over the two files' contents (`None` =
/// file missing). Pure so the engine is unit-testable without a
/// filesystem.
pub fn check_workflow_gate(check_sh: Option<&str>, workflow: Option<&str>) -> Vec<Finding> {
    let finding = |path: &str, message: String| Finding {
        rule: "ci.workflow_gate",
        path: path.to_string(),
        line: 1,
        message,
    };
    let Some(check) = check_sh else {
        return vec![finding(
            CHECK_SH_PATH,
            "scripts/check.sh is missing — the repo gate has no entry point".to_string(),
        )];
    };
    let Some(steps) = parse_steps(check) else {
        return vec![finding(
            CHECK_SH_PATH,
            "no STEPS=\"...\" declaration — ci.workflow_gate cannot verify the workflow"
                .to_string(),
        )];
    };
    if steps.is_empty() {
        return vec![finding(
            CHECK_SH_PATH,
            "STEPS=\"...\" declaration is empty — the gate runs nothing".to_string(),
        )];
    }
    let Some(wf) = workflow else {
        return vec![finding(
            WORKFLOW_PATH,
            format!(
                "CI workflow missing — nothing runs the {} gate steps on push",
                steps.len()
            ),
        )];
    };
    let via_all = wf.lines().any(|l| invokes(l, "all"));
    let mut out = Vec::new();
    for step in &steps {
        if !via_all && !wf.lines().any(|l| invokes(l, step)) {
            out.push(finding(
                WORKFLOW_PATH,
                format!(
                    "workflow never invokes `check.sh {step}` (and has no `check.sh all` \
                     umbrella) — gate and CI have drifted apart"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATE: &str = "#!/usr/bin/env bash\nSTEPS=\"fmt lint audit build test smoke fuzz\"\n";

    #[test]
    fn missing_files_are_findings() {
        let f = check_workflow_gate(None, None);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, CHECK_SH_PATH);
        let f = check_workflow_gate(Some(GATE), None);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, WORKFLOW_PATH);
    }

    #[test]
    fn per_step_invocations_satisfy_the_gate() {
        let wf = "jobs:\n  - run: ./scripts/check.sh fmt\n  - run: ./scripts/check.sh lint\n\
                  \n  - run: ./scripts/check.sh audit\n  - run: ./scripts/check.sh build\n\
                  \n  - run: ./scripts/check.sh test\n  - run: ./scripts/check.sh smoke\n\
                  \n  - run: ./scripts/check.sh fuzz\n";
        assert!(check_workflow_gate(Some(GATE), Some(wf)).is_empty());
    }

    #[test]
    fn the_all_umbrella_satisfies_every_step() {
        let wf = "  - run: bash scripts/check.sh all\n";
        assert!(check_workflow_gate(Some(GATE), Some(wf)).is_empty());
    }

    #[test]
    fn a_dropped_step_is_reported_by_name() {
        let wf = "  - run: ./scripts/check.sh fmt\n  - run: ./scripts/check.sh lint\n\
                  \n  - run: ./scripts/check.sh audit\n  - run: ./scripts/check.sh build\n\
                  \n  - run: ./scripts/check.sh test\n  - run: ./scripts/check.sh smoke\n";
        let f = check_workflow_gate(Some(GATE), Some(wf));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("check.sh fuzz"), "{}", f[0].message);
    }

    #[test]
    fn substring_matches_do_not_count() {
        // `check.sh fuzzier` must not satisfy the `fuzz` step.
        let gate = "STEPS=\"fuzz\"\n";
        let wf = "  - run: ./scripts/check.sh fuzzier\n";
        assert_eq!(check_workflow_gate(Some(gate), Some(wf)).len(), 1);
        // ...and a mention without check.sh does not count either.
        assert_eq!(
            check_workflow_gate(Some(gate), Some("echo fuzz\n")).len(),
            1
        );
    }

    #[test]
    fn steps_parse_from_the_declaration() {
        assert_eq!(
            parse_steps(GATE).as_deref(),
            Some(&["fmt", "lint", "audit", "build", "test", "smoke", "fuzz"].map(String::from)[..])
        );
        assert_eq!(parse_steps("no steps here\n"), None);
        assert_eq!(parse_steps("STEPS=\"\"\n").as_deref(), Some(&[][..]));
    }
}
