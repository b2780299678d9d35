//! Greedy scenario shrinking.
//!
//! Given a scenario that fails an oracle, repeatedly try simpler variants
//! — halve the scale, drop a failure event, narrow the cluster, reset a
//! field to its default — and keep a variant only if it still fails the
//! *same* oracle (a different failure is a different bug; chasing it
//! would make the repro misleading). Runs to a fixpoint, so the emitted
//! repro is locally minimal: no single simplification can be applied to
//! it without losing the bug.

use edm_scenario::Scenario;

use crate::oracle::OracleFailure;

/// Widths tried when narrowing the cluster, widest first.
const OSD_STEPS: [u32; 5] = [16, 12, 8, 6, 4];
/// Upper bound on greedy passes; each pass either shrinks or stops, and
/// the candidate set is finite, so this is belt-and-braces only.
const MAX_PASSES: usize = 40;

/// Returns true when `s` still satisfies the placement constraint the
/// cluster enforces (`objects_per_file ≤ groups ≤ osds`).
fn valid(s: &Scenario) -> bool {
    s.objects_per_file <= s.groups
        && s.groups <= s.osds
        && s.failures.iter().all(|f| f.osd.0 < s.osds)
}

/// All one-step simplifications of `s`, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let d = Scenario::default();
    let mut out = Vec::new();
    let mut push = |c: Scenario| {
        if c != *s && valid(&c) {
            out.push(c);
        }
    };

    // Drop failure events one at a time (fewer events beats anything).
    for i in 0..s.failures.len() {
        let mut c = s.clone();
        c.failures.remove(i);
        push(c);
    }
    // Halve the workload.
    if s.scale > 0.001 {
        let mut c = s.clone();
        c.scale = (s.scale / 2.0).max(0.001);
        push(c);
    }
    // Narrow the cluster one step.
    if let Some(&next) = OSD_STEPS.iter().find(|&&w| w < s.osds) {
        let mut c = s.clone();
        c.osds = next;
        push(c);
    }
    // Reset each field to its default, one at a time, so the repro text
    // (which omits default-valued keys) keeps only what matters.
    let resets: [fn(&mut Scenario, &Scenario); 11] = [
        |c, d| c.trace = d.trace.clone(),
        |c, d| c.policy = d.policy.clone(),
        |c, d| c.schedule = d.schedule,
        |c, d| c.lambda = d.lambda,
        |c, d| c.force = d.force,
        |c, d| c.client_concurrency = d.client_concurrency,
        |c, d| c.groups = d.groups,
        |c, d| c.objects_per_file = d.objects_per_file,
        |c, d| c.shards = d.shards,
        |c, d| c.affinity = d.affinity,
        |c, d| c.stride = d.stride,
    ];
    for f in resets {
        let mut c = s.clone();
        f(&mut c, &d);
        push(c);
    }
    out
}

/// Shrinks `s`, which fails with `original`, to a locally minimal
/// scenario still failing the same oracle. `check` runs the oracle
/// battery (`None` = all green). Returns the shrunk scenario and its
/// (possibly re-worded) failure.
pub fn shrink(
    s: &Scenario,
    original: &OracleFailure,
    check: &mut dyn FnMut(&Scenario) -> Option<OracleFailure>,
) -> (Scenario, OracleFailure) {
    let mut best = s.clone();
    let mut best_failure = original.clone();
    for _ in 0..MAX_PASSES {
        let mut improved = false;
        for c in candidates(&best) {
            if let Some(f) = check(&c) {
                if f.oracle == best_failure.oracle {
                    best = c;
                    best_failure = f;
                    improved = true;
                    break; // restart the candidate scan from the new best
                }
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleFailure;

    fn boom() -> OracleFailure {
        OracleFailure {
            oracle: "policy_invariants",
            detail: "synthetic".into(),
        }
    }

    #[test]
    fn shrinks_to_default_when_everything_fails() {
        // An oracle that always fails shrinks all the way to the default
        // scenario at minimum scale — the fixpoint of the candidate set.
        let s = Scenario::parse(
            "trace lair62\nscale 0.003\nosds 16\ngroups 3\nobjects_per_file 3\n\
             policy CMT\nschedule every-tick\nlambda 0.4\nforce false\n\
             client_concurrency 4\nfail 100000 1 rebuild\nfail 200000 2\n",
        )
        .expect("parse");
        let (shrunk, f) = shrink(&s, &boom(), &mut |_| Some(boom()));
        assert_eq!(f.oracle, "policy_invariants");
        assert!(shrunk.failures.is_empty());
        assert_eq!(shrunk.scale, 0.001);
        assert_eq!(shrunk.osds, 4);
        assert_eq!(shrunk.policy, "EDM-HDF");
        assert_eq!(shrunk.client_concurrency, None);
    }

    #[test]
    fn keeps_the_part_that_matters() {
        // Failure only reproduces while the CMT policy is in play: the
        // shrinker must keep the policy but simplify the rest.
        let s = Scenario::parse(
            "trace lair62\nscale 0.003\nosds 16\npolicy CMT\nlambda 0.4\nfail 100000 1\n",
        )
        .expect("parse");
        let (shrunk, _) = shrink(&s, &boom(), &mut |c| (c.policy == "CMT").then(boom));
        assert_eq!(shrunk.policy, "CMT");
        assert!(shrunk.failures.is_empty());
        assert_eq!(shrunk.scale, 0.001);
        assert_eq!(shrunk.trace, "home02");
    }

    #[test]
    fn does_not_adopt_a_different_oracles_failure() {
        let other = OracleFailure {
            oracle: "ftl_equiv",
            detail: "different bug".into(),
        };
        let s = Scenario::parse("scale 0.002\nosds 8\n").expect("parse");
        // Every candidate fails, but with a different oracle: no shrink.
        let (shrunk, f) = shrink(&s, &boom(), &mut |_| Some(other.clone()));
        assert_eq!(shrunk, s);
        assert_eq!(f.oracle, "policy_invariants");
    }

    #[test]
    fn candidates_respect_placement_validity() {
        let s = Scenario::parse("osds 4\ngroups 4\nobjects_per_file 4\n").expect("parse");
        for c in candidates(&s) {
            assert!(valid(&c), "{c:?}");
        }
    }
}
