//! edm-fuzz: deterministic scenario fuzzing for the EDM simulator.
//!
//! ```text
//! edm-fuzz --seed 1 --runs 50            # fixed number of scenarios
//! edm-fuzz --seed 1 --budget-secs 600    # nightly: fuzz until the budget
//! edm-fuzz --replay fuzz/corpus/x.scn    # re-run one repro's oracle battery
//! ```
//!
//! Fuzzing is a pure function of `--seed`: the scenario stream, the
//! oracle battery, and the shrinker contain no ambient randomness, so a
//! failure seen in CI replays locally from the same seed — or, better,
//! from the shrunk `.scn` the run leaves in `fuzz/corpus/`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use edm_fuzz::{check_scenario, generate, shrink, write_repro, OracleFailure, Rng};
use edm_scenario::Scenario;

struct Args {
    seed: u64,
    runs: Option<u64>,
    budget_secs: Option<u64>,
    replay: Option<PathBuf>,
    corpus_dir: PathBuf,
}

const USAGE: &str = "usage: edm-fuzz [--seed N] [--runs N] [--budget-secs N] \
                     [--replay FILE.scn] [--corpus-dir DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        runs: None,
        budget_secs: None,
        replay: None,
        corpus_dir: PathBuf::from("fuzz/corpus"),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the fuzzer's configuration, not simulation input"
    )]
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| {
            it.next()
                .ok_or_else(|| format!("missing value for {what}\n{USAGE}"))
        };
        match a.as_str() {
            "--seed" => {
                args.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?
            }
            "--runs" => {
                args.runs = Some(
                    val("--runs")?
                        .parse()
                        .map_err(|e| format!("bad runs: {e}"))?,
                )
            }
            "--budget-secs" => {
                args.budget_secs = Some(
                    val("--budget-secs")?
                        .parse()
                        .map_err(|e| format!("bad budget: {e}"))?,
                )
            }
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--corpus-dir" => args.corpus_dir = PathBuf::from(val("--corpus-dir")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

#[expect(
    clippy::disallowed_methods,
    reason = "scratch directory for scenario artifacts; its location never reaches simulation state"
)]
fn work_dir() -> PathBuf {
    std::env::temp_dir().join(format!("edm-fuzz-{}", std::process::id()))
}

/// Replays one `.scn` through the oracle battery. Exit 0 iff green.
fn replay(path: &Path) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("edm-fuzz: cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let scenario = match Scenario::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("edm-fuzz: {}: {e}", path.display());
            return 2;
        }
    };
    let dir = work_dir();
    let code = match check_scenario(&scenario, &dir) {
        Ok(stats) => {
            println!(
                "{}: all oracles green ({} journal events, {} checkpoints, \
                 {} migration rounds)",
                path.display(),
                stats.journal_events,
                stats.checkpoints,
                stats.migrations_triggered
            );
            0
        }
        Err(f) => {
            eprintln!("{}: FAILED {f}", path.display());
            1
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// One fuzz iteration: generate from the per-scenario seed, run the
/// battery, shrink + emit a repro on failure.
fn fuzz_one(
    scenario_seed: u64,
    dir: &Path,
    corpus_dir: &Path,
    totals: &mut Totals,
) -> Option<OracleFailure> {
    let scenario = generate(&mut Rng::new(scenario_seed));
    match check_scenario(&scenario, dir) {
        Ok(stats) => {
            totals.journal_events += stats.journal_events as u64;
            totals.checkpoints += stats.checkpoints as u64;
            totals.migration_rounds += stats.migrations_triggered;
            totals.injected_failures += stats.failed_osds as u64;
            None
        }
        Err(failure) => {
            eprintln!("seed {scenario_seed}: {failure}");
            eprintln!("  shrinking...");
            let (shrunk, final_failure) =
                shrink(&scenario, &failure, &mut |c| check_scenario(c, dir).err());
            match write_repro(corpus_dir, scenario_seed, &final_failure, &shrunk) {
                Ok(p) => eprintln!(
                    "  minimal repro written to {} — replay with: edm-fuzz --replay {}",
                    p.display(),
                    p.display()
                ),
                Err(e) => eprintln!("  could not write repro: {e}"),
            }
            Some(final_failure)
        }
    }
}

#[derive(Default)]
struct Totals {
    journal_events: u64,
    checkpoints: u64,
    migration_rounds: u64,
    injected_failures: u64,
}

fn fuzz(args: &Args) -> i32 {
    let dir = work_dir();
    let runs_limit = match (args.runs, args.budget_secs) {
        (Some(r), _) => r,
        (None, Some(_)) => u64::MAX,
        (None, None) => 100,
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock budget at the process boundary"
    )]
    let started = Instant::now();
    let mut master = Rng::new(args.seed);
    let mut totals = Totals::default();
    let mut failures = 0u64;
    let mut executed = 0u64;
    while executed < runs_limit {
        if let Some(budget) = args.budget_secs {
            let elapsed = started.elapsed().as_secs();
            if elapsed >= budget {
                break;
            }
        }
        let scenario_seed = master.next_u64();
        if fuzz_one(scenario_seed, &dir, &args.corpus_dir, &mut totals).is_some() {
            failures += 1;
        }
        executed += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    println!(
        "edm-fuzz: {executed} scenarios in {wall:.1}s ({:.2}/s), {failures} oracle failures",
        executed as f64 / wall.max(1e-9)
    );
    println!(
        "  coverage: {} journal events, {} checkpoints resumed-from pool, \
         {} migration rounds, {} injected device failures",
        totals.journal_events,
        totals.checkpoints,
        totals.migration_rounds,
        totals.injected_failures
    );
    let _ = std::fs::remove_dir_all(&dir);
    if failures > 0 {
        1
    } else {
        0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edm-fuzz: {e}");
            std::process::exit(2);
        }
    };
    // Engine panics are caught by the oracle battery and reported as
    // `engine_panic` failures; keep the default hook from dumping a
    // backtrace for every caught panic while shrinking.
    std::panic::set_hook(Box::new(|_| {}));
    let code = if let Some(path) = &args.replay {
        replay(path)
    } else {
        fuzz(&args)
    };
    std::process::exit(code);
}
