//! `edm-exp` — regenerate the paper's tables and figures.
//!
//! ```text
//! edm-exp <experiment> [--scale F] [--osds N[,N...]] [--full] [--jobs N]
//!
//! experiments: table1 fig1 fig3 fig5 fig6 fig7 fig8 reliability failure
//!              wearout ablate-sigma ablate-lambda ablate-groups
//!              ablate-continuous ablate-decay ablate-gc model-diff all
//! --scale F    trace scale factor in (0,1]; default 0.05
//! --full       shorthand for --scale 1.0 (the paper's full Table 1 counts)
//! --osds N     cluster sizes (default: paper's 16,20 where applicable)
//! --jobs N     worker threads for matrix sweeps (default: available
//!              cores)
//! ```
//!
//! Every experiment is a list of `runner::Run`s (Fig. 3: of device
//! measurements) on the runner's one pool, plus a renderer; one
//! invocation simulates a Fig. 5–8 cell once and measures Fig. 3's points
//! once, whichever experiments read them. Exit status: 0; 1 when a run
//! cannot be built (`edm-exp: <id>: <why>` on stderr) or the model-diff
//! gate fails; 2 for unparseable arguments.

use std::path::Path;

use edm_harness::experiments::{
    ablate, failure, fig1, fig3, fig56, fig7, fig8, model_diff, reliability, table1, wearout,
    EXPERIMENT_IDS,
};
use edm_harness::runner::RunConfig;

fn usage() -> ! {
    eprintln!(
        "usage: edm-exp <experiment> [--scale F] [--osds N[,N...]] [--full] [--jobs N]\n\
         experiments: {} all",
        EXPERIMENT_IDS.join(" ")
    );
    std::process::exit(2);
}

struct Args {
    experiment: String,
    cfg: RunConfig,
    osds: Vec<u32>,
}

fn parse_args() -> Args {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the tool's configuration, not simulation input"
    )]
    let mut args = std::env::args().skip(1);
    let Some(experiment) = args.next() else {
        usage();
    };
    let mut cfg = RunConfig {
        scale: 0.05,
        jobs: None,
    };
    let mut osds: Vec<u32> = vec![16, 20];
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_else(|| usage());
                cfg.scale = v.parse().unwrap_or_else(|_| usage());
                if !(cfg.scale > 0.0 && cfg.scale <= 1.0) {
                    usage();
                }
            }
            "--full" => cfg.scale = 1.0,
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => cfg.jobs = Some(n),
                    _ => usage(),
                }
            }
            "--osds" => {
                let v = args.next().unwrap_or_else(|| usage());
                osds = v
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if osds.is_empty() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    Args {
        experiment,
        cfg,
        osds,
    }
}

/// Runs the model-vs-simulator differential gate: renders the corpus
/// comparison and reports whether every scenario stayed within the
/// committed tolerances. Both inputs are found from the source tree the
/// binary was built from, so the gate runs from any directory.
fn run_model_diff() -> bool {
    let repo = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let tolerances = match model_diff::Tolerances::load(&repo.join("scripts/model_tolerances.json"))
    {
        Ok(t) => t,
        Err(e) => {
            eprintln!("model-diff: {e}");
            return false;
        }
    };
    let result = match model_diff::run(&repo.join("fuzz/corpus"), tolerances) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("model-diff: {e}");
            return false;
        }
    };
    println!("{}", model_diff::render(&result));
    result.passed()
}

/// What one invocation has simulated or measured so far and a later
/// experiment reads again: Figs. 5–8 render from one matrix, simulating
/// only the cells an earlier figure has not; `ablate-sigma` fits the
/// home02 points Fig. 3 measured.
#[derive(Default)]
struct Held {
    matrix: fig56::Matrix,
    fig3: Option<Vec<fig3::Series>>,
}

/// Runs one experiment and prints its section. `Ok(false)` is a gate
/// that ran and failed (model-diff); `Err` a run that cannot be built.
fn run_one(id: &str, cfg: &RunConfig, osds: &[u32], held: &mut Held) -> Result<bool, String> {
    let traces = &edm_workload::harvard::TRACE_NAMES;
    let section = match id {
        "table1" => table1::render(&table1::run(cfg.scale)),
        "fig1" => fig1::render(&fig1::run(cfg, osds[0].min(8))?),
        "fig3" => {
            let grid = fig3::default_grid();
            let series = held
                .fig3
                .insert(fig3::run(cfg, &fig3::FIG3_WORKLOADS, &grid)?);
            fig3::render(series)
        }
        "fig5" | "fig6" => {
            held.matrix.ensure(cfg, &fig56::cells(osds, traces))?;
            if id == "fig5" {
                fig56::render_fig5(&held.matrix, osds, traces)
            } else {
                fig56::render_fig6(&held.matrix, osds, traces)
            }
        }
        "fig7" => {
            held.matrix.ensure(cfg, &fig7::cells(osds[0]))?;
            fig7::render(&held.matrix, osds[0])
        }
        "fig8" => {
            held.matrix.ensure(cfg, &fig8::cells(osds[0], traces))?;
            fig8::render(&held.matrix, osds[0], traces)
        }
        "failure" => failure::render(&failure::run(cfg, osds[0], "home02")?),
        // Cap the cluster so `all` stays quick.
        "wearout" => wearout::render(&wearout::run(cfg, osds[0].min(8), "home02")?),
        "reliability" => {
            // An OSD count not divisible by the group count gives uneven
            // groups (the SIII.D design); 18 -> groups of 5,5,4,4.
            let n = osds.iter().copied().find(|n| n % 4 != 0).unwrap_or(18);
            reliability::render(&reliability::run(cfg, n, "lair62")?)
        }
        "ablate-sigma" => {
            let sigmas: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
            ablate::render_sigma(&ablate::sigma_sweep(cfg, &sigmas, held.fig3.as_deref())?)
        }
        "ablate-lambda" => {
            let lambdas = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
            ablate::render_lambda(&ablate::lambda_sweep(cfg, osds[0], &lambdas)?)
        }
        "ablate-gc" => ablate::render_gc_policy(&ablate::gc_policy_sweep(cfg, osds[0])?),
        "ablate-decay" => ablate::render_decay(&ablate::decay_sweep(cfg, osds[0])?),
        "ablate-continuous" => ablate::render_continuous(&ablate::continuous_sweep(cfg, osds[0])?),
        "ablate-groups" => ablate::render_groups(&ablate::group_sweep(cfg, osds[0], &[2, 4, 8])?),
        "model-diff" => return Ok(run_model_diff()),
        other => {
            eprintln!("unknown experiment {other:?}");
            usage();
        }
    };
    println!("{section}");
    Ok(true)
}

fn main() {
    let args = parse_args();
    let ids: &[&str] = if args.experiment == "all" {
        &EXPERIMENT_IDS
    } else {
        &[args.experiment.as_str()]
    };
    let mut ok = true;
    let mut held = Held::default();
    for id in ids {
        if ids.len() > 1 {
            eprintln!("== {id} ==");
        }
        ok &= run_one(id, &args.cfg, &args.osds, &mut held).unwrap_or_else(|why| {
            eprintln!("edm-exp: {id}: {why}");
            false
        });
    }
    eprintln!("(scale {:.3})", args.cfg.scale);
    if !ok {
        std::process::exit(1);
    }
}
