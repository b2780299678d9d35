//! Command line of `edm-benchmark` (what `benchmark/run.sh` execs).
//!
//! ```text
//! edm-benchmark --workload W --seed N --seconds S --trace 0|1   one run; the last line of
//!                                                               stdout is the result object
//! edm-benchmark [--seed N] [--seconds S]                        every workload, each in a child
//!                                                               process, untraced then traced
//! edm-benchmark compare A.json B.json                           two result sets under the bounds
//! edm-benchmark manifest                                        BENCHMARK.json, from the catalogue
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::catalog::{self, RUN_SECONDS, WORKLOADS};
use crate::compare;
use crate::workloads::{self, Args};

struct Options {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let known = catalog::workload(v).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {v:?} (one of {})", names.join(", "))
                })?;
                options.workload = Some(known.name);
            }
            "--seed" => {
                let v = value()?;
                options.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                options.seconds = v.parse().map_err(|_| bad(v))?;
                if options.seconds.is_nan() || options.seconds < 0.0 {
                    return Err(bad(v));
                }
            }
            "--trace" => {
                let v = value()?;
                options.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--out-dir" => options.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

pub fn main(argv: Vec<String>) -> ExitCode {
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("usage: edm-benchmark compare A.json B.json".to_string()),
        },
        Some("manifest") => {
            print!("{}", catalog::manifest_json());
            Ok(true)
        }
        _ => parse_options(&argv).and_then(|options| match options.workload {
            Some(workload) => one(workload, &options),
            None => all(&options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("edm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn detail_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "e2e" };
    out_dir.join(format!("detail-{workload}-{kind}.json"))
}

/// One workload, once: prints every metric, writes the detail file, and
/// ends standard output with the result object.
fn one(workload: &'static str, options: &Options) -> Result<bool, String> {
    let args = Args {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        traced: options.traced,
        out_dir: options.out_dir.clone(),
        scale: None,
    };
    let outcome = workloads::run(&args)?;
    let detail = detail_path(&args.out_dir, workload, args.traced);
    std::fs::write(&detail, outcome.detail_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", detail.display()))?;
    print!("{}", outcome.render_human());
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

/// Every workload in a child process of its own (so peak RSS is per
/// workload), first untraced for the end-to-end metrics, then traced for
/// the per-layer metrics; gathers the detail files into one result set.
fn all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut runs = Vec::new();
    let mut ok = true;
    for workload in &WORKLOADS {
        for traced in [false, true] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&options.out_dir);
            let detail = detail_path(&options.out_dir, workload.name, traced);
            let _ = std::fs::remove_file(&detail);
            let status = child
                .status()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            ok &= status.success();
            match std::fs::read_to_string(&detail) {
                Ok(text) => runs.push(text.trim_end().to_string()),
                Err(_) => eprintln!("edm-benchmark: {} left no detail file", workload.name),
            }
        }
    }
    let results = options
        .out_dir
        .join(format!("results-seed{}.json", options.seed));
    let body = format!(
        "{{\"seed\":{},\"seconds\":{},\"nproc\":{},\"runs\":[\n{}\n]}}\n",
        options.seed,
        options.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        runs.join(",\n")
    );
    std::fs::write(&results, body).map_err(|e| format!("writing {}: {e}", results.display()))?;
    println!(
        "\n{} — {} runs gathered in {}",
        if ok {
            "every output check passed"
        } else {
            "FAILED: see the checks above"
        },
        runs.len(),
        results.display()
    );
    Ok(ok && runs.len() == 2 * WORKLOADS.len())
}
