//! `edm-trace` — workload tooling: list the Table 1 presets, and profile
//! a synthesized preset's Table 1 counts and skew/locality.
//!
//! ```text
//! edm-trace stats <preset|random> [--scale F] [--seed N]
//! edm-trace list
//! ```

use edm_workload::analysis::profile;
use edm_workload::harvard;
use edm_workload::synth::synthesize;
use edm_workload::Trace;

fn usage() -> ! {
    eprintln!(
        "usage:\n  edm-trace stats <preset|random> [--scale F] [--seed N]\n  \
         edm-trace list"
    );
    std::process::exit(2);
}

/// Synthesizes `preset` from the `stats` arguments that follow it.
fn synth(preset: &str, flags: &[String]) -> Trace {
    let mut scale = 0.01;
    let mut seed: Option<u64> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }
    if !(scale > 0.0 && scale <= 1.0) {
        usage();
    }
    let mut spec = harvard::named(preset)
        .unwrap_or_else(|| usage())
        .scaled(scale);
    if let Some(seed) = seed {
        spec.seed = seed;
    }
    synthesize(&spec)
}

fn print_stats(trace: &Trace) {
    let s = trace.stats();
    println!("trace    {}", trace.name);
    println!("files    {}", s.file_cnt);
    println!(
        "writes   {} (avg {} B, total {:.1} MB)",
        s.write_cnt,
        s.avg_write_size,
        s.total_write_bytes as f64 / 1e6
    );
    println!(
        "reads    {} (avg {} B, total {:.1} MB)",
        s.read_cnt,
        s.avg_read_size,
        s.total_read_bytes as f64 / 1e6
    );
    println!("opens    {} / closes {}", s.open_cnt, s.close_cnt);
    println!("footprint {:.1} MB", trace.footprint_bytes() as f64 / 1e6);
    let p = profile(trace);
    println!("-- skew/locality profile --");
    println!("write gini              {:.3}", p.write_gini);
    println!("read gini               {:.3}", p.read_gini);
    println!("write top-decile share  {:.3}", p.write_top_decile_share);
    println!("read top-decile share   {:.3}", p.read_top_decile_share);
    println!("hot-set overlap         {:.3}", p.hot_set_overlap);
    println!("size-write correlation  {:.3}", p.size_write_correlation);
    println!("sequential fraction     {:.3}", p.sequential_fraction);
}

fn main() {
    #[expect(
        clippy::disallowed_methods,
        reason = "CLI entry point: arguments are the tool's configuration, not simulation input"
    )]
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("list") => {
            println!("presets: {} random", harvard::TRACE_NAMES.join(" "));
        }
        Some("stats") if args.len() >= 2 => print_stats(&synth(&args[1], &args[2..])),
        _ => usage(),
    }
}
