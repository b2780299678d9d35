//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with their `exact` flags.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`edm-benchmark manifest`) and a test keeps the two equal. Later
//! issues cite these names; do not rename them.

use std::fmt::Write as _;

use Better::{Higher, Lower};
use Clock::{Host, Sim};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock or counter a metric reads. Simulated time is what the
/// modelled cluster would take; host time is what the simulator takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time or memory of the simulator process.
    Host,
    /// Virtual-time statistic of the modelled cluster: repeats exactly
    /// for a fixed seed.
    Sim,
    /// A count made by the program or the benchmark.
    Count,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
    /// Must repeat exactly between two runs of one commit and seed.
    pub exact: bool,
    pub clock: Clock,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "replay_read",
        why: "home02 at full size under EDM-HDF, one midpoint plan: the paper's Fig. 5-8 run; FTL read lookups and the DES engine do the work",
    },
    Workload {
        name: "replay_write",
        why: "lair62 at full size under EDM-CDF on every tick: the FTL write/GC/erase path plus trigger, Algorithm 1 and hundreds of moves",
    },
    Workload {
        name: "scale_sharded",
        why: "home02 x0.3 on 1024 OSDs in 8 placement components with 2 shard threads: the only run of shard.rs and O(OSDs) tick work",
    },
    Workload {
        name: "journal_verify",
        why: "deasna x0.5 with an OSD failure, recorded at Events level: journal render, edm-spec replay, checkpoints and resume",
    },
    Workload {
        name: "serve_ingest",
        why: "lair62 x0.25 op stream POSTed to the edm-serve daemon over loopback, one closed-loop client: the HTTP ingest path",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        clock,
    }
}

/// Metrics a user of the system would see, measured with tracing off.
///
/// `failed_op_share` of the issue is not listed: the result line's
/// `attempted`/`failed`/`correct` carry it (it is 0 on every workload
/// by design, and a bound relative to a median of 0 bounds nothing).
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("host_ops_per_s", "1/s", Higher, 0.25, Host),
    e2e("host_peak_rss_mib", "MiB", Lower, 0.25, Host),
    e2e(
        "sim_throughput_ops_per_s",
        "1/s",
        Better::Higher,
        0.02,
        Clock::Sim,
    ),
    e2e(
        "sim_aggregate_erases",
        "count",
        Better::Lower,
        0.02,
        Clock::Sim,
    ),
    e2e("sim_erase_rsd", "ratio", Lower, 0.25, Sim),
    e2e("sim_write_amp", "ratio", Lower, 0.02, Sim),
    e2e("req_p50_ms", "ms", Lower, 0.25, Host),
    e2e("req_p99_ms", "ms", Lower, 0.25, Host),
];

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        clock,
    }
}

/// A count that must repeat exactly (the issue's ✱).
const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: true,
        clock: Clock::Count,
    }
}

/// Metrics of single layers, from the traced run. A metric that does
/// not apply to a workload reads 0 there (README, "Reading the output").
pub const PER_LAYER: [Def; 66] = [
    // workload
    layer("workload.synth_s", "s", Lower, Host),
    exact("workload.records", "count", Higher),
    // cluster (engine)
    layer("cluster.build_s", "s", Lower, Host),
    layer("cluster.run_s", "s", Lower, Host),
    layer("cluster.baseline_run_s", "s", Lower, Host),
    layer("cluster.engine_self_s", "s", Lower, Host),
    layer("cluster.engine_ns_per_op", "ns", Lower, Host),
    exact("cluster.object_ios_per_op", "ratio", Lower),
    // cluster (shard)
    layer("cluster.seq_run_s", "s", Lower, Host),
    layer("cluster.sharded_run_s", "s", Lower, Host),
    layer("cluster.shard_speedup", "ratio", Higher, Host),
    exact("cluster.shard_components", "count", Higher),
    layer("cluster.shard_rss_ratio", "ratio", Lower, Host),
    // ssd
    layer("ssd.device_s", "s", Lower, Host),
    layer("ssd.ns_per_page_op", "ns", Lower, Host),
    exact("ssd.page_reads", "count", Lower),
    exact("ssd.page_writes", "count", Lower),
    exact("ssd.erases", "count", Lower),
    exact("ssd.gc_copies_per_host_write", "ratio", Lower),
    // core
    exact("core.on_access_calls", "count", Lower),
    layer("core.on_access_s", "s", Lower, Host),
    exact("core.tick_calls", "count", Lower),
    exact("core.plan_calls", "count", Lower),
    layer("core.plan_s", "s", Lower, Host),
    layer("core.plan_max_ms", "ms", Lower, Host),
    layer("core.plan_model_s", "s", Lower, Host),
    exact("core.nonempty_plan_share", "ratio", Higher),
    exact("core.moved_object_share", "ratio", Lower),
    layer("core.policy_delta_s", "s", Lower, Host),
    // obs
    exact("obs.events", "count", Lower),
    exact("obs.journal_bytes", "B", Lower),
    exact("obs.bytes_per_op", "B", Lower),
    layer("obs.record_delta_s", "s", Lower, Host),
    layer("obs.write_jsonl_s", "s", Lower, Host),
    layer("obs.write_jsonl_mb_per_s", "MB/s", Higher, Host),
    // spec
    layer("spec.verify_s", "s", Lower, Host),
    layer("spec.events_per_s", "1/s", Higher, Host),
    exact("spec.kinds_seen", "count", Higher),
    exact("spec.violations", "count", Lower),
    // snap / scenario
    exact("snap.checkpoints", "count", Lower),
    exact("snap.bytes", "B", Lower),
    layer("snap.checkpoint_delta_s", "s", Lower, Host),
    layer("snap.save_mb_per_s", "MB/s", Higher, Host),
    layer("snap.restore_mb_per_s", "MB/s", Higher, Host),
    layer("scenario.resume_s", "s", Lower, Host),
    // serve
    layer("serve.world_new_s", "s", Lower, Host),
    layer("serve.dump_ops_s", "s", Lower, Host),
    layer("serve.apply_s", "s", Lower, Host),
    layer("serve.apply_ops_per_s", "1/s", Higher, Host),
    layer("serve.http_overhead_s", "s", Lower, Host),
    layer("serve.http_share", "ratio", Lower, Host),
    exact("serve.posts", "count", Lower),
    layer("serve.refused_posts", "count", Lower, Clock::Count),
    layer("serve.drain_s", "s", Lower, Host),
    layer("serve.publish_ms", "ms", Lower, Host),
    layer("serve.get_stats_ms_p50", "ms", Lower, Host),
    layer("serve.checkpoint_s", "s", Lower, Host),
    layer("serve.resume_s", "s", Lower, Host),
    // model
    exact("model.ks_distance", "ratio", Lower),
    exact("model.max_rel_erase_err", "ratio", Lower),
    exact("model.gc_rate_rel_err", "ratio", Lower),
    // host
    exact("host.allocs_per_op", "1/op", Lower),
    exact("host.alloc_bytes_per_op", "B/op", Lower),
    layer("trace.overhead_share", "ratio", Lower, Host),
    // The untraced pass the overhead and the self times are taken against.
    layer("trace.ref_pass_s", "s", Lower, Host),
    // The third timed policy hook; part of the `core.*_s` sum.
    layer("core.tick_s", "s", Lower, Host),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The measuring time of one run, seconds (`BENCHMARK.json` and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, in the schema the driver prescribes.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            comma(i, WORKLOADS.len())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0),
            comma(i, END_TO_END.len())
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            d.name,
            d.unit,
            d.better.as_str(),
            comma(i, PER_LAYER.len())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name, "_.-", 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(d.name, "_.-", 64), "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphanumeric()),
                "{}",
                d.name
            );
            assert!(valid_name(d.unit, "_/%.-", 16), "{}: {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for d in &END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        // Set-up time carries the largest bound.
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, Better::Lower);
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
