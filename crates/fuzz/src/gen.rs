//! Scenario generator: random-but-valid draws from the scenario grammar.
//!
//! Every draw satisfies the placement constraint the cluster enforces
//! (`objects_per_file ≤ groups ≤ osds`, `Placement::validate`) and keeps
//! failure injections on distinct, existing OSDs — the fuzzer explores
//! *behaviour*, not input validation. Scales are kept small so one
//! scenario's full oracle battery (seven end-to-end runs — plain, events,
//! checkpointed, sequential and sharded, ingest and its batch twin — plus
//! a resume) lands in well under a second.

use edm_cluster::{ClientAffinity, FailureSpec, MigrationSchedule, OsdId};
use edm_core::POLICY_NAMES;
use edm_scenario::Scenario;
use edm_workload::harvard::TRACE_NAMES;

use crate::rng::Rng;

/// Footprint scales small enough that a battery of runs stays fast, large
/// enough that migration rounds and GC actually happen.
const SCALES: [f64; 4] = [0.001, 0.0015, 0.002, 0.003];
/// Cluster widths, including non-multiples of the group count so the
/// group-first placement fallback is exercised.
const OSDS: [u32; 5] = [4, 6, 8, 12, 16];
const GROUPS: [u32; 3] = [2, 3, 4];
const LAMBDAS: [f64; 4] = [0.05, 0.1, 0.2, 0.4];
const CONCURRENCY: [u32; 3] = [4, 16, 64];

/// Draws one valid scenario. Pure function of the generator state.
pub fn generate(rng: &mut Rng) -> Scenario {
    let mut s = Scenario::default();

    // Workload: the seven Harvard presets plus the Fig. 3 synthetic.
    let trace_pool: Vec<&str> = TRACE_NAMES.iter().copied().chain(["random"]).collect();
    if let Some(&t) = rng.pick(&trace_pool) {
        s.trace = t.to_string();
    }
    if let Some(&scale) = rng.pick(&SCALES) {
        s.scale = scale;
    }

    // Cluster shape, honouring objects_per_file ≤ groups ≤ osds.
    if let Some(&osds) = rng.pick(&OSDS) {
        s.osds = osds;
    }
    let group_pool: Vec<u32> = GROUPS.iter().copied().filter(|&g| g <= s.osds).collect();
    if let Some(&g) = rng.pick(&group_pool) {
        s.groups = g;
    }
    s.objects_per_file = 2 + rng.below(u64::from(s.groups) - 1) as u32;

    if let Some(&p) = rng.pick(&POLICY_NAMES) {
        s.policy = p.to_string();
    }
    s.schedule = match rng.below(3) {
        0 => MigrationSchedule::Never,
        1 => MigrationSchedule::Midpoint,
        _ => MigrationSchedule::EveryTick,
    };
    if let Some(&l) = rng.pick(&LAMBDAS) {
        s.lambda = l;
    }
    s.force = rng.coin();
    s.client_concurrency = if rng.coin() {
        rng.pick(&CONCURRENCY).copied()
    } else {
        None
    };

    // Inode stride / sharded replay: a share of draws opts into the
    // datacenter shape — a stride dividing the group count with
    // objects_per_file ≤ stride splits placement into ≥ 2 independent
    // components, which two worker shards then own under component
    // affinity. The rest keep the sequential default, so the
    // `shard_digest` oracle covers both the parallel path and the
    // fallback gates.
    let strides: Vec<u64> = (2..u64::from(s.groups))
        .filter(|&t| u64::from(s.groups).is_multiple_of(t) && u64::from(s.objects_per_file) <= t)
        .collect();
    if !strides.is_empty() && rng.below(3) == 0 {
        if let Some(&t) = rng.pick(&strides) {
            s.stride = t;
            s.affinity = ClientAffinity::Component;
            s.shards = 2;
        }
    }

    // 0–2 failures on distinct OSDs, mid-run (after warm traffic exists,
    // before the tail), each with or without RAID-5 rebuild.
    let failures = rng.below(3);
    let mut failed: Vec<u32> = Vec::new();
    for _ in 0..failures {
        let osd = rng.below(u64::from(s.osds)) as u32;
        if failed.contains(&osd) {
            continue;
        }
        failed.push(osd);
        s.failures.push(FailureSpec {
            at_us: 50_000 + rng.below(400_000),
            osd: OsdId(osd),
            rebuild: rng.coin(),
        });
    }
    s.failures.sort_by_key(|f| (f.at_us, f.osd.0));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_are_valid_and_round_trip() {
        let mut rng = Rng::new(1);
        for _ in 0..200 {
            let s = generate(&mut rng);
            assert!(s.objects_per_file <= s.groups, "{s:?}");
            assert!(s.groups <= s.osds, "{s:?}");
            assert!(s.scale > 0.0 && s.scale <= 1.0);
            for f in &s.failures {
                assert!(f.osd.0 < s.osds);
            }
            let mut osds: Vec<u32> = s.failures.iter().map(|f| f.osd.0).collect();
            osds.dedup();
            assert_eq!(osds.len(), s.failures.len(), "duplicate failure OSD");
            let reparsed = Scenario::parse(&s.to_text()).expect("round trip");
            assert_eq!(reparsed, s);
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a: Vec<String> = {
            let mut rng = Rng::new(99);
            (0..20).map(|_| generate(&mut rng).to_text()).collect()
        };
        let b: Vec<String> = {
            let mut rng = Rng::new(99);
            (0..20).map(|_| generate(&mut rng).to_text()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn generator_reaches_the_interesting_corners() {
        let mut rng = Rng::new(3);
        let scenarios: Vec<Scenario> = (0..300).map(|_| generate(&mut rng)).collect();
        assert!(scenarios.iter().any(|s| !s.failures.is_empty()));
        assert!(scenarios
            .iter()
            .any(|s| s.failures.iter().any(|f| f.rebuild)));
        assert!(scenarios.iter().any(|s| s.osds % s.groups != 0));
        assert!(scenarios.iter().any(|s| s.policy == "CMT"));
        assert!(scenarios
            .iter()
            .any(|s| s.schedule == MigrationSchedule::EveryTick));
        assert!(scenarios.iter().any(|s| s.trace == "random"));
        // The datacenter shape must come up: stride > 1 with component
        // affinity and worker shards, so the parallel engine is fuzzed.
        assert!(scenarios
            .iter()
            .any(|s| s.stride > 1 && s.shards > 0 && s.affinity == ClientAffinity::Component));
    }
}
