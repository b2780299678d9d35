//! The FTL observability hooks: recording must be read-only (bit-identical
//! wear with any recorder) and the journal must tell the GC story.

use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel, Recorder};
use edm_ssd::ftl::VictimPolicy;
use edm_ssd::{FtlConfig, Geometry, LatencyModel, PageLevelFtl};

fn geometry() -> Geometry {
    Geometry {
        page_size: 4096,
        pages_per_block: 8,
        blocks: 64,
        over_provision_ppt: 120,
    }
}

/// Skewed overwrite workload through the obs entry point.
fn run(config: FtlConfig, obs: &mut dyn Recorder) -> PageLevelFtl {
    let g = geometry();
    let lat = LatencyModel::PAPER;
    let mut ftl = PageLevelFtl::new(g, config);
    let live = g.exported_pages() * 3 / 4;
    ftl.write_span(0, live, &lat, obs).unwrap();
    let mut x = 7u64;
    for _ in 0..4000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let r = x >> 9;
        let lpn = if r % 10 < 8 {
            r % (live / 5).max(1)
        } else {
            r % live
        };
        ftl.write_span(lpn, 1, &lat, obs).unwrap();
    }
    ftl
}

#[test]
fn recording_is_read_only_at_every_level() {
    let config = FtlConfig::default();
    let plain = run(config, &mut NoopRecorder);
    for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events] {
        let mut rec = MemoryRecorder::new(level);
        let observed = run(config, &mut rec);
        assert_eq!(plain.stats(), observed.stats(), "level {level:?}");
        assert_eq!(
            plain.block_erase_counts(),
            observed.block_erase_counts(),
            "level {level:?}"
        );
    }
}

#[test]
fn journal_counters_match_wear_stats() {
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    let ftl = run(FtlConfig::default(), &mut rec);
    let stats = ftl.stats();
    assert!(stats.block_erases > 0, "workload must exercise GC");
    assert_eq!(
        rec.count_kind("block_erase") as u64,
        stats.block_erases,
        "one erase event per erase"
    );
    assert_eq!(
        rec.count_kind("gc_victim") as u64,
        stats.block_erases - rec.counter_value("ftl.wear_level_swaps"),
        "every non-leveling victim pick is journaled"
    );
    assert!(rec.count_kind("gc_invoked") > 0);
    // Victim picks carry the policy label.
    assert!(rec
        .journal()
        .iter()
        .filter_map(|e| match &e.event {
            edm_obs::Event::GcVictim { policy, .. } => Some(*policy),
            _ => None,
        })
        .all(|p| p == VictimPolicy::Greedy.label()));
}

#[test]
fn static_leveling_swaps_are_journaled() {
    let config = FtlConfig {
        static_threshold: 2,
        ..FtlConfig::default()
    };
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    run(config, &mut rec);
    let swaps = rec.counter_value("ftl.wear_level_swaps");
    assert!(swaps > 0, "tight threshold must force static leveling");
    assert_eq!(rec.count_kind("wear_level_swap") as u64, swaps);
}

#[test]
fn metrics_level_has_counters_but_no_journal() {
    let mut rec = MemoryRecorder::new(ObsLevel::Metrics);
    run(FtlConfig::default(), &mut rec);
    assert!(rec.counter_value("ftl.gc_invocations") > 0);
    assert!(rec.journal().is_empty());
}
