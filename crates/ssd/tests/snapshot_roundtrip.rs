//! Snapshot round-trips at the device layer: an FTL saved mid-workload
//! must restore bit-identically (same re-encoding, same invariants) and
//! continue producing the exact same behaviour as the original.

use edm_obs::NoopRecorder;
use edm_snap::{SnapReader, SnapWriter, Snapshot};
use edm_ssd::{FtlConfig, Geometry, LatencyModel, Ssd, VictimPolicy, WearLevelConfig};

fn churned_ssd(policy: VictimPolicy, leveling: WearLevelConfig, ops: u64) -> Ssd {
    let g = Geometry {
        page_size: 4096,
        pages_per_block: 8,
        blocks: 64,
        over_provision_ppt: 100,
    };
    let mut ssd = Ssd::with_config(
        g,
        LatencyModel::PAPER,
        FtlConfig {
            victim_policy: policy,
            wear_leveling: leveling,
            ..FtlConfig::default()
        },
    );
    let live = g.exported_bytes() * 7 / 10;
    let mut x = 0xC0FF_EE00_1234_5678u64;
    for i in 0..ops {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 13;
        let offset = (r % (live / 4096)) * 4096;
        match i % 7 {
            6 => ssd.trim(offset, 4096).unwrap(),
            5 => {
                ssd.read(offset, 8192).unwrap();
            }
            _ => {
                ssd.write(offset, 4096 * (1 + r % 4), &mut NoopRecorder)
                    .unwrap();
            }
        }
    }
    ssd
}

fn snapshot_bytes(ssd: &Ssd) -> Vec<u8> {
    let mut w = SnapWriter::new();
    ssd.save(&mut w);
    w.into_bytes()
}

#[test]
fn save_load_save_is_byte_identical_across_configs() {
    for (policy, leveling) in [
        (VictimPolicy::Greedy, WearLevelConfig::DEFAULT),
        (VictimPolicy::Fifo, WearLevelConfig::OFF),
        (
            VictimPolicy::CostBenefit,
            WearLevelConfig {
                dynamic: true,
                static_threshold: 8,
            },
        ),
    ] {
        let ssd = churned_ssd(policy, leveling, 3_000);
        let bytes = snapshot_bytes(&ssd);
        let mut r = SnapReader::new(&bytes);
        let restored = Ssd::load(&mut r);
        r.finish("ssd").unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(
            snapshot_bytes(&restored),
            bytes,
            "{policy:?}/{leveling:?}: restored SSD re-encodes differently"
        );
        assert_eq!(restored.wear(), ssd.wear());
        assert_eq!(restored.mapped_pages(), ssd.mapped_pages());
    }
}

#[test]
fn restored_ssd_continues_identically() {
    let mut original = churned_ssd(VictimPolicy::Greedy, WearLevelConfig::DEFAULT, 2_000);
    let bytes = snapshot_bytes(&original);
    let mut r = SnapReader::new(&bytes);
    let mut restored = Ssd::load(&mut r);
    r.finish("ssd").unwrap();

    // Drive both with the same continuation; every returned device time
    // and the final state must agree — the restore is invisible.
    let mut x = 99u64;
    for _ in 0..2_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let offset = ((x >> 17) % 300) * 4096;
        let t_orig = original.write(offset, 4096, &mut NoopRecorder).unwrap();
        let t_rest = restored.write(offset, 4096, &mut NoopRecorder).unwrap();
        assert_eq!(t_orig, t_rest, "device time diverged after restore");
    }
    assert_eq!(snapshot_bytes(&original), snapshot_bytes(&restored));
    original.check_invariants().unwrap();
    restored.check_invariants().unwrap();
}

#[test]
fn truncated_ssd_snapshot_fails_cleanly() {
    let ssd = churned_ssd(VictimPolicy::Greedy, WearLevelConfig::DEFAULT, 500);
    let bytes = snapshot_bytes(&ssd);
    for keep in [0, 1, 7, bytes.len() / 3, bytes.len() - 1] {
        let mut r = SnapReader::new(&bytes[..keep]);
        let _ = Ssd::load(&mut r);
        assert!(
            r.finish("ssd").is_err(),
            "truncation to {keep} bytes decoded cleanly"
        );
    }
}
