//! Snapshot round-trips at the device layer: an FTL saved mid-workload
//! must restore bit-identically (same re-encoding, same invariants) and
//! continue producing the exact same behaviour as the original.

use edm_obs::NoopRecorder;
use edm_snap::{SnapReader, SnapWriter, Snapshot};
use edm_ssd::{FtlConfig, Geometry, LatencyModel, Ssd, VictimPolicy};

fn churned_ssd(policy: VictimPolicy, static_threshold: u64, ops: u64) -> Ssd {
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
            static_threshold,
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
    for (policy, threshold) in [
        (VictimPolicy::Greedy, FtlConfig::default().static_threshold),
        (VictimPolicy::Fifo, 0),
        (VictimPolicy::CostBenefit, 8),
    ] {
        let ssd = churned_ssd(policy, threshold, 3_000);
        let bytes = snapshot_bytes(&ssd);
        let mut r = SnapReader::new(&bytes);
        let restored = Ssd::load(&mut r);
        r.finish("ssd").unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(
            snapshot_bytes(&restored),
            bytes,
            "{policy:?}/threshold {threshold}: restored SSD re-encodes differently"
        );
        assert_eq!(restored.wear(), ssd.wear());
        assert_eq!(restored.mapped_pages(), ssd.mapped_pages());
    }
}

#[test]
fn restored_ssd_continues_identically() {
    let mut original = churned_ssd(
        VictimPolicy::Greedy,
        FtlConfig::default().static_threshold,
        2_000,
    );
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
    let ssd = churned_ssd(
        VictimPolicy::Greedy,
        FtlConfig::default().static_threshold,
        500,
    );
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

/// Offset of the `l2p` map in an SSD's snapshot bytes: the one place
/// where a length prefix of `exported` is followed by that many
/// `Option<(u32, u32)>` entries and then the `p2l` length `physical`.
fn l2p_offset(bytes: &[u8], exported: u64, physical: u64) -> usize {
    let walk = |mut pos: usize| -> Option<usize> {
        for _ in 0..exported {
            pos += match *bytes.get(pos)? {
                0 => 1,
                1 => 9,
                _ => return None,
            };
        }
        Some(pos)
    };
    let hits: Vec<usize> = (0..bytes.len().saturating_sub(8))
        .filter(|&at| bytes[at..at + 8] == exported.to_le_bytes())
        .filter(|&at| {
            walk(at + 8).is_some_and(|end| bytes.get(end..end + 8) == Some(&physical.to_le_bytes()))
        })
        .collect();
    assert_eq!(hits.len(), 1, "l2p map not located uniquely: {hits:?}");
    hits[0]
}

/// A crafted map entry — one the section CRC would not catch — is a
/// typed `Corrupt`, never an index out of bounds in `check_invariants`.
#[test]
fn crafted_map_entries_are_corrupt_not_a_panic() {
    let ssd = churned_ssd(
        VictimPolicy::Greedy,
        FtlConfig::default().static_threshold,
        500,
    );
    let g = ssd.geometry();
    let bytes = snapshot_bytes(&ssd);
    let l2p = l2p_offset(&bytes, g.exported_pages(), g.physical_pages());
    // The first mapped l2p entry, and where p2l's entries start.
    let mut first_mapped = None;
    let mut pos = l2p + 8;
    for _ in 0..g.exported_pages() {
        if bytes[pos] == 1 {
            first_mapped.get_or_insert(pos);
            pos += 9;
        } else {
            pos += 1;
        }
    }
    let first_mapped = first_mapped.expect("the churned device maps some page");
    let p2l_first_mapped = {
        let mut p = pos + 8;
        while bytes[p] == 0 {
            p += 1;
        }
        p
    };

    let mut block_ffff = bytes.clone();
    block_ffff[first_mapped + 1..first_mapped + 5].copy_from_slice(&0xFFFFu32.to_le_bytes());
    let mut page_past_block = bytes.clone();
    page_past_block[first_mapped + 5..first_mapped + 9]
        .copy_from_slice(&g.pages_per_block.to_le_bytes());
    let mut lpn_past_export = bytes.clone();
    lpn_past_export[p2l_first_mapped + 1..p2l_first_mapped + 9]
        .copy_from_slice(&g.exported_pages().to_le_bytes());
    // The FTL's geometry leads the bytes; its last field is the
    // over-provisioning. More of it exports fewer pages than l2p holds.
    let mut fewer_exported = bytes.clone();
    fewer_exported[16..20].copy_from_slice(&(g.over_provision_ppt + 100).to_le_bytes());

    for (case, crafted, needle) in [
        ("l2p block 0xFFFF", block_ffff, "l2p entry"),
        ("l2p page past its block", page_past_block, "l2p entry"),
        ("p2l lpn past the export", lpn_past_export, "p2l entry"),
        ("geometry exports fewer pages", fewer_exported, "l2p has"),
    ] {
        let mut r = SnapReader::new(&crafted);
        let _ = Ssd::load(&mut r);
        let err = r.finish("ssd").expect_err(case).to_string();
        assert!(err.contains(needle), "{case}: {err}");
    }
}
