//! The golden behaviour table: ROADMAP aim 2 says "the frozen report
//! digests and byte-identical journals *define* same behaviour", so the
//! values are committed here instead of being compared against a parent
//! binary by hand. One row per scenario text the gate drives — the four
//! `scripts/check.sh` embeds (smoke, ckpt, scale, serve's live scenario)
//! and the five `fuzz/corpus` files — pinning `report_digest` and the
//! FNV-1a + byte length of the `Events`-level journal. The scale row is
//! run sequentially and on two shards against the one pinned triple,
//! which is the sharded engine's contract.
//!
//! A row that moves means the simulator's behaviour moved. If that is
//! the point of the change, the failure message prints the new table to
//! paste in; otherwise it is the regression.

use edm_obs::{MemoryRecorder, ObsLevel};
use edm_scenario::{report_digest, Scenario};

const SMOKE: &str =
    "trace home02\nscale 0.004\nosds 8\ngroups 4\npolicy EDM-HDF\nschedule midpoint\nforce true\n";
const CKPT: &str = "trace home02\nscale 0.002\nosds 8\npolicy EDM-CDF\nschedule every-tick\n\
                    fail 150000 1 rebuild\n";
const SCALE: &str = "trace home02\nscale 0.004\nosds 16\ngroups 4\nobjects_per_file 2\n\
                     policy EDM-HDF\nschedule every-tick\nstride 2\naffinity component\n";
const LIVE: &str = "trace random\nscale 0.002\nschedule every-tick\nlambda 0.05\n";

/// (name, scenario text, shard counts to run it at, report digest,
/// journal FNV-1a, journal bytes)
type Row = (&'static str, &'static str, &'static [u32], u64, u64, usize);

#[rustfmt::skip]
const GOLDEN: [Row; 9] = [
    ("smoke", SMOKE, &[0], 0xec91_df1c_b155_195f, 0xbacc_9a97_e2fc_754f, 3_663_727),
    ("ckpt", CKPT, &[0], 0x4d07_7e16_2de3_0d81, 0x004f_1888_d8eb_98cc, 1_980_011),
    ("scale", SCALE, &[0, 2], 0x2ff2_32f3_f0cf_8f7c, 0x6249_53a4_3ac9_634b, 4_438_759),
    ("live", LIVE, &[0], 0xcfbc_179e_0a94_7558, 0xc641_c6ea_a8ee_515e, 502_099),
    ("baseline-unrebuilt-failure", include_str!("../fuzz/corpus/baseline-unrebuilt-failure.scn"), &[0], 0xbd44_29da_4fd7_4cbb, 0x97c3_1c94_10e1_1eba, 1_014_324),
    ("cdf-rebuild-every-tick", include_str!("../fuzz/corpus/cdf-rebuild-every-tick.scn"), &[0], 0x4d07_7e16_2de3_0d81, 0x004f_1888_d8eb_98cc, 1_980_011),
    ("cmt-high-concurrency", include_str!("../fuzz/corpus/cmt-high-concurrency.scn"), &[0], 0x8eec_70d1_bccc_8db2, 0xd242_ba76_bbd9_d58c, 690_122),
    ("hdf-uneven-groups", include_str!("../fuzz/corpus/hdf-uneven-groups.scn"), &[0], 0x0c4f_a5e8_75b4_f143, 0x6bef_96de_7237_bce2, 334_857),
    ("random-trace-every-tick", include_str!("../fuzz/corpus/random-trace-every-tick.scn"), &[0], 0xcfbc_179e_0a94_7558, 0xc641_c6ea_a8ee_515e, 502_099),
];

/// FNV-1a, as in `edm_scenario::report_digest`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn observe(text: &str, shards: u32) -> (u64, u64, usize) {
    let mut scenario = Scenario::parse(text).expect("golden scenario parses");
    scenario.shards = shards;
    if shards > 0 {
        let decision = scenario.shard_decision().expect("shard gates evaluate");
        assert!(decision.active, "sharded row ran sequentially: {decision}");
    }
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    let (report, _) = scenario.run(&mut rec, None).expect("golden scenario runs");
    let mut journal = Vec::new();
    rec.write_jsonl(&mut journal).expect("journal renders");
    (report_digest(&report), fnv1a(&journal), journal.len())
}

#[test]
fn report_digests_and_journals_are_frozen() {
    let mut moved = false;
    let mut table = String::new();
    for &(name, text, shard_counts, digest, journal_hash, journal_len) in &GOLDEN {
        for &shards in shard_counts {
            let got = observe(text, shards);
            moved |= got != (digest, journal_hash, journal_len);
            table.push_str(&format!(
                "{name} (shards {shards}): digest {:#018x}, journal {:#018x} over {} bytes\n",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(!moved, "behaviour moved; the run now gives:\n{table}");
}
