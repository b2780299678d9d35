//! End-to-end checkpoint/resume determinism through the harness API:
//! a run interrupted at a checkpoint and resumed from the file must
//! produce a report — and therefore a determinism digest — bit-identical
//! to the uninterrupted run's, including under active migration and an
//! injected OSD failure with rebuild. Also covers the failure surface:
//! truncated and bit-flipped snapshot files must be rejected with typed
//! errors, never a panic or a silently different run.

use std::path::PathBuf;

use edm_cluster::resume_trace_obs_keep;
use edm_obs::NoopRecorder;
use edm_scenario::{report_digest, resume_snapshot, Scenario, SnapMeta};
use edm_serve::LiveWorld;
use edm_snap::{SnapError, SnapshotFile, FORMAT_VERSION};

fn ckpt_dir(tag: &str) -> PathBuf {
    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory; its location never reaches simulation state"
    )]
    let dir = std::env::temp_dir().join(format!("edm-snapres-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `scenario` with checkpointing, returning the uninterrupted
/// report's digest and the sorted checkpoint paths.
fn checkpointed_run(scenario: &Scenario, tag: &str) -> (u64, Vec<PathBuf>) {
    let dir = ckpt_dir(tag);
    let (report, _) = scenario
        .run(&mut NoopRecorder, Some((0, dir.clone())))
        .expect("checkpointed run failed");
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("checkpoint dir unreadable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    snaps.sort();
    assert!(
        snaps.len() >= 2,
        "{tag}: want several checkpoints, got {snaps:?}"
    );
    (report_digest(&report), snaps)
}

fn cleanup(snaps: &[PathBuf]) {
    if let Some(dir) = snaps.first().and_then(|p| p.parent()) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Scenario 1: plain EDM-HDF run, no faults.
fn plain_scenario() -> Scenario {
    Scenario::parse("trace deasna\nscale 0.002\nosds 8\npolicy EDM-HDF\nschedule midpoint\n")
        .expect("scenario")
}

/// Scenario 2: migration under EveryTick plus a mid-run OSD failure with
/// rebuild — the checkpoint must capture in-flight moves, the failure
/// schedule, and rebuild state.
fn faulted_scenario() -> Scenario {
    Scenario::parse(
        "trace home02\nscale 0.002\nosds 8\npolicy EDM-CDF\nschedule every-tick\n\
         fail 150000 1 rebuild\n",
    )
    .expect("scenario")
}

#[test]
fn plain_run_resumes_bit_identically() {
    let scenario = plain_scenario();
    let (digest, snaps) = checkpointed_run(&scenario, "plain");
    for snap in [&snaps[0], &snaps[snaps.len() / 2]] {
        let (restored, report) = resume_snapshot(snap, &mut NoopRecorder).expect("resume failed");
        assert_eq!(restored, scenario, "embedded scenario round trip");
        assert_eq!(
            report_digest(&report),
            digest,
            "resume from {} diverged",
            snap.display()
        );
    }
    cleanup(&snaps);
}

#[test]
fn faulted_migrating_run_resumes_bit_identically() {
    let scenario = faulted_scenario();
    let (digest, snaps) = checkpointed_run(&scenario, "faulted");

    // The run must actually exercise what the test claims: a failure and
    // migration activity in the uninterrupted report.
    let (report, _) = scenario
        .run(&mut NoopRecorder, None)
        .expect("plain rerun failed");
    assert_eq!(report.failed_osds, vec![1], "failure did not fire");
    assert!(report.migrations_triggered > 0, "no migration fired");
    assert_eq!(report_digest(&report), digest, "rerun not deterministic");

    // Resume from every checkpoint — pre-failure ones carry the pending
    // failure schedule, post-failure ones carry rebuild/degraded state.
    for snap in &snaps {
        let (_, resumed) = resume_snapshot(snap, &mut NoopRecorder).expect("resume failed");
        assert_eq!(
            report_digest(&resumed),
            digest,
            "resume from {} diverged",
            snap.display()
        );
    }
    cleanup(&snaps);
}

/// `edm-sim` on a run that ends before its first checkpoint is due says
/// so on stderr; stdout and the exit status stay those of a run that
/// checkpoints. A run that does cut one, even over an earlier run's
/// files, prints no such line.
#[test]
fn edm_sim_says_when_no_checkpoint_was_cut() {
    let dir = ckpt_dir("none-due");
    let scn = dir.with_extension("scn");
    std::fs::write(
        &scn,
        "trace home02\nscale 0.002\npolicy EDM-CDF\nschedule every-tick\n",
    )
    .unwrap();
    let run = |every: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_edm-sim"))
            .arg(&scn)
            .args(["--checkpoint-every", every, "--checkpoint-dir"])
            .arg(&dir)
            .output()
            .unwrap();
        assert!(out.status.success(), "--checkpoint-every {every}: {out:?}");
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (late_out, late_err) = run("60");
    assert!(!dir.exists(), "nothing was due, nothing was written");
    let said = late_err
        .lines()
        .filter(|l| l.contains("no checkpoint was cut"))
        .collect::<Vec<_>>();
    assert_eq!(said.len(), 1, "{late_err}");
    assert!(said[0].contains("--checkpoint-every 60 s"), "{}", said[0]);
    for _ in 0..2 {
        let (out, err) = run("0");
        assert_eq!(out, late_out);
        assert!(!err.contains("no checkpoint"), "{err}");
    }
    let _ = std::fs::remove_file(&scn);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_fails_with_typed_error() {
    let scenario = plain_scenario();
    let (_, snaps) = checkpointed_run(&scenario, "trunc");
    let bytes = std::fs::read(&snaps[0]).expect("read checkpoint");
    // Every proper prefix must fail cleanly — never panic, never parse.
    for cut in [0, 4, 8, bytes.len() / 3, bytes.len() - 1] {
        let err = SnapshotFile::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes parsed"));
        assert!(
            matches!(
                err,
                SnapError::Truncated { .. } | SnapError::BadMagic | SnapError::CrcMismatch { .. }
            ),
            "unexpected error for {cut}-byte prefix: {err:?}"
        );
    }
    cleanup(&snaps);
}

#[test]
fn bit_flipped_snapshot_fails_with_typed_error() {
    let scenario = plain_scenario();
    let (_, snaps) = checkpointed_run(&scenario, "flip");
    let bytes = std::fs::read(&snaps[0]).expect("read checkpoint");
    // Flip one bit somewhere in each section-ish region of the file.
    for pos in [9, bytes.len() / 4, bytes.len() / 2, bytes.len() - 2] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        let dir = ckpt_dir("flip-out");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("corrupt.snap");
        std::fs::write(&path, &corrupt).expect("write corrupt");
        let err = resume_snapshot(&path, &mut NoopRecorder)
            .expect_err(&format!("bit flip at {pos} went unnoticed"));
        // Harness surfaces the typed edm-snap error as a message; the
        // run must never start.
        assert!(
            err.contains("cannot read snapshot")
                || err.contains("bad manifest")
                || err.contains("resume failed")
                || err.contains("bad scenario metadata")
                || err.contains("embedded scenario"),
            "unexpected resume error for flip at {pos}: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    cleanup(&snaps);
}

/// Every older format version is refused by its header, before any
/// section is decoded: version 1 wrote the victim candidates in
/// swap-remove order, version 2 still carried the configuration values
/// that are now constants.
#[test]
fn v1_checkpoint_is_an_unsupported_version() {
    let scenario = plain_scenario();
    let (_, snaps) = checkpointed_run(&scenario, "v1");
    let current = std::fs::read(&snaps[0]).expect("read checkpoint");
    for version in 1..FORMAT_VERSION {
        let mut bytes = current.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        assert_eq!(
            SnapshotFile::from_bytes(&bytes).unwrap_err(),
            SnapError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION
            }
        );
        let path = snaps[0].with_extension(format!("v{version}"));
        std::fs::write(&path, &bytes).expect("write old-version file");
        let err = resume_snapshot(&path, &mut NoopRecorder).expect_err("old-version file resumed");
        assert!(
            err.contains(&format!("unsupported snapshot format version {version}")),
            "{err}"
        );
    }
    cleanup(&snaps);
}

/// One `LiveWorld::checkpoint_now` file of the serve gate's `live`
/// scenario, cut after 1 000 ops into a directory of its own.
fn live_checkpoint(tag: &str) -> PathBuf {
    let live = Scenario::parse("trace random\nscale 0.002\nschedule every-tick\nlambda 0.05\n")
        .expect("scenario");
    let ops = edm_serve::dump_ops(&live);
    let mut world = LiveWorld::new(live).expect("live world");
    for line in ops.lines().take(1000) {
        world.apply_line(line, &mut NoopRecorder);
    }
    world
        .checkpoint_now(&ckpt_dir(tag))
        .expect("live checkpoint")
}

/// An ingest checkpoint has the manifest, cluster and policy of a replay
/// checkpoint but no `engine` section: the replay resume refuses it by
/// that name, at the engine layer and through the harness.
#[test]
fn ingest_checkpoint_is_refused_by_replay_resume() {
    let path = live_checkpoint("live-as-replay");
    let missing = SnapError::MissingSection {
        section: "engine".to_string(),
    };
    let snap = SnapshotFile::read_from(&path).expect("read checkpoint");
    let scenario = Scenario::parse("trace random\nscale 0.002\nschedule every-tick\nlambda 0.05\n")
        .expect("scenario");
    let trace = scenario.synth_trace();
    let mut policy = scenario.build_policy().expect("policy");
    let resumed = resume_trace_obs_keep(
        &snap,
        &trace,
        policy.as_mut(),
        scenario.sim_options(),
        &mut NoopRecorder,
    );
    assert_eq!(resumed.err(), Some(missing.clone()));
    let err = resume_snapshot(&path, &mut NoopRecorder).expect_err("ingest checkpoint resumed");
    assert!(err.ends_with(&missing.to_string()), "{err}");
    cleanup(&[path]);
}

/// A replay checkpoint has no `serve-live` section: the ingest resume
/// refuses it by that name.
#[test]
fn replay_checkpoint_is_refused_by_ingest_resume() {
    let (_, snaps) = checkpointed_run(&plain_scenario(), "replay-as-live");
    let missing = SnapError::MissingSection {
        section: "serve-live".to_string(),
    };
    let err = LiveWorld::resume(&snaps[0])
        .err()
        .expect("replay checkpoint resumed as an ingest world");
    assert!(err.ends_with(&missing.to_string()), "{err}");
    cleanup(&snaps);
}

/// Layout 1 of the `serve-live` section came in a container of its own;
/// a section that says 1 is refused by its version, never misread.
#[test]
fn serve_live_v1_checkpoint_is_an_unsupported_version() {
    let path = live_checkpoint("live-v1");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    // Name, u64 body length, u32 CRC, body; the body opens with the
    // layout version.
    let name = bytes
        .windows(10)
        .position(|w| w == b"serve-live")
        .expect("serve-live section");
    let (len_at, crc_at, body_at) = (name + 10, name + 18, name + 22);
    let len = u64::from_le_bytes(bytes[len_at..crc_at].try_into().unwrap()) as usize;
    bytes[body_at..body_at + 8].copy_from_slice(&1u64.to_le_bytes());
    let crc = edm_snap::crc32(&bytes[body_at..body_at + len]);
    bytes[crc_at..body_at].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write v1 file");
    let err = LiveWorld::resume(&path)
        .err()
        .expect("v1 ingest checkpoint resumed");
    let want = SnapError::Corrupt {
        section: "serve-live".to_string(),
        detail: "layout version 1, this build reads version 2".to_string(),
    };
    assert!(err.ends_with(&want.to_string()), "{err}");
    cleanup(&[path]);
}

#[test]
fn snap_meta_round_trips() {
    let scenario = faulted_scenario();
    let meta = SnapMeta {
        scenario: scenario.to_text(),
        trace_fingerprint: 0xDEAD_BEEF_0123_4567,
    };
    let decoded = SnapMeta::decode(&meta.encode()).expect("decode");
    assert_eq!(decoded, meta);
    // The canonical text reparses to the same scenario.
    assert_eq!(
        Scenario::parse(&decoded.scenario).expect("reparse"),
        scenario
    );
}

/// FNV-1a, as in `edm_scenario::report_digest`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The checkpoint format is whatever the `Snapshot` impls write, so its
/// bytes are pinned the way `frozen_behaviour.rs` pins digests and
/// journals (scenario texts copied from there): the first and last
/// checkpoint of the `ckpt` gate scenario cut at every tick, and one
/// `LiveWorld::checkpoint_now` file of the `live` one. A row that moves
/// means old checkpoints no longer resume; if that is the point of the
/// change, bump `FORMAT_VERSION` / `SNAP_VERSION` and paste the table
/// the failure prints.
#[test]
fn checkpoint_bytes_are_frozen() {
    const GOLDEN: [(&str, u64, usize); 3] = [
        ("ckpt first", 0x4faa_f590_58cd_e4c9, 293_209),
        ("ckpt last", 0x5da6_ab90_aae9_4add, 288_372),
        ("live", 0xe3eb_9901_576c_e768, 36_268),
    ];

    let (_, snaps) = checkpointed_run(&faulted_scenario(), "frozen");
    let live_snap = live_checkpoint("frozen-live");

    let files = [&snaps[0], &snaps[snaps.len() - 1], &live_snap];
    let mut moved = false;
    let mut table = String::new();
    for (&(name, hash, len), path) in GOLDEN.iter().zip(files) {
        let bytes = std::fs::read(path).expect("read checkpoint");
        moved |= (fnv1a(&bytes), bytes.len()) != (hash, len);
        table.push_str(&format!(
            "(\"{name}\", {:#018x}, {}),\n",
            fnv1a(&bytes),
            bytes.len()
        ));
    }
    cleanup(&snaps);
    cleanup(&[live_snap]);
    assert!(
        !moved,
        "checkpoint bytes moved; the files now give:\n{table}"
    );
}
