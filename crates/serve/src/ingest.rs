//! Ingest mode: operations applied the moment they arrive.
//!
//! Replay mode drives the full discrete-event engine; ingest mode cannot
//! — operations arrive from the network with no future to schedule
//! against. [`LiveWorld`] therefore applies each operation *immediately*,
//! advancing a virtual clock by the service time of what it just did.
//! Every decision along the way is `edm_cluster`'s, the same function the
//! batch engine calls; what this module adds is the scheduling around
//! them and the network boundary:
//!
//! * a line is parsed and bounds-checked against the file's mapped
//!   capacity *before* anything is mapped or mutated, then fanned out by
//!   [`Cluster::file_subops`] (RAID-5 sub-ops and the `on_access` pages
//!   the policy sees) and serviced serially, with no queueing — virtual
//!   time advances by the summed sub-op service times;
//! * whenever the clock crosses the scenario's `wear_tick_us` boundary a
//!   wear tick fires: policy tick, [`plan_round`] (trigger evaluation,
//!   Algorithm 1, validation, capacity sanitation — with nothing pending
//!   and nothing failed), then each accepted move at once:
//!   [`Cluster::begin_move`], a whole-object copy charged to the devices
//!   but not the clock, [`Cluster::finish_move`]; then
//!   [`close_wc_window`];
//! * no queue-depth events are emitted — there are no queues — which by
//!   the conformance spec's rules leaves the queue model trivially
//!   satisfied, so `edm-probe --verify` accepts ingest journals.
//!
//! Crash recovery: [`LiveWorld::checkpoint_now`] cuts the one checkpoint
//! container ([`CheckpointCut`]) at a tick boundary — the manifest with
//! the scenario text, clock and applied-op count, the cluster, the
//! policy, and a `serve-live` section with the next tick and the
//! counters. [`LiveWorld::resume`] opens it like every other checkpoint
//! ([`Checkpoint::open`], [`restore_world`]) and then *replays the dedup*:
//! the first `applied_ops` valid operations of a re-fed stream are
//! skipped without touching state. Feeding the full op stream to a
//! resumed daemon therefore converges on the exact state of an
//! uninterrupted run — the recovery property the serve gate checks.

use std::cell::OnceCell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

use edm_cluster::migrate::{close_wc_window, plan_round};
use edm_cluster::osd::OsdError;
use edm_cluster::{
    restore_world, CheckpointCut, Cluster, MigrationSchedule, Migrator, MoveAction, OSD_OVERHEAD_US,
};
use edm_obs::Recorder;
use edm_scenario::{Checkpoint, Scenario, SnapMeta};
use edm_snap::{snapshot_struct, SnapError, SnapWriter, Snapshot};
use edm_workload::{FileId, FileOp};

/// Layout version of the `serve-live` snapshot section. Version 1 was a
/// container of its own, with the scenario, policy and clock in this
/// section and no manifest.
const SNAP_VERSION: u64 = 2;

/// Snapshot section holding the live-world scalar state.
const SECTION: &str = "serve-live";

/// What [`LiveWorld::apply_line`] did with one operation line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The operation mutated the world; `ticked` reports whether a wear
    /// tick fired afterwards (the daemon's checkpoint-safe point).
    Applied { ticked: bool },
    /// The operation was consumed by resume dedup: an earlier
    /// incarnation already applied it.
    Replayed,
    /// The line failed validation; nothing was mutated.
    Rejected(String),
}

/// Counter snapshot for `/stats` and `/healthz` rendering. Every field
/// here is *convergent*: an interrupted-and-resumed session re-fed the
/// same stream finishes with the same values as an uninterrupted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    pub applied_ops: u64,
    pub reads: u64,
    pub writes: u64,
    pub ticks: u64,
    pub migration_evaluations: u64,
    pub migrations_triggered: u64,
    pub failed_moves: u64,
    pub moved_objects: u64,
    pub moved_bytes: u64,
}

snapshot_struct!(LiveStats {
    applied_ops,
    reads,
    writes,
    ticks,
    migration_evaluations,
    migrations_triggered,
    failed_moves,
    moved_objects,
    moved_bytes,
});

/// The ingest-mode world: cluster + policy + virtual clock.
pub struct LiveWorld {
    scenario: Scenario,
    /// Fingerprint of the scenario's synthesized trace, for the manifest.
    /// Worked out at the first checkpoint, not in [`new`](Self::new), so
    /// a daemon that never checkpoints never hashes the whole trace.
    trace_fingerprint: OnceCell<u64>,
    cluster: Cluster,
    policy: Box<dyn Migrator>,
    now_us: u64,
    next_tick_us: u64,
    /// Valid operations to silently skip after a resume (dedup).
    skip_remaining: u64,
    /// Operations consumed by dedup this incarnation.
    skipped_ops: u64,
    /// Lines rejected by validation this incarnation.
    rejected_lines: u64,
    stats: LiveStats,
    last_error: Option<String>,
}

impl LiveWorld {
    /// Builds a fresh world from a scenario. Ingest mode requires the
    /// continuous (`every-tick`) schedule — there is no trace midpoint
    /// to anchor one-shot migration on — and rejects injected failures,
    /// which only make sense against the engine's queues.
    pub fn new(scenario: Scenario) -> Result<LiveWorld, String> {
        if scenario.schedule != MigrationSchedule::EveryTick {
            return Err("ingest mode requires `schedule every-tick`".to_string());
        }
        if !scenario.failures.is_empty() {
            return Err("ingest mode does not support injected failures".to_string());
        }
        let trace = scenario.synth_trace();
        let cluster = scenario.build_cluster(&trace)?;
        let policy = scenario.build_policy()?;
        let next_tick_us = cluster.config.wear_tick_us;
        Ok(LiveWorld {
            scenario,
            trace_fingerprint: OnceCell::new(),
            cluster,
            policy,
            now_us: 0,
            next_tick_us,
            skip_remaining: 0,
            skipped_ops: 0,
            rejected_lines: 0,
            stats: LiveStats::default(),
            last_error: None,
        })
    }

    /// Emits the journal preamble (call once, right after constructing
    /// the recorder): [`Cluster::emit_run_meta`].
    pub fn emit_run_meta(&self, obs: &mut dyn Recorder) {
        self.cluster.emit_run_meta(obs);
    }

    // ---- accessors ------------------------------------------------------

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn policy_name(&self) -> String {
        self.policy.name().to_string()
    }

    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// Operations consumed by resume dedup this incarnation.
    pub fn skipped_ops(&self) -> u64 {
        self.skipped_ops
    }

    /// Valid operations still owed to the dedup skip window.
    pub fn skip_remaining(&self) -> u64 {
        self.skip_remaining
    }

    pub fn rejected_lines(&self) -> u64 {
        self.rejected_lines
    }

    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    // ---- op application -------------------------------------------------

    fn reject(&mut self, why: String) -> ApplyOutcome {
        self.rejected_lines += 1;
        ApplyOutcome::Rejected(why)
    }

    /// Validates and applies one operation line (`r|w <file> <offset>
    /// <len>`). Validation is complete before any mutation, so a
    /// rejected line leaves the world untouched — which is also what
    /// keeps resume dedup aligned: only *valid* lines consume the skip
    /// window, and validation is deterministic across incarnations.
    pub fn apply_line(&mut self, line: &str, obs: &mut dyn Recorder) -> ApplyOutcome {
        let (file, op) = match parse_op_line(line) {
            Ok(parsed) => parsed,
            Err(e) => return self.reject(e),
        };
        let (offset, len, write) = match op {
            FileOp::Read { offset, len } => (offset, len, false),
            FileOp::Write { offset, len } => (offset, len, true),
            // parse_op_line only produces reads and writes.
            FileOp::Open | FileOp::Close => {
                return self.reject("open/close are not ingestible".to_string())
            }
        };
        let Some(meta) = self.cluster.catalog.file(file) else {
            return self.reject(format!("unknown file {}", file.0));
        };
        if len == 0 {
            return self.reject("zero-length I/O".to_string());
        }
        // The numbers come off the network: bound them before striping
        // maps them (one sub-op per 64 KiB touched). Every object of a
        // file holds one stripe unit per row, so an I/O stays inside its
        // objects exactly when it ends within the rows' data bytes.
        let layout = self.cluster.catalog.layout();
        let mapped = layout
            .rows(meta.size)
            .saturating_mul(layout.row_data_bytes());
        if offset.checked_add(len).is_none_or(|end| end > mapped) {
            return self.reject(format!(
                "I/O beyond file {}: [{offset}, {offset} + {len}) does not fit its {mapped} mapped bytes",
                file.0
            ));
        }
        // The line is valid: it consumes the dedup window or applies.
        if self.skip_remaining > 0 {
            self.skip_remaining -= 1;
            self.skipped_ops += 1;
            return ApplyOutcome::Replayed;
        }
        obs.set_now(self.now_us);
        let mut service_us = 0u64;
        for (io, access) in self
            .cluster
            .file_subops(file, offset, len, write, self.now_us)
        {
            self.policy.on_access(access);
            let osd = self.cluster.catalog.locate(access.object);
            obs.set_device(Some(osd.0));
            let device = if io.kind.is_write() {
                self.cluster
                    .osd_mut(osd)
                    .write_object_obs(access.object, io.offset, io.len, obs)
            } else {
                self.cluster
                    .osd_mut(osd)
                    .read_object(access.object, io.offset, io.len)
            };
            obs.set_device(None);
            let device_us = match device {
                Ok(t) => t.as_micros(),
                // Unreachable after validation; record rather than panic
                // (a daemon must not die on a protocol-level surprise).
                Err(e) => {
                    self.last_error = Some(format!("device op on {osd}: {e}"));
                    0
                }
            };
            let sub_service = OSD_OVERHEAD_US + device_us;
            self.cluster.osd_mut(osd).record_service(sub_service);
            obs.latency("subop_sojourn_us", sub_service);
            service_us += sub_service;
        }
        self.now_us += service_us;
        self.stats.applied_ops += 1;
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        obs.counter("serve.ops_applied", 1);
        let ticked = self.now_us >= self.next_tick_us;
        if ticked {
            self.wear_tick(obs);
            while self.next_tick_us <= self.now_us {
                self.next_tick_us += self.cluster.config.wear_tick_us;
            }
        }
        ApplyOutcome::Applied { ticked }
    }

    /// The wear-monitor tick under the continuous schedule: one
    /// migration round, executed at the tick instant. A structurally
    /// invalid plan is a policy bug; the batch engine aborts on it, a
    /// daemon drops the round and keeps serving.
    fn wear_tick(&mut self, obs: &mut dyn Recorder) {
        obs.set_now(self.now_us);
        obs.counter("sim.ticks", 1);
        self.stats.ticks += 1;
        self.policy.on_tick(self.now_us);
        self.stats.migration_evaluations += 1;
        // Live moves complete within the tick and ingest injects no
        // failures, so no object is ever pending and no OSD ever failed.
        let round = plan_round(
            self.policy.as_mut(),
            &self.cluster.view(self.now_us),
            &HashSet::new(),
            &[],
            obs,
        );
        match round {
            Ok((accepted, refused)) => {
                self.stats.failed_moves += refused;
                self.stats.migrations_triggered += u64::from(!accepted.is_empty());
                for action in accepted {
                    self.move_now(action, obs);
                }
            }
            Err(e) => {
                self.stats.failed_moves += e.moves as u64;
                self.last_error = Some(e.to_string());
            }
        }
        close_wc_window([&mut self.cluster], self.policy.as_mut());
    }

    /// Executes one accepted move instantly. The copy is charged to the
    /// devices (read wear at the source, write wear + `Wc` at the
    /// destination) but not to the clock: the whole move lands at the
    /// tick instant. A failed copy is rolled back so the catalog stays
    /// coherent.
    fn move_now(&mut self, action: MoveAction, obs: &mut dyn Recorder) {
        let moved = self.cluster.begin_move(action, obs).and_then(|size| {
            obs.set_device(Some(action.source.0));
            let read = self
                .cluster
                .osd_mut(action.source)
                .read_whole_object(action.object);
            obs.set_device(Some(action.dest.0));
            let copied = read.and_then(|_| {
                self.cluster
                    .osd_mut(action.dest)
                    .write_object_obs(action.object, 0, size, obs)
            });
            obs.set_device(None);
            let finished = copied.and_then(|_| self.cluster.finish_move(action, obs));
            if finished.is_err() {
                let _ = self
                    .cluster
                    .osd_mut(action.dest)
                    .remove_object(action.object);
            }
            finished
        });
        match moved {
            Ok(size) => {
                self.stats.moved_objects += 1;
                self.stats.moved_bytes += size;
            }
            Err(e) => {
                // A destination that filled up since planning is an
                // ordinary skipped move; anything else is worth showing.
                if !matches!(e, OsdError::NoSpace { .. }) {
                    self.last_error =
                        Some(format!("move of {} to {}: {e}", action.object, action.dest));
                }
                self.stats.failed_moves += 1;
            }
        }
    }

    // ---- crash recovery -------------------------------------------------

    /// Cuts a checkpoint into `dir`. Only call at a tick boundary (the
    /// daemon does so on `Applied { ticked: true }` or between ops) —
    /// the world holds no mid-decision state there by construction.
    pub fn checkpoint_now(&self, dir: &Path) -> Result<PathBuf, SnapError> {
        let mut w = SnapWriter::new();
        w.put_u64(SNAP_VERSION);
        w.put_u64(self.next_tick_us);
        self.stats.save(&mut w);
        CheckpointCut {
            now_us: self.now_us,
            completed_ops: self.stats.applied_ops,
            total_records: self.stats.applied_ops,
            extra: SnapMeta {
                scenario: self.scenario.to_text(),
                trace_fingerprint: *self
                    .trace_fingerprint
                    .get_or_init(|| self.scenario.synth_trace().fingerprint()),
            }
            .encode(),
            cluster: &self.cluster,
            policy: self.policy.as_ref(),
            host: (SECTION, w),
        }
        .write(dir)
    }

    /// Rebuilds a world from a checkpoint. The resumed world skips the
    /// first `applied_ops` valid operations it is fed, so the host can
    /// (and the gate does) re-feed the entire op stream.
    pub fn resume(path: &Path) -> Result<LiveWorld, String> {
        let ckpt = Checkpoint::open(path)?;
        let at = |e: SnapError| format!("{}: {e}", path.display());
        let mut r = ckpt.snap.reader(SECTION).map_err(at)?;
        let version = r.take_u64();
        if version != SNAP_VERSION {
            r.corrupt(format!(
                "layout version {version}, this build reads version {SNAP_VERSION}"
            ));
        }
        let next_tick_us = r.take_u64();
        let stats = LiveStats::load(&mut r);
        r.finish(SECTION).map_err(at)?;
        let mut policy = ckpt.scenario.build_policy()?;
        let cluster = restore_world(&ckpt.snap, policy.as_mut()).map_err(at)?;
        Ok(LiveWorld {
            scenario: ckpt.scenario,
            trace_fingerprint: OnceCell::from(ckpt.trace_fingerprint),
            cluster,
            policy,
            now_us: ckpt.manifest.now_us,
            next_tick_us,
            skip_remaining: stats.applied_ops,
            skipped_ops: 0,
            rejected_lines: 0,
            stats,
            last_error: None,
        })
    }
}

/// Parses one op line: `r <file> <offset> <len>` or `w <file> <offset>
/// <len>` (decimal integers).
fn parse_op_line(line: &str) -> Result<(FileId, FileOp), String> {
    let mut it = line.split_ascii_whitespace();
    let kind = it.next().ok_or("empty line")?;
    let mut num = |what: &str| -> Result<u64, String> {
        it.next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    let file = FileId(num("file id")?);
    let offset = num("offset")?;
    let len = num("length")?;
    if it.next().is_some() {
        return Err("trailing tokens after <len>".to_string());
    }
    let op = match kind {
        "r" => FileOp::Read { offset, len },
        "w" => FileOp::Write { offset, len },
        other => return Err(format!("unknown op {other:?} (expected r or w)")),
    };
    Ok((file, op))
}

/// Renders a scenario's synthesized trace as ingest protocol lines
/// (reads and writes only; opens and closes carry no device work). This
/// is what `edm-serve --dump-ops` prints, and what the serve gate feeds
/// back through `POST /ingest`.
pub fn dump_ops(scenario: &Scenario) -> String {
    let trace = scenario.synth_trace();
    let mut out = String::new();
    for record in &trace.records {
        match record.op {
            FileOp::Read { offset, len } => {
                out.push_str(&format!("r {} {} {}\n", record.file.0, offset, len));
            }
            FileOp::Write { offset, len } => {
                out.push_str(&format!("w {} {} {}\n", record.file.0, offset, len));
            }
            FileOp::Open | FileOp::Close => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemBackend, ServeRecorder};
    use edm_cluster::OsdId;
    use edm_obs::{MemoryRecorder, ObsLevel};

    fn scenario() -> Scenario {
        Scenario {
            trace: "random".into(),
            scale: 0.002,
            osds: 8,
            groups: 4,
            schedule: MigrationSchedule::EveryTick,
            lambda: 0.05,
            ..Scenario::default()
        }
    }

    #[test]
    fn rejects_wrong_schedule_and_failures() {
        let mut s = scenario();
        s.schedule = MigrationSchedule::Midpoint;
        assert!(LiveWorld::new(s)
            .err()
            .expect("must fail")
            .contains("every-tick"));
        let mut s = scenario();
        s.failures = vec![edm_cluster::FailureSpec {
            at_us: 1,
            osd: OsdId(0),
            rebuild: false,
        }];
        assert!(LiveWorld::new(s)
            .err()
            .expect("must fail")
            .contains("failures"));
    }

    #[test]
    fn parse_op_line_accepts_and_rejects() {
        assert_eq!(
            parse_op_line("w 3 0 4096").unwrap(),
            (
                FileId(3),
                FileOp::Write {
                    offset: 0,
                    len: 4096
                }
            )
        );
        assert_eq!(
            parse_op_line("r 12 512 100").unwrap(),
            (
                FileId(12),
                FileOp::Read {
                    offset: 512,
                    len: 100
                }
            )
        );
        assert!(parse_op_line("x 1 2 3").is_err());
        assert!(parse_op_line("w 1 2").is_err());
        assert!(parse_op_line("w 1 2 3 4").is_err());
        assert!(parse_op_line("w one 2 3").is_err());
    }

    #[test]
    fn invalid_lines_do_not_mutate() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Off);
        let file = dump_ops(w.scenario())
            .split_ascii_whitespace()
            .nth(1)
            .unwrap()
            .to_string();
        for line in [
            "w 999999999 0 1".to_string(),
            "garbage".to_string(),
            // offset + len wraps u64.
            format!("w {file} 18446744073709551615 2"),
            // 64 GiB and 1 PiB: millions of stripe units to map, for
            // a file a few MiB long.
            format!("w {file} 0 68719476736"),
            format!("r {file} 0 1125899906842624"),
        ] {
            assert!(
                matches!(w.apply_line(&line, &mut obs), ApplyOutcome::Rejected(_)),
                "{line}"
            );
        }
        assert_eq!(w.stats().applied_ops, 0);
        assert_eq!(w.rejected_lines(), 5);
        assert_eq!(w.now_us(), 0);
    }

    #[test]
    fn ops_advance_time_and_fire_ticks() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Events);
        w.emit_run_meta(&mut obs);
        let ops = dump_ops(w.scenario());
        let lines: Vec<&str> = ops.lines().collect();
        assert!(lines.len() > 500, "scenario too small to exercise ticks");
        let mut ticked = 0u64;
        for line in &lines {
            match w.apply_line(line, &mut obs) {
                ApplyOutcome::Applied { ticked: t } => ticked += t as u64,
                ApplyOutcome::Rejected(e) => panic!("dump_ops line rejected: {e}"),
                ApplyOutcome::Replayed => panic!("fresh world must not dedup"),
            }
        }
        assert!(w.now_us() > 0);
        assert!(
            ticked > 0,
            "the full op stream must cross at least one wear tick"
        );
        assert_eq!(w.stats().ticks, ticked);
        assert_eq!(obs.counter_value("sim.ticks"), ticked);
        assert_eq!(w.stats().applied_ops, lines.len() as u64);
        // Journal time is non-decreasing (canonical order holds).
        let mut last = 0;
        for e in obs.journal() {
            assert!(e.t_us >= last);
            last = e.t_us;
        }
    }

    /// The ingest journal, byte for byte: the op-service path is shared
    /// with the batch engine (`edm_cluster`), and this hash — computed
    /// before that sharing — is what holds a refactor there to "unchanged".
    #[test]
    fn ingest_journal_is_frozen() {
        let mut w = LiveWorld::new(scenario()).unwrap();
        let mut obs = MemoryRecorder::new(ObsLevel::Events);
        w.emit_run_meta(&mut obs);
        for line in dump_ops(w.scenario()).lines() {
            assert!(matches!(
                w.apply_line(line, &mut obs),
                ApplyOutcome::Applied { .. }
            ));
        }
        let mut journal = Vec::new();
        obs.write_jsonl(&mut journal).unwrap();
        // FNV-1a, as in `edm_scenario::report_digest`.
        let hash = journal.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let erases: Vec<u64> = w
            .cluster()
            .osds
            .iter()
            .map(|o| o.ssd().wear().block_erases)
            .collect();
        assert_eq!(
            hash,
            0xb52f_9314_8167_807c,
            "{} journal bytes",
            journal.len()
        );
        assert_eq!(
            w.stats(),
            LiveStats {
                applied_ops: 1200,
                reads: 600,
                writes: 600,
                ticks: 13,
                migration_evaluations: 13,
                migrations_triggered: 13,
                failed_moves: 0,
                moved_objects: 54,
                moved_bytes: 7_077_888,
            }
        );
        assert_eq!(erases, [26, 23, 27, 31, 28, 27, 32, 26]);
    }

    #[test]
    fn backend_sees_every_move_at_every_obs_level() {
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events] {
            let mut w = LiveWorld::new(scenario()).unwrap();
            let mut obs = ServeRecorder::new(level, Box::new(MemBackend::new()));
            for line in dump_ops(w.scenario()).lines() {
                w.apply_line(line, &mut obs);
            }
            assert!(w.stats().moved_objects > 0, "{level:?}: nothing moved");
            assert_eq!(
                obs.backend().moves_applied(),
                w.stats().moved_objects,
                "{level:?}"
            );
        }
    }

    #[test]
    fn checkpoint_resume_converges_with_uninterrupted_run() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test scratch directory; its location never reaches simulation state"
        )]
        let dir = std::env::temp_dir().join(format!("edm-serve-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ops = dump_ops(&scenario());
        let lines: Vec<&str> = ops.lines().take(3000).collect();

        // Uninterrupted run.
        let mut a = LiveWorld::new(scenario()).unwrap();
        let mut obs_a = MemoryRecorder::new(ObsLevel::Metrics);
        for line in &lines {
            a.apply_line(line, &mut obs_a);
        }

        // Interrupted at op 1000, resumed, re-fed the FULL stream.
        let mut b1 = LiveWorld::new(scenario()).unwrap();
        let mut obs_b = MemoryRecorder::new(ObsLevel::Metrics);
        for line in lines.iter().take(1000) {
            b1.apply_line(line, &mut obs_b);
        }
        let path = b1.checkpoint_now(&dir).unwrap();
        drop(b1);
        let mut b2 = LiveWorld::resume(&path).unwrap();
        let mut obs_b2 = MemoryRecorder::new(ObsLevel::Metrics);
        for line in &lines {
            b2.apply_line(line, &mut obs_b2);
        }

        assert_eq!(b2.skipped_ops(), 1000);
        assert_eq!(a.stats(), b2.stats());
        assert_eq!(a.now_us(), b2.now_us());
        // Device-level state converges too: wear, placement, free space.
        for o in 0..a.cluster().config.osds {
            let (oa, ob) = (a.cluster().osd(OsdId(o)), b2.cluster().osd(OsdId(o)));
            assert_eq!(
                oa.ssd().wear().block_erases,
                ob.ssd().wear().block_erases,
                "osd {o}"
            );
            assert_eq!(oa.free_bytes(), ob.free_bytes(), "osd {o}");
            assert_eq!(oa.object_count(), ob.object_count(), "osd {o}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
