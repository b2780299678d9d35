//! The differential oracle panel.
//!
//! One scenario is executed several ways that the repo's contracts say
//! must agree exactly:
//!
//! | oracle               | what must hold                                          |
//! |----------------------|---------------------------------------------------------|
//! | `harness`            | a generated (valid) scenario runs without error          |
//! | `ftl_equiv`          | span and per-page FTL calls produce identical wear      |
//! | `obs_transparent`    | report digest identical with obs off vs `events`        |
//! | `policy_invariants`  | end-state cluster facts no journal replay sees          |
//! | `resume_digest`      | checkpoint at a wear tick + resume reproduces the digest |
//! | `snapshot_roundtrip` | snapshot decode→encode is byte-identical                |
//! | `shard_digest`       | group-sharded replay digest identical to sequential     |
//! | `journal_identity`   | group-sharded journal byte-identical to sequential      |
//! | `ingest_equiv`       | op stream through `LiveWorld` wears devices as the engine does |
//! | `spec_conformance`   | every journaled event is a legal edm-spec transition    |
//!
//! Journal legality — the §III.B.2 trigger, "migrate only towards
//! balance", the migration lifecycle — is edm-spec's alone; no oracle
//! here re-reads the journal's decisions.
//!
//! All checks are pure functions of the scenario (the only randomness —
//! which checkpoint to resume from — is seeded from the scenario text),
//! so a failure found at seed S replays from the `.scn` alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use edm_cluster::{ClientAffinity, MigrationSchedule, NoMigration, SimOptions};
use edm_harness::{report_digest, resume_snapshot, Scenario};
use edm_obs::{MemoryRecorder, NoopRecorder, ObsLevel};
use edm_serve::{dump_ops, ApplyOutcome, LiveWorld};
use edm_snap::SnapshotFile;
use edm_ssd::{Geometry, LatencyModel, Ssd};
use edm_workload::FileOp;

use crate::rng::Rng;

/// A failed oracle: which one, and a one-line diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    pub oracle: &'static str,
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Side statistics of a green battery (for throughput/coverage output).
#[derive(Debug, Clone, Default)]
pub struct OracleStats {
    pub checkpoints: usize,
    pub journal_events: usize,
    pub migrations_triggered: u64,
    pub failed_osds: usize,
    /// Per-kind event counts of the events run, as edm-spec tallied them.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Distinct component tags in the component-affinity journal.
    pub components: usize,
}

fn fail(oracle: &'static str, detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        oracle,
        detail: detail.into(),
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the full oracle battery for one scenario. `work_dir` hosts the
/// checkpoint files of the resume oracle (the caller owns cleanup of the
/// directory itself; the battery clears its own subdirectory first).
///
/// An engine panic inside any run is caught and reported as an
/// `engine_panic` oracle failure, so a crashing scenario shrinks like any
/// other instead of killing the fuzzing session.
pub fn check_scenario(s: &Scenario, work_dir: &Path) -> Result<OracleStats, OracleFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_scenario_impl(s, work_dir)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|m| (*m).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(fail("engine_panic", format!("simulation panicked: {msg}")))
    })
}

fn check_scenario_impl(s: &Scenario, work_dir: &Path) -> Result<OracleStats, OracleFailure> {
    let mut stats = OracleStats::default();

    // Reference run: observability off.
    let base = s
        .run()
        .map_err(|e| fail("harness", format!("baseline run failed: {e}")))?;
    let base_digest = report_digest(&base);

    // Differential run: full event journal on, end-state cluster kept.
    let mut rec = MemoryRecorder::new(ObsLevel::Events);
    let (obs_report, cluster) = s
        .run_with_obs_checkpointed_keep(&mut rec, None)
        .map_err(|e| fail("harness", format!("events run failed: {e}")))?;
    let obs_digest = report_digest(&obs_report);
    if obs_digest != base_digest {
        return Err(fail(
            "obs_transparent",
            format!(
                "digest {base_digest:#018x} with obs off vs {obs_digest:#018x} with events — \
                 recording perturbed the simulation"
            ),
        ));
    }
    stats.journal_events = rec.journal().len();
    stats.migrations_triggered = obs_report.migrations_triggered;
    stats.failed_osds = obs_report.failed_osds.len();

    check_policy_invariants(s, &rec, &obs_report, &cluster)?;

    stats.kind_counts = check_spec_conformance(&rec)?;

    check_resume_and_roundtrip(s, work_dir, base_digest, &mut stats)?;

    check_ftl_equivalence(s)?;

    stats.components = check_shard_digest(s)?;

    check_ingest_equiv(s)?;

    Ok(stats)
}

/// Oracle `spec_conformance`: the event journal of the obs run must be
/// accepted by the `edm-spec` abstract state machine — every event a
/// legal EDM transition (placement, remap bijection, migration
/// lifecycle, trigger semantics, plan consistency, GC/wear accounting).
/// Returns the journal's per-kind event counts.
fn check_spec_conformance(
    rec: &MemoryRecorder,
) -> Result<BTreeMap<&'static str, u64>, OracleFailure> {
    let text = journal_text(rec, "spec_conformance")?;
    let report = edm_spec::verify_journal(&text);
    if let Some(v) = report.violation {
        return Err(fail(
            "spec_conformance",
            format!("journal line {}: {}", v.line, v.message),
        ));
    }
    Ok(report.kind_counts)
}

fn journal_text(rec: &MemoryRecorder, oracle: &'static str) -> Result<String, OracleFailure> {
    let mut out = Vec::new();
    rec.write_jsonl(&mut out)
        .map_err(|e| fail(oracle, format!("journal render failed: {e}")))?;
    String::from_utf8(out).map_err(|e| fail(oracle, format!("journal is not UTF-8: {e}")))
}

/// Oracles `shard_digest` and `journal_identity`: the group-sharded
/// engine's contract is a bit-identical replay. The scenario is re-run
/// under component client affinity twice — once sequentially, once
/// sharded across two workers — and both the determinism digests and
/// the rendered event journals must match exactly (per-shard buffers
/// merge in fixed component order, so even the journal bytes may not
/// depend on worker scheduling). The sharded journal must additionally
/// satisfy the edm-spec state machine, exercising its component-tagged
/// path. The sharding gates may legitimately fall back to the
/// sequential path (CMT, midpoint schedule, a single placement
/// component); the checks then hold trivially, and the generator draws
/// inode strides so a share of scenarios genuinely exercise the
/// parallel path. Returns the journal's distinct component tags.
fn check_shard_digest(s: &Scenario) -> Result<usize, OracleFailure> {
    let mut seq = s.clone();
    seq.shards = 0;
    seq.affinity = ClientAffinity::Component;
    let mut par = seq.clone();
    par.shards = 2;
    let mut rec_a = MemoryRecorder::new(ObsLevel::Events);
    let a = seq
        .run_with_obs(&mut rec_a)
        .map_err(|e| fail("shard_digest", format!("sequential run failed: {e}")))?;
    let mut rec_b = MemoryRecorder::new(ObsLevel::Events);
    let b = par
        .run_with_obs(&mut rec_b)
        .map_err(|e| fail("shard_digest", format!("sharded run failed: {e}")))?;
    let (da, db) = (report_digest(&a), report_digest(&b));
    if da != db {
        return Err(fail(
            "shard_digest",
            format!(
                "digest {da:#018x} sequential vs {db:#018x} sharded — \
                 the group-sharded engine diverged from its replay contract"
            ),
        ));
    }
    let ja = journal_text(&rec_a, "journal_identity")?;
    let jb = journal_text(&rec_b, "journal_identity")?;
    if ja != jb {
        let line = ja
            .lines()
            .zip(jb.lines())
            .position(|(x, y)| x != y)
            .map_or_else(|| ja.lines().count().min(jb.lines().count()) + 1, |i| i + 1);
        return Err(fail(
            "journal_identity",
            format!(
                "sequential and sharded journals diverge at line {line} — \
                 shard-aware journaling is not scheduling-independent"
            ),
        ));
    }
    let report = edm_spec::verify_journal(&ja);
    if let Some(v) = report.violation {
        return Err(fail(
            "spec_conformance",
            format!("component-affinity journal line {}: {}", v.line, v.message),
        ));
    }
    Ok(report.components)
}

/// Oracle `ingest_equiv`: the ingest daemon and the batch engine service
/// a file op through the same `edm_cluster` functions, so the scenario's
/// op stream must wear the devices identically either way. The scenario
/// is re-run as a migration-free continuous run (`policy Baseline`,
/// `schedule every-tick`, no failures): once through [`LiveWorld`], line
/// by line as `POST /ingest` would, and once through the engine with a
/// single closed-loop client at concurrency 1, so each device sees its
/// sub-ops in stream order. Per OSD the host page writes and block
/// erases must agree, and both sides must have completed every read and
/// write. That is the whole of what is equal: the engine overlaps one
/// op's sub-ops across devices and charges MDS latency for opens and
/// closes, so the two clocks — hence the wear-tick instants, the `Wc`
/// windows they close, and anything a migrating policy would plan from
/// them — differ; `Wc` is therefore compared only while neither side
/// has closed a window.
fn check_ingest_equiv(s: &Scenario) -> Result<(), OracleFailure> {
    let bad = |detail: String| fail("ingest_equiv", detail);
    let mut s = s.clone();
    s.policy = "Baseline".into();
    s.schedule = MigrationSchedule::EveryTick;
    s.failures.clear();

    let mut live = LiveWorld::new(s.clone()).map_err(|e| bad(format!("live world: {e}")))?;
    for (no, line) in dump_ops(&s).lines().enumerate() {
        if let ApplyOutcome::Rejected(why) = live.apply_line(line, &mut NoopRecorder) {
            return Err(bad(format!("op line {}: {line:?} rejected: {why}", no + 1)));
        }
    }

    let trace = s.synth_trace();
    let mut cluster = s
        .build_cluster(&trace)
        .map_err(|e| bad(format!("cluster build: {e}")))?;
    cluster.config.clients = Some(1);
    cluster.config.client_concurrency = 1;
    let options = SimOptions {
        schedule: s.schedule,
        ..SimOptions::default()
    };
    let mut rec = MemoryRecorder::new(ObsLevel::Metrics);
    let (report, batch) =
        edm_cluster::run_trace_obs_keep(cluster, &trace, &mut NoMigration, options, &mut rec);

    let io_records = trace
        .records
        .iter()
        .filter(|r| matches!(r.op, FileOp::Read { .. } | FileOp::Write { .. }))
        .count() as u64;
    if live.stats().applied_ops != io_records || report.completed_ops != trace.records.len() as u64
    {
        return Err(bad(format!(
            "{} of {io_records} reads/writes applied live, {} of {} records completed in batch",
            live.stats().applied_ops,
            report.completed_ops,
            trace.records.len()
        )));
    }
    let windows_open = live.stats().ticks == 0 && rec.counter_value("sim.ticks") == 0;
    for (a, b) in live.cluster().osds.iter().zip(&batch.osds) {
        let (wa, wb) = (a.ssd().wear(), b.ssd().wear());
        if (wa.host_page_writes, wa.block_erases) != (wb.host_page_writes, wb.block_erases) {
            return Err(bad(format!(
                "{}: {} host page writes / {} erases live vs {} / {} in batch — \
                 the two op-service paths issued different device calls",
                a.id, wa.host_page_writes, wa.block_erases, wb.host_page_writes, wb.block_erases
            )));
        }
        if windows_open && a.wc_window_pages() != b.wc_window_pages() {
            return Err(bad(format!(
                "{}: Wc {} live vs {} in batch with no window closed",
                a.id,
                a.wc_window_pages(),
                b.wc_window_pages()
            )));
        }
    }
    Ok(())
}

/// Oracle `policy_invariants`: facts about the end state that no journal
/// replay sees. The end-state cluster satisfies its structural
/// invariants (capacity, one-to-one remap overlay, directory/catalog
/// agreement, RAID-5 group distinctness — except under CMT, which
/// balances load across group boundaries by design), and the migration
/// counters reconcile with the report and the write totals. The
/// journal's decisions (trigger verdicts, plan assessments) are
/// `spec_conformance`'s to check.
fn check_policy_invariants(
    s: &Scenario,
    rec: &MemoryRecorder,
    report: &edm_cluster::RunReport,
    cluster: &edm_cluster::Cluster,
) -> Result<(), OracleFailure> {
    cluster
        .check_invariants(&report.failed_osds, s.policy != "CMT")
        .map_err(|e| fail("policy_invariants", format!("end-state cluster: {e}")))?;

    let remap_len = cluster.catalog.remap().len() as u64;
    if report.remap_entries != remap_len {
        return Err(fail(
            "policy_invariants",
            format!(
                "report says {} remap entries but the catalog holds {remap_len}",
                report.remap_entries
            ),
        ));
    }
    let moved = rec.counter_value("sim.moved_objects");
    if moved != report.moved_objects {
        return Err(fail(
            "policy_invariants",
            format!(
                "journal counted {moved} completed moves but the report says {}",
                report.moved_objects
            ),
        ));
    }
    // Migration traffic must be accounted in the erase/write totals: every
    // migrated byte is re-written on its destination device, so host page
    // writes must at least cover the moved bytes.
    let page_size = cluster
        .osds
        .first()
        .map(|o| o.ssd().geometry().page_size)
        .unwrap_or(4096);
    let moved_bytes = rec.counter_value("sim.moved_bytes");
    let written_bytes = report.aggregate_write_pages().saturating_mul(page_size);
    if written_bytes < moved_bytes {
        return Err(fail(
            "policy_invariants",
            format!(
                "{moved_bytes} migrated bytes exceed {written_bytes} host-written bytes — \
                 migration traffic missing from wear accounting (scenario {})",
                s.policy
            ),
        ));
    }
    Ok(())
}

/// Oracles `resume_digest` and `snapshot_roundtrip`: re-run the scenario
/// cutting a checkpoint at every wear tick, resume from one of them
/// (seeded choice), and require the resumed digest — and the checkpointed
/// run's own digest — to equal the uninterrupted one. The chosen
/// checkpoint must also survive decode→encode byte-identically.
fn check_resume_and_roundtrip(
    s: &Scenario,
    work_dir: &Path,
    base_digest: u64,
    stats: &mut OracleStats,
) -> Result<(), OracleFailure> {
    let ckpt_dir = work_dir.join("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| {
        fail(
            "harness",
            format!("cannot create {}: {e}", ckpt_dir.display()),
        )
    })?;

    let (ck_report, _) = s
        .run_with_obs_checkpointed_keep(&mut NoopRecorder, Some((0, ckpt_dir.clone())))
        .map_err(|e| fail("harness", format!("checkpointed run failed: {e}")))?;
    let ck_digest = report_digest(&ck_report);
    if ck_digest != base_digest {
        return Err(fail(
            "resume_digest",
            format!(
                "digest {base_digest:#018x} plain vs {ck_digest:#018x} while cutting \
                 checkpoints — checkpointing perturbed the run"
            ),
        ));
    }

    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .map_err(|e| {
            fail(
                "harness",
                format!("cannot list {}: {e}", ckpt_dir.display()),
            )
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    snaps.sort();
    stats.checkpoints = snaps.len();
    if snaps.is_empty() {
        // Run too short to cross a wear tick — nothing to resume from.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        return Ok(());
    }

    // The only randomness of the battery, seeded from the scenario text so
    // a replayed `.scn` picks the same checkpoint.
    let mut pick_rng = Rng::new(fnv1a(&s.to_text()));
    let picked = match snaps.get(pick_rng.below(snaps.len() as u64) as usize) {
        Some(p) => p.clone(),
        None => {
            let _ = std::fs::remove_dir_all(&ckpt_dir);
            return Ok(());
        }
    };

    let bytes = std::fs::read(&picked)
        .map_err(|e| fail("harness", format!("cannot read {}: {e}", picked.display())))?;
    let snap = SnapshotFile::from_bytes(&bytes).map_err(|e| {
        fail(
            "snapshot_roundtrip",
            format!("{} does not decode: {e}", picked.display()),
        )
    })?;
    if snap.to_bytes() != bytes {
        return Err(fail(
            "snapshot_roundtrip",
            format!(
                "{} re-encodes to different bytes — snapshot encoding is not canonical",
                picked.display()
            ),
        ));
    }

    let (embedded, resumed) = resume_snapshot(&picked, &mut NoopRecorder)
        .map_err(|e| fail("resume_digest", format!("resume failed: {e}")))?;
    if embedded != *s {
        return Err(fail(
            "resume_digest",
            format!(
                "embedded scenario round-trips differently:\n{}vs\n{}",
                embedded.to_text(),
                s.to_text()
            ),
        ));
    }
    let resumed_digest = report_digest(&resumed);
    if resumed_digest != base_digest {
        return Err(fail(
            "resume_digest",
            format!(
                "digest {base_digest:#018x} uninterrupted vs {resumed_digest:#018x} resumed \
                 from {} ({} checkpoints)",
                picked.display(),
                snaps.len()
            ),
        ));
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}

/// Oracle `ftl_equiv`: the scenario's write stream, replayed against two
/// identical micro SSDs — one through extent-sized span calls, one split
/// into page-sized calls — must leave bit-identical wear state (the
/// span-batching contract of PR 1, here exercised on fuzzed streams
/// instead of the perf harness's fixed skew).
fn check_ftl_equivalence(s: &Scenario) -> Result<(), OracleFailure> {
    const MAX_EXTENTS: u64 = 20_000;
    let g = Geometry {
        page_size: 4096,
        pages_per_block: 32,
        blocks: 128,
        over_provision_ppt: 80,
    };
    let ps = g.page_size;
    // Keep the live range at ~55 % of exported space so GC has headroom
    // (the same regime the perf harness uses).
    let live_pages = (g.exported_pages() * 11 / 20).max(16);
    let mut span = Ssd::new(g, LatencyModel::PAPER);
    let mut pages = Ssd::new(g, LatencyModel::PAPER);

    let trace = s.synth_trace();
    let mut extents = 0u64;
    for r in &trace.records {
        let FileOp::Write { offset, len } = r.op else {
            continue;
        };
        let span_pages = (len / ps).clamp(1, 8);
        let start = (r.file.0.wrapping_mul(2654435761).wrapping_add(offset / ps))
            % (live_pages - span_pages + 1);
        span.write(start * ps, span_pages * ps, &mut NoopRecorder)
            .map_err(|e| fail("ftl_equiv", format!("span write failed: {e}")))?;
        for p in 0..span_pages {
            pages
                .write((start + p) * ps, ps, &mut NoopRecorder)
                .map_err(|e| fail("ftl_equiv", format!("per-page write failed: {e}")))?;
        }
        extents += 1;
        if extents >= MAX_EXTENTS {
            break;
        }
    }

    span.check_invariants()
        .map_err(|e| fail("ftl_equiv", format!("span-side SSD invariants: {e}")))?;
    pages
        .check_invariants()
        .map_err(|e| fail("ftl_equiv", format!("page-side SSD invariants: {e}")))?;
    if span.wear() != pages.wear() {
        return Err(fail(
            "ftl_equiv",
            format!(
                "wear diverged after {extents} extents from trace {}: span {:?} vs per-page {:?}",
                trace.name,
                span.wear(),
                pages.wear()
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_failure_renders_its_name() {
        let f = fail("resume_digest", "boom");
        assert_eq!(f.to_string(), "[resume_digest] boom");
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so the checkpoint pick (and thus replay behaviour) can
        // never drift silently.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
