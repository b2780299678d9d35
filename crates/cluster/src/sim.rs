//! The discrete-event replay engine.
//!
//! Closed-loop clients replay their share of the trace against serial
//! OSDs (§IV–§V.A): each client keeps exactly one file operation in
//! flight; a file operation fans out into object-level sub-requests via
//! RAID-5 striping; every OSD services its FIFO queue one request at a
//! time, charging flash latencies (and any garbage-collection stall) to
//! the request being serviced. Migration runs through the same queues —
//! one mover stream per source OSD, objects blocked while in flight
//! ("all the requests related to the objects being moved are blocked",
//! §V.D) — so migration traffic competes with foreground I/O exactly as
//! in the paper.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::path::{Path, PathBuf};

use edm_obs::{AsDynRecorder, Event as ObsEvent, Histogram, NoopRecorder, Recorder};
use edm_snap::{
    snapshot_struct, FlatMap, IdMap, SnapError, SnapReader, SnapWriter, Snapshot, SnapshotFile,
    TokenMap,
};
use edm_workload::{FileId, FileOp, Trace, TraceRecord};

use crate::cluster::Cluster;
use crate::config::MAX_OSDS;
use crate::ids::{ClientId, ObjectId, OsdId};
use crate::metrics::{ResponseSeries, RunReport, RunTallies};
use crate::migrate::{close_wc_window, plan_round, Migrator, MoveAction};
use crate::osd::OsdError;
use crate::pace::{SimTime, TimeSource, TimeStep};
use crate::shard::{component_map, component_scripts, Components};

/// When the engine consults the migration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationSchedule {
    /// Never ask (pure baseline, regardless of policy).
    Never,
    /// Once, when half of the trace records have completed — the paper
    /// enforces the shuffle "in the middle time point of trace replay"
    /// (§V.A).
    #[default]
    Midpoint,
    /// On every wear-monitor tick (continuous mode; an extension beyond
    /// the paper's forced-midpoint experiments).
    EveryTick,
}

/// An injected OSD failure (reliability experiments, §III.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureSpec {
    /// Virtual time at which the OSD dies.
    pub at_us: u64,
    pub osd: OsdId,
    /// Rebuild the lost objects onto surviving group members (RAID-5
    /// reconstruction from the k−1 sibling objects).
    pub rebuild: bool,
}

/// Periodic checkpointing of the full simulation state (see
/// [`resume_trace_obs_keep`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Virtual-time interval between checkpoints, µs. Checkpoints are cut
    /// at wear-monitor ticks (the only points with no mid-decision state),
    /// so the effective spacing is rounded up to whole ticks.
    pub every_us: u64,
    /// Directory receiving `ckpt_<now_us>.snap` files (atomic writes).
    pub dir: PathBuf,
    /// Opaque caller bytes stored in each snapshot's manifest — the
    /// harness records its scenario text and trace fingerprint here so a
    /// resumed process can verify it rebuilt the same world.
    pub meta: Vec<u8>,
}

/// How trace users are assigned to replay clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientAffinity {
    /// Users round-robin onto clients in order of first appearance (the
    /// paper's even assignment, §V.A).
    #[default]
    User,
    /// Users are grouped by placement component first (see
    /// [`crate::shard`]), so each client's records stay inside one
    /// component — the layout that lets group-sharded execution replay
    /// clients in parallel. Changes the assignment (and therefore the
    /// replay) relative to [`ClientAffinity::User`], identically for the
    /// sequential and sharded paths.
    Component,
}

/// Everything the engine needs besides the cluster itself.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    pub schedule: MigrationSchedule,
    /// OSD failures to inject during the replay.
    pub failures: Vec<FailureSpec>,
    /// Periodic full-state checkpoints; `None` disables them.
    pub checkpoint: Option<CheckpointConfig>,
    /// Worker threads for group-sharded parallel execution; 0 (default)
    /// runs the classic sequential loop. Sharding additionally requires
    /// [`ClientAffinity::Component`], a policy whose
    /// [`Migrator::parallel_safe`] holds, no checkpointing, a
    /// non-midpoint schedule, and ≥ 2 placement components — otherwise
    /// the run silently falls back to the sequential path. Reports are
    /// bit-identical either way.
    pub shards: u32,
    pub affinity: ClientAffinity,
}

/// The snapshot header: everything a tool needs to describe a checkpoint
/// without materializing the simulator. Always the first section of a
/// checkpoint file, decodable on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapManifest {
    /// Virtual time at which the checkpoint was cut.
    pub now_us: u64,
    pub completed_ops: u64,
    /// Trace records the run replays; for an open-ended ingest stream,
    /// the operations applied so far.
    pub total_records: u64,
    /// `Migrator::name()` of the policy that was driving the run.
    pub policy: String,
    /// Block erases per OSD at checkpoint time (the Fig. 6 trajectory).
    pub per_osd_erases: Vec<u64>,
    /// Opaque caller bytes ([`CheckpointConfig::meta`]).
    pub extra: Vec<u8>,
}

impl SnapManifest {
    /// Section name of the manifest inside a checkpoint file.
    pub const SECTION: &'static str = "manifest";

    /// Decodes just the manifest of a checkpoint (cheap: only this
    /// section's CRC is verified).
    pub fn from_snapshot(file: &SnapshotFile) -> Result<SnapManifest, SnapError> {
        file.decode(Self::SECTION)
    }
}

snapshot_struct!(SnapManifest {
    now_us,
    completed_ops,
    total_records,
    policy,
    per_osd_erases,
    extra
});

/// One checkpoint about to be cut, in the one container every checkpoint
/// uses: `manifest`, `cluster`, the host's own section (`engine` for the
/// replay engine, `serve-live` for the ingest world), `policy`.
/// [`restore_world`] reads back everything but the host's section.
pub struct CheckpointCut<'c, P: Migrator + ?Sized> {
    pub now_us: u64,
    pub completed_ops: u64,
    pub total_records: u64,
    /// Caller bytes for [`SnapManifest::extra`].
    pub extra: Vec<u8>,
    pub cluster: &'c Cluster,
    pub policy: &'c P,
    /// Name and body of the host's own section.
    pub host: (&'static str, SnapWriter),
}

impl<P: Migrator + ?Sized> CheckpointCut<'_, P> {
    /// Writes the checkpoint as `dir/ckpt_<now_us>.snap`, creating `dir`
    /// first, and returns the path: the one writer of checkpoint files.
    pub fn write(self, dir: &Path) -> Result<PathBuf, SnapError> {
        let manifest = SnapManifest {
            now_us: self.now_us,
            completed_ops: self.completed_ops,
            total_records: self.total_records,
            policy: self.policy.name().to_string(),
            per_osd_erases: self
                .cluster
                .osds
                .iter()
                .map(|o| o.ssd().wear().block_erases)
                .collect(),
            extra: self.extra,
        };
        let mut file = SnapshotFile::new();
        file.push(SnapManifest::SECTION, &manifest);
        file.push("cluster", self.cluster);
        file.push_section(self.host.0, self.host.1);
        let mut w = SnapWriter::new();
        self.policy.save_state(&mut w);
        file.push_section("policy", w);
        std::fs::create_dir_all(dir).map_err(|e| {
            SnapError::Io(format!("creating checkpoint dir {}: {e}", dir.display()))
        })?;
        let path = dir.join(format!("ckpt_{:020}.snap", self.now_us));
        file.write_to(&path)?;
        Ok(path)
    }
}

/// Restores the world a checkpoint was cut in: checks that `policy` is
/// the one the manifest names, decodes the `cluster` section, and loads
/// the `policy` section into `policy`. The host's own section is the
/// caller's to read.
pub fn restore_world(snap: &SnapshotFile, policy: &mut dyn Migrator) -> Result<Cluster, SnapError> {
    let manifest = SnapManifest::from_snapshot(snap)?;
    if manifest.policy != policy.name() {
        return Err(SnapError::Corrupt {
            section: SnapManifest::SECTION.into(),
            detail: format!(
                "checkpoint was cut under policy {:?}, cannot resume with {:?}",
                manifest.policy,
                policy.name()
            ),
        });
    }
    let cluster = snap.decode("cluster")?;
    let mut r = snap.reader("policy")?;
    policy.load_state(&mut r);
    r.finish("policy")?;
    Ok(cluster)
}

snapshot_struct!(MigrationSchedule { 0 = Never, 1 = Midpoint, 2 = EveryTick });

snapshot_struct!(FailureSpec {
    at_us,
    osd,
    rebuild
});

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// The OSD finished servicing its current sub-request.
    OsdDone { osd: u32 },
    /// The MDS finished the open/close of file operation `token`.
    MdsDone { token: u64 },
    /// Wear-monitor tick (§III.B.2).
    Tick,
    /// Injected OSD failure.
    Fail { osd: u32 },
}

#[derive(Debug, Clone, Copy)]
enum Payload {
    /// Part of file operation `token`.
    FileIo {
        token: u64,
        object: ObjectId,
        offset: u64,
        len: u64,
        write: bool,
        /// True when this sub-op was produced by degraded-mode expansion
        /// (RAID-5 reconstruction reads); degraded ops are never expanded
        /// again — hitting a second failed device means data loss.
        degraded: bool,
    },
    /// Migration: source-side read of one transfer chunk.
    MoveRead {
        object: ObjectId,
        offset: u64,
        len: u64,
    },
    /// Migration: destination-side write of one transfer chunk.
    MoveWrite {
        object: ObjectId,
        offset: u64,
        len: u64,
    },
    /// Rebuild: full read of one surviving sibling of a lost object.
    RebuildRead { lost: ObjectId, sibling: ObjectId },
    /// Rebuild: destination-side write of one reconstruction chunk.
    RebuildWrite {
        lost: ObjectId,
        offset: u64,
        len: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct SubReq {
    enqueued_us: u64,
    payload: Payload,
}

struct Inflight {
    client: ClientId,
    issued_us: u64,
    remaining: u32,
}

/// Progress of one lost-object reconstruction.
struct RebuildState {
    dest: OsdId,
    /// Sibling reads still outstanding before writing can start.
    pending_reads: u32,
    size: u64,
}

snapshot_struct!(Event {
    0 = OsdDone { osd },
    1 = MdsDone { token },
    2 = Tick,
    3 = Fail { osd },
});

/// The pending events, popped in `(at, seq)` order; `seq` is strictly
/// increasing, so the order is total. Each event is one 16-byte heap key:
/// `at` in the top 64 bits, `seq` in the next 40, then the event kind in
/// 2 bits and its OSD id in the low 22. An `MdsDone` token does not fit.
/// Every MDS op takes [`MDS_LATENCY_US`], so MDS completions fall due in
/// issue order, and their tokens wait in a FIFO beside the heap: the
/// front one belongs to the first MDS key to pop.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    /// `(at, token)` of every pending `MdsDone`, in push order.
    mds: VecDeque<(u64, u64)>,
    /// Sequence number of the last push.
    seq: u64,
}

impl EventQueue {
    const SEQ_BITS: u32 = 40;
    const OSD_BITS: u32 = MAX_OSDS.trailing_zeros();

    fn key(at: u64, seq: u64, ev: Event) -> u128 {
        let (kind, osd) = match ev {
            Event::OsdDone { osd } => (0, osd),
            Event::MdsDone { .. } => (1, 0),
            Event::Tick => (2, 0),
            Event::Fail { osd } => (3, osd),
        };
        debug_assert!(seq < 1 << Self::SEQ_BITS && osd < MAX_OSDS);
        (at as u128) << 64
            | (seq as u128) << (64 - Self::SEQ_BITS)
            | (kind << Self::OSD_BITS | osd) as u128
    }

    /// The 2-bit event kind of `key`: 1 is `MdsDone`.
    fn kind(key: u128) -> u32 {
        (key as u32 & ((1 << (64 - Self::SEQ_BITS)) - 1)) >> Self::OSD_BITS
    }

    /// The event of `key`; an `MdsDone` takes its token from `token`.
    fn decode(key: u128, token: Option<&(u64, u64)>) -> (u64, u64, Event) {
        let at = (key >> 64) as u64;
        let seq = (key >> (64 - Self::SEQ_BITS)) as u64 & ((1 << Self::SEQ_BITS) - 1);
        let osd = key as u32 & (MAX_OSDS - 1);
        let ev = match Self::kind(key) {
            0 => Event::OsdDone { osd },
            // FIFO and heap are filled together, so a token is always
            // there; `u64::MAX` is no live token, which `finish_subop`
            // would report.
            1 => {
                debug_assert_eq!(token.map(|t| t.0), Some(at), "MDS FIFO out of step");
                Event::MdsDone {
                    token: token.map_or(u64::MAX, |t| t.1),
                }
            }
            2 => Event::Tick,
            _ => Event::Fail { osd },
        };
        (at, seq, ev)
    }

    /// Enqueues `ev` at `at` under the next sequence number.
    fn push(&mut self, at: u64, ev: Event) {
        self.seq += 1;
        self.insert(at, self.seq, ev);
    }

    fn insert(&mut self, at: u64, seq: u64, ev: Event) {
        if let Event::MdsDone { token } = ev {
            debug_assert!(
                self.mds.back().is_none_or(|&(last, _)| last <= at),
                "MDS completions must fall due in issue order"
            );
            self.mds.push_back((at, token));
        }
        self.heap.push(Reverse(Self::key(at, seq, ev)));
    }

    /// Time of the earliest pending event.
    fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|k| (k.0 >> 64) as u64)
    }

    /// Removes and returns the earliest event as `(at, seq, event)`.
    fn pop(&mut self) -> Option<(u64, u64, Event)> {
        let Reverse(key) = self.heap.pop()?;
        let token = (Self::kind(key) == 1)
            .then(|| self.mds.pop_front())
            .flatten();
        Some(Self::decode(key, token.as_ref()))
    }

    /// Every pending event as the ascending `(at, seq, event)` list — the
    /// checkpoint's canonical form, whatever the heap's internal order.
    fn pending(&self) -> Vec<(u64, u64, Event)> {
        let mut keys: Vec<u128> = self.heap.iter().map(|k| k.0).collect();
        keys.sort_unstable();
        let mut tokens = self.mds.iter();
        let mut token_of = |key| (Self::kind(key) == 1).then(|| tokens.next()).flatten();
        keys.into_iter()
            .map(|key| Self::decode(key, token_of(key)))
            .collect()
    }

    /// Mirror of [`pending`](Self::pending) plus the last sequence number:
    /// refuses a list that is not strictly ascending in `(at, seq)`, runs
    /// past `seq` or its 40 bits, or names an OSD outside `osds`, so
    /// every key decodes to the event it was cut from.
    fn restore(
        &mut self,
        pending: Vec<(u64, u64, Event)>,
        seq: u64,
        osds: u32,
    ) -> Result<(), String> {
        let ascending = pending.is_sorted_by(|a, b| (a.0, a.1) < (b.0, b.1));
        let fits = |&(_, s, ev): &(u64, u64, Event)| {
            s <= seq
                && !matches!(ev, Event::OsdDone { osd: o } | Event::Fail { osd: o } if o >= osds)
        };
        if seq >= 1 << Self::SEQ_BITS || !ascending || !pending.iter().all(fits) {
            return Err(format!(
                "{} pending events up to seq {seq} are no queue of {osds} OSDs",
                pending.len()
            ));
        }
        for (at, s, ev) in pending {
            self.insert(at, s, ev);
        }
        self.seq = seq;
        Ok(())
    }
}

snapshot_struct!(Payload {
    0 = FileIo { token, object, offset, len, write, degraded },
    1 = MoveRead { object, offset, len },
    2 = MoveWrite { object, offset, len },
    3 = RebuildRead { lost, sibling },
    4 = RebuildWrite { lost, offset, len },
});

snapshot_struct!(SubReq {
    enqueued_us,
    payload
});

snapshot_struct!(Inflight {
    client,
    issued_us,
    remaining
});

snapshot_struct!(RebuildState {
    dest,
    pending_reads,
    size
});

/// Component ownership tables for shard-aware journaling: which
/// placement component each OSD and each client slot belongs to. Derived
/// state — a pure function of (cluster, trace, options) — so it is never
/// snapshotted and resume rebuilds it.
#[derive(Clone)]
pub(crate) struct CompTags {
    of_osd: Vec<u32>,
    of_client: Vec<u32>,
}

impl CompTags {
    fn build(components: &Components, osds: u32, scripts: &ClientScripts) -> CompTags {
        let of_osd = (0..osds)
            .map(|o| components.of_osd(OsdId(o)) as u32)
            .collect();
        // A component-affine script stays inside one component, so its
        // first op's file names it. Empty scripts never journal anything.
        let of_client = scripts
            .scripts
            .iter()
            .map(|s| {
                s.first()
                    .map_or(0, |op| components.of_file(scripts.file(*op)) as u32)
            })
            .collect();
        CompTags { of_osd, of_client }
    }
}

/// One trace record as a client issues it, in 16 bytes: the extent, and
/// one word holding the op kind (low 2 bits) and the file's slot in
/// [`ClientScripts::files`] (the rest). Open and close carry no extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScriptOp {
    offset: u64,
    len: u32,
    kind_slot: u32,
}

impl ScriptOp {
    const KIND_BITS: u32 = 2;

    /// The trace op this script op replays.
    pub(crate) fn op(self) -> FileOp {
        let (offset, len) = (self.offset, self.len as u64);
        match self.kind_slot & ((1 << Self::KIND_BITS) - 1) {
            0 => FileOp::Open,
            1 => FileOp::Close,
            2 => FileOp::Read { offset, len },
            _ => FileOp::Write { offset, len },
        }
    }

    fn slot(self) -> usize {
        (self.kind_slot >> Self::KIND_BITS) as usize
    }
}

/// The client side of a replay: the ops each client slot issues, in
/// order, the files they name, and — under [`ClientAffinity::Component`]
/// — the journal tags that go with them. Built once per run, walking the
/// whole trace; [`new_engine`] takes it as given.
pub(crate) struct ClientScripts {
    pub(crate) scripts: Vec<Vec<ScriptOp>>,
    /// The distinct files of the trace, by slot.
    pub(crate) files: Vec<FileId>,
    pub(crate) tags: Option<CompTags>,
}

impl ClientScripts {
    /// The assignment `options.affinity` asks for.
    pub(crate) fn build(cluster: &Cluster, trace: &Trace, affinity: ClientAffinity) -> Self {
        match affinity {
            ClientAffinity::User => {
                let clients = cluster.config.client_count();
                let records = edm_workload::replay::assign_clients(trace, clients);
                Self::carve(cluster, clients as usize, records)
            }
            ClientAffinity::Component => {
                Self::by_component(&component_map(cluster, trace), cluster, trace)
            }
        }
    }

    /// The component-affine assignment over an already computed map.
    pub(crate) fn by_component(components: &Components, cluster: &Cluster, trace: &Trace) -> Self {
        let (clients, records) =
            component_scripts(components, trace, cluster.config.client_count());
        let mut scripts = Self::carve(cluster, clients, records);
        scripts.tags = Some(CompTags::build(components, cluster.config.osds, &scripts));
        scripts
    }

    /// Carves `clients` scripts out of `(client, record)` pairs given in
    /// trace order. Each distinct file gets a slot, and is checked
    /// against the catalog, the first time it appears.
    fn carve<'t>(
        cluster: &Cluster,
        clients: usize,
        records: impl Iterator<Item = (u32, &'t TraceRecord)>,
    ) -> Self {
        let mut scripts = vec![Vec::new(); clients];
        let mut files = Vec::new();
        let mut slots: IdMap<FileId, u32> = IdMap::default();
        for (client, r) in records {
            let slot = *slots.entry(r.file).or_insert_with(|| {
                let known = cluster.catalog.file(r.file).is_some();
                assert!(known, "trace references unknown file {:?}", r.file);
                // A catalog of 2^30 files would not fit in memory.
                debug_assert!(files.len() < 1 << (32 - ScriptOp::KIND_BITS));
                files.push(r.file);
                files.len() as u32 - 1
            });
            let (kind, offset, len) = match r.op {
                FileOp::Open => (0, 0, 0),
                FileOp::Close => (1, 0, 0),
                FileOp::Read { offset, len } => (2, offset, len),
                FileOp::Write { offset, len } => (3, offset, len),
            };
            assert!(
                len <= u32::MAX as u64,
                "record of {len} bytes does not fit a script op (Trace::validate refuses it)"
            );
            scripts[client as usize].push(ScriptOp {
                offset,
                len: len as u32,
                kind_slot: slot << ScriptOp::KIND_BITS | kind,
            });
        }
        ClientScripts {
            scripts,
            files,
            tags: None,
        }
    }

    /// The file `op` names.
    pub(crate) fn file(&self, op: ScriptOp) -> FileId {
        self.files[op.slot()]
    }
}

/// Where [`Engine::run_until_pause`] handed control back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pause {
    /// A wear-monitor tick was popped (time already advanced to it); the
    /// caller runs the tick body before resuming.
    Tick,
    /// The event queue is empty.
    Done,
}

/// Fixed cost of one sub-request at an OSD on top of its device time,
/// µs: the network hop and request processing of the §IV pNFS/osc-osd
/// testbed, which the simulator does not model otherwise. Read by
/// `Engine::start_service` (and the ingest daemon's serialized service).
pub const OSD_OVERHEAD_US: u64 = 30;

/// Service time of a metadata (open/close) operation at the MDS, µs
/// (§II.A's pNFS metadata server). Read by `Engine::issue_next`.
const MDS_LATENCY_US: u64 = 200;

/// Transfer chunk of the data mover of Fig. 4, bytes: moves and rebuilds
/// stream through the OSD queues chunk by chunk so a large object does
/// not hold a destination's head of line for its whole transfer.
const MOVE_CHUNK_BYTES: u64 = 256 * 1024;

/// The replay engine, generic over its policy and observability sinks so
/// the group-sharded runner can instantiate it with owned, `Send` types
/// (an access buffer + a memory recorder) while the public entry points
/// keep using trait objects. Behaviour is identical for both.
pub(crate) struct Engine<'a, P: Migrator + ?Sized, R: Recorder + AsDynRecorder + ?Sized> {
    pub(crate) cluster: Cluster,
    trace: &'a Trace,
    pub(crate) policy: &'a mut P,
    options: SimOptions,
    /// Observability sink. The engine owns the journal clock (`set_now`
    /// on every dispatched event) and the device scope around device ops;
    /// recording is read-only so behaviour is identical at every level.
    pub(crate) obs: &'a mut R,

    /// Pending events, popped in `(at, seq)` order.
    queue: EventQueue,
    pub(crate) now: u64,

    scripts: Vec<Vec<ScriptOp>>,
    /// The files `scripts` name, by slot.
    files: Vec<FileId>,
    cursors: Vec<usize>,
    /// File ops currently in flight per client (bounded by the configured
    /// concurrency — the multi-threaded replayer of §IV).
    outstanding: Vec<u32>,

    inflight: TokenMap<Inflight>,
    next_token: u64,

    queues: Vec<VecDeque<SubReq>>,
    current: Vec<Option<SubReq>>,

    /// Whether in-flight moves block requests (policy property).
    blocking_moves: bool,
    /// Objects whose move is in flight → parked sub-requests (always
    /// empty lists when moves are non-blocking).
    moving: FlatMap<ObjectId, Vec<SubReq>>,
    /// Source OSD and destination of each in-flight move.
    move_routes: FlatMap<ObjectId, MoveAction>,
    /// Pending moves per source OSD (one stream per source).
    move_queues: Vec<VecDeque<MoveAction>>,

    /// In-flight rebuilds of lost objects.
    rebuilds: FlatMap<ObjectId, RebuildState>,

    /// Everything counted toward the report, failed-OSD flags included.
    pub(crate) tally: RunTallies,
    pub(crate) total_records: u64,
    migration_fired: bool,
    /// Virtual time of the last checkpoint cut (0 = none yet).
    last_ckpt_us: u64,
    /// Where the last `run_until_pause` stopped — written by the engine
    /// itself so the sharded runner needs no cross-thread channel to
    /// collect it.
    pub(crate) paused: Pause,
    /// Component tags for shard-aware journaling (see [`CompTags`]);
    /// `None` unless the run is component-affine with the journal on.
    comp_tags: Option<CompTags>,
}

impl<'a, P: Migrator + ?Sized, R: Recorder + AsDynRecorder + ?Sized> Engine<'a, P, R> {
    fn push(&mut self, at: u64, ev: Event) {
        self.queue.push(at, ev);
    }

    /// Tags subsequent journal entries with the component that owns
    /// `osd`. No-op outside component-affine journaling runs.
    fn scope_component_osd(&mut self, osd: OsdId) {
        if let Some(tags) = &self.comp_tags {
            self.obs.set_component(Some(tags.of_osd[osd.0 as usize]));
        }
    }

    /// Tags subsequent journal entries with `client`'s component.
    fn scope_component_client(&mut self, client: ClientId) {
        if let Some(tags) = &self.comp_tags {
            self.obs
                .set_component(Some(tags.of_client[client.0 as usize]));
        }
    }

    /// Clears the component tag: work the sharded coordinator would run
    /// itself (the tick body, migration planning) journals untagged in
    /// both engines, which is what makes the serialized journals
    /// byte-identical.
    fn scope_component_none(&mut self) {
        if self.comp_tags.is_some() {
            self.obs.set_component(None);
        }
    }

    /// Issues records for `client` until its concurrency window is full
    /// or its script is exhausted.
    fn fill_client(&mut self, client: ClientId) {
        let limit = self.cluster.config.client_concurrency;
        while self.outstanding[client.0 as usize] < limit && self.issue_next(client) {}
    }

    /// Issues the client's next record; returns false when the script is
    /// exhausted.
    fn issue_next(&mut self, client: ClientId) -> bool {
        let c = client.0 as usize;
        let Some(&op) = self.scripts[c].get(self.cursors[c]) else {
            return false; // this client is done
        };
        self.cursors[c] += 1;
        self.outstanding[c] += 1;
        let token = self.next_token;
        self.next_token += 1;
        match op.op() {
            FileOp::Open | FileOp::Close => {
                self.inflight.insert(
                    token,
                    Inflight {
                        client,
                        issued_us: self.now,
                        remaining: 1,
                    },
                );
                let at = self.now + MDS_LATENCY_US;
                self.push(at, Event::MdsDone { token });
            }
            kind @ (FileOp::Read { offset, len } | FileOp::Write { offset, len }) => {
                let subops = self.cluster.file_subops(
                    self.files[op.slot()],
                    offset,
                    len,
                    kind.is_write(),
                    self.now,
                );
                debug_assert!(subops.len() > 0);
                self.inflight.insert(
                    token,
                    Inflight {
                        client,
                        issued_us: self.now,
                        remaining: subops.len() as u32,
                    },
                );
                for (io, access) in subops {
                    self.policy.on_access(access);
                    let sub = SubReq {
                        enqueued_us: self.now,
                        payload: Payload::FileIo {
                            token,
                            object: access.object,
                            offset: io.offset,
                            len: io.len,
                            write: io.kind.is_write(),
                            degraded: false,
                        },
                    };
                    self.route(sub);
                }
            }
        }
        true
    }

    /// Routes a sub-request to the current location of its object, parking
    /// it if the object is being moved, and falling back to degraded
    /// RAID-5 service when the object's device has failed.
    fn route(&mut self, sub: SubReq) {
        let object = match sub.payload {
            Payload::FileIo { object, .. } => object,
            // Move I/Os carry explicit endpoints and are enqueued directly.
            #[expect(
                clippy::unreachable,
                reason = "routing invariant: mover payloads are enqueued directly, never routed"
            )]
            _ => unreachable!("move I/O must not be routed"),
        };
        if self.blocking_moves {
            if let Some(parked) = self.moving.get_mut(&object) {
                parked.push(sub);
                return;
            }
        }
        let osd = self.cluster.catalog.locate(object);
        if self.tally.failed[osd.0 as usize] {
            self.degrade(sub);
            return;
        }
        self.enqueue(osd, sub);
    }

    /// Serves a sub-request whose target object lives on a failed device:
    /// RAID-5 reconstructs the lost unit from the same extent of the k−1
    /// sibling objects (our layout puts a stripe row at the same offset in
    /// every object of the file). A write additionally updates one
    /// surviving sibling (the row's redundancy). A degraded op that hits a
    /// *second* failed device is data loss: it completes immediately and
    #[expect(
        clippy::unreachable,
        reason = "degraded handling is only reached from the FileIo dispatch arm"
    )]
    /// is counted in `lost_ops`.
    fn degrade(&mut self, sub: SubReq) {
        let Payload::FileIo {
            token,
            object,
            offset,
            len,
            write,
            degraded,
        } = sub.payload
        else {
            unreachable!("only file I/O can be degraded");
        };
        if degraded {
            // Second failure on the same stripe: RAID-5 cannot recover.
            self.tally.lost_ops += 1;
            self.finish_subop(token);
            return;
        }
        let (file, _) = self.cluster.catalog.placement().object_owner(object);
        #[expect(
            clippy::expect_used,
            reason = "catalog invariant: every placed object belongs to a cataloged file"
        )]
        let siblings: Vec<ObjectId> = self
            .cluster
            .catalog
            .file(file)
            .expect("degraded object has a file")
            .objects
            .iter()
            .copied()
            .filter(|&o| o != object)
            .collect();
        let alive: Vec<ObjectId> = siblings
            .iter()
            .copied()
            .filter(|&o| {
                let loc = self.cluster.catalog.locate(o);
                !self.tally.failed[loc.0 as usize]
            })
            .collect();
        if alive.is_empty() {
            self.tally.lost_ops += 1;
            self.finish_subop(token);
            return;
        }
        self.tally.degraded_ops += 1;
        // Reconstruction: read the extent on every surviving sibling; a
        // write turns the last of them into the redundancy update.
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: sub-ops outlive their parent op until the last completion"
        )]
        let op = self
            .inflight
            .get_mut(token)
            .expect("degraded sub-op has an op");
        op.remaining += alive.len() as u32 - 1;
        let last = alive.len() - 1;
        for (i, sibling) in alive.into_iter().enumerate() {
            let sub = SubReq {
                enqueued_us: sub.enqueued_us,
                payload: Payload::FileIo {
                    token,
                    object: sibling,
                    offset,
                    len,
                    write: write && i == last,
                    degraded: true,
                },
            };
            self.route(sub);
        }
    }

    /// Queues a foreground sub-op. Its queue events carry the OSD's
    /// component, not the caller's scope, which may be none (after a
    /// midpoint plan in `finish_subop`) or a client's whose object CMT
    /// moved into another component: the journal's `(t_us, comp)` merge
    /// must keep each OSD's enqueues and dequeues in order.
    fn enqueue(&mut self, osd: OsdId, sub: SubReq) {
        self.scope_component_osd(osd);
        let o = osd.0 as usize;
        self.queues[o].push_back(sub);
        self.tally.peak_queue_depth[o] =
            self.tally.peak_queue_depth[o].max(self.queues[o].len() as u64);
        self.obs.counter("sim.subops_enqueued", 1);
        if self.obs.events_on() {
            self.obs.event(ObsEvent::OpEnqueue {
                osd: osd.0,
                depth: self.queues[o].len() as u64,
                mover: false,
            });
        }
        if self.current[o].is_none() {
            self.start_service(osd);
        }
    }

    /// Enqueues a mover chunk at the head of the queue: the data mover is
    /// a dedicated stream, and serving it first keeps the window during
    /// which an object is blocked as short as possible (one foreground
    /// request may still be mid-service ahead of it).
    fn enqueue_mover(&mut self, osd: OsdId, sub: SubReq) {
        self.scope_component_osd(osd);
        self.queues[osd.0 as usize].push_front(sub);
        self.obs.counter("sim.mover_chunks_enqueued", 1);
        if self.obs.events_on() {
            self.obs.event(ObsEvent::OpEnqueue {
                osd: osd.0,
                depth: self.queues[osd.0 as usize].len() as u64,
                mover: true,
            });
        }
        if self.current[osd.0 as usize].is_none() {
            self.start_service(osd);
        }
    }

    /// Pops the head of the OSD queue, performs the device operation, and
    /// schedules its completion. Scoped to the OSD's component like
    /// [`enqueue`](Self::enqueue): a completion handler may have queued
    /// on another component's OSD before this OSD's next service starts.
    fn start_service(&mut self, osd: OsdId) {
        self.scope_component_osd(osd);
        let o = osd.0 as usize;
        debug_assert!(self.current[o].is_none(), "OSD {osd} double-booked");
        let Some(sub) = self.queues[o].pop_front() else {
            return;
        };
        if self.obs.events_on() {
            self.obs.event(ObsEvent::OpDequeue {
                osd: osd.0,
                depth: self.queues[o].len() as u64,
            });
        }
        // Scope FTL events from the device op to this OSD.
        self.obs.set_device(Some(osd.0));
        let obs = self.obs.as_dyn_mut();
        let dev = &mut self.cluster.osds[o];
        #[expect(
            clippy::panic,
            reason = "a failed device op means corrupted simulator state; aborting beats mis-simulating"
        )]
        let device = match sub.payload {
            Payload::FileIo {
                object,
                offset,
                len,
                write,
                ..
            } => {
                if write {
                    dev.write_object_obs(object, offset, len, obs)
                } else {
                    dev.read_object(object, offset, len)
                }
            }
            Payload::MoveRead {
                object,
                offset,
                len,
            } => dev.read_object(object, offset, len),
            Payload::MoveWrite {
                object,
                offset,
                len,
            } => dev.write_object_obs(object, offset, len, obs),
            Payload::RebuildRead { sibling, .. } => dev.read_whole_object(sibling),
            Payload::RebuildWrite { lost, offset, len } => {
                dev.write_object_obs(lost, offset, len, obs)
            }
        }
        .unwrap_or_else(|e| panic!("device op failed on {osd}: {e}"));
        self.obs.set_device(None);
        let service = OSD_OVERHEAD_US + device.as_micros();
        self.tally.busy_us[o] += service;
        self.current[o] = Some(sub);
        self.push(self.now + service, Event::OsdDone { osd: osd.0 });
    }

    fn on_osd_done(&mut self, osd: OsdId) {
        let o = osd.0 as usize;
        #[expect(
            clippy::expect_used,
            reason = "engine invariant: a completion event implies a request in service"
        )]
        let sub = self.current[o].take().expect("completion without service");
        let sojourn = self.now - sub.enqueued_us;
        self.cluster.osds[o].record_service(sojourn);
        self.obs.latency("subop_sojourn_us", sojourn);
        match sub.payload {
            Payload::FileIo { token, .. } => self.finish_subop(token),
            Payload::MoveRead {
                object,
                offset,
                len,
            } => self.on_move_read_done(object, offset, len),
            Payload::MoveWrite {
                object,
                offset,
                len,
            } => self.on_move_write_done(object, offset, len),
            Payload::RebuildRead { lost, .. } => self.on_rebuild_read_done(lost),
            Payload::RebuildWrite { lost, offset, len } => {
                self.on_rebuild_write_done(lost, offset, len)
            }
        }
        // The completion handler may already have restarted this OSD (a
        // released client can enqueue straight back onto it); only start
        // the next service if the device is still idle. A failed device
        // never resumes service.
        if !self.tally.failed[o] && self.current[o].is_none() && !self.queues[o].is_empty() {
            self.start_service(osd);
        }
    }

    /// One sibling read of a rebuild finished; once all have, start the
    /// chunked reconstruction writes at the destination.
    fn on_rebuild_read_done(&mut self, lost: ObjectId) {
        // A later failure may have aborted this rebuild while the sibling
        // read was in flight; the read then completes as a harmless no-op.
        let Some(state) = self.rebuilds.get_mut(&lost) else {
            return;
        };
        state.pending_reads -= 1;
        if state.pending_reads > 0 {
            return;
        }
        let (dest, size) = (state.dest, state.size);
        let chunk = size.clamp(1, MOVE_CHUNK_BYTES);
        let sub = SubReq {
            enqueued_us: self.now,
            payload: Payload::RebuildWrite {
                lost,
                offset: 0,
                len: chunk,
            },
        };
        self.enqueue(dest, sub);
    }

    /// One reconstruction chunk landed; continue or finalize the rebuild.
    fn on_rebuild_write_done(&mut self, lost: ObjectId, offset: u64, len: u64) {
        // Aborted by a later failure while this chunk was in service.
        let Some(state) = self.rebuilds.get(&lost) else {
            return;
        };
        let (dest, size) = (state.dest, state.size);
        let next = offset + len;
        if next < size {
            let chunk = (size - next).min(MOVE_CHUNK_BYTES);
            let sub = SubReq {
                enqueued_us: self.now,
                payload: Payload::RebuildWrite {
                    lost,
                    offset: next,
                    len: chunk,
                },
            };
            self.enqueue(dest, sub);
            return;
        }
        self.rebuilds.remove(&lost);
        self.cluster.catalog.record_move(lost, dest);
        // Built at every obs level: the daemon's backend applies rebuilds
        // from this event, and recorders below `events` drop it after.
        self.obs.event(ObsEvent::RebuildFinish {
            object: lost.0,
            dest: dest.0,
            bytes: size,
        });
        if self.obs.events_on() {
            self.obs.event(ObsEvent::RemapUpdate {
                object: lost.0,
                dest: dest.0,
            });
        }
        self.tally.rebuilt_objects += 1;
        self.tally.last_completion_us = self.now;
    }

    fn finish_subop(&mut self, token: u64) {
        let done = {
            #[expect(
                clippy::expect_used,
                reason = "engine invariant: sub-op tokens are removed only at the final completion"
            )]
            let inflight = self
                .inflight
                .get_mut(token)
                .expect("sub-op for unknown file op");
            inflight.remaining -= 1;
            inflight.remaining == 0
        };
        if done {
            #[expect(
                clippy::expect_used,
                reason = "same map was read two lines above; token is present"
            )]
            let inflight = self.inflight.remove(token).expect("just seen");
            let response = self.now - inflight.issued_us;
            self.tally.responses.record(self.now, response);
            self.tally.response_hist.record(response);
            self.tally.last_completion_us = self.now;
            self.outstanding[inflight.client.0 as usize] -= 1;
            if self.options.schedule == MigrationSchedule::Midpoint
                && !self.migration_fired
                && self.tally.response_hist.count() * 2 >= self.total_records
            {
                self.migration_fired = true;
                self.fire_migration();
            }
            self.fill_client(inflight.client);
        }
    }

    /// A source chunk has been read: write it on the destination.
    fn on_move_read_done(&mut self, object: ObjectId, offset: u64, len: u64) {
        let Some(&action) = self.move_routes.get(&object) else {
            return; // move aborted by a failure mid-chunk
        };
        let sub = SubReq {
            enqueued_us: self.now,
            payload: Payload::MoveWrite {
                object,
                offset,
                len,
            },
        };
        self.enqueue_mover(action.dest, sub);
    }

    /// A destination chunk has been written: continue with the next chunk
    /// or finalize the move.
    fn on_move_write_done(&mut self, object: ObjectId, offset: u64, len: u64) {
        let Some(&action) = self.move_routes.get(&object) else {
            return; // move aborted by a failure mid-chunk
        };
        #[expect(
            clippy::expect_used,
            reason = "move invariant: move completions only arrive for tracked moves"
        )]
        let size = self
            .cluster
            .object_size(object)
            .expect("moving unknown object");
        let next = offset + len;
        if next < size {
            let chunk = (size - next).min(MOVE_CHUNK_BYTES);
            let sub = SubReq {
                enqueued_us: self.now,
                payload: Payload::MoveRead {
                    object,
                    offset: next,
                    len: chunk,
                },
            };
            self.enqueue_mover(action.source, sub);
            return;
        }
        // The rest edits the source's queue without queue events; the
        // spec learns of it from `migration_finish`, which must therefore
        // sort with the source's component, not the destination's.
        self.scope_component_osd(action.source);
        // Requests for this object still queued at the source — enqueued
        // before the move started (mover chunks overtake them in the
        // queue), or during it for non-blocking lazy copies — must be
        // redirected to the destination before the source copy disappears.
        // That includes rebuild reads of this object as a surviving
        // sibling: a failure elsewhere enqueues them at the object's
        // location at failure time, which this move has just vacated.
        let mut redirected = Vec::new();
        {
            let queue = &mut self.queues[action.source.0 as usize];
            let mut i = 0;
            while i < queue.len() {
                let matches = matches!(
                    queue[i].payload,
                    Payload::FileIo { object: o, .. } if o == object
                ) || matches!(
                    queue[i].payload,
                    Payload::RebuildRead { sibling, .. } if sibling == object
                );
                if matches {
                    #[expect(
                        clippy::expect_used,
                        reason = "index comes from position() on the same queue"
                    )]
                    redirected.push(queue.remove(i).expect("index checked"));
                } else {
                    i += 1;
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "move invariant: the source copy is dropped only after the move completes"
        )]
        self.cluster
            .finish_move(action, self.obs.as_dyn_mut())
            .expect("source copy must exist until the move completes");
        self.tally.moved_objects += 1;
        // No tally holds the moved bytes: this is their only count.
        self.obs.counter("sim.moved_bytes", size);
        self.tally.last_completion_us = self.now;
        self.unblock(object);
        for sub in redirected {
            match sub.payload {
                // Rebuild reads are bound to a device, not routed through
                // the catalog: send them to the sibling's new home.
                Payload::RebuildRead { .. } => self.enqueue(action.dest, sub),
                _ => self.route(sub),
            }
        }
        self.start_next_move(action.source);
    }

    /// Releases the sub-requests parked on a finished (or aborted) move.
    fn unblock(&mut self, object: ObjectId) {
        self.move_routes.remove(&object);
        let parked = self.moving.remove(&object).unwrap_or_default();
        for sub in parked {
            self.route(sub);
        }
    }

    /// Starts the next queued move of one source OSD, if any: allocates
    /// the destination copy and issues the first transfer chunk.
    fn start_next_move(&mut self, source: OsdId) {
        // Moves are component-local work even when the kick comes from
        // the (untagged) migration-planning scope.
        self.scope_component_osd(source);
        let Some(action) = self.move_queues[source.0 as usize].pop_front() else {
            return;
        };
        let size = match self.cluster.begin_move(action, self.obs.as_dyn_mut()) {
            Ok(size) => size,
            Err(OsdError::NoSpace { .. }) => {
                // Destination filled up since planning: skip this move.
                self.start_next_move(source);
                return;
            }
            #[expect(
                clippy::panic,
                reason = "a failed accepted move means corrupted simulator state; aborting beats mis-simulating"
            )]
            Err(e) => panic!("move of {} to {}: {e}", action.object, action.dest),
        };
        self.moving.insert(action.object, Vec::new());
        self.move_routes.insert(action.object, action);
        let chunk = size.clamp(1, MOVE_CHUNK_BYTES);
        let sub = SubReq {
            enqueued_us: self.now,
            payload: Payload::MoveRead {
                object: action.object,
                offset: 0,
                len: chunk,
            },
        };
        self.enqueue_mover(action.source, sub);
    }

    /// Kills an OSD: drops its queue (re-routing foreground requests into
    /// degraded mode), aborts moves touching it, and — when requested —
    /// starts RAID-5 reconstruction of its objects onto surviving group
    /// members.
    fn on_failure(&mut self, osd: OsdId) {
        let o = osd.0 as usize;
        if self.tally.failed[o] {
            return;
        }
        self.tally.failed[o] = true;
        if self.obs.events_on() {
            self.obs.event(ObsEvent::DeviceFailed { osd: osd.0 });
        }

        // Abort every in-flight move that touches the dead device. The
        // routes live in a sorted map so this iterates in ascending object
        // order — the order partial copies are dropped and requests
        // unparked is part of replayed state.
        let touched: Vec<ObjectId> = self
            .move_routes
            .iter()
            .filter(|(_, a)| a.source == osd || a.dest == osd)
            .map(|(&obj, _)| obj)
            .collect();
        for obj in touched {
            #[expect(
                clippy::expect_used,
                reason = "key collected from the same map two lines above"
            )]
            let action = *self.move_routes.get(&obj).expect("aborted move is tracked");
            // Drop the half-written destination copy (unless the dest
            // itself is the dead device, whose state no longer matters).
            if action.dest != osd && self.cluster.osds[action.dest.0 as usize].has_object(obj) {
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by has_object on the line above"
                )]
                self.cluster.osds[action.dest.0 as usize]
                    .remove_object(obj)
                    .expect("partial move copy exists");
            }
            self.obs.counter("sim.aborted_moves", 1);
            if self.obs.events_on() {
                #[expect(
                    clippy::expect_used,
                    reason = "move invariant: in-flight moves track cataloged objects"
                )]
                let bytes = self
                    .cluster
                    .object_size(obj)
                    .expect("aborted move's object is cataloged");
                self.obs.event(ObsEvent::MigrationAbort {
                    object: obj.0,
                    source: action.source.0,
                    dest: action.dest.0,
                    bytes,
                });
            }
            self.unblock(obj);
        }
        self.move_queues[o].clear();
        for q in &mut self.move_queues {
            q.retain(|a| a.dest != osd);
        }
        // Purge mover chunks touching the dead device from every queue,
        // then re-route the dead device's foreground requests. Rebuild
        // chunks queued on the dead device are unfinishable — remember
        // which rebuilds they belonged to so those can be aborted below.
        let drained: Vec<SubReq> = self.queues[o].drain(..).collect();
        let mut dropped_rebuilds: Vec<ObjectId> = Vec::new();
        for sub in drained {
            match sub.payload {
                Payload::FileIo { .. } => self.route(sub),
                Payload::RebuildRead { lost, .. } | Payload::RebuildWrite { lost, .. } => {
                    dropped_rebuilds.push(lost);
                }
                Payload::MoveRead { .. } | Payload::MoveWrite { .. } => {}
            }
        }
        // Abort rebuilds this failure makes unfinishable: those
        // reconstructing onto the dead device, and those whose queued
        // chunks were just dropped with its queue. Their half-written
        // destination copies are removed so directory/catalog agreement
        // holds at the end of the run; sibling reads still in flight
        // elsewhere complete as harmless no-ops.
        let mut aborted: std::collections::BTreeSet<ObjectId> =
            dropped_rebuilds.into_iter().collect();
        aborted.extend(
            self.rebuilds
                .iter()
                .filter(|(_, st)| st.dest == osd)
                .map(|(&lost, _)| lost),
        );
        for lost in aborted {
            let Some(state) = self.rebuilds.remove(&lost) else {
                continue;
            };
            if state.dest != osd && self.cluster.osds[state.dest.0 as usize].has_object(lost) {
                #[expect(
                    clippy::expect_used,
                    reason = "guarded by has_object on the line above"
                )]
                self.cluster.osds[state.dest.0 as usize]
                    .remove_object(lost)
                    .expect("partial rebuild copy exists");
            }
            self.obs.counter("sim.aborted_rebuilds", 1);
        }
        // Each chunk dropped from a surviving queue is journaled as one
        // `op_dequeue` (depth after the drop), scoped like the queue's
        // other events, so edm-spec's queue model stays in step. The
        // rebuilds below then journal under the failed OSD's component
        // again, as the failure began.
        let live_moves: std::collections::BTreeSet<ObjectId> =
            self.move_routes.keys().copied().collect();
        let mut rescoped = false;
        for q in 0..self.queues.len() {
            let before = self.queues[q].len();
            self.queues[q].retain(|sub| {
                !matches!(
                    sub.payload,
                    Payload::MoveRead { object, .. } | Payload::MoveWrite { object, .. }
                        if !live_moves.contains(&object)
                )
            });
            let after = self.queues[q].len();
            if after < before && self.obs.events_on() {
                rescoped = true;
                self.scope_component_osd(OsdId(q as u32));
                for depth in (after..before).rev() {
                    self.obs.event(ObsEvent::OpDequeue {
                        osd: q as u32,
                        depth: depth as u64,
                    });
                }
            }
        }
        if rescoped {
            self.scope_component_osd(osd);
        }

        // Kick off reconstruction of the lost objects.
        let rebuild = self
            .options
            .failures
            .iter()
            .any(|f| f.osd == osd && f.rebuild);
        if !rebuild {
            return;
        }
        let placement = *self.cluster.catalog.placement();
        // In catalog order, which is the order a view lists objects in.
        let catalog = &self.cluster.catalog;
        let lost: Vec<ObjectId> = catalog
            .files()
            .flat_map(|meta| meta.objects.iter().copied())
            .filter(|&object| catalog.locate(object) == osd)
            .collect();
        for object in lost {
            let (file, _) = placement.object_owner(object);
            #[expect(
                clippy::expect_used,
                reason = "catalog invariant: every lost object belongs to a cataloged file"
            )]
            let meta = self.cluster.catalog.file(file).expect("lost object's file");
            let size = meta.object_size;
            let siblings: Vec<ObjectId> = meta
                .objects
                .iter()
                .copied()
                .filter(|&s| s != object)
                .collect();
            let alive: Vec<ObjectId> = siblings
                .into_iter()
                .filter(|&s| !self.tally.failed[self.cluster.catalog.locate(s).0 as usize])
                .collect();
            if alive.is_empty() {
                continue; // unrecoverable: left to the lost_ops accounting
            }
            // Destination: the surviving same-group device with the most
            // free space (intra-group, preserving §III.D independence).
            let group = placement.group_of(osd);
            let Some(dest) = placement
                .group_members(group)
                .into_iter()
                .filter(|&m| m != osd && !self.tally.failed[m.0 as usize])
                .max_by_key(|&m| self.cluster.osds[m.0 as usize].free_bytes())
            else {
                continue; // whole group gone
            };
            match self.cluster.osds[dest.0 as usize].create_object(object, size, false) {
                Ok(_) => {}
                Err(OsdError::NoSpace { .. }) => continue,
                #[expect(
                    clippy::panic,
                    reason = "rebuild allocation is pre-sized against free space; failure is corrupted state"
                )]
                Err(e) => panic!("rebuild allocation on {dest}: {e}"),
            }
            self.rebuilds.insert(
                object,
                RebuildState {
                    dest,
                    pending_reads: alive.len() as u32,
                    size,
                },
            );
            self.obs.counter("sim.rebuilds_started", 1);
            if self.obs.events_on() {
                self.obs.event(ObsEvent::RebuildStart {
                    object: object.0,
                    dest: dest.0,
                    bytes: size,
                });
            }
            for sibling in alive {
                let at = self.cluster.catalog.locate(sibling);
                let sub = SubReq {
                    enqueued_us: self.now,
                    payload: Payload::RebuildRead {
                        lost: object,
                        sibling,
                    },
                };
                self.enqueue(at, sub);
            }
        }
    }

    /// Objects already queued or mid-transfer from an earlier round. They
    /// must not be queued again: the view still shows them on their old
    /// source (every-tick scheduling re-plans while moves are pending), so
    /// a second accepted move would read from a location the first move
    /// has already vacated by the time it starts.
    pub(crate) fn pending_moves(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.move_routes
            .keys()
            .copied()
            .chain(self.move_queues.iter().flatten().map(|a| a.object))
    }

    /// Queues an accepted move on its source's mover stream.
    pub(crate) fn queue_move(&mut self, action: MoveAction) {
        self.move_queues[action.source.0 as usize].push_back(action);
    }

    /// Starts `source`'s mover stream unless one of its moves is already
    /// in flight. Each source runs one stream; streams run in parallel
    /// across sources ("perform all the migration processes in
    /// parallel", §III.B.5).
    pub(crate) fn kick_mover(&mut self, source: OsdId) {
        if self.move_routes.values().all(|a| a.source != source) {
            self.start_next_move(source);
        }
    }

    fn fire_migration(&mut self) {
        // Planning is coordinator work in a sharded run: its journal
        // entries (wear inputs, trigger, plan, assessment) stay untagged.
        self.scope_component_none();
        let view = self.cluster.view(self.now);
        let pending: HashSet<ObjectId> = self.pending_moves().collect();
        self.obs.counter("sim.migration_evaluations", 1);
        #[expect(
            clippy::panic,
            reason = "plans are validated before acceptance; an invalid plan is a policy bug worth aborting on"
        )]
        let (accepted, refused) = plan_round(
            self.policy,
            &view,
            &pending,
            &self.tally.failed,
            self.obs.as_dyn_mut(),
        )
        .unwrap_or_else(|e| panic!("{e}"));
        if accepted.is_empty() && refused == 0 {
            return; // nothing planned
        }
        if !accepted.is_empty() {
            self.tally.migrations_triggered += 1;
        }
        for action in accepted {
            self.queue_move(action);
        }
        for source in 0..self.cluster.config.osds {
            self.kick_mover(OsdId(source));
        }
    }

    /// Serializes every mutable engine field into the checkpoint's
    /// "engine" section. The [`CheckpointConfig`] itself is deliberately
    /// *not* saved: paths and cadence belong to the resuming process.
    fn save_engine(&self, w: &mut SnapWriter) {
        self.options.schedule.save(w);
        self.options.failures.save(w);
        w.put_bool(self.blocking_moves);
        // A heap's internal order depends on its history; canonicalize
        // as the ascending (at, seq, event) list.
        self.queue.pending().save(w);
        w.put_u64(self.queue.seq);
        w.put_u64(self.now);
        w.put_u64(self.last_ckpt_us);
        self.cursors.save(w);
        self.outstanding.save(w);
        self.inflight.save(w);
        w.put_u64(self.next_token);
        self.queues.save(w);
        self.current.save(w);
        self.tally.busy_us.save(w);
        self.tally.peak_queue_depth.save(w);
        self.moving.save(w);
        self.move_routes.save(w);
        self.move_queues.save(w);
        self.tally.failed.save(w);
        self.rebuilds.save(w);
        w.put_u64(self.tally.degraded_ops);
        w.put_u64(self.tally.lost_ops);
        w.put_u64(self.tally.rebuilt_objects);
        self.tally.responses.save(w);
        self.tally.response_hist.buckets().to_vec().save(w);
        w.put_u64(self.tally.response_hist.max());
        w.put_u64(self.total_records);
        w.put_bool(self.migration_fired);
        w.put_u64(self.tally.migrations_triggered);
        w.put_u64(self.tally.moved_objects);
        w.put_u64(self.tally.last_completion_us);
    }

    /// Mirror of [`save_engine`](Self::save_engine), applied to a freshly
    /// constructed engine. Derived state (`scripts`) is recomputed from
    /// the trace, so the loaded fields are cross-checked against it.
    fn load_engine(&mut self, r: &mut SnapReader) {
        self.options.schedule = MigrationSchedule::load(r);
        self.options.failures = Vec::load(r);
        let blocking = r.take_bool();
        if !r.failed() && blocking != self.blocking_moves {
            r.corrupt("policy blocking-moves mode differs from checkpoint");
        }
        let pending: Vec<(u64, u64, Event)> = Vec::load(r);
        let seq = r.take_u64();
        if !r.failed() {
            if let Err(e) = self.queue.restore(pending, seq, self.cluster.config.osds) {
                r.corrupt(e);
            }
        }
        self.now = r.take_u64();
        self.last_ckpt_us = r.take_u64();
        self.cursors = Vec::load(r);
        self.outstanding = Vec::load(r);
        self.inflight = TokenMap::load(r);
        self.next_token = r.take_u64();
        self.queues = Vec::load(r);
        self.current = Vec::load(r);
        self.tally.busy_us = Vec::load(r);
        self.tally.peak_queue_depth = Vec::load(r);
        self.moving = FlatMap::load(r);
        self.move_routes = FlatMap::load(r);
        self.move_queues = Vec::load(r);
        self.tally.failed = Vec::load(r);
        self.rebuilds = FlatMap::load(r);
        self.tally.degraded_ops = r.take_u64();
        self.tally.lost_ops = r.take_u64();
        self.tally.rebuilt_objects = r.take_u64();
        self.tally.responses = ResponseSeries::load(r);
        let buckets: Vec<u64> = Vec::load(r);
        match Histogram::from_parts(&buckets, r.take_u64()) {
            Ok(hist) => self.tally.response_hist = hist,
            Err(e) => r.corrupt(format!("latency histogram {e}")),
        }
        self.total_records = r.take_u64();
        self.migration_fired = r.take_bool();
        self.tally.migrations_triggered = r.take_u64();
        self.tally.moved_objects = r.take_u64();
        self.tally.last_completion_us = r.take_u64();
        if r.failed() {
            return;
        }
        let osds = self.cluster.config.osds as usize;
        let per_osd_ok = self.queues.len() == osds
            && self.current.len() == osds
            && self.tally.busy_us.len() == osds
            && self.tally.peak_queue_depth.len() == osds
            && self.move_queues.len() == osds
            && self.tally.failed.len() == osds;
        if !per_osd_ok {
            r.corrupt("per-OSD state length disagrees with the cluster");
            return;
        }
        let clients_ok = self.cursors.len() == self.scripts.len()
            && self.outstanding.len() == self.scripts.len()
            && self
                .cursors
                .iter()
                .zip(&self.scripts)
                .all(|(&c, s)| c <= s.len());
        if !clients_ok {
            r.corrupt("client cursors disagree with the trace's scripts");
            return;
        }
        if self.total_records != self.trace.records.len() as u64 {
            r.corrupt(format!(
                "checkpoint replays {} records but the trace has {}",
                self.total_records,
                self.trace.records.len()
            ));
        }
    }

    /// Cuts a checkpoint of the complete simulation state into `dir` and
    /// returns its path.
    pub(crate) fn write_checkpoint(&mut self, dir: &Path) -> Result<PathBuf, SnapError> {
        self.obs.counter("sim.checkpoints", 1);
        let mut engine = SnapWriter::new();
        self.save_engine(&mut engine);
        CheckpointCut {
            now_us: self.now,
            completed_ops: self.tally.response_hist.count(),
            total_records: self.total_records,
            extra: self
                .options
                .checkpoint
                .as_ref()
                .map(|c| c.meta.clone())
                .unwrap_or_default(),
            cluster: &self.cluster,
            policy: &*self.policy,
            host: ("engine", engine),
        }
        .write(dir)
    }

    /// Cuts a checkpoint if one is due. Called at wear-monitor ticks —
    /// the only event with no mid-decision state on the stack.
    fn maybe_checkpoint(&mut self) {
        let Some(ck) = &self.options.checkpoint else {
            return;
        };
        if self.now < self.last_ckpt_us.saturating_add(ck.every_us) {
            return;
        }
        self.last_ckpt_us = self.now;
        let dir = ck.dir.clone();
        #[expect(
            clippy::panic,
            reason = "checkpoint I/O failure is unrecoverable for the run; abort with the path in the message"
        )]
        self.write_checkpoint(&dir)
            .unwrap_or_else(|e| panic!("checkpoint write to {} failed: {e}", dir.display()));
    }

    /// Fills every client's concurrency window — the first third of
    /// seeding. Clients whose script is empty (foreign components in a
    /// sharded run) are no-ops.
    pub(crate) fn seed_clients(&mut self) {
        let clients = self.scripts.len() as u32;
        for c in 0..clients {
            self.scope_component_client(ClientId(c));
            self.fill_client(ClientId(c));
        }
        self.scope_component_none();
    }

    /// Schedules a wear-monitor tick marker at `at`. In sequential runs
    /// the engine handles the tick itself; in sharded runs it pauses there
    /// for the coordinator's barrier.
    pub(crate) fn seed_tick(&mut self, at: u64) {
        self.push(at, Event::Tick);
    }

    /// Schedules the injected failures this engine owns, in the global
    /// option order (so a sharded run's per-component sequence is exactly
    /// the sequential sequence restricted to that component).
    pub(crate) fn seed_failures<F: Fn(OsdId) -> bool>(&mut self, owns: F) {
        for i in 0..self.options.failures.len() {
            let f = self.options.failures[i];
            assert!(
                f.osd.0 < self.cluster.config.osds,
                "failure injected for unknown {}",
                f.osd
            );
            if owns(f.osd) {
                self.push(f.at_us, Event::Fail { osd: f.osd.0 });
            }
        }
    }

    /// Seeds the initial events of a fresh (non-resumed) run: the client
    /// concurrency windows, the first wear tick, and the injected
    /// failures.
    pub(crate) fn seed_events(&mut self) {
        self.seed_clients();
        if self.total_records > 0 {
            let tick = self.cluster.config.wear_tick_us;
            self.seed_tick(tick);
        }
        self.seed_failures(|_| true);
    }

    /// Pops and dispatches events until a wear-monitor tick is due (time
    /// already advanced to it, body not yet run) or the queue is empty;
    /// records where it stopped in `self.paused`.
    pub(crate) fn run_until_pause(&mut self) {
        // SimTime never yields, so the return value carries no
        // information on this path.
        let _ = self.run_paced(&mut SimTime);
    }

    /// [`run_until_pause`](Self::run_until_pause) under an explicit
    /// [`TimeSource`]: before each event is dispatched the source is
    /// consulted with the event's time, and on [`TimeStep::Yield`]
    /// control returns to the caller with `true` ("yielded";
    /// `self.paused` is untouched) while the event stays queued, its
    /// `MdsDone` token (if any) still at the front of the FIFO. So the
    /// next call sees the exact event it would have seen without the
    /// yield. This is what lets a live daemon pace the same
    /// deterministic engine against a dilated wall clock without
    /// perturbing the replay digest.
    pub(crate) fn run_paced(&mut self, pace: &mut dyn TimeSource) -> bool {
        while let Some(at) = self.queue.next_at() {
            debug_assert!(at >= self.now, "time went backwards");
            if pace.wait_until(at) == TimeStep::Yield {
                return true;
            }
            let Some((_, _, ev)) = self.queue.pop() else {
                break;
            };
            self.now = at;
            self.obs.set_now(at);
            match ev {
                Event::OsdDone { osd: o } => {
                    self.scope_component_osd(OsdId(o));
                    self.on_osd_done(OsdId(o));
                }
                Event::MdsDone { token } => {
                    let client = self.inflight.get(token).map(|i| i.client);
                    if let Some(client) = client {
                        self.scope_component_client(client);
                    }
                    self.finish_subop(token);
                }
                Event::Fail { osd: o } => {
                    self.scope_component_osd(OsdId(o));
                    self.on_failure(OsdId(o));
                }
                Event::Tick => {
                    self.paused = Pause::Tick;
                    return false;
                }
            }
        }
        self.paused = Pause::Done;
        false
    }

    /// Requests waiting at OSD slot `o` plus the one in service — what the
    /// tick body samples as `queue_depth`.
    pub(crate) fn queue_depth(&self, o: usize) -> u64 {
        self.queues[o].len() as u64 + self.current[o].is_some() as u64
    }

    /// The wear-monitor tick body: sample queue depths, notify the policy,
    /// fire continuous-mode migration, schedule the next tick, and cut a
    /// checkpoint if one is due. Sequential runs call this between
    /// [`run_until_pause`](Self::run_until_pause) legs; sharded runs
    /// replace it with the coordinator's barrier.
    pub(crate) fn handle_tick(&mut self) {
        // The tick body is the sharded coordinator's job; its journal
        // entries are untagged in both engines.
        self.scope_component_none();
        self.obs.counter("sim.ticks", 1);
        if self.obs.events_on() {
            // Periodic queue-depth samples: waiting requests
            // plus the one in service, per OSD.
            for o in 0..self.queues.len() {
                self.obs.event(ObsEvent::QueueDepth {
                    osd: o as u32,
                    depth: self.queue_depth(o),
                });
            }
        }
        self.policy.on_tick(self.now);
        if self.options.schedule == MigrationSchedule::EveryTick {
            self.fire_migration();
            close_wc_window([&mut self.cluster], self.policy);
        }
        // Keep ticking while the replay is still in progress.
        if self.tally.response_hist.count() < self.total_records {
            let next = self.now + self.cluster.config.wear_tick_us;
            self.push(next, Event::Tick);
        }
        // Checkpoint *after* the next tick is scheduled so the
        // snapshot's event queue is exactly the resumed run's.
        self.maybe_checkpoint();
    }

    /// Drains the event queue to completion and builds the report. Both
    /// fresh and resumed runs end up here, which is what makes resume
    /// bit-identical: the loop has no idea the process was ever restarted.
    fn drain(mut self) -> (RunReport, Cluster) {
        loop {
            self.run_until_pause();
            match self.paused {
                Pause::Tick => self.handle_tick(),
                Pause::Done => break,
            }
        }
        self.finalize()
    }

    /// Hands back what the run counted and the cluster it ended in.
    pub(crate) fn into_parts(self) -> (RunTallies, Cluster) {
        assert!(self.moving.is_empty(), "moves left in flight");
        (self.tally, self.cluster)
    }

    /// End-of-run invariant checks and report construction; the
    /// recorder is handed the tallies' facts here.
    pub(crate) fn finalize(self) -> (RunReport, Cluster) {
        assert!(self.moving.is_empty(), "moves left in flight");
        let tally = self.tally;
        let report = tally.report(self.trace, self.policy.name(), &self.cluster);
        tally.publish(&self.cluster, self.obs.as_dyn_mut());
        (report, self.cluster)
    }
}

/// Replays `trace` against a freshly built cluster under `policy`.
///
/// This is the top-level entry point used by every experiment: build,
/// warm up, replay, report.
pub fn run_trace(
    cluster: Cluster,
    trace: &Trace,
    policy: &mut dyn Migrator,
    options: SimOptions,
) -> RunReport {
    run_trace_obs_keep(cluster, trace, policy, options, &mut NoopRecorder).0
}

/// [`run_trace`] with an observability sink — the engine stamps virtual
/// time and device scope on the recorder, journals queue/migration/remap
/// events, and feeds latency histograms; recording is read-only, so the
/// report is bit-identical at every obs level — additionally handing back
/// the final [`Cluster`] so callers can inspect (or snapshot) the end
/// state of every device.
pub fn run_trace_obs_keep(
    cluster: Cluster,
    trace: &Trace,
    policy: &mut dyn Migrator,
    options: SimOptions,
    obs: &mut dyn Recorder,
) -> (RunReport, Cluster) {
    // Before the shard branch, so the sequential and sharded paths
    // produce the same preamble.
    cluster.emit_run_meta(obs);
    if let Some(plan) = crate::shard::plan_sharding(&cluster, trace, policy, &options) {
        return crate::shard::run_sharded(cluster, trace, policy, options, obs, plan);
    }
    let clients = ClientScripts::build(&cluster, trace, options.affinity);
    let mut engine = new_engine(cluster, trace, policy, options, obs, clients);
    engine.seed_events();
    engine.drain()
}

/// Resumes a checkpointed run from `snap` and drains it to completion.
///
/// The caller rebuilds the same world the checkpoint was cut in — the
/// same trace (verify with [`Trace::fingerprint`](edm_workload::Trace)
/// against the manifest's caller metadata) and a policy whose `name()`
/// matches the manifest — and passes the run's [`SimOptions`] so derived
/// state (notably the [`ClientAffinity`] scripts) is rebuilt identically;
/// `schedule` and `failures` are overwritten from the checkpoint, and a
/// fresh `checkpoint` config keeps checkpointing. Resumed runs always
/// drain sequentially (`shards` is ignored: a checkpoint cut mid-interval
/// has no barrier-aligned split point). The resumed run's report is
/// bit-identical to the uninterrupted run's; the final [`Cluster`] comes
/// back with it.
pub fn resume_trace_obs_keep(
    snap: &SnapshotFile,
    trace: &Trace,
    policy: &mut dyn Migrator,
    options: SimOptions,
    obs: &mut dyn Recorder,
) -> Result<(RunReport, Cluster), SnapError> {
    Ok(resume_engine(snap, trace, policy, options, obs)?.drain())
}

/// Rebuilds the engine a checkpoint was cut from, ready to drain or
/// step: the restored world, journal preamble, engine state.
pub(crate) fn resume_engine<'a, R: Recorder + AsDynRecorder + ?Sized>(
    snap: &SnapshotFile,
    trace: &'a Trace,
    policy: &'a mut dyn Migrator,
    options: SimOptions,
    obs: &'a mut R,
) -> Result<Engine<'a, dyn Migrator + 'a, R>, SnapError> {
    let cluster = restore_world(snap, policy)?;
    let mut r = snap.reader("engine")?;
    cluster.emit_run_meta(obs.as_dyn_mut());
    let clients = ClientScripts::build(&cluster, trace, options.affinity);
    let mut engine = new_engine(cluster, trace, policy, options, obs, clients);
    engine.load_engine(&mut r);
    r.finish("engine")?;
    Ok(engine)
}

/// Builds a pristine engine around `cluster`, issuing `clients` — the
/// one constructor of the fresh-run, resume, live and sharded paths.
pub(crate) fn new_engine<'a, P: Migrator + ?Sized, R: Recorder + AsDynRecorder + ?Sized>(
    cluster: Cluster,
    trace: &'a Trace,
    policy: &'a mut P,
    options: SimOptions,
    obs: &'a mut R,
    clients: ClientScripts,
) -> Engine<'a, P, R> {
    let ClientScripts {
        scripts,
        files,
        tags,
    } = clients;
    let comp_tags = tags.filter(|_| obs.events_on());
    let osds = cluster.config.osds as usize;
    let tally = RunTallies::new(osds, cluster.config.response_window_us);
    let blocking_moves = policy.blocking_moves();
    Engine {
        cluster,
        trace,
        policy,
        options,
        obs,
        queue: EventQueue::default(),
        now: 0,
        cursors: vec![0; scripts.len()],
        outstanding: vec![0; scripts.len()],
        scripts,
        files,
        inflight: TokenMap::new(),
        next_token: 0,
        queues: (0..osds).map(|_| VecDeque::new()).collect(),
        current: vec![None; osds],
        blocking_moves,
        moving: FlatMap::new(),
        move_routes: FlatMap::new(),
        move_queues: (0..osds).map(|_| VecDeque::new()).collect(),
        rebuilds: FlatMap::new(),
        tally,
        total_records: trace.records.len() as u64,
        migration_fired: false,
        last_ckpt_us: 0,
        paused: Pause::Done,
        comp_tags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::{ClusterView, NoMigration};
    use edm_workload::{harvard, synth::synthesize};

    fn small_trace() -> Trace {
        synthesize(&harvard::spec("deasna").scaled(0.001))
    }

    fn run_baseline(schedule: MigrationSchedule) -> RunReport {
        let trace = small_trace();
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        run_trace(
            cluster,
            &trace,
            &mut NoMigration,
            SimOptions {
                schedule,
                ..SimOptions::default()
            },
        )
    }

    #[test]
    fn baseline_completes_every_record() {
        let trace = small_trace();
        let report = run_baseline(MigrationSchedule::Never);
        assert_eq!(report.completed_ops, trace.records.len() as u64);
        assert!(report.duration_us > 0);
        assert!(report.throughput_ops_per_sec() > 0.0);
        assert!(report.mean_response_us > 0.0);
        assert_eq!(report.moved_objects, 0);
        assert_eq!(report.remap_entries, 0);
    }

    #[test]
    fn baseline_wears_ssds() {
        let report = run_baseline(MigrationSchedule::Never);
        assert!(report.aggregate_write_pages() > 0);
        // Per-OSD write pages roughly track the trace's skew: at least one
        // OSD must have seen writes.
        assert!(report.per_osd.iter().any(|o| o.write_pages > 0));
    }

    #[test]
    fn midpoint_schedule_with_noop_policy_changes_nothing() {
        let never = run_baseline(MigrationSchedule::Never);
        let midpoint = run_baseline(MigrationSchedule::Midpoint);
        assert_eq!(never.completed_ops, midpoint.completed_ops);
        assert_eq!(never.duration_us, midpoint.duration_us);
        assert_eq!(never.aggregate_erases(), midpoint.aggregate_erases());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_baseline(MigrationSchedule::Never);
        let b = run_baseline(MigrationSchedule::Never);
        assert_eq!(a.duration_us, b.duration_us);
        assert_eq!(a.aggregate_erases(), b.aggregate_erases());
        assert_eq!(a.mean_response_us, b.mean_response_us);
    }

    /// A policy that moves one object from the most-written OSD to the
    /// least-written OSD of the same group.
    struct MoveOne;

    impl Migrator for MoveOne {
        fn name(&self) -> &str {
            "MoveOne"
        }
        fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
            let mut osds = view.osds.clone();
            osds.sort_by_key(|o| std::cmp::Reverse(o.wc_pages));
            let source = &osds[0];
            let dest = osds
                .iter()
                .rev()
                .find(|o| o.group == source.group && o.osd != source.osd)
                .expect("group has at least two members");
            let obj = view
                .objects_on(source.osd)
                .next()
                .expect("source holds objects");
            vec![MoveAction {
                object: obj.object,
                source: source.osd,
                dest: dest.osd,
            }]
        }
    }

    #[test]
    fn migration_moves_objects_and_updates_remap() {
        let trace = small_trace();
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let report = run_trace(
            cluster,
            &trace,
            &mut MoveOne,
            SimOptions {
                schedule: MigrationSchedule::Midpoint,
                ..SimOptions::default()
            },
        );
        assert_eq!(report.completed_ops, trace.records.len() as u64);
        assert_eq!(report.moved_objects, 1);
        assert_eq!(report.remap_entries, 1);
        assert_eq!(report.migrations_triggered, 1);
    }

    #[test]
    fn observability_is_read_only() {
        use edm_obs::{MemoryRecorder, ObsLevel};
        let trace = small_trace();
        let baseline = {
            let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
            run_trace(
                cluster,
                &trace,
                &mut MoveOne,
                SimOptions {
                    schedule: MigrationSchedule::Midpoint,
                    ..SimOptions::default()
                },
            )
        };
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Events] {
            let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
            let mut rec = MemoryRecorder::new(level);
            let (report, _) = run_trace_obs_keep(
                cluster,
                &trace,
                &mut MoveOne,
                SimOptions {
                    schedule: MigrationSchedule::Midpoint,
                    ..SimOptions::default()
                },
                &mut rec,
            );
            assert_eq!(report.duration_us, baseline.duration_us, "level {level:?}");
            assert_eq!(
                report.mean_response_us, baseline.mean_response_us,
                "level {level:?}"
            );
            assert_eq!(
                report.aggregate_erases(),
                baseline.aggregate_erases(),
                "level {level:?}"
            );
            assert_eq!(report.moved_objects, baseline.moved_objects);
            if level >= ObsLevel::Metrics {
                assert_eq!(rec.counter_value("sim.ops_completed"), report.completed_ops);
                assert_eq!(rec.counter_value("sim.moved_objects"), report.moved_objects);
                assert_eq!(
                    rec.histogram("response_us").unwrap().count(),
                    report.completed_ops
                );
            }
            if level == ObsLevel::Events {
                assert_eq!(
                    rec.count_kind("migration_finish") as u64,
                    report.moved_objects
                );
                assert_eq!(rec.count_kind("remap_update") as u64, report.remap_entries);
                assert!(rec.count_kind("op_enqueue") > 0);
                assert!(rec.count_kind("op_dequeue") > 0);
                assert!(rec.count_kind("queue_depth") > 0);
                // FTL events inherit the engine clock and device scope.
                assert!(rec
                    .journal()
                    .iter()
                    .filter(|e| e.event.kind() == "block_erase")
                    .all(|e| e.device.is_some()));
            } else {
                assert!(rec.journal().is_empty());
            }
        }
    }

    #[test]
    fn response_windows_cover_the_run() {
        let report = run_baseline(MigrationSchedule::Never);
        assert!(!report.response_windows.is_empty());
        let total: u64 = report
            .response_windows
            .iter()
            .map(|w| w.completed_ops)
            .sum();
        assert_eq!(total, report.completed_ops);
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let trace = Trace::new("empty");
        // Build needs at least something to size capacity against; an
        // empty trace gives minimal SSDs and zero events.
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let report = run_trace(cluster, &trace, &mut NoMigration, SimOptions::default());
        assert_eq!(report.completed_ops, 0);
        assert_eq!(report.duration_us, 0);
        assert_eq!(report.throughput_ops_per_sec(), 0.0);
    }
}

#[cfg(test)]
mod blocking_tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::ClusterView;
    use edm_workload::{harvard, synth::synthesize};

    /// Moves every object of the busiest OSD (by object count) to its
    /// least-populated group peer; used to compare blocking vs lazy moves.
    struct MoveGroupmates {
        blocking: bool,
    }

    impl Migrator for MoveGroupmates {
        fn name(&self) -> &str {
            "MoveGroupmates"
        }
        fn blocking_moves(&self) -> bool {
            self.blocking
        }
        fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
            let count = |osd: OsdId| view.objects_on(osd).count();
            let src = view
                .osds
                .iter()
                .max_by_key(|o| count(o.osd))
                .expect("osds exist");
            let dst = view
                .osds
                .iter()
                .filter(|o| o.group == src.group && o.osd != src.osd)
                .min_by_key(|o| count(o.osd))
                .expect("group peer exists");
            view.objects_on(src.osd)
                .map(|o| MoveAction {
                    object: o.object,
                    source: src.osd,
                    dest: dst.osd,
                })
                .collect()
        }
    }

    fn run_mode(blocking: bool) -> RunReport {
        let trace = synthesize(&harvard::spec("home02").scaled(0.002));
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let mut policy = MoveGroupmates { blocking };
        run_trace(cluster, &trace, &mut policy, SimOptions::default())
    }

    #[test]
    fn lazy_moves_disturb_foreground_less_than_blocking_moves() {
        let blocking = run_mode(true);
        let lazy = run_mode(false);
        // Same plan, same destination state...
        assert_eq!(blocking.moved_objects, lazy.moved_objects);
        assert!(blocking.moved_objects > 0);
        assert_eq!(
            blocking.completed_ops, lazy.completed_ops,
            "both modes serve everything"
        );
        // ...but blocking parks every request to the in-flight objects
        // (§V.D's HDF spike), so its p99 cannot beat the lazy copier's.
        let p99 = |r: &RunReport| r.response_percentiles_us.2;
        assert!(
            p99(&blocking) >= p99(&lazy),
            "blocking p99 {} should be >= lazy p99 {}",
            p99(&blocking),
            p99(&lazy)
        );
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::{ClusterView, NoMigration};
    use edm_workload::{harvard, synth::synthesize};
    use std::path::PathBuf;

    /// Group-local balancer that fires one burst of moves at the first
    /// tick, so checkpoints are cut with migration state on the books.
    /// The fired-flag makes it stateful: a resume that failed to restore
    /// policy state would re-plan and diverge, which the tests catch.
    struct Spreader {
        planned: bool,
    }

    impl Migrator for Spreader {
        fn name(&self) -> &str {
            "Spreader"
        }
        fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
            if self.planned {
                return Vec::new();
            }
            self.planned = true;
            let count = |osd: OsdId| view.objects_on(osd).count();
            let src = view
                .osds
                .iter()
                .max_by_key(|o| count(o.osd))
                .expect("osds exist");
            let Some(dst) = view
                .osds
                .iter()
                .filter(|o| o.group == src.group && o.osd != src.osd)
                .min_by_key(|o| count(o.osd))
            else {
                return Vec::new();
            };
            view.objects_on(src.osd)
                .take(4)
                .map(|o| MoveAction {
                    object: o.object,
                    source: src.osd,
                    dest: dst.osd,
                })
                .collect()
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.put_bool(self.planned);
        }
        fn load_state(&mut self, r: &mut SnapReader) {
            self.planned = r.take_bool();
        }
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "test scratch directory; its location never reaches simulation state"
    )]
    fn ckpt_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("edm-sim-{tag}-{}", std::process::id()))
    }

    /// Continuous migration plus a mid-run failure with rebuild — the
    /// most state-heavy scenario the engine supports.
    fn scenario() -> (Trace, ClusterConfig, SimOptions) {
        let trace = synthesize(&harvard::spec("home02").scaled(0.002));
        // A short wear tick makes the ~minute-long replay span many ticks,
        // so checkpoints land while requests, moves, and the rebuild are
        // all in flight.
        let mut config = ClusterConfig::test_small();
        config.wear_tick_us = 50_000;
        let options = SimOptions {
            schedule: MigrationSchedule::EveryTick,
            failures: vec![FailureSpec {
                at_us: 150_000,
                osd: OsdId(1),
                rebuild: true,
            }],
            ..SimOptions::default()
        };
        (trace, config, options)
    }

    #[test]
    fn resume_mid_run_is_bit_identical() {
        let (trace, config, options) = scenario();
        let baseline = {
            let cluster = Cluster::build(config.clone(), &trace).unwrap();
            run_trace(
                cluster,
                &trace,
                &mut Spreader { planned: false },
                options.clone(),
            )
        };
        assert!(!baseline.failed_osds.is_empty(), "failure must fire");
        assert!(baseline.moved_objects > 0, "migration must fire");

        let dir = ckpt_dir("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let with_ckpt = {
            let cluster = Cluster::build(config.clone(), &trace).unwrap();
            let opts = SimOptions {
                checkpoint: Some(CheckpointConfig {
                    every_us: config.wear_tick_us,
                    dir: dir.clone(),
                    meta: b"cluster-test".to_vec(),
                }),
                ..options.clone()
            };
            run_trace(cluster, &trace, &mut Spreader { planned: false }, opts)
        };
        assert_eq!(
            format!("{baseline:?}"),
            format!("{with_ckpt:?}"),
            "checkpointing must not perturb the run"
        );

        let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snaps.sort();
        assert!(snaps.len() >= 2, "expected several checkpoints: {snaps:?}");
        let snap = SnapshotFile::read_from(&snaps[snaps.len() / 2]).unwrap();
        let manifest = SnapManifest::from_snapshot(&snap).unwrap();
        assert!(manifest.completed_ops > 0);
        assert!(manifest.completed_ops < manifest.total_records);
        assert_eq!(manifest.extra, b"cluster-test");
        assert_eq!(manifest.policy, "Spreader");

        let (resumed, _) = resume_trace_obs_keep(
            &snap,
            &trace,
            &mut Spreader { planned: false },
            SimOptions::default(),
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{resumed:?}"),
            "resumed run must reproduce the uninterrupted run bit-identically"
        );

        // Also resume from the earliest checkpoint — cut before the
        // injected failure, with the first move burst still in flight —
        // so the resumed run replays the failure and rebuild itself.
        let early = SnapshotFile::read_from(&snaps[0]).unwrap();
        let m = SnapManifest::from_snapshot(&early).unwrap();
        assert!(m.now_us < 150_000, "first checkpoint predates the failure");
        let (resumed_early, _) = resume_trace_obs_keep(
            &early,
            &trace,
            &mut Spreader { planned: false },
            SimOptions::default(),
            &mut NoopRecorder,
        )
        .unwrap();
        assert_eq!(format!("{baseline:?}"), format!("{resumed_early:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_with_mds_events_pending_keeps_the_digest() {
        let trace = synthesize(&harvard::spec("deasna").scaled(0.001));
        let mut cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        // Ticks every 2 ms, so some tick finds opens and closes in flight.
        cluster.config.wear_tick_us = 2_000;
        let want = format!(
            "{:?}",
            run_trace(
                cluster.clone(),
                &trace,
                &mut NoMigration,
                SimOptions::default()
            )
        );
        let dir = ckpt_dir("mds");
        let _ = std::fs::remove_dir_all(&dir);
        let mut policy = NoMigration;
        let mut obs = NoopRecorder;
        let clients = ClientScripts::build(&cluster, &trace, ClientAffinity::User);
        let options = SimOptions::default();
        let mut engine = new_engine(cluster, &trace, &mut policy, options, &mut obs, clients);
        engine.seed_events();
        let mut cut = None;
        loop {
            engine.run_until_pause();
            match engine.paused {
                Pause::Tick => engine.handle_tick(),
                Pause::Done => break,
            }
            if cut.is_none() && engine.queue.mds.len() >= 2 {
                let path = engine.write_checkpoint(&dir).unwrap();
                cut = Some((path, engine.queue.mds.clone(), engine.queue.pending()));
            }
        }
        assert_eq!(
            format!("{:?}", engine.finalize().0),
            want,
            "cutting perturbed the run"
        );
        let (path, mds, pending) = cut.expect("no tick saw two MDS events pending");
        let snap = SnapshotFile::read_from(&path).unwrap();
        let (mut policy, mut obs) = (NoMigration, NoopRecorder);
        let options = SimOptions::default();
        let resumed = resume_engine(&snap, &trace, &mut policy, options, &mut obs).unwrap();
        assert_eq!(resumed.queue.mds, mds, "the FIFO restores in token order");
        assert_eq!(resumed.queue.pending(), pending);
        assert_eq!(format!("{:?}", resumed.drain().0), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_wrong_policy() {
        let trace = synthesize(&harvard::spec("deasna").scaled(0.001));
        let dir = ckpt_dir("wrongpol");
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let opts = SimOptions {
            schedule: MigrationSchedule::Never,
            checkpoint: Some(CheckpointConfig {
                every_us: 0,
                dir: dir.clone(),
                meta: Vec::new(),
            }),
            ..SimOptions::default()
        };
        let _ = run_trace(cluster, &trace, &mut NoMigration, opts);
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snaps.sort();
        let snap = SnapshotFile::read_from(&snaps[0]).unwrap();
        let err = resume_trace_obs_keep(
            &snap,
            &trace,
            &mut Spreader { planned: false },
            SimOptions::default(),
            &mut NoopRecorder,
        )
        .map(|(report, _)| report)
        .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod queue_tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::NoMigration;
    use edm_workload::{harvard, synth::synthesize};
    use proptest::prelude::*;

    /// The reference order: whole `(at, seq, event)` tuples in a heap.
    type TupleHeap = BinaryHeap<Reverse<(u64, u64, Event)>>;

    proptest! {
        /// Random push/pop interleavings of OSD completions (ids up to
        /// the 22-bit limit), constant-latency MDS completions with
        /// tokens past 40 bits, ticks and failures pop in the same order
        /// from the packed queue as from the tuple heap — also across a
        /// checkpoint-style `pending` / `restore` round trip.
        #[test]
        fn packed_queue_pops_like_the_tuple_heap(
            steps in prop::collection::vec((0u8..6, 0u64..5_000), 1..400)
        ) {
            let mut queue = EventQueue::default();
            let mut model = TupleHeap::new();
            let (mut seq, mut now, mut token) = (0u64, 0u64, 0u64);
            for (step, x) in steps {
                let push = match step {
                    0 => Some((now + x, Event::OsdDone { osd: (x as u32 * 40_503) % MAX_OSDS })),
                    1 => {
                        token += 1 + x * 0x1_0000_0001;
                        Some((now + MDS_LATENCY_US, Event::MdsDone { token }))
                    }
                    2 => Some((now + x * 1_000, Event::Tick)),
                    3 => Some((now + x, Event::Fail { osd: MAX_OSDS - 1 - x as u32 })),
                    _ => None,
                };
                if let Some((at, ev)) = push {
                    queue.push(at, ev);
                    seq += 1;
                    model.push(Reverse((at, seq, ev)));
                } else if step == 4 {
                    let (got, want) = (queue.pop(), model.pop().map(|e| e.0));
                    prop_assert_eq!(got, want);
                    if let Some((at, ..)) = got {
                        now = at;
                    }
                } else {
                    let mut restored = EventQueue::default();
                    restored
                        .restore(queue.pending(), queue.seq, MAX_OSDS)
                        .map_err(TestCaseError::fail)?;
                    queue = restored;
                }
                prop_assert_eq!(queue.next_at(), model.peek().map(|e| e.0 .0));
            }
            let mut want: Vec<(u64, u64, Event)> = model.iter().map(|e| e.0).collect();
            want.sort_unstable();
            prop_assert_eq!(queue.pending(), want.clone());
            let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
            prop_assert_eq!(drained, want);
        }
    }

    #[test]
    fn restore_refuses_lists_no_queue_could_have_written() {
        let ok = vec![
            (5, 1, Event::MdsDone { token: 9 }),
            (5, 2, Event::OsdDone { osd: 3 }),
        ];
        EventQueue::default().restore(ok.clone(), 2, 8).unwrap();
        for (pending, seq) in [
            (vec![ok[1], ok[0]], 2),
            (ok.clone(), 1),
            (ok.clone(), 1 << 40),
            (vec![(5, 1, Event::Fail { osd: 8 })], 1),
        ] {
            let err = EventQueue::default().restore(pending, seq, 8).unwrap_err();
            assert!(err.contains("no queue of 8 OSDs"), "{err}");
        }
    }

    fn world() -> (Trace, Cluster) {
        let trace = synthesize(&harvard::spec("deasna").scaled(0.001));
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        (trace, cluster)
    }

    fn unpaced(trace: &Trace, cluster: Cluster) -> String {
        format!(
            "{:?}",
            run_trace(cluster, trace, &mut NoMigration, SimOptions::default())
        )
    }

    /// Yields on every other consultation.
    struct Choppy(u64);

    impl TimeSource for Choppy {
        fn wait_until(&mut self, _at: u64) -> TimeStep {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                TimeStep::Yield
            } else {
                TimeStep::Proceed
            }
        }
    }

    #[test]
    fn yielding_on_an_mds_head_keeps_the_digest() {
        let (trace, cluster) = world();
        let want = unpaced(&trace, cluster.clone());
        let mut policy = NoMigration;
        let mut obs = NoopRecorder;
        let clients = ClientScripts::build(&cluster, &trace, ClientAffinity::User);
        let options = SimOptions::default();
        let mut engine = new_engine(cluster, &trace, &mut policy, options, &mut obs, clients);
        engine.seed_events();
        let mut pace = Choppy(0);
        let mut mds_yields = 0;
        loop {
            if engine.run_paced(&mut pace) {
                let head = engine.queue.heap.peek().map(|k| EventQueue::kind(k.0));
                mds_yields += (head == Some(1)) as u64;
                continue;
            }
            match engine.paused {
                Pause::Tick => engine.handle_tick(),
                Pause::Done => break,
            }
        }
        assert!(mds_yields > 0, "no yield found an MdsDone at the head");
        assert_eq!(format!("{:?}", engine.finalize().0), want);
    }

    /// Imported traces name files by 64-bit inode; the per-run slot table
    /// keeps those working.
    #[test]
    fn file_ids_above_u32_replay_to_completion() {
        let base = u32::MAX as u64 + 1;
        let mut trace = Trace::new("wide-ids");
        for f in 0..16 {
            trace.file_sizes.insert(FileId(base + f * 977), 1 << 20);
        }
        for i in 0u64..400 {
            let file = FileId(base + (i % 16) * 977);
            let op = match i % 4 {
                0 => FileOp::Open,
                1 => FileOp::Read {
                    offset: (i % 8) * 4096,
                    len: 8192,
                },
                2 => FileOp::Write {
                    offset: (i % 5) * 4096,
                    len: 4096,
                },
                _ => FileOp::Close,
            };
            trace.records.push(TraceRecord {
                time_us: i * 50,
                user: (i % 7) as u32,
                file,
                op,
            });
        }
        trace.validate().unwrap();
        let cluster = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let clients = ClientScripts::build(&cluster, &trace, ClientAffinity::User);
        assert_eq!(clients.files.len(), 16);
        let report = run_trace(cluster, &trace, &mut NoMigration, SimOptions::default());
        assert_eq!(report.completed_ops, 400);
        assert!(report.aggregate_write_pages() > 0);
    }
}
