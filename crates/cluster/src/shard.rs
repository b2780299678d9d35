//! Group-sharded parallel execution.
//!
//! The replay engine's state decomposes along *placement components*:
//! the connected components of the "shares fate" relation over SSD
//! groups. Two groups are tied together when some file stripes objects
//! across both (degraded reads and RAID-5 rebuilds reach a file's
//! sibling objects in other groups) or when one trace user touches
//! files in both (a user's records run in one client's closed loop).
//! Everything else — OSD queues, FTL state, in-flight ops, moves,
//! rebuilds — is component-local, because parallel-safe policies
//! ([`Migrator::parallel_safe`]) never plan a move across groups, let
//! alone components.
//!
//! The sharded runner exploits that: the cluster is split so that each
//! component gets its own replay engine over the devices it owns
//! (`Cluster::split`; every other slot is vacant and panics on use),
//! issuing only its own clients' scripts, and runs on a worker thread
//! until the next wear-monitor tick. At every tick all engines pause and a
//! single-threaded coordinator runs the global tick body in fixed
//! component order: it replays buffered policy accesses, samples queue
//! depths, and decides the migration round with the functions the
//! sequential engine calls — `Cluster::view_from` over each slot's
//! owning shard, [`plan_round`] with every shard's pending moves and
//! failed OSDs, [`close_wc_window`] over every shard — then hands each
//! accepted move to its source's shard (`queue_move`, `kick_mover`) and
//! schedules the next tick. What is this module's own is the
//! decomposition, the barrier and the merge. Because the engines only
//! interact through that barrier and every end-of-run merge is
//! order-independent (`RunTallies::merge_from`, per-OSD state taken
//! from its unique owner, disjoint remap fragments), the merged
//! [`RunReport`] (`RunTallies::report`) is bit-identical to the
//! sequential run's under the same [`ClientAffinity::Component`]
//! assignment.

use std::collections::{HashMap, HashSet};

use edm_obs::{AsDynRecorder, Event as ObsEvent, MemoryRecorder, Recorder};
use edm_snap::IdMap;
use edm_workload::{FileId, Trace, TraceRecord};

use crate::cluster::Cluster;
use crate::ids::{ObjectId, OsdId};
use crate::metrics::{RunReport, RunTallies};
use crate::migrate::{close_wc_window, plan_round, AccessEvent, ClusterView, Migrator, MoveAction};
use crate::placement::Placement;
use crate::sim::{
    new_engine, ClientAffinity, ClientScripts, Engine, MigrationSchedule, Pause, ScriptOp,
    SimOptions,
};

/// Union-find over group indices, used to build the component map.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn unite(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Root at the smaller index so numbering is canonical.
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }
}

/// The placement components of one (cluster, trace): which component
/// every SSD group — and through it every OSD and file — belongs to.
/// Components are numbered in ascending order of their first group.
pub(crate) struct Components {
    placement: Placement,
    of_group: Vec<usize>,
    pub(crate) count: usize,
}

impl Components {
    pub(crate) fn of_osd(&self, osd: OsdId) -> usize {
        self.of_group[self.placement.group_of(osd).0 as usize]
    }

    /// A file's objects all live in one component; its first names it.
    pub(crate) fn of_file(&self, file: FileId) -> usize {
        self.of_osd(self.placement.home_osd(file, 0))
    }
}

/// Computes the component map in one union-find pass over the file table
/// and the trace: files unite the groups they stripe across, users unite
/// the groups of every file they touch.
pub(crate) fn component_map(cluster: &Cluster, trace: &Trace) -> Components {
    #[cfg(test)]
    work::COMPONENT_PASSES.set(work::COMPONENT_PASSES.get() + 1);
    let placement = *cluster.catalog.placement();
    let m = placement.groups as usize;
    let mut uf = UnionFind::new(m);
    let group_of_file = |file: FileId| placement.group_of(placement.home_osd(file, 0)).0 as usize;
    // A file's objects span up to k home groups; degraded reads and
    // rebuilds reach the sibling objects, so all of them must cohabit —
    // for every cataloged file, accessed or not (a failure rebuilds
    // everything on the dead device).
    for meta in cluster.catalog.files() {
        let first = group_of_file(meta.file);
        for i in 1..meta.objects.len() {
            let osd = placement.home_osd(meta.file, i as u32);
            uf.unite(first, placement.group_of(osd).0 as usize);
        }
    }
    // All groups one user touches must cohabit (the user's records run
    // in one client's closed loop). Each file's groups are already
    // united, so its first group stands for all of them.
    let mut user_group: HashMap<u32, usize> = HashMap::new();
    for r in &trace.records {
        let g = group_of_file(r.file);
        match user_group.entry(r.user) {
            std::collections::hash_map::Entry::Occupied(e) => uf.unite(*e.get(), g),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(g);
            }
        }
    }
    let mut comp_of_group = vec![0usize; m];
    let mut root_comp: HashMap<usize, usize> = HashMap::new();
    let mut ncomponents = 0usize;
    for (g, slot) in comp_of_group.iter_mut().enumerate() {
        let root = uf.find(g);
        *slot = *root_comp.entry(root).or_insert_with(|| {
            let c = ncomponents;
            ncomponents += 1;
            c
        });
    }
    Components {
        placement,
        of_group: comp_of_group,
        count: ncomponents,
    }
}

/// Exact work counts of the calling thread, for the tests that pin how
/// often a run walks the whole trace.
#[cfg(test)]
pub(crate) mod work {
    use std::cell::Cell;
    thread_local! {
        pub(crate) static COMPONENT_PASSES: Cell<u64> = const { Cell::new(0) };
        pub(crate) static CARVINGS: Cell<u64> = const { Cell::new(0) };
    }
}

/// The client assignment of [`ClientAffinity::Component`]: client slots
/// are carved per component (proportional to record counts, at least one
/// per non-empty component), then users round-robin onto their
/// component's slots in order of first appearance. Returns the slot count
/// and every record with its slot, in trace order, so per-user record
/// order is trace order, exactly as in the default assignment. The
/// sequential engine replays all of the scripts carved from it and the
/// sharded runner deals the same ones out to its engines, so the replay
/// they produce is identical.
pub(crate) fn component_scripts<'t>(
    components: &'t Components,
    trace: &'t Trace,
    clients: u32,
) -> (usize, impl Iterator<Item = (u32, &'t TraceRecord)> + 't) {
    #[cfg(test)]
    work::CARVINGS.set(work::CARVINGS.get() + 1);
    assert!(clients > 0, "need at least one client");
    let ncomponents = components.count;

    let mut comp_records = vec![0u64; ncomponents];
    for r in &trace.records {
        comp_records[components.of_file(r.file)] += 1;
    }
    let nonempty: Vec<usize> = (0..ncomponents).filter(|&c| comp_records[c] > 0).collect();
    let total_clients = (clients as usize).max(nonempty.len());

    // Slot allocation: floor of the proportional share, floored at one,
    // then corrected to the exact total — overshoot trimmed from the
    // largest allocations, leftovers handed out by descending record
    // count. Every rule breaks ties on component id, so the split is a
    // pure function of (placement, trace, clients).
    let total_records: u64 = comp_records.iter().sum();
    let mut slots = vec![0usize; ncomponents];
    for &c in &nonempty {
        slots[c] = ((total_clients as u64 * comp_records[c] / total_records) as usize).max(1);
    }
    let mut assigned: usize = slots.iter().sum();
    while assigned > total_clients {
        #[expect(
            clippy::expect_used,
            reason = "assigned > total_clients >= nonempty count, so some component holds more than one slot"
        )]
        let c = nonempty
            .iter()
            .copied()
            .filter(|&c| slots[c] > 1)
            .max_by_key(|&c| (slots[c], c))
            .expect("overshoot implies a multi-slot component");
        slots[c] -= 1;
        assigned -= 1;
    }
    let mut by_weight = nonempty.clone();
    by_weight.sort_by_key(|&c| (std::cmp::Reverse(comp_records[c]), c));
    let mut i = 0;
    // An empty trace has no component to hand slots to.
    while assigned < total_clients && !by_weight.is_empty() {
        slots[by_weight[i % by_weight.len()]] += 1;
        assigned += 1;
        i += 1;
    }

    // Contiguous slot ranges in component order.
    let mut start = vec![0usize; ncomponents];
    let mut acc = 0usize;
    for (c, s) in start.iter_mut().enumerate() {
        *s = acc;
        acc += slots[c];
    }
    debug_assert_eq!(acc, total_clients);

    let mut user_slot: IdMap<u32, u32> = IdMap::default();
    let mut next_in_comp = vec![0usize; ncomponents];
    let records = trace.records.iter().map(move |r| {
        let slot = *user_slot.entry(r.user).or_insert_with(|| {
            let c = components.of_file(r.file);
            let s = start[c] + next_in_comp[c];
            next_in_comp[c] = (next_in_comp[c] + 1) % slots[c];
            s as u32
        });
        (slot, r)
    });
    (total_clients, records)
}

/// Why a run will or will not shard. [`crate::sim::run_trace`] applies
/// this silently; `edm-sim` prints it so scripts can grep the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardDecision {
    /// Number of placement components of (cluster, trace).
    pub components: usize,
    /// Worker threads a sharded run would use (0 when inactive).
    pub threads: usize,
    pub active: bool,
    /// `"ok"` when active, otherwise the first failed requirement.
    pub reason: &'static str,
}

impl std::fmt::Display for ShardDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard-plan: components={} threads={} active={} reason={:?}",
            self.components, self.threads, self.active, self.reason
        )
    }
}

/// Evaluates every sharding requirement against a prospective run.
pub fn shard_decision(
    cluster: &Cluster,
    trace: &Trace,
    policy: &dyn Migrator,
    options: &SimOptions,
) -> ShardDecision {
    let components = component_map(cluster, trace).count;
    decide(
        option_refusal(cluster, policy, options),
        components,
        options,
    )
}

/// The first requirement that (cluster, policy, options) fail on their
/// own — everything that can be said without walking the trace.
fn option_refusal(
    cluster: &Cluster,
    policy: &dyn Migrator,
    options: &SimOptions,
) -> Option<&'static str> {
    if options.shards == 0 {
        return Some("sharding disabled (shards = 0)");
    }
    if options.affinity != ClientAffinity::Component {
        return Some("requires component client affinity");
    }
    if options.schedule == MigrationSchedule::Midpoint {
        return Some("midpoint schedule counts completions globally");
    }
    if options.checkpoint.is_some() {
        return Some("checkpointing requires the sequential loop");
    }
    if !policy.parallel_safe() {
        return Some("policy is not parallel-safe");
    }
    if !cluster.catalog.remap().is_empty() {
        return Some("cluster starts with remapped objects");
    }
    None
}

/// The decision for a run whose options pass or fail as `refusal` says
/// and whose placement has `components` components.
fn decide(refusal: Option<&'static str>, components: usize, options: &SimOptions) -> ShardDecision {
    let refusal = refusal.or((components < 2).then_some("placement has a single component"));
    match refusal {
        Some(reason) => ShardDecision {
            components,
            threads: 0,
            active: false,
            reason,
        },
        None => ShardDecision {
            components,
            threads: (options.shards as usize).min(components),
            active: true,
            reason: "ok",
        },
    }
}

/// The data [`run_sharded`] needs, produced by [`plan_sharding`].
pub(crate) struct ShardPlan {
    components: Components,
    threads: usize,
}

/// Decides whether this run shards; `None` falls back to the sequential
/// loop. A run the options alone rule out — every `shards 0` run — is
/// answered before any pass over the trace.
pub(crate) fn plan_sharding(
    cluster: &Cluster,
    trace: &Trace,
    policy: &dyn Migrator,
    options: &SimOptions,
) -> Option<ShardPlan> {
    if option_refusal(cluster, policy, options).is_some() {
        return None;
    }
    let components = component_map(cluster, trace);
    let decision = decide(None, components.count, options);
    decision.active.then_some(ShardPlan {
        components,
        threads: decision.threads,
    })
}

/// Stand-in policy installed in each shard engine: buffers `on_access`
/// callbacks for barrier-time replay into the real policy, and never
/// plans anything itself (migration fires globally at the barrier).
struct AccessBuffer {
    events: Vec<AccessEvent>,
    /// Mirrors the real policy so the engine parks requests identically.
    blocking: bool,
}

impl Migrator for AccessBuffer {
    fn name(&self) -> &str {
        "shard-access-buffer"
    }

    fn on_access(&mut self, event: AccessEvent) {
        self.events.push(event);
    }

    fn plan(&mut self, _view: &ClusterView) -> Vec<MoveAction> {
        Vec::new()
    }

    fn blocking_moves(&self) -> bool {
        self.blocking
    }
}

type ShardEngine<'a> = Engine<'a, AccessBuffer, MemoryRecorder>;

/// Runs every engine to its next pause, distributing them over `threads`
/// scoped worker threads (engine *i* on thread *i* mod `threads`). With
/// one thread this degrades to a plain loop — same results either way,
/// which is what the shard-digest fuzz oracle leans on.
fn run_all(engines: &mut [ShardEngine<'_>], threads: usize) {
    if threads <= 1 || engines.len() <= 1 {
        for engine in engines.iter_mut() {
            engine.run_until_pause();
        }
        return;
    }
    let mut bins: Vec<Vec<&mut ShardEngine<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, engine) in engines.iter_mut().enumerate() {
        bins[i % threads].push(engine);
    }
    std::thread::scope(|s| {
        for bin in bins {
            #[expect(
                clippy::disallowed_methods,
                reason = "workers mutate disjoint `&mut` engine slots; results are read back from the engines slice in component index order after the scope joins, so no scheduler-ordered aggregation exists"
            )]
            s.spawn(move || {
                for engine in bin {
                    engine.run_until_pause();
                }
            });
        }
    });
}

/// Runs `trace` with one engine per placement component, synchronized at
/// wear-monitor ticks, and merges the shards back into one report and
/// cluster — bit-identical to the sequential run under the same options.
pub(crate) fn run_sharded<P: Migrator + ?Sized, R: Recorder + AsDynRecorder + ?Sized>(
    cluster: Cluster,
    trace: &Trace,
    policy: &mut P,
    options: SimOptions,
    obs: &mut R,
    plan: ShardPlan,
) -> (RunReport, Cluster) {
    let ShardPlan {
        components,
        threads,
    } = plan;
    let comp_of_osd = |osd: OsdId| components.of_osd(osd);
    let n = components.count;
    let osd_count = cluster.config.osds;
    let wear_tick_us = cluster.config.wear_tick_us;
    let total_records = trace.records.len() as u64;
    // What the coordinator itself counts: the rounds it fired. The
    // shards' tallies are added at the end.
    let mut tally = RunTallies::new(osd_count as usize, cluster.config.response_window_us);

    let mut bufs: Vec<AccessBuffer> = (0..n)
        .map(|_| AccessBuffer {
            events: Vec::new(),
            blocking: policy.blocking_moves(),
        })
        .collect();
    let mut recs: Vec<MemoryRecorder> = (0..n).map(|_| MemoryRecorder::new(obs.level())).collect();

    // The carving is computed once and dealt out: every engine keeps the
    // whole slot layout (client ids are global) but only its own
    // component's scripts, the other slots empty.
    let mut carved = ClientScripts::by_component(&components, &cluster, trace);
    let mut dealt: Vec<Vec<Vec<ScriptOp>>> = vec![vec![Vec::new(); carved.scripts.len()]; n];
    for (slot, script) in std::mem::take(&mut carved.scripts).into_iter().enumerate() {
        if let Some(&first) = script.first() {
            dealt[components.of_file(carved.file(first))][slot] = script;
        }
    }
    let ClientScripts { files, tags, .. } = carved;

    // Each engine runs over the devices of its own component and owns
    // only its component's injected failures.
    let mut engines: Vec<ShardEngine<'_>> = cluster
        .split(n, comp_of_osd)
        .into_iter()
        .zip(dealt)
        .zip(bufs.iter_mut().zip(recs.iter_mut()))
        .map(|((world, scripts), (buf, rec))| {
            let clients = ClientScripts {
                scripts,
                files: files.clone(),
                tags: tags.clone(),
            };
            new_engine(world, trace, buf, options.clone(), rec, clients)
        })
        .collect();
    for (c, engine) in engines.iter_mut().enumerate() {
        engine.seed_clients();
        if total_records > 0 {
            engine.seed_tick(wear_tick_us);
        }
        engine.seed_failures(|osd| comp_of_osd(osd) == c);
    }

    // Tick-synchronized rounds. Every engine holds exactly one pending
    // tick marker per round (seeded above, re-seeded at each barrier
    // while the replay is unfinished), so `run_all` leaves them all
    // paused at the same tick — or all done, once the markers stop.
    // `now` is the tick the coordinator seeded last.
    let mut now = wear_tick_us;
    loop {
        run_all(&mut engines, threads);
        if engines.iter().all(|e| e.paused == Pause::Done) {
            break;
        }
        assert!(
            engines.iter().all(|e| e.paused == Pause::Tick),
            "shard engines desynchronized at a barrier"
        );
        assert!(
            engines.iter().all(|e| e.now == now),
            "shard engines paused at different ticks"
        );

        // The tick body, in the sequential engine's order. Buffered
        // accesses replay shard-ascending first: they all precede the
        // tick in virtual time, and a parallel-safe policy's per-access
        // updates commute across components, so its state now equals the
        // sequential interleaving's.
        obs.set_now(now);
        for engine in engines.iter_mut() {
            for event in engine.policy.events.drain(..) {
                policy.on_access(event);
            }
        }
        obs.counter("sim.ticks", 1);
        if obs.events_on() {
            for o in 0..osd_count {
                obs.event(ObsEvent::QueueDepth {
                    osd: o,
                    depth: engines[comp_of_osd(OsdId(o))].queue_depth(o as usize),
                });
            }
        }
        policy.on_tick(now);
        if options.schedule == MigrationSchedule::EveryTick {
            // The round is decided once, globally, over every slot's
            // owner; each accepted move then runs in its source's shard,
            // mover streams kicked in ascending OSD order as the
            // sequential engine does.
            let owner = |osd: OsdId| &engines[comp_of_osd(osd)].cluster;
            let view = owner(OsdId(0)).view_from(now, owner);
            let pending: HashSet<ObjectId> =
                engines.iter().flat_map(|e| e.pending_moves()).collect();
            let failed: Vec<bool> = (0..osd_count)
                .map(|o| engines[comp_of_osd(OsdId(o))].tally.failed[o as usize])
                .collect();
            #[expect(
                clippy::panic,
                reason = "plans are validated before acceptance; an invalid plan is a policy bug worth aborting on"
            )]
            let (accepted, refused) =
                plan_round(policy, &view, &pending, &failed, obs.as_dyn_mut())
                    .unwrap_or_else(|e| panic!("{e}"));
            tally.migrations_triggered += u64::from(!accepted.is_empty());
            for action in &accepted {
                assert_eq!(
                    comp_of_osd(action.source),
                    comp_of_osd(action.dest),
                    "parallel-safe policy {} planned a cross-component move {} -> {}",
                    policy.name(),
                    action.source,
                    action.dest
                );
                engines[comp_of_osd(action.source)].queue_move(*action);
            }
            if !accepted.is_empty() || refused > 0 {
                for source in (0..osd_count).map(OsdId) {
                    engines[comp_of_osd(source)].kick_mover(source);
                }
            }
            close_wc_window(engines.iter_mut().map(|e| &mut e.cluster), policy);
        }
        let completed: u64 = engines.iter().map(|e| e.tally.completed_ops).sum();
        if completed < total_records {
            now += wear_tick_us;
            for engine in engines.iter_mut() {
                engine.seed_tick(now);
            }
        }
    }
    // Accesses buffered after the last tick (the final drain to Done)
    // never see another plan, but the policy's end state should match
    // the sequential run's for anyone who inspects it afterwards.
    for engine in engines.iter_mut() {
        for event in engine.policy.events.drain(..) {
            policy.on_access(event);
        }
    }

    // Fold the shard recorders into the parent. Counters, gauges, and
    // histograms are additive/idempotent merges in deterministic name
    // order. Journal entries are re-emitted shard by shard in component
    // order, preserving each shard's insertion order and component tag
    // (every shard engine tags its own entries — they are all its
    // component's work). The parent's own barrier-time entries were
    // journaled live and untagged, exactly as the sequential engine
    // journals its tick bodies, so `write_jsonl`'s canonical
    // (t_us, component) sort serializes the sharded journal
    // byte-identically to the sequential one — the `journal_identity`
    // fuzz oracle enforces this.
    for engine in engines.iter() {
        for (name, value) in engine.obs.counters() {
            obs.counter(name, *value);
        }
        for (name, value) in engine.obs.gauges() {
            obs.gauge(name, *value);
        }
        for (name, hist) in engine.obs.histograms() {
            obs.merge_histogram(name, hist);
        }
    }
    if obs.events_on() {
        for engine in engines.iter() {
            for entry in engine.obs.journal() {
                obs.set_now(entry.t_us);
                obs.set_device(entry.device);
                obs.set_component(entry.component);
                obs.event(entry.event.clone());
            }
        }
        obs.set_device(None);
        obs.set_component(None);
    }

    // Merge the shards: tallies sum, and every device and remap fragment
    // comes from its unique owner.
    let worlds: Vec<Cluster> = engines
        .into_iter()
        .map(|engine| {
            let (shard_tally, world) = engine.into_parts();
            tally.merge_from(&shard_tally);
            world
        })
        .collect();
    let cluster = Cluster::merge(worlds);
    (tally.report(trace, policy.name(), &cluster), cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::migrate::NoMigration;
    use crate::sim::{run_trace_obs_keep, FailureSpec};
    use edm_obs::NoopRecorder;
    use edm_snap::{SnapWriter, Snapshot};
    use edm_workload::{FileOp, TraceRecord};

    /// Canonical byte encoding of a cluster — the strongest equality the
    /// repo has (every device's FTL state is serialized exactly).
    fn cluster_bytes(c: &Cluster) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    /// 8 OSDs in 4 groups, two objects per file: file *f*'s objects land
    /// on OSDs `f % 8` and `(f+1) % 8`, i.e. groups `f % 4` and
    /// `(f+1) % 4`. Using only file ids ≡ 0 and ≡ 2 (mod 4) ties groups
    /// {0, 1} and {2, 3} into two disjoint components. The short wear
    /// tick forces many barriers inside a short replay.
    fn two_component_config() -> ClusterConfig {
        ClusterConfig {
            osds: 8,
            groups: 4,
            objects_per_file: 2,
            skip_warm_up: true,
            clients: Some(4),
            wear_tick_us: 1_000,
            ..ClusterConfig::paper(8)
        }
    }

    /// Users 0/2 touch component {0,1} files, users 1/3 component {2,3}
    /// files → two components.
    fn two_component_trace() -> Trace {
        let mut t = Trace::new("two-comp");
        for f in (0u64..32).step_by(2) {
            t.file_sizes.insert(FileId(f), 1 << 20);
        }
        let mut now = 0u64;
        for i in 0u64..240 {
            let user = (i % 4) as u32;
            let file = FileId(2 * (user as u64 % 2) + 4 * ((i / 4) % 8));
            let op = if i % 3 == 0 {
                FileOp::Read {
                    offset: (i % 7) * 4096,
                    len: 8192,
                }
            } else {
                FileOp::Write {
                    offset: (i % 11) * 4096,
                    len: 16384,
                }
            };
            t.records.push(TraceRecord {
                time_us: now,
                user,
                file,
                op,
            });
            now += 100;
        }
        t
    }

    /// Deterministic test mover: each tick, moves the first object of
    /// the most-written OSD to its least-written same-group peer.
    /// Intra-group, hence intra-component, hence parallel-safe.
    struct GroupMover;

    impl Migrator for GroupMover {
        fn name(&self) -> &str {
            "GroupMover"
        }
        fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
            let mut osds = view.osds.clone();
            osds.sort_by_key(|o| (std::cmp::Reverse(o.wc_pages), o.osd));
            let source = osds[0].clone();
            let Some(dest) = osds
                .iter()
                .rev()
                .find(|o| o.group == source.group && o.osd != source.osd)
            else {
                return Vec::new();
            };
            let Some(obj) = view.objects_on(source.osd).next() else {
                return Vec::new();
            };
            vec![MoveAction {
                object: obj.object,
                source: source.osd,
                dest: dest.osd,
            }]
        }
        fn parallel_safe(&self) -> bool {
            true // stateless; plans only intra-group moves
        }
    }

    fn options(shards: u32) -> SimOptions {
        SimOptions {
            schedule: MigrationSchedule::EveryTick,
            shards,
            affinity: ClientAffinity::Component,
            ..SimOptions::default()
        }
    }

    fn run(
        shards: u32,
        policy: &mut dyn Migrator,
        failures: Vec<FailureSpec>,
    ) -> (RunReport, Cluster) {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let mut opts = options(shards);
        opts.failures = failures;
        run_trace_obs_keep(cluster, &trace, policy, opts, &mut NoopRecorder)
    }

    #[test]
    fn component_map_splits_disjoint_groups() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let components = component_map(&cluster, &trace);
        assert_eq!(components.count, 2);
        assert_eq!(components.of_group, vec![0, 0, 1, 1]);
    }

    #[test]
    fn component_scripts_cover_every_record_once() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let components = component_map(&cluster, &trace);
        let (clients, assigned) = component_scripts(&components, &trace, 4);
        let assigned: Vec<(u32, &TraceRecord)> = assigned.collect();
        assert_eq!(clients, 4);
        // Every record once, in trace order.
        assert_eq!(assigned.len(), trace.records.len());
        for ((slot, r), want) in assigned.iter().zip(&trace.records) {
            assert!(std::ptr::eq(*r, want) && (*slot as usize) < clients);
        }
        // Each carved script is its slot's records as ops, in trace order.
        let carved = ClientScripts::by_component(&components, &cluster, &trace);
        assert_eq!(carved.scripts.len(), clients);
        for (slot, script) in carved.scripts.iter().enumerate() {
            let want: Vec<(FileId, FileOp)> = assigned
                .iter()
                .filter(|(s, _)| *s as usize == slot)
                .map(|(_, r)| (r.file, r.op))
                .collect();
            let got: Vec<(FileId, FileOp)> = script
                .iter()
                .map(|&op| (carved.file(op), op.op()))
                .collect();
            assert_eq!(got, want, "slot {slot}");
        }
        // Each script stays inside one component.
        for script in carved.scripts.iter().filter(|s| !s.is_empty()) {
            let comp = |op: &ScriptOp| components.of_file(carved.file(*op));
            let first = comp(&script[0]);
            assert!(script.iter().all(|op| comp(op) == first));
        }
    }

    #[test]
    fn component_scripts_raise_client_count_when_needed() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        // Fewer requested clients than components: one slot each.
        let components = component_map(&cluster, &trace);
        let (clients, assigned) = component_scripts(&components, &trace, 1);
        assert_eq!(clients, 2);
        let mut used = vec![false; clients];
        for (slot, _) in assigned {
            used[slot as usize] = true;
        }
        assert!(used.iter().all(|&u| u));
    }

    /// Splitting hands every device to exactly one shard and merging
    /// untouched shards gives the input back, byte for byte.
    #[test]
    fn split_then_merge_is_the_identity() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let before = cluster_bytes(&cluster);
        let components = component_map(&cluster, &trace);
        let shards = cluster.split(components.count, |osd| components.of_osd(osd));
        assert_eq!(shards.len(), 2);
        for (c, shard) in shards.iter().enumerate() {
            assert_eq!(shard.osds.len(), 8, "indices stay OSD ids");
            for (o, osd) in shard.osds.iter().enumerate() {
                assert_eq!(osd.id, OsdId(o as u32));
                let mine = components.of_osd(osd.id) == c;
                assert_eq!(osd.is_vacant(), !mine, "shard {c} slot {o}");
                if mine {
                    assert!(osd.object_count() > 0, "fixture populates every device");
                }
            }
        }
        assert_eq!(cluster_bytes(&Cluster::merge(shards)), before);
    }

    /// A vacant slot holds nothing and answers nothing: any use is a
    /// shard engine reaching outside its component.
    #[test]
    #[should_panic(expected = "vacant in this shard")]
    fn vacant_slot_panics_on_use() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let components = component_map(&cluster, &trace);
        let shards = cluster.split(components.count, |osd| components.of_osd(osd));
        // OSD 7 is in group 3, i.e. component 1: vacant in shard 0.
        shards[0].osds[7].object_count();
    }

    /// Exact work counts: whatever the thread and component counts, a
    /// sharded run walks the trace for the component map once and carves
    /// the client scripts once; a run the options rule out (`shards 0`,
    /// default affinity) walks it for neither.
    #[test]
    fn a_run_maps_components_and_carves_scripts_once() {
        let counts = || (work::COMPONENT_PASSES.get(), work::CARVINGS.get());
        let run_counted = |opts: SimOptions| {
            let trace = two_component_trace();
            let cluster = Cluster::build(two_component_config(), &trace).unwrap();
            let before = counts();
            run_trace_obs_keep(cluster, &trace, &mut GroupMover, opts, &mut NoopRecorder);
            let after = counts();
            (after.0 - before.0, after.1 - before.1)
        };
        assert_eq!(run_counted(options(1)), (1, 1));
        assert_eq!(run_counted(options(2)), (1, 1));
        // Sequential, component-affine: the one pass its scripts need.
        assert_eq!(run_counted(options(0)), (1, 1));
        assert_eq!(run_counted(SimOptions::default()), (0, 0));
    }

    #[test]
    fn shard_decision_explains_fallbacks() {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let active = shard_decision(&cluster, &trace, &NoMigration, &options(2));
        assert!(active.active);
        assert_eq!(active.components, 2);
        assert_eq!(active.threads, 2);

        let off = shard_decision(&cluster, &trace, &NoMigration, &options(0));
        assert!(!off.active);
        assert!(off.reason.contains("disabled"));

        let mut user = options(2);
        user.affinity = ClientAffinity::User;
        assert!(!shard_decision(&cluster, &trace, &NoMigration, &user).active);

        let mut midpoint = options(2);
        midpoint.schedule = MigrationSchedule::Midpoint;
        assert!(!shard_decision(&cluster, &trace, &NoMigration, &midpoint).active);

        // CMT-style policies are not parallel-safe.
        struct Unsafe;
        impl Migrator for Unsafe {
            fn name(&self) -> &str {
                "Unsafe"
            }
            fn plan(&mut self, _view: &ClusterView) -> Vec<MoveAction> {
                Vec::new()
            }
        }
        let not_safe = shard_decision(&cluster, &trace, &Unsafe, &options(2));
        assert!(!not_safe.active);
        assert!(not_safe.reason.contains("parallel-safe"));

        // One-component worlds (the paper's k = m = 4 layout) never shard.
        let one = ClusterConfig::test_small();
        let t1 = {
            let mut t = Trace::new("one");
            t.file_sizes.insert(FileId(0), 1 << 20);
            t.records.push(TraceRecord {
                time_us: 0,
                user: 0,
                file: FileId(0),
                op: FileOp::Read {
                    offset: 0,
                    len: 4096,
                },
            });
            t
        };
        let c1 = Cluster::build(one, &t1).unwrap();
        let d1 = shard_decision(&c1, &t1, &NoMigration, &options(2));
        assert!(!d1.active);
        assert_eq!(d1.components, 1);
    }

    #[test]
    fn sharded_baseline_matches_sequential_bit_for_bit() {
        let (seq_report, seq_cluster) = run(0, &mut NoMigration, Vec::new());
        let (par_report, par_cluster) = run(2, &mut NoMigration, Vec::new());
        assert_eq!(format!("{seq_report:?}"), format!("{par_report:?}"));
        assert_eq!(cluster_bytes(&seq_cluster), cluster_bytes(&par_cluster));
    }

    #[test]
    fn sharded_migration_matches_sequential_bit_for_bit() {
        let (seq_report, seq_cluster) = run(0, &mut GroupMover, Vec::new());
        let (par_report, par_cluster) = run(2, &mut GroupMover, Vec::new());
        assert!(seq_report.moved_objects > 0, "mover must actually move");
        assert_eq!(format!("{seq_report:?}"), format!("{par_report:?}"));
        assert_eq!(cluster_bytes(&seq_cluster), cluster_bytes(&par_cluster));
        let seq_remap: Vec<_> = seq_cluster.catalog.remap().iter().collect();
        let par_remap: Vec<_> = par_cluster.catalog.remap().iter().collect();
        assert_eq!(seq_remap, par_remap);
    }

    #[test]
    fn sharded_failure_matches_sequential() {
        let failures = vec![FailureSpec {
            at_us: 3_000,
            osd: OsdId(2),
            rebuild: true,
        }];
        let (seq_report, seq_cluster) = run(0, &mut NoMigration, failures.clone());
        let (par_report, par_cluster) = run(2, &mut NoMigration, failures);
        assert_eq!(seq_report.failed_osds, vec![2]);
        assert_eq!(format!("{seq_report:?}"), format!("{par_report:?}"));
        assert_eq!(cluster_bytes(&seq_cluster), cluster_bytes(&par_cluster));
    }

    /// The serialized journal of a sharded run must be byte-identical to
    /// the sequential run's: shard engines tag entries with their
    /// component, the coordinator journals untagged, and `write_jsonl`'s
    /// canonical (t_us, component) sort reconstructs the interleaving.
    fn journal_bytes(shards: u32, failures: Vec<FailureSpec>) -> String {
        let trace = two_component_trace();
        let cluster = Cluster::build(two_component_config(), &trace).unwrap();
        let mut opts = options(shards);
        opts.failures = failures;
        let mut rec = edm_obs::MemoryRecorder::new(edm_obs::ObsLevel::Events);
        run_trace_obs_keep(cluster, &trace, &mut GroupMover, opts, &mut rec);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn sharded_journal_matches_sequential_byte_for_byte() {
        let seq = journal_bytes(0, Vec::new());
        let par = journal_bytes(2, Vec::new());
        assert!(seq.contains("\"kind\":\"migration_start\""));
        assert_eq!(seq, par);
    }

    #[test]
    fn sharded_failure_journal_matches_sequential_byte_for_byte() {
        let failures = vec![FailureSpec {
            at_us: 3_000,
            osd: OsdId(2),
            rebuild: true,
        }];
        let seq = journal_bytes(0, failures.clone());
        let par = journal_bytes(2, failures);
        assert!(seq.contains("\"kind\":\"device_failed\""));
        assert_eq!(seq, par);
    }

    #[test]
    fn single_thread_sharding_matches_multi_thread() {
        let (one_report, _) = run(1, &mut GroupMover, Vec::new());
        let (two_report, _) = run(2, &mut GroupMover, Vec::new());
        assert_eq!(format!("{one_report:?}"), format!("{two_report:?}"));
    }
}
