//! Cluster construction: capacity sizing, file pre-creation, and the
//! steady-state warm-up (§IV–§V.A).

use edm_obs::{Event, Recorder};
use edm_snap::{SnapReader, SnapWriter, Snapshot};
use edm_ssd::Geometry;
use edm_workload::{FileId, Trace};

use crate::catalog::Catalog;
use crate::config::ClusterConfig;
use crate::ids::{ObjectId, OsdId};
use crate::migrate::{AccessEvent, AccessKind, ClusterView, MoveAction, ObjectView, OsdView};
use crate::osd::{pages_spanned, Osd, OsdError};
use crate::raid::{ObjectIo, StripeLayout};
use crate::shard::run_all;

/// A built cluster: the metadata catalog plus its storage nodes, ready for
/// replay.
#[derive(Clone)]
pub struct Cluster {
    pub config: ClusterConfig,
    pub catalog: Catalog,
    /// One slot per OSD id. A shard of the group-sharded runner
    /// (`Cluster::split`) holds real devices only in the slots it owns.
    pub osds: Vec<Osd>,
    /// The devices are uniform, so one geometry answers for all of them
    /// — in a shard too, whichever slots it holds.
    geometry: Geometry,
}

/// The geometry every device of `osds` shares.
fn uniform_geometry(osds: &[Osd]) -> Geometry {
    osds.first()
        .map_or_else(Geometry::default, |o| *o.ssd().geometry())
}

/// Utilization of the *most* utilized SSD once the dataset is placed:
/// "the maximum utilization among all SSDs is about 70 percent" (§IV).
const TARGET_MAX_UTILIZATION: f64 = 0.70;

/// One device's share of [`Cluster::build`]: its objects in catalog
/// order, each with its catalog position, then its warm-up.
struct DeviceSetup<'a> {
    osd: &'a mut Osd,
    objects: Vec<(usize, ObjectId, u64)>,
    /// Where set-up stopped: the catalog position of the object that
    /// failed to populate (`usize::MAX` for a warm-up), and why.
    failure: Option<(usize, String)>,
}

impl DeviceSetup<'_> {
    /// Populates every object, then warms the device up (or, with
    /// `skip_warm_up`, zeroes its wear). Stops at the first failure.
    fn run(&mut self, skip_warm_up: bool) -> Result<(), (usize, String)> {
        let osd = &mut *self.osd;
        for &(pos, obj, size) in &self.objects {
            osd.create_object(obj, size, true)
                .map_err(|e| (pos, format!("pre-creating {obj} on {}: {e}", osd.id)))?;
        }
        if skip_warm_up {
            osd.reset_wear();
        } else {
            osd.warm_up()
                .map_err(|e| (usize::MAX, format!("warm-up: {e}")))?;
        }
        Ok(())
    }
}

/// Steps 3 and 4 of [`Cluster::build`]: pre-creates and populates every
/// object of `catalog` on the device it is located on, then warms every
/// device up, each device on one of `workers` threads. A device sees the
/// same op sequence as in one loop over the catalog, and no device
/// touches another, so the devices end the same for every worker count.
/// The error is the one that loop reports: the first populate failure in
/// catalog order, else the first warm-up failure in OSD order.
fn set_up_devices(
    catalog: &Catalog,
    osds: &mut [Osd],
    skip_warm_up: bool,
    workers: usize,
) -> Result<(), String> {
    // Each device's objects, in catalog order, with their catalog
    // positions (one pass over the catalog, not one per device).
    let mut buckets: Vec<Vec<(usize, ObjectId, u64)>> = vec![Vec::new(); osds.len()];
    let objects = catalog
        .files()
        .flat_map(|meta| meta.objects.iter().map(|&obj| (obj, meta.object_size)));
    for (pos, (obj, size)) in objects.enumerate() {
        buckets[catalog.locate(obj).0 as usize].push((pos, obj, size));
    }
    let mut setups: Vec<DeviceSetup<'_>> = osds
        .iter_mut()
        .zip(buckets)
        .map(|(osd, objects)| DeviceSetup {
            osd,
            objects,
            failure: None,
        })
        .collect();
    run_all(&mut setups, workers, |setup| {
        setup.failure = setup.run(skip_warm_up).err();
    });
    // `min_by_key` keeps the first of equal keys: OSD order among
    // warm-up failures.
    match setups
        .into_iter()
        .filter_map(|setup| setup.failure)
        .min_by_key(|&(pos, _)| pos)
    {
        None => Ok(()),
        Some((_, why)) => Err(why),
    }
}

impl Cluster {
    /// Builds the cluster for one trace:
    ///
    /// 1. registers every file of the trace (k objects each, hash placed);
    /// 2. sizes every SSD identically so the *most* utilized one sits at
    ///    `TARGET_MAX_UTILIZATION`, 70 % ("the capacity of each SSD is set the
    ///    same dynamically before running each trace-replaying program,
    ///    which allows the maximum utilization among all SSDs is about 70
    ///    percent", §IV);
    /// 3. pre-creates and populates all objects (§V.A);
    /// 4. runs the steady-state warm-up and zeroes wear counters.
    ///
    /// Steps 3 and 4 run each device on a scoped worker thread, one per
    /// available core (at most one per OSD).
    pub fn build(config: ClusterConfig, trace: &Trace) -> Result<Cluster, String> {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let workers = cores.min(config.osds as usize);
        Self::build_with(config, trace, workers)
    }

    /// [`build`](Self::build) with steps 3 and 4 dealt over `workers`
    /// threads (1: a plain loop on the caller).
    pub(crate) fn build_with(
        config: ClusterConfig,
        trace: &Trace,
        workers: usize,
    ) -> Result<Cluster, String> {
        config.validate()?;
        let mut catalog = Catalog::new(
            config.placement(),
            StripeLayout::paper(config.objects_per_file),
        );
        for (&file, &size) in &trace.file_sizes {
            catalog.create_file(file, size);
        }

        // Footprint per OSD under pure hash placement.
        let mut footprint = vec![0u64; config.osds as usize];
        for meta in catalog.files() {
            for (i, &obj) in meta.objects.iter().enumerate() {
                let osd = catalog.placement().home_osd(meta.file, i as u32);
                debug_assert_eq!(catalog.locate(obj), osd);
                footprint[osd.0 as usize] += meta.object_size;
            }
        }
        let max_footprint = footprint.iter().copied().max().unwrap_or(0).max(1);
        let capacity = (max_footprint as f64 / TARGET_MAX_UTILIZATION) as u64;

        // The devices are allocated here, in id order, so their memory
        // comes from this thread's allocator arena.
        let mut osds: Vec<Osd> = (0..config.osds)
            .map(|i| Osd::with_ftl(OsdId(i), capacity, config.latency, config.ftl))
            .collect();

        set_up_devices(&catalog, &mut osds, config.skip_warm_up, workers)?;

        Ok(Cluster {
            config,
            catalog,
            geometry: uniform_geometry(&osds),
            osds,
        })
    }

    /// Splits the cluster into `n` shards: shard `c` takes the devices
    /// `shard_of` assigns it and holds a vacant slot for every other, so
    /// indices stay OSD ids and no device exists twice. Every shard gets
    /// its own copy of the catalog (the file table is small); remap
    /// entries made during the run stay in the shard that made them.
    /// [`Cluster::merge`] is the inverse.
    pub(crate) fn split(self, n: usize, shard_of: impl Fn(OsdId) -> usize) -> Vec<Cluster> {
        let mut shards: Vec<Cluster> = (0..n)
            .map(|_| Cluster {
                config: self.config.clone(),
                catalog: self.catalog.clone(),
                osds: self.osds.iter().map(|o| Osd::vacant(o.id)).collect(),
                geometry: self.geometry,
            })
            .collect();
        for (slot, osd) in self.osds.into_iter().enumerate() {
            let owner = shard_of(osd.id);
            shards[owner].osds[slot] = osd;
        }
        shards
    }

    /// Reassembles the shards of a [`Cluster::split`]: every device comes
    /// from the one shard that holds it, and the shards' disjoint remap
    /// fragments are united.
    pub(crate) fn merge(mut shards: Vec<Cluster>) -> Cluster {
        assert!(!shards.is_empty(), "no shards to merge");
        let mut whole = shards.remove(0);
        for shard in shards {
            for (slot, osd) in whole.osds.iter_mut().zip(shard.osds) {
                if !osd.is_vacant() {
                    assert!(slot.is_vacant(), "two shards hold {}", osd.id);
                    *slot = osd;
                }
            }
            whole.catalog.remap_mut().merge_from(shard.catalog.remap());
        }
        assert!(
            whole.osds.iter().all(|o| !o.is_vacant()),
            "a device is missing from every shard"
        );
        whole
    }

    pub fn osd(&self, id: OsdId) -> &Osd {
        &self.osds[id.0 as usize]
    }

    pub fn osd_mut(&mut self, id: OsdId) -> &mut Osd {
        &mut self.osds[id.0 as usize]
    }

    /// Maximum utilization across OSDs (should be ≈ the configured target
    /// right after build).
    pub fn max_utilization(&self) -> f64 {
        self.osds
            .iter()
            .map(|o| o.utilization())
            .fold(0.0, f64::max)
    }

    /// Builds the policy-facing snapshot (§III.B inputs).
    pub fn view(&self, now_us: u64) -> ClusterView {
        self.view_from(now_us, |_| self)
    }

    /// [`view`](Self::view) of a cluster [`split`](Self::split) into
    /// shards (the group-sharded runner): `owner` names the shard that
    /// holds an OSD's device — and with it the location of every object
    /// homed there, since moves never leave a component. The file table
    /// and geometry are the same in every shard.
    pub(crate) fn view_from<'a>(
        &'a self,
        now_us: u64,
        owner: impl Fn(OsdId) -> &'a Cluster,
    ) -> ClusterView {
        let placement = self.catalog.placement();
        let osds = (0..self.config.osds)
            .map(|i| {
                let o = owner(OsdId(i)).osd(OsdId(i));
                OsdView {
                    osd: o.id,
                    group: placement.group_of(o.id),
                    wc_pages: o.wc_window_pages(),
                    utilization: o.utilization(),
                    measured_erases: o.ssd().wear().block_erases,
                    ewma_latency_us: o.ewma_latency_us(),
                    free_bytes: o.free_bytes(),
                    capacity_bytes: o.capacity_bytes(),
                }
            })
            .collect();
        let mut objects = Vec::with_capacity(self.catalog.total_objects() as usize);
        for meta in self.catalog.files() {
            for (i, &obj) in meta.objects.iter().enumerate() {
                let home = placement.home_osd(meta.file, i as u32);
                let moved_to = owner(home).catalog.remap().lookup(obj);
                objects.push(ObjectView {
                    object: obj,
                    osd: moved_to.unwrap_or(home),
                    size_bytes: meta.object_size,
                    remapped: moved_to.is_some(),
                });
            }
        }
        ClusterView {
            now_us,
            page_size: self.geometry.page_size,
            pages_per_block: self.geometry.pages_per_block,
            osds,
            objects,
        }
    }

    /// Journals the run preamble ([`Event::RunMeta`]) the conformance
    /// checker keys on: cluster shape and device geometry. Every journal
    /// — batch, sharded, live replay, ingest — starts with this record.
    pub fn emit_run_meta(&self, obs: &mut dyn Recorder) {
        if !obs.events_on() {
            return;
        }
        obs.set_now(0);
        obs.event(Event::RunMeta {
            osds: self.config.osds,
            groups: self.config.groups,
            objects_per_file: self.config.objects_per_file,
            capacity_bytes: self.geometry.exported_bytes(),
            blocks_per_osd: self.geometry.blocks as u64,
        });
    }

    /// Hands `obs` the devices' summed erase and GC-relocation counts as
    /// `ftl.block_erases` and `ftl.gc_page_moves`: the FTL's
    /// [`WearStats`](edm_ssd::WearStats) are their only count. Written
    /// once any block was erased, so a run without GC has neither.
    pub fn publish_wear(&self, obs: &mut dyn Recorder) {
        let (erases, moves) = self.osds.iter().fold((0, 0), |(e, m), o| {
            let wear = o.ssd().wear();
            (e + wear.block_erases, m + wear.gc_page_moves)
        });
        if erases > 0 {
            obs.counter("ftl.block_erases", erases);
            obs.counter("ftl.gc_page_moves", moves);
        }
    }

    /// Fans one file read or write out into its object-level I/Os
    /// (RAID-5 striping incl. the parity read-modify-write), each paired
    /// with the access it presents to the policy's tracker. Every
    /// op-service path — queued in the engine, immediate in the ingest
    /// daemon — services exactly this sequence.
    pub fn file_subops(
        &self,
        file: FileId,
        offset: u64,
        len: u64,
        write: bool,
        now_us: u64,
    ) -> impl ExactSizeIterator<Item = (ObjectIo, AccessEvent)> {
        let ios = self.catalog.layout().map(offset, len, write);
        // Object ids are a pure function of (file, stripe index) — see
        // `Catalog::create_file` — so the file table is not consulted.
        let placement = *self.catalog.placement();
        let page_size = self.geometry.page_size;
        ios.map(move |io| {
            let access = AccessEvent {
                now_us,
                object: placement.object_id(file, io.object_index),
                kind: if io.kind.is_write() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                pages: pages_spanned(io.offset, io.len, page_size),
            };
            (io, access)
        })
    }

    /// Starts an accepted move: allocates the destination copy and
    /// journals `migration_start`. Returns the object's size — what the
    /// caller now has to transfer (in queued chunks, or at once) before
    /// [`finish_move`](Self::finish_move). `OsdError::NoSpace` means the
    /// destination filled up since planning; nothing was changed.
    pub fn begin_move(
        &mut self,
        action: MoveAction,
        obs: &mut dyn Recorder,
    ) -> Result<u64, OsdError> {
        let size = self
            .object_size(action.object)
            .ok_or(OsdError::UnknownObject(action.object))?;
        self.osd_mut(action.dest)
            .create_object(action.object, size, false)?;
        obs.counter("sim.moves_started", 1);
        if obs.events_on() {
            obs.event(Event::MigrationStart {
                object: action.object.0,
                source: action.source.0,
                dest: action.dest.0,
                bytes: size,
            });
        }
        Ok(size)
    }

    /// Completes a transferred move: drops the source copy, points the
    /// remapping table at the destination, and journals
    /// `migration_finish` + `remap_update`. On error the catalog is
    /// untouched and the destination copy is the caller's to roll back.
    pub fn finish_move(
        &mut self,
        action: MoveAction,
        obs: &mut dyn Recorder,
    ) -> Result<u64, OsdError> {
        let size = self
            .object_size(action.object)
            .ok_or(OsdError::UnknownObject(action.object))?;
        self.osd_mut(action.source).remove_object(action.object)?;
        self.catalog.record_move(action.object, action.dest);
        // Built at every obs level: the daemon's backend applies moves
        // from this event, and recorders below `events` drop it after.
        obs.event(Event::MigrationFinish {
            object: action.object.0,
            source: action.source.0,
            dest: action.dest.0,
            bytes: size,
        });
        if obs.events_on() {
            obs.event(Event::RemapUpdate {
                object: action.object.0,
                dest: action.dest.0,
            });
        }
        Ok(size)
    }

    /// Object size lookup through the catalog.
    pub fn object_size(&self, object: ObjectId) -> Option<u64> {
        let (file, _) = self.catalog.placement().object_owner(object);
        self.catalog.file(file).map(|m| m.object_size)
    }

    /// Structural invariants of a quiescent cluster (post-build or
    /// end-of-run), for the differential fuzzer's policy oracle:
    ///
    /// 1. per-device accounting stays inside capacity;
    /// 2. the remapping table only overlays cataloged objects, never maps
    ///    an object to its home OSD (such entries are pruned on return),
    ///    and never points outside the cluster — and being a map keyed by
    ///    object id it cannot hold duplicate entries, so the overlay stays
    ///    one-to-one;
    /// 3. every cataloged object is present in the directory of exactly
    ///    the OSD the catalog locates it on, and no OSD holds objects the
    ///    catalog does not place there;
    /// 4. no two objects of one file share an SSD group (RAID-5 fault
    ///    independence, §III.D) — placement guarantees it initially and
    ///    intra-group migration/rebuild must preserve it. Only checked
    ///    when `enforce_group_independence` is set: the CMT baseline
    ///    deliberately ignores group boundaries (its moves may co-locate
    ///    a file's objects), while the EDM policies and rebuild must not.
    ///
    /// `failed_osds` are devices killed by fault injection: objects still
    /// located there may be lost (directory emptied on failure), so they
    /// are exempt from the presence and group checks.
    pub fn check_invariants(
        &self,
        failed_osds: &[u32],
        enforce_group_independence: bool,
    ) -> Result<(), String> {
        self.config.validate()?;
        let placement = *self.catalog.placement();
        for osd in &self.osds {
            let u = osd.utilization();
            if !(0.0..=1.0).contains(&u) {
                return Err(format!("{}: utilization {u} outside [0, 1]", osd.id));
            }
            if osd.free_bytes() > osd.capacity_bytes() {
                return Err(format!(
                    "{}: free bytes {} exceed capacity {}",
                    osd.id,
                    osd.free_bytes(),
                    osd.capacity_bytes()
                ));
            }
        }
        for (object, dest) in self.catalog.remap().iter() {
            if dest.0 >= self.config.osds {
                return Err(format!("remap entry {object} -> {dest}: no such OSD"));
            }
            let (file, index) = placement.object_owner(object);
            let known = self
                .catalog
                .file(file)
                .is_some_and(|m| m.objects.get(index as usize) == Some(&object));
            if !known {
                return Err(format!(
                    "remap entry {object} -> {dest}: object is not in the catalog"
                ));
            }
            if dest == self.catalog.home_of(object) {
                return Err(format!(
                    "remap entry {object} -> {dest}: points at the object's home \
                     (home entries must be pruned)"
                ));
            }
        }
        let mut expected = vec![0u64; self.config.osds as usize];
        for meta in self.catalog.files() {
            let mut groups_seen: Vec<crate::ids::GroupId> = Vec::new();
            for &obj in &meta.objects {
                let loc = self.catalog.locate(obj);
                let Some(osd) = self.osds.get(loc.0 as usize) else {
                    return Err(format!("{obj} located on nonexistent {loc}"));
                };
                if failed_osds.contains(&loc.0) {
                    continue; // possibly lost with its device
                }
                if !osd.has_object(obj) {
                    return Err(format!(
                        "{obj} located on {loc} but absent from its directory"
                    ));
                }
                if let Some(slot) = expected.get_mut(loc.0 as usize) {
                    *slot += 1;
                }
                if enforce_group_independence {
                    let g = placement.group_of(loc);
                    if groups_seen.contains(&g) {
                        return Err(format!(
                            "file {:?}: two objects share {g} — RAID-5 fault independence broken",
                            meta.file
                        ));
                    }
                    groups_seen.push(g);
                }
            }
        }
        for osd in &self.osds {
            if failed_osds.contains(&osd.id.0) {
                continue;
            }
            let have = osd.object_count() as u64;
            let want = expected.get(osd.id.0 as usize).copied().unwrap_or(0);
            if have != want {
                return Err(format!(
                    "{}: directory holds {have} objects but the catalog places {want} there",
                    osd.id
                ));
            }
        }
        Ok(())
    }
}

impl Snapshot for Cluster {
    fn save(&self, w: &mut SnapWriter) {
        // `geometry` is not stored: `load` reads it back off the devices.
        let Cluster {
            config,
            catalog,
            osds,
            geometry: _,
        } = self;
        config.save(w);
        catalog.save(w);
        osds.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        let (config, catalog, osds) = (ClusterConfig::load(r), Catalog::load(r), Vec::load(r));
        let c = Cluster {
            config,
            catalog,
            geometry: uniform_geometry(&osds),
            osds,
        };
        if !r.failed() && c.osds.len() != c.config.osds as usize {
            r.corrupt(format!(
                "cluster has {} OSDs but config says {}",
                c.osds.len(),
                c.config.osds
            ));
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_workload::{harvard, synth::synthesize};

    fn small_trace() -> Trace {
        synthesize(&harvard::spec("deasna").scaled(0.002))
    }

    #[test]
    fn build_places_every_object() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let files = trace.file_sizes.len();
        let total: usize = c.osds.iter().map(|o| o.object_count()).sum();
        assert_eq!(total, files * 4);
        assert_eq!(c.catalog.total_objects(), (files * 4) as u64);
    }

    #[test]
    fn max_utilization_near_target() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let max = c.max_utilization();
        assert!(
            (max - 0.70).abs() < 0.05,
            "max utilization {max} should be ≈ 0.70"
        );
    }

    #[test]
    fn wear_counters_are_zero_after_build() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        for osd in &c.osds {
            assert_eq!(osd.ssd().wear().host_page_writes, 0);
            assert_eq!(osd.wc_window_pages(), 0);
        }
    }

    #[test]
    fn view_is_complete_and_consistent() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let v = c.view(123);
        assert_eq!(v.now_us, 123);
        assert_eq!(v.osds.len(), 8);
        assert_eq!(v.objects.len(), c.catalog.total_objects() as usize);
        assert_eq!(v.page_size, 4096);
        assert_eq!(v.pages_per_block, 32);
        for o in &v.objects {
            assert!(!o.remapped);
            assert!(o.size_bytes > 0);
            assert!(c.osd(o.osd).has_object(o.object));
        }
    }

    #[test]
    fn all_osds_get_same_capacity() {
        let trace = small_trace();
        let c = Cluster::build(ClusterConfig::test_small(), &trace).unwrap();
        let cap = c.osds[0].capacity_bytes();
        assert!(c.osds.iter().all(|o| o.capacity_bytes() == cap));
    }

    fn snapshot_bytes(c: &Cluster) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    /// Builds `config` over `trace` with 1, 2 and 8 set-up workers and
    /// requires the same snapshot bytes from each.
    fn assert_same_for_every_worker_count(config: &ClusterConfig, trace: &Trace) {
        let build = |workers| Cluster::build_with(config.clone(), trace, workers).unwrap();
        let one = snapshot_bytes(&build(1));
        for workers in [2, 8] {
            assert!(
                snapshot_bytes(&build(workers)) == one,
                "{workers} workers built a different cluster than 1"
            );
        }
    }

    #[test]
    fn build_is_the_same_for_every_worker_count() {
        let trace = synthesize(&harvard::spec("home02").scaled(0.002));
        assert_same_for_every_worker_count(&ClusterConfig::paper(16), &trace);
    }

    /// The shape of the 1024-OSD sharded scenarios (32 groups, inode
    /// stride 4: eight placement components). Client affinity does not
    /// reach the build; the stride does, through the file ids. A small
    /// preset has too few files to put more than one object on a
    /// device, so the file table is 2 048 files of 64–448 KiB.
    #[test]
    fn build_is_the_same_for_every_worker_count_at_1024_osds() {
        let mut trace = Trace::new("stride-4");
        trace.file_sizes = (0..2048)
            .map(|f| (FileId(f * 4), (1 + f % 7) << 16))
            .collect();
        let config = ClusterConfig {
            groups: 32,
            ..ClusterConfig::paper(1024)
        };
        assert_same_for_every_worker_count(&config, &trace);
    }

    /// Steps 3 and 4 as one loop over the catalog, then one over the
    /// devices: what `set_up_devices` must reproduce, errors included.
    fn sequential_set_up(catalog: &Catalog, osds: &mut [Osd]) -> Result<(), String> {
        for meta in catalog.files() {
            for &obj in &meta.objects {
                let osd = catalog.locate(obj);
                osds[osd.0 as usize]
                    .create_object(obj, meta.object_size, true)
                    .map_err(|e| format!("pre-creating {obj} on {osd}: {e}"))?;
            }
        }
        for osd in osds {
            osd.warm_up().map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(())
    }

    /// Two devices run out of space; whatever the worker count, the
    /// error is the sequential loop's: the failure first in catalog
    /// order, which is on the higher-numbered device.
    #[test]
    fn set_up_reports_the_sequential_loops_first_error() {
        let trace = small_trace();
        let config = ClusterConfig::test_small();
        let built = Cluster::build(config.clone(), &trace).unwrap();
        let capacity = built.osds[0].capacity_bytes();
        // Remap every object onto OSD 5 or OSD 2, two of every three
        // onto 5, so both overflow and 5 does so earlier in the catalog.
        let mut catalog = built.catalog.clone();
        let objects: Vec<(ObjectId, u64)> = catalog
            .files()
            .flat_map(|m| m.objects.iter().map(|&o| (o, m.object_size)))
            .collect();
        let mut piled = [0u64; 2];
        for (pos, &(obj, size)) in objects.iter().enumerate() {
            let dest = usize::from(pos % 3 != 2);
            piled[dest] += size;
            catalog.record_move(obj, OsdId([2, 5][dest]));
        }
        assert!(piled.iter().all(|&bytes| bytes > capacity), "{piled:?}");
        let fresh = || -> Vec<Osd> {
            (0..config.osds)
                .map(|i| Osd::with_ftl(OsdId(i), capacity, config.latency, config.ftl))
                .collect()
        };
        let expected = sequential_set_up(&catalog, &mut fresh()).unwrap_err();
        assert!(expected.contains(" on osd5: "), "{expected}");
        for workers in [1, 2, 8] {
            assert_eq!(
                set_up_devices(&catalog, &mut fresh(), false, workers),
                Err(expected.clone()),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut cfg = ClusterConfig::test_small();
        cfg.groups = cfg.osds + 1;
        assert!(Cluster::build(cfg, &small_trace()).is_err());
    }
}
