//! One object-based storage device: an SSD plus an object directory and
//! service-side statistics.
//!
//! The paper's OSDs (osc-osd) "receive the I/O requests from both clients
//! and mds, and then handle them serially" (§IV); the simulator models
//! that with one FIFO service queue per OSD (owned by the engine) over the
//! byte-granular [`Ssd`].

use edm_snap::{IdMap, SnapReader, SnapWriter, Snapshot};
use edm_ssd::{DeviceTime, FtlConfig, FtlError, Geometry, LatencyModel, Ssd};

use crate::extent::{Extent, ExtentAllocator};
use crate::ids::{ObjectId, OsdId};

/// Decay factor of the per-OSD latency EWMA (CMT's load factor).
const EWMA_ALPHA: f64 = 0.05;

/// Errors from object-level OSD operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsdError {
    /// Not enough contiguous logical space for the object.
    NoSpace {
        needed: u64,
        free: u64,
    },
    UnknownObject(ObjectId),
    DuplicateObject(ObjectId),
    /// Access beyond the object's extent.
    OutOfBounds {
        object: ObjectId,
        offset: u64,
        len: u64,
        size: u64,
    },
    Device(String),
}

impl std::fmt::Display for OsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsdError::NoSpace { needed, free } => {
                write!(f, "no space: need {needed} bytes, {free} free")
            }
            OsdError::UnknownObject(o) => write!(f, "unknown object {o}"),
            OsdError::DuplicateObject(o) => write!(f, "object {o} already stored"),
            OsdError::OutOfBounds {
                object,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {}) beyond {object} of size {size}",
                offset + len
            ),
            OsdError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for OsdError {}

impl From<FtlError> for OsdError {
    fn from(e: FtlError) -> Self {
        OsdError::Device(e.to_string())
    }
}

/// One storage node — or, in a shard of the group-sharded runner, the
/// vacant slot of a node another shard owns ([`Osd::vacant`]).
#[derive(Clone)]
pub struct Osd {
    pub id: OsdId,
    /// `None` only in a vacant slot.
    dev: Option<Device>,
}

/// Everything an [`Osd`] holds besides its id.
#[derive(Clone)]
struct Device {
    ssd: Ssd,
    extents: ExtentAllocator,
    directory: IdMap<ObjectId, Extent>,
    /// EWMA of serviced request latency, µs (CMT's load factor).
    ewma_latency_us: f64,
    /// Host page writes since the last window reset (`Wc` of Eq. 4).
    wc_window_pages: u64,
}

impl Osd {
    /// Builds an OSD with explicit FTL tunables (GC victim policy, wear
    /// leveling, watermarks).
    pub fn with_ftl(id: OsdId, capacity_bytes: u64, latency: LatencyModel, ftl: FtlConfig) -> Self {
        let geometry = Geometry::for_exported_capacity(capacity_bytes);
        let ssd = Ssd::with_config(geometry, latency, ftl);
        let exported = ssd.geometry().exported_bytes();
        Osd {
            id,
            dev: Some(Device {
                ssd,
                extents: ExtentAllocator::new(exported),
                directory: IdMap::default(),
                ewma_latency_us: 0.0,
                wc_window_pages: 0,
            }),
        }
    }

    /// The slot of a device that lives in another shard: keeps `id` at
    /// its index, allocates nothing, and panics on every use — a shard
    /// engine reaching outside its component is a bug, not a question to
    /// answer.
    pub(crate) fn vacant(id: OsdId) -> Self {
        Osd { id, dev: None }
    }

    pub(crate) fn is_vacant(&self) -> bool {
        self.dev.is_none()
    }

    fn dev(&self) -> &Device {
        match &self.dev {
            Some(dev) => dev,
            None => vacant_slot_touched(self.id),
        }
    }

    fn dev_mut(&mut self) -> &mut Device {
        match &mut self.dev {
            Some(dev) => dev,
            None => vacant_slot_touched(self.id),
        }
    }

    pub fn ssd(&self) -> &Ssd {
        &self.dev().ssd
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.dev().extents.capacity()
    }

    pub fn free_bytes(&self) -> u64 {
        self.dev().extents.free_bytes()
    }

    /// Utilization by allocated extents (the `u` the wear model sees).
    pub fn utilization(&self) -> f64 {
        let extents = &self.dev().extents;
        extents.used_bytes() as f64 / extents.capacity() as f64
    }

    pub fn has_object(&self, object: ObjectId) -> bool {
        self.dev().directory.contains_key(&object)
    }

    pub fn object_count(&self) -> usize {
        self.dev().directory.len()
    }

    pub fn object_size(&self, object: ObjectId) -> Option<u64> {
        self.dev().directory.get(&object).map(|e| e.len)
    }

    pub fn ewma_latency_us(&self) -> f64 {
        self.dev().ewma_latency_us
    }

    pub fn wc_window_pages(&self) -> u64 {
        self.dev().wc_window_pages
    }

    pub fn reset_wc_window(&mut self) {
        self.dev_mut().wc_window_pages = 0;
    }

    /// Creates an object of `size` bytes. If `populate`, its pages are
    /// written immediately (pre-creation before replay, §V.A); population
    /// time is returned but setup code typically discards it.
    pub fn create_object(
        &mut self,
        object: ObjectId,
        size: u64,
        populate: bool,
    ) -> Result<DeviceTime, OsdError> {
        let dev = self.dev_mut();
        if dev.directory.contains_key(&object) {
            return Err(OsdError::DuplicateObject(object));
        }
        let extent = dev.extents.alloc(size).ok_or(OsdError::NoSpace {
            needed: size,
            free: dev.extents.free_bytes(),
        })?;
        dev.directory.insert(object, extent);
        if populate && size > 0 {
            let t = dev
                .ssd
                .write(extent.start, size, &mut edm_obs::NoopRecorder)?;
            dev.wc_window_pages += size.div_ceil(dev.ssd.geometry().page_size);
            return Ok(t);
        }
        Ok(DeviceTime::ZERO)
    }

    /// Deletes an object: trims its pages and frees its extent.
    pub fn remove_object(&mut self, object: ObjectId) -> Result<(), OsdError> {
        let dev = self.dev_mut();
        let extent = dev
            .directory
            .remove(&object)
            .ok_or(OsdError::UnknownObject(object))?;
        dev.ssd.trim(extent.start, extent.len)?;
        dev.extents.free(extent);
        Ok(())
    }

    fn locate(&self, object: ObjectId, offset: u64, len: u64) -> Result<u64, OsdError> {
        let extent = self
            .dev()
            .directory
            .get(&object)
            .ok_or(OsdError::UnknownObject(object))?;
        if offset.checked_add(len).is_none_or(|end| end > extent.len) {
            return Err(OsdError::OutOfBounds {
                object,
                offset,
                len,
                size: extent.len,
            });
        }
        Ok(extent.start + offset)
    }

    /// Reads `len` bytes at `offset` within an object.
    pub fn read_object(
        &mut self,
        object: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<DeviceTime, OsdError> {
        let base = self.locate(object, offset, len)?;
        Ok(self.dev_mut().ssd.read(base, len)?)
    }

    /// Writes `len` bytes at `offset` within an object; counts toward the
    /// OSD's `Wc` window.
    pub fn write_object(
        &mut self,
        object: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<DeviceTime, OsdError> {
        self.write_object_obs(object, offset, len, &mut edm_obs::NoopRecorder)
    }

    /// [`write_object`](Self::write_object) with an observability sink for
    /// the FTL events (GC, erases, wear leveling) the write triggers.
    pub fn write_object_obs(
        &mut self,
        object: ObjectId,
        offset: u64,
        len: u64,
        obs: &mut dyn edm_obs::Recorder,
    ) -> Result<DeviceTime, OsdError> {
        let base = self.locate(object, offset, len)?;
        let dev = self.dev_mut();
        let t = dev.ssd.write(base, len, obs)?;
        dev.wc_window_pages += pages_spanned(base, len, dev.ssd.geometry().page_size);
        Ok(t)
    }

    /// Reads a whole object (migration source side).
    pub fn read_whole_object(&mut self, object: ObjectId) -> Result<DeviceTime, OsdError> {
        let size = self
            .object_size(object)
            .ok_or(OsdError::UnknownObject(object))?;
        self.read_object(object, 0, size)
    }

    /// Records a serviced request latency into the EWMA load factor.
    pub fn record_service(&mut self, latency_us: u64) {
        let dev = self.dev_mut();
        if dev.ewma_latency_us == 0.0 {
            dev.ewma_latency_us = latency_us as f64;
        } else {
            dev.ewma_latency_us =
                EWMA_ALPHA * latency_us as f64 + (1.0 - EWMA_ALPHA) * dev.ewma_latency_us;
        }
    }

    /// Steady-state warm-up of the underlying device (§IV).
    pub fn warm_up(&mut self) -> Result<(), OsdError> {
        let dev = self.dev_mut();
        dev.ssd.warm_up()?;
        dev.wc_window_pages = 0;
        Ok(())
    }

    /// Resets wear counters (between setup and measurement).
    pub fn reset_wear(&mut self) {
        let dev = self.dev_mut();
        dev.ssd.reset_wear();
        dev.wc_window_pages = 0;
    }
}

impl Snapshot for Osd {
    /// The directory is serialized sorted by object id for canonical
    /// bytes; its hash-map iteration order is never behavior-relevant.
    fn save(&self, w: &mut SnapWriter) {
        // `dev` is read through `dev()`, which refuses a vacant slot.
        let Self { id, dev: _ } = self;
        let Device {
            ssd,
            extents,
            directory,
            ewma_latency_us,
            wc_window_pages,
        } = self.dev();
        id.save(w);
        ssd.save(w);
        extents.save(w);
        #[expect(
            clippy::disallowed_methods,
            reason = "entries are collected and sorted by object id before serialization"
        )]
        let mut dir: Vec<(ObjectId, Extent)> = directory.iter().map(|(&o, &e)| (o, e)).collect();
        dir.sort_by_key(|(o, _)| *o);
        dir.save(w);
        w.put_f64(*ewma_latency_us);
        w.put_u64(*wc_window_pages);
    }
    fn load(r: &mut SnapReader) -> Self {
        let id = OsdId::load(r);
        let ssd = Ssd::load(r);
        let extents = ExtentAllocator::load(r);
        let dir = Vec::<(ObjectId, Extent)>::load(r);
        let directory: IdMap<ObjectId, Extent> = dir.iter().copied().collect();
        if directory.len() != dir.len() {
            r.corrupt("object directory has duplicate entries");
        }
        let dev = Device {
            ssd,
            extents,
            directory,
            ewma_latency_us: r.take_f64(),
            wc_window_pages: r.take_u64(),
        };
        if !r.failed() {
            #[expect(
                clippy::disallowed_methods,
                reason = "summation over values is order-insensitive"
            )]
            let dir_bytes: u64 = dev.directory.values().map(|e| e.len).sum();
            if dir_bytes != dev.extents.used_bytes() {
                r.corrupt("object directory disagrees with the extent allocator");
            }
        }
        Osd { id, dev: Some(dev) }
    }
}

#[expect(
    clippy::panic,
    reason = "a shard engine reached a device its component does not own; aborting beats mis-simulating"
)]
#[cold]
fn vacant_slot_touched(id: OsdId) -> ! {
    panic!("{id} is vacant in this shard: its device belongs to another component")
}

/// Number of pages an access `[offset, offset + len)` touches. Shared
/// with the replay engine's access accounting.
pub(crate) fn pages_spanned(offset: u64, len: u64, page_size: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    (offset + len - 1) / page_size - offset / page_size + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osd() -> Osd {
        Osd::with_ftl(
            OsdId(0),
            8 * 1024 * 1024,
            LatencyModel::PAPER,
            FtlConfig::default(),
        )
    }

    #[test]
    fn create_write_read_remove_cycle() {
        let mut o = osd();
        o.create_object(ObjectId(1), 64 * 1024, true).unwrap();
        assert!(o.has_object(ObjectId(1)));
        assert_eq!(o.object_size(ObjectId(1)), Some(64 * 1024));
        let t = o.write_object(ObjectId(1), 0, 4096).unwrap();
        assert!(t.as_micros() >= 200);
        let t = o.read_object(ObjectId(1), 4096, 4096).unwrap();
        assert_eq!(t.as_micros(), 25);
        o.remove_object(ObjectId(1)).unwrap();
        assert!(!o.has_object(ObjectId(1)));
        assert_eq!(o.free_bytes(), o.capacity_bytes());
    }

    #[test]
    fn duplicate_and_unknown_objects_rejected() {
        let mut o = osd();
        o.create_object(ObjectId(1), 4096, false).unwrap();
        assert!(matches!(
            o.create_object(ObjectId(1), 4096, false),
            Err(OsdError::DuplicateObject(_))
        ));
        assert!(matches!(
            o.read_object(ObjectId(9), 0, 1),
            Err(OsdError::UnknownObject(_))
        ));
        assert!(matches!(
            o.remove_object(ObjectId(9)),
            Err(OsdError::UnknownObject(_))
        ));
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut o = osd();
        o.create_object(ObjectId(1), 8192, false).unwrap();
        assert!(matches!(
            o.write_object(ObjectId(1), 4096, 8192),
            Err(OsdError::OutOfBounds { .. })
        ));
    }

    /// `offset + len` past `u64::MAX` must not wrap back under the bound.
    #[test]
    fn extents_that_overflow_u64_are_out_of_bounds() {
        let mut o = osd();
        o.create_object(ObjectId(1), 8192, true).unwrap();
        let wear = o.ssd().wear().clone();
        for (offset, len) in [(u64::MAX, 2), (2, u64::MAX), (u64::MAX, u64::MAX)] {
            assert!(matches!(
                o.read_object(ObjectId(1), offset, len),
                Err(OsdError::OutOfBounds { .. })
            ));
            assert!(matches!(
                o.write_object(ObjectId(1), offset, len),
                Err(OsdError::OutOfBounds { .. })
            ));
        }
        assert_eq!(*o.ssd().wear(), wear);
    }

    #[test]
    fn no_space_is_reported() {
        let mut o = osd();
        let too_big = o.capacity_bytes() + 1;
        assert!(matches!(
            o.create_object(ObjectId(1), too_big, false),
            Err(OsdError::NoSpace { .. })
        ));
    }

    #[test]
    fn utilization_tracks_extents() {
        let mut o = osd();
        assert_eq!(o.utilization(), 0.0);
        let half = o.capacity_bytes() / 2;
        o.create_object(ObjectId(1), half, false).unwrap();
        assert!((o.utilization() - 0.5).abs() < 0.01);
    }

    #[test]
    fn wc_window_counts_written_pages() {
        let mut o = osd();
        o.create_object(ObjectId(1), 64 * 1024, false).unwrap();
        o.reset_wc_window();
        o.write_object(ObjectId(1), 0, 8192).unwrap();
        assert_eq!(o.wc_window_pages(), 2);
        // Unaligned 4 KB spanning two pages counts as two.
        o.write_object(ObjectId(1), 2048, 4096).unwrap();
        assert_eq!(o.wc_window_pages(), 4);
        o.reset_wc_window();
        assert_eq!(o.wc_window_pages(), 0);
    }

    #[test]
    fn ewma_latency_moves_toward_samples() {
        let mut o = osd();
        o.record_service(1000);
        assert!((o.ewma_latency_us() - 1000.0).abs() < 1e-9);
        for _ in 0..200 {
            o.record_service(100);
        }
        assert!(o.ewma_latency_us() < 200.0);
        assert!(o.ewma_latency_us() >= 100.0);
    }

    #[test]
    fn pages_spanned_examples() {
        assert_eq!(pages_spanned(0, 0, 4096), 0);
        assert_eq!(pages_spanned(0, 1, 4096), 1);
        assert_eq!(pages_spanned(0, 4096, 4096), 1);
        assert_eq!(pages_spanned(4095, 2, 4096), 2);
        assert_eq!(pages_spanned(100, 8192, 4096), 3);
    }

    #[test]
    fn read_whole_object_costs_all_pages() {
        let mut o = osd();
        o.create_object(ObjectId(1), 16 * 4096, true).unwrap();
        let t = o.read_whole_object(ObjectId(1)).unwrap();
        assert_eq!(t.as_micros(), 16 * 25);
    }
}
