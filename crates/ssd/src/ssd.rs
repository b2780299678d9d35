//! The SSD device façade: byte-granular host interface over the page-level
//! FTL, plus the steady-state warm-up procedure of §IV.

use edm_obs::{NoopRecorder, Recorder};
use edm_snap::snapshot_struct;

use crate::ftl::{FtlConfig, FtlError, PageLevelFtl};
use crate::geometry::Geometry;
use crate::latency::{DeviceTime, LatencyModel};
use crate::wear::WearStats;

/// Snapshot of an SSD's externally observable state, cheap to copy out of
/// the simulation for reporting.
#[derive(Debug, Clone)]
pub struct SsdSnapshot {
    pub wear: WearStats,
    pub utilization: f64,
    pub mapped_pages: u64,
    pub exported_pages: u64,
    pub measured_ur: Option<f64>,
}

/// One simulated NAND-flash SSD.
///
/// All operations return the [`DeviceTime`] they consumed, so a caller (the
/// OSD service loop) can advance its virtual clock; garbage-collection
/// stalls are charged to the operation that triggered them, which is
/// exactly the blocking behaviour the paper identifies as the driver of
/// load imbalance (§II).
#[derive(Clone)]
pub struct Ssd {
    ftl: PageLevelFtl,
    latency: LatencyModel,
}

impl Ssd {
    pub fn new(geometry: Geometry, latency: LatencyModel) -> Self {
        Ssd {
            ftl: PageLevelFtl::new(geometry, FtlConfig::default()),
            latency,
        }
    }

    pub fn with_config(geometry: Geometry, latency: LatencyModel, config: FtlConfig) -> Self {
        Ssd {
            ftl: PageLevelFtl::new(geometry, config),
            latency,
        }
    }

    pub fn geometry(&self) -> &Geometry {
        self.ftl.geometry()
    }

    pub fn wear(&self) -> &WearStats {
        self.ftl.stats()
    }

    pub fn utilization(&self) -> f64 {
        self.ftl.utilization()
    }

    pub fn mapped_pages(&self) -> u64 {
        self.ftl.mapped_pages()
    }

    /// Free exported capacity, in bytes.
    pub fn free_bytes(&self) -> u64 {
        (self.geometry().exported_pages() - self.ftl.mapped_pages()) * self.geometry().page_size
    }

    pub fn snapshot(&self) -> SsdSnapshot {
        SsdSnapshot {
            wear: self.ftl.stats().clone(),
            utilization: self.ftl.utilization(),
            mapped_pages: self.ftl.mapped_pages(),
            exported_pages: self.geometry().exported_pages(),
            measured_ur: self
                .ftl
                .stats()
                .measured_ur(self.geometry().pages_per_block),
        }
    }

    /// Reads `len` bytes starting at logical byte `offset`.
    pub fn read(&mut self, offset: u64, len: u64) -> Result<DeviceTime, FtlError> {
        let (start, n) = self.page_span(offset, len)?;
        self.ftl.read_span(start, n, &self.latency)
    }

    /// Writes `len` bytes starting at logical byte `offset` (out-of-place),
    /// reporting the FTL events (GC, erases, wear leveling) the write
    /// triggers to `obs`.
    pub fn write(
        &mut self,
        offset: u64,
        len: u64,
        obs: &mut dyn Recorder,
    ) -> Result<DeviceTime, FtlError> {
        let (start, n) = self.page_span(offset, len)?;
        self.ftl.write_span(start, n, &self.latency, obs)
    }

    /// Unmaps `len` bytes starting at logical byte `offset`.
    pub fn trim(&mut self, offset: u64, len: u64) -> Result<(), FtlError> {
        let (start, n) = self.page_span(offset, len)?;
        self.ftl.trim_span(start, n)
    }

    /// Converts a byte extent to `(first page, page count)`. An extent
    /// whose end does not fit in a `u64` runs past any exported capacity.
    fn page_span(&self, offset: u64, len: u64) -> Result<(u64, u64), FtlError> {
        if len == 0 {
            return Ok((0, 0));
        }
        let ps = self.geometry().page_size;
        let first = offset / ps;
        let end = offset.checked_add(len - 1).ok_or_else(|| {
            let exported = self.geometry().exported_pages();
            FtlError::OutOfRange {
                lpn: first.max(exported),
                exported,
            }
        })?;
        Ok((first, end / ps - first + 1))
    }

    /// Steady-state warm-up (§IV): the paper first writes dummy data equal
    /// to the SSD's capacity so erase counts are measured in steady state.
    ///
    /// We reproduce the effect while preserving the current utilization:
    /// every mapped logical page is rewritten once and the unmapped logical
    /// region is written then trimmed, so every physical block gets
    /// exercised; wear counters are then reset so that subsequent
    /// measurements exclude the cold-start.
    pub fn warm_up(&mut self) -> Result<(), FtlError> {
        let lat = self.latency;
        let exported = self.geometry().exported_pages();
        // Pass 1: rewrite live data (keeps it live, churns blocks).
        // Rewrites never change which pages are mapped, so consecutive
        // mapped runs can go through the batched span path.
        let mut run_start: Option<u64> = None;
        for lpn in 0..=exported {
            let mapped = lpn < exported && self.ftl.is_mapped(lpn);
            match (run_start, mapped) {
                (None, true) => run_start = Some(lpn),
                (Some(start), false) => {
                    self.ftl
                        .write_span(start, lpn - start, &lat, &mut NoopRecorder)?;
                    run_start = None;
                }
                _ => {}
            }
        }
        // Pass 2: cycle the free logical space through the device once.
        // This one stays per-page: the write/trim interleaving is what
        // bounds the live footprint while every block gets exercised.
        for lpn in 0..exported {
            if !self.ftl.is_mapped(lpn) {
                self.ftl.write_span(lpn, 1, &lat, &mut NoopRecorder)?;
                self.ftl.trim_span(lpn, 1)?;
            }
        }
        self.ftl.stats_mut().reset();
        Ok(())
    }

    /// Resets wear counters without touching data (used between measurement
    /// phases).
    pub fn reset_wear(&mut self) {
        self.ftl.stats_mut().reset();
    }

    /// See [`PageLevelFtl::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), String> {
        self.ftl.check_invariants()
    }
}

snapshot_struct!(Ssd { ftl, latency });

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Ssd {
        Ssd::new(
            Geometry {
                page_size: 4096,
                pages_per_block: 8,
                blocks: 64,
                over_provision_ppt: 100,
            },
            LatencyModel::PAPER,
        )
    }

    #[test]
    fn byte_ops_round_to_pages() {
        let mut ssd = small();
        // 1 byte still programs a whole page.
        let t = ssd.write(0, 1, &mut NoopRecorder).unwrap();
        assert_eq!(t.as_micros(), 200);
        // 4097 bytes spans two pages.
        let t = ssd.write(8192, 4097, &mut NoopRecorder).unwrap();
        assert_eq!(t.as_micros(), 400);
        // An unaligned 8 KB starting mid-page touches three pages.
        let t = ssd.read(100, 8192).unwrap();
        assert_eq!(t.as_micros(), 3 * 25);
        // Zero-length I/O is free.
        assert_eq!(ssd.read(0, 0).unwrap(), DeviceTime::ZERO);
        assert_eq!(
            ssd.write(0, 0, &mut NoopRecorder).unwrap(),
            DeviceTime::ZERO
        );
    }

    /// A byte extent whose end passes `u64::MAX` is out of range, not a
    /// wrapped-around short (or empty) span.
    #[test]
    fn extents_that_overflow_u64_are_out_of_range() {
        let mut ssd = small();
        ssd.write(0, 8 * 4096, &mut NoopRecorder).unwrap();
        let wear = ssd.wear().clone();
        let mapped = ssd.mapped_pages();
        for (offset, len) in [(u64::MAX, 2), (4096, u64::MAX), (u64::MAX, u64::MAX)] {
            let out_of_range = |r: Result<(), FtlError>| {
                assert!(
                    matches!(r, Err(FtlError::OutOfRange { .. })),
                    "({offset}, {len}) -> {r:?}"
                );
            };
            out_of_range(ssd.read(offset, len).map(drop));
            out_of_range(ssd.write(offset, len, &mut NoopRecorder).map(drop));
            out_of_range(ssd.trim(offset, len));
        }
        assert_eq!(*ssd.wear(), wear);
        assert_eq!(ssd.mapped_pages(), mapped);
    }

    #[test]
    fn trim_releases_capacity() {
        let mut ssd = small();
        let before = ssd.free_bytes();
        ssd.write(0, 16 * 4096, &mut NoopRecorder).unwrap();
        assert_eq!(ssd.free_bytes(), before - 16 * 4096);
        ssd.trim(0, 16 * 4096).unwrap();
        assert_eq!(ssd.free_bytes(), before);
    }

    #[test]
    fn warm_up_preserves_utilization_and_resets_wear() {
        let mut ssd = small();
        ssd.write(0, 64 * 4096, &mut NoopRecorder).unwrap();
        let util_before = ssd.utilization();
        ssd.warm_up().unwrap();
        assert!((ssd.utilization() - util_before).abs() < 1e-12);
        assert_eq!(ssd.wear().host_page_writes, 0);
        assert_eq!(ssd.wear().block_erases, 0);
        ssd.check_invariants().unwrap();
    }

    #[test]
    fn warm_up_exercises_gc() {
        let mut ssd = small();
        ssd.write(0, 32 * 4096, &mut NoopRecorder).unwrap();
        // Warm-up writes ≈ exported capacity: that exceeds raw space, so
        // the GC must have run at least once during it. We can't observe
        // the reset counters, so run it twice and check invariants hold.
        ssd.warm_up().unwrap();
        ssd.warm_up().unwrap();
        ssd.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut ssd = small();
        ssd.write(0, 10 * 4096, &mut NoopRecorder).unwrap();
        let snap = ssd.snapshot();
        assert_eq!(snap.mapped_pages, 10);
        assert_eq!(snap.wear.host_page_writes, 10);
        assert!(snap.utilization > 0.0);
    }
}
