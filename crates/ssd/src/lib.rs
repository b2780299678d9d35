#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-ssd — NAND flash SSD model
//!
//! The flash substrate of the EDM reproduction (Ou et al., *EDM: an
//! Endurance-aware Data Migration Scheme for Load Balancing in SSD Storage
//! Clusters*, IPDPS 2014). The paper runs its cluster on a flashsim-derived
//! simulator with a page-level FTL (§IV); this crate is a from-scratch
//! implementation of that substrate:
//!
//! * [`Geometry`] — 4 KB pages, 128 KB blocks, over-provisioned raw space;
//! * [`Block`] — the erase unit, with sequential programming and per-block
//!   wear counters;
//! * [`PageLevelFtl`] — out-of-place updates with greedy garbage
//!   collection (victim = fewest valid pages);
//! * [`LatencyModel`] — 25 µs page read / 200 µs page program / 2 ms block
//!   erase, the delays the paper injects;
//! * [`WearStats`] — host writes `Wc`, block erases `Ec`, GC relocations,
//!   and the measured victim valid-page ratio uᵣ that Fig. 3 compares
//!   against the analytic wear model;
//! * [`Ssd`] — byte-granular façade plus the steady-state warm-up of §IV.
//!
//! Every mutating operation returns the [`DeviceTime`] it consumed so the
//! cluster simulator can charge GC stalls to the request that triggered
//! them — the blocking behaviour §II identifies as the source of load
//! imbalance.
//!
//! ```
//! use edm_ssd::{Geometry, LatencyModel, Ssd};
//!
//! let mut ssd = Ssd::new(
//!     Geometry::for_exported_capacity(16 * 1024 * 1024),
//!     LatencyModel::PAPER,
//! );
//! let t = ssd.write(0, 8192, &mut edm_obs::NoopRecorder).unwrap(); // two 4 KB pages
//! assert_eq!(t.as_micros(), 400);
//! assert_eq!(ssd.wear().host_page_writes, 2);
//! ```

pub mod block;
pub mod ftl;
pub mod geometry;
pub mod latency;
pub mod ssd;
pub mod victim;
pub mod wear;
pub mod wear_leveling;

pub use block::{Block, PageState};
pub use ftl::{FtlConfig, FtlError, PageLevelFtl, PhysPage, VictimPolicy};
pub use geometry::Geometry;
pub use latency::{DeviceTime, LatencyModel};
pub use ssd::{Ssd, SsdSnapshot};
pub use victim::VictimBuckets;
pub use wear::WearStats;
pub use wear_leveling::{FreePool, SpreadTracker, WearLevelConfig};
