#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-cluster — object-storage cluster simulator
//!
//! The cluster substrate of the EDM reproduction (Ou et al., IPDPS 2014).
//! The paper's testbed is a pNFS cluster (clients + MDS + OSDs) whose OSDs
//! run flash simulators and handle requests serially (§IV); this crate
//! reproduces those dynamics as a deterministic discrete-event simulation:
//!
//! * [`placement`] — hash-based object placement (`inode mod n`, k
//!   continuous SSDs) and SSD groups with the intra-group migration rule
//!   (§III.A);
//! * [`raid`] — object-level RAID-5 striping with rotating parity and
//!   read-modify-write parity updates (§III.A);
//! * [`catalog`] / [`remap`] — the MDS file table and the remapping table
//!   that overlays moved objects (§III.C);
//! * [`osd`] / [`extent`] — storage nodes: one [`edm_ssd::Ssd`] each, an
//!   object directory, extent allocation, and the per-OSD statistics
//!   policies consume (`Wc` window, latency EWMA);
//! * [`cluster`] — capacity sizing (max utilization ≈ 70 %, §IV), file
//!   pre-creation, steady-state warm-up;
//! * [`sim`] — closed-loop replay with serial OSD queues, migration
//!   executed through the same queues (one mover stream per source OSD,
//!   in-flight objects blocked), wear-monitor ticks;
//! * [`migrate`] — the [`migrate::Migrator`] trait the EDM policies (in
//!   `edm-core`) implement, plus the no-migration baseline;
//! * [`metrics`] — throughput (Fig. 5), windowed response times (Fig. 7),
//!   per-OSD wear (Fig. 1, Fig. 6), moved-object counts (Fig. 8).

pub mod catalog;
pub mod cluster;
pub mod config;
pub mod extent;
pub mod ids;
pub mod live;
pub mod metrics;
pub mod migrate;
pub mod osd;
pub mod pace;
pub mod placement;
pub mod raid;
pub mod remap;
pub mod shard;
pub mod sim;

pub use catalog::{Catalog, FileMeta};
pub use cluster::Cluster;
pub use config::ClusterConfig;
pub use ids::{ClientId, GroupId, ObjectId, OsdId};
pub use live::{LiveRun, StepPause};
pub use metrics::{OsdWearSummary, ResponseWindow, RunReport};
pub use migrate::{
    AccessEvent, AccessKind, ClusterView, Migrator, MoveAction, NoMigration, ObjectView, OsdView,
};
pub use pace::{SimTime, TimeSource, TimeStep};
pub use placement::Placement;
pub use raid::{IoKind, ObjectIo, StripeLayout};
pub use remap::RemappingTable;
pub use shard::{shard_decision, ShardDecision};
pub use sim::{
    restore_world, resume_trace_obs_keep, run_trace, run_trace_obs_keep, CheckpointConfig,
    CheckpointCut, ClientAffinity, FailureSpec, MigrationSchedule, SimOptions, SnapManifest,
};
