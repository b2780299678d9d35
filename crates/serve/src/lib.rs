#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-serve — a live endurance-aware migration daemon
//!
//! The batch harness answers "what would EDM have done for this trace";
//! this crate keeps the same deterministic machinery *running*: a
//! long-lived process that ingests an operation stream, runs the wear
//! monitor, trigger evaluation, and Algorithm 1 online, and applies the
//! resulting migrations through a pluggable [`backend::Backend`].
//!
//! Two session modes share one control plane:
//!
//! * **replay** — a scenario's synthesized trace is replayed through the
//!   cluster engine ([`edm_cluster::LiveRun`]) under a wall-clock
//!   [`pacer::DilatedPacer`]: virtual microseconds are scaled onto real
//!   ones, and the engine yields between events so the daemon can
//!   service control traffic without perturbing the replay digest.
//! * **ingest** — operations arrive over HTTP (`POST /ingest`, a
//!   line-per-op text protocol) and drive [`ingest::LiveWorld`], which
//!   services each op at once through the functions the batch engine
//!   calls (`Cluster::file_subops`, `migrate::plan_round`,
//!   `Cluster::begin_move`/`finish_move`, `migrate::close_wc_window`),
//!   adding only line validation, a virtual clock and resume dedup.
//!
//! The HTTP surface ([`http`], [`server`]) is a dependency-free
//! HTTP/1.1 subset: `GET /healthz`, `/nodes`, `/plan`, `/stats`,
//! Prometheus-style `/metrics`, plus `POST /ingest` and the admin verbs
//! `/pause`, `/resume`, `/checkpoint`, `/shutdown`. Views are rendered on
//! demand: a `GET` asks the session thread for the one view it names and
//! gets it from the session's next safe point ([`state`]); a daemon
//! nobody reads renders nothing.
//!
//! Crash recovery reuses `edm-snap`: both modes cut checkpoints at wear
//! ticks (the only instant with no mid-decision state), and `--resume`
//! restores cluster + policy state bit-identically — an interrupted
//! ingest session re-fed the same op stream converges to the same
//! `/stats` as an uninterrupted one. Design notes: DESIGN.md §13.

pub mod backend;
pub mod daemon;
pub mod http;
pub mod ingest;
pub mod pacer;
pub mod recorder;
pub mod server;
pub mod state;
pub mod views;

pub use backend::{Backend, DirBackend, MemBackend};
pub use daemon::{run_daemon_on, BackendKind, DaemonConfig, Mode};
pub use ingest::{dump_ops, ApplyOutcome, LiveStats, LiveWorld};
pub use pacer::{DilatedPacer, FlatOut};
pub use recorder::ServeRecorder;
pub use state::Ctrl;
