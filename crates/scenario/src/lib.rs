#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-scenario — declarative, reproducible simulation runs
//!
//! The layer every front end shares: the line-oriented scenario text
//! format ([`Scenario`]), deterministic trace synthesis and cluster
//! construction from it, batch runs with optional wear-tick
//! checkpoints, snapshot-embedded metadata ([`SnapMeta`]) for
//! self-contained resume, the one checkpoint opener ([`Checkpoint`]),
//! and the determinism [`report_digest`] that
//! turns "two runs are bit-identical" into one comparable number.
//!
//! Historically part of `edm-harness`; split out so long-running hosts
//! (the `edm-serve` daemon) can build worlds from the same scenario
//! files without pulling in the experiment harness — and so the harness
//! can depend on those hosts for benchmarking without a dependency
//! cycle.

pub mod report;
pub mod scenario;

pub use report::{fnv1a, grouped, render_table, report_digest, signed_pct};
pub use scenario::{render_report, resume_snapshot, Checkpoint, Scenario, SnapMeta};
