#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-harness — regenerating the paper's tables and figures
//!
//! One module per evaluation artifact of the paper (Table 1, Figures 1,
//! 3, 5, 6, 7, 8) plus ablations, and the [`runner`]: one plain-data
//! [`Run`] description, one fallible build-and-replay, one worker pool.
//! Every experiment is a list of `Run`s (or, for Fig. 3, of device
//! measurements) plus a renderer. The `edm-exp` binary dispatches by
//! experiment id:
//!
//! ```text
//! cargo run --release -p edm-harness --bin edm-exp -- fig5 --scale 0.05
//! ```
//!
//! Scenario parsing, trace/cluster construction, ASCII report rendering
//! and the determinism digest live in `edm-scenario` (shared with the
//! `edm-serve` daemon).

pub mod experiments;
pub mod runner;

pub use runner::{run_all, Cell, Run, RunConfig, TraceKey};
