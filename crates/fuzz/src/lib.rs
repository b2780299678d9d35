#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-fuzz — deterministic scenario fuzzing with differential oracles
//!
//! The repo's correctness story (PRs 1–4) is built on redundancy: the
//! same run can be executed per-page or span-batched, with observability
//! on or off, straight through or checkpoint-and-resumed — and every
//! variant must agree bit-for-bit. This crate turns that redundancy into
//! an automated correctness engine:
//!
//! * [`rng`] — a tiny splitmix64 PRNG, so fuzzing is a pure function of
//!   the seed (no ambient randomness, replayable anywhere);
//! * [`gen`] — draws random-but-valid [`edm_scenario::Scenario`]s from a
//!   constrained grammar (trace × scale × cluster shape × policy ×
//!   schedule × failure/rebuild events);
//! * [`oracle`] — the differential oracle panel each scenario must pass;
//! * [`mod@shrink`] — greedy minimization of a failing scenario, preserving
//!   the failing oracle;
//! * [`corpus`] — repro `.scn` emission and the regression corpus layout
//!   replayed by `tests/fuzz_replay.rs`.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use corpus::{minimal_text, write_repro};
pub use gen::generate;
pub use oracle::{check_scenario, OracleFailure, OracleStats};
pub use rng::Rng;
pub use shrink::shrink;
