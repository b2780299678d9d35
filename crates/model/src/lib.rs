#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-model — analytic mean-field wear model
//!
//! A fast, closed-form counterpart to the event-driven simulator, in the
//! spirit of Li/Lee/Lui's stochastic modeling of large-scale SSD systems:
//! per-device erase counts, garbage-collection cost, and cluster-level
//! wear imbalance are predicted from a handful of aggregates (host write
//! volume, write rate, disk utilization, over-provisioning, GC policy)
//! instead of being measured by replaying every request.
//!
//! The crate serves two roles:
//!
//! * **Scale-out planner** — `O(1)` per-device evaluation lets a planner
//!   assess a migration plan against thousands of devices without the
//!   one-window projection loop (`edm-core`'s `Assessor::Model`, applied
//!   by `trim_to_improvement_model`).
//! * **Standing differential oracle** — `edm-exp model-diff` runs the
//!   same parameters through the event-driven simulator and this model
//!   and gates CI on their divergence ([`divergence`]), so every future
//!   engine refactor is checked against an independent quantitative
//!   prediction.
//!
//! The greedy arm of [`MeanFieldModel`] is also the wear model EDM plans
//! with (§III.B.1, Eq. 1–4, σ = 0.28): `edm-core`'s trigger, Algorithm 1
//! and plan assessors all call it, so the function `model-diff` checks is
//! the one every plan uses. The gate's reference is the FTL simulator,
//! which shares no code with this crate.
//!
//! [`meanfield`] is the per-device model; [`cluster`] turns per-OSD
//! loads into the end-of-window erase vector and RSD that `/model` and
//! `model-diff` report.
//!
//! See `DESIGN.md` §15 for the equations, assumptions, and where model
//! and simulator are *expected* to diverge.

pub mod cluster;
pub mod divergence;
pub mod meanfield;

pub use cluster::{ClusterPrediction, OsdLoad};
pub use divergence::{ks_statistic, max_rel_error, normalize, rel_error};
pub use meanfield::{u_of_v, GcPolicy, MeanFieldModel, MODEL_SIGMA};
