#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-workload — trace substrate for the EDM reproduction
//!
//! The paper (Ou et al., IPDPS 2014) evaluates EDM by replaying seven NFS
//! traces from Harvard storage servers (Table 1) plus a synthetic `random`
//! workload (Fig. 3). This crate provides:
//!
//! * [`op`] / [`trace`] — NFS-style trace records (open/close/read/write)
//!   and the in-memory trace container;
//! * [`zipf`] — exact Zipf sampling for skewed popularity;
//! * [`spec`] — workload specifications: the Table 1 aggregates plus skew
//!   knobs;
//! * [`synth`] — a deterministic synthesizer that hits the Table 1 counts
//!   exactly and reproduces the locality the Harvard traces exhibit;
//! * [`harvard`] — the seven named presets and the `random` workload;
//! * [`replay`] — per-user assignment of records to load-generating
//!   clients (§V.A).
//!
//! ```
//! use edm_workload::harvard;
//! use edm_workload::synth::synthesize;
//!
//! // A 0.1 %-scale home02 for a quick experiment:
//! let spec = harvard::spec("home02").scaled(0.001);
//! let trace = synthesize(&spec);
//! assert_eq!(trace.stats().write_cnt, spec.write_cnt);
//! ```

pub mod analysis;
pub mod harvard;
pub mod op;
pub mod replay;
pub mod spec;
pub mod synth;
pub mod trace;
pub mod transform;
pub mod zipf;

pub use analysis::{profile, WorkloadProfile};
pub use op::{FileId, FileOp, TraceRecord};
pub use spec::{FileSizeModel, SkewProfile, WorkloadSpec};
pub use trace::{Trace, TraceStats};
pub use zipf::Zipf;
