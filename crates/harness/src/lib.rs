#![forbid(unsafe_code)]
//! # edm-harness — regenerating the paper's tables and figures
//!
//! One module per evaluation artifact of the paper (Table 1, Figures 1,
//! 3, 5, 6, 7, 8) plus ablations, a parallel sweep [`runner`], and ASCII
//! report rendering. The `edm-exp` binary dispatches by experiment id:
//!
//! ```text
//! cargo run --release -p edm-harness --bin edm-exp -- fig5 --scale 0.05
//! ```
//!
//! Scenario parsing, trace/cluster construction, and the determinism
//! digest live in `edm-scenario` (shared with the `edm-serve` daemon);
//! the [`report`] and [`scenario`] modules re-export them here so
//! existing callers keep their paths.

pub mod experiments;
pub mod runner;

/// Re-export of [`edm_scenario::report`] under its historical path.
pub mod report {
    pub use edm_scenario::report::*;
}

/// Re-export of [`edm_scenario::scenario`] under its historical path.
pub mod scenario {
    pub use edm_scenario::scenario::*;
}

pub use report::report_digest;
pub use runner::{run_cell, run_matrix, trace_for, Cell, RunConfig};
pub use scenario::{resume_snapshot, Scenario, SnapMeta};
