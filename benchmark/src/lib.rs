//! # edm-benchmark — the repository's benchmark
//!
//! Five full-size workloads over the EDM reproduction, each run in a
//! process of its own: untraced for the end-to-end metrics (what a user
//! of `edm-sim`, `edm-probe` and `edm-serve` sees: host speed, host
//! memory, and the simulated statistics of the paper's Fig. 5–8), traced
//! for the per-layer ladder. The program under test is reached only
//! through its public functions; every span is taken by this crate,
//! around those calls. `README.md` beside this crate records why each
//! workload exists and how to read the output.

pub mod alloc;
pub mod catalog;
pub mod cli;
pub mod compare;
pub mod inputs;
pub mod policy;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Installed in every binary that links this crate, so the tests count
/// allocations exactly as `edm-benchmark` does.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
