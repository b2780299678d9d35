#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! # edm-core — the EDM endurance-aware data migration scheme
//!
//! From-scratch reproduction of *EDM: an Endurance-aware Data Migration
//! Scheme for Load Balancing in SSD Storage Clusters* (Ou, Shu, Lu, Yi,
//! Wang — IPDPS 2014). EDM balances load in an SSD cluster by balancing
//! *wear*, moving as little data as possible so the migration itself does
//! not burn flash lifetime:
//!
//! * [`temperature`] — object temperature (Definition 1, Eq. 5/6) and the
//!   access tracker of the EDM architecture (Fig. 4);
//! * [`trigger`] — the wear-imbalance trigger: relative standard deviation
//!   of per-device model erase counts vs. λ (§III.B.2);
//! * [`alg1`] — Algorithm 1: iterative max/min pairing that computes how
//!   many page writes (HDF) or how much utilization (CDF) each device
//!   should shed or absorb;
//! * [`policy`] — the [`Edm`] policy under its Hot-Data-First or
//!   Cold-Data-First [`Selection`] rule plus the [`Cmt`]
//!   conventional-migration baseline, all implementing
//!   [`edm_cluster::Migrator`];
//! * [`plan`] — distributing selected objects over destinations "in
//!   proportion to ΔWc" under free-space budgets;
//! * [`config`] — the tunables a run may set (λ, forced planning, the
//!   temperature interval); σ = 0.28 and Algorithm 1's
//!   500 iterations, ε = 0.001 and 50 % CDF floor are fixed.
//!
//! The SSD wear model of Eq. 1–4 — erase count as a function of host
//! write pages `Wc` and disk utilization `u`, with the skew-corrected uᵣ
//! relation (σ = 0.28, Fig. 3) — is `edm-model`'s
//! [`MeanFieldModel::paper`](edm_model::MeanFieldModel::paper); the
//! trigger, Algorithm 1 and the plan assessor all evaluate it. The
//! remapping-table manager and data mover of Fig. 4 live in
//! `edm-cluster` (`remap`, `sim`), where the moved objects are actually
//! tracked and shuffled.
//!
//! ```
//! use edm_core::{calculate_hdf, free_pages_per_erase};
//! use edm_model::MeanFieldModel;
//!
//! // Eq. 4: a device with 100k page writes at 70 % utilization.
//! let model = MeanFieldModel::paper(32);
//! let erases = model.erase_count(100_000.0, 0.70);
//! assert!(erases > 100_000.0 / 32.0); // GC overhead makes it worse than ideal
//!
//! // Algorithm 1 (HDF) shifts page writes from the hot device to the cold one.
//! let free_pages = free_pages_per_erase(&[0.70, 0.70], &model);
//! let out = calculate_hdf(&[100_000.0, 0.0], &free_pages);
//! assert!(out.delta[0] < 0.0 && out.delta[1] > 0.0);
//! ```

pub mod alg1;
pub mod config;
pub mod evaluate;
pub mod lifetime;
pub mod plan;
pub mod policy;
pub mod temperature;
pub mod trigger;

pub use alg1::{calculate_cdf, calculate_hdf, free_pages_per_erase, MovementAmounts};
pub use config::{Assessor, EdmConfig};
pub use evaluate::{assess_plan, PlanAssessment};
pub use lifetime::{DeviceLifetime, EnduranceSpec};
pub use policy::{Cmt, CmtConfig, Edm, Selection};
pub use temperature::{AccessTracker, ObjectHeat};
pub use trigger::TriggerDecision;

use edm_cluster::{Migrator, NoMigration};

/// All four systems of the evaluation (§V): Baseline, CMT, EDM-HDF,
/// EDM-CDF — in the paper's plotting order.
pub const POLICY_NAMES: [&str; 4] = ["Baseline", "CMT", "EDM-HDF", "EDM-CDF"];

/// Instantiates a policy by its evaluation name ([`POLICY_NAMES`]). CMT
/// takes its λ and `force` from `cfg`; Baseline ignores it.
pub fn make_policy(name: &str, cfg: EdmConfig) -> Result<Box<dyn Migrator>, String> {
    Ok(match name {
        "Baseline" => Box::new(NoMigration),
        "CMT" => Box::new(Cmt::new(CmtConfig {
            lambda: cfg.lambda,
            force: cfg.force,
        })),
        "EDM-HDF" => Box::new(Edm::new(Selection::Hdf, cfg)),
        "EDM-CDF" => Box::new(Edm::new(Selection::Cdf, cfg)),
        other => {
            return Err(format!(
                "unknown policy {other:?} (want one of {})",
                POLICY_NAMES.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_policy_covers_all_names() {
        for name in POLICY_NAMES {
            let policy = make_policy(name, EdmConfig::default()).expect("evaluation name");
            assert_eq!(policy.name(), name);
        }
    }

    #[test]
    fn unknown_policy_is_an_error() {
        for name in ["nope", "", "edm-hdf", "EDM-HDF "] {
            let err = make_policy(name, EdmConfig::default())
                .err()
                .expect("not an evaluation name");
            assert!(err.contains("unknown policy"), "{err}");
        }
    }
}
