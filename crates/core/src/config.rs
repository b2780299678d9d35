//! Configuration of the EDM policies.

use crate::temperature::AccessTracker;

/// Read by nothing: EDM trims every plan with
/// `evaluate::trim_to_improvement`. The enum and edm-scenario's
/// `Scenario::assessor` field stay only because the benchmark package
/// still names `Assessor::Model`; both go when the benchmark moves off
/// them (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assessor {
    Projection,
    Model,
}

/// Tunables shared by EDM-HDF and EDM-CDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdmConfig {
    /// Wear-imbalance trigger threshold λ (§III.B.2: "the threshold λ can
    /// be adjusted in real cases").
    pub lambda: f64,
    /// When true, skip the trigger check at plan time — the paper's
    /// experiments "enforce the OSDs to shuffle objects in the middle time
    /// point of trace replay" (§V.A).
    pub force: bool,
    /// Width of one temperature interval (Eq. 5's time-line split).
    pub temperature_interval_us: u64,
}

impl Default for EdmConfig {
    fn default() -> Self {
        EdmConfig {
            lambda: 0.10,
            force: true,
            temperature_interval_us: AccessTracker::DEFAULT_INTERVAL_US,
        }
    }
}

impl EdmConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.lambda < 0.0 {
            return Err("lambda must be non-negative".into());
        }
        if self.temperature_interval_us == 0 {
            return Err("temperature interval must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EdmConfig::default();
        assert!((c.lambda - 0.10).abs() < 1e-12);
        assert!(c.force);
        assert_eq!(c.temperature_interval_us, 60_000_000);
        c.validate().unwrap();
        assert!((edm_model::MODEL_SIGMA - 0.28).abs() < 1e-12);
        assert_eq!(crate::alg1::ITERATIONS, 500);
        assert!((crate::alg1::EPS_STEP - 0.001).abs() < 1e-12);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = EdmConfig {
            lambda: -0.1,
            ..EdmConfig::default()
        };
        assert!(c.validate().is_err());

        let c = EdmConfig {
            temperature_interval_us: 0,
            ..EdmConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
