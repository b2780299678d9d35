//! Configuration of the EDM policies.

use crate::temperature::AccessTracker;

/// Which engine vets a plan before the policy publishes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Assessor {
    /// The one-window projection loop over every object footprint — the
    /// reference semantics (default).
    #[default]
    Projection,
    /// The incremental fast path (`trim_to_improvement_model`):
    /// O(1)-per-trimmed-move evaluation, with the published plan still
    /// reference-checked so it can never disagree with `Projection` on
    /// whether a plan improves balance.
    Model,
}

impl Assessor {
    pub fn label(&self) -> &'static str {
        match self {
            Assessor::Projection => "projection",
            Assessor::Model => "model",
        }
    }

    pub fn from_label(label: &str) -> Option<Assessor> {
        match label {
            "projection" => Some(Assessor::Projection),
            "model" => Some(Assessor::Model),
            _ => None,
        }
    }
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
    /// Plan-vetting engine (reference projection loop vs the incremental
    /// fast path).
    pub assessor: Assessor,
}

impl Default for EdmConfig {
    fn default() -> Self {
        EdmConfig {
            lambda: 0.10,
            force: true,
            temperature_interval_us: AccessTracker::DEFAULT_INTERVAL_US,
            assessor: Assessor::Projection,
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
        let alg1 = crate::alg1::Alg1Config::default();
        assert_eq!(alg1.iterations, 500);
        assert!((alg1.eps_step - 0.001).abs() < 1e-12);
    }

    #[test]
    fn assessor_labels_round_trip() {
        assert_eq!(EdmConfig::default().assessor, Assessor::Projection);
        for a in [Assessor::Projection, Assessor::Model] {
            assert_eq!(Assessor::from_label(a.label()), Some(a));
        }
        assert_eq!(Assessor::from_label("simulator"), None);
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
