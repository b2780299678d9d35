//! Configuration of the EDM policies.

use crate::alg1::Alg1Config;
use crate::temperature::AccessTracker;
use crate::wear_model::PAPER_SIGMA;

/// Which engine vets a plan before the policy publishes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Assessor {
    /// The one-window projection loop over every object footprint — the
    /// reference semantics (default).
    #[default]
    Projection,
    /// The closed-form mean-field fast path (`edm-model`): incremental
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
    /// Impact factor σ of the wear model (Eq. 3).
    pub sigma: f64,
    /// When true, skip the trigger check at plan time — the paper's
    /// experiments "enforce the OSDs to shuffle objects in the middle time
    /// point of trace replay" (§V.A).
    pub force: bool,
    /// CDF: objects with total temperature below this are cold candidates
    /// ("target objects which meet Tₖ(O) less than a threshold",
    /// §III.B.5).
    pub cold_threshold: f64,
    /// Width of one temperature interval (Eq. 5's time-line split).
    pub temperature_interval_us: u64,
    /// Algorithm 1 tunables.
    pub alg1: Alg1Config,
    /// Soft free-space reserve kept on destinations while planning
    /// ("to avoid disk saturation", §III.B.5), as a fraction of capacity.
    pub dest_free_reserve: f64,
    /// Cap on tracked object entries — §IV's memory reduction ("we only
    /// cache the k hottest objects in memory"). `None` tracks everything.
    pub tracker_capacity: Option<usize>,
    /// Plan-vetting engine (reference projection loop vs the `edm-model`
    /// closed-form fast path).
    pub assessor: Assessor,
}

impl Default for EdmConfig {
    fn default() -> Self {
        EdmConfig {
            lambda: 0.10,
            sigma: PAPER_SIGMA,
            force: true,
            cold_threshold: 1.0,
            temperature_interval_us: AccessTracker::DEFAULT_INTERVAL_US,
            alg1: Alg1Config::default(),
            dest_free_reserve: 0.05,
            tracker_capacity: None,
            assessor: Assessor::Projection,
        }
    }
}

impl EdmConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.lambda < 0.0 {
            return Err("lambda must be non-negative".into());
        }
        if !(0.0..1.0).contains(&self.sigma) {
            return Err("sigma must be in [0, 1)".into());
        }
        if self.cold_threshold < 0.0 {
            return Err("cold_threshold must be non-negative".into());
        }
        if self.temperature_interval_us == 0 {
            return Err("temperature interval must be positive".into());
        }
        if !(0.0..1.0).contains(&self.dest_free_reserve) {
            return Err("dest_free_reserve must be in [0, 1)".into());
        }
        if self.tracker_capacity == Some(0) {
            return Err("tracker_capacity must be positive when set".into());
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
        assert!((c.sigma - 0.28).abs() < 1e-12);
        assert!(c.force);
        assert_eq!(c.alg1.iterations, 500);
        assert!((c.alg1.eps_step - 0.001).abs() < 1e-12);
        c.validate().unwrap();
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
            sigma: 1.0,
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
