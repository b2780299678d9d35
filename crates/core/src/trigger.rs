//! Migration trigger condition (§III.B.2) — the wear monitor of Fig. 4.
//!
//! Every minute EDM computes each SSD's model erase count via Eq. 4.
//! Migration is desirable when there is *significant wear imbalance*:
//! `σₑ / Ēc (relative standard deviation) > λ`. Devices with
//! `Ecᵢ − Ēc > Ēc · λ` are migration sources; devices below the
//! cluster-wide average form the destination set.

use edm_cluster::metrics::rsd;
use edm_obs::event::TriggerEval;
use edm_obs::{Event, Label};

/// The trigger verdict and the source/destination partition.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDecision {
    /// Relative standard deviation σₑ/Ēc of the per-device erase counts.
    pub rsd: f64,
    pub mean: f64,
    /// True when rsd > λ.
    pub triggered: bool,
    /// Indices of source devices (Ecᵢ − Ēc > Ēc·λ), descending by Ec.
    pub sources: Vec<usize>,
    /// Indices of destination devices (Ecᵢ < Ēc), ascending by Ec.
    pub destinations: Vec<usize>,
}

/// [`evaluate`] with an observability sink: journals the evaluation as a
/// [`edm_obs::Event::TriggerEval`] (policy and metric label the caller)
/// before returning the identical decision. Recording is read-only.
pub fn evaluate_obs(
    erase_counts: &[f64],
    lambda: f64,
    policy: Label,
    metric: Label,
    obs: &mut dyn edm_obs::Recorder,
) -> TriggerDecision {
    let decision = evaluate(erase_counts, lambda);
    if obs.events_on() {
        obs.event(Event::from(TriggerEval {
            policy,
            metric,
            rsd: decision.rsd,
            lambda,
            mean: decision.mean,
            triggered: decision.triggered,
            sources: decision.sources.iter().map(|&i| i as u64).collect(),
            destinations: decision.destinations.iter().map(|&i| i as u64).collect(),
        }));
    }
    decision
}

/// Evaluates the trigger over per-device (model) erase counts.
pub fn evaluate(erase_counts: &[f64], lambda: f64) -> TriggerDecision {
    assert!(lambda >= 0.0, "lambda must be non-negative");
    assert!(
        erase_counts.iter().all(|e| e.is_finite() && *e >= 0.0),
        "erase counts must be finite and non-negative"
    );
    let n = erase_counts.len();
    if n == 0 {
        return TriggerDecision {
            rsd: 0.0,
            mean: 0.0,
            triggered: false,
            sources: vec![],
            destinations: vec![],
        };
    }
    let mean = erase_counts.iter().sum::<f64>() / n as f64;
    let rsd = rsd(erase_counts.iter().copied());
    let triggered = rsd > lambda;
    let mut sources: Vec<usize> = (0..n)
        .filter(|&i| erase_counts[i] - mean > mean * lambda)
        .collect();
    sources.sort_by(|&a, &b| {
        #[expect(clippy::expect_used, reason = "wear values are finite by construction")]
        erase_counts[b]
            .partial_cmp(&erase_counts[a])
            .expect("finite")
    });
    let mut destinations: Vec<usize> = (0..n).filter(|&i| erase_counts[i] < mean).collect();
    destinations.sort_by(|&a, &b| {
        #[expect(clippy::expect_used, reason = "wear values are finite by construction")]
        erase_counts[a]
            .partial_cmp(&erase_counts[b])
            .expect("finite")
    });
    TriggerDecision {
        rsd,
        mean,
        triggered,
        sources,
        destinations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_cluster_does_not_trigger() {
        let d = evaluate(&[100.0, 101.0, 99.0, 100.0], 0.1);
        assert!(!d.triggered);
        assert!(d.rsd < 0.1);
        assert!(d.sources.is_empty());
        // Devices below the mean are still listed as potential dests.
        assert!(!d.destinations.is_empty());
    }

    #[test]
    fn imbalanced_cluster_triggers_and_partitions() {
        let ecs = [300.0, 100.0, 100.0, 100.0];
        let d = evaluate(&ecs, 0.1);
        assert!(d.triggered);
        assert_eq!(d.mean, 150.0);
        assert_eq!(d.sources, vec![0]);
        assert_eq!(d.destinations, vec![1, 2, 3]);
    }

    #[test]
    fn sources_sorted_descending_dests_ascending() {
        let ecs = [500.0, 400.0, 10.0, 50.0];
        let d = evaluate(&ecs, 0.1);
        assert_eq!(d.sources, vec![0, 1]);
        assert_eq!(d.destinations, vec![2, 3]);
    }

    #[test]
    fn source_needs_excess_beyond_lambda_margin() {
        // mean = 110, lambda 0.2 → threshold 132: only devices above it.
        let ecs = [120.0, 100.0, 110.0, 110.0];
        let d = evaluate(&ecs, 0.2);
        assert!(d.sources.is_empty());
        let d = evaluate(&[140.0, 100.0, 100.0, 100.0], 0.05);
        assert_eq!(d.sources, vec![0]);
    }

    #[test]
    fn zero_wear_cluster_is_quiet() {
        let d = evaluate(&[0.0, 0.0, 0.0], 0.1);
        assert!(!d.triggered);
        assert_eq!(d.rsd, 0.0);
        assert!(d.sources.is_empty());
        assert!(d.destinations.is_empty());
    }

    #[test]
    fn empty_input_is_quiet() {
        let d = evaluate(&[], 0.1);
        assert!(!d.triggered);
    }

    #[test]
    fn lambda_zero_triggers_on_any_variance() {
        let d = evaluate(&[100.0, 101.0], 0.0);
        assert!(d.triggered);
        let d = evaluate(&[100.0, 100.0], 0.0);
        assert!(!d.triggered);
    }
}
