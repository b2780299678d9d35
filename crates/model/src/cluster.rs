//! Cluster-level prediction: per-OSD erase counts over one window and
//! the RSD the EDM trigger would see at its end.
//!
//! Each device's erases come from the mean-field model
//! ([`MeanFieldModel::erase_count`]) applied to its own write volume and
//! utilization; the cluster RSD is the population RSD of those counts.

use crate::divergence::normalize;
use crate::meanfield::MeanFieldModel;

/// One device's aggregate load over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsdLoad {
    /// The window's host page writes.
    pub write_rate: f64,
    /// Live-data fraction of the device's physical capacity.
    pub utilization: f64,
}

/// End-of-window cluster prediction — the `/model` endpoint payload and
/// the `model-diff` comparator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPrediction {
    /// Predicted erase count per OSD at the end of the window.
    pub erases: Vec<f64>,
    /// Predicted write amplification per OSD.
    pub write_amplification: Vec<f64>,
    /// Normalized predicted erase shares.
    pub shares: Vec<f64>,
    /// Cluster GC rate: predicted new erases per host page written.
    pub gc_rate: f64,
    /// Predicted end-of-window RSD of the erase counts (population
    /// moments, matching `edm-core`'s trigger RSD).
    pub rsd: f64,
}

impl ClusterPrediction {
    pub fn predict(model: &MeanFieldModel, loads: &[OsdLoad]) -> Self {
        let erases: Vec<f64> = loads
            .iter()
            .map(|l| model.erase_count(l.write_rate, l.utilization.clamp(0.0, 1.0)))
            .collect();
        let write_amplification = loads
            .iter()
            .map(|l| model.write_amplification(l.utilization.clamp(0.0, 1.0)))
            .collect();
        let shares = normalize(&erases);
        let host_pages: f64 = loads.iter().map(|l| l.write_rate).sum();
        let total: f64 = erases.iter().sum();
        let gc_rate = if host_pages > 0.0 {
            total / host_pages
        } else {
            0.0
        };
        let n = erases.len() as f64;
        let mean = total / n;
        let rsd = if erases.is_empty() || mean <= 0.0 {
            0.0
        } else {
            let var = erases.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / n;
            var.sqrt() / mean
        };
        ClusterPrediction {
            erases,
            write_amplification,
            shares,
            gc_rate,
            rsd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads() -> Vec<OsdLoad> {
        [(3200.0, 0.5), (1600.0, 0.5), (6400.0, 0.7)]
            .map(|(write_rate, utilization)| OsdLoad {
                write_rate,
                utilization,
            })
            .to_vec()
    }

    #[test]
    fn three_osd_prediction_is_pinned() {
        // Pinned to the bit, so a reordered sum or a changed variance
        // formula shows up here.
        let p = ClusterPrediction::predict(&MeanFieldModel::paper(32), &loads());
        assert_eq!(p.rsd.to_bits(), 0x3fe2_e56e_a76a_434c, "rsd {}", p.rsd);
        assert_eq!(
            p.gc_rate.to_bits(),
            0x3fa1_6016_15af_914c,
            "gc_rate {}",
            p.gc_rate
        );
    }

    #[test]
    fn gc_rate_sits_between_the_per_osd_extremes() {
        let p = ClusterPrediction::predict(&MeanFieldModel::paper(32), &loads());
        let lo = p
            .write_amplification
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        let hi = p.write_amplification.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(p.gc_rate >= lo / 32.0 - 1e-12 && p.gc_rate <= hi / 32.0 + 1e-12);
    }

    #[test]
    fn unworn_cluster_reports_zero_rsd() {
        let idle = [OsdLoad {
            write_rate: 0.0,
            utilization: 0.5,
        }; 2];
        let p = ClusterPrediction::predict(&MeanFieldModel::paper(32), &idle);
        assert_eq!(p.erases, vec![0.0, 0.0]);
        assert_eq!(p.rsd, 0.0);
    }

    #[test]
    fn empty_cluster_prediction_is_all_zero() {
        let p = ClusterPrediction::predict(&MeanFieldModel::paper(32), &[]);
        assert!(p.erases.is_empty());
        assert_eq!(p.gc_rate, 0.0);
        assert_eq!(p.rsd, 0.0);
    }
}
