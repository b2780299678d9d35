//! Flash lifetime projection (§III.D).
//!
//! Each NAND cell endures a limited number of program/erase cycles; the
//! paper's reliability discussion turns on *when* SSDs reach that limit:
//! perfectly balanced wear means the whole cluster wears out together
//! (the Diff-RAID problem), while EDM's uneven groups stagger group
//! worn-out times. This module projects, from measured erase counts over
//! a measurement period, when each device exhausts its endurance, and
//! quantifies the staggering margin between groups.

/// Endurance parameters of one SSD model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceSpec {
    /// Rated program/erase cycles per block (MLC-era NAND: ~3 000).
    pub pe_cycles: u64,
    /// Number of erase blocks on the device.
    pub blocks: u64,
}

impl EnduranceSpec {
    /// Total block erases the device can absorb before rated wear-out,
    /// assuming device-internal wear leveling spreads erases evenly.
    pub fn total_erase_budget(&self) -> u64 {
        self.pe_cycles * self.blocks
    }
}

/// Lifetime projection of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLifetime {
    pub device: u32,
    /// Erases consumed during the measurement period.
    pub erases_in_period: u64,
    /// Projected periods until rated wear-out (∞ if no wear observed).
    pub periods_to_wearout: f64,
}

/// Projects lifetimes for a set of devices from their per-period erase
/// counts.
pub fn project(
    spec: &EnduranceSpec,
    erases_in_period: impl IntoIterator<Item = u64>,
    already_consumed: impl IntoIterator<Item = u64>,
) -> Vec<DeviceLifetime> {
    let consumed: Vec<u64> = already_consumed.into_iter().collect();
    erases_in_period
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let used = consumed.get(i).copied().unwrap_or(0);
            let remaining = spec.total_erase_budget().saturating_sub(used);
            DeviceLifetime {
                device: i as u32,
                erases_in_period: e,
                periods_to_wearout: if e == 0 {
                    f64::INFINITY
                } else {
                    remaining as f64 / e as f64
                },
            }
        })
        .collect()
}

/// Staggering analysis: how far apart in time device wear-outs land.
#[derive(Debug, Clone, PartialEq)]
pub struct Staggering {
    /// Projected wear-out times, ascending (periods).
    pub wearout_order: Vec<f64>,
    /// Smallest gap between consecutive wear-outs (periods).
    pub min_gap: f64,
    /// Time from first to last wear-out (periods).
    pub total_span: f64,
}

/// Computes the wear-out staggering of a set of projections. At least two
/// finite projections are required for a meaningful gap; otherwise gaps
/// are reported as infinite.
pub fn staggering(lifetimes: &[DeviceLifetime]) -> Staggering {
    let mut order: Vec<f64> = lifetimes
        .iter()
        .map(|l| l.periods_to_wearout)
        .filter(|p| p.is_finite())
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "erase counts come from wear stats and are always finite"
    )]
    order.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let min_gap = order
        .iter()
        .zip(order.iter().skip(1))
        .map(|(a, b)| b - a)
        .fold(f64::INFINITY, f64::min);
    let total_span = match (order.first(), order.last()) {
        (Some(first), Some(last)) if order.len() > 1 => last - first,
        _ => f64::INFINITY,
    };
    Staggering {
        wearout_order: order,
        min_gap,
        total_span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> EnduranceSpec {
        EnduranceSpec {
            pe_cycles: 3_000,
            blocks: 1_000,
        }
    }

    #[test]
    fn budget_is_cycles_times_blocks() {
        assert_eq!(spec().total_erase_budget(), 3_000_000);
    }

    #[test]
    fn projection_divides_remaining_budget() {
        let l = project(&spec(), [1_000, 2_000, 0], [0, 1_000_000, 0]);
        assert_eq!(l.len(), 3);
        assert!((l[0].periods_to_wearout - 3_000.0).abs() < 1e-9);
        assert!((l[1].periods_to_wearout - 1_000.0).abs() < 1e-9);
        assert!(l[2].periods_to_wearout.is_infinite());
    }

    #[test]
    fn balanced_wear_means_simultaneous_wearout() {
        // The Diff-RAID hazard: perfectly balanced wear ⇒ everything dies
        // together.
        let l = project(&spec(), [1_000, 1_000, 1_000, 1_000], []);
        let s = staggering(&l);
        assert_eq!(s.min_gap, 0.0);
        assert_eq!(s.total_span, 0.0);
    }

    #[test]
    fn differentiated_wear_staggers_wearout() {
        // §III.D: groups with different wear speeds die at different
        // times.
        let l = project(&spec(), [1_500, 1_200, 1_000, 800], []);
        let s = staggering(&l);
        assert!(s.min_gap > 100.0, "gap {}", s.min_gap);
        assert!(s.total_span > 1_000.0);
    }

    #[test]
    fn staggering_of_single_device_is_infinite() {
        let l = project(&spec(), [100], []);
        let s = staggering(&l);
        assert!(s.min_gap.is_infinite());
        assert!(s.total_span.is_infinite());
    }

    #[test]
    fn consumed_budget_shortens_life() {
        let fresh = project(&spec(), [1_000], [0]);
        let worn = project(&spec(), [1_000], [2_900_000]);
        assert!(worn[0].periods_to_wearout < fresh[0].periods_to_wearout / 10.0);
    }

    #[test]
    fn overconsumed_budget_saturates_at_zero() {
        let l = project(&spec(), [1_000], [9_999_999]);
        assert_eq!(l[0].periods_to_wearout, 0.0);
    }
}
