//! Flash lifetime projection (§III.D).
//!
//! Each NAND cell endures a limited number of program/erase cycles; the
//! paper's reliability discussion turns on *when* SSDs reach that limit:
//! perfectly balanced wear means the whole cluster wears out together
//! (the Diff-RAID problem), while EDM's uneven groups stagger group
//! worn-out times. This module projects, from measured erase counts over
//! a measurement period, when each device exhausts its endurance; the
//! harness's reliability experiment counts how many land together.

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

    fn wearouts(l: &[DeviceLifetime]) -> Vec<f64> {
        l.iter().map(|d| d.periods_to_wearout).collect()
    }

    #[test]
    fn balanced_wear_means_simultaneous_wearout() {
        // The Diff-RAID hazard: perfectly balanced wear ⇒ everything dies
        // together.
        let l = project(&spec(), [1_000, 1_000, 1_000, 1_000], []);
        assert_eq!(wearouts(&l), [3_000.0; 4]);
    }

    #[test]
    fn differentiated_wear_staggers_wearout() {
        // §III.D: groups with different wear speeds die at different
        // times.
        let l = project(&spec(), [1_500, 1_200, 1_000, 800], []);
        let w = wearouts(&l);
        assert!(w.windows(2).all(|p| p[1] - p[0] > 100.0), "{w:?}");
        assert!(w[3] - w[0] > 1_000.0);
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
