//! Plan assembly helpers shared by the migration policies: distributing
//! selected objects over destination devices "in proportion to ΔWc"
//! (§III.B.5) while respecting destination free space.

use edm_cluster::{ClusterView, MoveAction, ObjectId, OsdId, DEST_FREE_RESERVE};

/// A selected object with the weight it removes from its source (pages
/// for HDF, bytes for CDF/CMT).
#[derive(Debug, Clone, Copy)]
pub struct Selected {
    pub object: ObjectId,
    pub source: OsdId,
    pub weight: f64,
    pub size_bytes: u64,
}

/// A destination with its remaining demand (same unit as `Selected::weight`).
#[derive(Debug, Clone, Copy)]
pub struct Destination {
    pub osd: OsdId,
    pub demand: f64,
    /// Free bytes available beyond the reserve.
    pub budget_bytes: i64,
}

/// Assigns each selected object to the destination with the largest
/// remaining demand that can still hold it. Objects that fit nowhere are
/// dropped (the engine would reject them anyway).
pub fn distribute(selected: &[Selected], dests: &mut [Destination]) -> Vec<MoveAction> {
    let mut plan = Vec::with_capacity(selected.len());
    for s in selected {
        #[expect(
            clippy::expect_used,
            reason = "demand values are sums of finite page counts"
        )]
        let Some(best) = dests
            .iter_mut()
            .filter(|d| d.osd != s.source && d.budget_bytes >= s.size_bytes as i64)
            .max_by(|a, b| a.demand.partial_cmp(&b.demand).expect("finite demand"))
        else {
            continue;
        };
        if best.demand <= 0.0 {
            // Every destination is satisfied; stop assigning.
            continue;
        }
        best.demand -= s.weight;
        best.budget_bytes -= s.size_bytes as i64;
        plan.push(MoveAction {
            object: s.object,
            source: s.source,
            dest: best.osd,
        });
    }
    plan
}

/// Builds the free-space budget of a destination from the view: free bytes
/// minus the [`DEST_FREE_RESERVE`] share of capacity that `plan_round`
/// will refuse to fill.
pub fn dest_budget_bytes(view: &ClusterView, osd: OsdId) -> i64 {
    let o = view.osd(osd);
    o.free_bytes as i64 - (o.capacity_bytes as f64 * DEST_FREE_RESERVE) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(obj: u64, src: u32, weight: f64, size: u64) -> Selected {
        Selected {
            object: ObjectId(obj),
            source: OsdId(src),
            weight,
            size_bytes: size,
        }
    }

    fn dst(osd: u32, demand: f64, budget: i64) -> Destination {
        Destination {
            osd: OsdId(osd),
            demand,
            budget_bytes: budget,
        }
    }

    #[test]
    fn objects_flow_to_largest_demand() {
        let selected = [sel(1, 0, 10.0, 100), sel(2, 0, 10.0, 100)];
        let mut dests = [dst(1, 5.0, 1000), dst(2, 30.0, 1000)];
        let plan = distribute(&selected, &mut dests);
        assert_eq!(plan.len(), 2);
        // Both go to OSD 2: it starts with demand 30 and still leads (20)
        // after the first assignment.
        assert!(plan.iter().all(|m| m.dest == OsdId(2)));
    }

    #[test]
    fn proportional_split_across_dests() {
        let selected: Vec<Selected> = (0..6).map(|i| sel(i, 0, 10.0, 10)).collect();
        let mut dests = [dst(1, 40.0, 1000), dst(2, 20.0, 1000)];
        let plan = distribute(&selected, &mut dests);
        let to1 = plan.iter().filter(|m| m.dest == OsdId(1)).count();
        let to2 = plan.iter().filter(|m| m.dest == OsdId(2)).count();
        assert_eq!(to1, 4);
        assert_eq!(to2, 2);
    }

    #[test]
    fn budget_exhaustion_skips_dest() {
        let selected = [sel(1, 0, 1.0, 600), sel(2, 0, 1.0, 600)];
        let mut dests = [dst(1, 100.0, 700)];
        let plan = distribute(&selected, &mut dests);
        assert_eq!(plan.len(), 1, "second object no longer fits");
    }

    #[test]
    fn source_is_never_a_destination() {
        let selected = [sel(1, 3, 1.0, 10)];
        let mut dests = [dst(3, 100.0, 1000)];
        assert!(distribute(&selected, &mut dests).is_empty());
    }

    #[test]
    fn satisfied_demand_stops_assignment() {
        let selected = [sel(1, 0, 10.0, 10), sel(2, 0, 10.0, 10)];
        let mut dests = [dst(1, 10.0, 1000)];
        let plan = distribute(&selected, &mut dests);
        assert_eq!(plan.len(), 1, "demand met after the first move");
    }
}
