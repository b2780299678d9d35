//! Plan-quality evaluation: what a migration plan is *predicted* to do to
//! the cluster's wear balance, before any data moves.
//!
//! Algorithm 1 computes per-device deltas; the policies then approximate
//! those deltas with whole objects. This module closes the loop by
//! projecting the wear model one temperature window ahead: each device's
//! erase estimate is `Ec(wc + rate, u)`, where `rate` is the window write
//! pages of the objects resident on it (last window as the predictor for
//! the next, the same estimate the policies plan with). The plan shifts
//! each move's rate and byte footprint to its destination and the
//! projection is re-evaluated — so tests (and operators) can check that a
//! plan actually improves the imbalance it was asked to fix, and by how
//! much. Erases already incurred (`wc`) stay where they physically
//! happened on both sides of the comparison; only *future* writes move.
//!
//! The one-time write cost of copying the data itself is deliberately
//! excluded: it is a transient the policies already budget separately,
//! and the fuzz battery accounts for it in the erase totals oracle.
//! Including it here would veto every cold-data (CDF) plan, whose payoff
//! accrues over many future windows.

use std::collections::HashMap;

use edm_cluster::{ClusterView, MoveAction, ObjectId};
use edm_model::MeanFieldModel;

use crate::temperature::AccessTracker;
use crate::trigger;

/// Predicted effect of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAssessment {
    /// Projected model erase counts per OSD one window ahead, without the
    /// plan: `Ec(wc + resident write rate, u)`.
    pub erases_before: Vec<f64>,
    /// The same projection with the plan applied (each move's write rate
    /// and byte footprint shifted to its destination).
    pub erases_after: Vec<f64>,
    /// Relative standard deviation before / after.
    pub rsd_before: f64,
    pub rsd_after: f64,
    /// Total bytes the plan transfers.
    pub moved_bytes: u64,
    /// Total window write pages the plan shifts between devices.
    pub moved_write_pages: u64,
}

impl PlanAssessment {
    /// True when the predicted imbalance does not grow.
    pub fn is_improvement(&self) -> bool {
        self.rsd_after <= self.rsd_before + 1e-9
    }
}

/// [`assess_plan`] with an observability sink: journals the prediction as
/// a [`edm_obs::Event::PlanAssessment`] before returning it unchanged.
pub fn assess_plan_obs(
    view: &ClusterView,
    plan: &[MoveAction],
    tracker: &AccessTracker,
    model: &MeanFieldModel,
    obs: &mut dyn edm_obs::Recorder,
) -> PlanAssessment {
    let assessment = assess_plan(view, plan, tracker, model);
    if obs.events_on() {
        obs.event(edm_obs::Event::from(edm_obs::event::PlanAssessment {
            rsd_before: assessment.rsd_before,
            rsd_after: assessment.rsd_after,
            moved_bytes: assessment.moved_bytes,
            moved_write_pages: assessment.moved_write_pages,
        }));
    }
    assessment
}

/// Drops trailing moves until the plan's predicted RSD no longer grows
/// (§III.B.2: EDM migrates only towards balance).
///
/// The policies approximate Algorithm 1's continuous deltas with whole
/// objects, and the last object selected against a demand can overshoot
/// it — on a mildly imbalanced cluster a single write-hot object can
/// flip the imbalance's sign with a larger magnitude, making the planned
/// state *worse* than doing nothing. Trimming from the tail removes the
/// most marginal selections first; the empty plan trivially qualifies.
pub fn trim_to_improvement(
    view: &ClusterView,
    mut plan: Vec<MoveAction>,
    tracker: &AccessTracker,
    model: &MeanFieldModel,
) -> Vec<MoveAction> {
    // Inputs and the no-plan projection are built once; every candidate
    // length is assessed from them.
    let baseline = Baseline::new(view, tracker, model);
    while !plan.is_empty() {
        if baseline.assess(&plan).is_improvement() {
            break;
        }
        plan.pop();
    }
    plan
}

/// Assesses `plan` against `view`, using `tracker` for per-object write
/// footprints (the same estimates the policies plan with).
pub fn assess_plan(
    view: &ClusterView,
    plan: &[MoveAction],
    tracker: &AccessTracker,
    model: &MeanFieldModel,
) -> PlanAssessment {
    Baseline::new(view, tracker, model).assess(plan)
}

/// The assessment's plan-independent half for one (view, tracker): per
/// device write counts, capacities, live bytes and next-window write
/// rates, each object's (size, window write pages) footprint, and the
/// projection without any plan.
struct Baseline<'a> {
    wc: Vec<f64>,
    capacity: Vec<f64>,
    live_bytes: Vec<f64>,
    rate: Vec<f64>,
    footprint: HashMap<ObjectId, (u64, u64)>,
    model: &'a MeanFieldModel,
    erases_before: Vec<f64>,
    rsd_before: f64,
}

impl<'a> Baseline<'a> {
    fn new(view: &ClusterView, tracker: &AccessTracker, model: &'a MeanFieldModel) -> Self {
        let n = view.osds.len();
        let wc = view.osds.iter().map(|o| o.wc_pages as f64).collect();
        let capacity = view.osds.iter().map(|o| o.capacity_bytes as f64).collect();
        let live_bytes = view
            .osds
            .iter()
            .map(|o| o.utilization * o.capacity_bytes as f64)
            .collect();
        let mut rate = vec![0.0f64; n];
        let mut footprint: HashMap<ObjectId, (u64, u64)> = HashMap::new();
        for o in &view.objects {
            let pages = tracker.heat(o.object, view.now_us).window_write_pages;
            rate[o.osd.0 as usize] += pages as f64;
            footprint.insert(o.object, (o.size_bytes, pages));
        }
        let mut baseline = Baseline {
            wc,
            capacity,
            live_bytes,
            rate,
            footprint,
            model,
            erases_before: Vec::new(),
            rsd_before: 0.0,
        };
        baseline.erases_before = baseline.project(&baseline.rate, &baseline.live_bytes);
        baseline.rsd_before = trigger::evaluate(&baseline.erases_before, 0.0).rsd;
        baseline
    }

    /// Eq. 4 per device one window ahead, for the given next-window
    /// write rates and live bytes.
    fn project(&self, rate: &[f64], live_bytes: &[f64]) -> Vec<f64> {
        (0..self.wc.len())
            .map(|i| {
                self.model.erase_count(
                    self.wc[i] + rate[i].max(0.0),
                    (live_bytes[i] / self.capacity[i]).clamp(0.0, 1.0),
                )
            })
            .collect()
    }

    fn assess(&self, plan: &[MoveAction]) -> PlanAssessment {
        let mut rate = self.rate.clone();
        let mut live_bytes = self.live_bytes.clone();
        let mut moved_bytes = 0u64;
        let mut moved_write_pages = 0u64;
        for m in plan {
            // Zeros for an object the view does not hold.
            let (size, pages) = self.footprint.get(&m.object).copied().unwrap_or((0, 0));
            moved_bytes += size;
            moved_write_pages += pages;
            let (s, d) = (m.source.0 as usize, m.dest.0 as usize);
            rate[s] -= pages as f64;
            rate[d] += pages as f64;
            live_bytes[s] -= size as f64;
            live_bytes[d] += size as f64;
        }
        let erases_after = self.project(&rate, &live_bytes);
        PlanAssessment {
            rsd_before: self.rsd_before,
            rsd_after: trigger::evaluate(&erases_after, 0.0).rsd,
            erases_before: self.erases_before.clone(),
            erases_after,
            moved_bytes,
            moved_write_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_cluster::{AccessEvent, AccessKind, GroupId, ObjectView, OsdId, OsdView};

    fn view() -> ClusterView {
        ClusterView {
            now_us: 1_000,
            page_size: 4096,
            pages_per_block: 32,
            osds: (0..4)
                .map(|i| OsdView {
                    osd: OsdId(i),
                    group: GroupId(i % 2),
                    wc_pages: if i == 0 { 80_000 } else { 10_000 },
                    utilization: 0.6,
                    measured_erases: 0,
                    ewma_latency_us: 0.0,
                    free_bytes: 1 << 29,
                    capacity_bytes: 1 << 30,
                })
                .collect(),
            objects: vec![
                ObjectView {
                    object: ObjectId(1),
                    osd: OsdId(0),
                    size_bytes: 4 << 20,
                    remapped: false,
                },
                ObjectView {
                    object: ObjectId(2),
                    osd: OsdId(0),
                    size_bytes: 1 << 20,
                    remapped: false,
                },
            ],
        }
    }

    fn hot_tracker() -> AccessTracker {
        let mut t = AccessTracker::new(60_000_000);
        for _ in 0..100 {
            t.record(AccessEvent {
                now_us: 500,
                object: ObjectId(1),
                kind: AccessKind::Write,
                pages: 350,
            });
        }
        t
    }

    #[test]
    fn moving_the_hot_object_improves_balance() {
        let v = view();
        let t = hot_tracker();
        let model = MeanFieldModel::paper(32);
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        }];
        let a = assess_plan(&v, &plan, &t, &model);
        assert!(a.rsd_before > 0.5, "initial imbalance: {}", a.rsd_before);
        assert!(a.is_improvement(), "{a:?}");
        assert!(a.rsd_after < 0.7 * a.rsd_before, "{a:?}");
        assert_eq!(a.moved_bytes, 4 << 20);
        assert_eq!(a.moved_write_pages, 35_000);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let v = view();
        let t = hot_tracker();
        let a = assess_plan(&v, &[], &t, &MeanFieldModel::paper(32));
        assert_eq!(a.erases_before, a.erases_after);
        assert_eq!(a.moved_bytes, 0);
        assert_eq!(a.rsd_after, a.rsd_before);
    }

    #[test]
    fn moving_a_cold_object_to_the_hot_device_hurts() {
        let v = view();
        let mut t = AccessTracker::new(60_000_000);
        t.record(AccessEvent {
            now_us: 500,
            object: ObjectId(2),
            kind: AccessKind::Write,
            pages: 10,
        });
        // Shifting extra writes ONTO the already-hottest device.
        let plan = vec![MoveAction {
            object: ObjectId(2),
            source: OsdId(0),
            dest: OsdId(1),
        }];
        // Object 2 moves off osd0 — that slightly helps; construct the
        // reverse by assessing a plan targeting the hot device instead:
        let v2 = {
            let mut v2 = v.clone();
            v2.objects[1].osd = OsdId(1);
            v2
        };
        let plan_bad = vec![MoveAction {
            object: ObjectId(2),
            source: OsdId(1),
            dest: OsdId(0),
        }];
        let good = assess_plan(&v, &plan, &t, &MeanFieldModel::paper(32));
        let bad = assess_plan(&v2, &plan_bad, &t, &MeanFieldModel::paper(32));
        assert!(good.rsd_after <= good.rsd_before);
        assert!(bad.rsd_after >= bad.rsd_before);
    }

    #[test]
    fn trim_drops_overshooting_tail_moves() {
        // A mildly imbalanced cluster where moving object 1's write rate
        // off the busiest device helps slightly, but the trailing move of
        // a huge cold object drives the destination's utilization towards
        // full — the projection's GC amplification makes it the new
        // outlier and the pair assesses worse than doing nothing.
        let mut v = view();
        for (osd, wc) in v.osds.iter_mut().zip([30_000u64, 28_000, 22_000, 28_000]) {
            osd.wc_pages = wc;
        }
        v.objects[1].size_bytes = 380 << 20; // cold, ~37% of the device
        let model = MeanFieldModel::paper(32);
        let mut t = AccessTracker::new(60_000_000);
        for _ in 0..40 {
            t.record(AccessEvent {
                now_us: 500,
                object: ObjectId(1),
                kind: AccessKind::Write,
                pages: 100,
            });
        }
        let good = MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        };
        let overshoot = MoveAction {
            object: ObjectId(2),
            source: OsdId(0),
            dest: OsdId(2),
        };
        let pair = assess_plan(&v, &[good, overshoot], &t, &model);
        assert!(
            !pair.is_improvement(),
            "test premise: pair overshoots {pair:?}"
        );
        let trimmed = trim_to_improvement(&v, vec![good, overshoot], &t, &model);
        assert_eq!(trimmed, vec![good]);
        // An already-improving plan passes through untouched...
        let trimmed = trim_to_improvement(&v, vec![good], &t, &model);
        assert_eq!(trimmed, vec![good]);
        // ...and the empty plan is a fixed point.
        assert!(trim_to_improvement(&v, Vec::new(), &t, &model).is_empty());
    }

    /// The EDM policies' plans must always assess as improvements on the
    /// views they were planned against.
    #[test]
    fn hdf_plans_assess_as_improvements() {
        use crate::policy::{Edm, Selection};
        use edm_cluster::Migrator;
        let mut v = view();
        // Give the hot device some movable objects with real heat.
        v.objects = (0..8)
            .map(|i| ObjectView {
                object: ObjectId(i),
                osd: OsdId((i % 2) as u32 * 2), // osds 0 and 2 (same group)
                size_bytes: 1 << 20,
                remapped: false,
            })
            .collect();
        let mut p = Edm::new(Selection::Hdf, crate::EdmConfig::default());
        for i in 0..8u64 {
            let writes = if i % 2 == 0 { 200 } else { 2 };
            for _ in 0..writes {
                p.on_access(AccessEvent {
                    now_us: 500,
                    object: ObjectId(i),
                    kind: AccessKind::Write,
                    pages: 50,
                });
            }
        }
        let plan = p.plan(&v);
        assert!(!plan.is_empty());
        let a = assess_plan(&v, &plan, p.tracker(), &MeanFieldModel::paper(32));
        assert!(a.is_improvement(), "{a:?}");
    }
}
