//! CMT — the conventional migration technique the paper compares against
//! (§V intro), derived from Sorrento \[20\].
//!
//! CMT "measures the load factor of an SSD by EWMA of the I/O latency"
//! and "dynamically balances both the load and storage usage". It does
//! not know about flash wear, does not differentiate reads from writes,
//! and is not bound by SSD groups — which is why it moves the most data
//! (Fig. 8) and often *increases* cluster-wide erases (Fig. 6).

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction};
use edm_obs::Label;
use edm_snap::{SnapReader, SnapWriter, Snapshot};

use crate::plan::{dest_budget_bytes, distribute, Destination, Selected};
use crate::policy::emit_plan_chosen;
use crate::temperature::AccessTracker;
use crate::trigger;

/// CMT tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CmtConfig {
    /// Load-imbalance threshold (RSD of EWMA latencies).
    pub lambda: f64,
    /// Skip the trigger check (forced shuffle at the trace midpoint,
    /// matching how the experiments drive every policy).
    pub force: bool,
}

impl Default for CmtConfig {
    fn default() -> Self {
        CmtConfig {
            lambda: 0.10,
            force: true,
        }
    }
}

/// Utilization margin of CMT's storage-usage balancing (Sorrento's
/// "storage usage" weight, §V intro): a device above the cluster mean
/// plus this sheds, and a destination fills up to at most that line.
/// Read by [`Cmt::plan_storage`] and the budgets of `plan_obs`.
const STORAGE_MARGIN: f64 = 0.005;

/// The conventional (Sorrento-style) migration technique.
pub struct Cmt {
    cfg: CmtConfig,
    tracker: AccessTracker,
}

impl Cmt {
    pub fn new(cfg: CmtConfig) -> Self {
        assert!(cfg.lambda >= 0.0, "lambda must be non-negative");
        Cmt {
            tracker: AccessTracker::new(AccessTracker::DEFAULT_INTERVAL_US),
            cfg,
        }
    }

    pub fn config(&self) -> &CmtConfig {
        &self.cfg
    }

    /// Load-balancing component: shed access volume (reads + writes,
    /// undifferentiated) from over-loaded OSDs via a greedy
    /// longest-processing-time pass — the hottest object goes to the OSD
    /// with the smallest projected load, but only when the move actually
    /// reduces the source's projected load below its current level, so the
    /// balancer never manufactures a worse hotspot.
    fn plan_load(
        &self,
        view: &ClusterView,
        moved: &mut std::collections::HashSet<edm_cluster::ObjectId>,
        budgets: &mut [i64],
        obs: &mut dyn edm_obs::Recorder,
    ) -> Vec<MoveAction> {
        let loads: Vec<f64> = view.osds.iter().map(|o| o.ewma_latency_us).collect();
        let decision = trigger::evaluate_obs(
            &loads,
            self.cfg.lambda,
            Label::Cmt,
            Label::EwmaLatencyUs,
            obs,
        );
        if !self.cfg.force && !decision.triggered {
            return Vec::new();
        }
        // Projected per-OSD load, in window access pages (the EWMA latency
        // triggers, the access volume is what a move actually shifts).
        let mut pages: Vec<f64> = vec![0.0; view.osds.len()];
        let mut heats: Vec<(Selected, f64)> = Vec::new();
        for o in &view.objects {
            let heat = self.tracker.heat(o.object, view.now_us);
            pages[o.osd.0 as usize] += heat.window_access_pages as f64;
            if heat.window_access_pages > 0 && !moved.contains(&o.object) {
                heats.push((
                    Selected {
                        object: o.object,
                        source: o.osd,
                        weight: heat.window_access_pages as f64,
                        size_bytes: o.size_bytes,
                    },
                    heat.total_temp,
                ));
            }
        }
        let mean = pages.iter().sum::<f64>() / pages.len().max(1) as f64;
        if mean <= 0.0 {
            return Vec::new();
        }
        // Hottest objects first (total temperature, read/write agnostic).
        heats.sort_by(|a, b| {
            #[expect(
                clippy::expect_used,
                reason = "temperatures are finite by construction (sums of decayed counters)"
            )]
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then(a.0.object.cmp(&b.0.object))
        });
        // Balance tightly: Sorrento keeps shuffling segments while any
        // provider sits meaningfully above the mean, which is why CMT
        // moves the most data of the three schemes (Fig. 8).
        let threshold = mean * (1.0 + self.cfg.lambda / 4.0);
        let mut plan = Vec::new();
        for (s, _) in heats {
            let src = s.source.0 as usize;
            if pages[src] <= threshold {
                continue; // source no longer overloaded
            }
            // Destination: smallest projected load with byte budget left.
            #[expect(clippy::expect_used, reason = "page tallies are finite counters")]
            let Some(dst) = (0..pages.len())
                .filter(|&d| d != src && budgets[d] >= s.size_bytes as i64)
                .min_by(|&a, &b| pages[a].partial_cmp(&pages[b]).expect("finite"))
            else {
                break;
            };
            // Only move if the destination stays below the source's
            // current level — otherwise the move would just relocate the
            // hotspot.
            if pages[dst] + s.weight >= pages[src] {
                continue;
            }
            pages[src] -= s.weight;
            pages[dst] += s.weight;
            budgets[dst] -= s.size_bytes as i64;
            budgets[src] += s.size_bytes as i64;
            moved.insert(s.object);
            plan.push(MoveAction {
                object: s.object,
                source: s.source,
                dest: view.osds[dst].osd,
            });
        }
        plan
    }

    /// Storage-usage balancing component: drain over-utilized devices to
    /// under-utilized ones, largest objects first (Sorrento also weights
    /// storage usage; this is what makes CMT move the most data, Fig. 8).
    fn plan_storage(
        &self,
        view: &ClusterView,
        moved: &mut std::collections::HashSet<edm_cluster::ObjectId>,
        budgets: &mut [i64],
    ) -> Vec<MoveAction> {
        let utils: Vec<f64> = view.osds.iter().map(|o| o.utilization).collect();
        let mean = utils.iter().sum::<f64>() / utils.len().max(1) as f64;
        let mut plan = Vec::new();
        for (i, &u) in utils.iter().enumerate() {
            if u <= mean + STORAGE_MARGIN {
                continue;
            }
            let source = view.osds[i].osd;
            let needed_bytes = (u - mean) * view.osds[i].capacity_bytes as f64;
            let mut candidates: Vec<Selected> = view
                .objects_on(source)
                .filter(|o| !moved.contains(&o.object))
                .map(|o| Selected {
                    object: o.object,
                    source,
                    weight: o.size_bytes as f64,
                    size_bytes: o.size_bytes,
                })
                .collect();
            candidates.sort_by(|a, b| {
                b.size_bytes
                    .cmp(&a.size_bytes)
                    .then(a.object.cmp(&b.object))
            });
            let mut selected = Vec::new();
            let mut cum = 0.0;
            for s in candidates {
                if cum >= needed_bytes {
                    break;
                }
                cum += s.weight;
                selected.push(s);
            }
            let mut dests: Vec<(usize, Destination)> = utils
                .iter()
                .enumerate()
                .filter(|&(j, &du)| du < mean && j != i)
                .map(|(j, &du)| {
                    (
                        j,
                        Destination {
                            osd: view.osds[j].osd,
                            demand: (mean - du) * view.osds[j].capacity_bytes as f64,
                            budget_bytes: budgets[j],
                        },
                    )
                })
                .collect();
            let mut ds: Vec<Destination> = dests.iter().map(|(_, d)| *d).collect();
            let actions = distribute(&selected, &mut ds);
            for ((j, _), d) in dests.iter_mut().zip(ds.iter()) {
                budgets[*j] = d.budget_bytes;
            }
            moved.extend(actions.iter().map(|a| a.object));
            plan.extend(actions);
        }
        plan
    }
}

impl Default for Cmt {
    fn default() -> Self {
        Cmt::new(CmtConfig::default())
    }
}

impl Migrator for Cmt {
    fn name(&self) -> &str {
        "CMT"
    }

    /// Sorrento migrates segments lazily while continuing to serve from
    /// the source; it does not block foreground requests.
    fn blocking_moves(&self) -> bool {
        false
    }

    fn on_access(&mut self, event: AccessEvent) {
        self.tracker.record(event);
    }

    fn on_window_reset(&mut self) {
        self.tracker.reset_window();
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.tracker.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) {
        self.tracker = AccessTracker::load(r);
    }

    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction> {
        self.plan_obs(view, &mut edm_obs::NoopRecorder)
    }

    // CMT journals its trigger (over EWMA latencies, not wear estimates)
    // and the chosen plan; it emits no wear-model events because the
    // conventional technique is wear-oblivious by construction.
    fn plan_obs(&mut self, view: &ClusterView, obs: &mut dyn edm_obs::Recorder) -> Vec<MoveAction> {
        let mut moved = std::collections::HashSet::new();
        // Sorrento weighs storage usage alongside load: a destination may
        // be filled only up to the cluster-mean utilization plus margin,
        // never into GC-thrash territory.
        let mean_util =
            view.osds.iter().map(|o| o.utilization).sum::<f64>() / view.osds.len().max(1) as f64;
        let mut budgets: Vec<i64> = view
            .osds
            .iter()
            .map(|o| {
                let by_free = dest_budget_bytes(view, o.osd);
                #[expect(clippy::cast_possible_truncation, reason = "a utilization margin of magnitude below 2 times a byte capacity far below i64::MAX; `as` saturates")]
                let by_util = ((mean_util + STORAGE_MARGIN - o.utilization)
                    * o.capacity_bytes as f64) as i64;
                by_free.min(by_util)
            })
            .collect();
        let mut plan = self.plan_load(view, &mut moved, &mut budgets, obs);
        plan.extend(self.plan_storage(view, &mut moved, &mut budgets));
        emit_plan_chosen(Label::Cmt, view, &plan, obs);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::view;
    use edm_cluster::{AccessKind, ObjectId, OsdId};

    fn touch(p: &mut Cmt, obj: u64, times: u64, kind: AccessKind) {
        for _ in 0..times {
            p.on_access(AccessEvent {
                now_us: 500_000,
                object: ObjectId(obj),
                kind,
                pages: 4,
            });
        }
    }

    /// OSD 0 has triple the latency of the others; objects 0..3 live on it.
    fn loaded_view() -> edm_cluster::ClusterView {
        view(
            2,
            &[
                (50_000, 0.65, 3_000.0),
                (10_000, 0.60, 1_000.0),
                (10_000, 0.62, 1_000.0),
                (10_000, 0.61, 1_000.0),
            ],
            &[(0, 1 << 20), (0, 1 << 20), (0, 1 << 20), (1, 1 << 20)],
        )
    }

    #[test]
    fn sheds_load_from_high_latency_osd() {
        let mut p = Cmt::default();
        touch(&mut p, 0, 100, AccessKind::Read);
        touch(&mut p, 1, 50, AccessKind::Write);
        touch(&mut p, 2, 2, AccessKind::Read);
        let plan = p.plan(&loaded_view());
        assert!(!plan.is_empty());
        assert!(plan.iter().all(|m| m.source == OsdId(0)));
        // Read-hot object 0 is the top pick: CMT is read/write agnostic.
        assert_eq!(plan[0].object, ObjectId(0));
    }

    #[test]
    fn cmt_ignores_group_boundaries() {
        let mut p = Cmt::default();
        touch(&mut p, 0, 100, AccessKind::Read);
        touch(&mut p, 1, 100, AccessKind::Read);
        touch(&mut p, 2, 100, AccessKind::Read);
        let plan = p.plan(&loaded_view());
        // With three equally hot objects and three equal destinations,
        // at least one move crosses the (round-robin) group boundary.
        assert!(
            plan.iter().any(|m| m.source.0 % 2 != m.dest.0 % 2),
            "expected a cross-group move: {plan:?}"
        );
    }

    #[test]
    fn trigger_check_respects_balanced_load() {
        let cfg = CmtConfig {
            force: false,
            ..CmtConfig::default()
        };
        let mut p = Cmt::new(cfg);
        touch(&mut p, 0, 100, AccessKind::Read);
        let v = view(
            2,
            &[(10_000, 0.6, 1_000.0); 4],
            &[(0, 1 << 20), (1, 1 << 20)],
        );
        assert!(p.plan(&v).is_empty());
    }

    #[test]
    fn storage_component_drains_full_osds() {
        let mut p = Cmt::default();
        // No load signal at all; only utilization is skewed.
        let v = view(
            2,
            &[
                (10_000, 0.80, 1_000.0),
                (10_000, 0.55, 1_000.0),
                (10_000, 0.55, 1_000.0),
                (10_000, 0.55, 1_000.0),
            ],
            &[(0, 64 << 20), (0, 32 << 20), (1, 1 << 20)],
        );
        let plan = p.plan(&v);
        assert!(!plan.is_empty(), "storage imbalance must drive moves");
        assert!(plan.iter().all(|m| m.source == OsdId(0)));
        // Largest object first.
        assert_eq!(plan[0].object, ObjectId(0));
    }

    #[test]
    fn no_object_moved_twice_across_components() {
        let mut p = Cmt::default();
        touch(&mut p, 0, 100, AccessKind::Read);
        touch(&mut p, 1, 80, AccessKind::Read);
        let v = view(
            2,
            &[
                (50_000, 0.80, 3_000.0),
                (10_000, 0.55, 1_000.0),
                (10_000, 0.55, 1_000.0),
                (10_000, 0.55, 1_000.0),
            ],
            &[(0, 32 << 20), (0, 16 << 20), (1, 1 << 20)],
        );
        let plan = p.plan(&v);
        let mut seen = std::collections::HashSet::new();
        for m in &plan {
            assert!(seen.insert(m.object), "object {m:?} moved twice");
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Cmt::default().name(), "CMT");
    }

    #[test]
    fn plan_obs_journals_latency_trigger_and_plan() {
        use edm_obs::{Event, MemoryRecorder, ObsLevel};
        let v = loaded_view();
        let baseline = {
            let mut p = Cmt::default();
            touch(&mut p, 0, 100, AccessKind::Read);
            p.plan(&v)
        };
        let mut p = Cmt::default();
        touch(&mut p, 0, 100, AccessKind::Read);
        let mut rec = MemoryRecorder::new(ObsLevel::Events);
        let plan = p.plan_obs(&v, &mut rec);
        assert_eq!(plan, baseline, "recording must be read-only");
        let (policy, metric) = rec
            .journal()
            .iter()
            .find_map(|e| match &e.event {
                Event::TriggerEval(t) => Some((t.policy, t.metric)),
                _ => None,
            })
            .expect("trigger evaluation journaled");
        assert_eq!(policy, Label::Cmt);
        assert_eq!(metric, Label::EwmaLatencyUs);
        // CMT is wear-oblivious: no wear-model events in its trace.
        assert_eq!(rec.count_kind("wear_model_input"), 0);
        assert_eq!(rec.count_kind("plan_chosen"), 1);
    }
}
