//! The migration policies: EDM under its HDF or CDF selection rule
//! (§III.B) and the Sorrento-derived conventional migration technique CMT
//! (§V intro).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(clippy::float_cmp)]

mod cmt;
mod edm;

pub use cmt::{Cmt, CmtConfig};
pub use edm::{Edm, Selection};

use edm_cluster::{ClusterView, GroupId, MoveAction, OsdId};

/// Group members (OSD indices into `view.osds`), keyed by group, each
/// ascending. EDM plans per group because migration is intra-group only
/// (§III.A).
pub(crate) fn members_by_group(view: &ClusterView) -> Vec<(GroupId, Vec<OsdId>)> {
    let mut groups: std::collections::BTreeMap<GroupId, Vec<OsdId>> =
        std::collections::BTreeMap::new();
    for o in &view.osds {
        groups.entry(o.group).or_default().push(o.osd);
    }
    groups.into_iter().collect()
}

/// Journals each OSD's wear-model operands (Eq. 4: `Wc`, `u`) together
/// with the resulting erase estimate. No-op unless events are enabled.
pub(crate) fn emit_wear_inputs(view: &ClusterView, ecs: &[f64], obs: &mut dyn edm_obs::Recorder) {
    if !obs.events_on() {
        return;
    }
    for (o, &ec) in view.osds.iter().zip(ecs) {
        obs.event(edm_obs::Event::WearModelInput {
            osd: o.osd.0,
            wc_pages: o.wc_pages,
            utilization: o.utilization,
            erase_estimate: ec,
        });
    }
}

/// Journals the plan a policy settled on: move count, byte volume, and
/// the involved object/source/destination sets. No-op unless events are
/// enabled.
pub(crate) fn emit_plan_chosen(
    policy: edm_obs::Label,
    view: &ClusterView,
    plan: &[MoveAction],
    obs: &mut dyn edm_obs::Recorder,
) {
    if !obs.events_on() {
        return;
    }
    let sizes: std::collections::HashMap<_, _> = view
        .objects
        .iter()
        .map(|o| (o.object, o.size_bytes))
        .collect();
    let moved_bytes = plan
        .iter()
        .map(|m| sizes.get(&m.object).copied().unwrap_or(0))
        .sum();
    let mut sources: Vec<u64> = plan.iter().map(|m| m.source.0 as u64).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut destinations: Vec<u64> = plan.iter().map(|m| m.dest.0 as u64).collect();
    destinations.sort_unstable();
    destinations.dedup();
    obs.event(edm_obs::Event::from(edm_obs::event::PlanChosen {
        policy,
        moves: plan.len() as u64,
        moved_bytes,
        objects: plan.iter().map(|m| m.object.0).collect(),
        sources,
        destinations,
    }));
}

#[cfg(test)]
pub(crate) mod testutil {
    use edm_cluster::{ClusterView, GroupId, ObjectId, ObjectView, OsdId, OsdView};

    /// A hand-built view: `osds[i] = (wc_pages, utilization, ewma)`,
    /// groups assigned round-robin over `m`, and `objects[j] = (osd,
    /// size)` with ids 0..len.
    pub fn view(m: u32, osds: &[(u64, f64, f64)], objects: &[(u32, u64)]) -> ClusterView {
        let capacity = 1u64 << 30;
        ClusterView {
            now_us: 1_000_000,
            page_size: 4096,
            pages_per_block: 32,
            osds: osds
                .iter()
                .enumerate()
                .map(|(i, &(wc, u, ewma))| OsdView {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "OSD index is bounded by the validated u32 OSD count"
                    )]
                    osd: OsdId(i as u32),
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "OSD index is bounded by the validated u32 OSD count"
                    )]
                    group: GroupId(i as u32 % m),
                    wc_pages: wc,
                    utilization: u,
                    measured_erases: 0,
                    ewma_latency_us: ewma,
                    #[expect(
                        clippy::cast_possible_truncation,
                        clippy::cast_sign_loss,
                        reason = "test fixture: utilization in [0, 1] times a 1 GiB capacity"
                    )]
                    free_bytes: ((1.0 - u) * capacity as f64) as u64,
                    capacity_bytes: capacity,
                })
                .collect(),
            objects: objects
                .iter()
                .enumerate()
                .map(|(j, &(osd, size))| ObjectView {
                    object: ObjectId(j as u64),
                    osd: OsdId(osd),
                    size_bytes: size,
                    remapped: false,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_by_group_partitions_osds() {
        let view = testutil::view(2, &[(0, 0.5, 0.0); 6], &[]);
        let groups = members_by_group(&view);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![OsdId(0), OsdId(2), OsdId(4)]);
        assert_eq!(groups[1].1, vec![OsdId(1), OsdId(3), OsdId(5)]);
    }
}

/// The HDF rule's tests, under the module path they have always had.
#[cfg(test)]
mod hdf {
    mod tests {
        use crate::policy::testutil::view;
        use crate::policy::{Edm, Selection};
        use crate::EdmConfig;
        use edm_cluster::{AccessEvent, AccessKind, Migrator, ObjectId, OsdId};

        fn hdf() -> Edm {
            Edm::new(Selection::Hdf, EdmConfig::default())
        }

        fn heat_object(p: &mut Edm, obj: u64, writes: u64, pages: u64) {
            for _ in 0..writes {
                p.on_access(AccessEvent {
                    now_us: 500_000,
                    object: ObjectId(obj),
                    kind: AccessKind::Write,
                    pages,
                });
            }
        }

        /// 4 OSDs in 2 groups; OSD 0 is write-hot, OSD 2 (same group) is cold.
        fn hot_cold_view() -> edm_cluster::ClusterView {
            view(
                2,
                &[
                    (100_000, 0.7, 0.0),
                    (20_000, 0.6, 0.0),
                    (5_000, 0.6, 0.0),
                    (20_000, 0.6, 0.0),
                ],
                // Objects 0..4 on OSD 0, 4..6 on OSD 2.
                &[
                    (0, 1 << 20),
                    (0, 1 << 20),
                    (0, 1 << 20),
                    (0, 1 << 20),
                    (2, 1 << 20),
                    (2, 1 << 20),
                ],
            )
        }

        #[test]
        fn moves_hottest_written_objects_from_hot_to_cold() {
            let mut p = hdf();
            heat_object(&mut p, 0, 50, 100); // hottest
            heat_object(&mut p, 1, 30, 100);
            heat_object(&mut p, 2, 5, 100);
            let plan = p.plan(&hot_cold_view());
            assert!(!plan.is_empty());
            // All moves intra-group: 0 -> 2 only.
            for m in &plan {
                assert_eq!(m.source, OsdId(0));
                assert_eq!(m.dest, OsdId(2));
            }
            // The hottest object moves first.
            assert_eq!(plan[0].object, ObjectId(0));
        }

        #[test]
        fn moves_are_intra_group_always() {
            let mut p = hdf();
            for obj in 0..4 {
                heat_object(&mut p, obj, 10, 50);
            }
            let v = hot_cold_view();
            for m in p.plan(&v) {
                assert_eq!(m.source.0 % 2, m.dest.0 % 2, "cross-group move {m:?}");
            }
        }

        #[test]
        fn cold_objects_never_selected() {
            let mut p = hdf();
            heat_object(&mut p, 0, 50, 100);
            // Objects 1..4 never written ⇒ not candidates even though the
            // source must shed a lot.
            let plan = p.plan(&hot_cold_view());
            assert!(plan.iter().all(|m| m.object == ObjectId(0)));
        }

        #[test]
        fn balanced_cluster_with_trigger_check_stays_put() {
            let cfg = EdmConfig {
                force: false,
                ..EdmConfig::default()
            };
            let mut p = Edm::new(Selection::Hdf, cfg);
            heat_object(&mut p, 0, 10, 10);
            let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20), (1, 1 << 20)]);
            assert!(p.plan(&v).is_empty());
        }

        #[test]
        fn forced_plan_on_balanced_cluster_is_empty_anyway() {
            // Algorithm 1 finds nothing to shift when wear is equal.
            let mut p = hdf();
            heat_object(&mut p, 0, 10, 10);
            let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20)]);
            assert!(p.plan(&v).is_empty());
        }

        #[test]
        fn selection_stops_once_demand_met() {
            let mut p = hdf();
            // Object 0 alone covers the needed shift (without overshooting it
            // so far that the improvement guard would drop the move).
            heat_object(&mut p, 0, 60, 1000);
            heat_object(&mut p, 1, 1, 1);
            let plan = p.plan(&hot_cold_view());
            assert_eq!(plan.len(), 1, "one object suffices: {plan:?}");
            assert_eq!(plan[0].object, ObjectId(0));
        }

        #[test]
        fn plans_that_overfill_the_destination_are_trimmed_to_empty() {
            let mut p = hdf();
            // The only movable object is a 350 MB near-cold blob on the most
            // worn device. It fits the destination's free-space budget, but
            // the projection prices the destination at ~94% utilization —
            // GC amplification there outweighs the small rate shift, so the
            // improvement guard drops the move and publishes nothing.
            heat_object(&mut p, 0, 20, 100);
            let v = view(
                2,
                &[
                    (30_000, 0.6, 0.0),
                    (28_000, 0.6, 0.0),
                    (26_000, 0.6, 0.0),
                    (28_000, 0.6, 0.0),
                ],
                &[(0, 350 << 20)],
            );
            let plan = p.plan(&v);
            assert!(
                plan.is_empty(),
                "overfilling move must not be published: {plan:?}"
            );
        }

        #[test]
        fn name_is_stable() {
            assert_eq!(hdf().name(), "EDM-HDF");
        }

        #[test]
        fn plan_obs_journals_the_decision_and_changes_nothing() {
            use edm_obs::{Event, Label, MemoryRecorder, ObsLevel};
            let v = hot_cold_view();
            let baseline = {
                let mut p = hdf();
                heat_object(&mut p, 0, 50, 100);
                heat_object(&mut p, 1, 30, 100);
                p.plan(&v)
            };
            assert!(!baseline.is_empty());
            let mut p = hdf();
            heat_object(&mut p, 0, 50, 100);
            heat_object(&mut p, 1, 30, 100);
            let mut rec = MemoryRecorder::new(ObsLevel::Events);
            let plan = p.plan_obs(&v, &mut rec);
            assert_eq!(plan, baseline, "recording must be read-only");
            // One wear-model input per OSD, then the trigger verdict.
            assert_eq!(rec.count_kind("wear_model_input"), v.osds.len());
            let trigger = rec
                .journal()
                .iter()
                .find_map(|e| match &e.event {
                    Event::TriggerEval(t) => {
                        Some((t.policy, t.metric, t.rsd, t.lambda, t.triggered))
                    }
                    _ => None,
                })
                .expect("trigger evaluation journaled");
            assert_eq!(trigger.0, Label::EdmHdf);
            assert_eq!(trigger.1, Label::EraseEstimate);
            assert!(trigger.2 > trigger.3, "rsd above lambda in this view");
            assert!(trigger.4);
            // The chosen plan and its predicted effect close the journal.
            let chosen = rec
                .journal()
                .iter()
                .find_map(|e| match &e.event {
                    Event::PlanChosen(p) => Some((p.policy, p.moves, p.objects.clone())),
                    _ => None,
                })
                .expect("chosen plan journaled");
            assert_eq!(chosen.0, Label::EdmHdf);
            assert_eq!(chosen.1, plan.len() as u64);
            assert_eq!(
                chosen.2,
                plan.iter().map(|m| m.object.0).collect::<Vec<_>>()
            );
            assert_eq!(rec.count_kind("plan_assessment"), 1);
        }

        #[test]
        fn plan_obs_with_metrics_level_keeps_journal_empty() {
            use edm_obs::{MemoryRecorder, ObsLevel};
            let mut p = hdf();
            heat_object(&mut p, 0, 50, 100);
            let mut rec = MemoryRecorder::new(ObsLevel::Metrics);
            let plan = p.plan_obs(&hot_cold_view(), &mut rec);
            assert!(!plan.is_empty());
            assert!(rec.journal().is_empty());
        }
    }
}

/// The CDF rule's tests, under the module path they have always had.
#[cfg(test)]
mod cdf {
    mod tests {
        use crate::policy::testutil::view;
        use crate::policy::{Edm, Selection};
        use crate::EdmConfig;
        use edm_cluster::{AccessEvent, AccessKind, Migrator, ObjectId, OsdId};

        fn cdf() -> Edm {
            Edm::new(Selection::Cdf, EdmConfig::default())
        }

        fn touch(p: &mut Edm, obj: u64, times: u64) {
            for _ in 0..times {
                p.on_access(AccessEvent {
                    now_us: 500_000,
                    object: ObjectId(obj),
                    kind: AccessKind::Read,
                    pages: 1,
                });
            }
        }

        /// Two groups; OSD 0 is full and write-hot, OSD 2 (same group) is
        /// emptier.
        fn full_hot_view() -> edm_cluster::ClusterView {
            view(
                2,
                &[
                    (100_000, 0.85, 0.0),
                    (20_000, 0.60, 0.0),
                    (20_000, 0.55, 0.0),
                    (20_000, 0.60, 0.0),
                ],
                &[
                    (0, 8 << 20), // big cold object
                    (0, 4 << 20),
                    (0, 1 << 20),
                    (2, 1 << 20),
                ],
            )
        }

        #[test]
        fn moves_cold_objects_largest_first() {
            let mut p = cdf();
            touch(&mut p, 2, 50); // object 2 is hot -> not a candidate
            let plan = p.plan(&full_hot_view());
            assert!(!plan.is_empty());
            assert_eq!(plan[0].object, ObjectId(0), "largest cold object first");
            assert!(plan.iter().all(|m| m.object != ObjectId(2)));
            for m in &plan {
                assert_eq!(m.source, OsdId(0));
                assert_eq!(m.dest, OsdId(2), "intra-group destination");
            }
        }

        #[test]
        fn source_below_half_utilization_is_left_alone() {
            let mut p = cdf();
            let v = view(
                2,
                &[
                    (100_000, 0.45, 0.0), // hottest wear but u < 0.5
                    (10_000, 0.60, 0.0),
                    (10_000, 0.55, 0.0),
                    (10_000, 0.60, 0.0),
                ],
                &[(0, 1 << 20), (0, 1 << 20)],
            );
            assert!(p.plan(&v).is_empty());
        }

        #[test]
        fn trigger_check_blocks_balanced_cluster() {
            let cfg = EdmConfig {
                force: false,
                ..EdmConfig::default()
            };
            let mut p = Edm::new(Selection::Cdf, cfg);
            let v = view(2, &[(10_000, 0.6, 0.0); 4], &[(0, 1 << 20)]);
            assert!(p.plan(&v).is_empty());
        }

        #[test]
        fn hot_objects_excluded_even_when_demand_unmet() {
            let mut p = cdf();
            // Heat everything on the source above the threshold.
            for obj in 0..3 {
                touch(&mut p, obj, 10);
            }
            let plan = p.plan(&full_hot_view());
            assert!(plan.is_empty(), "no cold candidates ⇒ no moves: {plan:?}");
        }

        #[test]
        fn selects_all_cold_in_size_order_when_demand_unmet() {
            let mut p = cdf();
            // The utilization gap (~12 % of 1 GiB) dwarfs the 13 MB of cold
            // data: every cold object moves, largest first.
            let plan = p.plan(&full_hot_view());
            assert_eq!(plan.len(), 3, "{plan:?}");
            assert_eq!(plan[0].object, ObjectId(0));
            assert_eq!(plan[1].object, ObjectId(1));
            assert_eq!(plan[2].object, ObjectId(2));
        }

        #[test]
        fn moves_stop_at_needed_bytes() {
            // Algorithm 1's per-round shed cap (1.5 % of 1 GiB ≈ 16.1 MB)
            // bounds the demand, so the largest cold object alone covers it.
            let mut p = cdf();
            let v = view(
                2,
                &[
                    (50_000, 0.70, 0.0),
                    (20_000, 0.60, 0.0),
                    (20_000, 0.55, 0.0),
                    (20_000, 0.60, 0.0),
                ],
                &[(0, 24 << 20), (0, 12 << 20), (0, 3 << 20), (2, 3 << 20)],
            );
            let plan = p.plan(&v);
            assert_eq!(plan.len(), 1, "{plan:?}");
            assert_eq!(plan[0].object, ObjectId(0));
        }

        #[test]
        fn name_is_stable() {
            assert_eq!(cdf().name(), "EDM-CDF");
        }
    }
}
