//! The migration-policy interface between the cluster simulator and the
//! schemes under study (EDM-HDF, EDM-CDF, CMT, and the no-op baseline).
//!
//! The cluster drives a [`Migrator`] through three hooks:
//!
//! * [`Migrator::on_access`] — every object-level I/O (the EDM access
//!   tracker updates object temperature here, Fig. 4);
//! * [`Migrator::on_tick`] — the wear-monitor tick, every simulated
//!   minute (§III.B.2);
//! * [`Migrator::plan`] — asked at the migration point; returns the data
//!   movement actions, each "indicated by a triple (oid, source_id,
//!   dest_id)" (§III.B.5).

use std::collections::HashSet;

use edm_obs::Recorder;
use edm_snap::{snapshot_struct, SnapReader, SnapWriter};

use crate::cluster::Cluster;
use crate::ids::{GroupId, ObjectId, OsdId};

/// Kind of access presented to the policy's tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// One object access, as seen by the access tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    pub now_us: u64,
    pub object: ObjectId,
    pub kind: AccessKind,
    /// Flash pages touched by the access.
    pub pages: u64,
}

/// Per-OSD state exposed to policies at planning time.
#[derive(Debug, Clone)]
pub struct OsdView {
    pub osd: OsdId,
    pub group: GroupId,
    /// Host page writes since the start of the measurement period — the
    /// `Wc` of the wear model (Eq. 1/4).
    pub wc_pages: u64,
    /// Disk utilization `u` of the wear model (live bytes / capacity).
    pub utilization: f64,
    /// Actual measured block erases so far (ground truth; policies use the
    /// *model* instead, the simulator uses this for reporting).
    pub measured_erases: u64,
    /// EWMA of serviced I/O latency, µs — CMT's load factor (§V intro).
    pub ewma_latency_us: f64,
    /// Free exported bytes remaining on the device.
    pub free_bytes: u64,
    /// Exported capacity in bytes.
    pub capacity_bytes: u64,
}

/// Per-object state exposed to policies at planning time.
#[derive(Debug, Clone, Copy)]
pub struct ObjectView {
    pub object: ObjectId,
    /// Where the object currently lives (after any prior remapping).
    pub osd: OsdId,
    pub size_bytes: u64,
    /// True if the object already has a remapping-table entry; §III.C
    /// prefers re-migrating those to bound table growth.
    pub remapped: bool,
}

/// Snapshot handed to [`Migrator::plan`].
#[derive(Debug, Clone)]
pub struct ClusterView {
    pub now_us: u64,
    pub page_size: u64,
    /// Flash pages per block (`Np` of Eq. 1).
    pub pages_per_block: u32,
    pub osds: Vec<OsdView>,
    pub objects: Vec<ObjectView>,
}

impl ClusterView {
    pub fn osd(&self, id: OsdId) -> &OsdView {
        &self.osds[id.0 as usize]
    }

    /// Objects currently living on `osd`.
    pub fn objects_on(&self, osd: OsdId) -> impl Iterator<Item = &ObjectView> {
        self.objects.iter().filter(move |o| o.osd == osd)
    }
}

/// One migration action — the paper's `(oid, source_id, dest_id)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveAction {
    pub object: ObjectId,
    pub source: OsdId,
    pub dest: OsdId,
}

/// A migration scheme, driven by the cluster simulator.
pub trait Migrator {
    /// Human-readable policy name used in reports ("Baseline", "CMT",
    /// "EDM-HDF", "EDM-CDF").
    fn name(&self) -> &str;

    /// Called for every object-level I/O the cluster services.
    fn on_access(&mut self, _event: AccessEvent) {}

    /// Called every wear-monitor tick (§III.B.2: every simulated minute).
    fn on_tick(&mut self, _now_us: u64) {}

    /// Called at the migration point; returns the movement triples (empty
    /// = no migration). `view.osds[i].wc_pages` covers the measurement
    /// window chosen by the simulator.
    fn plan(&mut self, view: &ClusterView) -> Vec<MoveAction>;

    /// [`plan`](Self::plan) with an observability sink. The engine always
    /// calls this entry point; policies that journal their decision
    /// process (trigger evaluations, wear-model inputs, chosen plans)
    /// override it and make `plan` delegate here with a no-op recorder.
    /// Recording must be read-only: the returned plan is identical at
    /// every obs level.
    fn plan_obs(
        &mut self,
        view: &ClusterView,
        _obs: &mut dyn edm_obs::Recorder,
    ) -> Vec<MoveAction> {
        self.plan(view)
    }

    /// Called when the simulator closes a measurement window (continuous
    /// mode resets the per-window write counters each wear tick so the
    /// policy sees per-period rates, §III.B.2). Policies with their own
    /// windowed counters reset them here.
    fn on_window_reset(&mut self) {}

    /// Whether requests to an object must block while it is in flight.
    /// EDM blocks ("all the requests related to the objects being moved
    /// are blocked", §V.D); Sorrento-style CMT copies lazily and keeps
    /// serving from the source, so it overrides this to `false`.
    fn blocking_moves(&self) -> bool {
        true
    }

    /// Whether this policy's decisions are invariant under group-sharded
    /// parallel execution: it never plans a move across placement groups
    /// in different components, and its per-access state updates commute
    /// across components (so replaying buffered accesses in shard order at
    /// each barrier reproduces the sequential state exactly). Policies
    /// return `false` (the safe default) unless they can prove both; the
    /// engine silently falls back to the sequential path when this is
    /// `false` and `SimOptions::shards` asks for parallelism.
    fn parallel_safe(&self) -> bool {
        false
    }

    /// Serializes the policy's mutable state into a checkpoint. Stateless
    /// policies keep the default no-op; stateful ones (the EDM access
    /// tracker) must write everything [`load_state`](Self::load_state)
    /// needs to continue bit-identically.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`save_state`](Self::save_state). The
    /// engine only resumes a checkpoint whose recorded policy name matches
    /// this policy, so the byte layouts always agree.
    fn load_state(&mut self, _r: &mut SnapReader) {}
}

snapshot_struct!(MoveAction {
    object,
    source,
    dest
});

/// The paper's baseline: hash placement, never migrates.
#[derive(Debug, Default, Clone)]
pub struct NoMigration;

impl Migrator for NoMigration {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn plan(&mut self, _view: &ClusterView) -> Vec<MoveAction> {
        Vec::new()
    }

    fn parallel_safe(&self) -> bool {
        true // plans nothing and keeps no state
    }
}

/// Validates a plan against structural rules; the simulator refuses plans
/// that violate them. Returns the view entry each action's object
/// resolved to (in plan order), or the first violation. Cross-group moves
/// are accepted: CMT balances across groups, and the intra-group rule
/// belongs to each EDM policy, which plans per group.
pub fn validate_plan<'v>(
    plan: &[MoveAction],
    view: &'v ClusterView,
) -> Result<Vec<&'v ObjectView>, String> {
    let mut seen = HashSet::new();
    let mut resolved = Vec::with_capacity(plan.len());
    for (i, m) in plan.iter().enumerate() {
        if m.source == m.dest {
            return Err(format!("action {i}: source == dest ({})", m.source));
        }
        if !seen.insert(m.object) {
            return Err(format!("action {i}: object {} moved twice", m.object));
        }
        let obj = view
            .objects
            .iter()
            .find(|o| o.object == m.object)
            .ok_or_else(|| format!("action {i}: unknown object {}", m.object))?;
        if obj.osd != m.source {
            return Err(format!(
                "action {i}: object {} lives on {}, not {}",
                m.object, obj.osd, m.source
            ));
        }
        resolved.push(obj);
    }
    Ok(resolved)
}

/// A policy returned a structurally invalid plan — a policy bug. The
/// batch engine aborts on it; a daemon drops the round and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidPlan {
    pub policy: String,
    /// Number of actions in the refused plan.
    pub moves: usize,
    pub reason: String,
}

impl std::fmt::Display for InvalidPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "policy {} produced invalid plan: {}",
            self.policy, self.reason
        )
    }
}

/// Share of a destination's capacity that must stay free through
/// migration: "we guarantee that the free space in each destination
/// device does not exceed a predefined threshold" (§III.B.5). Read here
/// at acceptance and by the policies' planning budgets.
pub const DEST_FREE_RESERVE: f64 = 0.05;

/// One migration round's decision — the only definition of it; the
/// engine, the shard coordinator and the ingest daemon differ only in
/// where `view` comes from and in how they execute what is accepted.
///
/// Asks `policy` for a plan against `view` (journaling its trigger, plan
/// and assessment on `obs`), validates it, then applies the capacity
/// sanitation of §III.B.5 ("to avoid disk saturation"): a move is
/// accepted only while its destination's projected free space stays
/// above [`DEST_FREE_RESERVE`] of its capacity, earlier acceptances of the
/// round counted. Also refused are moves of `pending` objects — queued or
/// mid-transfer from an earlier round, which the view still shows on the
/// source they are about to vacate — and moves touching a `failed` OSD
/// (indexed by OSD id; policies see failed devices in the view, the
/// caller must never route a move through one). Returns the accepted
/// moves in plan order and the number refused; both empty/zero means the
/// policy planned nothing.
pub fn plan_round<P: Migrator + ?Sized>(
    policy: &mut P,
    view: &ClusterView,
    pending: &HashSet<ObjectId>,
    failed: &[bool],
    obs: &mut dyn Recorder,
) -> Result<(Vec<MoveAction>, u64), InvalidPlan> {
    let plan = policy.plan_obs(view, obs);
    let resolved = validate_plan(&plan, view).map_err(|reason| InvalidPlan {
        policy: policy.name().to_string(),
        moves: plan.len(),
        reason,
    })?;
    let mut projected_free: Vec<i64> = view.osds.iter().map(|o| o.free_bytes as i64).collect();
    let is_failed = |osd: OsdId| failed.get(osd.0 as usize).copied().unwrap_or(false);
    let mut accepted = Vec::new();
    for (&action, object) in plan.iter().zip(resolved) {
        if pending.contains(&action.object) || is_failed(action.source) || is_failed(action.dest) {
            continue;
        }
        let (source, dest) = (action.source.0 as usize, action.dest.0 as usize);
        let Some(dest_view) = view.osds.get(dest) else {
            continue;
        };
        let size = object.size_bytes as i64;
        let reserve = (dest_view.capacity_bytes as f64 * DEST_FREE_RESERVE) as i64;
        if projected_free[dest] - size < reserve {
            continue;
        }
        projected_free[dest] -= size;
        projected_free[source] += size;
        accepted.push(action);
    }
    let refused = (plan.len() - accepted.len()) as u64;
    Ok((accepted, refused))
}

/// Closes the measurement window on both sides: every OSD's `Wc` counter
/// and the policy's own windowed state. Continuous (`every-tick`) mode
/// calls this after each round so the policy sees per-period rates
/// (§III.B.2 recomputes Eq. 4 every minute over that minute's writes). A
/// sharded run passes every shard's cluster; each resets the devices it
/// holds.
pub fn close_wc_window<'a, P: Migrator + ?Sized>(
    clusters: impl IntoIterator<Item = &'a mut Cluster>,
    policy: &mut P,
) {
    for cluster in clusters {
        for osd in cluster.osds.iter_mut().filter(|o| !o.is_vacant()) {
            osd.reset_wc_window();
        }
    }
    policy.on_window_reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> ClusterView {
        ClusterView {
            now_us: 0,
            page_size: 4096,
            pages_per_block: 32,
            osds: (0..4)
                .map(|i| OsdView {
                    osd: OsdId(i),
                    group: GroupId(i % 2),
                    wc_pages: 0,
                    utilization: 0.5,
                    measured_erases: 0,
                    ewma_latency_us: 0.0,
                    free_bytes: 1 << 20,
                    capacity_bytes: 1 << 21,
                })
                .collect(),
            objects: vec![
                ObjectView {
                    object: ObjectId(1),
                    osd: OsdId(0),
                    size_bytes: 4096,
                    remapped: false,
                },
                ObjectView {
                    object: ObjectId(2),
                    osd: OsdId(1),
                    size_bytes: 4096,
                    remapped: true,
                },
            ],
        }
    }

    #[test]
    fn baseline_never_plans() {
        let mut b = NoMigration;
        assert_eq!(b.name(), "Baseline");
        assert!(b.plan(&view()).is_empty());
    }

    #[test]
    fn valid_intra_group_plan_passes() {
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        }];
        validate_plan(&plan, &view()).unwrap();
    }

    #[test]
    fn cross_group_move_accepted() {
        // OSDs 0 and 1 sit in different groups; CMT plans such moves.
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(1),
        }];
        let v = view();
        assert_ne!(v.osd(OsdId(0)).group, v.osd(OsdId(1)).group);
        validate_plan(&plan, &v).unwrap();
    }

    #[test]
    fn wrong_source_rejected() {
        let plan = vec![MoveAction {
            object: ObjectId(2),
            source: OsdId(0),
            dest: OsdId(2),
        }];
        assert!(validate_plan(&plan, &view())
            .unwrap_err()
            .contains("lives on"));
    }

    #[test]
    fn duplicate_object_rejected() {
        let m = MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        };
        assert!(validate_plan(&[m, m], &view())
            .unwrap_err()
            .contains("moved twice"));
    }

    #[test]
    fn self_move_rejected() {
        let plan = vec![MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(0),
        }];
        assert!(validate_plan(&plan, &view())
            .unwrap_err()
            .contains("source == dest"));
    }

    /// Plans a fixed list of moves.
    struct Fixed(Vec<MoveAction>);

    impl Migrator for Fixed {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn plan(&mut self, _view: &ClusterView) -> Vec<MoveAction> {
            self.0.clone()
        }
    }

    #[test]
    fn plan_round_refuses_saturating_pending_and_failed_moves() {
        let a = MoveAction {
            object: ObjectId(1),
            source: OsdId(0),
            dest: OsdId(2),
        };
        let b = MoveAction {
            object: ObjectId(2),
            source: OsdId(1),
            dest: OsdId(2),
        };
        let round = |view: &ClusterView, pending: &[ObjectId], failed: &[bool]| {
            let pending = pending.iter().copied().collect();
            plan_round(
                &mut Fixed(vec![a, b]),
                view,
                &pending,
                failed,
                &mut edm_obs::NoopRecorder,
            )
        };
        assert_eq!(round(&view(), &[], &[]), Ok((vec![a, b], 0)));
        // With the reserve plus 4 KiB free the second 4 KiB object is one
        // too many, the first acceptance counted against the destination.
        let mut tight = view();
        let reserve = (tight.osds[2].capacity_bytes as f64 * DEST_FREE_RESERVE) as u64;
        tight.osds[2].free_bytes = reserve + 4096;
        assert_eq!(round(&tight, &[], &[]), Ok((vec![a], 1)));
        assert_eq!(round(&view(), &[ObjectId(1)], &[]), Ok((vec![b], 1)));
        assert_eq!(
            round(&view(), &[], &[false, true, false, false]),
            Ok((vec![a], 1))
        );
        assert_eq!(
            round(&view(), &[], &[false, false, true, false]),
            Ok((vec![], 2))
        );
        // A plan the view contradicts is refused whole, with its size.
        let mut lost = view();
        lost.objects.pop();
        let err = round(&lost, &[], &[]).unwrap_err();
        assert_eq!((err.policy.as_str(), err.moves), ("Fixed", 2));
        assert!(err.to_string().contains("unknown object"), "{err}");
    }

    #[test]
    fn objects_on_filters_by_osd() {
        let v = view();
        assert_eq!(v.objects_on(OsdId(0)).count(), 1);
        assert_eq!(v.objects_on(OsdId(3)).count(), 0);
    }
}
