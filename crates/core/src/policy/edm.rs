//! EDM: the endurance-aware migration scheme (§III.B).
//!
//! The paper has one scheme — the wear-imbalance trigger, Algorithm 1
//! per group, "distribute in proportion to ΔWc" — and two rules for
//! which objects leave a source ([`Selection`], §III.B.4–5):
//!
//! * **HDF**, Hot-Data-First, moves the most write-frequently accessed
//!   objects: Eq. 4 says fewer pages written means fewer erases, and
//!   thanks to workload skew a small number of write-hot objects carries
//!   most of the write volume, so HDF minimizes the data moved (and hence
//!   the write amplification of migration itself).
//! * **CDF**, Cold-Data-First, trades a little extra moved data for
//!   near-zero impact on foreground requests: it cools a hot SSD by
//!   *reducing its utilization* — moving rarely-accessed objects away —
//!   instead of relocating the write-hot set. Cold candidates are taken
//!   largest first, to minimize the number of moved objects and hence the
//!   remapping-table growth (§III.C); sources below 50 % utilization are
//!   never drained further because the wear model is flat there (Fig. 3).

use edm_cluster::{AccessEvent, ClusterView, Migrator, MoveAction, ObjectView, OsdId, OsdView};
use edm_model::MeanFieldModel;
use edm_obs::Label;
use edm_snap::{SnapReader, SnapWriter, Snapshot};

use crate::alg1::{
    calculate_cdf, calculate_hdf, free_pages_per_erase, MovementAmounts, MIN_SOURCE_UTILIZATION,
};
use crate::config::{Assessor, EdmConfig};
use crate::evaluate::{assess_plan_obs, trim_to_improvement, trim_to_improvement_model};
use crate::plan::{dest_budget_bytes, distribute, Destination, Selected};
use crate::policy::{emit_plan_chosen, emit_wear_inputs, members_by_group};
use crate::temperature::{AccessTracker, ObjectHeat};
use crate::trigger;

/// CDF's cold line: an object whose total temperature (Eq. 5, reads and
/// writes) is below this is a cold candidate — "target objects which meet
/// Tₖ(O) less than a threshold" (§III.B.5). Read by
/// [`Selection::candidate`].
const COLD_THRESHOLD: f64 = 1.0;

/// The object-selection rule: everything the paper lets differ between
/// EDM-HDF and EDM-CDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Hot-Data-First: shift page writes, write-hot objects first.
    Hdf,
    /// Cold-Data-First: shed utilization, cold and large objects first.
    Cdf,
}

impl Selection {
    /// The journal label of EDM under this rule; its text is the
    /// evaluation name.
    pub fn label(self) -> Label {
        match self {
            Selection::Hdf => Label::EdmHdf,
            Selection::Cdf => Label::EdmCdf,
        }
    }

    /// Algorithm 1 in this rule's currency: how many page writes (HDF)
    /// or how much utilization (CDF) each group member sheds or absorbs.
    fn amounts(self, wc: &[f64], u: &[f64], model: &MeanFieldModel) -> MovementAmounts {
        match self {
            Selection::Hdf => calculate_hdf(wc, &free_pages_per_erase(u, model)),
            Selection::Cdf => calculate_cdf(wc, u, model),
        }
    }

    /// One device's Algorithm 1 amount in the unit candidate weights are
    /// counted in: page writes for HDF, bytes (Δu × capacity) for CDF.
    fn demand(self, amount: f64, osd: &OsdView) -> f64 {
        match self {
            Selection::Hdf => amount,
            Selection::Cdf => amount * osd.capacity_bytes as f64,
        }
    }

    /// Whether `source` may shed at all. CDF never migrates cold data off
    /// a device below 50 % utilization (§III.B.5); Algorithm 1 already
    /// respects this, so the check is a belt-and-braces guard.
    fn may_shed(self, source: &OsdView) -> bool {
        match self {
            Selection::Hdf => true,
            Selection::Cdf => source.utilization >= MIN_SOURCE_UTILIZATION,
        }
    }

    /// `(weight, rank)` of an object this rule would move — the weight
    /// counts toward the source's demand, the highest rank leaves first —
    /// or `None` if the rule leaves the object where it is.
    fn candidate(self, o: &ObjectView, heat: &ObjectHeat) -> Option<(f64, f64)> {
        match self {
            // Objects that actually received writes this window, hottest
            // (write temperature) first.
            Selection::Hdf => {
                if heat.window_write_pages == 0 {
                    return None;
                }
                Some((heat.window_write_pages as f64, heat.write_temp))
            }
            // Total temperature below the threshold, largest first to
            // minimize the number of moved objects.
            Selection::Cdf => {
                if heat.total_temp >= COLD_THRESHOLD {
                    return None;
                }
                let size = o.size_bytes as f64;
                Some((size, size))
            }
        }
    }
}

/// The EDM policy under one [`Selection`] rule.
pub struct Edm {
    cfg: EdmConfig,
    tracker: AccessTracker,
    selection: Selection,
}

impl Edm {
    pub fn new(selection: Selection, cfg: EdmConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract: callers pass validated EDM configuration"
        )]
        cfg.validate().expect("invalid EDM configuration");
        Edm {
            tracker: AccessTracker::new(cfg.temperature_interval_us),
            cfg,
            selection,
        }
    }

    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }
}

impl Migrator for Edm {
    fn name(&self) -> &str {
        self.selection.label().as_str()
    }

    fn on_access(&mut self, event: AccessEvent) {
        self.tracker.record(event);
    }

    fn on_window_reset(&mut self) {
        self.tracker.reset_window();
    }

    fn parallel_safe(&self) -> bool {
        // Plans only intra-group moves (§III.A) and the tracker's
        // per-object counters commute across placement components, so
        // component-ordered replay reproduces the sequential state.
        true
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

    fn plan_obs(&mut self, view: &ClusterView, obs: &mut dyn edm_obs::Recorder) -> Vec<MoveAction> {
        let rule = self.selection;
        let model = MeanFieldModel::paper(view.pages_per_block);
        // Cluster-wide wear-imbalance trigger (§III.B.2), computed from the
        // model, not from device-internal counters the MDS cannot see.
        let ecs: Vec<f64> = view
            .osds
            .iter()
            .map(|o| model.erase_count(o.wc_pages as f64, o.utilization))
            .collect();
        emit_wear_inputs(view, &ecs, obs);
        let decision = trigger::evaluate_obs(
            &ecs,
            self.cfg.lambda,
            rule.label(),
            Label::EraseEstimate,
            obs,
        );
        if !self.cfg.force && !decision.triggered {
            return Vec::new();
        }
        // §III.B.2: sources are the devices with Ec − Ēc > Ēc·λ;
        // destinations are the devices below the cluster-wide average.
        // Algorithm 1 runs over whole groups, but only trigger-qualified
        // devices actually shed or absorb objects.
        let is_source = |o: &OsdId| decision.sources.contains(&(o.0 as usize));
        let is_dest = |o: &OsdId| decision.destinations.contains(&(o.0 as usize));

        let mut plan = Vec::new();
        for (_, members) in members_by_group(view) {
            if members.len() < 2 {
                continue;
            }
            let wc: Vec<f64> = members
                .iter()
                .map(|&m| view.osd(m).wc_pages as f64)
                .collect();
            let u: Vec<f64> = members.iter().map(|&m| view.osd(m).utilization).collect();
            let amounts = rule.amounts(&wc, &u, &model);

            let mut dests: Vec<Destination> = members
                .iter()
                .zip(&amounts.delta)
                .filter(|(m, &d)| d > 0.0 && is_dest(m))
                .map(|(&m, &d)| Destination {
                    osd: m,
                    demand: rule.demand(d, view.osd(m)),
                    budget_bytes: dest_budget_bytes(view, m),
                })
                .collect();
            if dests.is_empty() {
                continue;
            }

            for (&source, &delta) in members.iter().zip(&amounts.delta) {
                if delta >= 0.0 || !is_source(&source) || !rule.may_shed(view.osd(source)) {
                    continue;
                }
                let needed = rule.demand(-delta, view.osd(source));
                // Highest rank first; ties prefer already-remapped objects
                // so the remapping table does not grow (§III.C).
                let mut candidates: Vec<(Selected, f64, bool)> = view
                    .objects_on(source)
                    .filter_map(|o| {
                        let heat = self.tracker.heat(o.object, view.now_us);
                        let (weight, rank) = rule.candidate(o, &heat)?;
                        Some((
                            Selected {
                                object: o.object,
                                source,
                                weight,
                                size_bytes: o.size_bytes,
                            },
                            rank,
                            o.remapped,
                        ))
                    })
                    .collect();
                candidates.sort_by(|a, b| {
                    #[expect(clippy::expect_used, reason = "ranks are finite by construction (sums of decayed counters, or byte sizes)")]
                    b.1.partial_cmp(&a.1)
                        .expect("ranks are finite")
                        .then(b.2.cmp(&a.2))
                        .then(a.0.object.cmp(&b.0.object))
                });
                let mut selected = Vec::new();
                let mut cum = 0.0;
                for (s, _, _) in candidates {
                    if cum >= needed {
                        break;
                    }
                    cum += s.weight;
                    selected.push(s);
                }
                plan.extend(distribute(&selected, &mut dests));
            }
        }
        // Whole-object selection can overshoot Algorithm 1's demand; never
        // publish a plan the model predicts makes the imbalance worse.
        let plan = match self.cfg.assessor {
            Assessor::Projection => trim_to_improvement(view, plan, &self.tracker, &model),
            Assessor::Model => trim_to_improvement_model(view, plan, &self.tracker, &model),
        };
        emit_plan_chosen(rule.label(), view, &plan, obs);
        if obs.events_on() {
            assess_plan_obs(view, &plan, &self.tracker, &model, obs);
        }
        plan
    }
}
