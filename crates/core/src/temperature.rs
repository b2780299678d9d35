//! Object temperature (§III.B.3, Definition 1) and the access tracker of
//! the EDM architecture (Fig. 4).
//!
//! The time-line since an object's creation is split into equal intervals;
//! with `Aᵢ` accesses in interval `i`, the temperature at interval `k` is
//!
//! > Tₖ(O) = Σᵢ Aᵢ / 2^(k−i)                           (Eq. 5)
//!
//! maintained incrementally by the recurrence
//!
//! > Tₖ(O) = Tₖ₋₁(O)/2 + Aₖ                            (Eq. 6)
//!
//! HDF counts only writes in `Aᵢ` ("Aᵢ is the write frequency of an object
//! (not including the read operations) for HDF"); CDF counts reads and
//! writes ("Aᵢ represents the total access frequency ... for CDF",
//! §III.B.5). The tracker maintains both, plus the per-object page-write
//! tally of the current measurement window that HDF's object selection
//! needs to satisfy ΔWc.
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(clippy::float_cmp)]

use edm_cluster::{AccessEvent, AccessKind, ObjectId};
use edm_snap::{snapshot_struct, IdMap, SnapReader, SnapWriter, Snapshot};

/// One object's decayed counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectHeat {
    /// Write-only temperature (HDF's Tₖ).
    pub write_temp: f64,
    /// Read+write temperature (CDF's Tₖ).
    pub total_temp: f64,
    /// Interval index of the last decay applied.
    last_interval: u64,
    /// Host pages written to this object during the current measurement
    /// window (not decayed; reset with the window).
    pub window_write_pages: u64,
    /// Pages accessed (read + write) during the current window.
    pub window_access_pages: u64,
}

impl ObjectHeat {
    /// Applies Eq. 6 lazily: decays by one halving per elapsed interval.
    fn decay_to(&mut self, interval: u64) {
        debug_assert!(interval >= self.last_interval);
        let elapsed = interval - self.last_interval;
        if elapsed > 0 {
            // 2^-elapsed, exactly zero past the f64 exponent range.
            let factor = if elapsed >= 1075 {
                0.0
            } else {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "explicitly clamped to i32::MAX on the same expression"
                )]
                (0.5f64).powi(elapsed.min(i32::MAX as u64) as i32)
            };
            self.write_temp *= factor;
            self.total_temp *= factor;
            self.last_interval = interval;
        }
    }
}

/// The EDM access tracker: updates temperatures on every object access.
/// It tracks every object it has seen; §IV's "k hottest objects" memory
/// bound is not modelled (DESIGN.md §2).
#[derive(Debug, Clone)]
pub struct AccessTracker {
    interval_us: u64,
    /// Dense, in first-access order. That order reaches nothing: the
    /// snapshot encoding sorts by object id.
    heats: Vec<(ObjectId, ObjectHeat)>,
    /// Object → index into `heats`: `record` sits on the simulator's
    /// per-I/O hot path, so the lookup is one hash probe. Only ever
    /// probed, never iterated.
    slots: IdMap<ObjectId, usize>,
}

impl AccessTracker {
    /// The paper recomputes wear every minute (§III.B.2); one minute is
    /// also our default temperature interval.
    pub const DEFAULT_INTERVAL_US: u64 = 60 * 1_000_000;

    pub fn new(interval_us: u64) -> Self {
        assert!(interval_us > 0, "interval must be positive");
        AccessTracker {
            interval_us,
            heats: Vec::new(),
            slots: IdMap::default(),
        }
    }

    pub fn interval_of(&self, now_us: u64) -> u64 {
        now_us / self.interval_us
    }

    /// Records one object access (the cluster calls this for every
    /// object-level I/O).
    pub fn record(&mut self, event: AccessEvent) {
        let interval = self.interval_of(event.now_us);
        let slot = *self.slots.entry(event.object).or_insert_with(|| {
            self.heats.push((event.object, ObjectHeat::default()));
            self.heats.len() - 1
        });
        let heat = &mut self.heats[slot].1;
        heat.decay_to(interval);
        heat.total_temp += 1.0;
        heat.window_access_pages += event.pages;
        if event.kind == AccessKind::Write {
            heat.write_temp += 1.0;
            heat.window_write_pages += event.pages;
        }
    }

    /// Temperature snapshot of one object at `now_us` (decayed to the
    /// current interval; untouched objects are stone cold).
    pub fn heat(&self, object: ObjectId, now_us: u64) -> ObjectHeat {
        let interval = self.interval_of(now_us);
        let slot = self.slots.get(&object);
        let mut h = slot.map(|&s| self.heats[s].1).unwrap_or_default();
        h.decay_to(interval);
        h
    }

    /// Number of objects ever seen.
    pub fn tracked_objects(&self) -> usize {
        self.heats.len()
    }

    /// Clears the per-window page counters (start of a new measurement
    /// period); temperatures persist.
    pub fn reset_window(&mut self) {
        for (_, h) in &mut self.heats {
            h.window_write_pages = 0;
            h.window_access_pages = 0;
        }
    }
}

snapshot_struct!(ObjectHeat {
    write_temp,
    total_temp,
    last_interval,
    window_write_pages,
    window_access_pages
});

impl Snapshot for AccessTracker {
    fn save(&self, w: &mut SnapWriter) {
        // `slots` is not stored: `load` reads it back off `heats`.
        let Self {
            slots: _,
            heats,
            interval_us,
        } = self;
        w.put_u64(*interval_us);
        // Canonical order: ascending object id, as a `BTreeMap` encodes.
        let mut sorted: Vec<&(ObjectId, ObjectHeat)> = heats.iter().collect();
        sorted.sort_unstable_by_key(|e| e.0);
        w.put_u64(sorted.len() as u64);
        for (o, heat) in sorted {
            o.save(w);
            heat.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        let interval_us = r.take_u64();
        let heats = Vec::<(ObjectId, ObjectHeat)>::load(r);
        let mut slots = IdMap::default();
        for (i, (o, _)) in heats.iter().enumerate() {
            if slots.insert(*o, i).is_some() {
                r.corrupt(format!("duplicate tracked object {o}"));
            }
        }
        if !r.failed() && interval_us == 0 {
            r.corrupt("tracker interval must be positive");
        }
        AccessTracker {
            interval_us: interval_us.max(1),
            heats,
            slots,
        }
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::float_cmp,
        reason = "the expected temperatures are small dyadic rationals, exact in f64"
    )]

    use super::*;

    fn ev(now_us: u64, object: u64, kind: AccessKind, pages: u64) -> AccessEvent {
        AccessEvent {
            now_us,
            object: ObjectId(object),
            kind,
            pages,
        }
    }

    #[test]
    fn accesses_accumulate_within_an_interval() {
        let mut t = AccessTracker::new(1000);
        t.record(ev(10, 1, AccessKind::Write, 2));
        t.record(ev(20, 1, AccessKind::Read, 1));
        t.record(ev(30, 1, AccessKind::Write, 3));
        let h = t.heat(ObjectId(1), 40);
        assert_eq!(h.write_temp, 2.0);
        assert_eq!(h.total_temp, 3.0);
        assert_eq!(h.window_write_pages, 5);
        assert_eq!(h.window_access_pages, 6);
    }

    #[test]
    fn recurrence_halves_per_interval() {
        // Eq. 6: T_k = T_{k-1}/2 + A_k.
        let mut t = AccessTracker::new(1000);
        for _ in 0..4 {
            t.record(ev(0, 1, AccessKind::Write, 1));
        }
        assert_eq!(t.heat(ObjectId(1), 999).write_temp, 4.0);
        assert_eq!(t.heat(ObjectId(1), 1000).write_temp, 2.0);
        assert_eq!(t.heat(ObjectId(1), 2000).write_temp, 1.0);
        // New accesses add on top of the decayed value.
        t.record(ev(2000, 1, AccessKind::Write, 1));
        assert_eq!(t.heat(ObjectId(1), 2500).write_temp, 2.0);
    }

    #[test]
    fn matches_eq5_closed_form() {
        // A_1 = 3 (interval 1), A_2 = 5 (interval 2), A_3 = 2 (interval 3):
        // T_3 = 3/4 + 5/2 + 2 = 5.25.
        let mut t = AccessTracker::new(100);
        for _ in 0..3 {
            t.record(ev(150, 7, AccessKind::Write, 1));
        }
        for _ in 0..5 {
            t.record(ev(250, 7, AccessKind::Write, 1));
        }
        for _ in 0..2 {
            t.record(ev(350, 7, AccessKind::Write, 1));
        }
        assert!((t.heat(ObjectId(7), 399).write_temp - 5.25).abs() < 1e-12);
    }

    #[test]
    fn untouched_objects_are_cold() {
        let t = AccessTracker::new(1000);
        let h = t.heat(ObjectId(99), 5000);
        assert_eq!(h.write_temp, 0.0);
        assert_eq!(h.total_temp, 0.0);
        assert_eq!(t.tracked_objects(), 0);
    }

    #[test]
    fn reads_heat_total_but_not_write_temp() {
        let mut t = AccessTracker::new(1000);
        t.record(ev(0, 1, AccessKind::Read, 4));
        let h = t.heat(ObjectId(1), 0);
        assert_eq!(h.write_temp, 0.0);
        assert_eq!(h.total_temp, 1.0);
        assert_eq!(h.window_write_pages, 0);
        assert_eq!(h.window_access_pages, 4);
    }

    #[test]
    fn long_idle_decays_to_zero_without_overflow() {
        let mut t = AccessTracker::new(1);
        t.record(ev(0, 1, AccessKind::Write, 1));
        let h = t.heat(ObjectId(1), u64::MAX);
        assert_eq!(h.write_temp, 0.0);
        assert!(h.write_temp.is_finite());
    }

    #[test]
    fn unbounded_tracker_never_evicts() {
        let mut t = AccessTracker::new(1000);
        for o in 0..500u64 {
            t.record(ev(0, o, AccessKind::Read, 1));
        }
        assert_eq!(t.tracked_objects(), 500);
    }

    #[test]
    fn tracker_snapshot_roundtrip_is_byte_identical() {
        let mut t = AccessTracker::new(1000);
        for o in 0..20u64 {
            let kind = if o % 3 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            for k in 0..(o % 5 + 1) {
                t.record(ev(k * 700, o, kind, o + 1));
            }
        }
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = AccessTracker::load(&mut r);
        r.finish("tracker").unwrap();

        let mut w2 = SnapWriter::new();
        back.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-encode must be byte-identical");

        assert_eq!(t.tracked_objects(), back.tracked_objects());
        for o in 0..20u64 {
            let (a, b) = (t.heat(ObjectId(o), 5000), back.heat(ObjectId(o), 5000));
            assert_eq!(a.write_temp.to_bits(), b.write_temp.to_bits());
            assert_eq!(a.total_temp.to_bits(), b.total_temp.to_bits());
            assert_eq!(a.window_write_pages, b.window_write_pages);
        }
    }

    #[test]
    fn reset_window_keeps_temperatures() {
        let mut t = AccessTracker::new(1000);
        t.record(ev(0, 1, AccessKind::Write, 7));
        t.reset_window();
        let h = t.heat(ObjectId(1), 0);
        assert_eq!(h.window_write_pages, 0);
        assert_eq!(h.window_access_pages, 0);
        assert_eq!(h.write_temp, 1.0);
    }
}
