//! Wall-clock time sources for the daemon.
//!
//! [`DilatedPacer`] maps virtual microseconds onto wall time at a
//! configurable speed and holds events back until they are due;
//! [`FlatOut`] dispatches as fast as possible but still yields
//! periodically. Both uphold the [`TimeSource`] contract: they only
//! delay or hand back control, never reorder — so the replay digest is
//! independent of the wall clock, which is also why the wall-clock read
//! here is the only one in the crate and carries an `#[expect]` arguing
//! exactly that.

use std::time::{Duration, Instant};

use edm_cluster::{TimeSource, TimeStep};

/// Longest single sleep before yielding back to the caller, so control
/// traffic (pause, checkpoint, shutdown) is serviced at least this
/// often even when the next event is far away.
const SLICE: Duration = Duration::from_millis(2);

/// The crate's one wall-clock read, shared by both pacers.
#[expect(
    clippy::disallowed_methods,
    reason = "pacing only: the wall clock dilates event timing, never event order or content"
)]
fn wall_now() -> Instant {
    Instant::now()
}

/// Replays virtual time against the wall clock, dilated by `speed`
/// virtual microseconds per wall microsecond (so `speed = 1.0` is real
/// time and `speed = 1000.0` replays a virtual second every
/// millisecond).
///
/// The pacer anchors `(wall instant, virtual µs)` once and extrapolates;
/// [`rebase`](DilatedPacer::rebase) re-anchors after a pause so time
/// spent paused is not "owed" as a burst of overdue events.
pub struct DilatedPacer {
    speed: f64,
    anchor_wall: Instant,
    anchor_virtual: u64,
}

impl DilatedPacer {
    /// `speed` is clamped below by a sane minimum so a zero or negative
    /// value cannot stall the daemon forever.
    pub fn new(speed: f64, start_virtual_us: u64) -> DilatedPacer {
        DilatedPacer {
            speed: if speed > 1e-6 { speed } else { 1e-6 },
            anchor_wall: wall_now(),
            anchor_virtual: start_virtual_us,
        }
    }

    /// Re-anchors "now" (wall) to `virtual_now` (virtual). Call after a
    /// pause ends or a resume restores a mid-trace clock.
    pub fn rebase(&mut self, virtual_now: u64) {
        self.anchor_wall = wall_now();
        self.anchor_virtual = virtual_now;
    }

    /// Wall-clock duration until the event at `virtual_us` is due
    /// (zero when overdue).
    fn due_in(&self, virtual_us: u64) -> Duration {
        let ahead_virtual = virtual_us.saturating_sub(self.anchor_virtual);
        let due_wall = Duration::from_micros((ahead_virtual as f64 / self.speed) as u64);
        due_wall.saturating_sub(self.anchor_wall.elapsed())
    }
}

impl TimeSource for DilatedPacer {
    fn wait_until(&mut self, virtual_us: u64) -> TimeStep {
        let remaining = self.due_in(virtual_us);
        if remaining.is_zero() {
            return TimeStep::Proceed;
        }
        if remaining <= SLICE {
            std::thread::sleep(remaining);
            return TimeStep::Proceed;
        }
        std::thread::sleep(SLICE);
        TimeStep::Yield
    }
}

/// Dispatches every event immediately, but yields every `PERIOD` polls
/// so the session loop can still service control traffic during a
/// maximum-speed replay.
#[derive(Debug, Default)]
pub struct FlatOut {
    polls: u64,
}

impl FlatOut {
    const PERIOD: u64 = 4096;

    pub fn new() -> FlatOut {
        FlatOut::default()
    }
}

impl TimeSource for FlatOut {
    fn wait_until(&mut self, _virtual_us: u64) -> TimeStep {
        self.polls += 1;
        if self.polls.is_multiple_of(FlatOut::PERIOD) {
            TimeStep::Yield
        } else {
            TimeStep::Proceed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overdue_events_proceed_immediately() {
        let mut p = DilatedPacer::new(1000.0, 0);
        // Virtual time far behind the anchor: always due.
        assert_eq!(p.wait_until(0), TimeStep::Proceed);
        // 1000 virtual µs at 1000x is 1 wall µs — effectively due now.
        assert_eq!(p.wait_until(1000), TimeStep::Proceed);
    }

    #[test]
    fn distant_events_yield() {
        // 10 virtual seconds at 1x: far beyond one slice.
        let mut p = DilatedPacer::new(1.0, 0);
        let t0 = wall_now();
        assert_eq!(p.wait_until(10_000_000), TimeStep::Yield);
        // The pacer slept one slice, not the full deadline.
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn rebase_forgives_paused_time() {
        let mut p = DilatedPacer::new(1.0, 0);
        std::thread::sleep(Duration::from_millis(5));
        p.rebase(1_000_000);
        // An event 10 virtual ms past the new anchor is not yet due,
        // despite the wall time that elapsed before the rebase.
        assert!(!p.due_in(1_010_000).is_zero());
    }

    #[test]
    fn zero_speed_is_clamped() {
        let p = DilatedPacer::new(0.0, 0);
        // At the clamped minimum speed this would be absurdly far out,
        // but it must be finite (no division blow-up).
        assert!(p.due_in(10).as_secs() > 5);
    }

    #[test]
    fn flat_out_yields_periodically() {
        let mut p = FlatOut::new();
        let mut yields = 0;
        for _ in 0..(FlatOut::PERIOD * 3) {
            if p.wait_until(0) == TimeStep::Yield {
                yields += 1;
            }
        }
        assert_eq!(yields, 3);
    }
}
