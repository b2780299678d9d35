//! Time-source abstraction for the replay engine.
//!
//! The engine's event loop is indifferent to *when* (in wall-clock
//! terms) each virtual-time event is dispatched: correctness lives
//! entirely in the `(time, seq)` total order of the event queue. A
//! [`TimeSource`] decides the pacing. The simulator runs flat out
//! ([`SimTime`] — never waits, never yields), while a live daemon can
//! supply a dilated wall-clock source that holds events back until
//! their scaled deadline and *yields* control between events so the
//! host can service control-plane requests (pause, checkpoint,
//! shutdown) without threading any of that through the engine.
//!
//! The contract that keeps the two modes bit-identical: a `TimeSource`
//! only ever delays or hands back control — it never reorders, drops,
//! or injects events. On [`TimeStep::Yield`] the engine leaves the
//! not-yet-dispatched event queued under its original `(time, seq)` key,
//! so a later leg pops the exact same sequence the flat-out run would
//! have.

/// Verdict of a [`TimeSource`] for one event about to be dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeStep {
    /// Dispatch the event now.
    Proceed,
    /// Do not dispatch yet: the engine leaves the event queued unchanged
    /// and returns control to the caller, which is expected to call
    /// back in (after sleeping, or after servicing control traffic).
    Yield,
}

/// Decides when the engine may dispatch the event stamped `virtual_us`.
pub trait TimeSource {
    /// Called once per event dispatch, *before* virtual time advances.
    /// Returning [`TimeStep::Yield`] leaves the engine state exactly as
    /// if the event had never been looked at.
    fn wait_until(&mut self, virtual_us: u64) -> TimeStep;
}

/// The simulator's time source: virtual time is decoupled from wall
/// time, so every event is due immediately.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTime;

impl TimeSource for SimTime {
    fn wait_until(&mut self, _virtual_us: u64) -> TimeStep {
        TimeStep::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_always_proceeds() {
        let mut t = SimTime;
        for at in [0, 1, u64::MAX] {
            assert_eq!(t.wait_until(at), TimeStep::Proceed);
        }
    }
}
