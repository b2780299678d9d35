#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::todo, clippy::unimplemented, clippy::unreachable)]
#![warn(clippy::iter_over_hash_type)]
//! edm-obs: cross-layer observability for the EDM reproduction.
//!
//! This crate sits below every other workspace crate and provides:
//!
//! * [`Recorder`] — the sink trait threaded (`&mut dyn Recorder`)
//!   through the FTL write path, the cluster engine, and the migration
//!   policies. [`NoopRecorder`] implements it with empty inlined bodies;
//!   [`MemoryRecorder`] keeps counters, gauges, log-linear latency
//!   [`Histogram`]s, and a structured [`Event`] journal.
//! * [`ObsLevel`] — `off` (nothing), `metrics` (scalars + histograms),
//!   `events` (metrics plus the journal).
//! * [`json`] — a dependency-free JSON writer/parser pair.
//! * [`read_jsonl`] — the one journal reader: each line of a
//!   [`MemoryRecorder::write_jsonl`] file back into a [`JournalLine`]
//!   (an event's [`JournalEntry`] or a metric trailer), or a typed
//!   [`LineError`].
//!
//! Design rules for instrumented code:
//!
//! 1. Observability is *read-only*: no recorder call may change
//!    simulation state, so determinism is bit-identical at every level.
//! 2. Scalar hooks (`counter`, `latency`) may be called unconditionally;
//!    anything that allocates (an [`Event`] with `Vec` fields) must be
//!    guarded by [`Recorder::events_on`].
//! 3. Virtual time and device scope are ambient: the engine calls
//!    `set_now` / `set_device`, lower layers just emit.

pub mod event;
pub mod hist;
pub mod json;
pub mod prom;
pub mod recorder;

pub use event::Event;
pub use hist::{Histogram, HistogramError};
pub use prom::render_prometheus;
pub use recorder::{
    read_jsonl, AsDynRecorder, JournalEntry, JournalLine, LineError, MemoryRecorder, NoopRecorder,
    ObsLevel, Recorder,
};
