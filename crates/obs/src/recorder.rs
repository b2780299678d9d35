//! The `Recorder` trait and its two implementations.
//!
//! Instrumented code takes `&mut dyn Recorder` and calls the hooks
//! unconditionally for scalar metrics (a counter bump on the no-op
//! recorder is an inlined empty body behind one indirect call) but must
//! guard event *construction* behind [`Recorder::events_on`] so that
//! allocating variants cost nothing below the `events` level.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

use crate::event::{Event, Field};
use crate::hist::Histogram;
use crate::json::{self, Raw, Record};

/// How much the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// Record nothing.
    #[default]
    Off,
    /// Counters, gauges, and latency histograms only.
    Metrics,
    /// Metrics plus the structured event journal.
    Events,
}

impl ObsLevel {
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "metrics" => Some(ObsLevel::Metrics),
            "events" => Some(ObsLevel::Events),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Events => "events",
        }
    }
}

/// Observability sink threaded through the FTL, cluster engine, and
/// migration policies. All hooks have empty defaults, so `dyn Recorder`
/// call sites pay one indirect call per hook and nothing else when the
/// implementation ignores them.
pub trait Recorder {
    /// Current recording level; callers use it to skip building events.
    fn level(&self) -> ObsLevel {
        ObsLevel::Off
    }

    /// Advances the journal clock (virtual microseconds). The simulation
    /// engine calls this as it dispatches each event; layers below the
    /// engine (the FTL) never see the clock and simply inherit it.
    fn set_now(&mut self, _now_us: u64) {}

    /// Sets (or clears) the device scope stamped on subsequent journal
    /// lines, so FTL events carry the OSD they happened on without the
    /// FTL knowing its own identity.
    fn set_device(&mut self, _device: Option<u32>) {}

    /// Sets (or clears) the placement-component scope stamped on
    /// subsequent journal lines. The engine tags component-local work
    /// (client dispatch, device completions, per-source migration kicks)
    /// and leaves coordinator-level work — tick bodies, trigger and plan
    /// decisions — untagged, so a journal serializes identically whether
    /// the run was sequential or group-sharded (see
    /// [`MemoryRecorder::write_jsonl`]).
    fn set_component(&mut self, _component: Option<u32>) {}

    /// Adds `delta` to a named monotonic counter.
    fn counter(&mut self, _name: &'static str, _delta: u64) {}

    /// Sets a named gauge to its latest value.
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    /// Records a sample into a named latency histogram.
    fn latency(&mut self, _name: &'static str, _us: u64) {}

    /// Appends a structured event to the journal.
    fn event(&mut self, _event: Event) {}

    /// Folds a whole histogram into the named latency histogram — the
    /// bulk form of [`latency`](Self::latency), used when a sharded run
    /// merges its per-shard recorders back into the parent. Recorders
    /// that keep no histograms ignore it.
    fn merge_histogram(&mut self, _name: &'static str, _hist: &Histogram) {}

    /// True when event construction is worth the allocation.
    fn events_on(&self) -> bool {
        self.level() >= ObsLevel::Events
    }
}

/// Escape hatch for code generic over `R: Recorder + ?Sized` that must
/// hand a `&mut dyn Recorder` to an object-safe callee: unsizing
/// coercions don't apply to generic parameters, so the reborrow goes
/// through this trait instead. Implemented for every sized recorder and
/// for `dyn Recorder` itself.
pub trait AsDynRecorder {
    fn as_dyn_mut(&mut self) -> &mut dyn Recorder;
}

impl<R: Recorder> AsDynRecorder for R {
    fn as_dyn_mut(&mut self) -> &mut dyn Recorder {
        self
    }
}

impl AsDynRecorder for dyn Recorder + '_ {
    fn as_dyn_mut(&mut self) -> &mut dyn Recorder {
        self
    }
}

/// The recorder that records nothing. Every hook is an empty inlined
/// body; the hot-path cost is the indirect call alone, which the
/// obs-overhead perf cell keeps honest.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// One journal line: virtual time, optional device and component
/// scopes, event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    pub t_us: u64,
    pub device: Option<u32>,
    /// Placement component the event belongs to (`None` for
    /// coordinator-level events such as tick bodies and plan decisions).
    pub component: Option<u32>,
    pub event: Event,
}

/// In-memory recorder: BTree-backed metrics (deterministic iteration
/// order) plus an append-only journal, snapshotable to JSON/JSONL.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    level: ObsLevel,
    now_us: u64,
    device: Option<u32>,
    component: Option<u32>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
    events: Vec<JournalEntry>,
}

impl MemoryRecorder {
    pub fn new(level: ObsLevel) -> Self {
        MemoryRecorder {
            level,
            ..MemoryRecorder::default()
        }
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauges(&self) -> &BTreeMap<&'static str, f64> {
        &self.gauges
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All histograms, in deterministic name order. The sharded runner
    /// folds these into the parent recorder via
    /// [`Recorder::merge_histogram`].
    pub fn histograms(&self) -> &BTreeMap<&'static str, Histogram> {
        &self.hists
    }

    pub fn journal(&self) -> &[JournalEntry] {
        &self.events
    }

    /// Number of journal events matching a `kind` discriminator.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    }

    /// The journal in canonical `(t_us, component)` order: untagged
    /// coordinator events first within a timestamp, ties broken by
    /// insertion order. Component sub-simulations are exact restrictions
    /// of the sequential run, so each `(t_us, component)` bucket holds
    /// the same events in the same order on both engine paths — this
    /// order is what makes the journal identical between them. Untagged
    /// journals (the default) come out in pure insertion order.
    pub fn canonical_journal(&self) -> Vec<&JournalEntry> {
        let mut ordered: Vec<&JournalEntry> = self.events.iter().collect();
        // Stable sort: equal keys keep insertion order.
        ordered.sort_by_key(|e| (e.t_us, e.component.map_or(0u64, |c| c as u64 + 1)));
        ordered
    }

    /// [`write_jsonl`](Self::write_jsonl) into a new file at `path`.
    pub fn write_jsonl_file(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut w)?;
        w.flush()
    }

    /// Writes the journal as JSONL: one line per event in
    /// [`canonical_journal`](Self::canonical_journal) order (keyed by
    /// virtual time, stamped with the device and component scopes when
    /// present), followed by trailer records for every counter, gauge,
    /// and histogram so a journal file is self-contained. [`read_jsonl`]
    /// reads it back.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut line = String::new();
        for entry in self.canonical_journal() {
            line.clear();
            line.push('{');
            json::field_u64(&mut line, "t_us", entry.t_us);
            if let Some(d) = entry.device {
                json::field_u64(&mut line, "osd", d as u64);
            }
            if let Some(c) = entry.component {
                json::field_u64(&mut line, "comp", c as u64);
            }
            json::field_str(&mut line, "kind", entry.event.kind());
            entry.event.write_fields(&mut line);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, value) in &self.counters {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "counter");
            json::field_str(&mut line, "name", name);
            json::field_u64(&mut line, "value", *value);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, value) in &self.gauges {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "gauge");
            json::field_str(&mut line, "name", name);
            json::field_f64(&mut line, "value", *value);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        for (name, hist) in &self.hists {
            line.clear();
            line.push('{');
            json::field_str(&mut line, "kind", "hist");
            json::field_str(&mut line, "name", name);
            write_hist_fields(&mut line, hist);
            line.push_str("}\n");
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }
}

fn write_hist_fields(out: &mut String, hist: &Histogram) {
    let (p50, p95, p99, max) = hist.summary();
    json::field_u64(out, "count", hist.count());
    json::field_u64(out, "p50", p50);
    json::field_u64(out, "p95", p95);
    json::field_u64(out, "p99", p99);
    json::field_u64(out, "max", max);
}

/// One journal line decoded: an event, or one of the metric trailers
/// that follow the events.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalLine<'a> {
    Event(JournalEntry),
    /// A counter's final value.
    Counter(Cow<'a, str>, u64),
    /// A gauge's final value (NaN when it was not finite).
    Gauge(Cow<'a, str>, f64),
    /// A latency histogram's count, p50, p95, p99 and max.
    Hist(Cow<'a, str>, [u64; 5]),
}

/// Why a journal line did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// Not JSON: the reader's message.
    Json(String),
    /// A missing or ill-typed `kind`, event `t_us`, `osd` or `comp` (the
    /// two scopes are `u32`s), or trailer `name`.
    Envelope(&'static str),
    /// A record of this kind with a missing or ill-typed field, or an
    /// unknown kind.
    Malformed(String, String),
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::Json(e) => write!(f, "unparseable JSON: {e}"),
            LineError::Envelope(key) => write!(f, "missing or malformed {key:?}"),
            LineError::Malformed(kind, why) => write!(f, "malformed {kind} record: {why}"),
        }
    }
}

impl<'a> JournalLine<'a> {
    /// Reads one journal line into `rec` and decodes it: the inverse of
    /// a line [`MemoryRecorder::write_jsonl`] writes.
    pub fn read(rec: &mut Record<'a>, line: &'a str) -> Result<JournalLine<'a>, LineError> {
        rec.read(line).map_err(LineError::Json)?;
        let rec = &*rec;
        let text = |key| {
            rec.get(key)
                .and_then(Raw::as_str)
                .ok_or(LineError::Envelope(key))
        };
        let kind = text("kind")?;
        let malformed = |why| LineError::Malformed(kind.to_string(), why);
        let num = |key| u64::read(rec, &kind, key).map_err(malformed);
        Ok(match &*kind {
            "counter" => JournalLine::Counter(text("name")?, num("value")?),
            "gauge" => JournalLine::Gauge(
                text("name")?,
                f64::read(rec, &kind, "value").map_err(malformed)?,
            ),
            "hist" => {
                let [count, p50, p95, p99, max] = ["count", "p50", "p95", "p99", "max"].map(num);
                JournalLine::Hist(text("name")?, [count?, p50?, p95?, p99?, max?])
            }
            _ => {
                // The scopes are the fields before `kind`: an `osd` after
                // it is the event's own (queue events carry one).
                let scope = |key| {
                    let mut envelope = rec.fields().take_while(|&(k, _)| k != "kind");
                    let Some((_, v)) = envelope.find(|&(k, _)| k == key) else {
                        return Ok(None);
                    };
                    let scope = v.as_u64().and_then(|n| u32::try_from(n).ok());
                    scope.map(Some).ok_or(LineError::Envelope(key))
                };
                let t_us = rec.get("t_us").and_then(Raw::as_u64);
                JournalLine::Event(JournalEntry {
                    t_us: t_us.ok_or(LineError::Envelope("t_us"))?,
                    device: scope("osd")?,
                    component: scope("comp")?,
                    event: Event::from_record(rec).map_err(malformed)?,
                })
            }
        })
    }
}

/// Reads a JSONL journal line by line, blank lines skipped: each line's
/// 1-based number and what it decoded to. One [`Record`] is reused for
/// every line.
pub fn read_jsonl(
    text: &str,
) -> impl Iterator<Item = (usize, Result<JournalLine<'_>, LineError>)> + '_ {
    let mut rec = Record::default();
    text.lines().enumerate().filter_map(move |(i, line)| {
        let line = line.trim();
        (!line.is_empty()).then(|| (i + 1, JournalLine::read(&mut rec, line)))
    })
}

impl Recorder for MemoryRecorder {
    fn level(&self) -> ObsLevel {
        self.level
    }

    fn set_now(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    fn set_device(&mut self, device: Option<u32>) {
        self.device = device;
    }

    fn set_component(&mut self, component: Option<u32>) {
        self.component = component;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        if self.level >= ObsLevel::Metrics {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        if self.level >= ObsLevel::Metrics {
            self.gauges.insert(name, value);
        }
    }

    fn latency(&mut self, name: &'static str, us: u64) {
        if self.level >= ObsLevel::Metrics {
            self.hists.entry(name).or_default().record(us);
        }
    }

    fn event(&mut self, event: Event) {
        if self.level >= ObsLevel::Events {
            self.events.push(JournalEntry {
                t_us: self.now_us,
                device: self.device,
                component: self.component,
                event,
            });
        }
    }

    fn merge_histogram(&mut self, name: &'static str, hist: &Histogram) {
        if self.level >= ObsLevel::Metrics {
            self.hists.entry(name).or_default().merge(hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering() {
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Events);
        assert_eq!(ObsLevel::parse("events"), Some(ObsLevel::Events));
        assert_eq!(ObsLevel::parse("bogus"), None);
        assert_eq!(ObsLevel::Metrics.as_str(), "metrics");
    }

    #[test]
    fn noop_recorder_drops_everything() {
        let mut r = NoopRecorder;
        r.set_now(5);
        r.counter("x", 1);
        r.latency("y", 10);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        assert_eq!(r.level(), ObsLevel::Off);
        assert!(!r.events_on());
    }

    #[test]
    fn metrics_level_keeps_metrics_drops_events() {
        let mut r = MemoryRecorder::new(ObsLevel::Metrics);
        r.counter("a", 2);
        r.counter("a", 3);
        r.gauge("g", 1.5);
        r.latency("lat", 100);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        assert_eq!(r.counter_value("a"), 5);
        assert_eq!(r.gauges()["g"], 1.5);
        assert_eq!(r.histogram("lat").unwrap().count(), 1);
        assert!(r.journal().is_empty());
        assert!(!r.events_on());
    }

    #[test]
    fn events_level_stamps_time_and_device() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(42);
        r.set_device(Some(3));
        r.event(Event::QueueDepth { osd: 3, depth: 7 });
        r.set_device(None);
        r.set_now(50);
        r.event(Event::RemapUpdate { object: 1, dest: 2 });
        let j = r.journal();
        assert_eq!(j.len(), 2);
        assert_eq!((j[0].t_us, j[0].device), (42, Some(3)));
        assert_eq!((j[1].t_us, j[1].device), (50, None));
        assert_eq!(r.count_kind("queue_depth"), 1);
    }

    #[test]
    fn off_level_memory_recorder_records_nothing() {
        let mut r = MemoryRecorder::new(ObsLevel::Off);
        r.counter("a", 1);
        r.latency("l", 1);
        r.event(Event::QueueDepth { osd: 0, depth: 0 });
        assert!(r.counters().is_empty());
        assert!(r.journal().is_empty());
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(10);
        r.event(Event::GcInvoked {
            free_blocks: 1,
            low_watermark: 2,
            high_watermark: 4,
        });
        r.counter("ftl.block_erases", 9);
        r.gauge("trigger.rsd", 0.25);
        r.latency("response_us", 1234);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for l in &lines {
            json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"));
        }
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("t_us").unwrap().as_u64(), Some(10));
        assert_eq!(first.get("kind").unwrap().as_str(), Some("gc_invoked"));
    }

    #[test]
    fn component_scope_stamps_entries_and_serializes() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(7);
        r.set_component(Some(1));
        r.event(Event::QueueDepth { osd: 4, depth: 2 });
        r.set_component(None);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        let j = r.journal();
        assert_eq!(j[0].component, Some(1));
        assert_eq!(j[1].component, None);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Canonical order within a timestamp: untagged first, then by
        // component id — the second emission serializes first.
        assert!(lines[0].contains("\"osd\":0"), "{text}");
        assert!(!lines[0].contains("\"comp\""), "{text}");
        assert!(lines[1].contains("\"comp\":1"), "{text}");
    }

    #[test]
    fn canonical_sort_is_stable_within_buckets() {
        // Two recorders with the same per-(t, component) subsequences but
        // different interleavings must serialize byte-identically.
        let fill = |order: &[(u64, Option<u32>, u32)]| {
            let mut r = MemoryRecorder::new(ObsLevel::Events);
            for &(t, comp, osd) in order {
                r.set_now(t);
                r.set_component(comp);
                r.event(Event::QueueDepth {
                    osd,
                    depth: osd as u64,
                });
            }
            let mut buf = Vec::new();
            r.write_jsonl(&mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };
        let sequential = fill(&[
            (5, None, 0),
            (5, Some(0), 1),
            (5, Some(1), 3),
            (5, Some(0), 2),
            (9, Some(1), 4),
        ]);
        let sharded = fill(&[
            (5, None, 0),
            (5, Some(0), 1),
            (5, Some(0), 2),
            (5, Some(1), 3),
            (9, Some(1), 4),
        ]);
        assert_eq!(sequential, sharded);
        // Within (5, Some(0)) insertion order is preserved: osd 1 before 2.
        let pos1 = sequential.find("\"osd\":1").unwrap();
        let pos2 = sequential.find("\"osd\":2").unwrap();
        assert!(pos1 < pos2);
    }

    #[test]
    fn read_jsonl_reads_back_what_write_jsonl_wrote() {
        let mut r = MemoryRecorder::new(ObsLevel::Events);
        r.set_now(7);
        r.set_component(Some(1));
        r.set_device(Some(2));
        r.event(Event::BlockErase {
            block: 3,
            erase_count: 1,
            moved_pages: 0,
        });
        // Its own `osd` field is not a device scope.
        r.set_device(None);
        r.event(Event::OpDequeue { osd: 4, depth: 0 });
        r.set_component(None);
        r.event(Event::QueueDepth { osd: 0, depth: 1 });
        r.counter("c", 3);
        r.gauge("g", -0.5);
        r.latency("lat", 100);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let read: Vec<(usize, JournalLine)> = read_jsonl(&text)
            .map(|(no, line)| (no, line.unwrap()))
            .collect();
        let mut want: Vec<JournalLine> = r
            .canonical_journal()
            .into_iter()
            .map(|e| JournalLine::Event(e.clone()))
            .collect();
        let (p50, p95, p99, max) = r.hists["lat"].summary();
        want.extend([
            JournalLine::Counter("c".into(), 3),
            JournalLine::Gauge("g".into(), -0.5),
            JournalLine::Hist("lat".into(), [1, p50, p95, p99, max]),
        ]);
        let numbers: Vec<usize> = read.iter().map(|&(no, _)| no).collect();
        assert_eq!(numbers, (1..=want.len()).collect::<Vec<_>>());
        let lines: Vec<JournalLine> = read.into_iter().map(|(_, line)| line).collect();
        assert_eq!(lines, want);
    }

    #[test]
    fn read_jsonl_rejects_with_typed_errors_and_skips_blank_lines() {
        let cases = [
            ("not json", None),
            ("{\"t_us\":1}", Some(LineError::Envelope("kind"))),
            (
                "{\"kind\":\"queue_depth\",\"osd\":0,\"depth\":0}",
                Some(LineError::Envelope("t_us")),
            ),
            (
                "{\"t_us\":1,\"osd\":4294967296,\"kind\":\"queue_depth\",\"osd\":0,\"depth\":0}",
                Some(LineError::Envelope("osd")),
            ),
            (
                "{\"t_us\":1,\"comp\":-1,\"kind\":\"queue_depth\",\"osd\":0,\"depth\":0}",
                Some(LineError::Envelope("comp")),
            ),
            ("{\"kind\":\"counter\",\"name\":\"x\"}", None),
            ("{\"kind\":\"hist\",\"name\":\"x\",\"count\":1}", None),
            (
                "{\"t_us\":1,\"kind\":\"trigger_eval\",\"policy\":\"CMT\"}",
                None,
            ),
            ("{\"t_us\":1,\"kind\":\"no_such_event\"}", None),
        ];
        for (line, want) in cases {
            let text = format!("\n  \n{line}\n");
            let read: Vec<_> = read_jsonl(&text).collect();
            assert_eq!(read.len(), 1, "{line}");
            let (no, got) = &read[0];
            assert_eq!(*no, 3, "{line}");
            let err = got.clone().expect_err(line);
            match want {
                Some(want) => assert_eq!(err, want, "{line}"),
                None => assert!(
                    matches!(err, LineError::Json(_) | LineError::Malformed(..)),
                    "{line}: {err}"
                ),
            }
        }
    }
}
