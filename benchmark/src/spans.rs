//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls into each layer, from outside the
//! program (spans inside the crates are a later issue). They are kept in
//! memory and written out when the workload ends. Every timed region of
//! the benchmark goes through [`Tracer::begin`]/[`Tracer::end`], traced
//! or not, so the traced and the untraced run execute the same driver
//! code; only a recording tracer keeps what it timed.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Tracer::spans`]; spans of one
/// pass of one workload share `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: String,
}

/// A hot call site aggregated as count + summed time instead of one span
/// per call (the policy's `on_access` runs once per object I/O).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    pub name: String,
    pub calls: u64,
    pub sum_ns: u64,
    pub parent: Option<usize>,
    pub id: String,
}

/// Handle of a span that has begun; give it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Open {
    /// Index of the span in the trace, when the tracer records.
    pub fn index(&self) -> Option<usize> {
        self.index
    }
}

pub struct Tracer {
    epoch: Instant,
    record: bool,
    id: String,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(record: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            record,
            id: String::new(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant span offsets count from; helpers that time calls on
    /// their own (the policy wrapper) share it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the `workload/pass` identifier stamped on subsequent spans.
    pub fn set_id(&mut self, id: String) {
        self.id = id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts a span nested in whatever span is open.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let index = self.record.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: ns_between(self.epoch, start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                id: self.id.clone(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Ends the innermost span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(index),
                "spans must end innermost first"
            );
            self.spans[index].end_ns = ns_between(self.epoch, end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &str, call: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = call();
        (value, self.end(open))
    }

    /// Adds spans a helper timed on its own as children of `parent`.
    pub fn adopt(&mut self, parent: Option<usize>, name: &str, intervals: &[(u64, u64)]) {
        if !self.record {
            return;
        }
        for &(start_ns, end_ns) in intervals {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                id: self.id.clone(),
            });
        }
    }

    /// Adds a count + sum aggregate under `parent`.
    pub fn aggregate(&mut self, parent: Option<usize>, name: &str, calls: u64, sum_ns: u64) {
        if self.record {
            self.aggregates.push(Aggregate {
                name: name.to_string(),
                calls,
                sum_ns,
                parent,
                id: self.id.clone(),
            });
        }
    }

    /// Self time of span `index`: its duration minus the part of that
    /// interval its child spans and aggregates cover.
    pub fn self_time_ns(&self, index: usize) -> u64 {
        let aggregated: u64 = self
            .aggregates
            .iter()
            .filter(|a| a.parent == Some(index))
            .map(|a| a.sum_ns)
            .sum();
        self_time_ns(&self.spans, index).saturating_sub(aggregated)
    }

    /// Writes the trace as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host monotonic, ns since benchmark start\",\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"index\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":\"{}\",\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                json_index(s.parent),
                s.id,
                self.self_time_ns(i)
            );
        }
        out.push_str("\n],\"aggregates\":[");
        for (i, a) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"calls\":{},\"sum_ns\":{},\"parent\":{},\"id\":\"{}\"}}",
                a.name,
                a.calls,
                a.sum_ns,
                json_index(a.parent),
                a.id
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

fn json_index(index: Option<usize>) -> String {
    index.map_or("null".to_string(), |i| i.to_string())
}

/// Nanoseconds from `epoch` to `at`.
pub fn ns_between(epoch: Instant, at: Instant) -> u64 {
    at.duration_since(epoch).as_nanos() as u64
}

/// Duration of `spans[index]` minus the union of its children's
/// intervals, each clipped to the parent (children may overlap each
/// other when they ran on different threads).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_unstable();
    let mut total = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            id: "t/0".to_string(),
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span("run", 100, 1100, None),
            span("plan", 200, 400, Some(0)),
            // Overlaps the first child: the shared 100 ns count once.
            span("plan", 300, 600, Some(0)),
            // Sticks out of the parent: clipped to it.
            span("tick", 1000, 1500, Some(0)),
            // A grandchild covers nothing of the grandparent directly.
            span("inner", 250, 350, Some(1)),
            // Someone else's child.
            span("other", 0, 5000, None),
        ];
        // 1000 − (200..600 = 400) − (1000..1100 = 100) = 500
        assert_eq!(self_time_ns(&spans, 0), 500);
        assert_eq!(self_time_ns(&spans, 1), 100);
        assert_eq!(self_time_ns(&spans, 4), 100);
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let spans = vec![span("a", 10, 30, None), span("b", 0, 100, Some(0))];
        assert_eq!(self_time_ns(&spans, 1), 100);
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn tracer_nests_and_attributes() {
        let mut t = Tracer::new(true);
        t.set_id("w/1".into());
        let outer = t.begin("outer");
        let ((), inner_s) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.adopt(outer.index(), "adopted", &[(0, 0)]);
        t.aggregate(outer.index(), "hot", 10, 1);
        let outer_s = t.end(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.002);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].id, "w/1");
        let inner_ns = spans[1].end_ns - spans[1].start_ns;
        let outer_ns = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(t.self_time_ns(0), outer_ns - inner_ns - 1);
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("x");
        assert_eq!(open.index(), None);
        t.adopt(open.index(), "y", &[(1, 2)]);
        t.aggregate(open.index(), "z", 1, 1);
        assert!(t.end(open) >= 0.0);
        assert!(t.spans().is_empty());
        assert!(t.aggregates.is_empty());
    }
}
