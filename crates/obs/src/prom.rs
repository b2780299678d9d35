//! Prometheus text-format rendering of a [`MemoryRecorder`].
//!
//! The daemon's `/metrics` endpoint serves this directly: counters
//! become `_total` counters, gauges stay gauges, and the latency
//! histograms become cumulative-bucket histograms with one row per
//! non-empty octave (`le` is the octave's inclusive upper bound
//! `2^k − 1`, so at most 65 rows; the histogram's 16 sub-buckets per
//! octave stay internal). There is no `_sum` series because the
//! histogram deliberately does not keep one — `_max` is exported as a
//! companion gauge instead.
//!
//! Output is deterministic: metric families render in BTree name order
//! and every name is sanitized to the Prometheus charset by mapping
//! `.`, `-`, and any other non-alphanumeric byte to `_`.

use crate::recorder::MemoryRecorder;

/// Prefix stamped on every exported metric family.
const PREFIX: &str = "edm_";

/// Maps a recorder metric name (`sim.ops_completed`) to a Prometheus
/// metric name body (`sim_ops_completed`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The octave edge `2^k − 1` at or above `v`: the `le` of its row.
fn octave_edge(v: u64) -> u64 {
    u64::MAX.checked_shr(v.leading_zeros()).unwrap_or(0)
}

/// Renders the recorder's counters, gauges, and histograms in the
/// Prometheus exposition text format (version 0.0.4).
pub fn render_prometheus(rec: &MemoryRecorder) -> String {
    let mut out = String::new();
    for (name, value) in rec.counters() {
        let m = format!("{PREFIX}{}_total", sanitize(name));
        out.push_str(&format!("# TYPE {m} counter\n{m} {value}\n"));
    }
    for (name, value) in rec.gauges() {
        let m = format!("{PREFIX}{}", sanitize(name));
        out.push_str(&format!("# TYPE {m} gauge\n{m} {value}\n"));
    }
    for (name, hist) in rec.histograms() {
        let m = format!("{PREFIX}{}", sanitize(name));
        out.push_str(&format!("# TYPE {m} histogram\n"));
        let mut rows = hist.nonzero_buckets().into_iter().peekable();
        let mut cumulative = 0u64;
        while let Some((_lo, hi, n)) = rows.next() {
            cumulative += n;
            let le = octave_edge(hi);
            // Buckets never straddle an octave edge: an octave's row
            // follows its last non-empty bucket.
            if rows.peek().map(|&(_, next, _)| octave_edge(next)) != Some(le) {
                out.push_str(&format!("{m}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!(
            "{m}_bucket{{le=\"+Inf\"}} {}\n{m}_count {}\n{m}_max {}\n",
            hist.count(),
            hist.count(),
            hist.max()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{ObsLevel, Recorder};

    #[test]
    fn sanitize_maps_punctuation() {
        assert_eq!(sanitize("sim.ops_completed"), "sim_ops_completed");
        assert_eq!(sanitize("a-b.c"), "a_b_c");
    }

    #[test]
    fn renders_counters_gauges_histograms() {
        let mut r = MemoryRecorder::new(ObsLevel::Metrics);
        r.counter("sim.ops_completed", 41);
        r.counter("sim.ops_completed", 1);
        r.gauge("trigger.rsd", 0.25);
        // Rows are cumulative, one per non-empty octave: 700 and 900
        // share octave [512, 1023] but not a bucket.
        r.latency("response_us", 3);
        r.latency("response_us", 3);
        r.latency("response_us", 700);
        r.latency("response_us", 900);
        assert_eq!(
            render_prometheus(&r),
            "# TYPE edm_sim_ops_completed_total counter\n\
             edm_sim_ops_completed_total 42\n\
             # TYPE edm_trigger_rsd gauge\n\
             edm_trigger_rsd 0.25\n\
             # TYPE edm_response_us histogram\n\
             edm_response_us_bucket{le=\"3\"} 2\n\
             edm_response_us_bucket{le=\"1023\"} 4\n\
             edm_response_us_bucket{le=\"+Inf\"} 4\n\
             edm_response_us_count 4\n\
             edm_response_us_max 900\n"
        );
    }

    #[test]
    fn empty_recorder_renders_empty() {
        let r = MemoryRecorder::new(ObsLevel::Metrics);
        assert_eq!(render_prometheus(&r), "");
    }

    #[test]
    fn deterministic_output() {
        let fill = || {
            let mut r = MemoryRecorder::new(ObsLevel::Metrics);
            r.counter("b", 2);
            r.counter("a", 1);
            r.gauge("z", 9.0);
            render_prometheus(&r)
        };
        assert_eq!(fill(), fill());
        // Name order, not insertion order.
        let text = fill();
        assert!(text.find("edm_a_total").unwrap() < text.find("edm_b_total").unwrap());
    }
}
