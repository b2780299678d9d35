//! Run metrics: aggregate throughput (Fig. 5), windowed mean response
//! time (Fig. 7), and per-OSD wear summaries (Fig. 1, Fig. 6).

use edm_obs::{Histogram, Recorder};
use edm_snap::{SnapReader, SnapWriter, Snapshot};

use edm_workload::Trace;

use crate::cluster::Cluster;

/// Mean response time of file operations completed in one reporting
/// window (Fig. 7 plots one point per 3-minute window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseWindow {
    /// Window start, µs of virtual time.
    pub start_us: u64,
    pub completed_ops: u64,
    pub mean_response_us: f64,
}

/// Accumulates response times into fixed-width windows.
#[derive(Debug, Clone)]
pub struct ResponseSeries {
    window_us: u64,
    /// (sum of response times, count) per window index.
    buckets: Vec<(f64, u64)>,
}

impl ResponseSeries {
    /// Hard cap on the number of windows. A single op completing at a
    /// huge virtual time used to resize the vector to its window index —
    /// an unbounded (potentially multi-GiB) allocation; ops past the cap
    /// now fold into the last window instead.
    pub const MAX_WINDOWS: usize = 1 << 16;

    /// Windows are grown in chunks of this many entries so a long quiet
    /// tail costs one resize, not one per window.
    const GROW_CHUNK: usize = 1024;

    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0);
        ResponseSeries {
            window_us,
            buckets: Vec::new(),
        }
    }

    /// Records one completed file op.
    pub fn record(&mut self, completion_us: u64, response_us: u64) {
        // Clamp in u64 before the usize cast: completion_us / window_us
        // can exceed usize::MAX on 32-bit targets.
        let idx = (completion_us / self.window_us).min((Self::MAX_WINDOWS - 1) as u64) as usize;
        if idx >= self.buckets.len() {
            let len = (idx + 1)
                .next_multiple_of(Self::GROW_CHUNK)
                .min(Self::MAX_WINDOWS);
            self.buckets.resize(len, (0.0, 0));
        }
        self.buckets[idx].0 += response_us as f64;
        self.buckets[idx].1 += 1;
    }

    /// Folds another series' buckets into this one, index by index. Used
    /// by the group-sharded runner to reassemble the global series from
    /// per-shard fragments. Response times are integer microseconds and
    /// per-bucket sums stay far below 2^53, so the f64 additions are
    /// exact and the merged series is bit-identical to the sequential one
    /// regardless of merge order.
    pub fn merge_from(&mut self, other: &ResponseSeries) {
        assert_eq!(
            self.window_us, other.window_us,
            "cannot merge response series with different window widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), (0.0, 0));
        }
        for (dst, &(sum, n)) in self.buckets.iter_mut().zip(&other.buckets) {
            dst.0 += sum;
            dst.1 += n;
        }
    }

    /// Finished series, one point per window (empty windows yield a point
    /// with zero ops and zero mean, keeping the time axis regular). The
    /// chunked-growth slack past the last recorded window is not
    /// reported, so the series ends at the last completion as before.
    pub fn windows(&self) -> Vec<ResponseWindow> {
        let used = self
            .buckets
            .iter()
            .rposition(|&(_, n)| n > 0)
            .map_or(0, |i| i + 1);
        self.buckets[..used]
            .iter()
            .enumerate()
            .map(|(i, &(sum, n))| ResponseWindow {
                start_us: i as u64 * self.window_us,
                completed_ops: n,
                mean_response_us: if n > 0 { sum / n as f64 } else { 0.0 },
            })
            .collect()
    }
}

impl Snapshot for ResponseSeries {
    fn save(&self, w: &mut SnapWriter) {
        let Self { window_us, buckets } = self;
        w.put_u64(*window_us);
        buckets.save(w);
    }
    fn load(r: &mut SnapReader) -> Self {
        let window_us = r.take_u64();
        if window_us == 0 {
            r.corrupt("response series window must be positive");
            return ResponseSeries {
                window_us: 1,
                buckets: Vec::new(),
            };
        }
        let buckets = Vec::load(r);
        if buckets.len() > Self::MAX_WINDOWS {
            r.corrupt("response series exceeds its window cap");
        }
        ResponseSeries { window_us, buckets }
    }
}

/// Wear summary of one OSD at the end of a run (Fig. 1's two panels).
#[derive(Debug, Clone)]
pub struct OsdWearSummary {
    pub osd: u32,
    pub erase_count: u64,
    pub write_pages: u64,
    pub gc_page_moves: u64,
    pub utilization: f64,
    /// Total device-busy time of the OSD over the run, µs (service time
    /// including GC stalls); identifies the bottleneck device.
    pub busy_us: u64,
    /// Deepest request queue observed at this OSD during the run.
    pub peak_queue_depth: u64,
}

/// Everything a simulation run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub trace: String,
    pub policy: String,
    pub osds: u32,
    /// Completed file operations (open/close/read/write all count; the
    /// paper measures "the number of completed file operations", §V.B).
    pub completed_ops: u64,
    /// Virtual duration of the replay, µs.
    pub duration_us: u64,
    /// Mean response time over the whole run, µs.
    pub mean_response_us: f64,
    /// Response-time percentiles over the whole run, µs: (p50, p95, p99),
    /// by [`Histogram::quantile`] (nearest rank, bucket upper edge, never
    /// above the slowest response).
    pub response_percentiles_us: (u64, u64, u64),
    /// Windowed response-time series (Fig. 7).
    pub response_windows: Vec<ResponseWindow>,
    /// Per-OSD wear at end of run (Fig. 1).
    pub per_osd: Vec<OsdWearSummary>,
    /// Objects moved by migration (Fig. 8), counted per move action.
    pub moved_objects: u64,
    /// Distinct objects with remapping entries at end of run (§III.C).
    pub remap_entries: u64,
    /// Total objects in the cluster.
    pub total_objects: u64,
    /// Number of migration rounds that actually fired.
    pub migrations_triggered: u64,
    /// OSDs that failed during the run (injected, §III.D experiments).
    pub failed_osds: Vec<u32>,
    /// Sub-operations served in degraded RAID-5 mode.
    pub degraded_ops: u64,
    /// Sub-operations that hit unrecoverable (multi-failure) data loss.
    pub lost_ops: u64,
    /// Lost objects reconstructed onto surviving group members.
    pub rebuilt_objects: u64,
}

impl RunReport {
    /// Aggregate throughput in file operations per second of virtual time
    /// (Fig. 5's y-axis).
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.duration_us == 0 {
            return 0.0;
        }
        self.completed_ops as f64 / (self.duration_us as f64 / 1e6)
    }

    /// Cluster-wide aggregate erase count (Fig. 6's y-axis).
    pub fn aggregate_erases(&self) -> u64 {
        self.per_osd.iter().map(|o| o.erase_count).sum()
    }

    /// Cluster-wide host page writes.
    pub fn aggregate_write_pages(&self) -> u64 {
        self.per_osd.iter().map(|o| o.write_pages).sum()
    }

    /// Relative standard deviation of per-OSD erase counts — the imbalance
    /// metric of §III.B.2.
    pub fn erase_rsd(&self) -> f64 {
        rsd(self.per_osd.iter().map(|o| o.erase_count as f64))
    }

    /// Fraction of all objects that were moved (Fig. 8's labels).
    pub fn moved_fraction(&self) -> f64 {
        if self.total_objects == 0 {
            return 0.0;
        }
        self.moved_objects as f64 / self.total_objects as f64
    }
}

/// Relative standard deviation (σ/mean) of a sequence; 0 for empty or
/// zero-mean input.
pub fn rsd(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let n = values.clone().count();
    if n == 0 {
        return 0.0;
    }
    let mean = values.clone().sum::<f64>() / n as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    var.sqrt() / mean
}

/// Everything a replay engine counts toward its [`RunReport`]. The
/// sequential engine holds one; a group-sharded run holds one per shard
/// and sums them ([`merge_from`](Self::merge_from)) — every field merges
/// order-independently (integer-valued f64 sums far below 2^53, bucket
/// counts, and per-OSD slots only their owning shard ever touches), so
/// the summed report is bit-identical to the sequential one.
#[derive(Debug, Clone)]
pub(crate) struct RunTallies {
    pub responses: ResponseSeries,
    /// Every client response time, µs: its count is the completed-op
    /// count, its quantiles [`RunReport::response_percentiles_us`], and
    /// it is what [`publish`](Self::publish) hands the recorder as
    /// its `response_us` histogram.
    pub response_hist: Histogram,
    /// Time of the last request or move completion — the replay duration.
    /// Deliberately not advanced by wear ticks: a trailing tick must not
    /// inflate the measured duration.
    pub last_completion_us: u64,
    pub migrations_triggered: u64,
    pub moved_objects: u64,
    pub degraded_ops: u64,
    pub lost_ops: u64,
    pub rebuilt_objects: u64,
    /// Accumulated service time per OSD (overhead + device, incl. GC).
    pub busy_us: Vec<u64>,
    /// Deepest queue ever observed per OSD.
    pub peak_queue_depth: Vec<u64>,
    /// OSDs that have failed so far.
    pub failed: Vec<bool>,
}

impl RunTallies {
    pub fn new(osds: usize, response_window_us: u64) -> Self {
        RunTallies {
            responses: ResponseSeries::new(response_window_us),
            response_hist: Histogram::new(),
            last_completion_us: 0,
            migrations_triggered: 0,
            moved_objects: 0,
            degraded_ops: 0,
            lost_ops: 0,
            rebuilt_objects: 0,
            busy_us: vec![0; osds],
            peak_queue_depth: vec![0; osds],
            failed: vec![false; osds],
        }
    }

    /// Adds one shard's tallies. A shard never services, queues on, or
    /// fails an OSD outside its component, so its foreign per-OSD slots
    /// still hold their initial zero/false and sum/max/or are exact.
    pub fn merge_from(&mut self, other: &RunTallies) {
        self.responses.merge_from(&other.responses);
        self.response_hist.merge(&other.response_hist);
        self.last_completion_us = self.last_completion_us.max(other.last_completion_us);
        self.migrations_triggered += other.migrations_triggered;
        self.moved_objects += other.moved_objects;
        self.degraded_ops += other.degraded_ops;
        self.lost_ops += other.lost_ops;
        self.rebuilt_objects += other.rebuilt_objects;
        for (dst, &busy) in self.busy_us.iter_mut().zip(&other.busy_us) {
            *dst += busy;
        }
        for (dst, &peak) in self
            .peak_queue_depth
            .iter_mut()
            .zip(&other.peak_queue_depth)
        {
            *dst = (*dst).max(peak);
        }
        for (dst, &failed) in self.failed.iter_mut().zip(&other.failed) {
            *dst |= failed;
        }
    }

    /// Hands `obs` the facts these tallies own, once, at the end of a run
    /// (or of a shard merge): completed ops, finished moves and rebuilds,
    /// failed devices and the `response_us` histogram, and with them the
    /// wear `cluster`'s devices count ([`Cluster::publish_wear`]). A zero
    /// count or an empty histogram is not written: a trailer names only
    /// what happened.
    pub fn publish(self, cluster: &Cluster, obs: &mut dyn Recorder) {
        let failures = self.failed.iter().filter(|&&f| f).count() as u64;
        for (name, n) in [
            ("sim.ops_completed", self.response_hist.count()),
            ("sim.moved_objects", self.moved_objects),
            ("sim.rebuilds_finished", self.rebuilt_objects),
            ("sim.device_failures", failures),
        ] {
            if n > 0 {
                obs.counter(name, n);
            }
        }
        if !self.response_hist.is_empty() {
            obs.merge_histogram("response_us", self.response_hist);
        }
        cluster.publish_wear(obs);
    }

    /// End-of-run invariant check and report construction over the final
    /// state of `cluster`.
    pub fn report(&self, trace: &Trace, policy: &str, cluster: &Cluster) -> RunReport {
        let completed_ops = self.response_hist.count();
        assert_eq!(
            completed_ops,
            trace.records.len() as u64,
            "replay finished with unserved records"
        );
        let per_osd = cluster
            .osds
            .iter()
            .zip(self.busy_us.iter().zip(&self.peak_queue_depth))
            .map(|(o, (&busy_us, &peak_queue_depth))| {
                let wear = o.ssd().wear();
                OsdWearSummary {
                    osd: o.id.0,
                    erase_count: wear.block_erases,
                    write_pages: wear.host_page_writes,
                    gc_page_moves: wear.gc_page_moves,
                    utilization: o.utilization(),
                    busy_us,
                    peak_queue_depth,
                }
            })
            .collect();
        RunReport {
            trace: trace.name.clone(),
            policy: policy.to_string(),
            osds: cluster.config.osds,
            completed_ops,
            duration_us: self.last_completion_us,
            // The window sums are integer µs far below 2^53: exact.
            mean_response_us: if completed_ops > 0 {
                self.responses.buckets.iter().map(|b| b.0).sum::<f64>() / completed_ops as f64
            } else {
                0.0
            },
            response_percentiles_us: (
                self.response_hist.quantile(0.50),
                self.response_hist.quantile(0.95),
                self.response_hist.quantile(0.99),
            ),
            response_windows: self.responses.windows(),
            per_osd,
            moved_objects: self.moved_objects,
            remap_entries: cluster.catalog.remap().len() as u64,
            total_objects: cluster.catalog.total_objects(),
            migrations_triggered: self.migrations_triggered,
            failed_osds: (0..cluster.config.osds)
                .filter(|&i| self.failed[i as usize])
                .collect(),
            degraded_ops: self.degraded_ops,
            lost_ops: self.lost_ops,
            rebuilt_objects: self.rebuilt_objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_series_buckets_by_window() {
        let mut s = ResponseSeries::new(100);
        s.record(10, 5);
        s.record(20, 15);
        s.record(250, 100);
        let w = s.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].completed_ops, 2);
        assert!((w[0].mean_response_us - 10.0).abs() < 1e-12);
        assert_eq!(w[1].completed_ops, 0);
        assert_eq!(w[1].mean_response_us, 0.0);
        assert_eq!(w[2].completed_ops, 1);
        assert_eq!(w[2].start_us, 200);
    }

    /// Regression: one late-completing op used to resize the window
    /// vector to its raw index — with a 1 µs window and a completion near
    /// u64::MAX, an allocation of ~3 × 10^20 buckets. The cap folds such
    /// ops into the last window instead.
    #[test]
    fn response_series_growth_is_capped() {
        let mut s = ResponseSeries::new(1);
        s.record(5, 2);
        s.record(u64::MAX, 7);
        let w = s.windows();
        assert_eq!(w.len(), ResponseSeries::MAX_WINDOWS);
        assert_eq!(w[5].completed_ops, 1);
        let last = w.last().unwrap();
        assert_eq!(last.completed_ops, 1);
        assert_eq!(last.mean_response_us, 7.0);
        // Both ops are accounted for.
        assert_eq!(w.iter().map(|x| x.completed_ops).sum::<u64>(), 2);
    }

    /// The chunked growth must not leak empty trailing windows into the
    /// reported series.
    #[test]
    fn response_series_reports_no_trailing_slack() {
        let mut s = ResponseSeries::new(100);
        s.record(50, 1);
        s.record(1_500, 1); // grows the vector by a whole chunk
        assert_eq!(s.windows().len(), 16);
        assert!(ResponseSeries::new(7).windows().is_empty());
    }

    #[test]
    fn throughput_is_ops_over_seconds() {
        let r = RunReport {
            trace: "t".into(),
            policy: "p".into(),
            osds: 4,
            completed_ops: 500,
            duration_us: 2_000_000,
            mean_response_us: 0.0,
            response_percentiles_us: (0, 0, 0),
            response_windows: vec![],
            per_osd: vec![],
            moved_objects: 0,
            remap_entries: 0,
            total_objects: 100,
            migrations_triggered: 0,
            failed_osds: vec![],
            degraded_ops: 0,
            lost_ops: 0,
            rebuilt_objects: 0,
        };
        assert!((r.throughput_ops_per_sec() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_sum_over_osds() {
        let mk = |osd, e, w| OsdWearSummary {
            osd,
            erase_count: e,
            write_pages: w,
            gc_page_moves: 0,
            utilization: 0.5,
            busy_us: 0,
            peak_queue_depth: 0,
        };
        let r = RunReport {
            trace: "t".into(),
            policy: "p".into(),
            osds: 2,
            completed_ops: 0,
            duration_us: 0,
            mean_response_us: 0.0,
            response_percentiles_us: (0, 0, 0),
            response_windows: vec![],
            per_osd: vec![mk(0, 10, 100), mk(1, 30, 300)],
            moved_objects: 5,
            remap_entries: 3,
            total_objects: 50,
            migrations_triggered: 1,
            failed_osds: vec![],
            degraded_ops: 0,
            lost_ops: 0,
            rebuilt_objects: 0,
        };
        assert_eq!(r.aggregate_erases(), 40);
        assert_eq!(r.aggregate_write_pages(), 400);
        assert!((r.moved_fraction() - 0.1).abs() < 1e-12);
        assert!(r.erase_rsd() > 0.0);
        assert_eq!(r.throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn rsd_of_uniform_is_zero() {
        assert_eq!(rsd([5.0, 5.0, 5.0].into_iter()), 0.0);
        assert_eq!(rsd(std::iter::empty()), 0.0);
        assert_eq!(rsd([0.0, 0.0].into_iter()), 0.0);
        let spread = rsd([1.0, 9.0].into_iter());
        assert!((spread - 0.8).abs() < 1e-12);
    }
}
