//! Run metrics: aggregate throughput (Fig. 5), windowed mean response
//! time (Fig. 7), and per-OSD wear summaries (Fig. 1, Fig. 6).

use edm_snap::{snapshot_struct, SnapReader, SnapWriter, Snapshot};

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

/// Log-scale latency histogram: ~5 % relative precision from 1 µs to
/// ~18 minutes in a fixed 512-bucket footprint, good enough for the
/// response-time percentiles a run reports.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// bucket i covers [floor^i, floor^(i+1)) µs with floor = 2^(1/16).
    buckets: Vec<u64>,
    count: u64,
    max_us: u64,
}

impl LatencyHistogram {
    const BUCKETS: usize = 512;
    /// 16 buckets per octave ⇒ ~4.4 % bucket width.
    const PER_OCTAVE: f64 = 16.0;

    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            max_us: 0,
        }
    }

    /// Bucket of `us`: `floor(16 · log2 us)`, capped at the last bucket.
    /// The octave is the position of the top bit; the bucket within it
    /// counts the octave's [`bucket_floors`] that `us` reaches, so no
    /// logarithm runs per sample.
    fn index(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        let base = (63 - us.leading_zeros() as usize) * 16;
        if base >= Self::BUCKETS {
            return Self::BUCKETS - 1;
        }
        let floors = &bucket_floors()[base + 1..base + 16];
        base + floors.iter().filter(|&&t| us >= t).count()
    }

    pub fn record(&mut self, us: u64) {
        self.buckets[Self::index(us)] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram into this one, bucket by bucket. Counts
    /// are integers, so the merge is exact and order-independent — the
    /// group-sharded runner relies on that for bit-identical reports.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (dst, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += n;
        }
        self.count += other.count;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Value at quantile `q` in [0, 1]; 0 when empty. Exact for the
    /// maximum (`q = 1`), bucket-resolution otherwise.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max_us;
        }
        let target = (q * self.count as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > target {
                // Upper edge of bucket i.
                return (2f64.powf((i + 1) as f64 / Self::PER_OCTAVE)) as u64;
            }
        }
        self.max_us
    }
}

/// The bucket formula, `floor(16 · log2 us)` in floating point. It
/// defines [`bucket_floors`], and so every bucket a report counts.
fn log_index(us: u64) -> usize {
    ((us as f64).log2() * LatencyHistogram::PER_OCTAVE) as usize
}

/// `floors[i]`: the smallest latency [`log_index`] puts in bucket `i` or
/// above. Derived once, from the exact edge `2^(i/16)` nudged until the
/// float formula agrees, so [`LatencyHistogram::index`] reproduces it bit
/// for bit.
fn bucket_floors() -> &'static [u64; LatencyHistogram::BUCKETS] {
    static FLOORS: std::sync::OnceLock<[u64; LatencyHistogram::BUCKETS]> =
        std::sync::OnceLock::new();
    FLOORS.get_or_init(|| {
        let mut floors = [0u64; LatencyHistogram::BUCKETS];
        for (i, floor) in floors.iter_mut().enumerate().skip(1) {
            let mut t = 2f64.powf(i as f64 / LatencyHistogram::PER_OCTAVE) as u64;
            while log_index(t) >= i {
                t -= 1;
            }
            while log_index(t) < i {
                t += 1;
            }
            *floor = t;
        }
        floors
    })
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
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

snapshot_struct!(
    LatencyHistogram { buckets, count, max_us },
    check = "latency histogram": |h| {
        if h.buckets.len() != LatencyHistogram::BUCKETS {
            return Err(format!("has {} buckets", h.buckets.len()));
        }
        if h.buckets.iter().sum::<u64>() != h.count {
            return Err("count disagrees with its buckets".into());
        }
        Ok(())
    }
);

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
    /// Response-time percentiles over the whole run, µs: (p50, p95, p99).
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
    pub response_hist: LatencyHistogram,
    pub response_sum: f64,
    pub completed_ops: u64,
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
            response_hist: LatencyHistogram::new(),
            response_sum: 0.0,
            completed_ops: 0,
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
        self.response_hist.merge_from(&other.response_hist);
        self.response_sum += other.response_sum;
        self.completed_ops += other.completed_ops;
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

    /// End-of-run invariant check and report construction over the final
    /// state of `cluster`.
    pub fn report(&self, trace: &Trace, policy: &str, cluster: &Cluster) -> RunReport {
        assert_eq!(
            self.completed_ops,
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
            completed_ops: self.completed_ops,
            duration_us: self.last_completion_us,
            mean_response_us: if self.completed_ops > 0 {
                self.response_sum / self.completed_ops as f64
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
    fn latency_histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        // ~5 % bucket resolution around the true median of 500.
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((930..=1100).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn latency_histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.quantile(0.1) <= 2);
    }

    /// The reference `index` must equal: `floor(16 · log2 us)` in
    /// floating point, capped.
    fn float_index(us: u64) -> usize {
        if us <= 1 {
            return 0;
        }
        log_index(us).min(LatencyHistogram::BUCKETS - 1)
    }

    #[test]
    fn bucket_index_equals_the_float_formula() {
        for &t in bucket_floors().iter() {
            for us in [t.saturating_sub(1), t, t + 1] {
                assert_eq!(LatencyHistogram::index(us), float_index(us), "us = {us}");
            }
        }
        // splitmix64, each draw shifted into every one of the 64 octaves.
        let mut state = 0x5eed_u64;
        for _ in 0..4096 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            for octave in 0..64 {
                let us = (z >> octave) | (1 << (63 - octave));
                assert_eq!(LatencyHistogram::index(us), float_index(us), "us = {us}");
            }
        }
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
