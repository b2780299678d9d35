//! Trace synthesizer.
//!
//! We do not have the raw Harvard NFS traces the paper replays, so this
//! module generates synthetic traces that (a) hit the aggregate numbers of
//! Table 1 exactly for op counts and within a small tolerance for mean
//! sizes, and (b) reproduce the properties EDM exploits: Zipf-skewed file
//! popularity with distinct (partially overlapping) read-hot and write-hot
//! sets, session-based temporal locality, sequential runs inside sessions
//! (spatial locality), and a heavily skewed file-size distribution.
//! See DESIGN.md §2 for the substitution rationale.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::op::{FileId, FileOp, TraceRecord};
use crate::spec::WorkloadSpec;
use crate::trace::Trace;
use crate::zipf::Zipf;

/// Mean simulated gap between consecutive trace records, µs.
const MEAN_GAP_US: u64 = 1_000;

/// Generates the trace described by `spec`. Deterministic: the same spec
/// (including its seed) always yields the identical trace.
pub fn synthesize(spec: &WorkloadSpec) -> Trace {
    #[expect(
        clippy::expect_used,
        reason = "constructor contract: callers pass validated workload specs"
    )]
    spec.validate().expect("invalid workload spec");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut trace = Trace::new(spec.name.clone());

    // Requests are sized uniformly in [avg/2, 3·avg/2]; files must be able
    // to hold the largest possible request.
    let max_req = (spec.avg_write_size.max(spec.avg_read_size)) * 3 / 2 + 1;
    let min_size = spec.file_sizes.min_bytes.max(max_req);
    let max_size = spec.file_sizes.max_bytes.max(min_size);

    // Log-uniform file sizes: heavily skewed, few large files hold most
    // bytes. Sessions look sizes up by file index in `sizes`.
    let mut sizes: Vec<u64> = Vec::with_capacity(spec.file_cnt as usize);
    for f in 0..spec.file_cnt {
        let size = log_uniform(&mut rng, min_size, max_size);
        trace.file_sizes.insert(FileId(f), size);
        sizes.push(size);
    }

    // Popularity: rank r of the write ordering maps to file write_perm[r].
    // The read ordering shares a `hot_overlap` fraction of assignments and
    // re-shuffles the rest, giving partially distinct read-hot and
    // write-hot sets (the asymmetry HDF exploits, §I).
    let n = spec.file_cnt as usize;
    let mut write_perm: Vec<u64> = (0..spec.file_cnt).collect();
    write_perm.shuffle(&mut rng);
    let mut read_perm = write_perm.clone();
    let reshuffled = ((1.0 - spec.skew.hot_overlap) * n as f64).round() as usize;
    if reshuffled > 1 {
        let mut positions: Vec<usize> = (0..n).collect();
        positions.shuffle(&mut rng);
        let chosen = &positions[..reshuffled];
        let mut vals: Vec<u64> = chosen.iter().map(|&p| read_perm[p]).collect();
        vals.shuffle(&mut rng);
        for (&p, &v) in chosen.iter().zip(&vals) {
            read_perm[p] = v;
        }
    }

    let write_zipf = Zipf::new(n, spec.skew.write_theta);
    let read_zipf = Zipf::new(n, spec.skew.read_theta);

    // Sessions on larger files run longer (more blocks to touch), which
    // couples a server's storage utilization to its I/O intensity — the
    // correlation §II of the paper observes ("servers with larger disk
    // usage ratio tend to have more write requests sent to them", §V.C).
    let geo_mean_size =
        (sizes.iter().map(|&s| (s.max(1) as f64).ln()).sum::<f64>() / n as f64).exp();
    let coupling = spec.skew.size_coupling;
    let size_factor = move |size: u64| -> f64 {
        if coupling == 0.0 {
            return 1.0;
        }
        (size as f64 / geo_mean_size).powf(coupling).clamp(0.5, 4.0)
    };

    let mut remaining_w = spec.write_cnt;
    let mut remaining_r = spec.read_cnt;
    let mut clock_us: u64 = 0;
    // Sequential cursor per file so sessions continue where the last one
    // on the same file stopped (spatial locality).
    let mut cursors: Vec<u64> = vec![0; n];

    // Temporal phases: the hot set drifts by rotating the popularity
    // permutations every `total_ops / phases` emitted data ops — the
    // temporal locality Definition 1's decay is built to follow.
    let total_ops = spec.write_cnt + spec.read_cnt;
    let phase_len = total_ops.div_ceil(spec.skew.phases as u64).max(1);
    let phase_rotation = n / spec.skew.phases.max(1) as usize;

    while remaining_w + remaining_r > 0 {
        let emitted = total_ops - remaining_w - remaining_r;
        let phase = (emitted / phase_len) as usize;
        let rotate = |rank: usize| (rank + phase * phase_rotation) % n;
        let total = (remaining_w + remaining_r) as f64;
        let is_write = rng.gen::<f64>() < remaining_w as f64 / total;
        let (zipf, perm, avg, remaining): (&Zipf, &Vec<u64>, u64, &mut u64) = if is_write {
            (
                &write_zipf,
                &write_perm,
                spec.avg_write_size,
                &mut remaining_w,
            )
        } else {
            (&read_zipf, &read_perm, spec.avg_read_size, &mut remaining_r)
        };
        let file_idx = perm[rotate(zipf.sample(&mut rng))] as usize;
        let file = FileId(file_idx as u64);
        let size = sizes[file_idx];
        let user = rng.gen_range(0..spec.users);
        let base_len = rng.gen_range(1..=(2.0 * WorkloadSpec::MEAN_SESSION_OPS) as u64 - 1);
        let session_len = ((base_len as f64 * size_factor(size)).round() as u64)
            .max(1)
            .min(*remaining);

        clock_us += exp_gap(&mut rng, MEAN_GAP_US);
        trace.records.push(TraceRecord {
            time_us: clock_us,
            user,
            file,
            op: FileOp::Open,
        });
        // Each session starts at a fresh position in the file and runs
        // sequentially from there (NFS clients read/write runs at
        // arbitrary offsets); the inter-session jumps interleave data
        // from many sessions in the same flash blocks, which is what
        // fragments GC victims on real SSDs.
        cursors[file_idx] = if size > 1 { rng.gen_range(0..size) } else { 0 };
        for _ in 0..session_len {
            let len = rng.gen_range(avg / 2..=avg * 3 / 2).clamp(1, size);
            let mut offset = cursors[file_idx];
            if offset + len > size {
                offset = 0;
            }
            cursors[file_idx] = offset + len;
            clock_us += exp_gap(&mut rng, MEAN_GAP_US);
            let op = if is_write {
                FileOp::Write { offset, len }
            } else {
                FileOp::Read { offset, len }
            };
            trace.records.push(TraceRecord {
                time_us: clock_us,
                user,
                file,
                op,
            });
        }
        *remaining -= session_len;
        clock_us += exp_gap(&mut rng, MEAN_GAP_US);
        trace.records.push(TraceRecord {
            time_us: clock_us,
            user,
            file,
            op: FileOp::Close,
        });
    }

    debug_assert!(trace.validate().is_ok());
    trace
}

/// Log-uniformly distributed integer in `[min, max]`.
fn log_uniform(rng: &mut StdRng, min: u64, max: u64) -> u64 {
    if min == max {
        return min;
    }
    let (lo, hi) = ((min as f64).ln(), (max as f64).ln());
    let v = (rng.gen::<f64>() * (hi - lo) + lo).exp();
    (v as u64).clamp(min, max)
}

/// Exponentially distributed gap with the given mean, at least 1 µs.
fn exp_gap(rng: &mut StdRng, mean_us: u64) -> u64 {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    ((-u.ln()) * mean_us as f64).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FileSizeModel, SkewProfile};

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "synthetic".into(),
            file_cnt: 200,
            write_cnt: 5_000,
            avg_write_size: 8_048,
            read_cnt: 12_000,
            avg_read_size: 8_191,
            skew: SkewProfile::MODERATE,
            file_sizes: FileSizeModel::DEFAULT,
            users: 16,
            seed: 42,
        }
    }

    #[test]
    fn counts_match_spec_exactly() {
        let t = synthesize(&spec());
        let s = t.stats();
        assert_eq!(s.file_cnt, 200);
        assert_eq!(s.write_cnt, 5_000);
        assert_eq!(s.read_cnt, 12_000);
        assert!(s.open_cnt > 0);
        assert_eq!(s.open_cnt, s.close_cnt);
    }

    #[test]
    fn mean_sizes_match_within_tolerance() {
        let t = synthesize(&spec());
        let s = t.stats();
        let werr = (s.avg_write_size as f64 - 8_048.0).abs() / 8_048.0;
        let rerr = (s.avg_read_size as f64 - 8_191.0).abs() / 8_191.0;
        assert!(werr < 0.02, "write size error {werr}");
        assert!(rerr < 0.02, "read size error {rerr}");
    }

    #[test]
    fn trace_is_wellformed() {
        synthesize(&spec()).validate().unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(synthesize(&spec()), synthesize(&spec()));
        let mut other = spec();
        other.seed += 1;
        assert_ne!(synthesize(&spec()), synthesize(&other));
    }

    #[test]
    fn writes_are_zipf_skewed() {
        let t = synthesize(&spec());
        let mut per_file = std::collections::HashMap::new();
        for r in &t.records {
            if r.op.is_write() {
                *per_file.entry(r.file).or_insert(0u64) += 1;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "counts are sorted on the next line"
        )]
        let mut counts: Vec<u64> = per_file.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10 % of written files should carry well over 10 % of writes.
        let top = counts.iter().take(counts.len() / 10).sum::<u64>();
        let all: u64 = counts.iter().sum();
        assert!(
            top as f64 / all as f64 > 0.3,
            "top decile carried only {top}/{all} writes"
        );
    }

    #[test]
    fn uniform_skew_is_not_skewed() {
        let mut s = spec();
        s.skew = SkewProfile::UNIFORM;
        let t = synthesize(&s);
        let mut per_file = std::collections::HashMap::new();
        for r in &t.records {
            if r.op.is_write() {
                *per_file.entry(r.file).or_insert(0u64) += 1;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "counts are sorted on the next line"
        )]
        let mut counts: Vec<u64> = per_file.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top = counts.iter().take(counts.len() / 10).sum::<u64>();
        let all: u64 = counts.iter().sum();
        let share = top as f64 / all as f64;
        assert!(share < 0.25, "uniform workload showed skew: {share}");
    }

    #[test]
    fn hot_overlap_controls_rw_correlation() {
        // For a given overlap, measure |top-20 write-hot ∩ top-20 read-hot|.
        let intersection = |overlap: f64| -> usize {
            let mut s = spec();
            s.skew.hot_overlap = overlap;
            s.skew.write_theta = 1.2;
            s.skew.read_theta = 1.2;
            let t = synthesize(&s);
            let top20 = |want_write: bool| -> std::collections::HashSet<FileId> {
                let mut m = std::collections::HashMap::new();
                for r in &t.records {
                    if r.op.is_write() == want_write
                        && !matches!(r.op, FileOp::Open | FileOp::Close)
                    {
                        *m.entry(r.file).or_insert(0u64) += 1;
                    }
                }
                let mut v: Vec<(FileId, u64)> = m.into_iter().collect();
                v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
                v.into_iter().take(20).map(|(f, _)| f).collect()
            };
            top20(true).intersection(&top20(false)).count()
        };
        assert!(
            intersection(1.0) > intersection(0.0),
            "full overlap must correlate hot sets more than zero overlap"
        );
    }

    #[test]
    fn phases_rotate_the_hot_set() {
        let hot_file = |phases: u32, half: u8| -> FileId {
            let mut sp = spec();
            sp.skew.phases = phases;
            sp.skew.write_theta = 1.3;
            // Size coupling stretches sessions of large files, which can
            // blur which file collects the most write records; this test
            // is about phase rotation, so isolate it.
            sp.skew.size_coupling = 0.0;
            let t = synthesize(&sp);
            // Count writes per file in the chosen half of the record
            // stream.
            let mid = t.records.len() / 2;
            let slice = if half == 0 {
                &t.records[..mid]
            } else {
                &t.records[mid..]
            };
            let mut m = std::collections::HashMap::new();
            for r in slice {
                if r.op.is_write() {
                    *m.entry(r.file).or_insert(0u64) += 1;
                }
            }
            m.into_iter()
                .max_by_key(|&(_, c)| c)
                .expect("writes exist")
                .0
        };
        // Stationary popularity: the same file tops both halves.
        assert_eq!(hot_file(1, 0), hot_file(1, 1));
        // Two phases: the hot set rotates between halves.
        assert_ne!(hot_file(2, 0), hot_file(2, 1));
    }

    #[test]
    fn phased_spec_still_hits_counts() {
        let mut sp = spec();
        sp.skew.phases = 4;
        let t = synthesize(&sp);
        assert_eq!(t.stats().write_cnt, sp.write_cnt);
        assert_eq!(t.stats().read_cnt, sp.read_cnt);
        t.validate().unwrap();
    }

    #[test]
    fn timestamps_strictly_ordered_and_positive() {
        let t = synthesize(&spec());
        assert!(t.records[0].time_us > 0);
        for w in t.records.windows(2) {
            assert!(w[0].time_us <= w[1].time_us);
        }
    }

    #[test]
    fn tiny_spec_still_works() {
        let s = WorkloadSpec {
            name: "tiny".into(),
            file_cnt: 1,
            write_cnt: 1,
            avg_write_size: 4096,
            read_cnt: 0,
            avg_read_size: 0,
            skew: SkewProfile::UNIFORM,
            file_sizes: FileSizeModel::DEFAULT,
            users: 1,
            seed: 0,
        };
        let t = synthesize(&s);
        assert_eq!(t.stats().write_cnt, 1);
        t.validate().unwrap();
    }
}
