//! Workload analysis: the skew and locality statistics that determine how
//! much EDM can help (§II ties wear variance to write skew; §III.B.4's
//! HDF/CDF split rides on the divergence between the read-hot and
//! write-hot sets).

use std::collections::{BTreeMap, HashMap};

use crate::op::{FileId, FileOp};
use crate::trace::Trace;

/// Skew and locality profile measured from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Gini coefficient of per-file write bytes (0 = uniform, →1 = all
    /// writes on one file).
    pub write_gini: f64,
    /// Gini coefficient of per-file read bytes.
    pub read_gini: f64,
    /// Share of write bytes carried by the top 10 % of written files.
    pub write_top_decile_share: f64,
    /// Share of read bytes carried by the top 10 % of read files.
    pub read_top_decile_share: f64,
    /// Jaccard overlap between the top-10 % write-hot and read-hot file
    /// sets — low overlap is what makes HDF ≠ CDF worthwhile.
    pub hot_set_overlap: f64,
    /// Pearson correlation between file size and file write bytes — the
    /// §II coupling between storage utilization and write intensity.
    pub size_write_correlation: f64,
    /// Fraction of data ops that continue sequentially from the previous
    /// op on the same file (spatial locality).
    pub sequential_fraction: f64,
}

/// Per-file byte tallies, in file-id order: `profile` feeds them to
/// float sums, whose bits must not depend on a per-process hash order.
fn per_file_bytes(trace: &Trace, want_write: bool) -> BTreeMap<FileId, u64> {
    let mut m = BTreeMap::new();
    for r in &trace.records {
        let add = match r.op {
            FileOp::Write { len, .. } if want_write => len,
            FileOp::Read { len, .. } if !want_write => len,
            _ => continue,
        };
        *m.entry(r.file).or_insert(0) += add;
    }
    m
}

/// Gini coefficient of a set of non-negative values (0 for uniform or
/// empty input).
pub fn gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<u64> = values.to_vec();
    v.sort_unstable();
    let n = v.len() as f64;
    let total: u64 = v.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // G = (2·Σ i·x_i) / (n·Σ x) − (n+1)/n  with 1-based ranks on sorted x.
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

/// Share of the total carried by the largest `fraction` of values.
pub fn top_share(values: &[u64], fraction: f64) -> f64 {
    assert!((0.0..=1.0).contains(&fraction));
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<u64> = values.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = v.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((v.len() as f64 * fraction).ceil() as usize).max(1);
    v[..k].iter().sum::<u64>() as f64 / total as f64
}

/// Jaccard similarity of the top-`fraction` hot sets of two tallies.
fn hot_overlap(a: &BTreeMap<FileId, u64>, b: &BTreeMap<FileId, u64>, fraction: f64) -> f64 {
    let top = |m: &BTreeMap<FileId, u64>| -> std::collections::HashSet<FileId> {
        let mut v: Vec<(FileId, u64)> = m.iter().map(|(&f, &x)| (f, x)).collect();
        v.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        let k = ((v.len() as f64 * fraction).ceil() as usize).max(1);
        v.into_iter().take(k).map(|(f, _)| f).collect()
    };
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (ta, tb) = (top(a), top(b));
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    if union == 0.0 {
        0.0
    } else {
        inter / union
    }
}

/// Pearson correlation of two equal-length samples (0 when degenerate).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Measures the full profile of a trace.
pub fn profile(trace: &Trace) -> WorkloadProfile {
    let writes = per_file_bytes(trace, true);
    let reads = per_file_bytes(trace, false);
    let wv: Vec<u64> = writes.values().copied().collect();
    let rv: Vec<u64> = reads.values().copied().collect();

    // Size ↔ write-bytes correlation over files that were written.
    let (sizes, wbytes): (Vec<f64>, Vec<f64>) = writes
        .iter()
        .map(|(f, &w)| (trace.file_sizes[f] as f64, w as f64))
        .unzip();

    // Sequentiality: op continues where the previous op on the file ended.
    let mut cursor: HashMap<FileId, u64> = HashMap::new();
    let mut seq = 0u64;
    let mut data_ops = 0u64;
    for r in &trace.records {
        if let FileOp::Read { offset, len } | FileOp::Write { offset, len } = r.op {
            data_ops += 1;
            if cursor.get(&r.file) == Some(&offset) {
                seq += 1;
            }
            cursor.insert(r.file, offset + len);
        }
    }

    WorkloadProfile {
        write_gini: gini(&wv),
        read_gini: gini(&rv),
        write_top_decile_share: top_share(&wv, 0.1),
        read_top_decile_share: top_share(&rv, 0.1),
        hot_set_overlap: hot_overlap(&writes, &reads, 0.1),
        size_write_correlation: pearson(&sizes, &wbytes),
        sequential_fraction: if data_ops == 0 {
            0.0
        } else {
            seq as f64 / data_ops as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvard;
    use crate::synth::synthesize;

    #[test]
    fn gini_bounds_and_known_values() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5]), 0.0);
        assert!(gini(&[1, 1, 1, 1]).abs() < 1e-12);
        // All mass on one of four: G = (n-1)/n = 0.75.
        assert!((gini(&[0, 0, 0, 8]) - 0.75).abs() < 1e-12);
        let skewed = gini(&[1, 2, 4, 100]);
        assert!(skewed > 0.5 && skewed < 1.0);
    }

    #[test]
    fn top_share_examples() {
        assert_eq!(top_share(&[], 0.1), 0.0);
        assert!((top_share(&[10, 1, 1, 1, 1, 1, 1, 1, 1, 1], 0.1) - 10.0 / 19.0).abs() < 1e-12);
        assert_eq!(top_share(&[0, 0], 0.5), 0.0);
    }

    #[test]
    fn pearson_known_values() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn skewed_trace_profiles_as_skewed() {
        let t = synthesize(&harvard::spec("home02").scaled(0.01));
        let p = profile(&t);
        assert!(p.write_gini > 0.5, "home02 writes should be skewed: {p:?}");
        assert!(
            p.write_top_decile_share > 0.3,
            "top decile carries the head: {p:?}"
        );
        // Size coupling is on for the Harvard presets.
        assert!(p.size_write_correlation > 0.1, "{p:?}");
        // Sessions are sequential inside.
        assert!(p.sequential_fraction > 0.3, "{p:?}");
    }

    #[test]
    fn profile_bits_do_not_depend_on_hash_order() {
        // Every `HashMap::new()` draws fresh hash keys, so two calls in
        // one process already see two iteration orders.
        let t = synthesize(&harvard::spec("home02").scaled(0.01));
        let (a, b) = (profile(&t), profile(&t));
        let bits = |p: &WorkloadProfile| {
            [
                p.write_gini,
                p.read_gini,
                p.write_top_decile_share,
                p.read_top_decile_share,
                p.hot_set_overlap,
                p.size_write_correlation,
                p.sequential_fraction,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn uniform_trace_profiles_as_uniform() {
        let t = synthesize(&harvard::random_spec().scaled(0.01));
        let p = profile(&t);
        let s = synthesize(&harvard::spec("lair62").scaled(0.01));
        let ps = profile(&s);
        assert!(
            p.write_gini < ps.write_gini,
            "random {p:?} must be flatter than lair62 {ps:?}"
        );
        assert!(p.write_top_decile_share < ps.write_top_decile_share);
    }

    #[test]
    fn hot_overlap_reflects_spec_knob() {
        let mut high = harvard::spec("deasna").scaled(0.01);
        high.skew.hot_overlap = 1.0;
        let mut low = high.clone();
        low.skew.hot_overlap = 0.0;
        low.seed ^= 1;
        let ph = profile(&synthesize(&high));
        let pl = profile(&synthesize(&low));
        assert!(
            ph.hot_set_overlap > pl.hot_set_overlap,
            "overlap knob should move the measured overlap: {} vs {}",
            ph.hot_set_overlap,
            pl.hot_set_overlap
        );
    }
}
