//! Client assignment for trace replay.
//!
//! The paper replays each trace from multiple load-generating clients:
//! "all trace records of multiple users are evenly assigned to each
//! client" (§V.A). This module partitions a trace's records by user onto a
//! fixed number of clients, preserving per-user record order.

use edm_snap::IdMap;

use crate::op::TraceRecord;
use crate::trace::Trace;

/// Partitions the trace's records across `clients` replayers: users are
/// assigned to clients round-robin in order of appearance. Yields every
/// record with its client, in trace order, so each client replays its
/// users' records in trace order.
///
/// # Panics
/// Panics if `clients == 0`.
pub fn assign_clients(
    trace: &Trace,
    clients: u32,
) -> impl Iterator<Item = (u32, &TraceRecord)> + '_ {
    assert!(clients > 0, "need at least one client");
    let mut user_to_client: IdMap<u32, u32> = IdMap::default();
    let mut next = 0u32;
    trace.records.iter().map(move |r| {
        let c = *user_to_client.entry(r.user).or_insert_with(|| {
            let c = next;
            next = (next + 1) % clients;
            c
        });
        (c, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvard;
    use crate::synth::synthesize;

    fn small_trace() -> Trace {
        synthesize(&harvard::spec("deasna").scaled(0.002))
    }

    /// Each client's record indices, ascending.
    fn scripts(trace: &Trace, clients: u32) -> Vec<Vec<usize>> {
        let mut scripts = vec![Vec::new(); clients as usize];
        for (i, (c, _)) in assign_clients(trace, clients).enumerate() {
            scripts[c as usize].push(i);
        }
        scripts
    }

    /// Max client record count over the mean; 1.0 is perfectly even.
    fn imbalance(scripts: &[Vec<usize>]) -> f64 {
        let counts: Vec<usize> = scripts.iter().map(|s| s.len()).collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        max as f64 / (total as f64 / counts.len() as f64)
    }

    #[test]
    fn every_record_assigned_exactly_once() {
        let t = small_trace();
        let scripts = scripts(&t, 8);
        let mut seen = vec![false; t.records.len()];
        for s in &scripts {
            for &i in s {
                assert!(!seen[i], "record {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "record left unassigned");
    }

    #[test]
    fn per_client_order_is_trace_order() {
        let t = small_trace();
        for s in scripts(&t, 4) {
            for w in s.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn same_user_stays_on_same_client() {
        let t = small_trace();
        let mut user_client = std::collections::HashMap::new();
        for (client, r) in assign_clients(&t, 4) {
            let prev = user_client.insert(r.user, client);
            if let Some(prev) = prev {
                assert_eq!(prev, client, "user {} split across clients", r.user);
            }
        }
    }

    #[test]
    fn assignment_is_roughly_even() {
        let t = small_trace();
        let imb = imbalance(&scripts(&t, 8));
        assert!(imb < 2.0, "imbalance {imb}");
    }

    #[test]
    fn single_client_gets_everything() {
        let t = small_trace();
        let scripts = scripts(&t, 1);
        assert_eq!(scripts.len(), 1);
        assert_eq!(scripts[0].len(), t.records.len());
        assert!((imbalance(&scripts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_empty_scripts() {
        let t = Trace::new("empty");
        let scripts = scripts(&t, 3);
        assert!(scripts.iter().all(|s| s.is_empty()));
        assert_eq!(imbalance(&scripts), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        let _ = assign_clients(&Trace::new("x"), 0);
    }
}
