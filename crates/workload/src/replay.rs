//! Client assignment for trace replay.
//!
//! The paper replays each trace from multiple load-generating clients:
//! "all trace records of multiple users are evenly assigned to each
//! client" (§V.A). This module partitions a trace's records by user onto a
//! fixed number of clients, preserving per-user record order.

use crate::trace::Trace;

/// The records of one replay client, as indices into `trace.records`,
/// in replay order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientScript {
    pub client: u32,
    /// Indices into the trace's record vector, ascending.
    pub record_indices: Vec<usize>,
}

/// Partitions the trace's records across `clients` replayers: users are
/// assigned to clients round-robin in order of appearance, and each client
/// replays its users' records in trace order.
///
/// # Panics
/// Panics if `clients == 0`.
pub fn assign_clients(trace: &Trace, clients: u32) -> Vec<ClientScript> {
    assert!(clients > 0, "need at least one client");
    let mut user_to_client = std::collections::HashMap::new();
    let mut next = 0u32;
    let mut scripts: Vec<ClientScript> = (0..clients)
        .map(|c| ClientScript {
            client: c,
            record_indices: Vec::new(),
        })
        .collect();
    for (i, r) in trace.records.iter().enumerate() {
        let c = *user_to_client.entry(r.user).or_insert_with(|| {
            let c = next;
            next = (next + 1) % clients;
            c
        });
        scripts[c as usize].record_indices.push(i);
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvard;
    use crate::synth::synthesize;

    fn small_trace() -> Trace {
        synthesize(&harvard::spec("deasna").scaled(0.002))
    }

    /// Max client record count over the mean; 1.0 is perfectly even.
    fn imbalance(scripts: &[ClientScript]) -> f64 {
        let counts: Vec<usize> = scripts.iter().map(|s| s.record_indices.len()).collect();
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
        let scripts = assign_clients(&t, 8);
        let mut seen = vec![false; t.records.len()];
        for s in &scripts {
            for &i in &s.record_indices {
                assert!(!seen[i], "record {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "record left unassigned");
    }

    #[test]
    fn per_client_order_is_trace_order() {
        let t = small_trace();
        for s in assign_clients(&t, 4) {
            for w in s.record_indices.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn same_user_stays_on_same_client() {
        let t = small_trace();
        let scripts = assign_clients(&t, 4);
        let mut user_client = std::collections::HashMap::new();
        for s in &scripts {
            for &i in &s.record_indices {
                let u = t.records[i].user;
                let prev = user_client.insert(u, s.client);
                if let Some(prev) = prev {
                    assert_eq!(prev, s.client, "user {u} split across clients");
                }
            }
        }
    }

    #[test]
    fn assignment_is_roughly_even() {
        let t = small_trace();
        let scripts = assign_clients(&t, 8);
        let imb = imbalance(&scripts);
        assert!(imb < 2.0, "imbalance {imb}");
    }

    #[test]
    fn single_client_gets_everything() {
        let t = small_trace();
        let scripts = assign_clients(&t, 1);
        assert_eq!(scripts.len(), 1);
        assert_eq!(scripts[0].record_indices.len(), t.records.len());
        assert!((imbalance(&scripts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_empty_scripts() {
        let t = Trace::new("empty");
        let scripts = assign_clients(&t, 3);
        assert!(scripts.iter().all(|s| s.record_indices.is_empty()));
        assert_eq!(imbalance(&scripts), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_panics() {
        assign_clients(&Trace::new("x"), 0);
    }
}
