//! Differential property tests: the calendar queue must reproduce the
//! reference `BinaryHeap` order exactly — including `(time, seq)`
//! tie-breaks — under arbitrary interleavings of pushes and pops, and its
//! canonical sorted export must round-trip losslessly (the checkpoint
//! path).

use edm_cluster::equeue::{CalendarQueue, EventQueue};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted operation: push a delta/payload, or pop.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `last_pop_time + delta` (keeps time monotone like the engine).
    Push {
        delta: u64,
        item: u32,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..5_000, any::<u32>()).prop_map(|(delta, item)| Op::Push { delta, item }),
        1 => (100_000_000u64..200_000_000, any::<u32>())
            .prop_map(|(delta, item)| Op::Push { delta, item }),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_matches_heap_under_any_interleaving(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut cal = CalendarQueue::new();
        // The reference: a plain binary min-heap over (at, seq, item).
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Push { delta, item } => {
                    seq += 1;
                    cal.push(now + delta, seq, item);
                    heap.push(Reverse((now + delta, seq, item)));
                }
                Op::Pop => {
                    let a = cal.pop();
                    let b = heap.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(a, b);
                    if let Some((at, _, _)) = a {
                        now = at;
                    }
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain whatever is left: tails must agree element-for-element.
        loop {
            let a = cal.pop();
            let b = heap.pop().map(|Reverse(e)| e);
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn equal_times_break_ties_by_seq(n in 1usize..64, at in 0u64..1_000_000) {
        let mut cal = CalendarQueue::new();
        for seq in 0..n as u64 {
            cal.push(at, seq, seq as u32);
        }
        for want in 0..n as u64 {
            prop_assert_eq!(cal.pop(), Some((at, want, want as u32)));
        }
        prop_assert!(cal.pop().is_none());
    }

    #[test]
    fn sorted_export_roundtrips_queue_state(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut cal = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Push { delta, item } => {
                    seq += 1;
                    cal.push(now + delta, seq, item);
                }
                Op::Pop => {
                    if let Some((at, _, _)) = cal.pop() {
                        now = at;
                    }
                }
            }
        }
        // Export ascending (snapshot encoding), rebuild, and compare the
        // full pop order against the original.
        let exported = cal.to_sorted_vec();
        prop_assert!(exported.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut rebuilt = CalendarQueue::new();
        for &(at, s, item) in &exported {
            rebuilt.push(at, s, item);
        }
        loop {
            let a = cal.pop();
            let b = rebuilt.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
