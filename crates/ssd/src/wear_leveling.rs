//! Device-internal wear leveling.
//!
//! EDM balances wear *across* SSDs; inside each SSD the FTL must spread
//! erases across blocks, or a hot block hits its P/E limit while its
//! neighbours are fresh. The paper (and our lifetime projection in
//! `edm-core`) assumes the device does this. Two standard mechanisms:
//!
//! * **Dynamic**: when the GC or the host needs a fresh block, take the
//!   *least-worn* free block (the wear-ordered free pool below; every
//!   device levels dynamically).
//! * **Static**: when the erase-count spread exceeds
//!   `FtlConfig::static_threshold`, relocate long-lived cold data from the
//!   least-worn blocks so they re-enter circulation (hooked into the GC
//!   path by the FTL).
//!
//! This module provides the bookkeeping: a wear-ordered free pool and the
//! spread trigger.

use std::collections::BTreeSet;

use edm_snap::snapshot_struct;

/// The free-block pool of dynamic wear leveling: hands out the
/// least-worn erased block, ties broken by block id.
#[derive(Debug, Clone)]
pub struct FreePool {
    /// Wear order: (erase_count, block).
    by_wear: BTreeSet<(u64, u32)>,
}

impl FreePool {
    /// A pool of fresh (never erased) blocks.
    pub fn new(blocks: impl IntoIterator<Item = u32>) -> Self {
        // One insert at a time: `collect` bulk-builds the set through a
        // sorted `Vec`, which raised `journal_verify`'s peak RSS by 36 MiB.
        let mut pool = FreePool {
            by_wear: BTreeSet::new(),
        };
        for b in blocks {
            pool.push(b, 0);
        }
        pool
    }

    pub fn len(&self) -> usize {
        self.by_wear.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_wear.is_empty()
    }

    /// Returns the least-worn free block (ties by block id).
    pub fn pop(&mut self) -> Option<u32> {
        self.by_wear.pop_first().map(|(_, b)| b)
    }

    /// Returns an erased block to the pool with its current wear.
    pub fn push(&mut self, block: u32, erase_count: u64) {
        self.by_wear.insert((erase_count, block));
    }

    pub fn contains(&self, block: u32) -> bool {
        self.by_wear.iter().any(|&(_, b)| b == block)
    }

    /// Iterates over the pool's blocks in wear order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_wear.iter().map(|&(_, b)| b)
    }
}

/// Incremental erase-count spread: a histogram over counts with cached
/// min/max, updated in O(1) per erase. Replaces scanning every block's
/// erase count on each GC collection to evaluate the static-leveling
/// trigger.
#[derive(Debug, Clone)]
pub struct SpreadTracker {
    /// `hist[c]` = number of blocks whose erase count is `c`.
    hist: Vec<u64>,
    min: u64,
    max: u64,
}

impl SpreadTracker {
    /// All `blocks` start at erase count 0.
    pub fn new(blocks: u32) -> Self {
        SpreadTracker {
            hist: vec![blocks as u64],
            min: 0,
            max: 0,
        }
    }

    /// Records one erase of a block whose count was `old` (now `old + 1`).
    pub fn record_erase(&mut self, old: u64) {
        let new = old + 1;
        if self.hist.len() as u64 <= new {
            self.hist.resize(new as usize + 1, 0);
        }
        self.hist[old as usize] -= 1;
        self.hist[new as usize] += 1;
        if new > self.max {
            self.max = new;
        }
        // The bucket at `new` is non-empty, so this terminates at or
        // before `max`.
        while self.hist[self.min as usize] == 0 {
            self.min += 1;
        }
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Same trigger as [`static_leveling_due`], from the cached extremes.
    pub fn due(&self, threshold: u64) -> bool {
        threshold != 0 && self.max - self.min > threshold
    }
}

// The wear-ordered set round-trips through its sorted iteration.
snapshot_struct!(FreePool { by_wear });

snapshot_struct!(
    SpreadTracker { hist, min, max },
    check = "spread tracker": |t| {
        if t.min > t.max || t.max as usize >= t.hist.len().max(1) {
            return Err("extremes out of histogram range".into());
        }
        Ok(())
    }
);

/// Static-leveling trigger: true when the per-block erase spread warrants
/// relocating cold data off the least-worn blocks.
pub fn static_leveling_due(erase_counts: &[u64], threshold: u64) -> bool {
    if threshold == 0 || erase_counts.is_empty() {
        return false;
    }
    #[expect(
        clippy::expect_used,
        reason = "geometry validation guarantees at least one block"
    )]
    let max = erase_counts.iter().copied().max().expect("non-empty");
    #[expect(
        clippy::expect_used,
        reason = "geometry validation guarantees at least one block"
    )]
    let min = erase_counts.iter().copied().min().expect("non-empty");
    max - min > threshold
}

/// Spread statistics of per-block erase counts (for reporting and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSpread {
    pub min: u64,
    pub max: u64,
    pub mean: f64,
}

pub fn wear_spread(erase_counts: &[u64]) -> WearSpread {
    if erase_counts.is_empty() {
        return WearSpread {
            min: 0,
            max: 0,
            mean: 0.0,
        };
    }
    WearSpread {
        #[expect(
            clippy::expect_used,
            reason = "geometry validation guarantees at least one block"
        )]
        min: erase_counts.iter().copied().min().expect("non-empty"),
        #[expect(
            clippy::expect_used,
            reason = "geometry validation guarantees at least one block"
        )]
        max: erase_counts.iter().copied().max().expect("non-empty"),
        mean: erase_counts.iter().sum::<u64>() as f64 / erase_counts.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_pool_hands_out_least_worn() {
        let mut p = FreePool::new([]);
        p.push(1, 50);
        p.push(2, 3);
        p.push(3, 10);
        assert_eq!(p.pop(), Some(2), "least worn first");
        assert_eq!(p.pop(), Some(3));
        assert_eq!(p.pop(), Some(1));
    }

    #[test]
    fn dynamic_pool_ties_break_by_block_id() {
        let mut p = FreePool::new([]);
        p.push(7, 4);
        p.push(2, 4);
        assert_eq!(p.pop(), Some(2));
        assert_eq!(p.pop(), Some(7));
    }

    #[test]
    fn static_trigger_fires_on_wide_spread() {
        assert!(!static_leveling_due(&[5, 6, 7], 32));
        assert!(static_leveling_due(&[0, 40], 32));
        assert!(!static_leveling_due(&[0, 40], 0), "0 disables");
        assert!(!static_leveling_due(&[], 32));
    }

    #[test]
    fn spread_statistics() {
        let s = wear_spread(&[2, 8, 5]);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(wear_spread(&[]).max, 0);
    }

    #[test]
    fn contains_tracks_membership() {
        let mut p = FreePool::new([1]);
        assert!(p.contains(1));
        p.pop();
        assert!(!p.contains(1));
    }

    #[test]
    fn spread_tracker_matches_full_scan() {
        // Drive both the tracker and a brute-force recount with the same
        // erase sequence; min/max/due must agree at every step.
        let mut counts = vec![0u64; 8];
        let mut t = SpreadTracker::new(8);
        let mut x = 42u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = (x >> 33) as usize % counts.len();
            t.record_erase(counts[b]);
            counts[b] += 1;
            let min = *counts.iter().min().unwrap();
            let max = *counts.iter().max().unwrap();
            assert_eq!(t.min(), min);
            assert_eq!(t.max(), max);
            for threshold in [0, 1, 8, 32] {
                assert_eq!(t.due(threshold), static_leveling_due(&counts, threshold));
            }
        }
    }

    #[test]
    fn spread_tracker_initial_state() {
        let t = SpreadTracker::new(16);
        assert_eq!(t.min(), 0);
        assert_eq!(t.max(), 0);
        assert!(!t.due(1));
        assert!(!t.due(0));
    }
}
