//! O(1) victim-candidate bookkeeping for the garbage collector.
//!
//! The FTL used to keep GC victim candidates in a
//! `BTreeSet<(valid, block)>`, paying two O(log n) tree operations on
//! every page invalidation (remove the old `(valid, block)` pair, insert
//! the decremented one) — and invalidation runs once per host overwrite
//! and once per trim, squarely on the hot path. A candidate's valid count
//! only ever moves down by one at a time and is bounded by the block's
//! page count, so an array of buckets indexed by valid count supports the
//! same queries with O(1) updates.
//!
//! Ordering contract: the tree iterated in ascending `(valid, block)`
//! order, and victim selection depends on that order. [`VictimBuckets`]
//! reproduces it where it matters: [`peek_min`](VictimBuckets::peek_min)
//! returns the minimum `(valid, block)` pair exactly as
//! `BTreeSet::iter().next()` did. Full iteration order is *not*
//! preserved (buckets are unordered internally); callers that scanned the
//! whole set resolve ties with an explicit total key instead, which picks
//! the same element the ordered scan did.

use edm_snap::{SnapReader, SnapWriter, Snapshot};

/// Victim-candidate set: full blocks bucketed by their valid-page count.
#[derive(Debug, Clone)]
pub struct VictimBuckets {
    /// `buckets[v]` = blocks with exactly `v` valid pages; unordered
    /// within a bucket (removal is `swap_remove`).
    buckets: Vec<Vec<u32>>,
    /// `slot[block]` = `(valid, index in buckets[valid])` while the block
    /// is a candidate.
    slot: Vec<Option<(u32, usize)>>,
    /// Lower bound on the smallest non-empty bucket; advanced lazily by
    /// `peek_min`, pulled back down by inserts and decrements.
    min_valid: usize,
    len: usize,
}

impl VictimBuckets {
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        VictimBuckets {
            buckets: vec![Vec::new(); pages_per_block as usize + 1],
            slot: vec![None; blocks as usize],
            min_valid: pages_per_block as usize + 1,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn contains(&self, block: u32) -> bool {
        self.slot[block as usize].is_some()
    }

    /// The valid count recorded for a candidate, `None` for non-members.
    pub fn valid_of(&self, block: u32) -> Option<u32> {
        self.slot[block as usize].map(|(v, _)| v)
    }

    pub fn insert(&mut self, block: u32, valid: u32) {
        debug_assert!(
            self.slot[block as usize].is_none(),
            "block {block} is already a candidate"
        );
        let bucket = &mut self.buckets[valid as usize];
        self.slot[block as usize] = Some((valid, bucket.len()));
        bucket.push(block);
        self.min_valid = self.min_valid.min(valid as usize);
        self.len += 1;
    }

    /// Removes a candidate, returning its recorded valid count.
    ///
    /// # Panics
    /// Panics if the block is not a candidate.
    pub fn remove(&mut self, block: u32) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "bucket invariant: a block is always removed from the bucket it was filed under"
        )]
        let (valid, pos) = self.slot[block as usize]
            .take()
            .expect("removing a non-candidate block");
        self.remove_at(valid, pos);
        self.len -= 1;
        valid
    }

    /// Moves a candidate down one bucket after a page invalidation.
    /// Returns false (and does nothing) if the block is not a candidate.
    pub fn decrement(&mut self, block: u32) -> bool {
        let Some((valid, pos)) = self.slot[block as usize].take() else {
            return false;
        };
        debug_assert!(valid > 0, "candidate block {block} has no valid pages");
        self.remove_at(valid, pos);
        let bucket = &mut self.buckets[valid as usize - 1];
        self.slot[block as usize] = Some((valid - 1, bucket.len()));
        bucket.push(block);
        self.min_valid = self.min_valid.min(valid as usize - 1);
        true
    }

    /// Takes `block` out of `buckets[valid][pos]` and patches the slot of
    /// whatever `swap_remove` moved into its place.
    fn remove_at(&mut self, valid: u32, pos: usize) {
        let bucket = &mut self.buckets[valid as usize];
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.slot[moved as usize] = Some((valid, pos));
        }
    }

    /// The minimum `(valid, block)` pair — the block with the fewest valid
    /// pages, ties broken by the lowest block id. `None` when empty.
    pub fn peek_min(&mut self) -> Option<(u32, u32)> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.min_valid].is_empty() {
            self.min_valid += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "pop only runs after the scan found this bucket non-empty"
        )]
        let block = self.buckets[self.min_valid]
            .iter()
            .copied()
            .min()
            .expect("bucket is non-empty");
        Some((self.min_valid as u32, block))
    }

    /// The candidates with exactly `valid` valid pages, in no particular
    /// order.
    pub fn members(&self, valid: u32) -> &[u32] {
        &self.buckets[valid as usize]
    }

    /// All candidates as `(valid, block)` pairs. Ascending by valid count;
    /// order within a valid count is unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .flat_map(|(v, b)| b.iter().map(move |&blk| (v as u32, blk)))
    }

    /// Structural self-check for tests and `check_invariants`: every
    /// bucket entry must agree with its slot, populations must match, and
    /// the min cursor must still be a lower bound.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (v, bucket) in self.buckets.iter().enumerate() {
            for (pos, &block) in bucket.iter().enumerate() {
                match self.slot.get(block as usize) {
                    Some(&Some((sv, sp))) if sv as usize == v && sp == pos => {}
                    other => {
                        return Err(format!(
                            "bucket {v}[{pos}] holds block {block} but its slot is {other:?}"
                        ))
                    }
                }
                seen += 1;
            }
        }
        if seen != self.len {
            return Err(format!("bucket population {seen} != len {}", self.len));
        }
        if let Some(true_min) = self.buckets.iter().position(|b| !b.is_empty()) {
            if self.min_valid > true_min {
                return Err(format!(
                    "min cursor {} is above the true minimum bucket {true_min}",
                    self.min_valid
                ));
            }
        }
        Ok(())
    }
}

/// How many candidates sit at each `(erase_count, valid)` pair — the
/// index static wear leveling picks its victim from. The least-worn
/// candidate with the fewest valid pages is the first non-zero count in
/// row-major order, so a pick costs a short scan of counts plus the
/// members of one [`VictimBuckets`] bucket instead of a walk over every
/// candidate block.
///
/// Derived state: a function of the candidate set and the blocks' erase
/// counts, never serialized — the FTL rebuilds it on load.
#[derive(Debug, Clone)]
pub struct WearIndex {
    /// Counts per wear row: one per valid count `0..=pages_per_block`.
    stride: usize,
    /// `counts[wear * stride + valid]`; grows by whole rows on demand.
    counts: Vec<u32>,
}

impl WearIndex {
    pub fn new(pages_per_block: u32) -> Self {
        WearIndex {
            stride: pages_per_block as usize + 1,
            counts: Vec::new(),
        }
    }

    /// The count at `(wear, valid)`, for the caller to bump where a
    /// candidate enters, leaves, or loses a valid page.
    pub fn count_mut(&mut self, wear: u64, valid: u32) -> &mut u32 {
        let at = wear as usize * self.stride + valid as usize;
        if self.counts.len() <= at {
            self.counts.resize((wear as usize + 1) * self.stride, 0);
        }
        &mut self.counts[at]
    }

    /// The minimum `(erase_count, valid)` pair over all candidates.
    /// `floor` is any lower bound on the candidates' erase counts (the
    /// device-wide minimum will do); rows below it are not scanned.
    pub fn lowest(&self, floor: u64) -> Option<(u64, u32)> {
        let from = (floor as usize * self.stride).min(self.counts.len());
        let at = from + self.counts[from..].iter().position(|&c| c != 0)?;
        Some(((at / self.stride) as u64, (at % self.stride) as u32))
    }

    /// True if both hold the same counts (row capacity aside).
    pub fn same_counts(&self, other: &WearIndex) -> bool {
        let at = |counts: &[u32], i: usize| counts.get(i).copied().unwrap_or(0);
        (0..self.counts.len().max(other.counts.len()))
            .all(|i| at(&self.counts, i) == at(&other.counts, i))
    }
}

impl Snapshot for VictimBuckets {
    /// Bucket contents are serialized exactly as stored — intra-bucket
    /// order is behaviour-relevant (`swap_remove` positions feed future
    /// slot updates), so a bit-identical restore must preserve it. The
    /// `slot` index is derivable and rebuilt on load.
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            slot,
            buckets,
            min_valid,
            len,
        } = self;
        w.put_u64(slot.len() as u64);
        buckets.save(w);
        w.put_u64(*min_valid as u64);
        w.put_u64(*len as u64);
    }
    fn load(r: &mut SnapReader) -> Self {
        let mut blocks = r.take_usize();
        // A corrupt count read outside a CRC-checked section must not
        // drive an unbounded allocation.
        if blocks > 1 << 24 {
            r.corrupt("implausible block count");
            blocks = 0;
        }
        let buckets = Vec::<Vec<u32>>::load(r);
        let min_valid = r.take_usize();
        let len = r.take_usize();
        let mut slot = vec![None; blocks];
        let mut seen = 0usize;
        for (v, bucket) in buckets.iter().enumerate() {
            for (pos, &block) in bucket.iter().enumerate() {
                match slot.get_mut(block as usize) {
                    Some(s @ None) => {
                        *s = Some((v as u32, pos));
                        seen += 1;
                    }
                    _ => r.corrupt("bucket entry out of range or duplicated"),
                }
            }
        }
        if seen != len {
            r.corrupt("bucket population disagrees with recorded len");
        }
        VictimBuckets {
            buckets,
            slot,
            min_valid,
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_peek_remove_roundtrip() {
        let mut v = VictimBuckets::new(8, 4);
        assert!(v.is_empty());
        assert_eq!(v.peek_min(), None);
        v.insert(3, 2);
        v.insert(5, 1);
        v.insert(1, 2);
        assert_eq!(v.len(), 3);
        assert_eq!(v.peek_min(), Some((1, 5)));
        assert_eq!(v.remove(5), 1);
        // Tie at valid = 2: lowest block id wins.
        assert_eq!(v.peek_min(), Some((2, 1)));
        assert!(v.contains(3));
        assert!(!v.contains(5));
        assert_eq!(v.valid_of(3), Some(2));
        v.check_consistency().unwrap();
    }

    #[test]
    fn decrement_moves_between_buckets() {
        let mut v = VictimBuckets::new(4, 4);
        v.insert(0, 4);
        assert!(v.decrement(0));
        assert_eq!(v.valid_of(0), Some(3));
        assert!(!v.decrement(2), "non-member is a no-op");
        assert_eq!(v.peek_min(), Some((3, 0)));
        v.check_consistency().unwrap();
    }

    #[test]
    fn matches_btreeset_semantics_under_random_churn() {
        // Drive the buckets and the original BTreeSet<(valid, block)> with
        // the same operation stream; peek_min must always equal the tree's
        // first element.
        let blocks = 32u32;
        let ppb = 8u32;
        let mut v = VictimBuckets::new(blocks, ppb);
        let mut tree: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut x = 0x1234_5678u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let block = ((x >> 33) % blocks as u64) as u32;
            match (x >> 29) % 3 {
                0 => {
                    if !v.contains(block) {
                        let valid = ((x >> 7) % (ppb as u64 + 1)) as u32;
                        v.insert(block, valid);
                        tree.insert((valid, block));
                    }
                }
                1 => {
                    if let Some(valid) = v.valid_of(block) {
                        if valid > 0 {
                            v.decrement(block);
                            tree.remove(&(valid, block));
                            tree.insert((valid - 1, block));
                        }
                    }
                }
                _ => {
                    if v.contains(block) {
                        let valid = v.remove(block);
                        assert!(tree.remove(&(valid, block)));
                    }
                }
            }
            assert_eq!(v.len(), tree.len());
            let tree_min = tree.iter().next().copied();
            assert_eq!(v.peek_min(), tree_min);
            let ours: BTreeSet<(u32, u32)> = v.iter().collect();
            assert_eq!(ours, tree);
        }
        v.check_consistency().unwrap();
    }
}
