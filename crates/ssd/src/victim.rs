//! O(1) victim-candidate bookkeeping for the garbage collector.
//!
//! The FTL used to keep GC victim candidates in a
//! `BTreeSet<(valid, block)>`, paying two O(log n) tree operations on
//! every page invalidation (remove the old `(valid, block)` pair, insert
//! the decremented one) — and invalidation runs once per host overwrite
//! and once per trim, squarely on the hot path. A candidate's valid count
//! only ever moves down by one at a time and is bounded by the block's
//! page count, so one block-id bitset per valid count supports the same
//! queries with O(1) updates: a decrement clears one bit and sets another.
//!
//! Ordering contract: every query is in ascending block id within a valid
//! count, as the tree's `(valid, block)` order was.
//! [`peek_min`](VictimBuckets::peek_min) is the first set bit of the
//! lowest non-empty bucket — exactly `BTreeSet::iter().next()` — and
//! [`members`](VictimBuckets::members) / [`iter`](VictimBuckets::iter)
//! walk the bits upward, so "the lowest matching block" is the first one
//! found. The set is a function of its members alone: no insertion
//! history survives in it or in its snapshot.

use edm_snap::{SnapReader, SnapWriter, Snapshot};

/// Victim-candidate set: full blocks bucketed by their valid-page count,
/// each bucket a two-level bitset over block ids.
#[derive(Debug, Clone)]
pub struct VictimBuckets {
    /// `valid[block]` = the block's recorded valid count while it is a
    /// candidate.
    valid: Vec<Option<u32>>,
    /// Words per bucket in `bits`: one bit per block.
    stride: usize,
    /// `bits[v * stride + w]` bit `i` is set iff block `64 w + i` is a
    /// candidate with exactly `v` valid pages.
    bits: Vec<u64>,
    /// Words per bucket in `summary`: one bit per word of `bits`.
    summary_stride: usize,
    /// `summary[v * summary_stride + s]` bit `i` is set iff word
    /// `64 s + i` of bucket `v` is non-zero.
    summary: Vec<u64>,
    /// `count[v]` = candidates with exactly `v` valid pages.
    count: Vec<u32>,
    /// Lower bound on the smallest non-empty bucket; advanced lazily by
    /// `peek_min`, pulled back down by inserts and decrements.
    min_valid: usize,
    len: usize,
}

/// Positions of the set bits of `words`, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i * 64 + bit
            })
        })
    })
}

impl VictimBuckets {
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        let buckets = pages_per_block as usize + 1;
        let stride = (blocks as usize).div_ceil(64);
        let summary_stride = stride.div_ceil(64);
        VictimBuckets {
            valid: vec![None; blocks as usize],
            stride,
            bits: vec![0; buckets * stride],
            summary_stride,
            summary: vec![0; buckets * summary_stride],
            count: vec![0; buckets],
            min_valid: buckets,
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
        self.valid[block as usize].is_some()
    }

    /// The valid count recorded for a candidate, `None` for non-members.
    pub fn valid_of(&self, block: u32) -> Option<u32> {
        self.valid[block as usize]
    }

    pub fn insert(&mut self, block: u32, valid: u32) {
        debug_assert!(
            self.valid[block as usize].is_none(),
            "block {block} is already a candidate"
        );
        self.valid[block as usize] = Some(valid);
        self.set(valid, block);
        self.min_valid = self.min_valid.min(valid as usize);
        self.len += 1;
    }

    /// Removes a candidate, returning its recorded valid count, or `None`
    /// (and does nothing) if the block is not a candidate.
    pub fn remove(&mut self, block: u32) -> Option<u32> {
        let valid = self.valid[block as usize].take()?;
        self.clear(valid, block);
        self.len -= 1;
        Some(valid)
    }

    /// Moves a candidate down one bucket after a page invalidation.
    /// Returns false (and does nothing) if the block is not a candidate.
    pub fn decrement(&mut self, block: u32) -> bool {
        let Some(valid) = self.valid[block as usize] else {
            return false;
        };
        debug_assert!(valid > 0, "candidate block {block} has no valid pages");
        self.clear(valid, block);
        self.set(valid - 1, block);
        self.valid[block as usize] = Some(valid - 1);
        self.min_valid = self.min_valid.min(valid as usize - 1);
        true
    }

    #[inline]
    fn set(&mut self, valid: u32, block: u32) {
        let (v, b) = (valid as usize, block as usize);
        self.bits[v * self.stride + b / 64] |= 1 << (b % 64);
        self.summary[v * self.summary_stride + b / 4096] |= 1 << (b / 64 % 64);
        self.count[v] += 1;
    }

    #[inline]
    fn clear(&mut self, valid: u32, block: u32) {
        let (v, b) = (valid as usize, block as usize);
        let word = &mut self.bits[v * self.stride + b / 64];
        *word &= !(1 << (b % 64));
        if *word == 0 {
            self.summary[v * self.summary_stride + b / 4096] &= !(1 << (b / 64 % 64));
        }
        self.count[v] -= 1;
    }

    /// The minimum `(valid, block)` pair — the block with the fewest valid
    /// pages, ties broken by the lowest block id. `None` when empty.
    pub fn peek_min(&mut self) -> Option<(u32, u32)> {
        if self.len == 0 {
            return None;
        }
        while self.count[self.min_valid] == 0 {
            self.min_valid += 1;
        }
        let valid = self.min_valid as u32;
        Some((valid, self.members(valid).next()?))
    }

    /// The candidates with exactly `valid` valid pages, in ascending
    /// block id.
    pub fn members(&self, valid: u32) -> impl Iterator<Item = u32> + '_ {
        let v = valid as usize;
        let words = &self.bits[v * self.stride..][..self.stride];
        let summary = &self.summary[v * self.summary_stride..][..self.summary_stride];
        ones(summary).flat_map(move |w| ones(&words[w..=w]).map(move |b| (w * 64 + b) as u32))
    }

    /// All candidates as `(valid, block)` pairs, in ascending
    /// `(valid, block)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.count.len() as u32).flat_map(move |v| self.members(v).map(move |b| (v, b)))
    }

    /// Structural self-check for tests and `check_invariants`: every
    /// member's bit is set in its bucket and no other bit is, summaries
    /// and populations agree with the bits, and the min cursor is still a
    /// lower bound.
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut members = 0usize;
        for (block, valid) in self.valid.iter().enumerate() {
            if let Some(v) = *valid {
                if self.bits[v as usize * self.stride + block / 64] >> (block % 64) & 1 == 0 {
                    return Err(format!("candidate {block} is missing from bucket {v}"));
                }
                members += 1;
            }
        }
        let mut population = 0usize;
        for (v, &count) in self.count.iter().enumerate() {
            let words = &self.bits[v * self.stride..][..self.stride];
            let summary = &self.summary[v * self.summary_stride..][..self.summary_stride];
            let set: u32 = words.iter().map(|w| w.count_ones()).sum();
            if set != count {
                return Err(format!("bucket {v} holds {set} bits but counts {count}"));
            }
            if ones(summary).ne((0..self.stride).filter(|&w| words[w] != 0)) {
                return Err(format!("bucket {v}'s summary disagrees with its words"));
            }
            population += count as usize;
        }
        if (members, population) != (self.len, self.len) {
            return Err(format!(
                "{members} members and bucket population {population} != len {}",
                self.len
            ));
        }
        if let Some(true_min) = self.count.iter().position(|&c| c != 0) {
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
/// row-major order, so a pick costs a short scan of counts plus an
/// ascending walk of one [`VictimBuckets`] bucket up to the first match,
/// instead of a walk over every candidate block.
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
    /// The block count, then each bucket's members in ascending block id
    /// (the shape of a `Vec<Vec<u32>>`). Canonical: two sets with the
    /// same members write the same bytes. `len`, `min_valid` and the
    /// bitsets are rebuilt on load.
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            valid,
            count,
            stride: _,
            bits: _,
            summary_stride: _,
            summary: _,
            min_valid: _,
            len: _,
        } = self;
        w.put_u64(valid.len() as u64);
        w.put_u64(count.len() as u64);
        for (v, &count) in count.iter().enumerate() {
            w.put_u64(count as u64);
            for block in self.members(v as u32) {
                w.put_u32(block);
            }
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        let blocks = r.take_usize();
        let buckets = r.take_usize();
        // A corrupt count read outside a CRC-checked section must not
        // drive an unbounded allocation: every bucket writes at least its
        // 8-byte length, and the bitsets hold a bit per (bucket, block),
        // 256 MiB at most.
        if blocks > 1 << 24
            || buckets == 0
            || buckets > r.remaining() / 8
            || buckets.saturating_mul(blocks.max(64)) > 1 << 31
        {
            r.corrupt("implausible victim-set shape");
            return VictimBuckets::new(0, 0);
        }
        let mut set = VictimBuckets::new(blocks as u32, buckets as u32 - 1);
        for valid in 0..buckets as u32 {
            for _ in 0..r.take_u64() {
                let block = r.take_u32();
                if r.failed() || set.valid.get(block as usize) != Some(&None) {
                    r.corrupt("bucket entry out of range or duplicated");
                    break;
                }
                set.insert(block, valid);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_snap::SnapError;
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
        assert_eq!(v.remove(5), Some(1));
        assert_eq!(v.remove(5), None);
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

    fn snapshot(v: &VictimBuckets) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn matches_btreeset_semantics_under_random_churn() {
        // Drive the buckets and the original BTreeSet<(valid, block)> with
        // the same operation stream; peek_min must always equal the tree's
        // first element and each bucket the tree's range, in order.
        let blocks = 32u32;
        let ppb = 8u32;
        let mut v = VictimBuckets::new(blocks, ppb);
        let mut tree: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut x = 0x1234_5678u64;
        for step in 0..20_000 {
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
                    if let Some(valid) = v.remove(block) {
                        assert!(tree.remove(&(valid, block)));
                    }
                }
            }
            assert_eq!(v.len(), tree.len());
            let tree_min = tree.iter().next().copied();
            assert_eq!(v.peek_min(), tree_min);
            for valid in 0..=ppb {
                let range = tree.range((valid, 0)..=(valid, u32::MAX)).map(|&(_, b)| b);
                assert!(v.members(valid).eq(range), "bucket {valid} at step {step}");
            }
            assert!(v.iter().eq(tree.iter().copied()));
            if step % 1_000 == 0 {
                let bytes = snapshot(&v);
                let mut r = SnapReader::new(&bytes);
                let back = VictimBuckets::load(&mut r);
                r.finish("victims").unwrap();
                back.check_consistency().unwrap();
                assert_eq!(snapshot(&back), bytes, "step {step}");
            }
        }
        v.check_consistency().unwrap();
    }

    /// The snapshot is a function of the members: insertion order, a
    /// detour through other buckets and a stale min cursor leave no trace.
    #[test]
    fn same_members_via_different_histories_snapshot_identically() {
        let mut a = VictimBuckets::new(200, 4);
        for block in [7, 130, 3, 64] {
            a.insert(block, 2);
        }
        a.insert(150, 1);
        assert_eq!(a.peek_min(), Some((1, 150)));
        a.remove(150);

        let mut b = VictimBuckets::new(200, 4);
        for block in [64, 3, 130] {
            b.insert(block, 2);
        }
        b.insert(7, 4);
        b.decrement(7);
        b.decrement(7);
        b.insert(0, 0);
        assert_eq!(b.remove(0), Some(0));

        assert!(a.iter().eq(b.iter()));
        assert_eq!(snapshot(&a), snapshot(&b));
    }

    #[test]
    fn corrupt_entries_are_rejected_on_load() {
        let mut v = VictimBuckets::new(4, 2);
        v.insert(1, 0);
        v.insert(3, 2);
        let good = snapshot(&v);
        // Layout: blocks, buckets, then (len, ids) per bucket; bucket 0's
        // only id sits at byte 24.
        for (id, why) in [(9u32, "out of range"), (3, "duplicated")] {
            let mut bytes = good.clone();
            bytes[24..28].copy_from_slice(&id.to_le_bytes());
            let mut r = SnapReader::new(&bytes);
            let _ = VictimBuckets::load(&mut r);
            let err = r.finish("victims").unwrap_err();
            assert!(matches!(err, SnapError::Corrupt { .. }), "{why}: {err:?}");
        }
        let mut huge = good;
        huge[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut r = SnapReader::new(&huge);
        let _ = VictimBuckets::load(&mut r);
        let err = r.finish("victims").unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { .. }), "{err:?}");
    }
}
