//! Flat, deterministic replacements for the simulator's hot-path
//! ordered maps.
//!
//! `BTreeMap` gives the engine deterministic iteration, but every lookup
//! chases pointers across nodes. The two containers here keep the same
//! observable contract — ascending-by-key iteration, canonical snapshot
//! bytes **identical** to
//! [`BTreeMap`](std::collections::BTreeMap)'s `Snapshot` encoding
//! (length prefix + ascending `(key, value)` pairs) — with
//! cache-friendly storage:
//!
//! * [`FlatMap`] — a sorted `Vec<(K, V)>` with binary-search lookups.
//!   Right for small-to-medium maps with reads dominating inserts
//!   (move routes, rebuilds, remap fragments).
//! * [`TokenMap`] — a slab keyed by monotonically increasing `u64`
//!   tokens: O(1) lookup by offset from a sliding base. Right for the
//!   in-flight table, whose keys are issue tokens that arrive in order
//!   and retire near-FIFO.
//!
//! Because the snapshot bytes match `BTreeMap`'s exactly, converting an
//! engine field between the three container types is invisible to the
//! checkpoint format.
//!
//! [`IdMap`] / [`IdSet`] are the third kind: hash containers for
//! point lookups by the simulator's own integer ids, where nothing ever
//! depends on iteration order (whoever serializes one sorts first).

use crate::{bounded_len, SnapReader, SnapWriter, Snapshot};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// One multiply by a fixed odd constant per integer written — for keys
/// that are ids this program allocated itself (`ObjectId`, `FileId`),
/// which need neither SipHash's speed cost nor its protection against
/// crafted collisions. Fixed, so a map's layout repeats from run to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; hash tables index
        // by the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` for integer-id keys, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` for integer-id keys, hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A sorted-vector map: ascending iteration, binary-search lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap::new()
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    pub fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    fn idx(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|e| e.0.cmp(key))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.idx(key).is_ok()
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.idx(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Inserts, returning the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.idx(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Ascending-by-key iteration, mirroring `BTreeMap::iter`.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for FlatMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let Self { entries } = self;
        w.put_u64(entries.len() as u64);
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        let pairs = Vec::<(K, V)>::load(r);
        let mut map = FlatMap::new();
        for (k, v) in pairs {
            if map.insert(k, v).is_some() {
                r.corrupt("duplicate FlatMap key");
            }
        }
        map
    }
}

/// A slab map for monotonically increasing `u64` tokens.
///
/// Lookup is an O(1) offset from `base`; `remove` leaves a hole that is
/// reclaimed once everything before it retires. Insertion order must be
/// ascending (the engine's issue tokens are), but gaps are allowed —
/// a restored checkpoint may contain only the still-open tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenMap<V> {
    base: u64,
    slots: VecDeque<Option<V>>,
    len: usize,
}

impl<V> Default for TokenMap<V> {
    fn default() -> Self {
        TokenMap::new()
    }
}

impl<V> TokenMap<V> {
    pub fn new() -> Self {
        TokenMap {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `token`, which must be at least as large as every token
    /// ever inserted (gaps become empty slots).
    ///
    /// # Panics
    /// Panics if `token` is not past the end of the slab.
    pub fn insert(&mut self, token: u64, value: V) {
        let end = self.base + self.slots.len() as u64;
        assert!(
            token >= end,
            "TokenMap tokens must be inserted in ascending order"
        );
        for _ in end..token {
            self.slots.push_back(None);
        }
        self.slots.push_back(Some(value));
        self.len += 1;
    }

    fn offset(&self, token: u64) -> Option<usize> {
        token.checked_sub(self.base).and_then(|o| {
            let o = usize::try_from(o).ok()?;
            (o < self.slots.len()).then_some(o)
        })
    }

    pub fn get(&self, token: u64) -> Option<&V> {
        self.offset(token).and_then(|o| self.slots[o].as_ref())
    }

    pub fn get_mut(&mut self, token: u64) -> Option<&mut V> {
        match self.offset(token) {
            Some(o) => self.slots[o].as_mut(),
            None => None,
        }
    }

    pub fn remove(&mut self, token: u64) -> Option<V> {
        let o = self.offset(token)?;
        let v = self.slots[o].take();
        if v.is_some() {
            self.len -= 1;
        }
        // Reclaim the retired prefix so the slab tracks the open window.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        v
    }

    /// Ascending-by-token iteration over occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (self.base + i as u64, v)))
    }
}

impl<V: Snapshot> Snapshot for TokenMap<V> {
    fn save(&self, w: &mut SnapWriter) {
        // `base` and `slots` are written as the occupied (token, value)
        // pairs `iter` yields; `load` re-inserts them, which rebuilds both.
        let Self {
            base: _,
            slots: _,
            len,
        } = self;
        w.put_u64(*len as u64);
        for (token, v) in self.iter() {
            w.put_u64(token);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader) -> Self {
        let len = bounded_len(r);
        let mut map = TokenMap::new();
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            if r.failed() {
                break;
            }
            let token = r.take_u64();
            let v = V::load(r);
            if prev.is_some_and(|p| token <= p) {
                r.corrupt("TokenMap tokens out of order");
                break;
            }
            prev = Some(token);
            map.insert(token, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn bytes_of<T: Snapshot>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn flatmap_behaves_like_btreemap() {
        let mut flat = FlatMap::new();
        let mut tree = BTreeMap::new();
        // Deterministic scrambled key order with inserts, overwrites,
        // and removes.
        for i in 0..500u64 {
            let k = (i * 7919) % 257;
            assert_eq!(flat.insert(k, i), tree.insert(k, i));
            if i % 3 == 0 {
                let d = (i * 31) % 257;
                assert_eq!(flat.remove(&d), tree.remove(&d));
            }
            assert_eq!(flat.get(&k), tree.get(&k));
        }
        assert_eq!(flat.len(), tree.len());
        let f: Vec<_> = flat.iter().map(|(k, v)| (*k, *v)).collect();
        let t: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(f, t, "iteration order diverged");
    }

    #[test]
    fn flatmap_bytes_match_btreemap_bytes() {
        let mut flat = FlatMap::new();
        let mut tree = BTreeMap::new();
        for i in 0..64u64 {
            let k = (i * 37) % 101;
            flat.insert(k, i * 2);
            tree.insert(k, i * 2);
        }
        assert_eq!(bytes_of(&flat), bytes_of(&tree));
        // And the flat encoding loads back identically.
        let bytes = bytes_of(&flat);
        let mut r = SnapReader::new(&bytes);
        let back = FlatMap::<u64, u64>::load(&mut r);
        r.finish("flat").unwrap();
        assert_eq!(back, flat);
    }

    #[test]
    fn id_hasher_spreads_strided_ids_over_low_bits() {
        use std::hash::BuildHasher;
        // An OSD's directory holds every n-th object id: the low bits a
        // hash table indexes by must still differ.
        let build = BuildHasherDefault::<IdHasher>::default();
        for stride in [1u64, 4, 16, 64, 1024] {
            let low: HashSet<u64> = (0..256)
                .map(|i| build.hash_one(i * stride) & 0xFF)
                .collect();
            assert!(low.len() > 128, "stride {stride}: {} of 256", low.len());
        }
        let mut map: IdMap<u64, u64> = IdMap::default();
        map.insert(7, 1);
        assert_eq!(map.get(&7), Some(&1));
        assert_eq!(map.get(&8), None);
    }

    #[test]
    fn flatmap_retain() {
        let mut flat: FlatMap<u32, u32> = FlatMap::new();
        for k in 0..10 {
            flat.insert(k, k * k);
        }
        flat.retain(|k, _| k % 2 == 0);
        assert_eq!(
            flat.keys().copied().collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8]
        );
    }

    #[test]
    fn flatmap_load_rejects_duplicates() {
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_u64(9);
        w.put_u64(1);
        w.put_u64(9);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = FlatMap::<u64, u64>::load(&mut r);
        assert!(r.finish("flat").is_err());
    }

    #[test]
    fn tokenmap_near_fifo_lifecycle() {
        let mut slab = TokenMap::new();
        let mut tree = BTreeMap::new();
        let mut next = 0u64;
        for round in 0..200u64 {
            for _ in 0..3 {
                slab.insert(next, round);
                tree.insert(next, round);
                next += 1;
            }
            // Retire slightly out of order (MDS completions can overlap).
            if round >= 2 {
                for t in [next - 7, next - 9, next - 8] {
                    assert_eq!(slab.remove(t), tree.remove(&t));
                }
            }
            assert_eq!(slab.len(), tree.len());
        }
        let s: Vec<_> = slab.iter().map(|(k, v)| (k, *v)).collect();
        let t: Vec<_> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(s, t);
        // The slab window should have slid well past zero.
        assert!(slab.base > 0);
    }

    #[test]
    fn tokenmap_bytes_match_btreemap_bytes() {
        let mut slab = TokenMap::new();
        let mut tree = BTreeMap::new();
        for t in 0..50u64 {
            slab.insert(t, t * 3);
            tree.insert(t, t * 3);
        }
        for t in (0..50).step_by(3) {
            slab.remove(t);
            tree.remove(&t);
        }
        assert_eq!(bytes_of(&slab), bytes_of(&tree));
        let bytes = bytes_of(&slab);
        let mut r = SnapReader::new(&bytes);
        let back = TokenMap::<u64>::load(&mut r);
        r.finish("slab").unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            slab.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn tokenmap_load_with_gaps() {
        // A restored checkpoint holds only still-open tokens: 5, 9, 12.
        let mut w = SnapWriter::new();
        w.put_u64(3);
        for (t, v) in [(5u64, 50u64), (9, 90), (12, 120)] {
            w.put_u64(t);
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let slab = TokenMap::<u64>::load(&mut r);
        r.finish("slab").unwrap();
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(5), Some(&50));
        assert_eq!(slab.get(6), None);
        assert_eq!(slab.get(12), Some(&120));
        // Re-saving reproduces the same bytes.
        let mut w2 = SnapWriter::new();
        slab.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn tokenmap_rejects_descending_insert() {
        let mut slab = TokenMap::new();
        slab.insert(5, 1u32);
        slab.insert(4, 2u32);
    }

    #[test]
    fn tokenmap_load_rejects_unordered_tokens() {
        let mut w = SnapWriter::new();
        w.put_u64(2);
        w.put_u64(9);
        w.put_u64(0u64);
        w.put_u64(3);
        w.put_u64(0u64);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let _ = TokenMap::<u64>::load(&mut r);
        assert!(r.finish("slab").is_err());
    }
}
