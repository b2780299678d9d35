//! The remapping table (§III.C).
//!
//! EDM keeps hash-based placement and overlays moved objects with a
//! remapping table: object id → current OSD. Its size is proportional to
//! the number of *distinct* moved objects, so both EDM policies prefer to
//! re-migrate objects that already have an entry (moving such an object
//! only updates its entry and does not grow the table).

use edm_snap::{FlatMap, SnapReader, SnapWriter, Snapshot};

use crate::ids::{ObjectId, OsdId};

/// Overlay of moved objects on top of hash placement.
#[derive(Debug, Clone, Default)]
pub struct RemappingTable {
    /// Sorted by object id so `iter` (and the snapshot encoding) is
    /// deterministic without a sort. A flat sorted vector: lookups are
    /// binary searches over one contiguous allocation, which beats the
    /// pointer-chasing `BTreeMap` it replaced on the simulator's hot
    /// routing path.
    map: FlatMap<ObjectId, OsdId>,
    /// Total remap insert/update operations (monotone; counts every move).
    moves_recorded: u64,
}

impl RemappingTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current location override for `object`, if it was ever moved.
    pub fn lookup(&self, object: ObjectId) -> Option<OsdId> {
        self.map.get(&object).copied()
    }

    /// Folds another table's entries into this one. Used by the
    /// group-sharded runner to reassemble the global table from per-shard
    /// fragments; the fragments cover disjoint placement components, so
    /// the union never collides.
    pub fn merge_from(&mut self, other: &RemappingTable) {
        for (object, dest) in other.iter() {
            let prev = self.map.insert(object, dest);
            assert!(
                prev.is_none(),
                "remap fragments overlap on {object} — shard components were not disjoint"
            );
        }
        self.moves_recorded += other.moves_recorded;
    }

    /// True if the object already has an entry (moving it again is
    /// "free" in table-growth terms, §III.C).
    pub fn contains(&self, object: ObjectId) -> bool {
        self.map.contains_key(&object)
    }

    /// Records a move. If the object lands back on `home` the entry could
    /// be dropped; the paper's table keeps entries, so we do too unless
    /// `home` is supplied.
    pub fn record_move(&mut self, object: ObjectId, dest: OsdId) {
        self.moves_recorded += 1;
        self.map.insert(object, dest);
    }

    /// Records a move and prunes the entry when the object returned to its
    /// home OSD.
    pub fn record_move_with_home(&mut self, object: ObjectId, dest: OsdId, home: OsdId) {
        self.moves_recorded += 1;
        if dest == home {
            self.map.remove(&object);
        } else {
            self.map.insert(object, dest);
        }
    }

    /// Number of entries — the memory-consumption metric of Fig. 8's
    /// discussion (table growth tracks distinct moved objects).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total moves ever recorded (≥ `len()`).
    pub fn moves_recorded(&self) -> u64 {
        self.moves_recorded
    }

    /// Iterates over (object, current OSD) entries in ascending object
    /// id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, OsdId)> + '_ {
        self.map.iter().map(|(o, d)| (*o, *d))
    }
}

impl Snapshot for RemappingTable {
    /// Entries are serialized sorted by object id (the map's natural
    /// order) so two equal tables always produce the same bytes.
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            map,
            moves_recorded,
        } = self;
        map.save(w);
        w.put_u64(*moves_recorded);
    }
    fn load(r: &mut SnapReader) -> Self {
        let entries = Vec::<(ObjectId, OsdId)>::load(r);
        let moves_recorded = r.take_u64();
        let mut map = FlatMap::new();
        for (o, d) in entries {
            if map.insert(o, d).is_some() {
                r.corrupt("remapping table has duplicate entries");
            }
        }
        RemappingTable {
            map,
            moves_recorded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_reflects_moves() {
        let mut t = RemappingTable::new();
        assert_eq!(t.lookup(ObjectId(1)), None);
        t.record_move(ObjectId(1), OsdId(5));
        assert_eq!(t.lookup(ObjectId(1)), Some(OsdId(5)));
        t.record_move(ObjectId(1), OsdId(9));
        assert_eq!(t.lookup(ObjectId(1)), Some(OsdId(9)));
    }

    #[test]
    fn remigration_does_not_grow_table() {
        let mut t = RemappingTable::new();
        t.record_move(ObjectId(1), OsdId(5));
        t.record_move(ObjectId(1), OsdId(9));
        t.record_move(ObjectId(1), OsdId(13));
        assert_eq!(t.len(), 1, "re-migrations must reuse the entry");
        assert_eq!(t.moves_recorded(), 3);
    }

    #[test]
    fn moving_home_prunes_entry() {
        let mut t = RemappingTable::new();
        t.record_move(ObjectId(7), OsdId(2));
        assert_eq!(t.len(), 1);
        t.record_move_with_home(ObjectId(7), OsdId(0), OsdId(0));
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(ObjectId(7)), None);
        assert_eq!(t.moves_recorded(), 2);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = RemappingTable::new();
        t.record_move(ObjectId(1), OsdId(2));
        t.record_move(ObjectId(3), OsdId(4));
        let mut entries: Vec<_> = t.iter().collect();
        entries.sort();
        assert_eq!(
            entries,
            vec![(ObjectId(1), OsdId(2)), (ObjectId(3), OsdId(4))]
        );
    }
}
