//! Pluggable application of migration decisions.
//!
//! The simulation decides *what* to move; a [`Backend`] is where the
//! move lands. The daemon wires one in behind the observability stream:
//! every `migration_finish` (and `rebuild_finish`) the engine journals
//! is applied to the backend, so the backend's view of object placement
//! tracks the catalog exactly, in completion order.
//!
//! Two implementations ship: [`MemBackend`] (an in-memory placement
//! overlay — the default, and what the gate exercises) and
//! [`DirBackend`] (a real directory tree, one subdirectory per OSD, one
//! file per object, moves as atomic renames).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use edm_cluster::{ObjectId, OsdId};

/// Where completed migrations are applied.
pub trait Backend {
    /// Human-readable backend name for `/healthz`.
    fn name(&self) -> &'static str;

    /// Mirrors one completed migration: `object` (of `bytes` bytes) has
    /// left `source` and now lives on `dest`.
    fn apply_move(
        &mut self,
        object: ObjectId,
        source: OsdId,
        dest: OsdId,
        bytes: u64,
    ) -> Result<(), String>;

    /// Mirrors one completed rebuild: `object` was rematerialized on
    /// `dest` after its device was lost.
    fn apply_rebuild(&mut self, object: ObjectId, dest: OsdId, bytes: u64) -> Result<(), String>;

    /// Moves (and rebuilds) applied so far.
    fn moves_applied(&self) -> u64;
}

/// In-memory backend: a placement overlay plus counters. `location`
/// only holds objects that have moved at least once — exactly like the
/// cluster's remapping table.
#[derive(Debug, Default)]
pub struct MemBackend {
    location: BTreeMap<ObjectId, OsdId>,
    moves: u64,
    bytes_moved: u64,
}

impl MemBackend {
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// Current overlay location of an object, if it ever moved.
    pub fn location(&self, object: ObjectId) -> Option<OsdId> {
        self.location.get(&object).copied()
    }

    /// Total payload bytes applied.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

impl Backend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn apply_move(
        &mut self,
        object: ObjectId,
        _source: OsdId,
        dest: OsdId,
        bytes: u64,
    ) -> Result<(), String> {
        self.location.insert(object, dest);
        self.moves += 1;
        self.bytes_moved += bytes;
        Ok(())
    }

    fn apply_rebuild(&mut self, object: ObjectId, dest: OsdId, bytes: u64) -> Result<(), String> {
        self.location.insert(object, dest);
        self.moves += 1;
        self.bytes_moved += bytes;
        Ok(())
    }

    fn moves_applied(&self) -> u64 {
        self.moves
    }
}

/// Directory-tree backend: `<root>/osd_<n>/obj_<id>` files, one per
/// object, migrations applied as renames.
///
/// Object files are materialized lazily: the first move of an object
/// creates its source file (sized `bytes`, sparse where the filesystem
/// allows) rather than pre-creating the whole cluster, so the tree only
/// ever holds objects the migration machinery actually touched.
#[derive(Debug)]
pub struct DirBackend {
    root: PathBuf,
    moves: u64,
}

impl DirBackend {
    /// Opens (creating if needed) the backend root directory.
    pub fn open(root: PathBuf) -> Result<DirBackend, String> {
        fs::create_dir_all(&root)
            .map_err(|e| format!("creating backend root {}: {e}", root.display()))?;
        Ok(DirBackend { root, moves: 0 })
    }

    fn object_path(&self, osd: OsdId, object: ObjectId) -> PathBuf {
        self.root
            .join(format!("osd_{}", osd.0))
            .join(format!("obj_{}", object.0))
    }

    /// Ensures `path` exists with length `bytes`.
    fn materialize(path: &PathBuf, bytes: u64) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| format!("creating {}: {e}", path.display()))?;
        file.set_len(bytes)
            .map_err(|e| format!("sizing {}: {e}", path.display()))?;
        Ok(())
    }

    /// True when the backend holds a copy of `object` on `osd`.
    pub fn holds(&self, osd: OsdId, object: ObjectId) -> bool {
        self.object_path(osd, object).exists()
    }
}

impl Backend for DirBackend {
    fn name(&self) -> &'static str {
        "dir"
    }

    fn apply_move(
        &mut self,
        object: ObjectId,
        source: OsdId,
        dest: OsdId,
        bytes: u64,
    ) -> Result<(), String> {
        let from = self.object_path(source, object);
        if !from.exists() {
            DirBackend::materialize(&from, bytes)?;
        }
        let to = self.object_path(dest, object);
        DirBackend::materialize(&to, 0)?; // ensure the destination dir exists
        fs::rename(&from, &to)
            .map_err(|e| format!("moving {} to {}: {e}", from.display(), to.display()))?;
        self.moves += 1;
        Ok(())
    }

    fn apply_rebuild(&mut self, object: ObjectId, dest: OsdId, bytes: u64) -> Result<(), String> {
        let to = self.object_path(dest, object);
        DirBackend::materialize(&to, bytes)?;
        self.moves += 1;
        Ok(())
    }

    fn moves_applied(&self) -> u64 {
        self.moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_tracks_moves() {
        let mut b = MemBackend::new();
        assert_eq!(b.location(ObjectId(7)), None);
        b.apply_move(ObjectId(7), OsdId(1), OsdId(3), 4096).unwrap();
        b.apply_move(ObjectId(7), OsdId(3), OsdId(5), 4096).unwrap();
        b.apply_rebuild(ObjectId(9), OsdId(2), 8192).unwrap();
        assert_eq!(b.location(ObjectId(7)), Some(OsdId(5)));
        assert_eq!(b.location(ObjectId(9)), Some(OsdId(2)));
        assert_eq!(b.moves_applied(), 3);
        assert_eq!(b.bytes_moved(), 4096 + 4096 + 8192);
    }

    #[test]
    fn dir_backend_moves_files() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test scratch directory; its location never reaches simulation state"
        )]
        let root =
            std::env::temp_dir().join(format!("edm-serve-dirbackend-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut b = DirBackend::open(root.clone()).unwrap();
        b.apply_move(ObjectId(42), OsdId(0), OsdId(2), 1 << 16)
            .unwrap();
        assert!(!b.holds(OsdId(0), ObjectId(42)));
        assert!(b.holds(OsdId(2), ObjectId(42)));
        let meta = fs::metadata(root.join("osd_2").join("obj_42")).unwrap();
        assert_eq!(meta.len(), 1 << 16);
        b.apply_rebuild(ObjectId(43), OsdId(1), 512).unwrap();
        assert!(b.holds(OsdId(1), ObjectId(43)));
        assert_eq!(b.moves_applied(), 2);
        let _ = fs::remove_dir_all(&root);
    }
}
