//! The metadata catalog (the MDS's file table): file → objects, object →
//! current OSD (hash placement overlaid by the remapping table).

use std::collections::BTreeMap;

use edm_snap::snapshot_struct;

use edm_workload::FileId;

use crate::ids::{ObjectId, OsdId};
use crate::placement::Placement;
use crate::raid::StripeLayout;
use crate::remap::RemappingTable;

/// Metadata of one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub file: FileId,
    pub size: u64,
    /// The k object ids, in stripe order.
    pub objects: Vec<ObjectId>,
    /// Size of each object (same for all k, see
    /// [`StripeLayout::object_size`]).
    pub object_size: u64,
}

/// The MDS's view of the namespace.
#[derive(Debug, Clone)]
pub struct Catalog {
    placement: Placement,
    layout: StripeLayout,
    files: BTreeMap<FileId, FileMeta>,
    remap: RemappingTable,
}

impl Catalog {
    pub fn new(placement: Placement, layout: StripeLayout) -> Self {
        assert_eq!(
            placement.objects_per_file, layout.k,
            "placement and stripe layout must agree on k"
        );
        Catalog {
            placement,
            layout,
            files: BTreeMap::new(),
            remap: RemappingTable::new(),
        }
    }

    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    pub fn remap(&self) -> &RemappingTable {
        &self.remap
    }

    pub fn remap_mut(&mut self) -> &mut RemappingTable {
        &mut self.remap
    }

    pub fn file(&self, file: FileId) -> Option<&FileMeta> {
        self.files.get(&file)
    }

    pub fn total_objects(&self) -> u64 {
        self.files.len() as u64 * self.placement.objects_per_file as u64
    }

    pub fn files(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.values()
    }

    /// Registers a file of `size` bytes, allocating its k object ids.
    ///
    /// # Panics
    /// Panics if the file already exists.
    pub fn create_file(&mut self, file: FileId, size: u64) -> &FileMeta {
        assert!(
            !self.files.contains_key(&file),
            "file {file:?} already exists"
        );
        let objects: Vec<ObjectId> = (0..self.placement.objects_per_file)
            .map(|i| self.placement.object_id(file, i))
            .collect();
        let meta = FileMeta {
            file,
            size,
            objects,
            object_size: self.layout.object_size(size),
        };
        self.files.insert(file, meta);
        &self.files[&file]
    }

    /// Home OSD (hash placement, ignoring remapping) of an object.
    pub fn home_of(&self, object: ObjectId) -> OsdId {
        let (file, index) = self.placement.object_owner(object);
        self.placement.home_osd(file, index)
    }

    /// Current OSD of an object: remapping-table overlay over hash
    /// placement.
    pub fn locate(&self, object: ObjectId) -> OsdId {
        self.remap
            .lookup(object)
            .unwrap_or_else(|| self.home_of(object))
    }

    /// Records a migration in the remapping table.
    pub fn record_move(&mut self, object: ObjectId, dest: OsdId) {
        let home = self.home_of(object);
        self.remap.record_move_with_home(object, dest, home);
    }
}

snapshot_struct!(FileMeta {
    file,
    size,
    objects,
    object_size
});

snapshot_struct!(
    Catalog { placement, layout, files, remap },
    check = "catalog": |c| {
        if c.placement.objects_per_file != c.layout.k {
            return Err("placement and stripe layout disagree on k".into());
        }
        Ok(())
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(Placement::paper(16), StripeLayout::paper(4))
    }

    #[test]
    fn create_file_allocates_k_objects() {
        let mut c = catalog();
        let meta = c.create_file(FileId(3), 1_000_000).clone();
        assert_eq!(meta.objects.len(), 4);
        assert_eq!(meta.objects[0], ObjectId(12));
        assert_eq!(meta.object_size, c.layout().object_size(1_000_000));
        assert_eq!(c.total_objects(), 4);
        assert!(c.file(FileId(3)).is_some() && c.file(FileId(4)).is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_file_panics() {
        let mut c = catalog();
        c.create_file(FileId(1), 10);
        c.create_file(FileId(1), 10);
    }

    #[test]
    fn locate_follows_placement_then_remap() {
        let mut c = catalog();
        c.create_file(FileId(3), 1000);
        let obj = c.file(FileId(3)).unwrap().objects[1].to_owned();
        assert_eq!(c.locate(obj), OsdId(4)); // inode 3 + index 1
        c.record_move(obj, OsdId(8));
        assert_eq!(c.locate(obj), OsdId(8));
        assert_eq!(c.remap().len(), 1);
    }

    #[test]
    fn moving_back_home_clears_entry() {
        let mut c = catalog();
        c.create_file(FileId(3), 1000);
        let obj = c.file(FileId(3)).unwrap().objects[0].to_owned();
        let home = c.home_of(obj);
        c.record_move(obj, OsdId(7));
        c.record_move(obj, home);
        assert_eq!(c.remap().len(), 0);
        assert_eq!(c.locate(obj), home);
    }

    #[test]
    #[should_panic(expected = "must agree on k")]
    fn mismatched_k_panics() {
        Catalog::new(Placement::paper(16), StripeLayout::paper(3));
    }
}
