//! Object-level RAID-5 striping (§III.A).
//!
//! "File data are striped over its k objects using object-level RAID-5,"
//! which the paper prefers over replication because it is more
//! cost-effective for SSDs. A file's byte space is split into stripe rows
//! of `k - 1` data units; the remaining object of each row holds parity,
//! rotating left-symmetrically so parity load spreads over all k objects.
//!
//! A write to a stripe row therefore costs, besides the data-object write,
//! a read-modify-write of the row's parity unit (old data read + old
//! parity read + parity write) — the write amplification that couples
//! RAID-5 to SSD wear.

use edm_snap::{SnapReader, SnapWriter, Snapshot};

/// What a sub-operation does to an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoKind {
    DataRead,
    DataWrite,
    /// Read of old data needed for the parity read-modify-write.
    RmwRead,
    ParityRead,
    ParityWrite,
}

impl IoKind {
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::DataWrite | IoKind::ParityWrite)
    }
}

/// One object-level I/O produced by striping a file request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectIo {
    /// Index of the target object within the file (0..k).
    pub object_index: u32,
    /// Byte offset inside the object.
    pub offset: u64,
    pub len: u64,
    pub kind: IoKind,
}

/// RAID-5 stripe layout of one file over `k` objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    /// Objects per file, k ≥ 2 (k−1 data + 1 rotating parity per row).
    pub k: u32,
    /// Stripe unit in bytes.
    pub unit: u64,
}

impl StripeLayout {
    /// Default stripe unit: 64 KB.
    pub const DEFAULT_UNIT: u64 = 64 * 1024;

    pub fn new(k: u32, unit: u64) -> Self {
        assert!(
            k >= 2,
            "RAID-5 needs at least 2 objects (k-1 data + parity)"
        );
        assert!(unit > 0, "stripe unit must be positive");
        StripeLayout { k, unit }
    }

    pub fn paper(k: u32) -> Self {
        StripeLayout::new(k, Self::DEFAULT_UNIT)
    }

    /// Data bytes per stripe row.
    pub fn row_data_bytes(&self) -> u64 {
        (self.k as u64 - 1) * self.unit
    }

    /// Number of stripe rows needed for a file of `file_size` bytes.
    pub fn rows(&self, file_size: u64) -> u64 {
        file_size.div_ceil(self.row_data_bytes()).max(1)
    }

    /// Size of each of the k objects for a file of `file_size` bytes
    /// (every object reserves one unit per row: data or parity).
    pub fn object_size(&self, file_size: u64) -> u64 {
        self.rows(file_size) * self.unit
    }

    /// The object holding parity for stripe `row` (left-symmetric
    /// rotation).
    pub fn parity_object(&self, row: u64) -> u32 {
        (self.k as u64 - 1 - row % self.k as u64) as u32
    }

    /// The object holding data unit `d` (0-based within its row) of stripe
    /// `row`: data units fill the non-parity objects in ascending order.
    pub fn data_object(&self, row: u64, d: u64) -> u32 {
        debug_assert!(d < self.k as u64 - 1);
        let parity = self.parity_object(row) as u64;
        if d < parity {
            d as u32
        } else {
            (d + 1) as u32
        }
    }

    /// Maps a file-level read `[offset, offset+len)` to object I/Os.
    pub fn map_read(&self, offset: u64, len: u64) -> Vec<ObjectIo> {
        self.map(offset, len, false).collect()
    }

    /// Maps a file-level write to object I/Os including the parity
    /// read-modify-write of each touched row.
    pub fn map_write(&self, offset: u64, len: u64) -> Vec<ObjectIo> {
        self.map(offset, len, true).collect()
    }

    /// The object I/Os of a file-level access, in issue order, computed
    /// as they are consumed: one per stripe-unit chunk of a read, four
    /// (old data, old parity, data, parity) per chunk of a write.
    pub fn map(&self, offset: u64, len: u64, write: bool) -> StripeIos {
        StripeIos {
            layout: *self,
            pos: offset,
            end: offset + len,
            per_chunk: if write { 4 } else { 1 },
            left: 0,
            data: 0,
            parity: 0,
            offset: 0,
            len: 0,
        }
    }
}

/// Lazy form of [`StripeLayout::map`]'s result.
#[derive(Debug, Clone)]
pub struct StripeIos {
    layout: StripeLayout,
    /// File offset of the next chunk to start.
    pos: u64,
    end: u64,
    /// I/Os per chunk: 1 for a read, the 4 RMW phases for a write.
    per_chunk: u32,
    /// I/Os of the current chunk still to yield.
    left: u32,
    /// The current chunk: its data object, its row's parity object, and
    /// the extent (the same inside both).
    data: u32,
    parity: u32,
    offset: u64,
    len: u64,
}

impl Iterator for StripeIos {
    type Item = ObjectIo;

    fn next(&mut self) -> Option<ObjectIo> {
        if self.left == 0 {
            if self.pos >= self.end {
                return None;
            }
            // Row/unit arithmetic, once per chunk.
            let l = &self.layout;
            let row_bytes = l.row_data_bytes();
            let (row, in_row) = (self.pos / row_bytes, self.pos % row_bytes);
            let in_unit = in_row % l.unit;
            self.data = l.data_object(row, in_row / l.unit);
            self.parity = l.parity_object(row);
            // A data unit of row r lives at object offset r * unit.
            self.offset = row * l.unit + in_unit;
            self.len = (l.unit - in_unit).min(self.end - self.pos);
            self.pos += self.len;
            self.left = self.per_chunk;
        }
        self.left -= 1;
        let (kind, object_index) = match (self.per_chunk, self.left) {
            (1, _) => (IoKind::DataRead, self.data),
            (_, 3) => (IoKind::RmwRead, self.data),
            (_, 2) => (IoKind::ParityRead, self.parity),
            (_, 1) => (IoKind::DataWrite, self.data),
            _ => (IoKind::ParityWrite, self.parity),
        };
        Some(ObjectIo {
            object_index,
            offset: self.offset,
            len: self.len,
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Unit boundaries cut what is left of the range into chunks.
        let unit = self.layout.unit;
        let chunks = if self.pos < self.end {
            (self.end - 1) / unit - self.pos / unit + 1
        } else {
            0
        };
        let n = (chunks * self.per_chunk as u64 + self.left as u64) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for StripeIos {}

impl Snapshot for StripeLayout {
    fn save(&self, w: &mut SnapWriter) {
        let Self { k, unit } = self;
        w.put_u32(*k);
        w.put_u64(*unit);
    }
    fn load(r: &mut SnapReader) -> Self {
        let k = r.take_u32();
        let unit = r.take_u64();
        if !r.failed() && (k < 2 || unit == 0) {
            r.corrupt(format!("stripe layout k = {k}, unit = {unit}"));
            return StripeLayout { k: 2, unit: 1 };
        }
        StripeLayout { k, unit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        StripeLayout::new(4, 64 * 1024)
    }

    /// The eager mapping `StripeLayout::map` used to build: the reference
    /// the lazy iterator is checked against.
    fn eager_map(l: &StripeLayout, offset: u64, len: u64, write: bool) -> Vec<ObjectIo> {
        let mut ios = Vec::new();
        let row_bytes = l.row_data_bytes();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let row = pos / row_bytes;
            let in_row = pos % row_bytes;
            let in_unit = in_row % l.unit;
            let chunk = (l.unit - in_unit).min(end - pos);
            let io = |object_index, kind| ObjectIo {
                object_index,
                offset: row * l.unit + in_unit,
                len: chunk,
                kind,
            };
            let data = l.data_object(row, in_row / l.unit);
            let parity = l.parity_object(row);
            if write {
                ios.push(io(data, IoKind::RmwRead));
                ios.push(io(parity, IoKind::ParityRead));
                ios.push(io(data, IoKind::DataWrite));
                ios.push(io(parity, IoKind::ParityWrite));
            } else {
                ios.push(io(data, IoKind::DataRead));
            }
            pos += chunk;
        }
        ios
    }

    #[test]
    fn lazy_map_equals_the_eager_list() {
        let mut x = 0x5EED_u64;
        let mut next = move |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        for case in 0..2000 {
            let l = StripeLayout::new(2 + next(7) as u32, [1, 512, 4096, 65536][next(4) as usize]);
            let offset = next(4 * l.row_data_bytes() + 1);
            let len = next(3 * l.row_data_bytes() + 2).min(40 * l.unit);
            let write = next(2) == 1;
            let want = eager_map(&l, offset, len, write);
            let mut got = l.map(offset, len, write);
            for (i, io) in want.iter().enumerate() {
                assert_eq!(
                    got.len(),
                    want.len() - i,
                    "case {case}: len() before item {i}"
                );
                assert_eq!(got.next().as_ref(), Some(io), "case {case}: item {i}");
            }
            assert_eq!(got.len(), 0);
            assert_eq!(got.next(), None);
            let collected = if write {
                l.map_write(offset, len)
            } else {
                l.map_read(offset, len)
            };
            assert_eq!(collected, want);
        }
    }

    #[test]
    fn row_capacity_is_k_minus_1_units() {
        assert_eq!(layout().row_data_bytes(), 3 * 64 * 1024);
    }

    #[test]
    fn parity_rotates_over_all_objects() {
        let l = layout();
        let ps: Vec<u32> = (0..4).map(|r| l.parity_object(r)).collect();
        let set: std::collections::HashSet<u32> = ps.iter().copied().collect();
        assert_eq!(set.len(), 4, "parity must visit every object: {ps:?}");
        assert_eq!(l.parity_object(0), 3);
        assert_eq!(l.parity_object(4), l.parity_object(0));
    }

    #[test]
    fn data_object_never_equals_parity_object() {
        let l = layout();
        for row in 0..8 {
            for d in 0..3 {
                assert_ne!(l.data_object(row, d), l.parity_object(row));
            }
        }
    }

    #[test]
    fn data_objects_of_a_row_are_distinct() {
        let l = layout();
        for row in 0..8 {
            let objs: std::collections::HashSet<u32> =
                (0..3).map(|d| l.data_object(row, d)).collect();
            assert_eq!(objs.len(), 3);
        }
    }

    #[test]
    fn small_read_touches_one_object() {
        let ios = layout().map_read(0, 4096);
        assert_eq!(ios.len(), 1);
        assert_eq!(
            ios[0],
            ObjectIo {
                object_index: 0,
                offset: 0,
                len: 4096,
                kind: IoKind::DataRead
            }
        );
    }

    #[test]
    fn small_write_is_data_plus_parity_rmw() {
        let ios = layout().map_write(0, 4096);
        let kinds: Vec<IoKind> = ios.iter().map(|io| io.kind).collect();
        assert_eq!(
            kinds,
            vec![
                IoKind::RmwRead,
                IoKind::ParityRead,
                IoKind::DataWrite,
                IoKind::ParityWrite
            ]
        );
        // Row 0: parity on object 3, data unit 0 on object 0.
        assert_eq!(ios[2].object_index, 0);
        assert_eq!(ios[3].object_index, 3);
        assert_eq!(ios[3].len, 4096);
    }

    #[test]
    fn read_spanning_units_splits_correctly() {
        let l = layout();
        // 100 KB starting at 60 KB: 4 KB in unit 0 + 64 KB unit 1 + 32 KB unit 2.
        let ios = l.map_read(60 * 1024, 100 * 1024);
        assert_eq!(ios.len(), 3);
        assert_eq!(ios[0].len, 4 * 1024);
        assert_eq!(ios[1].len, 64 * 1024);
        assert_eq!(ios[2].len, 32 * 1024);
        let total: u64 = ios.iter().map(|io| io.len).sum();
        assert_eq!(total, 100 * 1024);
        assert_eq!(ios[0].object_index, 0);
        assert_eq!(ios[1].object_index, 1);
        assert_eq!(ios[2].object_index, 2);
    }

    #[test]
    fn read_spanning_rows_changes_row_offset() {
        let l = layout();
        // Start in the last unit of row 0, cross into row 1.
        let ios = l.map_read(3 * 64 * 1024 - 4096, 8192);
        assert_eq!(ios.len(), 2);
        // Second chunk is row 1, data unit 0; parity of row 1 is object 2,
        // so data unit 0 is object 0, at object offset 1*unit.
        assert_eq!(ios[1].object_index, 0);
        assert_eq!(ios[1].offset, 64 * 1024);
    }

    #[test]
    fn write_bytes_conserved() {
        let l = layout();
        let ios = l.map_write(123_456, 300_000);
        let data: u64 = ios
            .iter()
            .filter(|io| io.kind == IoKind::DataWrite)
            .map(|io| io.len)
            .sum();
        assert_eq!(data, 300_000);
        let parity: u64 = ios
            .iter()
            .filter(|io| io.kind == IoKind::ParityWrite)
            .map(|io| io.len)
            .sum();
        assert_eq!(parity, 300_000, "parity RMW mirrors data bytes");
    }

    #[test]
    fn object_size_covers_all_rows() {
        let l = layout();
        // A 1-byte file still occupies one row.
        assert_eq!(l.object_size(1), 64 * 1024);
        // Exactly one row of data.
        assert_eq!(l.object_size(3 * 64 * 1024), 64 * 1024);
        // One byte more needs a second row.
        assert_eq!(l.object_size(3 * 64 * 1024 + 1), 2 * 64 * 1024);
    }

    #[test]
    fn every_mapped_io_fits_in_object_size() {
        let l = layout();
        let file_size = 1_000_000u64;
        let osize = l.object_size(file_size);
        for ios in [
            l.map_read(0, file_size),
            l.map_write(0, file_size),
            l.map_write(file_size - 1, 1),
        ] {
            for io in ios {
                assert!(
                    io.offset + io.len <= osize,
                    "io {io:?} beyond object size {osize}"
                );
            }
        }
    }

    #[test]
    fn zero_len_maps_to_nothing() {
        assert!(layout().map_read(10, 0).is_empty());
        assert!(layout().map_write(10, 0).is_empty());
    }

    #[test]
    fn k2_is_mirroring_like() {
        // k = 2: one data unit + one parity per row.
        let l = StripeLayout::new(2, 4096);
        let ios = l.map_write(0, 4096);
        let writes: Vec<&ObjectIo> = ios.iter().filter(|io| io.kind.is_write()).collect();
        assert_eq!(writes.len(), 2);
        assert_ne!(writes[0].object_index, writes[1].object_index);
    }
}
