//! Logical-space extent allocator for one OSD.
//!
//! Objects stored on an OSD occupy contiguous byte extents of its SSD's
//! exported logical space. Allocation is first-fit over a sorted free
//! list with coalescing on free — simple, deterministic, and fragmentation
//! behaviour good enough for object-sized allocations.

use edm_snap::snapshot_struct;

/// A contiguous byte range `[start, start + len)` of logical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    pub start: u64,
    pub len: u64,
}

impl Extent {
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// First-fit extent allocator over `[0, capacity)`.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    capacity: u64,
    /// Free extents sorted by start, non-overlapping, non-adjacent.
    free: Vec<Extent>,
}

impl ExtentAllocator {
    pub fn new(capacity: u64) -> Self {
        ExtentAllocator {
            capacity,
            free: if capacity > 0 {
                vec![Extent {
                    start: 0,
                    len: capacity,
                }]
            } else {
                Vec::new()
            },
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|e| e.len).sum()
    }

    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.free_bytes()
    }

    /// Allocates `len` contiguous bytes, first-fit. Returns `None` when no
    /// free extent is large enough.
    pub fn alloc(&mut self, len: u64) -> Option<Extent> {
        if len == 0 {
            return Some(Extent { start: 0, len: 0 });
        }
        let idx = self.free.iter().position(|e| e.len >= len)?;
        let e = &mut self.free[idx];
        let out = Extent {
            start: e.start,
            len,
        };
        if e.len == len {
            self.free.remove(idx);
        } else {
            e.start += len;
            e.len -= len;
        }
        Some(out)
    }

    /// Returns an extent to the free list, coalescing with neighbours.
    ///
    /// # Panics
    /// Panics if the extent is out of bounds or overlaps free space
    /// (double free).
    pub fn free(&mut self, extent: Extent) {
        if extent.len == 0 {
            return;
        }
        assert!(
            extent.end() <= self.capacity,
            "freeing beyond capacity: {extent:?}"
        );
        let idx = self.free.partition_point(|e| e.start < extent.start);
        if idx > 0 {
            assert!(
                self.free[idx - 1].end() <= extent.start,
                "double free: {extent:?} overlaps {:?}",
                self.free[idx - 1]
            );
        }
        if idx < self.free.len() {
            assert!(
                extent.end() <= self.free[idx].start,
                "double free: {extent:?} overlaps {:?}",
                self.free[idx]
            );
        }
        self.free.insert(idx, extent);
        // Coalesce with the right neighbour, then the left.
        if idx + 1 < self.free.len() && self.free[idx].end() == self.free[idx + 1].start {
            self.free[idx].len += self.free[idx + 1].len;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].end() == self.free[idx].start {
            self.free[idx - 1].len += self.free[idx].len;
            self.free.remove(idx);
        }
    }
}

snapshot_struct!(Extent { start, len });

snapshot_struct!(
    ExtentAllocator { capacity, free },
    // The free list's invariants (sorted, non-overlapping, non-adjacent,
    // in bounds) are what `free()` relies on.
    check = "extent free list": |a| {
        let ok = a.free.iter().all(|e| e.len > 0 && e.end() <= a.capacity)
            && a.free.iter().zip(a.free.iter().skip(1)).all(|(p, q)| p.end() < q.start);
        if ok { Ok(()) } else { Err("violates its invariants".into()) }
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut a = ExtentAllocator::new(1000);
        let e1 = a.alloc(100).unwrap();
        let e2 = a.alloc(200).unwrap();
        assert_eq!(a.used_bytes(), 300);
        a.free(e1);
        a.free(e2);
        assert_eq!(a.free_bytes(), 1000);
        // Fully coalesced back to one extent: a max-size alloc succeeds.
        assert!(a.alloc(1000).is_some());
    }

    #[test]
    fn first_fit_reuses_freed_holes() {
        let mut a = ExtentAllocator::new(300);
        let e1 = a.alloc(100).unwrap();
        let _e2 = a.alloc(100).unwrap();
        a.free(e1);
        let e3 = a.alloc(50).unwrap();
        assert_eq!(e3.start, 0, "first fit should reuse the hole at 0");
    }

    #[test]
    fn alloc_fails_when_fragmented() {
        let mut a = ExtentAllocator::new(300);
        let e1 = a.alloc(100).unwrap();
        let e2 = a.alloc(100).unwrap();
        let _e3 = a.alloc(100).unwrap();
        a.free(e1);
        a.free(Extent {
            start: e2.start + 50,
            len: 50,
        });
        // 150 bytes free but max contiguous hole is 100.
        assert_eq!(a.free_bytes(), 150);
        assert!(a.alloc(150).is_none());
        assert!(a.alloc(100).is_some());
    }

    #[test]
    fn coalescing_merges_in_both_directions() {
        let mut a = ExtentAllocator::new(300);
        let e1 = a.alloc(100).unwrap();
        let e2 = a.alloc(100).unwrap();
        let e3 = a.alloc(100).unwrap();
        a.free(e1);
        a.free(e3);
        a.free(e2); // merges left and right into one 300-byte extent
        assert!(a.alloc(300).is_some());
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut a = ExtentAllocator::new(10);
        let e = a.alloc(0).unwrap();
        assert_eq!(e.len, 0);
        a.free(e);
        assert_eq!(a.free_bytes(), 10);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = ExtentAllocator::new(100);
        let e = a.alloc(10).unwrap();
        a.free(e);
        a.free(e);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn free_out_of_bounds_panics() {
        let mut a = ExtentAllocator::new(100);
        a.free(Extent { start: 90, len: 20 });
    }

    #[test]
    fn zero_capacity_allocator() {
        let mut a = ExtentAllocator::new(0);
        assert!(a.alloc(1).is_none());
        assert_eq!(a.free_bytes(), 0);
    }
}
