//! Physical geometry of the simulated NAND flash device.
//!
//! The paper (§IV) configures the SSD with 4 KB pages and 128 KB blocks,
//! i.e. 32 pages per block. Reads and writes operate on pages; erases
//! operate on whole blocks ("out-of-place update", §I).

use edm_snap::snapshot_struct;

/// Default page size used in the paper: 4 KB.
pub const DEFAULT_PAGE_SIZE: u64 = 4 * 1024;
/// Default block size used in the paper: 128 KB (32 pages).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * 1024;

/// Static geometry of a flash device.
///
/// The device exposes `exported_pages()` logical pages to the host; the
/// remainder of the raw capacity is over-provisioned space that the
/// garbage collector uses as headroom (§I, §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Bytes per flash page (unit of read/program).
    pub page_size: u64,
    /// Pages per erase block (`Np` in the paper's wear model, Eq. 1).
    pub pages_per_block: u32,
    /// Total number of physical erase blocks.
    pub blocks: u32,
    /// Fraction of raw capacity hidden from the host as over-provisioning,
    /// in parts-per-thousand (e.g. `80` = 8 %).
    pub over_provision_ppt: u32,
}

impl Geometry {
    /// Geometry matching the paper's configuration, sized to hold
    /// `exported_bytes` of host-visible capacity.
    pub fn for_exported_capacity(exported_bytes: u64) -> Self {
        let g = Geometry {
            page_size: DEFAULT_PAGE_SIZE,
            pages_per_block: (DEFAULT_BLOCK_SIZE / DEFAULT_PAGE_SIZE) as u32,
            blocks: 0,
            over_provision_ppt: 80,
        };
        let exported_pages = exported_bytes.div_ceil(g.page_size);
        // raw = exported / (1 - op); round blocks up and keep at least the
        // minimum pool the GC needs to make forward progress.
        let raw_pages = (exported_pages * 1000).div_ceil(1000 - g.over_provision_ppt as u64);
        let blocks = raw_pages
            .div_ceil(g.pages_per_block as u64)
            .max(Self::MIN_BLOCKS as u64) as u32;
        Geometry { blocks, ..g }
    }

    /// Smallest device we allow: the GC needs spare blocks to relocate into.
    pub const MIN_BLOCKS: u32 = 8;

    /// Total physical pages on the device.
    pub fn physical_pages(&self) -> u64 {
        self.blocks as u64 * self.pages_per_block as u64
    }

    /// Logical pages exported to the host (physical minus over-provisioning).
    pub fn exported_pages(&self) -> u64 {
        self.physical_pages() * (1000 - self.over_provision_ppt as u64) / 1000
    }

    /// Host-visible capacity in bytes.
    pub fn exported_bytes(&self) -> u64 {
        self.exported_pages() * self.page_size
    }

    /// Validates internal consistency; returns a description of the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_size == 0 {
            return Err("page_size must be non-zero".into());
        }
        if self.pages_per_block == 0 {
            return Err("pages_per_block must be non-zero".into());
        }
        if self.blocks < Self::MIN_BLOCKS {
            return Err(format!("need at least {} blocks", Self::MIN_BLOCKS));
        }
        if self.over_provision_ppt >= 1000 {
            return Err("over_provision_ppt must be < 1000".into());
        }
        // The FTL maps hold 4-byte page numbers with `u32::MAX` unmapped.
        if self.physical_pages() > u32::MAX as u64 {
            return Err("physical pages overflow the FTL's 4-byte page numbers".into());
        }
        if self.exported_pages() == 0 {
            return Err("device exports no logical pages".into());
        }
        Ok(())
    }
}

impl Default for Geometry {
    /// A small (64 MB exported) device with paper-default page/block sizes,
    /// convenient for tests.
    fn default() -> Self {
        Geometry::for_exported_capacity(64 * 1024 * 1024)
    }
}

snapshot_struct!(
    Geometry { page_size, pages_per_block, blocks, over_provision_ppt },
    check = "geometry": Geometry::validate
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_has_32_pages_per_block() {
        let g = Geometry::default();
        assert_eq!(g.page_size, 4096);
        assert_eq!(g.pages_per_block, 32);
    }

    #[test]
    fn exported_capacity_is_at_least_requested() {
        for mb in [1u64, 7, 64, 129, 1000] {
            let want = mb * 1024 * 1024;
            let g = Geometry::for_exported_capacity(want);
            assert!(
                g.exported_bytes() >= want,
                "asked {want} got {}",
                g.exported_bytes()
            );
            g.validate().unwrap();
        }
    }

    #[test]
    fn over_provisioning_reserves_physical_space() {
        let g = Geometry::for_exported_capacity(256 * 1024 * 1024);
        assert!(g.physical_pages() > g.exported_pages());
        let op = 1.0 - g.exported_pages() as f64 / g.physical_pages() as f64;
        assert!((op - 0.08).abs() < 0.001, "op ratio was {op}");
    }

    #[test]
    fn validate_rejects_degenerate_geometry() {
        let g = Geometry {
            page_size: 0,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());

        let g = Geometry {
            blocks: 2,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());

        let g = Geometry {
            over_provision_ppt: 1000,
            ..Geometry::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn page_counts_must_fit_four_bytes() {
        let fits = Geometry {
            blocks: u32::MAX / 32,
            ..Geometry::default()
        };
        fits.validate().unwrap();
        let err = Geometry {
            blocks: u32::MAX / 32 + 1,
            ..fits
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("4-byte page numbers"), "{err}");
    }

    #[test]
    fn min_device_is_buildable() {
        let g = Geometry::for_exported_capacity(1);
        assert_eq!(g.blocks, Geometry::MIN_BLOCKS);
        g.validate().unwrap();
    }
}
