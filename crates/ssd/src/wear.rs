//! Wear and garbage-collection statistics.
//!
//! These counters are what the paper's evaluation measures: total block
//! erase count and write pages per SSD (Fig. 1, Fig. 6), plus the average
//! valid-page ratio of GC victim blocks, uᵣ, which the wear model of
//! §III.B.1 estimates from utilization (Fig. 3).
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(clippy::float_cmp)]

use edm_snap::snapshot_struct;

/// Cumulative wear counters of one SSD.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Pages written by the host (`Wc` in the paper, Eq. 1). Excludes GC
    /// relocation writes, which are accounted separately as amplification.
    pub host_page_writes: u64,
    /// Pages read by the host.
    pub host_page_reads: u64,
    /// Pages relocated by garbage collection (write amplification): the
    /// victims' valid pages at reclaim time.
    pub gc_page_moves: u64,
    /// Total block erase operations (`Ec` in the paper, Eq. 1). Every
    /// erase reclaims one GC victim, so this is also the victim count.
    pub block_erases: u64,
}

impl WearStats {
    /// Measured average valid-page ratio of victim blocks (uᵣ): pages
    /// relocated per erase over `Np`. Returns `None` until at least one
    /// GC pass has run.
    pub fn measured_ur(&self, pages_per_block: u32) -> Option<f64> {
        if self.block_erases == 0 {
            return None;
        }
        Some(self.gc_page_moves as f64 / (self.block_erases * pages_per_block as u64) as f64)
    }

    /// Write amplification factor: (host writes + GC moves) / host writes.
    /// Returns `None` before the first host write.
    pub fn write_amplification(&self) -> Option<f64> {
        if self.host_page_writes == 0 {
            return None;
        }
        Some((self.host_page_writes + self.gc_page_moves) as f64 / self.host_page_writes as f64)
    }

    /// Resets every counter; used after the steady-state warm-up (§IV:
    /// "dummy data equal to the SSD's capacity are first written ... to
    /// skip the cold-start").
    pub fn reset(&mut self) {
        *self = WearStats::default();
    }

    /// Adds another stats block into this one (cluster-wide aggregation,
    /// Fig. 6 reports aggregate erase counts over all OSDs).
    pub fn merge(&mut self, other: &WearStats) {
        self.host_page_writes += other.host_page_writes;
        self.host_page_reads += other.host_page_reads;
        self.gc_page_moves += other.gc_page_moves;
        self.block_erases += other.block_erases;
    }
}

snapshot_struct!(WearStats {
    host_page_writes,
    host_page_reads,
    gc_page_moves,
    block_erases
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ur_requires_a_victim() {
        let mut s = WearStats::default();
        assert_eq!(s.measured_ur(32), None);
        s.block_erases = 4;
        s.gc_page_moves = 4 * 8; // 8 of 32 pages valid on average
        let ur = s.measured_ur(32).unwrap();
        assert!((ur - 0.25).abs() < 1e-12);
    }

    #[test]
    fn write_amplification_counts_gc_moves() {
        let mut s = WearStats::default();
        assert_eq!(s.write_amplification(), None);
        s.host_page_writes = 100;
        s.gc_page_moves = 50;
        assert!((s.write_amplification().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_all_fields() {
        let mut a = WearStats {
            host_page_writes: 1,
            host_page_reads: 2,
            gc_page_moves: 3,
            block_erases: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.host_page_writes, 2);
        assert_eq!(a.host_page_reads, 4);
        assert_eq!(a.gc_page_moves, 6);
        assert_eq!(a.block_erases, 8);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = WearStats {
            host_page_writes: 9,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s.host_page_writes, 0);
    }
}
