//! Flash operation latency model.
//!
//! The paper (§IV) emulates the SSD's I/O delay with fixed per-operation
//! latencies: 25 µs to read a page, 200 µs to program a page, and 2 ms to
//! erase a block. Every operation on [`crate::Ssd`] returns the simulated
//! device time it consumed, built from these constants.

use edm_snap::{snapshot_struct, SnapReader, SnapWriter, Snapshot};

/// Simulated device time, in microseconds.
///
/// A thin newtype so that callers cannot confuse device time with other
/// `u64` quantities (page numbers, byte counts, ...). Device times add up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceTime(pub u64);

impl DeviceTime {
    pub const ZERO: DeviceTime = DeviceTime(0);

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    pub fn saturating_sub(self, rhs: DeviceTime) -> DeviceTime {
        DeviceTime(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for DeviceTime {
    type Output = DeviceTime;
    fn add(self, rhs: DeviceTime) -> DeviceTime {
        DeviceTime(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for DeviceTime {
    fn add_assign(&mut self, rhs: DeviceTime) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for DeviceTime {
    type Output = DeviceTime;
    fn mul(self, rhs: u64) -> DeviceTime {
        DeviceTime(self.0 * rhs)
    }
}

impl std::iter::Sum for DeviceTime {
    fn sum<I: Iterator<Item = DeviceTime>>(iter: I) -> DeviceTime {
        iter.fold(DeviceTime::ZERO, |a, b| a + b)
    }
}

/// Per-operation latencies of the flash device, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Time to read one page.
    pub page_read_us: u64,
    /// Time to program one page.
    pub page_write_us: u64,
    /// Time to erase one block.
    pub block_erase_us: u64,
}

impl LatencyModel {
    /// The paper's configuration: 25 µs read, 200 µs write, 2 ms erase.
    pub const PAPER: LatencyModel = LatencyModel {
        page_read_us: 25,
        page_write_us: 200,
        block_erase_us: 2_000,
    };

    /// A zero-latency model, useful for pure wear-accounting experiments
    /// where time does not matter (e.g. the Fig. 3 uᵣ sweep).
    pub const INSTANT: LatencyModel = LatencyModel {
        page_read_us: 0,
        page_write_us: 0,
        block_erase_us: 0,
    };

    pub fn read_pages(&self, n: u64) -> DeviceTime {
        DeviceTime(self.page_read_us * n)
    }

    pub fn write_pages(&self, n: u64) -> DeviceTime {
        DeviceTime(self.page_write_us * n)
    }

    pub fn erase_blocks(&self, n: u64) -> DeviceTime {
        DeviceTime(self.block_erase_us * n)
    }

    /// Time for one GC pass that relocates `valid` pages and erases one
    /// block: read + program each valid page, then erase.
    pub fn gc_pass(&self, valid: u64) -> DeviceTime {
        self.read_pages(valid) + self.write_pages(valid) + self.erase_blocks(1)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::PAPER
    }
}

impl Snapshot for DeviceTime {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader) -> Self {
        DeviceTime(r.take_u64())
    }
}

snapshot_struct!(LatencyModel {
    page_read_us,
    page_write_us,
    block_erase_us
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies_match_section_iv() {
        let m = LatencyModel::PAPER;
        assert_eq!(m.page_read_us, 25);
        assert_eq!(m.page_write_us, 200);
        assert_eq!(m.block_erase_us, 2_000);
    }

    #[test]
    fn device_time_arithmetic() {
        let t = DeviceTime(10) + DeviceTime(5);
        assert_eq!(t, DeviceTime(15));
        assert_eq!(t * 3, DeviceTime(45));
        assert_eq!(t.saturating_sub(DeviceTime(20)), DeviceTime::ZERO);
        let sum: DeviceTime = [DeviceTime(1), DeviceTime(2), DeviceTime(3)]
            .into_iter()
            .sum();
        assert_eq!(sum, DeviceTime(6));
        assert!((DeviceTime(2_500_000).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn gc_pass_accounts_for_relocations_and_erase() {
        let m = LatencyModel::PAPER;
        // 5 valid pages: 5 reads + 5 writes + 1 erase.
        assert_eq!(m.gc_pass(5).as_micros(), 5 * 25 + 5 * 200 + 2_000);
        // Empty victim: only the erase.
        assert_eq!(m.gc_pass(0).as_micros(), 2_000);
    }

    #[test]
    fn instant_model_is_free() {
        let m = LatencyModel::INSTANT;
        assert_eq!(m.gc_pass(100), DeviceTime::ZERO);
        assert_eq!(m.write_pages(1000), DeviceTime::ZERO);
    }
}
