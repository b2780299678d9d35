//! The trace container: an ordered sequence of [`TraceRecord`]s plus the
//! per-file sizes needed to pre-create and populate the files before
//! replay (§V.A: "all files related in the trace file are pre-created and
//! populated with sufficient data").
//!
//! Traces live only in memory: they are synthesized from a
//! [`crate::WorkloadSpec`] and combined by [`crate::transform`].

use std::collections::BTreeMap;

use crate::op::{FileId, FileOp, TraceRecord};

/// Aggregate statistics of a trace — the columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    pub file_cnt: u64,
    pub write_cnt: u64,
    pub avg_write_size: u64,
    pub read_cnt: u64,
    pub avg_read_size: u64,
    pub open_cnt: u64,
    pub close_cnt: u64,
    pub total_write_bytes: u64,
    pub total_read_bytes: u64,
}

/// A complete workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub name: String,
    /// Records sorted by `time_us`.
    pub records: Vec<TraceRecord>,
    /// Size of each file referenced by the trace, in bytes.
    pub file_sizes: BTreeMap<FileId, u64>,
}

impl Trace {
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            records: Vec::new(),
            file_sizes: BTreeMap::new(),
        }
    }

    /// Total bytes of all files (the dataset footprint that determines
    /// cluster utilization).
    pub fn footprint_bytes(&self) -> u64 {
        self.file_sizes.values().sum()
    }

    /// Computes Table 1-style statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats {
            file_cnt: self.file_sizes.len() as u64,
            write_cnt: 0,
            avg_write_size: 0,
            read_cnt: 0,
            avg_read_size: 0,
            open_cnt: 0,
            close_cnt: 0,
            total_write_bytes: 0,
            total_read_bytes: 0,
        };
        for r in &self.records {
            match r.op {
                FileOp::Write { len, .. } => {
                    s.write_cnt += 1;
                    s.total_write_bytes += len;
                }
                FileOp::Read { len, .. } => {
                    s.read_cnt += 1;
                    s.total_read_bytes += len;
                }
                FileOp::Open => s.open_cnt += 1,
                FileOp::Close => s.close_cnt += 1,
            }
        }
        s.avg_write_size = s.total_write_bytes.checked_div(s.write_cnt).unwrap_or(0);
        s.avg_read_size = s.total_read_bytes.checked_div(s.read_cnt).unwrap_or(0);
        s
    }

    /// Checks structural well-formedness: records sorted by time, every
    /// referenced file has a size, every access fits inside its file and
    /// moves at most `u32::MAX` bytes.
    pub fn validate(&self) -> Result<(), String> {
        for (a, b) in self.records.iter().zip(self.records.iter().skip(1)) {
            if a.time_us > b.time_us {
                return Err(format!(
                    "records out of order: {} then {}",
                    a.time_us, b.time_us
                ));
            }
        }
        for (i, r) in self.records.iter().enumerate() {
            let Some(&size) = self.file_sizes.get(&r.file) else {
                return Err(format!("record {i} references unknown file {:?}", r.file));
            };
            if let FileOp::Read { offset, len } | FileOp::Write { offset, len } = r.op {
                if len == 0 {
                    return Err(format!("record {i} has zero length"));
                }
                // The replayer carries an op's length in 4 bytes.
                if len > u32::MAX as u64 {
                    return Err(format!("record {i} has length {len}, beyond u32"));
                }
                if offset.checked_add(len).is_none_or(|end| end > size) {
                    return Err(format!(
                        "record {i} accesses {len} bytes at {offset}, beyond file size {size}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// FNV-1a digest of the full trace content (name, every record, every
    /// file size). A resumed simulation re-synthesizes its trace from the
    /// checkpointed [`crate::WorkloadSpec`] and compares this fingerprint
    /// against the one recorded at checkpoint time, so a drifted generator
    /// or edited scenario is caught before replay diverges silently.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        for b in self.name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(PRIME);
        }
        eat(&mut h, self.records.len() as u64);
        for r in &self.records {
            eat(&mut h, r.time_us);
            eat(&mut h, r.user as u64);
            eat(&mut h, r.file.0);
            let (tag, offset, len) = match r.op {
                FileOp::Open => (0u64, 0, 0),
                FileOp::Close => (1, 0, 0),
                FileOp::Read { offset, len } => (2, offset, len),
                FileOp::Write { offset, len } => (3, offset, len),
            };
            eat(&mut h, tag);
            eat(&mut h, offset);
            eat(&mut h, len);
        }
        eat(&mut h, self.file_sizes.len() as u64);
        for (f, size) in &self.file_sizes {
            eat(&mut h, f.0);
            eat(&mut h, *size);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.file_sizes.insert(FileId(1), 100_000);
        t.file_sizes.insert(FileId(2), 50_000);
        t.records = vec![
            TraceRecord {
                time_us: 0,
                user: 0,
                file: FileId(1),
                op: FileOp::Open,
            },
            TraceRecord {
                time_us: 10,
                user: 0,
                file: FileId(1),
                op: FileOp::Write {
                    offset: 0,
                    len: 8192,
                },
            },
            TraceRecord {
                time_us: 20,
                user: 1,
                file: FileId(2),
                op: FileOp::Read {
                    offset: 4096,
                    len: 4096,
                },
            },
            TraceRecord {
                time_us: 30,
                user: 0,
                file: FileId(1),
                op: FileOp::Close,
            },
        ];
        t
    }

    #[test]
    fn stats_count_by_kind() {
        let s = sample().stats();
        assert_eq!(s.file_cnt, 2);
        assert_eq!(s.write_cnt, 1);
        assert_eq!(s.read_cnt, 1);
        assert_eq!(s.open_cnt, 1);
        assert_eq!(s.close_cnt, 1);
        assert_eq!(s.avg_write_size, 8192);
        assert_eq!(s.avg_read_size, 4096);
    }

    #[test]
    fn validate_accepts_wellformed() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_order() {
        let mut t = sample();
        t.records.swap(0, 3);
        assert!(t.validate().unwrap_err().contains("out of order"));
    }

    #[test]
    fn validate_rejects_unknown_file() {
        let mut t = sample();
        t.records[1].file = FileId(99);
        assert!(t.validate().unwrap_err().contains("unknown file"));
    }

    #[test]
    fn validate_rejects_access_beyond_eof() {
        let mut t = sample();
        t.records[1].op = FileOp::Write {
            offset: 99_999,
            len: 8192,
        };
        assert!(t.validate().unwrap_err().contains("beyond file size"));
        // An extent that wraps past u64::MAX is beyond every file.
        t.records[1].op = FileOp::Write {
            offset: u64::MAX,
            len: 2,
        };
        assert!(t.validate().unwrap_err().contains("beyond file size"));
    }

    #[test]
    fn validate_rejects_an_op_longer_than_u32() {
        let mut t = sample();
        let file = t.records[1].file;
        t.file_sizes.insert(file, 1 << 33);
        t.records[1].op = FileOp::Read {
            offset: 0,
            len: u32::MAX as u64,
        };
        t.validate().unwrap();
        t.records[1].op = FileOp::Read {
            offset: 0,
            len: 1 << 32,
        };
        let err = t.validate().unwrap_err();
        assert!(err.contains("length 4294967296"), "{err}");
    }

    #[test]
    fn footprint_sums_file_sizes() {
        assert_eq!(sample().footprint_bytes(), 150_000);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let t = sample();
        assert_eq!(t.fingerprint(), sample().fingerprint());

        let mut changed = sample();
        changed.records[1].op = FileOp::Write {
            offset: 0,
            len: 8193,
        };
        assert_ne!(t.fingerprint(), changed.fingerprint());

        let mut renamed = sample();
        renamed.name = "other".into();
        assert_ne!(t.fingerprint(), renamed.fingerprint());

        let mut resized = sample();
        resized.file_sizes.insert(FileId(2), 50_001);
        assert_ne!(t.fingerprint(), resized.fingerprint());
    }
}
