//! Trace operations.
//!
//! The paper extracts "the write, read, open and close operations from the
//! NFS trace file" (§V.A); these four operation kinds are what a trace
//! record carries.

use edm_snap::{SnapReader, SnapWriter, Snapshot};

/// Identifier of a file in a trace (maps to an inode number in the
/// cluster; the paper places objects by `inode mod n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// One file operation, as extracted from an NFS trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileOp {
    Open,
    Close,
    /// Read `len` bytes at byte `offset`.
    Read {
        offset: u64,
        len: u64,
    },
    /// Write `len` bytes at byte `offset`.
    Write {
        offset: u64,
        len: u64,
    },
}

impl FileOp {
    pub fn is_write(&self) -> bool {
        matches!(self, FileOp::Write { .. })
    }

    /// Payload bytes moved by this op (0 for open/close).
    pub fn len(&self) -> u64 {
        match self {
            FileOp::Read { len, .. } | FileOp::Write { len, .. } => *len,
            _ => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One record of a trace: a timestamped operation by one user on one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival time in microseconds from trace start. Records in a trace
    /// are sorted by this field.
    pub time_us: u64,
    /// Originating user; the replayer assigns users' records to clients
    /// ("all trace records of multiple users are evenly assigned to each
    /// client", §V.A).
    pub user: u32,
    pub file: FileId,
    pub op: FileOp,
}

impl Snapshot for FileId {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }
    fn load(r: &mut SnapReader) -> Self {
        FileId(r.take_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(!FileOp::Read { offset: 0, len: 1 }.is_write());
        assert!(FileOp::Write { offset: 0, len: 1 }.is_write());
        assert!(!FileOp::Close.is_write());
    }

    #[test]
    fn op_len_only_for_data_ops() {
        assert_eq!(FileOp::Open.len(), 0);
        assert_eq!(FileOp::Close.len(), 0);
        assert!(FileOp::Open.is_empty());
        assert_eq!(FileOp::Read { offset: 4, len: 17 }.len(), 17);
        assert_eq!(
            FileOp::Write {
                offset: 0,
                len: 8192
            }
            .len(),
            8192
        );
    }
}
