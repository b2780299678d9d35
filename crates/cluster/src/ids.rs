//! Strongly typed identifiers used across the cluster simulator.

use edm_snap::{SnapReader, SnapWriter, Snapshot};

/// Index of an OSD (object-based storage device) in the cluster; the paper
/// numbers the `n` OSDs 0..n and derives placement from `inode mod n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OsdId(pub u32);

/// Index of an SSD group (§III.A): group *i* contains OSDs
/// `{i, m+i, 2m+i, ...}`; migration is restricted to within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

/// Cluster-wide object identifier. The paper allocates object numbers
/// continuously (§V intro); we use `inode * k + object_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// A load-generating replay client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl std::fmt::Display for OsdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "osd{}", self.0)
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group{}", self.0)
    }
}

macro_rules! id_snapshot {
    ($ty:ident, $put:ident, $take:ident) => {
        impl Snapshot for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.$put(self.0);
            }
            fn load(r: &mut SnapReader) -> Self {
                $ty(r.$take())
            }
        }
    };
}

id_snapshot!(OsdId, put_u32, take_u32);
id_snapshot!(GroupId, put_u32, take_u32);
id_snapshot!(ObjectId, put_u64, take_u64);
id_snapshot!(ClientId, put_u32, take_u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(OsdId(1) < OsdId(2));
        assert_eq!(OsdId(3).to_string(), "osd3");
        assert_eq!(ObjectId(9).to_string(), "obj9");
        assert_eq!(GroupId(0).to_string(), "group0");
        assert_eq!(ClientId(1), ClientId(1));
    }
}
