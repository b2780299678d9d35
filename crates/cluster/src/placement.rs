//! Hash-based object placement and SSD groups (§III.A).
//!
//! Each file gets `k` objects placed on `k` continuous SSDs starting at
//! `inode mod n`. The `n` SSDs are partitioned into `m` groups with
//! `group(ssd j) = j mod m`, so Group_i = {ssd_i, ssd_{m+i}, ...,
//! ssd_{m·r+i}}; consecutive SSDs belong to different groups, which places
//! any two objects of a file in different groups whenever `k ≤ m`. Data
//! migration is intra-group only, preserving that property (§III.D).

use edm_snap::snapshot_struct;

use crate::ids::{GroupId, ObjectId, OsdId};
use edm_workload::FileId;

/// Placement parameters of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Total number of OSDs (`n`).
    pub osds: u32,
    /// Number of SSD groups (`m`); the paper uses m = 4 (§V.A).
    pub groups: u32,
    /// Objects per file (`k`); the paper uses k = 4 (§V.A).
    pub objects_per_file: u32,
}

impl Placement {
    pub fn new(osds: u32, groups: u32, objects_per_file: u32) -> Self {
        let p = Placement {
            osds,
            groups,
            objects_per_file,
        };
        #[expect(
            clippy::expect_used,
            reason = "constructor contract: callers pass validated parameters; a bad config is a programming error"
        )]
        p.validate().expect("invalid placement parameters");
        p
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.osds == 0 {
            return Err("need at least one OSD".into());
        }
        if self.groups == 0 || self.groups > self.osds {
            return Err("need 1 <= groups <= osds".into());
        }
        if self.objects_per_file == 0 {
            return Err("need at least one object per file".into());
        }
        if self.objects_per_file > self.osds {
            return Err("objects_per_file cannot exceed the OSD count".into());
        }
        if self.objects_per_file > self.groups {
            return Err(
                "objects_per_file must not exceed the group count, or two objects \
                 of one file would share a group and intra-group migration could \
                 break RAID-5 fault independence (§III.D)"
                    .into(),
            );
        }
        Ok(())
    }

    /// The paper's experimental setup: m = 4 groups, k = 4 objects/file.
    pub fn paper(osds: u32) -> Self {
        Placement::new(osds, 4, 4)
    }

    /// Cluster-wide object id of object `index` of `file` (continuous
    /// allocation).
    pub fn object_id(&self, file: FileId, index: u32) -> ObjectId {
        debug_assert!(index < self.objects_per_file);
        ObjectId(file.0 * self.objects_per_file as u64 + index as u64)
    }

    /// Inverse of [`Placement::object_id`].
    pub fn object_owner(&self, object: ObjectId) -> (FileId, u32) {
        (
            FileId(object.0 / self.objects_per_file as u64),
            (object.0 % self.objects_per_file as u64) as u32,
        )
    }

    /// Home OSD of object `index` of `file`.
    ///
    /// When the OSD count divides evenly into the groups (the only
    /// configurations the paper evaluates), this is exactly the paper's
    /// rule: the first object goes to `inode mod n` and the rest to the
    /// following continuous SSDs — which lands each object in a distinct
    /// group because `group(j) = j mod m`.
    ///
    /// When `n mod m ≠ 0` (uneven groups, the §III.D differentiation),
    /// the continuous rule would wrap around the end of the cluster and
    /// could put two objects of one file in the same group, breaking
    /// RAID-5 fault independence. In that case placement goes group-first:
    /// object `i` targets group `(inode + i) mod m` and hashes to a member
    /// within it, preserving both uniformity and the distinct-group
    /// guarantee.
    pub fn home_osd(&self, file: FileId, index: u32) -> OsdId {
        debug_assert!(index < self.objects_per_file);
        if self.osds.is_multiple_of(self.groups) {
            return OsdId(((file.0 + index as u64) % self.osds as u64) as u32);
        }
        let group = ((file.0 + index as u64) % self.groups as u64) as u32;
        // Members of group g are g, g+m, g+2m, ... ; their count is
        // ceil((n - g) / m).
        let members = (self.osds - group).div_ceil(self.groups);
        let slot = (file.0 / self.groups as u64) % members as u64;
        OsdId(group + slot as u32 * self.groups)
    }

    /// Group of an OSD: `j mod m`.
    pub fn group_of(&self, osd: OsdId) -> GroupId {
        GroupId(osd.0 % self.groups)
    }

    /// All OSDs of one group, ascending.
    pub fn group_members(&self, group: GroupId) -> Vec<OsdId> {
        (0..self.osds)
            .filter(|j| j % self.groups == group.0)
            .map(OsdId)
            .collect()
    }
}

snapshot_struct!(
    Placement { osds, groups, objects_per_file },
    check = "placement": Placement::validate
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_is_valid() {
        let p = Placement::paper(20);
        assert_eq!(p.groups, 4);
        assert_eq!(p.objects_per_file, 4);
        p.validate().unwrap();
    }

    #[test]
    fn first_object_at_inode_mod_n() {
        let p = Placement::paper(16);
        assert_eq!(p.home_osd(FileId(5), 0), OsdId(5));
        assert_eq!(p.home_osd(FileId(21), 0), OsdId(5));
        assert_eq!(p.home_osd(FileId(5), 3), OsdId(8));
        // Wraps around the end of the cluster.
        assert_eq!(p.home_osd(FileId(15), 2), OsdId(1));
    }

    #[test]
    fn objects_of_a_file_land_in_distinct_groups() {
        // Divisible and uneven cluster sizes alike (the uneven case uses
        // the group-first fallback documented on `home_osd`).
        for n in [20, 18, 10, 5, 7] {
            let m = 4.min(n);
            let p = Placement::new(n, m, m);
            for inode in 0..200u64 {
                let groups: std::collections::HashSet<GroupId> = (0..p.objects_per_file)
                    .map(|i| p.group_of(p.home_osd(FileId(inode), i)))
                    .collect();
                assert_eq!(
                    groups.len(),
                    p.objects_per_file as usize,
                    "n = {n}, inode = {inode}"
                );
            }
        }
    }

    #[test]
    fn divisible_clusters_use_the_paper_rule_exactly() {
        let p = Placement::paper(20);
        for inode in 0..50u64 {
            for i in 0..4u32 {
                assert_eq!(
                    p.home_osd(FileId(inode), i),
                    OsdId(((inode + i as u64) % 20) as u32)
                );
            }
        }
    }

    #[test]
    fn uneven_clusters_place_objects_on_distinct_osds() {
        let p = Placement::new(18, 4, 4);
        for inode in 0..200u64 {
            let osds: std::collections::HashSet<OsdId> =
                (0..4).map(|i| p.home_osd(FileId(inode), i)).collect();
            assert_eq!(osds.len(), 4, "inode {inode}");
            #[expect(
                clippy::iter_over_hash_type,
                reason = "one assertion per element; order cannot matter"
            )]
            for o in &osds {
                assert!(o.0 < 18);
            }
        }
    }

    #[test]
    fn group_members_match_paper_formula() {
        // Group_i = {ssd_i, ssd_{m+i}, ..., ssd_{m*r+i}} (§III.A, Fig. 2).
        let p = Placement::paper(20);
        assert_eq!(
            p.group_members(GroupId(1)),
            vec![OsdId(1), OsdId(5), OsdId(9), OsdId(13), OsdId(17)]
        );
        // Every OSD in exactly one group.
        let mut all: Vec<OsdId> = (0..4).flat_map(|g| p.group_members(GroupId(g))).collect();
        all.sort();
        assert_eq!(all, (0..20).map(OsdId).collect::<Vec<_>>());
    }

    #[test]
    fn object_id_roundtrip() {
        let p = Placement::paper(16);
        for inode in [0u64, 1, 999] {
            for idx in 0..4 {
                let oid = p.object_id(FileId(inode), idx);
                assert_eq!(p.object_owner(oid), (FileId(inode), idx));
            }
        }
    }

    #[test]
    fn object_ids_are_continuous() {
        let p = Placement::paper(16);
        assert_eq!(p.object_id(FileId(0), 0), ObjectId(0));
        assert_eq!(p.object_id(FileId(0), 3), ObjectId(3));
        assert_eq!(p.object_id(FileId(1), 0), ObjectId(4));
    }

    #[test]
    fn uneven_group_sizes_are_supported() {
        // §III.D differentiates the number of SSDs per group; 18 OSDs in 4
        // groups gives groups of 5, 5, 4, 4.
        let p = Placement::new(18, 4, 4);
        let sizes: Vec<usize> = (0..4).map(|g| p.group_members(GroupId(g)).len()).collect();
        assert_eq!(sizes, vec![5, 5, 4, 4]);
    }

    #[test]
    fn k_greater_than_m_is_rejected() {
        assert!(Placement {
            osds: 20,
            groups: 2,
            objects_per_file: 4
        }
        .validate()
        .is_err());
    }
}
