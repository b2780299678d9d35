//! Cluster simulation configuration (§IV–§V.A defaults).

use edm_snap::snapshot_struct;

use edm_ssd::{FtlConfig, LatencyModel};

use crate::placement::Placement;
use crate::raid::StripeLayout;

/// Everything needed to build and drive one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of OSDs (`n`); the paper evaluates 16 and 20.
    pub osds: u32,
    /// Number of SSD groups (`m = 4` in §V.A).
    pub groups: u32,
    /// Objects per file (`k = 4` in §V.A).
    pub objects_per_file: u32,
    /// RAID-5 stripe unit in bytes.
    pub stripe_unit: u64,
    /// Number of load-generating clients; the paper uses half the OSD
    /// count (§V.A). `None` ⇒ `osds / 2`.
    pub clients: Option<u32>,
    /// Outstanding file operations per client — the paper replays with "a
    /// multi-thread trace replaying tool" (§IV), so each client keeps
    /// several requests in flight; this is what builds queues at hot OSDs.
    pub client_concurrency: u32,
    /// Target utilization of the *most utilized* SSD; capacities are sized
    /// so this holds ("maximum utilization among all SSDs is about 70
    /// percent", §IV).
    pub target_max_utilization: f64,
    /// Flash latencies.
    pub latency: LatencyModel,
    /// FTL tunables of every SSD (GC watermarks, victim policy, wear
    /// leveling).
    pub ftl: FtlConfig,
    /// Fixed per-subrequest overhead at an OSD (network + request
    /// processing), µs.
    pub osd_overhead_us: u64,
    /// Latency of a metadata (open/close) operation at the MDS, µs.
    pub mds_latency_us: u64,
    /// Interval of the wear-monitor tick, µs (the paper recomputes Eq. 4
    /// "every minute", §III.B.2).
    pub wear_tick_us: u64,
    /// Width of a response-time reporting window, µs (Fig. 7 averages over
    /// the past 3 minutes).
    pub response_window_us: u64,
    /// Skip the steady-state warm-up (§IV) — only for fast unit tests.
    pub skip_warm_up: bool,
    /// Free space in each destination must not drop below this fraction of
    /// its capacity during migration ("we guarantee that the free space in
    /// each destination device does not exceed a predefined threshold",
    /// §III.B.5).
    pub dest_free_reserve: f64,
    /// Transfer chunk of the data mover, bytes. Moves stream through the
    /// OSD queues chunk by chunk so a large object does not hold a
    /// destination's head-of-line for its entire transfer.
    pub move_chunk_bytes: u64,
}

impl ClusterConfig {
    /// The paper's setup for `osds` storage nodes.
    pub fn paper(osds: u32) -> Self {
        ClusterConfig {
            osds,
            groups: 4,
            objects_per_file: 4,
            stripe_unit: StripeLayout::DEFAULT_UNIT,
            clients: None,
            client_concurrency: 64,
            target_max_utilization: 0.70,
            latency: LatencyModel::PAPER,
            ftl: FtlConfig::default(),
            osd_overhead_us: 30,
            mds_latency_us: 200,
            wear_tick_us: 60 * 1_000_000,
            response_window_us: 180 * 1_000_000,
            skip_warm_up: false,
            dest_free_reserve: 0.05,
            move_chunk_bytes: 256 * 1024,
        }
    }

    /// A small fast configuration for unit tests: 8 OSDs, tiny overheads,
    /// warm-up skipped.
    pub fn test_small() -> Self {
        ClusterConfig {
            skip_warm_up: true,
            ..ClusterConfig::paper(8)
        }
    }

    pub fn placement(&self) -> Placement {
        Placement::new(self.osds, self.groups, self.objects_per_file)
    }

    pub fn stripe_layout(&self) -> StripeLayout {
        StripeLayout::new(self.objects_per_file, self.stripe_unit)
    }

    pub fn client_count(&self) -> u32 {
        self.clients.unwrap_or((self.osds / 2).max(1))
    }

    pub fn validate(&self) -> Result<(), String> {
        Placement {
            osds: self.osds,
            groups: self.groups,
            objects_per_file: self.objects_per_file,
        }
        .validate()?;
        if !(0.0 < self.target_max_utilization && self.target_max_utilization < 1.0) {
            return Err("target_max_utilization must be in (0, 1)".into());
        }
        if !(0.0..1.0).contains(&self.dest_free_reserve) {
            return Err("dest_free_reserve must be in [0, 1)".into());
        }
        if self.wear_tick_us == 0 || self.response_window_us == 0 {
            return Err("tick and window intervals must be positive".into());
        }
        if self.client_count() == 0 {
            return Err("need at least one client".into());
        }
        if self.client_concurrency == 0 {
            return Err("client_concurrency must be positive".into());
        }
        if self.move_chunk_bytes == 0 {
            return Err("move_chunk_bytes must be positive".into());
        }
        Ok(())
    }
}

snapshot_struct!(
    ClusterConfig {
        osds,
        groups,
        objects_per_file,
        stripe_unit,
        clients,
        client_concurrency,
        target_max_utilization,
        latency,
        ftl,
        osd_overhead_us,
        mds_latency_us,
        wear_tick_us,
        response_window_us,
        skip_warm_up,
        dest_free_reserve,
        move_chunk_bytes,
    },
    check = "cluster config": ClusterConfig::validate
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_v() {
        let c = ClusterConfig::paper(20);
        assert_eq!(c.groups, 4);
        assert_eq!(c.objects_per_file, 4);
        assert_eq!(c.client_count(), 10);
        assert!((c.target_max_utilization - 0.70).abs() < 1e-12);
        assert_eq!(c.wear_tick_us, 60_000_000);
        assert_eq!(c.response_window_us, 180_000_000);
        c.validate().unwrap();
    }

    #[test]
    fn explicit_client_count_wins() {
        let mut c = ClusterConfig::paper(16);
        c.clients = Some(3);
        assert_eq!(c.client_count(), 3);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let mut c = ClusterConfig::paper(16);
        c.target_max_utilization = 1.5;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(16);
        c.wear_tick_us = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(16);
        c.groups = 64; // more groups than OSDs? no — more than osds is invalid
        c.osds = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tiny_cluster_client_floor() {
        let mut c = ClusterConfig::paper(4);
        c.clients = None;
        assert_eq!(c.client_count(), 2);
        c.osds = 1;
        c.groups = 1;
        c.objects_per_file = 1;
        assert_eq!(c.client_count(), 1);
        c.validate().unwrap();
    }
}
