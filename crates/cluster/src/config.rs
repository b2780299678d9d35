//! Cluster simulation configuration (§IV–§V.A defaults).

use edm_snap::snapshot_struct;

use edm_ssd::{FtlConfig, LatencyModel};

use crate::placement::Placement;

/// OSD ids the replay engine's event keys can carry (22 bits, see
/// `EventQueue` in sim.rs); [`ClusterConfig::validate`] refuses more.
pub(crate) const MAX_OSDS: u32 = 1 << 22;

/// Everything needed to build and drive one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of OSDs (`n`); the paper evaluates 16 and 20.
    pub osds: u32,
    /// Number of SSD groups (`m = 4` in §V.A).
    pub groups: u32,
    /// Objects per file (`k = 4` in §V.A).
    pub objects_per_file: u32,
    /// Number of load-generating clients; the paper uses half the OSD
    /// count (§V.A). `None` ⇒ `osds / 2`.
    pub clients: Option<u32>,
    /// Outstanding file operations per client — the paper replays with "a
    /// multi-thread trace replaying tool" (§IV), so each client keeps
    /// several requests in flight; this is what builds queues at hot OSDs.
    pub client_concurrency: u32,
    /// Flash latencies.
    pub latency: LatencyModel,
    /// FTL tunables of every SSD (victim policy, static wear leveling).
    pub ftl: FtlConfig,
    /// Interval of the wear-monitor tick, µs (the paper recomputes Eq. 4
    /// "every minute", §III.B.2).
    pub wear_tick_us: u64,
    /// Width of a response-time reporting window, µs (Fig. 7 averages over
    /// the past 3 minutes).
    pub response_window_us: u64,
    /// Skip the steady-state warm-up (§IV) — only for fast unit tests.
    pub skip_warm_up: bool,
}

impl ClusterConfig {
    /// The paper's setup for `osds` storage nodes.
    pub fn paper(osds: u32) -> Self {
        ClusterConfig {
            osds,
            groups: 4,
            objects_per_file: 4,
            clients: None,
            client_concurrency: 64,
            latency: LatencyModel::PAPER,
            ftl: FtlConfig::default(),
            wear_tick_us: 60 * 1_000_000,
            response_window_us: 180 * 1_000_000,
            skip_warm_up: false,
        }
    }

    /// A small fast configuration for unit tests: 8 OSDs, warm-up skipped.
    pub fn test_small() -> Self {
        ClusterConfig {
            skip_warm_up: true,
            ..ClusterConfig::paper(8)
        }
    }

    pub fn placement(&self) -> Placement {
        Placement::new(self.osds, self.groups, self.objects_per_file)
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
        if self.osds >= MAX_OSDS {
            return Err(format!("{} OSDs overflow the event queue's key", self.osds));
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
        Ok(())
    }
}

snapshot_struct!(
    ClusterConfig {
        osds,
        groups,
        objects_per_file,
        clients,
        client_concurrency,
        latency,
        ftl,
        wear_tick_us,
        response_window_us,
        skip_warm_up,
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
        c.wear_tick_us = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(16);
        c.client_concurrency = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::paper(16);
        c.groups = 64; // more groups than OSDs? no — more than osds is invalid
        c.osds = 8;
        assert!(c.validate().is_err());
    }

    #[test]
    fn osd_count_must_fit_the_event_key() {
        let mut c = ClusterConfig::paper(MAX_OSDS - 4);
        c.validate().unwrap();
        c.osds = MAX_OSDS;
        let err = c.validate().unwrap_err();
        assert!(err.contains("event queue's key"), "{err}");
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
