//! Cluster and policy configuration for a MOON simulation run.

use availability::TraceGenConfig;
use dfs::{FileKind, NameNodeConfig, ReplicationFactor};
use mapred::{CrossJobPolicy, FetchFailurePolicy, HadoopPolicy, MoonPolicy, SchedulerPolicy};
use simkit::{SimDuration, SimTime};
use workloads::MB;

/// Physical shape of the simulated cluster. Defaults mirror the paper's
/// testbed: 60 volatile + 6 dedicated nodes, 1 GbE, commodity disks,
/// 2 map + 2 reduce slots per node.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of volunteer (volatile) nodes.
    pub n_volatile: u32,
    /// Number of dedicated nodes.
    pub n_dedicated: u32,
    /// Map slots per node (Hadoop default 2).
    pub map_slots: u32,
    /// Reduce slots per node (Hadoop default 2).
    pub reduce_slots: u32,
    /// Per-NIC bandwidth in bytes/sec (1 GbE ≈ 117 MB/s).
    pub nic_bandwidth: f64,
    /// Per-disk bandwidth in bytes/sec.
    pub disk_bandwidth: f64,
    /// Target volatile-node unavailability rate `p` (0.1 / 0.3 / 0.5).
    pub unavailability: f64,
    /// Outage-trace shape (mean 409 s Normal outages, 8 h horizon).
    pub trace: TraceGenConfig,
    /// Explicit per-node traces (volatile nodes first). When set, these
    /// override the synthetic generator — used to replay correlated
    /// "lab session" fleets or recorded traces. Length must equal the
    /// total node count; dedicated nodes may still be always-available.
    pub trace_overrides: Option<Vec<availability::AvailabilityTrace>>,
    /// Run abandonment horizon: a job not finished by then reports DNF.
    pub horizon: SimTime,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_volatile: 60,
            n_dedicated: 6,
            map_slots: 2,
            reduce_slots: 2,
            nic_bandwidth: 117.0 * MB as f64,
            disk_bandwidth: 60.0 * MB as f64,
            unavailability: 0.3,
            trace: TraceGenConfig::default(),
            trace_overrides: None,
            horizon: SimTime::from_secs(8 * 3600),
        }
    }
}

impl ClusterConfig {
    /// The paper's testbed at a given unavailability rate.
    pub fn paper(unavailability: f64) -> Self {
        ClusterConfig {
            unavailability,
            trace: TraceGenConfig::paper(unavailability),
            ..Default::default()
        }
    }

    /// A smaller cluster for fast tests (12 volatile + 2 dedicated).
    pub fn small(unavailability: f64) -> Self {
        ClusterConfig {
            n_volatile: 12,
            n_dedicated: 2,
            unavailability,
            trace: TraceGenConfig::paper(unavailability),
            ..Default::default()
        }
    }

    /// Total node count (volatile first, then dedicated, then the master
    /// — node ids are assigned in that order).
    pub fn n_nodes(&self) -> u32 {
        self.n_volatile + self.n_dedicated
    }

    /// Is this node id a dedicated node?
    pub fn is_dedicated(&self, node: u32) -> bool {
        node >= self.n_volatile && node < self.n_nodes()
    }
}

/// The software policy bundle under test: scheduler + data management.
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Task scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Cross-job ordering when several jobs run concurrently (FIFO by
    /// default; irrelevant to single-job runs).
    pub cross_job: CrossJobPolicy,
    /// Kill-and-requeue preemption in the cross-job layer (off by
    /// default; irrelevant to single-job runs).
    pub preempt: bool,
    /// Fetch-failure reaction.
    pub fetch: FetchFailurePolicy,
    /// NameNode behaviour (hybrid vs stock HDFS).
    pub namenode: NameNodeConfig,
    /// Replication factor for job input files.
    pub input_factor: ReplicationFactor,
    /// Replication factor for job output files.
    pub output_factor: ReplicationFactor,
    /// Replication factor for intermediate (map output) files.
    pub intermediate_factor: ReplicationFactor,
    /// File class for intermediate data (Opportunistic normally;
    /// Reliable in the Figure 4 isolation setup).
    pub intermediate_kind: FileKind,
    /// Label for reports ("MOON-Hybrid", "Hadoop1Min", "VO-V3", …).
    pub label: String,
}

impl PolicyConfig {
    /// MOON with hybrid-aware scheduling (the paper's best variant):
    /// input/output `{1,3}`, intermediate HA `{1,1}` opportunistic.
    pub fn moon_hybrid() -> Self {
        PolicyConfig {
            scheduler: SchedulerPolicy::Moon(MoonPolicy::default()),
            cross_job: CrossJobPolicy::Fifo,
            preempt: false,
            fetch: FetchFailurePolicy::MoonQuery,
            namenode: NameNodeConfig::default(),
            input_factor: ReplicationFactor::new(1, 3),
            output_factor: ReplicationFactor::new(1, 3),
            intermediate_factor: ReplicationFactor::new(1, 1),
            intermediate_kind: FileKind::Opportunistic,
            label: "MOON-Hybrid".into(),
        }
    }

    /// MOON without hybrid awareness (dedicated nodes serve data only).
    pub fn moon() -> Self {
        PolicyConfig {
            scheduler: SchedulerPolicy::Moon(MoonPolicy::without_hybrid()),
            label: "MOON".into(),
            ..Self::moon_hybrid()
        }
    }

    /// Stock Hadoop with the given `TrackerExpiryInterval` and uniform
    /// `n`-way replication for input/output; intermediate data volatile
    /// local-only (Hadoop replicates no intermediate data).
    pub fn hadoop(expiry: SimDuration, n_replicas: u32) -> Self {
        PolicyConfig {
            scheduler: SchedulerPolicy::Hadoop(HadoopPolicy::with_expiry(expiry)),
            cross_job: CrossJobPolicy::Fifo,
            preempt: false,
            fetch: FetchFailurePolicy::HadoopMajority,
            namenode: NameNodeConfig::hadoop(),
            input_factor: ReplicationFactor::uniform(n_replicas),
            output_factor: ReplicationFactor::uniform(n_replicas),
            intermediate_factor: ReplicationFactor::uniform(1),
            intermediate_kind: FileKind::Opportunistic,
            label: format!("Hadoop{}Min", expiry.as_secs_f64() as u64 / 60),
        }
    }

    /// "Hadoop-VO": Hadoop augmented with `v`-way volatile-only
    /// intermediate replication (the paper's Figure 7 baseline). Like the
    /// paper's augmented baseline, it runs with the remedied fetch-failure
    /// rule (§VI-B: query the file system after three failures) — the
    /// stock 50 %-rule "reaction to the loss of Map output is too slow,
    /// and as a result, a typical job runs for hours".
    pub fn hadoop_vo(expiry: SimDuration, n_replicas: u32, intermediate_v: u32) -> Self {
        PolicyConfig {
            intermediate_factor: ReplicationFactor::uniform(intermediate_v),
            fetch: FetchFailurePolicy::MoonQuery,
            label: format!("Hadoop-VO-V{intermediate_v}"),
            ..Self::hadoop(expiry, n_replicas)
        }
    }

    /// Figure 6's volatile-only (VO-Vk) intermediate policy on the MOON
    /// stack: input/output fixed `{1,3}`, MOON-Hybrid scheduling.
    pub fn vo_intermediate(v: u32) -> Self {
        PolicyConfig {
            intermediate_factor: ReplicationFactor::new(0, v),
            label: format!("VO-V{v}"),
            ..Self::moon_hybrid()
        }
    }

    /// Figure 6's hybrid-aware (HA-Vk) intermediate policy: one dedicated
    /// copy when possible plus `v` volatile minimum.
    pub fn ha_intermediate(v: u32) -> Self {
        PolicyConfig {
            intermediate_factor: ReplicationFactor::new(1, v),
            label: format!("HA-V{v}"),
            ..Self::moon_hybrid()
        }
    }

    /// Figure 4 isolation setup: intermediate data as *reliable* `{1,1}`
    /// files so scheduling effects dominate (§VI-A), applied on top of
    /// any scheduler variant.
    pub fn with_reliable_intermediate(mut self) -> Self {
        self.intermediate_factor = ReplicationFactor::new(1, 1);
        self.intermediate_kind = FileKind::Reliable;
        self
    }

    /// Cross-job max-min fair share instead of FIFO, applied on top of
    /// any scheduler variant (single-job behaviour is unchanged).
    pub fn with_fair_share(mut self) -> Self {
        self.cross_job = CrossJobPolicy::FairShare;
        self
    }

    /// Any cross-job ordering policy, applied on top of any scheduler
    /// variant (single-job behaviour is unchanged).
    pub fn with_cross_job(mut self, cross_job: CrossJobPolicy) -> Self {
        self.cross_job = cross_job;
        self
    }

    /// Kill-and-requeue preemption in the cross-job layer, applied on
    /// top of any scheduler variant.
    pub fn with_preemption(mut self) -> Self {
        self.preempt = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let c = ClusterConfig::paper(0.5);
        assert_eq!(c.n_volatile, 60);
        assert_eq!(c.n_dedicated, 6);
        assert_eq!(c.n_nodes(), 66);
        assert!(!c.is_dedicated(0));
        assert!(!c.is_dedicated(59));
        assert!(c.is_dedicated(60));
        assert!(c.is_dedicated(65));
        assert!(!c.is_dedicated(66));
        assert!((c.unavailability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn policy_presets() {
        let mh = PolicyConfig::moon_hybrid();
        assert!(mh.scheduler.hybrid());
        assert_eq!(mh.input_factor, ReplicationFactor::new(1, 3));
        let m = PolicyConfig::moon();
        assert!(!m.scheduler.hybrid());
        let h = PolicyConfig::hadoop(SimDuration::from_mins(1), 6);
        assert_eq!(h.label, "Hadoop1Min");
        assert_eq!(h.input_factor, ReplicationFactor::uniform(6));
        assert!(!h.namenode.hybrid);
        let vo = PolicyConfig::vo_intermediate(3);
        assert_eq!(vo.intermediate_factor, ReplicationFactor::new(0, 3));
        assert_eq!(vo.label, "VO-V3");
        let ha = PolicyConfig::ha_intermediate(2);
        assert_eq!(ha.intermediate_factor, ReplicationFactor::new(1, 2));
        let rel = PolicyConfig::moon_hybrid().with_reliable_intermediate();
        assert_eq!(rel.intermediate_kind, FileKind::Reliable);
    }
}
