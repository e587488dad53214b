//! Problem statement types consumed by the placement solver.

use serde::{Deserialize, Serialize};
use slaq_types::{AppId, ClusterTopology, CpuMhz, JobId, MemMb, NodeId};

/// Capacity of one node as the solver sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCapacity {
    /// Node identity.
    pub id: NodeId,
    /// Total CPU power.
    pub cpu: CpuMhz,
    /// Memory available to workload VMs.
    pub mem: MemMb,
}

impl NodeCapacity {
    /// Lower a cluster onto solver capacities: one entry per node, ids
    /// numbered sequentially across pools, each node's CPU its core speed
    /// times its core count.
    pub fn from_cluster(cluster: &ClusterTopology) -> Vec<NodeCapacity> {
        let mut nodes = Vec::with_capacity(cluster.node_count() as usize);
        for pool in &cluster.pools {
            let cpu = CpuMhz::new(pool.core_mhz) * f64::from(pool.cpus_per_node);
            let mem = MemMb::new(pool.node_mem_mb);
            let first = nodes.len() as u32;
            nodes.extend((first..first + pool.count).map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu,
                mem,
            }));
        }
        nodes
    }
}

/// One transactional application's placement request for this cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRequest {
    /// Application identity.
    pub id: AppId,
    /// Cluster-wide CPU target from the equalizer.
    pub demand: CpuMhz,
    /// Memory footprint of each instance.
    pub mem_per_instance: MemMb,
    /// Lower bound on instance count (kept warm even when idle).
    pub min_instances: u32,
    /// Upper bound on instance count.
    pub max_instances: u32,
    /// Per-node affinity bonuses (MHz scale), id-sorted, from the
    /// routing tier's warmth scores: the solver's grow steps add a
    /// node's bonus to its residual CPU when ordering candidates, so
    /// warm instances stop being interchangeable with cold ones.
    /// Empty (the default) keeps candidate ordering bit-identical to
    /// the affinity-free solver.
    pub affinity: Vec<(NodeId, f64)>,
}

/// One long-running job's placement request for this cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Job identity.
    pub id: JobId,
    /// CPU target from the equalizer (≤ the job's maximum speed; zero for
    /// jobs whose SLA no longer benefits from CPU).
    pub demand: CpuMhz,
    /// Memory footprint of the job's VM while running.
    pub mem: MemMb,
    /// Node where the job currently runs, if it is running — placement is
    /// sticky, and moving away from this node counts as a migration.
    pub running_on: Option<NodeId>,
    /// Affinity hint for suspended jobs: the node whose disk holds the
    /// image (resuming elsewhere is allowed and counts one change either
    /// way).
    pub affinity: Option<NodeId>,
    /// Placement priority (higher places first). The manager passes a
    /// utility-urgency score; ties break by id for determinism.
    pub priority: f64,
    /// The job's importance tier (1.0 = baseline). A placed job may be
    /// evicted (suspended) in favour of an unplaced one only when it is
    /// strictly less important, so jobs of one class never preempt each
    /// other. (Evictions still consume change budget.)
    pub importance: f64,
}

/// Solver tuning knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Cap on disruptive actions per cycle (job starts/resumes/migrations/
    /// suspensions and instance starts/stops). `None` = unbounded. Keeping
    /// an entity where it already is costs nothing.
    pub max_changes: Option<usize>,
}

/// A full placement problem instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlacementProblem {
    /// Node capacities.
    pub nodes: Vec<NodeCapacity>,
    /// Transactional requests.
    pub apps: Vec<AppRequest>,
    /// Job requests.
    pub jobs: Vec<JobRequest>,
    /// Solver configuration.
    pub config: PlacementConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_capacity_from_cluster() {
        let cluster = ClusterTopology::homogeneous(3, 4, 3000.0, 4096);
        let caps = NodeCapacity::from_cluster(&cluster);
        assert_eq!(caps.len(), 3);
        assert_eq!(caps[1].cpu, CpuMhz::new(12_000.0));
        assert_eq!(caps[2].mem, MemMb::new(4096));
        assert_eq!(caps[0].id, NodeId::new(0));
    }
}
