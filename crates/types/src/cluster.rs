//! The cluster: the virtualized data center the controller manages.
//!
//! The paper's testbed is 25 homogeneous nodes, each with four processors;
//! each job's maximum speed is one processor, and node memory admits only
//! three jobs at a time. [`ClusterTopology::homogeneous`] captures that
//! setup in one call; a heterogeneous cluster is a list of
//! [`NodePoolSpec`]s. This is the one description of the cluster, from
//! the spec file down to the simulator, which lowers it onto per-node
//! solver capacities.

use crate::error::SlaqError;
use crate::ids::ZoneId;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Largest core speed (MHz) and per-request service demand (MHz·s) a
/// spec may carry: far enough below `f64::MAX` that cores × MHz × nodes
/// and λ × service time stay finite.
pub const MAX_MHZ: f64 = 1e12;

/// A pool of identical nodes; a cluster is a list of pools, so one pool
/// is the homogeneous case and several pools are a heterogeneous fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePoolSpec {
    /// Number of identical nodes in this pool.
    pub count: u32,
    /// Processors per node.
    pub cpus_per_node: u32,
    /// Power of one processor.
    pub core_mhz: f64,
    /// Memory per node available to workload VMs.
    pub node_mem_mb: u64,
    /// Optional zone label (rack / availability zone / edge site). Pools
    /// sharing a label share a zone; unlabeled pools share one implicit
    /// default zone. Under the controller's default `Zones` sharding, two
    /// or more distinct zones switch placement to the sharded engine; a
    /// single zone preserves the global solver bit for bit.
    pub zone: Option<String>,
}

/// Cluster topology: ordered node pools; node ids are assigned
/// sequentially across pools.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// The pools, in node-id order.
    pub pools: Vec<NodePoolSpec>,
}

impl ClusterTopology {
    /// Single-pool (homogeneous) topology: `count` nodes, each with
    /// `cpus_per_node` processors of `core_mhz` MHz and `node_mem_mb` MB.
    ///
    /// The paper's testbed is `homogeneous(25, 4, 3000.0, 4096)`.
    pub fn homogeneous(count: u32, cpus_per_node: u32, core_mhz: f64, node_mem_mb: u64) -> Self {
        ClusterTopology {
            pools: vec![NodePoolSpec {
                count,
                cpus_per_node,
                core_mhz,
                node_mem_mb,
                zone: None,
            }],
        }
    }

    /// Total node count across pools.
    pub fn node_count(&self) -> u32 {
        self.pools.iter().map(|p| p.count).sum()
    }

    /// Number of distinct zones across pools (unlabeled pools share one
    /// implicit zone).
    pub fn zone_count(&self) -> usize {
        let mut labels: Vec<Option<&str>> = self.pools.iter().map(|p| p.zone.as_deref()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// Per-node zone table, indexed by node id (ids are assigned densely
    /// across pools). Distinct labels map to [`ZoneId`]s in sorted label
    /// order, after the implicit `ZoneId(0)` of unlabeled pools.
    pub fn zone_table(&self) -> Vec<ZoneId> {
        let mut labels: Vec<&str> = self
            .pools
            .iter()
            .filter_map(|p| p.zone.as_deref())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let zone_of = |pool: &NodePoolSpec| -> ZoneId {
            match pool.zone.as_deref() {
                None => ZoneId::new(0),
                Some(label) => {
                    let rank = labels.binary_search(&label).expect("label collected");
                    ZoneId::new(rank as u32 + 1)
                }
            }
        };
        let mut table = Vec::with_capacity(self.node_count() as usize);
        for pool in &self.pools {
            let z = zone_of(pool);
            table.extend((0..pool.count).map(|_| z));
        }
        table
    }

    /// Check the topology: at least one pool, and every pool with at
    /// least one node, one processor, a core speed in (0, [`MAX_MHZ`]]
    /// and some memory. The error names the offending pool.
    pub fn validate(&self) -> Result<()> {
        if self.pools.is_empty() {
            return Err(SlaqError::spec("cluster", "topology has no nodes"));
        }
        for (i, p) in self.pools.iter().enumerate() {
            let section = format!("cluster.pools[{i}]");
            if p.count == 0 {
                return Err(SlaqError::spec(section, "pool count must be at least 1"));
            }
            if p.cpus_per_node == 0 {
                return Err(SlaqError::spec(section, "cpus_per_node must be at least 1"));
            }
            if !(p.core_mhz > 0.0 && p.core_mhz <= MAX_MHZ) {
                return Err(SlaqError::spec(
                    section,
                    "core_mhz must be positive and at most 1e12",
                ));
            }
            if p.node_mem_mb == 0 {
                return Err(SlaqError::spec(section, "node_mem_mb must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> ClusterTopology {
        ClusterTopology::homogeneous(25, 4, 3000.0, 4096)
    }

    #[test]
    fn paper_testbed_capacities() {
        let c = paper_cluster();
        assert_eq!(c.node_count(), 25);
        let pool = &c.pools[0];
        assert_eq!((pool.cpus_per_node, pool.core_mhz), (4, 3000.0));
        assert_eq!(pool.node_mem_mb, 4096);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn node_ids_are_sequential() {
        // Ids run densely across pools: the zone table has one entry per
        // node, pool by pool.
        let mut c = paper_cluster();
        c.pools.push(NodePoolSpec {
            zone: Some("edge".into()),
            ..c.pools[0].clone()
        });
        let table = c.zone_table();
        assert_eq!(table.len(), 50);
        assert!(table[..25].iter().all(|&z| z == ZoneId::new(0)));
        assert!(table[25..].iter().all(|&z| z == ZoneId::new(1)));
    }

    #[test]
    fn builder_supports_heterogeneous_nodes() {
        let c = ClusterTopology {
            pools: vec![
                NodePoolSpec {
                    count: 2,
                    cpus_per_node: 4,
                    core_mhz: 3000.0,
                    node_mem_mb: 4096,
                    zone: None,
                },
                NodePoolSpec {
                    count: 1,
                    cpus_per_node: 8,
                    core_mhz: 2400.0,
                    node_mem_mb: 16_384,
                    zone: Some("fat".into()),
                },
            ],
        };
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.zone_count(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn empty_cluster_is_empty() {
        let c = ClusterTopology { pools: Vec::new() };
        assert_eq!(c.node_count(), 0);
        assert!(c.zone_table().is_empty());
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("no nodes"), "{e}");
    }

    #[test]
    fn serde_roundtrip() {
        let c = paper_cluster();
        let s = serde_json::to_string(&c).unwrap();
        let back: ClusterTopology = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }
}
