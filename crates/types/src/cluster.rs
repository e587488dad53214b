//! Cluster specification: the virtualized data center the controller manages.
//!
//! The paper's testbed is 25 homogeneous nodes, each with four processors;
//! each job's maximum speed is one processor, and node memory admits only
//! three jobs at a time. [`ClusterSpec::homogeneous`] captures that setup in
//! one call; the builder supports heterogeneous clusters for the extension
//! experiments.

use crate::ids::NodeId;
use crate::units::{CpuMhz, MemMb};
use serde::{Deserialize, Serialize};

/// A single physical node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node identifier; equals its index within the owning [`ClusterSpec`].
    pub id: NodeId,
    /// Number of processors (cores). Placement treats CPU power as fluid,
    /// but a single job cannot exceed one processor's speed, so the core
    /// count shapes per-job speed caps.
    pub num_cpus: u32,
    /// Power of one processor.
    pub cpu_per_core: CpuMhz,
    /// Memory capacity available to workload VMs.
    pub mem: MemMb,
}

impl NodeSpec {
    /// Total CPU power of the node (`num_cpus × cpu_per_core`).
    #[inline]
    pub fn cpu_capacity(&self) -> CpuMhz {
        self.cpu_per_core * f64::from(self.num_cpus)
    }
}

/// The whole cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// Build a homogeneous cluster: `n_nodes` nodes, each with
    /// `cpus_per_node` processors of `cpu_per_core` MHz and `mem` MB.
    ///
    /// The paper's testbed is `homogeneous(25, 4, CpuMhz::new(3000.0),
    /// MemMb::new(4096))`.
    pub fn homogeneous(n_nodes: u32, cpus_per_node: u32, cpu_per_core: CpuMhz, mem: MemMb) -> Self {
        let nodes = (0..n_nodes)
            .map(|i| NodeSpec {
                id: NodeId::new(i),
                num_cpus: cpus_per_node,
                cpu_per_core,
                mem,
            })
            .collect();
        ClusterSpec { nodes }
    }

    /// Start building a (possibly heterogeneous) cluster.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder { nodes: Vec::new() }
    }

    /// All nodes, ordered by id.
    #[inline]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the cluster has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look up one node.
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(id.index())
    }

    /// Total CPU power across all nodes.
    pub fn total_cpu(&self) -> CpuMhz {
        self.nodes.iter().map(NodeSpec::cpu_capacity).sum()
    }

    /// Iterate node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }
}

/// Builder for heterogeneous clusters.
#[derive(Debug, Default)]
pub struct ClusterSpecBuilder {
    nodes: Vec<NodeSpec>,
}

impl ClusterSpecBuilder {
    /// Append one node; its id is assigned sequentially.
    pub fn node(mut self, num_cpus: u32, cpu_per_core: CpuMhz, mem: MemMb) -> Self {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(NodeSpec {
            id,
            num_cpus,
            cpu_per_core,
            mem,
        });
        self
    }

    /// Append `count` identical nodes.
    pub fn nodes(mut self, count: u32, num_cpus: u32, cpu_per_core: CpuMhz, mem: MemMb) -> Self {
        for _ in 0..count {
            self = self.node(num_cpus, cpu_per_core, mem);
        }
        self
    }

    /// Finish building.
    pub fn build(self) -> ClusterSpec {
        ClusterSpec { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(25, 4, CpuMhz::new(3000.0), MemMb::new(4096))
    }

    #[test]
    fn paper_testbed_capacities() {
        let c = paper_cluster();
        assert_eq!(c.len(), 25);
        assert_eq!(c.total_cpu().as_f64(), 25.0 * 4.0 * 3000.0);
        let n0 = c.node(NodeId::new(0)).unwrap();
        assert_eq!(n0.cpu_capacity().as_f64(), 12_000.0);
    }

    #[test]
    fn node_ids_are_sequential() {
        let c = paper_cluster();
        let ids: Vec<u32> = c.node_ids().map(NodeId::raw).collect();
        assert_eq!(ids, (0..25).collect::<Vec<_>>());
        assert!(c.node(NodeId::new(25)).is_none());
    }

    #[test]
    fn builder_supports_heterogeneous_nodes() {
        let c = ClusterSpec::builder()
            .nodes(2, 4, CpuMhz::new(3000.0), MemMb::new(4096))
            .node(8, CpuMhz::new(2400.0), MemMb::new(16384))
            .build();
        assert_eq!(c.len(), 3);
        assert_eq!(c.node(NodeId::new(2)).unwrap().num_cpus, 8);
        assert_eq!(c.total_cpu().as_f64(), 2.0 * 12_000.0 + 8.0 * 2400.0);
    }

    #[test]
    fn empty_cluster_is_empty() {
        let c = ClusterSpec::builder().build();
        assert!(c.is_empty());
        assert_eq!(c.total_cpu(), CpuMhz::ZERO);
    }

    #[test]
    fn serde_roundtrip() {
        let c = paper_cluster();
        let s = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
    }
}
