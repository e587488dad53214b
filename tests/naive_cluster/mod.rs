//! The cluster as it was described before `ClusterTopology` became the
//! one description: `ClusterSpec`, a flat list of `NodeSpec`s built by
//! `ClusterSpecBuilder`, the topology's `materialize` onto it, and
//! `NodeCapacity::from_cluster`'s flatten of it, kept verbatim (minus
//! the accessors nothing here reads). `tests/cluster_oracle.rs` holds
//! the one lowering, `NodeCapacity::from_cluster(&ClusterTopology)`, to
//! this two-step path.

use slaq::core::ClusterTopology;
use slaq::placement::NodeCapacity;
use slaq::types::{CpuMhz, MemMb, NodeId};

/// A single physical node.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// Start building a (possibly heterogeneous) cluster.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder { nodes: Vec::new() }
    }

    /// All nodes, ordered by id.
    #[inline]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
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

/// `ClusterTopology::materialize`: the concrete [`ClusterSpec`].
pub fn materialize(topology: &ClusterTopology) -> ClusterSpec {
    let mut b = ClusterSpec::builder();
    for p in &topology.pools {
        b = b.nodes(
            p.count,
            p.cpus_per_node,
            CpuMhz::new(p.core_mhz),
            MemMb::new(p.node_mem_mb),
        );
    }
    b.build()
}

/// `NodeCapacity::from_cluster`: derive solver capacities from a
/// cluster spec.
pub fn from_cluster(cluster: &ClusterSpec) -> Vec<NodeCapacity> {
    cluster
        .nodes()
        .iter()
        .map(|n| NodeCapacity {
            id: n.id,
            cpu: n.cpu_capacity(),
            mem: n.mem,
        })
        .collect()
}
