//! The cluster-lowering oracle.
//!
//! `ClusterTopology` (a list of node pools) is the one description of
//! the cluster, and `NodeCapacity::from_cluster` lowers it onto the
//! solver's per-node capacities in one step. It used to take two: the
//! topology materialized onto `ClusterSpec`, a flat list of `NodeSpec`s
//! built by `ClusterSpecBuilder`, which `from_cluster` then flattened
//! through `NodeSpec::cpu_capacity`. That path is kept verbatim in
//! `naive_cluster/mod.rs`, and the one lowering must equal it node by
//! node: the same id, the same CPU bits, the same memory.
//!
//! Inputs: 2 000 seeded topologies (1–6 pools of 1–50 nodes, 1–16
//! cores, integral, non-integral and 1e12 MHz cores, zone labels on
//! some pools), every corpus preset, every `scenarios/*.json` spec and
//! the clusters of the three fleet workloads the benchmark runs. A
//! tally with floors is printed, and one mutation must be caught: node
//! ids that restart at 0 in each pool.

mod naive_cluster;

use proptest::TestRng;
use slaq::core::{ClusterTopology, NodePoolSpec, ScenarioSpec};
use slaq::placement::NodeCapacity;
use slaq::types::{CpuMhz, MemMb, NodeId};
use std::collections::BTreeMap;

/// The two-step path the one lowering replaced.
fn naive(topology: &ClusterTopology) -> Vec<NodeCapacity> {
    naive_cluster::from_cluster(&naive_cluster::materialize(topology))
}

/// The mutation: the lowering with ids numbered within each pool.
fn ids_restart_per_pool(topology: &ClusterTopology) -> Vec<NodeCapacity> {
    let mut nodes = Vec::new();
    for pool in &topology.pools {
        let cpu = CpuMhz::new(pool.core_mhz) * f64::from(pool.cpus_per_node);
        nodes.extend((0..pool.count).map(|i| NodeCapacity {
            id: NodeId::new(i),
            cpu,
            mem: MemMb::new(pool.node_mem_mb),
        }));
    }
    nodes
}

/// Node-by-node comparison: id, CPU bits and memory. `Err` names the
/// first node that differs.
fn same(got: &[NodeCapacity], want: &[NodeCapacity]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} nodes, want {}", got.len(), want.len()));
    }
    for (pos, (g, w)) in got.iter().zip(want).enumerate() {
        if g.id != w.id || g.cpu.as_f64().to_bits() != w.cpu.as_f64().to_bits() || g.mem != w.mem {
            return Err(format!("node at {pos}: {g:?}, want {w:?}"));
        }
    }
    Ok(())
}

fn pool(count: u32, cpus: u32, core_mhz: f64, mem_mb: u64, zone: Option<String>) -> NodePoolSpec {
    NodePoolSpec {
        count,
        cpus_per_node: cpus,
        core_mhz,
        node_mem_mb: mem_mb,
        zone,
    }
}

/// The clusters of the benchmark's fleet workloads (`fleet-churn`,
/// `fleet-still`, `fleet-zoned`), as `fleetbench --dump-workloads`
/// writes them.
fn fleet_clusters() -> Vec<(String, ClusterTopology)> {
    let churn = ClusterTopology {
        pools: vec![
            pool(250, 4, 3000.0, 4096, None),
            pool(150, 8, 2400.0, 16_384, None),
            pool(100, 2, 3600.0, 2048, None),
        ],
    };
    let still = ClusterTopology::homogeneous(2000, 4, 3000.0, 4096);
    let mut zoned = ClusterTopology { pools: Vec::new() };
    for z in 0..8 {
        let zone = Some(format!("zone{z}"));
        zoned.pools.push(pool(30, 4, 3000.0, 4096, zone.clone()));
        zoned.pools.push(pool(20, 8, 2400.0, 16_384, zone.clone()));
        zoned.pools.push(pool(10, 2, 3600.0, 2048, zone));
    }
    vec![
        ("fleet-churn".into(), churn),
        ("fleet-still".into(), still),
        ("fleet-zoned".into(), zoned),
    ]
}

/// Every corpus preset and every pinned `scenarios/*.json` spec.
fn spec_clusters() -> Vec<(String, ClusterTopology)> {
    let mut out: Vec<(String, ClusterTopology)> = ScenarioSpec::corpus()
        .into_iter()
        .map(|s| (s.name, s.cluster))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable spec");
        let spec = ScenarioSpec::from_json(&text).expect("pinned specs parse");
        out.push((path.display().to_string(), spec.cluster));
    }
    out
}

/// One seeded topology; every pool passes `validate`.
fn seeded(rng: &mut TestRng) -> ClusterTopology {
    let pools = (0..1 + rng.below(6))
        .map(|_| {
            let core_mhz = match rng.below(5) {
                0 => [2400.0, 3000.0, 3600.0][rng.below(3) as usize],
                1 => (1 + rng.below(10_000)) as f64,
                2 => slaq::types::MAX_MHZ,
                _ => 1e-3 + 5000.0 * rng.unit_f64(),
            };
            let zone = (rng.below(3) == 0).then(|| format!("z{}", rng.below(4)));
            pool(
                1 + rng.below(50) as u32,
                1 + rng.below(16) as u32,
                core_mhz,
                1 + rng.below(65_536),
                zone,
            )
        })
        .collect();
    ClusterTopology { pools }
}

#[test]
fn one_lowering_equals_the_materialize_then_flatten_path() {
    const DRAWS: u64 = 2000;
    let mut worlds: Vec<(String, ClusterTopology)> = (0..DRAWS)
        .map(|seed| (format!("seed {seed}"), seeded(&mut TestRng::new(seed))))
        .collect();
    worlds.extend(spec_clusters());
    worlds.extend(fleet_clusters());

    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut caught = 0usize;
    let mut multi_pool = 0usize;
    for (label, topology) in &worlds {
        topology
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let want = naive(topology);
        let got = NodeCapacity::from_cluster(topology);
        same(&got, &want).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(got.len(), topology.node_count() as usize, "{label}");
        assert_eq!(got.len(), topology.zone_table().len(), "{label}");

        let pools = &topology.pools;
        *tally.entry("worlds").or_default() += 1;
        *tally.entry("pools").or_default() += pools.len();
        *tally.entry("nodes").or_default() += got.len();
        let shape = |p: &NodePoolSpec| (p.cpus_per_node, p.core_mhz.to_bits(), p.node_mem_mb);
        let heterogeneous = pools.windows(2).any(|w| shape(&w[0]) != shape(&w[1]));
        *tally.entry("heterogeneous worlds").or_default() += usize::from(heterogeneous);
        *tally.entry("zoned worlds").or_default() += usize::from(topology.zone_count() > 1);
        for p in pools {
            *tally.entry("non-integral speeds").or_default() +=
                usize::from(p.core_mhz.fract() != 0.0);
            *tally.entry("1e12 MHz cores").or_default() += usize::from(p.core_mhz == 1e12);
        }
        if pools.len() > 1 {
            multi_pool += 1;
            caught += usize::from(same(&ids_restart_per_pool(topology), &want).is_err());
        }
    }
    println!("one lowering ≡ materialize + flatten: {tally:?}");
    let floors = [
        ("worlds", 2000),
        ("pools", 6000),
        ("nodes", 100_000),
        ("heterogeneous worlds", 1500),
        ("zoned worlds", 500),
        ("non-integral speeds", 2000),
        ("1e12 MHz cores", 800),
    ];
    for (what, floor) in floors {
        assert!(tally[what] >= floor, "{what} below {floor}: {tally:?}");
    }
    // The mutation check: ids that restart at 0 in each pool differ from
    // the oracle on every world with more than one pool.
    println!("ids restarting per pool: caught in {caught} of {multi_pool} multi-pool worlds");
    assert!(multi_pool >= 1500, "{multi_pool}");
    assert_eq!(caught, multi_pool);
}
