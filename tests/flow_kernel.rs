//! The flow kernel's oracle.
//!
//! `FlowNetwork` keeps its half-edges in two flat arrays by id and its
//! adjacency in one CSR index built in ascending id order. It reads an
//! edge's flow off the reverse half's residual and stops each BFS at the
//! sink's level. None of that may move a single augmenting path.
//!
//! The kernel it replaced is kept verbatim in `naive_flow/mod.rs`:
//! adjacency lists, `orig_cap`, a `VecDeque` BFS over the whole residual
//! graph. Two seeded sweeps compare it with the shipped kernel after every
//! solve, on the max-flow total *and* on the flow of every edge:
//!
//! * random sparse graphs (self-loops and parallel edges included) with
//!   staged `set_cap`s between solves and an `add_edge` after a solve;
//! * the allocator's transportation shape under two-phase gating, the
//!   shipped side's gates born shut and the parent's opened, shut, opened.
//!
//! Each sweep prints a tally held to floors and ends on a mutation it must
//! catch: the parent kernel with every vertex's edges in descending order,
//! which keeps every max-flow value and moves per-edge flows.

mod naive_flow;

use naive_flow::{NaiveEdgeId, NaiveFlowNetwork, NaiveScratch};
use proptest::TestRng;
use slaq::flow::{EdgeId, FlowNetwork, MaxFlowScratch};
use std::collections::BTreeMap;

/// One network held three times: the shipped kernel (one instance per
/// sweep, cleared per graph, as the allocator keeps it), the parent kernel,
/// and the parent kernel under the mutation.
#[derive(Default)]
struct Kernels {
    shipped: FlowNetwork,
    scratch: MaxFlowScratch,
    naive: NaiveFlowNetwork,
    naive_scratch: NaiveScratch,
    mutant: NaiveFlowNetwork,
    mutant_scratch: NaiveScratch,
    edges: Vec<(EdgeId, NaiveEdgeId, NaiveEdgeId)>,
}

/// What one solve on the three kernels showed.
struct Solved {
    total: i64,
    /// The mutant reached the same max-flow value.
    mutant_total_equal: bool,
    /// Some edge carries a different flow in the mutant.
    mutant_caught: bool,
}

impl Kernels {
    fn reset(&mut self, n: usize) {
        self.shipped.clear(n);
        self.naive = NaiveFlowNetwork::new(n);
        self.mutant = NaiveFlowNetwork::new(n);
        self.edges.clear();
    }

    /// `u → v` in all three kernels; returns the edge's index.
    fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> usize {
        self.edges.push((
            self.shipped.add_edge(u, v, cap),
            self.naive.add_edge(u, v, cap),
            self.mutant.add_edge(u, v, cap),
        ));
        self.edges.len() - 1
    }

    /// A phase gate: born shut in the shipped kernel, as the allocator
    /// builds it; added open and shut with `set_cap` in the parent's, as
    /// the parent allocator did.
    fn add_gate(&mut self, u: usize, v: usize, cap: i64) -> usize {
        let naive = self.naive.add_edge(u, v, cap);
        let mutant = self.mutant.add_edge(u, v, cap);
        self.naive.set_cap(naive, 0);
        self.mutant.set_cap(mutant, 0);
        self.edges
            .push((self.shipped.add_edge(u, v, 0), naive, mutant));
        self.edges.len() - 1
    }

    fn set_cap(&mut self, i: usize, cap: i64) {
        let (shipped, naive, mutant) = self.edges[i];
        self.shipped.set_cap(shipped, cap);
        self.naive.set_cap(naive, cap);
        self.mutant.set_cap(mutant, cap);
    }

    fn flow_on(&self, i: usize) -> i64 {
        self.shipped.flow_on(self.edges[i].0)
    }

    /// Solve `s → t` on all three kernels and hold the shipped one to the
    /// parent's total and to its flow on every edge.
    fn solve(&mut self, s: usize, t: usize, what: &str) -> Solved {
        let total = self.shipped.max_flow_with(s, t, &mut self.scratch);
        let naive = self.naive.max_flow_with(s, t, &mut self.naive_scratch);
        self.mutant.sort_adjacency_descending();
        let mutant = self.mutant.max_flow_with(s, t, &mut self.mutant_scratch);
        assert_eq!(total, naive, "{what}: max-flow total");
        let mut mutant_caught = false;
        for (k, &(shipped, naive, mutant)) in self.edges.iter().enumerate() {
            let want = self.naive.flow_on(naive);
            assert_eq!(self.shipped.flow_on(shipped), want, "{what}: edge {k}");
            mutant_caught |= self.mutant.flow_on(mutant) != want;
        }
        Solved {
            total,
            mutant_total_equal: mutant == naive,
            mutant_caught,
        }
    }
}

/// A capacity: now and then zero, else below `max`.
fn cap(rng: &mut TestRng, max: u64) -> i64 {
    if rng.below(5) == 0 {
        0
    } else {
        rng.below(max) as i64
    }
}

/// Print a sweep's tally and hold every entry to its floor.
fn hold(sweep: &str, tally: &BTreeMap<&'static str, usize>, floors: &[(&str, usize)]) {
    println!("{sweep}: {tally:?}");
    assert_eq!(tally.len(), floors.len(), "{tally:?}");
    for &(what, floor) in floors {
        assert!(tally[what] >= floor, "{what} below {floor}: {tally:?}");
    }
}

#[test]
fn the_flat_kernel_equals_the_parent_on_random_graphs() {
    const GRAPHS: u64 = 2000;
    let mut k = Kernels::default();
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..GRAPHS {
        let rng = &mut TestRng::new(seed);
        let n = 2 + rng.below(39) as usize;
        k.reset(n);
        let add_random_edge = |k: &mut Kernels, rng: &mut TestRng| {
            let (u, v) = (rng.below(n as u64), rng.below(n as u64));
            k.add_edge(u as usize, v as usize, cap(rng, 60))
        };
        let (s, t) = (0, n - 1);
        for _ in 0..rng.below(4 * n as u64 + 1) {
            add_random_edge(&mut k, rng);
        }
        // A few edges out of the source and into the sink, so most graphs
        // carry a flow.
        for _ in 0..rng.below(4) {
            let v = rng.below(n as u64) as usize;
            k.add_edge(s, v, cap(rng, 60));
            let u = rng.below(n as u64) as usize;
            k.add_edge(u, t, cap(rng, 60));
        }

        let first = k.solve(s, t, &format!("seed {seed}, first solve"));
        assert!(first.mutant_total_equal, "seed {seed}: the mutant's total");
        let mut caught = first.mutant_caught;

        // Staged: re-cap a few edges (opening, closing, or discarding the
        // flow an edge carries), then solve on from the residual state.
        let mut discarded = false;
        for _ in 0..1 + rng.below(4) {
            if !k.edges.is_empty() {
                let i = rng.below(k.edges.len() as u64) as usize;
                discarded |= k.flow_on(i) > 0;
                k.set_cap(i, cap(rng, 60));
            }
        }
        caught |= k
            .solve(s, t, &format!("seed {seed}, after set_cap"))
            .mutant_caught;

        // Edges added after a solve: the residuals stay, the index is
        // rebuilt.
        let late: Vec<usize> = (0..1 + rng.below(3))
            .map(|_| add_random_edge(&mut k, rng))
            .collect();
        caught |= k
            .solve(s, t, &format!("seed {seed}, after add_edge"))
            .mutant_caught;

        let mut saw = |what: &'static str, seen: bool| {
            *tally.entry(what).or_default() += usize::from(seen);
        };
        saw("graphs", true);
        saw("positive first flow", first.total > 0);
        saw("set_cap discarded a flow", discarded);
        saw(
            "late edge carries flow",
            late.iter().any(|&i| k.flow_on(i) > 0),
        );
        saw("mutation caught", caught);
    }
    tally.insert("rounds", k.naive_scratch.rounds);
    tally.insert("rounds past the sink", k.naive_scratch.rounds_past_sink);
    hold(
        "flat kernel ≡ parent on random graphs",
        &tally,
        &[
            ("graphs", 2000),
            ("positive first flow", 1000),
            ("set_cap discarded a flow", 300),
            ("late edge carries flow", 150),
            ("rounds", 2500),
            ("rounds past the sink", 1500),
            ("mutation caught", 400),
        ],
    );
}

/// The allocator's transportation problem in flow units.
struct Shape {
    node_cap: Vec<i64>,
    app_demand: Vec<i64>,
    /// Dense node indices per app, in random order.
    app_hosts: Vec<Vec<usize>>,
    job_demand: Vec<i64>,
    job_node: Vec<Option<usize>>,
}

impl Shape {
    fn draw(rng: &mut TestRng) -> Shape {
        let n_nodes = 1 + rng.below(8) as usize;
        let node_cap = (0..n_nodes)
            .map(|_| [0, 3000, 6000, 12_000][rng.below(4) as usize])
            .collect();
        let n_apps = rng.below(5) as usize;
        let app_demand = (0..n_apps).map(|_| cap(rng, 9000)).collect();
        let app_hosts = (0..n_apps)
            .map(|_| {
                let mut hosts: Vec<usize> = (0..n_nodes).collect();
                for i in (1..hosts.len()).rev() {
                    hosts.swap(i, rng.below(i as u64 + 1) as usize);
                }
                hosts.truncate(rng.below(n_nodes as u64 + 1) as usize);
                hosts
            })
            .collect();
        let n_jobs = rng.below(13) as usize;
        let job_demand = (0..n_jobs).map(|_| cap(rng, 3000)).collect();
        let job_node = (0..n_jobs)
            .map(|_| (rng.below(4) != 0).then(|| rng.below(n_nodes as u64) as usize))
            .collect();
        Shape {
            node_cap,
            app_demand,
            app_hosts,
            job_demand,
            job_node,
        }
    }

    /// Some node's jobs and hosted applications demand more than its
    /// capacity.
    fn oversubscribed(&self) -> bool {
        let mut load = vec![0i64; self.node_cap.len()];
        for (demand, hosts) in self.app_demand.iter().zip(&self.app_hosts) {
            for &ni in hosts {
                load[ni] += demand;
            }
        }
        for (demand, node) in self.job_demand.iter().zip(&self.job_node) {
            if let Some(ni) = *node {
                load[ni] += demand;
            }
        }
        load.iter().zip(&self.node_cap).any(|(l, c)| l > c)
    }
}

#[test]
fn the_flat_kernel_equals_the_parent_under_two_phase_gating() {
    const WORLDS: u64 = 2000;
    let mut k = Kernels::default();
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut moved_edges = 0usize;
    for seed in 0..WORLDS {
        let rng = &mut TestRng::new(seed);
        let shape = Shape::draw(rng);
        let (n_apps, n_jobs) = (shape.app_demand.len(), shape.job_demand.len());
        // The allocator's layout: 0 = source; apps; jobs; nodes; sink.
        let source = 0;
        let node_vx = |i: usize| 1 + n_apps + n_jobs + i;
        let sink = node_vx(shape.node_cap.len());
        k.reset(sink + 1);
        let mut gates = Vec::new();
        for (ji, &demand) in shape.job_demand.iter().enumerate() {
            gates.push(k.add_gate(source, 1 + n_apps + ji, demand));
            if let Some(ni) = shape.job_node[ji] {
                k.add_edge(1 + n_apps + ji, node_vx(ni), demand);
            }
        }
        let mut app_edges = Vec::new();
        for (ai, &demand) in shape.app_demand.iter().enumerate() {
            k.add_edge(source, 1 + ai, demand);
            for &ni in &shape.app_hosts[ai] {
                app_edges.push(k.add_edge(1 + ai, node_vx(ni), demand));
            }
        }
        for (ni, &cpu) in shape.node_cap.iter().enumerate() {
            k.add_edge(node_vx(ni), sink, cpu);
        }

        let apps = k.solve(source, sink, &format!("seed {seed}, phase 1"));
        let after_apps: Vec<i64> = app_edges.iter().map(|&i| k.flow_on(i)).collect();
        for (&gate, &demand) in gates.iter().zip(&shape.job_demand) {
            k.set_cap(gate, demand);
        }
        let jobs = k.solve(source, sink, &format!("seed {seed}, phase 2"));
        assert!(
            apps.mutant_total_equal && jobs.mutant_total_equal,
            "seed {seed}: the mutant's totals"
        );
        let moved = app_edges
            .iter()
            .zip(&after_apps)
            .filter(|&(&i, &f)| k.flow_on(i) != f)
            .count();
        moved_edges += moved;

        let mut saw = |what: &'static str, seen: bool| {
            *tally.entry(what).or_default() += usize::from(seen);
        };
        saw("worlds", true);
        saw(
            "zero-demand entity",
            shape.app_demand.contains(&0) || shape.job_demand.contains(&0),
        );
        saw("unplaced job", shape.job_node.contains(&None));
        saw(
            "hosts out of index order",
            shape
                .app_hosts
                .iter()
                .any(|h| h.windows(2).any(|w| w[0] > w[1])),
        );
        saw(
            "zero-flow host",
            app_edges.iter().any(|&i| k.flow_on(i) == 0),
        );
        saw("over-subscribed node", shape.oversubscribed());
        saw("phase 2 rerouted an application", moved > 0);
        saw("mutation caught", apps.mutant_caught || jobs.mutant_caught);
    }
    tally.insert("rounds", k.naive_scratch.rounds);
    tally.insert("rounds past the sink", k.naive_scratch.rounds_past_sink);
    tally.insert("edges moved between phases", moved_edges);
    hold(
        "flat kernel ≡ parent under two-phase gating",
        &tally,
        &[
            ("worlds", 2000),
            ("zero-demand entity", 1000),
            ("unplaced job", 1000),
            ("hosts out of index order", 600),
            ("zero-flow host", 800),
            ("over-subscribed node", 1000),
            ("phase 2 rerouted an application", 150),
            ("mutation caught", 700),
            ("rounds", 2000),
            ("rounds past the sink", 400),
            ("edges moved between phases", 400),
        ],
    );
}
