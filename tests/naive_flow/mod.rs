//! The flow kernel as it stood before the flat CSR layout: adjacency
//! lists, an `orig_cap` per edge, a `VecDeque` BFS that labels the whole
//! residual graph. Kept verbatim as the oracle of `tests/flow_kernel.rs`
//! and of `naive_allocate` in `tests/placement_readback.rs`, with two
//! additions that change no flow: the tally counters on the scratch and
//! `sort_adjacency_descending`, the mutation the sweeps must catch.

#![allow(dead_code)]

use std::collections::VecDeque;

/// Identifier of a directed edge added with [`NaiveFlowNetwork::add_edge`].
/// Stable across solver runs; use it to read back flow with
/// [`NaiveFlowNetwork::flow_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NaiveEdgeId(usize);

#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: i64, // residual capacity
    orig_cap: i64,
}

/// A directed flow network over `n` numbered nodes.
///
/// Internally stores paired residual edges: edge `2k` is the forward edge,
/// `2k+1` its reverse. [`NaiveEdgeId`] returned by `add_edge` indexes the
/// forward edge.
#[derive(Debug, Clone, Default)]
pub struct NaiveFlowNetwork {
    /// `graph[v]` lists indices into `edges` leaving `v`.
    graph: Vec<Vec<usize>>,
    edges: Vec<Edge>,
}

/// Reusable working memory for [`NaiveFlowNetwork::max_flow_with`].
#[derive(Debug, Clone, Default)]
pub struct NaiveScratch {
    level: Vec<i32>,
    it: Vec<usize>,
    queue: VecDeque<usize>,
    /// Edge ids of the current augmenting path (explicit DFS stack).
    path: Vec<usize>,
    /// Tally: rounds run (BFS reached the sink).
    pub rounds: usize,
    /// Tally: rounds whose BFS labelled a vertex past the sink's level.
    pub rounds_past_sink: usize,
}

impl NaiveFlowNetwork {
    /// Create a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        NaiveFlowNetwork {
            graph: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Reset to `n` nodes and no edges, **retaining** the adjacency-list
    /// and edge-storage allocations of the previous build. The per-cycle
    /// constructor: a controller that re-solves every cycle calls
    /// `clear` + `add_edge` and performs no heap allocation once the
    /// high-water mark is reached.
    pub fn clear(&mut self, n: usize) {
        for adj in self.graph.iter_mut() {
            adj.clear();
        }
        if self.graph.len() > n {
            self.graph.truncate(n);
        } else {
            self.graph.resize_with(n, Vec::new);
        }
        self.edges.clear();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Add a directed edge `u → v` with capacity `cap ≥ 0`. Panics on
    /// out-of-range endpoints or negative capacity (caller bugs, not data
    /// conditions).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> NaiveEdgeId {
        assert!(
            u < self.graph.len() && v < self.graph.len(),
            "endpoint out of range"
        );
        assert!(cap >= 0, "negative capacity");
        let id = self.edges.len();
        self.edges.push(Edge {
            to: v,
            cap,
            orig_cap: cap,
        });
        self.edges.push(Edge {
            to: u,
            cap: 0,
            orig_cap: 0,
        });
        self.graph[u].push(id);
        self.graph[v].push(id + 1);
        NaiveEdgeId(id)
    }

    /// Rewrite a forward edge's capacity in place, discarding any flow it
    /// carried (the allocator opens its job gates this way between its
    /// two max-flow phases).
    pub fn set_cap(&mut self, e: NaiveEdgeId, cap: i64) {
        assert!(cap >= 0, "negative capacity");
        let fwd = &mut self.edges[e.0];
        fwd.cap = cap;
        fwd.orig_cap = cap;
        self.edges[e.0 ^ 1].cap = 0;
    }

    /// The mutation the kernel oracle must catch: every vertex's list in
    /// descending edge order (call before each solve). Max-flow values
    /// stay; per-edge flows move.
    pub fn sort_adjacency_descending(&mut self) {
        for adj in &mut self.graph {
            adj.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Flow currently routed through a forward edge.
    pub fn flow_on(&self, e: NaiveEdgeId) -> i64 {
        let fwd = &self.edges[e.0];
        fwd.orig_cap - fwd.cap
    }

    // ------------------------------------------------------------------
    // Dinic max-flow
    // ------------------------------------------------------------------

    /// Maximum flow from `s` to `t` (Dinic), allocating its own scratch.
    /// The network retains the flow; inspect per-edge values with
    /// [`NaiveFlowNetwork::flow_on`]; to start over, rewrite the capacities
    /// with [`NaiveFlowNetwork::set_cap`] (which discards the edge's flow).
    /// Calling it again continues from the residual state, so
    /// staged solves (enable edges, flow, enable more, flow again) compose.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut scratch = NaiveScratch::default();
        self.max_flow_with(s, t, &mut scratch)
    }

    /// [`NaiveFlowNetwork::max_flow`] with caller-provided scratch: repeated
    /// solves reuse the BFS queue, level array, iterator array and DFS
    /// stack without allocating.
    pub fn max_flow_with(&mut self, s: usize, t: usize, scratch: &mut NaiveScratch) -> i64 {
        assert!(s < self.graph.len() && t < self.graph.len());
        if s == t {
            return 0;
        }
        let n = self.graph.len();
        scratch.level.resize(n, -1);
        scratch.it.resize(n, 0);
        let mut total = 0i64;
        loop {
            // BFS levels on the residual graph.
            scratch.level.iter_mut().for_each(|l| *l = -1);
            scratch.level[s] = 0;
            scratch.queue.clear();
            scratch.queue.push_back(s);
            while let Some(v) = scratch.queue.pop_front() {
                for &eid in &self.graph[v] {
                    let e = &self.edges[eid];
                    if e.cap > 0 && scratch.level[e.to] < 0 {
                        scratch.level[e.to] = scratch.level[v] + 1;
                        scratch.queue.push_back(e.to);
                    }
                }
            }
            if scratch.level[t] < 0 {
                return total;
            }
            scratch.rounds += 1;
            let sink_level = scratch.level[t];
            scratch.rounds_past_sink += usize::from(scratch.level.iter().any(|&l| l > sink_level));
            scratch.it.iter_mut().for_each(|i| *i = 0);
            total += self.blocking_flow(s, t, scratch);
        }
    }

    /// One blocking flow on the current level graph, via an explicit-stack
    /// DFS (`scratch.path` holds the edge ids of the walk), so deep level
    /// graphs cannot overflow the call stack.
    fn blocking_flow(&mut self, s: usize, t: usize, scratch: &mut NaiveScratch) -> i64 {
        let NaiveScratch {
            level, it, path, ..
        } = scratch;
        path.clear();
        let mut total = 0i64;
        let mut v = s;
        loop {
            if v == t {
                // Augment along `path`.
                let mut push = i64::MAX;
                for &eid in path.iter() {
                    push = push.min(self.edges[eid].cap);
                }
                for &eid in path.iter() {
                    self.edges[eid].cap -= push;
                    self.edges[eid ^ 1].cap += push;
                }
                total += push;
                // Retreat to the tail of the first saturated edge.
                let first_sat = path
                    .iter()
                    .position(|&eid| self.edges[eid].cap == 0)
                    .expect("bottleneck edge saturated");
                path.truncate(first_sat);
                v = match path.last() {
                    Some(&eid) => self.edges[eid].to,
                    None => s,
                };
                continue;
            }
            // Advance along the next admissible edge, if any.
            let mut advanced = false;
            while it[v] < self.graph[v].len() {
                let eid = self.graph[v][it[v]];
                let e = &self.edges[eid];
                if e.cap > 0 && level[e.to] == level[v] + 1 {
                    path.push(eid);
                    v = e.to;
                    advanced = true;
                    break;
                }
                it[v] += 1;
            }
            if advanced {
                continue;
            }
            // Dead end: prune and retreat.
            if v == s {
                return total;
            }
            level[v] = -1;
            let eid = path.pop().expect("non-source dead end has an inbound edge");
            let u = self.edges[eid ^ 1].to;
            it[u] += 1;
            v = u;
        }
    }
}
