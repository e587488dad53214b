//! Residual flow network with Dinic max-flow, designed for **reuse across
//! control cycles**:
//!
//! * [`FlowNetwork::clear`] resets topology while keeping every allocation
//!   (edge arrays, adjacency index), so a controller can rebuild its
//!   transportation network each cycle without touching the allocator;
//! * [`FlowNetwork::set_cap`] rewrites one edge's capacity in place, so
//!   a staged solve can open gated edges between max-flow calls;
//! * [`MaxFlowScratch`] holds the BFS/DFS working memory so repeated
//!   solves allocate nothing.
//!
//! # Layout
//!
//! Half-edges live by id in two parallel arrays, `to` and `cap` (the
//! residual capacity): edge `2k` is the forward edge [`EdgeId`] `k` names,
//! `2k+1` its reverse. No original capacity is stored. Every augment
//! moves the same amount from one half to the other, and `set_cap` writes
//! the forward half and zeroes the reverse, so the two residuals always sum
//! to the edge's capacity. The flow on an edge is therefore its reverse
//! half's residual.
//!
//! The adjacency is one CSR index rather than a list per vertex. The half-edges
//! leaving `v` are `adj[start[v]..start[v + 1]]`. [`FlowNetwork::build_index`]
//! fills it with one counting pass over the half-edges, so each vertex lists
//! its edges in ascending id order. That is the order in which `add_edge`
//! pushed them onto per-vertex lists, so the DFS tries the same edges in the
//! same order and finds the same augmenting paths. The index is built at
//! the first solve after an `add_edge` or a `clear` (or earlier, by a
//! caller that wants the cost charged elsewhere). `set_cap` leaves it
//! valid. An `add_vertex` or `add_edge` after a solve keeps every residual
//! and only marks the index stale.
//!
//! Vertex ids, half-edge ids and CSR offsets are `u32`. `add_edge` asserts
//! that the vertex count and the half-edge count fit.
//!
//! # Dinic rounds
//!
//! Each round labels the residual graph breadth-first from the source and
//! runs one blocking flow on the level graph. The BFS stops once it pops a
//! vertex at the sink's level `L`. By then every vertex of level `≤ L` is
//! labelled, exactly as a full BFS labels it. What stays unlabelled lies at
//! levels `> L`, and a DFS that enters such a vertex can never reach the
//! sink, because levels only grow along an admissible path. So no
//! augmentation changes: the DFS skips an edge it would otherwise have
//! walked into a dead end and pruned.
//!
//! No round ever walks an edge out of the sink. The BFS breaks on popping
//! the first vertex of level `L`, before expanding it, and the sink is of
//! level `L`, so it is never expanded; the DFS augments as soon as it
//! reaches the sink. The half-edges leaving the sink are the reverse
//! halves of the edges into it, so a caller may `set_cap` an edge into
//! the sink between solves — which zeroes that reverse half, dropping the
//! flow it recorded — without moving any later augmenting path. The
//! allocator lowers its nodes' sink edges this way between its phases.
//!
//! The blocking-flow DFS is an explicit stack walk, so level graphs of any
//! depth (thousands of nodes) cannot overflow the call stack.

/// Identifier of a directed edge added with [`FlowNetwork::add_edge`].
/// Stable across solver runs; use it to read back flow with
/// [`FlowNetwork::flow_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(u32);

/// A directed flow network over `n` numbered nodes (see the module
/// documentation for the layout).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    /// Number of vertices.
    n: usize,
    /// Head vertex of each half-edge; the tail of `e` is `to[e ^ 1]`.
    to: Vec<u32>,
    /// Residual capacity of each half-edge.
    cap: Vec<i64>,
    /// CSR offsets, `n + 1` of them once built; emptied by `clear`.
    start: Vec<u32>,
    /// Half-edge ids grouped by tail, ascending within each vertex.
    adj: Vec<u32>,
}

/// Reusable working memory for [`FlowNetwork::max_flow_with`].
#[derive(Debug, Clone, Default)]
pub struct MaxFlowScratch {
    level: Vec<i32>,
    /// Per vertex, the CSR slot of the next edge the DFS tries.
    it: Vec<u32>,
    /// BFS queue, read through a head cursor.
    queue: Vec<u32>,
    /// Edge ids of the current augmenting path (explicit DFS stack).
    path: Vec<u32>,
}

impl FlowNetwork {
    /// Create a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            ..FlowNetwork::default()
        }
    }

    /// Reset to `n` nodes and no edges, **retaining** the edge and index
    /// allocations of the previous build. The per-cycle constructor: a
    /// controller that re-solves every cycle calls `clear` + `add_edge`
    /// and performs no heap allocation once the high-water mark is
    /// reached.
    pub fn clear(&mut self, n: usize) {
        self.n = n;
        self.to.clear();
        self.cap.clear();
        self.start.clear();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Add a vertex with no edges and return its id. Like `add_edge`, it
    /// may follow a solve: the residuals stay and the index goes stale.
    pub fn add_vertex(&mut self) -> usize {
        assert!(self.n < u32::MAX as usize, "network exceeds u32 indices");
        self.n += 1;
        self.n - 1
    }

    /// Add a directed edge `u → v` with capacity `cap ≥ 0`. Panics on
    /// out-of-range endpoints, negative capacity or a network too large
    /// for `u32` indices (caller bugs, not data conditions).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64) -> EdgeId {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        assert!(cap >= 0, "negative capacity");
        let id = self.to.len();
        assert!(
            self.n <= u32::MAX as usize && id + 2 <= u32::MAX as usize,
            "network exceeds u32 indices"
        );
        self.to.extend([v as u32, u as u32]);
        self.cap.extend([cap, 0]);
        EdgeId(id as u32)
    }

    /// Rewrite a forward edge's capacity in place, discarding any flow it
    /// carried (the allocator opens its job gates this way between its
    /// two max-flow phases).
    pub fn set_cap(&mut self, e: EdgeId, cap: i64) {
        assert!(cap >= 0, "negative capacity");
        let fwd = e.0 as usize;
        self.cap[fwd] = cap;
        self.cap[fwd ^ 1] = 0;
    }

    /// Flow currently routed through a forward edge: its reverse half's
    /// residual.
    pub fn flow_on(&self, e: EdgeId) -> i64 {
        self.cap[e.0 as usize ^ 1]
    }

    /// Build the adjacency index if an `add_edge` or `clear` left it
    /// stale; otherwise do nothing. Every solve calls it first, so a
    /// caller needs it only to choose where the build's cost lands.
    pub fn build_index(&mut self) {
        let m = self.to.len();
        if self.start.len() == self.n + 1 && self.adj.len() == m {
            return;
        }
        // Count each vertex's out-degree, turn the counts into block ends,
        // then walk the half-edges backwards, stepping each tail's cursor
        // down: every block ends up in ascending id order and `start[v]`
        // at its beginning.
        self.start.clear();
        self.start.resize(self.n + 1, 0);
        for &head in &self.to {
            // `to[e]` is the tail of `e ^ 1`; the pair covers both halves.
            self.start[head as usize] += 1;
        }
        let mut end = 0u32;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        self.adj.clear();
        self.adj.resize(m, 0);
        for e in (0..m).rev() {
            let tail = self.to[e ^ 1] as usize;
            self.start[tail] -= 1;
            self.adj[self.start[tail] as usize] = e as u32;
        }
    }

    // ------------------------------------------------------------------
    // Dinic max-flow
    // ------------------------------------------------------------------

    /// Maximum flow from `s` to `t` (Dinic), allocating its own scratch.
    /// The network retains the flow; inspect per-edge values with
    /// [`FlowNetwork::flow_on`]; to start over, rewrite the capacities
    /// with [`FlowNetwork::set_cap`] (which discards the edge's flow).
    /// Calling it again continues from the residual state, so
    /// staged solves (enable edges, flow, enable more, flow again) compose.
    pub fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut scratch = MaxFlowScratch::default();
        self.max_flow_with(s, t, &mut scratch)
    }

    /// [`FlowNetwork::max_flow`] with caller-provided scratch: repeated
    /// solves reuse the BFS queue, level array, iterator array and DFS
    /// stack without allocating.
    pub fn max_flow_with(&mut self, s: usize, t: usize, scratch: &mut MaxFlowScratch) -> i64 {
        assert!(s < self.n && t < self.n);
        if s == t {
            return 0;
        }
        self.build_index();
        let n = self.n;
        scratch.level.resize(n, -1);
        scratch.it.resize(n, 0);
        let mut total = 0i64;
        while self.label_levels(s, t, scratch) {
            scratch.it.copy_from_slice(&self.start[..n]);
            total += self.blocking_flow(s, t, scratch);
        }
        total
    }

    /// BFS levels on the residual graph, stopping at the sink's level
    /// (see the module documentation); `true` if the sink was reached.
    fn label_levels(&self, s: usize, t: usize, scratch: &mut MaxFlowScratch) -> bool {
        let MaxFlowScratch { level, queue, .. } = scratch;
        level.fill(-1);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let v = v as usize;
            // `level[t]` is -1 until the sink is labelled.
            if level[v] == level[t] {
                break;
            }
            for &e in &self.adj[self.start[v] as usize..self.start[v + 1] as usize] {
                let w = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && level[w] < 0 {
                    level[w] = level[v] + 1;
                    queue.push(w as u32);
                }
            }
        }
        level[t] >= 0
    }

    /// One blocking flow on the current level graph, via an explicit-stack
    /// DFS (`scratch.path` holds the edge ids of the walk), so deep level
    /// graphs cannot overflow the call stack.
    fn blocking_flow(&mut self, s: usize, t: usize, scratch: &mut MaxFlowScratch) -> i64 {
        let FlowNetwork {
            to,
            cap,
            start,
            adj,
            ..
        } = self;
        let MaxFlowScratch {
            level, it, path, ..
        } = scratch;
        path.clear();
        let mut total = 0i64;
        let mut v = s;
        loop {
            if v == t {
                // Augment along `path`.
                let mut push = i64::MAX;
                for &e in path.iter() {
                    push = push.min(cap[e as usize]);
                }
                for &e in path.iter() {
                    cap[e as usize] -= push;
                    cap[e as usize ^ 1] += push;
                }
                total += push;
                // Retreat to the tail of the first saturated edge.
                let first_sat = path
                    .iter()
                    .position(|&e| cap[e as usize] == 0)
                    .expect("bottleneck edge saturated");
                path.truncate(first_sat);
                v = match path.last() {
                    Some(&e) => to[e as usize] as usize,
                    None => s,
                };
                continue;
            }
            // Advance along the next admissible edge, if any.
            let mut advanced = false;
            let end = start[v + 1];
            while it[v] < end {
                let e = adj[it[v] as usize];
                let w = to[e as usize] as usize;
                if cap[e as usize] > 0 && level[w] == level[v] + 1 {
                    path.push(e);
                    v = w;
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
            let e = path.pop().expect("non-source dead end has an inbound edge");
            let u = to[e as usize ^ 1] as usize;
            it[u] += 1;
            v = u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_two_node_network() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 7);
        assert_eq!(g.max_flow(0, 1), 7);
        assert_eq!(g.flow_on(e), 7);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two disjoint paths of capacity 10 and 5, plus a cross
        // edge enabling 15 total.
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(0, 2, 5);
        g.add_edge(1, 3, 5);
        g.add_edge(1, 2, 15);
        g.add_edge(2, 3, 10);
        assert_eq!(g.max_flow(0, 3), 15);
    }

    #[test]
    fn flow_respects_bottleneck() {
        let mut g = FlowNetwork::new(4);
        g.add_edge(0, 1, 100);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 100);
        assert_eq!(g.max_flow(0, 3), 3);
    }

    #[test]
    fn disconnected_target_gets_zero() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5);
        assert_eq!(g.max_flow(0, 2), 0);
    }

    #[test]
    fn same_source_and_sink() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 1, 5);
        assert_eq!(g.max_flow(0, 0), 0);
    }

    #[test]
    fn bipartite_transportation_shape() {
        // 2 apps (demand 8, 6) × 3 nodes (capacity 5 each), app0 placed on
        // nodes {0,1}, app1 on {1,2}: max satisfiable = 5+5+... app0 ≤ 10,
        // app1 ≤ 10, per-node ≤ 5, total ≤ 14 demand, but node1 shared:
        // best = app0:8 (5 on n0, 3 on n1), app1:6 (2 on n1 + ... n1 has 2
        // left, n2 gives 5) = 7? app1 gets min(6, 2+5)=6. Total 14? n1
        // carries 3+2=5 ✓. So full 14.
        let mut g = FlowNetwork::new(7); // 0=s, 1-2 apps, 3-5 nodes, 6=t
        g.add_edge(0, 1, 8);
        g.add_edge(0, 2, 6);
        g.add_edge(1, 3, i64::MAX / 8);
        g.add_edge(1, 4, i64::MAX / 8);
        g.add_edge(2, 4, i64::MAX / 8);
        g.add_edge(2, 5, i64::MAX / 8);
        g.add_edge(3, 6, 5);
        g.add_edge(4, 6, 5);
        g.add_edge(5, 6, 5);
        assert_eq!(g.max_flow(0, 6), 14);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn add_edge_checks_endpoints() {
        let mut g = FlowNetwork::new(2);
        g.add_edge(0, 5, 1);
    }

    /// `clear` leaves a network that builds and solves like a fresh one,
    /// smaller or larger. (The name's "negative flag" belonged to the
    /// min-cost half of the crate, which is gone; the name is kept.)
    #[test]
    fn clear_retains_usability_and_resets_negative_flag() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 5);
        g.add_edge(1, 2, 5);
        assert_eq!(g.max_flow(0, 2), 5);
        // Rebuild smaller, then larger, on the same allocation.
        g.clear(2);
        assert_eq!(g.len(), 2);
        let e = g.add_edge(0, 1, 3);
        assert_eq!(g.max_flow(0, 1), 3);
        assert_eq!(g.flow_on(e), 3);
        g.clear(4);
        assert_eq!(g.len(), 4);
        g.add_edge(0, 3, 9);
        assert_eq!(g.max_flow(0, 3), 9);
    }

    #[test]
    fn set_cap_rewrites_capacity_and_discards_flow() {
        let mut g = FlowNetwork::new(2);
        let e = g.add_edge(0, 1, 4);
        assert_eq!(g.max_flow(0, 1), 4);
        g.set_cap(e, 9);
        assert_eq!(g.flow_on(e), 0);
        assert_eq!(g.max_flow(0, 1), 9);
        g.set_cap(e, 0);
        assert_eq!(g.max_flow(0, 1), 0);
    }

    #[test]
    fn a_vertex_added_after_a_solve_joins_the_next_one() {
        let mut g = FlowNetwork::new(3);
        g.add_edge(0, 1, 4);
        let out = g.add_edge(1, 2, 9);
        assert_eq!(g.max_flow(0, 2), 4);
        let v = g.add_vertex();
        assert_eq!((v, g.len()), (3, 4));
        g.add_edge(0, v, 6);
        g.add_edge(v, 1, 6);
        assert_eq!(g.max_flow(0, 2), 5);
        assert_eq!(g.flow_on(out), 9);
    }

    #[test]
    fn staged_max_flow_composes() {
        // Gate one source edge closed, flow, open it, flow again: totals
        // accumulate exactly as a single solve would.
        let mut g = FlowNetwork::new(4);
        let gate = g.add_edge(0, 1, 0);
        g.add_edge(0, 2, 5);
        g.add_edge(1, 3, 7);
        g.add_edge(2, 3, 5);
        assert_eq!(g.max_flow(0, 3), 5);
        g.set_cap(gate, 7);
        assert_eq!(g.max_flow(0, 3), 7);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 20 000-node path: the recursive DFS would blow the stack here.
        let n = 20_000;
        let mut g = FlowNetwork::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, 3);
        }
        assert_eq!(g.max_flow(0, n - 1), 3);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut mf = MaxFlowScratch::default();
        for trial in 0..4u64 {
            let n = 30 + trial as usize * 17;
            let mut g1 = FlowNetwork::new(n);
            let mut g2 = FlowNetwork::new(n);
            // Deterministic pseudo-random sparse graph.
            let mut x = trial.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for _ in 0..n * 4 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x % n as u64) as usize;
                let v = ((x >> 20) % n as u64) as usize;
                if u == v {
                    continue;
                }
                let cap = ((x >> 40) % 50) as i64;
                g1.add_edge(u, v, cap);
                g2.add_edge(u, v, cap);
            }
            assert_eq!(
                g1.max_flow_with(0, n - 1, &mut mf),
                g2.max_flow(0, n - 1),
                "trial {trial}"
            );
        }
    }

    /// Brute-force min-cut over all vertex subsets (for tiny graphs).
    fn brute_min_cut(n: usize, edges: &[(usize, usize, i64)], s: usize, t: usize) -> i64 {
        let mut best = i64::MAX;
        for mask in 0u32..(1 << n) {
            if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
                continue;
            }
            let cut: i64 = edges
                .iter()
                .filter(|&&(u, v, _)| mask & (1 << u) != 0 && mask & (1 << v) == 0)
                .map(|&(_, _, c)| c)
                .sum();
            best = best.min(cut);
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_max_flow_equals_min_cut(
            n in 2usize..6,
            raw_edges in proptest::collection::vec((0usize..6, 0usize..6, 0i64..20), 0..14),
        ) {
            let edges: Vec<(usize, usize, i64)> = raw_edges
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v)
                .collect();
            let mut g = FlowNetwork::new(n);
            for &(u, v, c) in &edges {
                g.add_edge(u, v, c);
            }
            let f = g.max_flow(0, n - 1);
            let cut = brute_min_cut(n, &edges, 0, n - 1);
            prop_assert_eq!(f, cut);
        }

        #[test]
        fn prop_flow_conservation_and_capacity(
            n in 3usize..7,
            raw_edges in proptest::collection::vec((0usize..7, 0usize..7, 0i64..50), 1..20),
        ) {
            let edges: Vec<(usize, usize, i64)> = raw_edges
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v)
                .collect();
            let mut g = FlowNetwork::new(n);
            let ids: Vec<EdgeId> = edges.iter().map(|&(u, v, c)| g.add_edge(u, v, c)).collect();
            let f = g.max_flow(0, n - 1);
            // Capacity constraints.
            let mut net = vec![0i64; n];
            for (&(u, v, c), &id) in edges.iter().zip(&ids) {
                let fl = g.flow_on(id);
                prop_assert!((0..=c).contains(&fl));
                net[u] -= fl;
                net[v] += fl;
            }
            // Conservation at internal vertices; source/sink balance = f.
            prop_assert_eq!(net[0], -f);
            prop_assert_eq!(net[n - 1], f);
            #[allow(clippy::needless_range_loop)]
            for v in 1..n - 1 {
                prop_assert_eq!(net[v], 0, "imbalance at {}", v);
            }
        }

        #[test]
        fn prop_clear_rebuild_matches_fresh_network(
            n in 2usize..6,
            raw_edges in proptest::collection::vec((0usize..6, 0usize..6, 0i64..20), 0..14),
        ) {
            let edges: Vec<(usize, usize, i64)> = raw_edges
                .into_iter()
                .filter(|&(u, v, _)| u < n && v < n && u != v)
                .collect();
            // A reused (cleared) network must behave exactly like a fresh
            // one on the same topology.
            let mut reused = FlowNetwork::new(9);
            reused.add_edge(0, 8, 3);
            reused.max_flow(0, 8);
            reused.clear(n);
            let mut fresh = FlowNetwork::new(n);
            for &(u, v, c) in &edges {
                reused.add_edge(u, v, c);
                fresh.add_edge(u, v, c);
            }
            prop_assert_eq!(reused.max_flow(0, n - 1), fresh.max_flow(0, n - 1));
        }
    }
}
