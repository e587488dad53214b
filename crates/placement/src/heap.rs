//! Candidate-node heap: the solver's `O(log N)` replacement for per-job
//! full-node scans.
//!
//! The placement heuristic's improvement steps (solver steps 2–4, the
//! HPDC'08 algorithm's steps 3–5) repeatedly ask one question: *which
//! node offers this entity the most residual CPU, subject to a memory
//! floor and a few per-query exclusions?* Answering it with a linear
//! `max_by` scan costs `O(N)` per placement — `O(J·N)` per cycle.
//!
//! [`CandidateHeap`] is an **indexed tournament heap** (an implicit
//! binary segment tree over the problem's dense node indices) keyed by
//! residual CPU. Each leaf mirrors one node's `(cpu_free, mem_free)`
//! trackers; each internal node keeps the component-wise maxima, the
//! lowest node id and a shard-membership bitmask of its subtree. Queries
//! descend from the root, pruning subtrees that hold no feasible winner.
//!
//! ### The upkeep contract
//!
//! The tree is a pure function of its leaves: every internal slot is the
//! pull of its two children. So an update, removal or restoration
//! re-pulls a leaf's ancestors only up to the first one whose `(cpu bits,
//! mem, smask)` the pull leaves unchanged — at most `O(log N)` — and
//! every answer and visit count is the one a walk to the root gives.
//! Solver step 2 excludes hosts lazily, at an application's first query,
//! so one that asks nothing writes each host's trackers once (`update`).
//! [`tree_is_fresh`](CandidateHeap::tree_is_fresh) checks the invariant
//! (asserted in debug builds after solver steps 1–4).
//!
//! ### The ordering contract
//!
//! Bit-identical solver outcomes are a hard requirement (the
//! `reference` differential oracle and the golden
//! corpus pins enforce it), so the heap reproduces that oracle's
//! linear-scan comparators *exactly* rather than approximating them:
//!
//! * [`best_residual`](CandidateHeap::best_residual) — key
//!   `(cpu_free ↓, node id ↑)` under [`fcmp`], the order used when apps
//!   grow instances and when shortchanged jobs look for a migration
//!   target;
//! * [`best_saturating`](CandidateHeap::best_saturating) — key
//!   `(min(cpu_free, demand) ↓, mem_free ↓, node id ↑)`, the order used
//!   when placing a job: residual CPU saturates at the job's demand
//!   (any node that fully feeds the job ties), so free memory and then
//!   the lower node id break ties.
//!
//! Both orders are total (node ids are unique), so the argmax is unique
//! and the descent's pruning/visit order cannot change the winner.
//!
//! ### The bound, and when descent is still `O(N)`
//!
//! A subtree's bound is its CPU and memory maxima with its *lowest* node
//! id, which makes it admissible: a subtree is pruned only when no leaf
//! inside can beat the best candidate found so far. The id matters on a
//! homogeneous fleet, where every subtree's maxima tie the incumbent: a
//! tied subtree whose ids all lose to it is pruned, and the more
//! promising child (the lower id among tied maxima) is entered first,
//! so an all-equal fleet is answered in two visits per tree level. The
//! ids are computed in [`assign`](CandidateHeap::assign) only, and a
//! removed leaf keeps its id, which only loosens the bound.
//!
//! Descent is still `O(N)` where the maxima pass a filter no single leaf
//! passes (CPU and memory maxima from different leaves) or the leaves
//! that would win are excluded (the `exclude_leaf`, a shard label, a
//! removed leaf): such a query proves its answer leaf by leaf.
//! [`take_visits`](CandidateHeap::take_visits) counts what the queries
//! cost; the solver publishes it as `heap.visits`.
//!
//! **Lifecycle.** A heap lives in a long-lived [`Solver`](crate::Solver)
//! (one per sharded lane) and is warm-reused: [`assign`](CandidateHeap::assign)
//! refreshes leaf values in place every solve and rebuilds the topology
//! only when the node set changed (count or ids), which
//! [`rebuilds`](CandidateHeap::rebuilds) counts.

use slaq_types::{fcmp, MemMb, NodeId};
use std::cell::Cell;
use std::cmp::Ordering;

/// Shard labels at or above this bit index share the bitmask's top bit,
/// so shard pruning degrades gracefully (leaf checks stay exact).
const SHARD_MASK_BITS: u32 = 63;

/// A candidate's comparison key. `mem` participates only in saturating
/// queries (residual queries zero it on both sides, so it never decides).
#[derive(Debug, Clone, Copy)]
struct Key {
    cpu: f64,
    mem: u64,
    id: NodeId,
}

impl Key {
    /// `true` when `self` ranks strictly above `other`: higher CPU key,
    /// then more free memory, then the *lower* node id — exactly the
    /// reference solver's scan comparators.
    #[inline]
    fn beats(self, other: Key) -> bool {
        fcmp(self.cpu, other.cpu)
            .then(self.mem.cmp(&other.mem))
            .then(other.id.cmp(&self.id))
            == Ordering::Greater
    }
}

/// One candidate query's filters and key shape. `demand` switches between
/// the residual key (`None`) and the saturating key (`Some(d)`).
#[derive(Debug, Clone, Copy)]
struct Query {
    demand: Option<f64>,
    min_mem: u64,
    cpu_floor: f64,
    exclude_leaf: usize,
    exclude_shard: u32,
}

/// An indexed tournament heap over the problem's dense node indices,
/// keyed by residual CPU with free-memory maxima and shard bitmasks for
/// subtree pruning. See the [module docs](self) for the upkeep and
/// ordering contracts and the lifecycle.
///
/// ```
/// use slaq_placement::CandidateHeap;
/// use slaq_types::{MemMb, NodeId};
///
/// let mut heap = CandidateHeap::default();
/// heap.assign(
///     [
///         (NodeId::new(0), 0, 4000.0, MemMb::new(2048)),
///         (NodeId::new(1), 0, 6000.0, MemMb::new(512)),
///     ]
///     .into_iter(),
/// );
/// // Most residual CPU wins…
/// assert_eq!(heap.peek(), Some(1));
/// // …unless a memory floor disqualifies the front-runner.
/// assert_eq!(heap.best_residual(MemMb::new(1024), 1e-9, None), Some(0));
/// // A point update re-pulls its ancestors up to the first one it
/// // leaves unchanged.
/// heap.update(0, 7000.0, MemMb::new(2048));
/// assert_eq!(heap.pop(), Some(0));
/// assert_eq!(heap.pop(), Some(1));
/// assert_eq!(heap.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CandidateHeap {
    /// Leaf count (= node count of the assigned problem).
    len: usize,
    /// Tree of size `2·len`: leaf `i`'s slot `len + i` holds its node id
    /// (the tie-break), an internal slot its subtree's lowest id — the id
    /// component of the pruning bound. Written by `assign` only.
    ids: Vec<NodeId>,
    /// Per leaf: shard label (0 when the caller doesn't shard).
    shard: Vec<u32>,
    /// Per leaf: `false` after [`CandidateHeap::remove`].
    alive: Vec<bool>,
    /// Tree of size `2·len`: internal nodes in `1..len` hold subtree
    /// maxima, leaf `i` lives at `len + i`. Removed leaves read `-∞`.
    cpu: Vec<f64>,
    /// Subtree maxima of free memory (raw MB); removed leaves read 0.
    mem: Vec<u64>,
    /// Subtree shard-membership bitmasks (bit `min(shard, 63)`).
    smask: Vec<u64>,
    /// Topology rebuild count (diagnostics; pinned by warm-reuse tests).
    rebuilds: usize,
    /// Tree slots visited by queries since the last
    /// [`take_visits`](CandidateHeap::take_visits).
    visits: Cell<u64>,
}

impl CandidateHeap {
    /// Number of leaves (nodes) currently assigned.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no nodes are assigned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many times [`assign`](CandidateHeap::assign) had to rebuild
    /// the tree topology (node count or id set changed). Capacity-only
    /// refreshes never increment this — the warm-reuse contract.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Tree slots the queries visited since the last call, and reset
    /// the count: what a query costs, for the solver's `heap.visits`
    /// counter and the tie census.
    pub fn take_visits(&self) -> u64 {
        self.visits.take()
    }

    /// Load one solve's node state: `(id, shard, cpu_free, mem_free)`
    /// per node, in dense order. Values are refreshed in place; the tree
    /// is reallocated only when the topology (count or ids) changed.
    /// All leaves come back alive.
    pub fn assign<I>(&mut self, nodes: I)
    where
        I: Iterator<Item = (NodeId, u32, f64, MemMb)> + ExactSizeIterator,
    {
        let n = nodes.len();
        if n != self.len {
            self.len = n;
            self.ids.clear();
            self.ids.resize(2 * n, NodeId::new(0));
            self.shard.clear();
            self.shard.resize(n, 0);
            self.alive.clear();
            self.alive.resize(n, true);
            self.cpu.clear();
            self.cpu.resize(2 * n, f64::NEG_INFINITY);
            self.mem.clear();
            self.mem.resize(2 * n, 0);
            self.smask.clear();
            self.smask.resize(2 * n, 0);
            self.rebuilds += 1;
            for (leaf, (id, shard, cpu, mem)) in nodes.enumerate() {
                self.ids[n + leaf] = id;
                self.shard[leaf] = shard;
                self.write_leaf(leaf, cpu, mem);
            }
        } else {
            let mut topo_changed = false;
            for (leaf, (id, shard, cpu, mem)) in nodes.enumerate() {
                topo_changed |= self.ids[n + leaf] != id;
                self.ids[n + leaf] = id;
                self.shard[leaf] = shard;
                self.alive[leaf] = true;
                self.write_leaf(leaf, cpu, mem);
            }
            if topo_changed {
                self.rebuilds += 1;
            }
        }
        for t in (1..self.len).rev() {
            self.pull(t);
            self.ids[t] = self.ids[2 * t].min(self.ids[2 * t + 1]);
        }
    }

    /// Update one leaf's trackers after a placement decision. `O(log N)`.
    #[inline]
    pub fn update(&mut self, leaf: usize, cpu_free: f64, mem_free: MemMb) {
        debug_assert!(self.alive[leaf], "update of a removed leaf");
        self.write_leaf(leaf, cpu_free, mem_free);
        self.bubble(leaf);
    }

    /// Take a leaf out of candidacy (lazy deletion: the slot stays, the
    /// subtree maxima stop seeing it). `O(log N)`.
    #[inline]
    pub fn remove(&mut self, leaf: usize) {
        self.alive[leaf] = false;
        let t = self.len + leaf;
        self.cpu[t] = f64::NEG_INFINITY;
        self.mem[t] = 0;
        self.smask[t] = 0;
        self.bubble(leaf);
    }

    /// Put a removed leaf back with fresh trackers. `O(log N)`.
    #[inline]
    pub fn restore(&mut self, leaf: usize, cpu_free: f64, mem_free: MemMb) {
        debug_assert!(!self.alive[leaf], "restore of a live leaf");
        self.alive[leaf] = true;
        self.write_leaf(leaf, cpu_free, mem_free);
        self.bubble(leaf);
    }

    /// Whether every internal slot is the pull of its children, bit for
    /// bit, ids included: what `bubble`'s early exit rests on. `O(N)`.
    pub fn tree_is_fresh(&self) -> bool {
        (1..self.len).all(|t| {
            let (l, r) = (2 * t, 2 * t + 1);
            self.cpu[t].to_bits() == self.cpu[l].max(self.cpu[r]).to_bits()
                && self.mem[t] == self.mem[l].max(self.mem[r])
                && self.smask[t] == self.smask[l] | self.smask[r]
                && self.ids[t] == self.ids[l].min(self.ids[r])
        })
    }

    /// The best candidate under the **residual** key
    /// `(cpu_free ↓, id ↑)` among alive leaves with
    /// `mem_free ≥ min_mem` and `cpu_free > cpu_floor`, skipping
    /// `exclude_leaf`. Pass `f64::NEG_INFINITY` as the floor to admit
    /// CPU-exhausted nodes.
    pub fn best_residual(
        &self,
        min_mem: MemMb,
        cpu_floor: f64,
        exclude_leaf: Option<usize>,
    ) -> Option<usize> {
        self.query(Query {
            demand: None,
            min_mem: min_mem.as_u64(),
            cpu_floor,
            exclude_leaf: exclude_leaf.unwrap_or(usize::MAX),
            exclude_shard: u32::MAX,
        })
    }

    /// The best candidate under the **saturating** key
    /// `(min(cpu_free, demand) ↓, mem_free ↓, id ↑)` among alive leaves
    /// with `mem_free ≥ min_mem` and `cpu_free > cpu_floor`, skipping
    /// leaves labeled `exclude_shard`. This is the job-placement order:
    /// nodes that fully feed the job tie on CPU, so free memory decides.
    pub fn best_saturating(
        &self,
        demand: f64,
        min_mem: MemMb,
        cpu_floor: f64,
        exclude_shard: Option<u32>,
    ) -> Option<usize> {
        self.query(Query {
            demand: Some(demand),
            min_mem: min_mem.as_u64(),
            cpu_floor,
            exclude_leaf: usize::MAX,
            exclude_shard: exclude_shard.unwrap_or(u32::MAX),
        })
    }

    /// The unfiltered residual-order front-runner, without removing it.
    pub fn peek(&self) -> Option<usize> {
        self.best_residual(MemMb::new(0), f64::NEG_INFINITY, None)
    }

    /// Pop the residual-order front-runner: the alive leaf with the most
    /// free CPU (ties: lower node id), removed from candidacy.
    pub fn pop(&mut self) -> Option<usize> {
        let leaf = self.peek()?;
        self.remove(leaf);
        Some(leaf)
    }

    // ----------------------------------------------------------------
    // Internals.
    // ----------------------------------------------------------------

    /// Write a leaf's tree slot (no bubbling).
    #[inline]
    fn write_leaf(&mut self, leaf: usize, cpu: f64, mem: MemMb) {
        let t = self.len + leaf;
        self.cpu[t] = cpu;
        self.mem[t] = mem.as_u64();
        self.smask[t] = 1u64 << self.shard[leaf].min(SHARD_MASK_BITS);
    }

    /// Recompute one internal node from its children.
    #[inline]
    fn pull(&mut self, t: usize) {
        let (l, r) = (2 * t, 2 * t + 1);
        self.cpu[t] = self.cpu[l].max(self.cpu[r]);
        self.mem[t] = self.mem[l].max(self.mem[r]);
        self.smask[t] = self.smask[l] | self.smask[r];
    }

    /// Recompute the ancestors of a leaf up to the first one the pull
    /// leaves unchanged (the upkeep contract: those above hold theirs).
    #[inline]
    fn bubble(&mut self, leaf: usize) {
        let mut t = (self.len + leaf) / 2;
        while t >= 1 {
            let was = (self.cpu[t].to_bits(), self.mem[t], self.smask[t]);
            self.pull(t);
            if (self.cpu[t].to_bits(), self.mem[t], self.smask[t]) == was {
                return;
            }
            t /= 2;
        }
    }

    /// Admissible upper bound on any leaf key inside subtree `t`: the
    /// component-wise maxima with the subtree's lowest id. At a leaf it
    /// is the leaf's own key.
    #[inline]
    fn bound(&self, t: usize, q: &Query) -> Key {
        Key {
            cpu: q.demand.map_or(self.cpu[t], |d| self.cpu[t].min(d)),
            mem: if q.demand.is_some() { self.mem[t] } else { 0 },
            id: self.ids[t],
        }
    }

    /// Best-first descent from the root with subtree pruning.
    fn query(&self, q: Query) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(Key, usize)> = None;
        self.descend(1, &q, &mut best);
        best.map(|(_, leaf)| leaf)
    }

    fn descend(&self, t: usize, q: &Query, best: &mut Option<(Key, usize)>) {
        self.visits.set(self.visits.get() + 1);
        // Feasibility pruning: at a leaf these comparisons *are* the
        // exact filters; at an internal node they are necessary
        // conditions on the maxima.
        if self.mem[t] < q.min_mem || self.cpu[t] <= q.cpu_floor {
            return;
        }
        if q.exclude_shard < SHARD_MASK_BITS && self.smask[t] & !(1u64 << q.exclude_shard) == 0 {
            return;
        }
        // Bound pruning: keys are unique (distinct ids), so a subtree
        // whose admissible bound does not beat the incumbent holds no
        // better leaf.
        if let Some((incumbent, _)) = *best {
            if !self.bound(t, q).beats(incumbent) {
                return;
            }
        }
        if t >= self.len {
            let leaf = t - self.len;
            if !self.alive[leaf] || leaf == q.exclude_leaf || self.shard[leaf] == q.exclude_shard {
                return;
            }
            let key = self.bound(t, q);
            if best.is_none_or(|(incumbent, _)| key.beats(incumbent)) {
                *best = Some((key, leaf));
            }
            return;
        }
        // Visit the more promising child first so the second descent
        // prunes on its sibling's result.
        let (l, r) = (2 * t, 2 * t + 1);
        if self.bound(r, q).beats(self.bound(l, q)) {
            self.descend(r, q, best);
            self.descend(l, q, best);
        } else {
            self.descend(l, q, best);
            self.descend(r, q, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference scan mirroring `best_residual`'s contract.
    fn scan_residual(
        nodes: &[(NodeId, u32, f64, u64, bool)],
        min_mem: u64,
        cpu_floor: f64,
        exclude_leaf: Option<usize>,
    ) -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .filter(|&(i, &(_, _, cpu, mem, alive))| {
                alive && mem >= min_mem && cpu > cpu_floor && Some(i) != exclude_leaf
            })
            .max_by(|(_, a), (_, b)| fcmp(a.2, b.2).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Reference scan mirroring `best_saturating`'s contract.
    fn scan_saturating(
        nodes: &[(NodeId, u32, f64, u64, bool)],
        demand: f64,
        min_mem: u64,
        cpu_floor: f64,
        exclude_shard: Option<u32>,
    ) -> Option<usize> {
        nodes
            .iter()
            .enumerate()
            .filter(|&(_, &(_, shard, cpu, mem, alive))| {
                alive && mem >= min_mem && cpu > cpu_floor && Some(shard) != exclude_shard
            })
            .max_by(|(_, a), (_, b)| {
                fcmp(a.2.min(demand), b.2.min(demand))
                    .then(a.3.cmp(&b.3))
                    .then(b.0.cmp(&a.0))
            })
            .map(|(i, _)| i)
    }

    fn heap_of(nodes: &[(NodeId, u32, f64, u64, bool)]) -> CandidateHeap {
        let mut heap = CandidateHeap::default();
        heap.assign(
            nodes
                .iter()
                .map(|&(id, shard, cpu, mem, _)| (id, shard, cpu, MemMb::new(mem))),
        );
        for (leaf, &(_, _, _, _, alive)) in nodes.iter().enumerate() {
            if !alive {
                heap.remove(leaf);
            }
        }
        heap
    }

    #[test]
    fn empty_heap_answers_nothing() {
        let mut heap = CandidateHeap::default();
        assert_eq!(heap.peek(), None);
        assert_eq!(heap.pop(), None);
        assert_eq!(heap.best_residual(MemMb::new(0), 0.0, None), None);
        heap.assign(std::iter::empty());
        assert_eq!(heap.best_saturating(100.0, MemMb::new(0), 0.0, None), None);
    }

    #[test]
    fn residual_order_prefers_cpu_then_lower_id() {
        let nodes = [
            (NodeId::new(3), 0, 500.0, 1024, true),
            (NodeId::new(1), 0, 900.0, 1024, true),
            (NodeId::new(2), 0, 900.0, 4096, true),
        ];
        let heap = heap_of(&nodes);
        // 900 ties between ids 1 and 2: the lower id wins regardless of
        // memory (the residual key has no memory component).
        assert_eq!(heap.best_residual(MemMb::new(0), 1e-9, None), Some(1));
        // Memory floor knocks out both 900s? No — only the 1024 ones if
        // the floor exceeds them.
        assert_eq!(heap.best_residual(MemMb::new(2048), 1e-9, None), Some(2));
        // Excluding the winner falls back to the tie partner.
        assert_eq!(heap.best_residual(MemMb::new(0), 1e-9, Some(1)), Some(2));
        // A floor above every cpu yields nothing.
        assert_eq!(heap.best_residual(MemMb::new(0), 901.0, None), None);
    }

    #[test]
    fn saturating_order_breaks_cpu_ties_by_memory() {
        let nodes = [
            (NodeId::new(0), 0, 3000.0, 256, true),
            (NodeId::new(1), 0, 2000.0, 4096, true),
            (NodeId::new(2), 0, 1500.0, 8192, true),
        ];
        let heap = heap_of(&nodes);
        // demand 1000: every node saturates, the most free memory wins.
        assert_eq!(
            heap.best_saturating(1000.0, MemMb::new(0), 1e-9, None),
            Some(2)
        );
        // demand 2500: nodes 0 (sat) vs 1,2 (short) — node 0 wins on CPU.
        assert_eq!(
            heap.best_saturating(2500.0, MemMb::new(0), 1e-9, None),
            Some(0)
        );
        // demand 2500 with a 1 GB memory floor: node 0 is filtered, node
        // 1 offers more CPU than node 2.
        assert_eq!(
            heap.best_saturating(2500.0, MemMb::new(1024), 1e-9, None),
            Some(1)
        );
    }

    #[test]
    fn shard_exclusion_skips_home_nodes() {
        let nodes = [
            (NodeId::new(0), 7, 3000.0, 4096, true),
            (NodeId::new(1), 7, 2900.0, 4096, true),
            (NodeId::new(2), 1, 100.0, 4096, true),
        ];
        let heap = heap_of(&nodes);
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(7)),
            Some(2)
        );
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(1)),
            Some(0)
        );
        // Excluding a label nobody wears changes nothing.
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(42)),
            Some(0)
        );
    }

    #[test]
    fn shard_labels_beyond_the_mask_stay_exact() {
        // Labels ≥ 63 share bitmask bit 63: pruning must degrade to leaf
        // checks, never skip a foreign-shard candidate or admit a home
        // one.
        let nodes = [
            (NodeId::new(0), 64, 3000.0, 4096, true),
            (NodeId::new(1), 90, 2900.0, 4096, true),
            (NodeId::new(2), 64, 2800.0, 4096, true),
        ];
        let heap = heap_of(&nodes);
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(64)),
            Some(1)
        );
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(90)),
            Some(0)
        );
        assert_eq!(
            heap.best_saturating(500.0, MemMb::new(0), 1e-9, Some(63)),
            Some(0)
        );
    }

    #[test]
    fn capacity_only_reassign_never_rebuilds() {
        let ids = [NodeId::new(4), NodeId::new(0), NodeId::new(9)];
        let mut heap = CandidateHeap::default();
        heap.assign(ids.iter().map(|&id| (id, 0, 1000.0, MemMb::new(4096))));
        assert_eq!(heap.rebuilds(), 1, "first assign builds");
        // Same topology, different capacities — and leaves removed in
        // between: refresh, no rebuild.
        heap.remove(1);
        heap.assign(ids.iter().map(|&id| (id, 0, 2500.0, MemMb::new(512))));
        assert_eq!(heap.rebuilds(), 1, "capacity-only change must not rebuild");
        // Equal CPUs everywhere: the lowest node id (0, on leaf 1) wins —
        // which also proves the removed leaf came back alive.
        assert_eq!(heap.peek(), Some(1), "removed leaf came back alive");
        // Changed id set: rebuild.
        heap.assign(
            [NodeId::new(4), NodeId::new(1), NodeId::new(9)]
                .iter()
                .map(|&id| (id, 0, 1000.0, MemMb::new(4096))),
        );
        assert_eq!(heap.rebuilds(), 2, "id change rebuilds");
        // Changed count: rebuild.
        heap.assign(
            [NodeId::new(4)]
                .iter()
                .map(|&id| (id, 0, 1.0, MemMb::new(1))),
        );
        assert_eq!(heap.rebuilds(), 3, "count change rebuilds");
    }

    #[test]
    fn update_remove_restore_roundtrip() {
        let nodes = [
            (NodeId::new(0), 0, 100.0, 1000, true),
            (NodeId::new(1), 0, 200.0, 1000, true),
        ];
        let mut heap = heap_of(&nodes);
        assert_eq!(heap.peek(), Some(1));
        heap.update(0, 300.0, MemMb::new(500));
        assert_eq!(heap.peek(), Some(0));
        heap.remove(0);
        assert_eq!(heap.peek(), Some(1));
        heap.restore(0, 300.0, MemMb::new(500));
        assert_eq!(heap.peek(), Some(0));
        assert_eq!(heap.pop(), Some(0));
        assert_eq!(heap.pop(), Some(1));
        assert_eq!(heap.pop(), None);
    }

    /// The winner's key among `nodes` ties with another feasible leaf's,
    /// so the id decided the query. `key` maps a feasible leaf to its
    /// key without the id; `None` marks it infeasible.
    fn tie_decided(
        nodes: &[(NodeId, u32, f64, u64, bool)],
        winner: usize,
        key: impl Fn(usize) -> Option<(f64, u64)>,
    ) -> bool {
        let best = key(winner);
        (0..nodes.len()).any(|i| i != winner && key(i).is_some() && key(i) == best)
    }

    /// Tie-heavy states against the scans: all-equal and two-valued
    /// fleets beside quantized ones, removed leaves, shard labels and
    /// exclusions, every size from 1 to 70 and sizes up to 2 100, ids in
    /// order, sparse or shuffled. Both query kinds must return the scan's
    /// winner. A tally of the queries, those the id decided and the
    /// visits they cost is printed with floors, and on an all-equal fleet
    /// an unfiltered query may visit two slots per tree level plus the
    /// root: a bound blind to the id keeps every tied subtree alive and
    /// walks the whole tree. A bound that took the subtree's largest id
    /// prunes a subtree holding a lower tied id, a wrong winner here.
    #[test]
    fn tie_heavy_queries_match_the_scans_and_prune_ties() {
        use proptest::TestRng;
        let (mut queries, mut decided, mut visits, mut max_visits) = (0u64, 0u64, 0u64, 0u64);
        let (mut all_tie, mut big) = (0u64, 0u64);
        for seed in 0..900u64 {
            let rng = &mut TestRng::new(seed);
            let n = match seed {
                0..=69 => seed as usize + 1,
                _ if seed % 10 == 0 => 1000 + rng.below(1101) as usize,
                _ => 1 + rng.below(130) as usize,
            };
            big += u64::from(n >= 1000);
            let base = 1 + rng.below(50) as u32;
            let mut raw: Vec<u32> = (0..n as u32).map(|k| base + k).collect();
            match rng.below(3) {
                0 => {}
                1 => {
                    let mut at = base;
                    for id in &mut raw {
                        at += 1 + rng.below(3) as u32;
                        *id = at;
                    }
                }
                _ => {
                    for i in (1..n).rev() {
                        raw.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
            }
            let shape = rng.below(3);
            let shards = rng.below(2) * 4;
            let removals = rng.below(3) == 0;
            let nodes: Vec<(NodeId, u32, f64, u64, bool)> = raw
                .iter()
                .map(|&id| {
                    let (cpu, mem) = match shape {
                        0 => (4000.0, 2048),
                        1 => (
                            [4000.0, 2500.0][rng.below(2) as usize],
                            1024 << rng.below(2),
                        ),
                        _ => (500.0 * rng.below(9) as f64, 512 * rng.below(5)),
                    };
                    let shard = if shards == 0 {
                        0
                    } else {
                        rng.below(shards) as u32
                    };
                    let alive = !removals || rng.below(4) != 0;
                    (NodeId::new(id), shard, cpu, mem, alive)
                })
                .collect();
            let heap = heap_of(&nodes);
            heap.take_visits();
            let all_equal = shape == 0 && !removals;
            // Tree levels under the deepest leaf slot, `2n − 1`.
            let depth = u64::from(usize::BITS - 1 - (2 * n - 1).leading_zeros());
            let mut tally = |spent: u64, tied: bool, unfiltered: bool| {
                queries += 1;
                decided += u64::from(tied);
                visits += spent;
                max_visits = max_visits.max(spent);
                if all_equal && unfiltered {
                    all_tie += 1;
                    assert!(
                        spent <= 2 * depth + 1,
                        "all-tie fleet of {n}: {spent} visits, ceiling {} (seed {seed})",
                        2 * depth + 1
                    );
                }
            };
            for _ in 0..8 {
                let unfiltered = rng.below(3) == 0;
                let min_mem = if unfiltered {
                    0
                } else {
                    [0, 1024, 2048, 3000][rng.below(4) as usize]
                };
                let floor = if unfiltered {
                    f64::NEG_INFINITY
                } else {
                    [f64::NEG_INFINITY, 1e-9, 2500.0][rng.below(3) as usize]
                };
                let feasible = |i: usize| {
                    let (_, _, cpu, mem, alive) = nodes[i];
                    alive && mem >= min_mem && cpu > floor
                };

                let exclude_leaf = match rng.below(3) {
                    _ if unfiltered => None,
                    0 => None,
                    1 => Some(rng.below(n as u64) as usize),
                    _ => scan_residual(&nodes, min_mem, floor, None),
                };
                let expect = scan_residual(&nodes, min_mem, floor, exclude_leaf);
                let got = heap.best_residual(MemMb::new(min_mem), floor, exclude_leaf);
                assert_eq!(got, expect, "residual, seed {seed}, n {n}");
                let tied = expect.is_some_and(|w| {
                    tie_decided(&nodes, w, |i| {
                        (feasible(i) && Some(i) != exclude_leaf).then_some((nodes[i].2, 0))
                    })
                });
                tally(heap.take_visits(), tied, unfiltered);

                let demand = [1000.0, 2500.0, 3000.0, 4000.0, 5000.0][rng.below(5) as usize];
                let exclude_shard = match rng.below(2) {
                    _ if unfiltered => None,
                    0 => None,
                    _ => Some(rng.below(5) as u32),
                };
                let expect = scan_saturating(&nodes, demand, min_mem, floor, exclude_shard);
                let got = heap.best_saturating(demand, MemMb::new(min_mem), floor, exclude_shard);
                assert_eq!(got, expect, "saturating, seed {seed}, n {n}");
                let tied = expect.is_some_and(|w| {
                    tie_decided(&nodes, w, |i| {
                        (feasible(i) && Some(nodes[i].1) != exclude_shard)
                            .then_some((nodes[i].2.min(demand), nodes[i].3))
                    })
                });
                tally(heap.take_visits(), tied, unfiltered);
            }
        }
        println!(
            "candidate heap tie sweep: {queries} queries, {decided} decided by the id, \
             {all_tie} on all-equal fleets, {big} fleets of 1 000+ nodes; \
             visits mean {:.1}, max {max_visits}",
            visits as f64 / queries as f64
        );
        assert!(queries >= 14_000, "{queries} queries");
        assert!(decided >= 9_000, "{decided} tie-decided queries");
        assert!(all_tie >= 1_000, "{all_tie} all-tie queries");
        assert!(big >= 80, "{big} fleets of 1 000+ nodes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The satellite invariant: pop order always equals a sorted full
        /// scan, under random interleavings of update / remove / pop.
        #[test]
        fn prop_pop_order_matches_sorted_scan_under_interleaving(
            cpus in proptest::collection::vec(0.0..10_000.0f64, 1..24),
            ops in proptest::collection::vec((0usize..24, 0.0..10_000.0f64, 0u8..3), 0..32),
        ) {
            let mut nodes: Vec<(NodeId, u32, f64, u64, bool)> = cpus
                .iter()
                .enumerate()
                // A few deliberate exact CPU ties (quantized values) so the
                // id tie-break is exercised, plus varying memory.
                .map(|(i, &c)| {
                    let cpu = (c / 500.0).floor() * 500.0;
                    (NodeId::new(i as u32), 0, cpu, 256 * (i as u64 % 5), true)
                })
                .collect();
            let mut heap = heap_of(&nodes);
            for (slot, cpu, op) in ops {
                let leaf = slot % nodes.len();
                match op {
                    0 => {
                        // update (only live leaves).
                        if nodes[leaf].4 {
                            nodes[leaf].2 = cpu;
                            heap.update(leaf, cpu, MemMb::new(nodes[leaf].3));
                        }
                    }
                    1 => {
                        // remove (idempotence not required by the API).
                        if nodes[leaf].4 {
                            nodes[leaf].4 = false;
                            heap.remove(leaf);
                        }
                    }
                    _ => {
                        // pop must match the scan's front-runner.
                        let expect = scan_residual(&nodes, 0, f64::NEG_INFINITY, None);
                        prop_assert_eq!(heap.pop(), expect);
                        if let Some(leaf) = expect {
                            nodes[leaf].4 = false;
                        }
                    }
                }
            }
            // Drain: the remaining pop sequence is exactly the scan order.
            while let Some(leaf) = heap.pop() {
                let expect = scan_residual(&nodes, 0, f64::NEG_INFINITY, None);
                prop_assert_eq!(Some(leaf), expect);
                nodes[leaf].4 = false;
            }
            prop_assert!(nodes.iter().all(|n| !n.4), "heap drained early");
        }

        /// Filtered queries agree with the scans they replace, across
        /// random states, floors, demands, and exclusions.
        #[test]
        fn prop_filtered_queries_match_scans(
            raw in proptest::collection::vec(
                (0.0..8000.0f64, 0u64..6000, 0u32..5, 0u8..2),
                1..28,
            ),
            demand in 1.0..4000.0f64,
            min_mem in 0u64..5000,
            floor_mhz in proptest::option::of(0.0..6000.0f64),
            exclude_leaf in proptest::option::of(0usize..28),
            exclude_shard in proptest::option::of(0u32..5),
        ) {
            let nodes: Vec<(NodeId, u32, f64, u64, bool)> = raw
                .iter()
                .enumerate()
                .map(|(i, &(c, m, s, alive))| {
                    // Quantize CPU so exact ties hit the tie-breakers.
                    (NodeId::new(i as u32), s, (c / 250.0).floor() * 250.0, m, alive == 1)
                })
                .collect();
            let heap = heap_of(&nodes);
            let floor = floor_mhz.unwrap_or(f64::NEG_INFINITY);
            let excl = exclude_leaf.filter(|&e| e < nodes.len());
            prop_assert_eq!(
                heap.best_residual(MemMb::new(min_mem), floor, excl),
                scan_residual(&nodes, min_mem, floor, excl)
            );
            prop_assert_eq!(
                heap.best_saturating(demand, MemMb::new(min_mem), floor, exclude_shard),
                scan_saturating(&nodes, demand, min_mem, floor, exclude_shard)
            );
        }
    }
}
