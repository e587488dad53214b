//! `CandidateHeap` as it stood before `bubble` stopped at the first
//! ancestor a pull leaves unchanged: every update, removal and
//! restoration re-pulls all of a leaf's ancestors. Kept verbatim as the
//! oracle of `tests/heap_oracle.rs`, with one switch added that changes
//! nothing while it is off: `cpu_only_exit`, the mutation the sweep must
//! catch.

#![allow(dead_code)]

use slaq::types::{fcmp, MemMb, NodeId};
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
/// subtree pruning. See the [module docs](self) for the ordering
/// contract and lifecycle.
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
/// // Point updates re-rank in O(log N).
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
    /// The mutation `tests/heap_oracle.rs` must catch: `bubble` stops at
    /// the first ancestor whose CPU maximum the pull leaves unchanged,
    /// blind to its memory maximum and shard mask.
    pub cpu_only_exit: bool,
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

    /// Recompute the ancestors of a leaf.
    #[inline]
    fn bubble(&mut self, leaf: usize) {
        let mut t = (self.len + leaf) / 2;
        while t >= 1 {
            let was = self.cpu[t].to_bits();
            self.pull(t);
            if self.cpu_only_exit && self.cpu[t].to_bits() == was {
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
