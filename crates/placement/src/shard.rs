//! Zone-partitioned (sharded) placement: parallel per-shard solves with a
//! cross-shard rebalance pass.
//!
//! One global [`Solver`] run works the whole fleet in a single lane —
//! historically `O(jobs × nodes)` scans (the ceiling PR 1's measurements
//! hit at 500 nodes / 3000 jobs), now `O(jobs · log nodes)` through the
//! [`CandidateHeap`], but still one sequential problem. Real fleets are
//! partitioned already (racks, availability zones, edge sites), and the
//! dense-index solver state makes per-partition problem *slices* cheap to
//! build. This module exploits that structure:
//!
//! 1. A zone table (`zone_of[node.id.raw()]`) partitions the problem's
//!    nodes into one shard per distinct zone. The empty table is the
//!    single global shard (the default, which preserves the unsharded
//!    behavior bit for bit).
//! 2. [`ShardedSolver`] assigns every job to one shard (running and
//!    affine jobs follow their node; pending jobs spread across shards by
//!    residual capacity), builds one sub-problem per shard, and solves
//!    each shard **once**, in parallel, with per-shard long-lived
//!    [`Solver`]s (warm scratch + allocation-network reuse
//!    per shard; the `rayon` stand-in degrades to sequential offline, so
//!    parallelism returns for free on the real-crate swap).
//! 3. A **cross-shard rebalance pass** then migrates the most unsatisfied
//!    jobs — unplaced ones first, then running jobs short of their target
//!    — from over-subscribed shards onto nodes of shards with residual
//!    capacity, bounded by a configurable migration budget. Targets are
//!    selected through a shard-labeled [`CandidateHeap`] whose queries
//!    exclude the job's home shard (bit-identical to the scan it
//!    replaced).
//!
//! ### Fidelity vs. the global solver
//!
//! With one shard the sub-problem *is* the global problem and the
//! rebalance pass has no foreign shard to move anything to, so the
//! outcome is **bit-identical** to [`Solver::solve`](crate::Solver::solve)
//! (pinned by differential tests). With `k > 1` shards the engine trades
//! a bounded amount of placement quality for `k×` smaller lane problems
//! (and their allocation flows): applications split their fluid demand
//! across shards proportionally to shard capacity, and a job confined to
//! an over-subscribed shard is only rescued by the (budgeted) rebalance
//! pass. The corpus tests pin that gap. Under the sequential `rayon`
//! stand-in the lanes run one after another, so at the bench shapes the
//! heap-backed global solve is currently the faster engine; the sharded
//! engine's payoff is zone isolation and the thread parallelism that
//! returns with the real crate.

use crate::heap::CandidateHeap;
use crate::placement::Placement;
use crate::problem::{AppRequest, PlacementProblem};
use crate::solver::{PlacementOutcome, Solver};
use rayon::prelude::*;
use slaq_obs::Recorder;
use slaq_types::{fcmp, CpuMhz, Interner, MemMb, NodeId, ShardId, ZoneId};

/// A concrete partition of one problem's nodes into shards.
///
/// Built per solve (node sets change under outages); all indices are
/// *dense* node indices, i.e. positions in `problem.nodes`.
struct ShardMap {
    /// Per dense node index: its shard.
    shard_of: Vec<ShardId>,
    /// Per shard: member dense node indices, in problem order.
    members: Vec<Vec<usize>>,
}

impl ShardMap {
    /// One shard per distinct zone present among `node_ids`, in zone
    /// order: `zone_of[id.raw()]` labels each node, and ids beyond the
    /// table fall into `ZoneId(0)`. Yields no shard for no nodes.
    fn build(zone_of: &[ZoneId], node_ids: &[NodeId]) -> ShardMap {
        let zone = |id: NodeId| -> ZoneId {
            zone_of
                .get(id.index())
                .copied()
                .unwrap_or_else(|| ZoneId::new(0))
        };
        // Distinct zones present, ascending: shard rank = zone rank.
        let mut zones: Vec<ZoneId> = node_ids.iter().map(|&id| zone(id)).collect();
        zones.sort_unstable();
        zones.dedup();
        let rank = |z: ZoneId| -> usize { zones.binary_search(&z).expect("zone collected above") };
        let mut members = vec![Vec::new(); zones.len()];
        let mut shard_of = Vec::with_capacity(node_ids.len());
        for (ni, &id) in node_ids.iter().enumerate() {
            let s = rank(zone(id));
            shard_of.push(ShardId::new(s as u32));
            members[s].push(ni);
        }
        ShardMap { shard_of, members }
    }

    /// Number of shards.
    fn len(&self) -> usize {
        self.members.len()
    }

    /// Shard of a dense node index.
    #[inline]
    fn shard_of(&self, dense_node: usize) -> ShardId {
        self.shard_of[dense_node]
    }

    /// Member dense node indices of one shard, in problem order.
    #[inline]
    fn members(&self, shard: ShardId) -> &[usize] {
        &self.members[shard.index()]
    }
}

/// One shard's long-lived solve lane: its persistent warm [`Solver`] and
/// the sub-problem buffer rebuilt (in place) every cycle.
#[derive(Debug, Clone, Default)]
struct Lane {
    solver: Solver,
    problem: PlacementProblem,
}

/// A sharded drop-in for [`Solver`]: same `solve(problem, prev) →
/// PlacementOutcome` interface, internally zone-partitioned.
///
/// Construct once per controller with a zone table and a rebalance
/// budget, then call [`ShardedSolver::solve`] every cycle; per-shard
/// solvers stay warm across cycles exactly like a long-lived global
/// [`Solver`] does.
#[derive(Debug, Clone, Default)]
pub struct ShardedSolver {
    /// Per node id: its zone. Empty = the global solve.
    zones: Vec<ZoneId>,
    /// Max cross-shard migrations/placements per cycle (the rebalance
    /// pass's change budget, on top of the per-shard budgets).
    rebalance_budget: usize,
    lanes: Vec<Lane>,
    // ---- per-cycle scratch ----
    job_lane: Vec<usize>,
    lane_free: Vec<f64>,
    lane_weight: Vec<usize>,
    ordered_jobs: Vec<usize>,
    cpu_free: Vec<f64>,
    mem_free: Vec<MemMb>,
    /// Rebalance-pass candidate heap over *all* nodes, shard-labeled so
    /// a job's home shard can be excluded per query (warm-reused like
    /// the lane solvers' heaps).
    heap: CandidateHeap,
    /// Observability handle: phase spans over split/solve/merge/rebalance
    /// plus a cross-shard migration counter. Observes only — sharding
    /// decisions never read it.
    recorder: Recorder,
    obs: ShardObsKeys,
}

/// Interned span/counter keys for the sharded engine's phases.
#[derive(Debug, Clone, Copy, Default)]
struct ShardObsKeys {
    split: slaq_obs::Key,
    lanes: slaq_obs::Key,
    merge: slaq_obs::Key,
    rebalance: slaq_obs::Key,
    migrations: slaq_obs::Key,
    heap_visits: slaq_obs::Key,
}

impl ShardObsKeys {
    fn intern(recorder: &Recorder) -> Self {
        ShardObsKeys {
            split: recorder.key("shard.split"),
            lanes: recorder.key("shard.lanes"),
            merge: recorder.key("shard.merge"),
            rebalance: recorder.key("shard.rebalance"),
            migrations: recorder.key("shard.migrations"),
            heap_visits: recorder.key("heap.visits"),
        }
    }
}

impl ShardedSolver {
    /// A sharded solver with one shard per distinct zone of `zones`
    /// (`zones[node.id.raw()]` labels each node; ids beyond the table
    /// fall into `ZoneId(0)`), and at most `rebalance_budget`
    /// cross-shard moves per cycle. An empty table is the global solve.
    pub fn new(zones: Vec<ZoneId>, rebalance_budget: usize) -> Self {
        // The global solve's one lane is minted here, with the engine, as
        // a bare `Solver` would be; a zone table mints its lanes at the
        // first solve, once the shard count is known.
        let lanes = if zones.is_empty() {
            vec![Lane::default()]
        } else {
            Vec::new()
        };
        ShardedSolver {
            zones,
            rebalance_budget,
            lanes,
            ..ShardedSolver::default()
        }
    }

    /// Install an observability [`Recorder`]: the sharded engine times
    /// its split/solve/merge/rebalance phases (`shard.*` spans) and
    /// counts cross-shard migrations (`shard.migrations`); under the
    /// empty zone table, which never opens them, the names stay out of
    /// the registry. The handle is forwarded to every lane solver,
    /// including lanes minted later as the shard count settles. Observes
    /// only — sharding decisions never read the recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        if !self.zones.is_empty() {
            self.obs = ShardObsKeys::intern(&recorder);
        }
        for lane in &mut self.lanes {
            lane.solver.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Solve one cycle. Same contract as [`Solver::solve`]; with an empty
    /// zone table, or a single zone present, the outcome is bit-identical
    /// to it.
    pub fn solve(&mut self, problem: &PlacementProblem, prev: &Placement) -> PlacementOutcome {
        // The empty table builds no partition: it is one shard.
        let map = (!self.zones.is_empty()).then(|| {
            let node_ids: Vec<NodeId> = problem.nodes.iter().map(|n| n.id).collect();
            ShardMap::build(&self.zones, &node_ids)
        });
        let k = map.as_ref().map_or(1, |m| m.len().max(1));

        let prev_lanes = self.lanes.len();
        self.lanes.resize_with(k, Lane::default);
        // `resize_with` may have minted fresh lanes: hand them the
        // recorder, when one is installed, before any of them solves.
        if self.recorder.is_enabled() {
            for lane in self.lanes.iter_mut().skip(prev_lanes) {
                lane.solver.set_recorder(self.recorder.clone());
            }
        }

        let Some(map) = map.filter(|m| m.len() > 1) else {
            // The global path, through the lane's warm solver, on the
            // caller's problem directly: the outcome is bit-identical to
            // an unsharded `Solver` with zero partitioning overhead.
            return self.lanes[0].solver.solve(problem, prev);
        };

        let node_ix = Interner::new(problem.nodes.iter().map(|n| n.id));
        let n_jobs = problem.jobs.len();
        let span_split = self.recorder.span(self.obs.split);

        // ------------------------------------------------------------
        // 1. Assign jobs to shards: pinned jobs (running or affine)
        // follow their node; pending jobs spread over the shards with
        // the most uncommitted capacity, in priority order.
        // ------------------------------------------------------------
        let shard_cpu: Vec<f64> = (0..k)
            .map(|s| {
                map.members(ShardId::new(s as u32))
                    .iter()
                    .map(|&ni| problem.nodes[ni].cpu.as_f64())
                    .sum()
            })
            .collect();
        let cluster_cpu: f64 = shard_cpu.iter().sum();
        self.lane_free.clear();
        self.lane_free.extend_from_slice(&shard_cpu);
        self.job_lane.clear();
        self.job_lane.resize(n_jobs, usize::MAX);
        for (ji, job) in problem.jobs.iter().enumerate() {
            let pinned = job
                .running_on
                .and_then(|n| node_ix.dense(n))
                .or_else(|| job.affinity.and_then(|n| node_ix.dense(n)));
            if let Some(ni) = pinned {
                let s = map.shard_of(ni).index();
                self.job_lane[ji] = s;
                self.lane_free[s] -= job.demand.as_f64();
            }
        }
        self.ordered_jobs.clear();
        self.ordered_jobs
            .extend((0..n_jobs).filter(|&ji| self.job_lane[ji] == usize::MAX));
        {
            let jobs = &problem.jobs;
            self.ordered_jobs.sort_by(|&a, &b| {
                fcmp(jobs[b].priority, jobs[a].priority).then(jobs[a].id.cmp(&jobs[b].id))
            });
        }
        for idx in 0..self.ordered_jobs.len() {
            let ji = self.ordered_jobs[idx];
            let best = (0..k)
                .max_by(|&a, &b| fcmp(self.lane_free[a], self.lane_free[b]).then(b.cmp(&a)))
                .expect("k >= 1");
            self.job_lane[ji] = best;
            self.lane_free[best] -= problem.jobs[ji].demand.as_f64();
        }

        // ------------------------------------------------------------
        // 2. Build per-shard sub-problems. Nodes slice by shard
        // membership; apps split their fluid demand (and instance
        // quotas) proportionally to shard capacity; jobs go to their
        // assigned shard. The change budget splits proportionally to
        // per-shard entity counts.
        // ------------------------------------------------------------
        self.lane_weight.clear();
        self.lane_weight.resize(k, 0);
        for &lane in self.job_lane.iter() {
            self.lane_weight[lane] += 1;
        }
        for s in 0..k {
            self.lane_weight[s] += map.members(ShardId::new(s as u32)).len();
        }
        let budgets = split_budget(problem.config.max_changes, &self.lane_weight);

        let cluster_nodes = problem.nodes.len();
        let mut nodes_before = 0usize;
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            let shard = ShardId::new(s as u32);
            lane.problem.config = problem.config;
            lane.problem.config.max_changes = budgets[s];
            lane.problem.nodes.clear();
            lane.problem
                .nodes
                .extend(map.members(shard).iter().map(|&ni| problem.nodes[ni]));

            lane.problem.apps.clear();
            let frac = if cluster_cpu > 0.0 {
                shard_cpu[s] / cluster_cpu
            } else {
                1.0 / k as f64
            };
            let shard_nodes = map.members(shard).len();
            let nodes_through = nodes_before + shard_nodes;
            for app in &problem.apps {
                let max_instances = quota(
                    app.max_instances,
                    nodes_before,
                    nodes_through,
                    cluster_nodes,
                    shard_nodes,
                );
                // quota() is not monotone in its total (the two cumulative
                // roundings can land on different shards), so clamp the
                // min share under the max share — a lane must never be
                // forced to grow past its own instance cap.
                let min_instances = quota(
                    app.min_instances,
                    nodes_before,
                    nodes_through,
                    cluster_nodes,
                    shard_nodes,
                )
                .min(max_instances);
                lane.problem.apps.push(AppRequest {
                    id: app.id,
                    demand: CpuMhz::new(app.demand.as_f64() * frac),
                    mem_per_instance: app.mem_per_instance,
                    min_instances,
                    max_instances,
                    // Whole-fleet affinity travels with every lane; the
                    // lane solver's dense lookup simply ignores foreign
                    // nodes.
                    affinity: app.affinity.clone(),
                });
            }
            nodes_before = nodes_through;

            lane.problem.jobs.clear();
            for (ji, job) in problem.jobs.iter().enumerate() {
                if self.job_lane[ji] == s {
                    lane.problem.jobs.push(job.clone());
                }
            }
        }

        drop(span_split);

        // ------------------------------------------------------------
        // 3. Solve every shard once (parallel under real rayon; the
        // offline stand-in degrades to sequential with identical
        // results).
        // ------------------------------------------------------------
        let span_lanes = self.recorder.span(self.obs.lanes);
        let plans: Vec<Placement> = self
            .lanes
            .par_iter_mut()
            .map(|lane| lane.solver.solve(&lane.problem, prev).placement)
            .collect();
        drop(span_lanes);

        // ------------------------------------------------------------
        // 4. Merge shard placements (node sets are disjoint).
        // ------------------------------------------------------------
        let span_merge = self.recorder.span(self.obs.merge);
        let mut placement = Placement::empty();
        let mut jobs = Vec::with_capacity(plans.iter().map(|plan| plan.jobs.len()).sum());
        for plan in plans {
            for (app, mut slices) in plan.apps {
                placement.apps.entry(app).or_default().append(&mut slices);
            }
            jobs.extend(plan.jobs);
        }
        // The lanes' job sets are disjoint: gather them, then one
        // `collect()` sorts them once.
        placement.jobs = jobs.into_iter().collect();
        drop(span_merge);

        // ------------------------------------------------------------
        // 5. Cross-shard rebalance: budgeted, priority-ordered moves of
        // the most unsatisfied jobs into shards with residual capacity.
        // The pass honours the problem's overall change cap: it may only
        // spend whatever headroom the per-shard solves left under
        // `max_changes`, so a frozen placement (cap 0) stays frozen.
        // ------------------------------------------------------------
        let headroom = problem.config.max_changes.map_or(usize::MAX, |cap| {
            cap.saturating_sub(placement.diff(prev).len())
        });
        let budget = self.rebalance_budget.min(headroom);
        let moved = if budget > 0 {
            let _span = self.recorder.span(self.obs.rebalance);
            self.rebalance(problem, &map, &node_ix, &mut placement, budget)
        } else {
            0
        };
        self.recorder.count(self.obs.migrations, moved as u64);
        self.recorder
            .count(self.obs.heap_visits, self.heap.take_visits());
        PlacementOutcome { placement }
    }

    /// The cross-shard rebalance pass: move the top unsatisfied jobs onto
    /// foreign-shard nodes with room, spending at most `budget` moves
    /// (the rebalance knob, already capped to the change-budget headroom
    /// by the caller). Grants come strictly from residual capacity, so
    /// the merged placement stays feasible without a global
    /// re-allocation flow. Returns the number of moves made.
    fn rebalance(
        &mut self,
        problem: &PlacementProblem,
        map: &ShardMap,
        node_ix: &Interner<NodeId>,
        placement: &mut Placement,
        mut budget: usize,
    ) -> usize {
        let n = problem.nodes.len();
        let app_ix = Interner::new(problem.apps.iter().map(|a| a.id));
        let job_ix = Interner::new(problem.jobs.iter().map(|j| j.id));
        placement.residual_into(
            &problem.nodes,
            |node| node_ix.dense(node),
            |app| Some(problem.apps[app_ix.dense(app)?].mem_per_instance),
            |job| Some(problem.jobs[job_ix.dense(job)?].mem),
            &mut self.cpu_free,
            &mut self.mem_free,
        );
        for f in &mut self.cpu_free {
            *f = f.max(0.0);
        }
        // Candidate heap over the residual trackers, shard-labeled: the
        // per-move target query excludes the job's home shard and prunes
        // by the same memory/CPU filters the scan applied.
        self.heap.assign((0..n).map(|ni| {
            (
                problem.nodes[ni].id,
                map.shard_of(ni).raw(),
                self.cpu_free[ni],
                self.mem_free[ni],
            )
        }));

        // Candidates: positive-demand jobs, unsatisfied beyond the same
        // 25 % threshold the in-shard rebalance step uses; unplaced jobs
        // sort ahead of shortchanged ones, then priority-descending.
        self.ordered_jobs.clear();
        self.ordered_jobs.extend(0..problem.jobs.len());
        {
            let jobs = &problem.jobs;
            let placed = &placement.jobs;
            self.ordered_jobs.retain(|&ji| {
                let job = &jobs[ji];
                if job.demand.is_zero() {
                    return false;
                }
                match placed.get(&job.id) {
                    None => true,
                    Some(&(_, got)) => {
                        job.demand.as_f64() - got.as_f64() > job.demand.as_f64() * 0.25
                    }
                }
            });
            self.ordered_jobs.sort_by(|&a, &b| {
                let pa = placed.contains_key(&jobs[a].id);
                let pb = placed.contains_key(&jobs[b].id);
                pa.cmp(&pb)
                    .then(fcmp(jobs[b].priority, jobs[a].priority))
                    .then(jobs[a].id.cmp(&jobs[b].id))
            });
        }

        let mut moved = 0usize;
        for idx in 0..self.ordered_jobs.len() {
            if budget == 0 {
                break;
            }
            let ji = self.ordered_jobs[idx];
            let job = &problem.jobs[ji];
            let current = placement.jobs.get(&job.id).copied();
            let home = match current {
                Some((node, _)) => node_ix.dense(node).map(|ni| map.shard_of(ni)),
                None => Some(ShardId::new(self.job_lane[ji] as u32)),
            };
            let got = current.map(|(_, c)| c.as_f64()).unwrap_or(0.0);
            let deficit = job.demand.as_f64() - got;
            // Target: a foreign-shard node that improves the job by at
            // least half its deficit (hysteresis against churny moves),
            // best residual CPU first (saturating at the job's demand);
            // ties prefer more free memory, then the lower node id —
            // the heap's saturating order, bit-identical to the scan it
            // replaced.
            let target = self.heap.best_saturating(
                job.demand.as_f64(),
                job.mem,
                got + deficit * 0.5,
                home.map(ShardId::raw),
            );
            let Some(t) = target else { continue };
            if let Some((old, alloc)) = current {
                if let Some(oi) = node_ix.dense(old) {
                    self.cpu_free[oi] += alloc.as_f64();
                    self.mem_free[oi] += job.mem;
                    self.heap.update(oi, self.cpu_free[oi], self.mem_free[oi]);
                }
            }
            let grant = job.demand.as_f64().min(self.cpu_free[t]);
            self.cpu_free[t] -= grant;
            self.mem_free[t] = self.mem_free[t].saturating_sub(job.mem);
            self.heap.update(t, self.cpu_free[t], self.mem_free[t]);
            placement
                .jobs
                .insert(job.id, (problem.nodes[t].id, CpuMhz::new(grant)));
            budget -= 1;
            moved += 1;
            self.recorder.audit(
                slaq_obs::AuditSubject::Job(job.id.raw()),
                current.map(|(old, _)| old.raw()),
                Some(problem.nodes[t].id.raw()),
                "shard.rebalance",
                "cross-shard-move",
            );
        }
        moved
    }
}

/// Distribute an optional change budget over lanes proportionally to
/// their weights (largest-remainder rounding; the shares sum to the
/// original budget). `None` stays unbounded everywhere.
fn split_budget(total: Option<usize>, weights: &[usize]) -> Vec<Option<usize>> {
    let Some(total) = total else {
        return vec![None; weights.len()];
    };
    let wsum: usize = weights.iter().sum();
    if weights.len() <= 1 || wsum == 0 {
        return weights.iter().map(|_| Some(total)).collect();
    }
    // Widened: `total` is a spec's `max_changes`, any `usize`.
    let (total_w, wsum_w) = (total as u128, wsum as u128);
    let mut shares: Vec<usize> = weights
        .iter()
        .map(|&w| (total_w * w as u128 / wsum_w) as usize)
        .collect();
    let mut rema: Vec<(usize, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| ((total_w * w as u128 % wsum_w) as usize, i))
        .collect();
    rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let assigned: usize = shares.iter().sum();
    for &(_, i) in rema.iter().take(total - assigned) {
        shares[i] += 1;
    }
    shares.into_iter().map(Some).collect()
}

/// One shard's share of an app instance quota, proportional to its node
/// count via cumulative rounding: shard shares are differences of the
/// running floor `⌊total·nodes_through/cluster⌋`, so they always sum to
/// exactly `total` across shards (no instance cap is lost or duplicated),
/// and each share is additionally capped at the shard's node count (one
/// instance per node).
fn quota(
    total: u32,
    nodes_before: usize,
    nodes_through: usize,
    cluster_nodes: usize,
    shard_nodes: usize,
) -> u32 {
    if cluster_nodes == 0 {
        return total;
    }
    let t = total as u64;
    let hi = t * nodes_through as u64 / cluster_nodes as u64;
    let lo = t * nodes_before as u64 / cluster_nodes as u64;
    ((hi - lo) as u32).min(shard_nodes as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{JobRequest, NodeCapacity, PlacementConfig};
    use crate::solver::solve;
    use proptest::prelude::*;
    use slaq_types::{AppId, JobId, MemMb};

    fn nodes(n: u32, cpu: f64, mem: u64) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(cpu),
                mem: MemMb::new(mem),
            })
            .collect()
    }

    fn jobr(id: u32, demand: f64) -> JobRequest {
        JobRequest {
            id: JobId::new(id),
            demand: CpuMhz::new(demand),
            mem: MemMb::new(1280),
            running_on: None,
            affinity: None,
            priority: demand,
            importance: 1.0,
        }
    }

    fn appr(id: u32, demand: f64) -> AppRequest {
        AppRequest {
            id: AppId::new(id),
            demand: CpuMhz::new(demand),
            mem_per_instance: MemMb::new(1024),
            min_instances: 1,
            max_instances: 32,
            affinity: Vec::new(),
        }
    }

    fn problem(
        nodes: Vec<NodeCapacity>,
        apps: Vec<AppRequest>,
        jobs: Vec<JobRequest>,
    ) -> PlacementProblem {
        PlacementProblem {
            nodes,
            apps,
            jobs,
            config: PlacementConfig::default(),
        }
    }

    /// The jobs with a positive target that the plan leaves out (they
    /// stay pending or suspended), in problem order.
    fn unplaced(p: &PlacementProblem, plan: &Placement) -> Vec<JobId> {
        p.jobs
            .iter()
            .filter(|j| !j.demand.is_zero() && !plan.jobs.contains_key(&j.id))
            .map(|j| j.id)
            .collect()
    }

    /// `k` contiguous, size-balanced zones over node ids `0..n`: node
    /// `i` is in zone `s` for `s·n/k ≤ i < (s+1)·n/k`.
    fn contiguous(n: usize, k: usize) -> Vec<ZoneId> {
        (0..k)
            .flat_map(|s| {
                let width = (s + 1) * n / k - s * n / k;
                std::iter::repeat_n(ZoneId::new(s as u32), width)
            })
            .collect()
    }

    #[test]
    fn shard_map_groups_by_zone_in_zone_order() {
        // Nodes 0,1 → zone 5; node 2 → zone 1; node 3 beyond table → zone 0.
        let zones = vec![ZoneId::new(5), ZoneId::new(5), ZoneId::new(1)];
        let ids: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let map = ShardMap::build(&zones, &ids);
        assert_eq!(map.len(), 3);
        assert_eq!(map.members(ShardId::new(0)), &[3]); // zone 0
        assert_eq!(map.members(ShardId::new(1)), &[2]); // zone 1
        assert_eq!(map.members(ShardId::new(2)), &[0, 1]); // zone 5
    }

    #[test]
    fn split_budget_conserves_total() {
        assert_eq!(split_budget(None, &[1, 2, 3]), vec![None, None, None]);
        let shares = split_budget(Some(10), &[5, 3, 2]);
        assert_eq!(
            shares.iter().map(|s| s.unwrap()).sum::<usize>(),
            10,
            "{shares:?}"
        );
        assert_eq!(split_budget(Some(7), &[4]), vec![Some(7)]);
        let zero = split_budget(Some(4), &[0, 0]);
        assert_eq!(zero, vec![Some(4), Some(4)]);
    }

    #[test]
    fn single_shard_is_bit_identical_to_global_solver() {
        let p = problem(
            nodes(4, 12_000.0, 4096),
            vec![appr(0, 9000.0)],
            (0..8).map(|i| jobr(i, 1500.0 + 250.0 * i as f64)).collect(),
        );
        let global = solve(&p, &Placement::empty());
        for zones in [Vec::new(), contiguous(4, 1)] {
            let mut sharded = ShardedSolver::new(zones, 8);
            let got = sharded.solve(&p, &Placement::empty());
            assert_eq!(got, global);
        }
    }

    #[test]
    fn single_plan_records_as_the_global_solver_does() {
        // The controller drives every plan through this engine, so a
        // global run must leave the registry exactly as a bare `Solver`
        // does: its step spans, and no `shard.*` name.
        let p = problem(
            nodes(3, 12_000.0, 4096),
            vec![appr(0, 9000.0)],
            (0..5).map(|i| jobr(i, 2000.0)).collect(),
        );
        let names = |solve: &mut dyn FnMut(Recorder)| {
            let rec = Recorder::enabled();
            solve(rec.clone());
            rec.names()
        };
        let global = names(&mut |rec| {
            let mut s = Solver::new();
            s.set_recorder(rec);
            s.solve(&p, &Placement::empty());
        });
        let single = names(&mut |rec| {
            let mut s = ShardedSolver::new(Vec::new(), 8);
            s.set_recorder(rec);
            s.solve(&p, &Placement::empty());
        });
        assert!(global.iter().any(|n| n == "solve.step0.boundary"));
        assert_eq!(single, global);
        let fixed = names(&mut |rec| {
            let mut s = ShardedSolver::new(contiguous(3, 2), 8);
            s.set_recorder(rec);
            s.solve(&p, &Placement::empty());
        });
        assert!(fixed.iter().any(|n| n.starts_with("shard.")));
    }

    #[test]
    fn sharded_solver_respects_capacity_constraints() {
        let p = problem(
            nodes(8, 12_000.0, 4096),
            vec![appr(0, 24_000.0)],
            (0..24)
                .map(|i| jobr(i, 2000.0 + 100.0 * (i % 7) as f64))
                .collect(),
        );
        let mut sharded = ShardedSolver::new(contiguous(8, 4), 8);
        let out = sharded.solve(&p, &Placement::empty());
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn rebalance_rescues_jobs_from_a_crowded_shard() {
        // Shard 0 = node 0 only, shard 1 = node 1. Two running jobs pin
        // themselves to node 0 (6000 demand on a 3000 node); node 1 idle.
        // Without rebalance one job starves; with it, the worse-off job
        // migrates across the shard boundary.
        let mut j0 = jobr(0, 3000.0);
        j0.running_on = Some(NodeId::new(0));
        let mut j1 = jobr(1, 3000.0);
        j1.running_on = Some(NodeId::new(0));
        let mut prev = Placement::empty();
        prev.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(1500.0)));
        prev.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(1500.0)));
        let p = problem(nodes(2, 3000.0, 4096), vec![], vec![j0, j1]);

        let mut starved = ShardedSolver::new(contiguous(2, 2), 0);
        let out = starved.solve(&p, &prev);
        assert!(out.placement.total_job_alloc().as_f64() < 4000.0);

        let mut rescued = ShardedSolver::new(contiguous(2, 2), 4);
        let out = rescued.solve(&p, &prev);
        assert_eq!(out.placement.total_job_alloc(), CpuMhz::new(6000.0));
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn rebalance_places_unplaced_jobs_into_foreign_shards() {
        // Shard 0's single node has memory for one job; three pending
        // jobs land there by capacity. The rebalance pass spills the
        // extras into shard 1.
        let caps = vec![
            NodeCapacity {
                id: NodeId::new(0),
                cpu: CpuMhz::new(12_000.0),
                mem: MemMb::new(1500),
            },
            NodeCapacity {
                id: NodeId::new(1),
                cpu: CpuMhz::new(6000.0),
                mem: MemMb::new(4096),
            },
        ];
        let p = problem(caps, vec![], (0..3).map(|i| jobr(i, 2000.0)).collect());
        let mut sharded = ShardedSolver::new(contiguous(2, 2), 8);
        let out = sharded.solve(&p, &Placement::empty());
        let left_out = unplaced(&p, &out.placement);
        assert_eq!(out.placement.jobs.len(), 3, "{left_out:?}");
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn rebalance_respects_the_change_cap() {
        // Same crowded-shard setup as above, but the placement is frozen
        // (max_changes = 0): the rebalance pass must not move anything —
        // the cap covers cross-shard migrations too.
        let mut j0 = jobr(0, 3000.0);
        j0.running_on = Some(NodeId::new(0));
        let mut j1 = jobr(1, 3000.0);
        j1.running_on = Some(NodeId::new(0));
        let mut prev = Placement::empty();
        prev.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(1500.0)));
        prev.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(1500.0)));
        let mut p = problem(nodes(2, 3000.0, 4096), vec![], vec![j0, j1]);
        p.config.max_changes = Some(0);
        let mut sharded = ShardedSolver::new(contiguous(2, 2), 4);
        let changes = sharded.solve(&p, &prev).placement.diff(&prev);
        assert!(changes.is_empty(), "frozen: {changes:?}");
        // And with a small positive cap, total changes stay within it.
        p.config.max_changes = Some(1);
        let mut sharded = ShardedSolver::new(contiguous(2, 2), 4);
        let changes = sharded.solve(&p, &prev).placement.diff(&prev);
        assert!(changes.len() <= 1, "{changes:?}");
    }

    #[test]
    fn each_lane_solves_once_under_churn_confined_to_one_shard() {
        // Shard 0 (nodes 0–1) is steady: two running jobs already placed,
        // zero pending churn. Shard 1 (nodes 2–3) holds all the churn:
        // four suspended jobs affine to its nodes, each needing a start.
        // The proportional split of max_changes = 4 gives shard 1 only 2
        // (weights 4 vs 6, largest remainder favours shard 0). A starved
        // lane is not re-solved with its neighbour's unused share: each
        // of the two lanes runs its solver exactly once, and the outcome
        // stays within the global cap.
        let mut prev = Placement::empty();
        let mut jobs = Vec::new();
        for i in 0..2 {
            let mut j = jobr(i, 3000.0);
            j.running_on = Some(NodeId::new(i));
            prev.jobs
                .insert(JobId::new(i), (NodeId::new(i), CpuMhz::new(3000.0)));
            jobs.push(j);
        }
        for i in 2..6 {
            let mut j = jobr(i, 3000.0);
            j.affinity = Some(NodeId::new(2 + (i % 2)));
            jobs.push(j);
        }
        let mut p = problem(nodes(4, 12_000.0, 4096), vec![], jobs);
        p.config.max_changes = Some(4);
        let rec = Recorder::enabled();
        let mut sharded = ShardedSolver::new(contiguous(4, 2), 0);
        sharded.set_recorder(rec.clone());
        let out = sharded.solve(&p, &prev);
        let solves = rec
            .span_stats("solve.step0.boundary")
            .map_or(0, |s| s.count);
        assert_eq!(solves, 2, "one solve per zone");
        let changes = out.placement.diff(&prev);
        assert!(changes.len() <= 4, "global cap violated: {changes:?}");
        // Steady shard stays steady.
        assert_eq!(out.placement.job_node(JobId::new(0)), Some(NodeId::new(0)));
        assert_eq!(out.placement.job_node(JobId::new(1)), Some(NodeId::new(1)));
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn lane_quotas_never_invert_min_above_max() {
        // 5 nodes / 5 shards with min_instances=2, max_instances=3 used
        // to produce a lane with min=1 > max=0 (cumulative roundings of
        // the two totals land on different shards); the merged placement
        // must stay within the app's global instance cap.
        let mut app = appr(0, 30_000.0);
        app.min_instances = 2;
        app.max_instances = 3;
        let p = problem(nodes(5, 12_000.0, 4096), vec![app], vec![]);
        let mut sharded = ShardedSolver::new(contiguous(5, 5), 4);
        let out = sharded.solve(&p, &Placement::empty());
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
        assert!(out.placement.app_instances(AppId::new(0)) <= 3);
    }

    #[test]
    fn warm_sharded_solver_is_stable_across_cycles() {
        let p = problem(
            nodes(6, 12_000.0, 4096),
            vec![appr(0, 20_000.0)],
            (0..12)
                .map(|i| jobr(i, 1500.0 + 200.0 * (i % 4) as f64))
                .collect(),
        );
        let mut sharded = ShardedSolver::new(contiguous(6, 3), 4);
        let first = sharded.solve(&p, &Placement::empty());
        let mut p2 = p.clone();
        for j in &mut p2.jobs {
            j.running_on = first.placement.job_node(j.id);
            j.affinity = j.running_on;
        }
        let second = sharded.solve(&p2, &first.placement);
        let changes = second.placement.diff(&first.placement);
        assert!(
            changes.is_empty(),
            "steady state must not churn: {changes:?}"
        );
        assert_eq!(second.placement.jobs, first.placement.jobs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn prop_single_shard_matches_global_warm_and_cold(
            n_nodes in 1u32..7,
            node_cpu in 3000.0..16_000.0f64,
            node_mem in 1024u64..8192,
            app_demands in proptest::collection::vec(0.0..40_000.0f64, 0..3),
            job_demands in proptest::collection::vec(0.0..3000.0f64, 0..12),
            budget in proptest::option::of(0usize..8),
            classes in proptest::collection::vec(1u8..4, 12..13),
        ) {
            let apps: Vec<AppRequest> = app_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let mut a = appr(i as u32, d);
                    a.min_instances = (i % 3) as u32;
                    a
                })
                .collect();
            let jobs: Vec<JobRequest> = job_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let mut j = jobr(i as u32, d);
                    j.priority = d * if i % 2 == 0 { 1.0 } else { 0.5 };
                    // Classes drawn apart from priorities: a later
                    // searcher may outrank an earlier one by class.
                    j.importance = f64::from(classes[i]);
                    j
                })
                .collect();
            let mut p = problem(nodes(n_nodes, node_cpu, node_mem), apps, jobs);
            p.config.max_changes = budget;
            let mut sharded = ShardedSolver::new(contiguous(n_nodes as usize, 1), 8);
            let mut global = Solver::new();
            let s1 = sharded.solve(&p, &Placement::empty());
            let g1 = global.solve(&p, &Placement::empty());
            prop_assert_eq!(&s1, &g1, "cold cycle diverged");
            let mut p2 = p.clone();
            for j in &mut p2.jobs {
                j.running_on = g1.placement.job_node(j.id);
                j.affinity = j.running_on;
            }
            let s2 = sharded.solve(&p2, &g1.placement);
            let g2 = global.solve(&p2, &g1.placement);
            prop_assert_eq!(&s2, &g2, "warm cycle diverged");
        }

        #[test]
        fn prop_multi_shard_outcome_is_valid_and_near_global(
            n_nodes in 2u32..9,
            k in 2u32..5,
            node_cpu in 6000.0..16_000.0f64,
            job_demands in proptest::collection::vec(100.0..3000.0f64, 0..16),
        ) {
            let jobs: Vec<JobRequest> = job_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| jobr(i as u32, d))
                .collect();
            let p = problem(nodes(n_nodes, node_cpu, 4096), vec![appr(0, node_cpu)], jobs);
            let mut sharded = ShardedSolver::new(contiguous(n_nodes as usize, k as usize), 8);
            let out = sharded.solve(&p, &Placement::empty());
            // Structural validity: per-node capacity, instance caps.
            out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
            // Nobody exceeds their demand.
            for a in &p.apps {
                prop_assert!(out.placement.app_alloc(a.id).as_f64() <= a.demand.as_f64() + 1.0);
            }
            for j in &p.jobs {
                if let Some(&(_, got)) = out.placement.jobs.get(&j.id) {
                    prop_assert!(got.as_f64() <= j.demand.as_f64() + 1.0);
                }
            }
            // Fidelity floor vs. the global solver on these easy shapes.
            let global = solve(&p, &Placement::empty());
            let satisfied =
                |plan: &Placement| plan.total_job_alloc().as_f64() + plan.total_app_alloc().as_f64();
            let (g, s) = (satisfied(&global.placement), satisfied(&out.placement));
            prop_assert!(s + 1e-6 >= 0.7 * g, "sharded {s} vs global {g}");
        }
    }
}
