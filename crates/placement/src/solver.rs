//! The placement heuristic: sticky, priority-ordered, churn-bounded.
//!
//! Pipeline per control cycle (NOMS'08 heuristic extended with jobs):
//!
//! 1. **Keep** — running jobs stay put and previous application instances
//!    survive (free: no churn). Their memory is reserved first.
//! 2. **Grow/shrink apps** — applications claim residual capacity
//!    *before* any new job is placed (kept jobs stay senior): they gain
//!    instances until their cluster-wide targets are covered and shed
//!    instances beyond `max_instances` or, when idle, down to
//!    `min_instances`.
//! 3. **Place** — unplaced jobs with positive CPU targets are placed in
//!    priority order, each on the node offering it the most residual CPU
//!    among those with memory room (affinity-first for suspended images).
//! 4. **Rebalance** — running jobs shortchanged on oversubscribed nodes
//!    migrate to nodes with room (live migration).
//! 5. **Evict** — still-unplaced jobs may displace strictly
//!    lower-priority running jobs (suspend + start, two changes), guarded
//!    by a priority-gap hysteresis.
//! 6. **Reclaim** — jobs still memory-blocked may retire zero-load
//!    application instances (above `min_instances`) and take their slot.
//! 7. **Allocate** — exact CPU division for the final placement via
//!    two-phase max-flow ([`crate::allocation::Allocator`]).
//!
//! [`Solver::solve`] is that pipeline as one straight line — boundary,
//! steps 0–6, allocate, outcome.
//!
//! Every step consumes from a shared *change budget*
//! ([`crate::problem::PlacementConfig::max_changes`]); keeping an entity
//! where it is costs nothing, which is what makes placements sticky.
//!
//! ### Dense-index hot path
//!
//! All per-cycle state lives in flat `Vec`s indexed by **dense indices**
//! (position in `problem.nodes` / `problem.apps` / `problem.jobs`); ids
//! are translated once at the problem boundary through a
//! [`slaq_types::Interner`]. The inner loops perform no map lookups and
//! no `position()` scans. A long-lived [`Solver`] additionally reuses all
//! of that scratch memory *and* the allocation flow network across
//! cycles, so a steady-state warm re-solve allocates next to nothing.
//! The public [`PlacementOutcome`] stays id-keyed for API stability: its
//! [`Placement`] holds id-sorted vectors ([`IdMap`](crate::IdMap)),
//! which the read-back fills in problem order.
//!
//! ### Candidate-node heap
//!
//! The "which node?" question of steps 2–4 is answered by a
//! [`CandidateHeap`] — an indexed tournament heap keyed by residual CPU,
//! updated point-wise as placements land and capacities clamp — turning
//! the improvement loop from `O(J·N)` scans into `O(J log N)` queries.
//! The heap reproduces the seed's linear-scan comparators bit for bit
//! (see its module docs for the ordering contract; the differential
//! proptests against `crate::reference` pin it). Like the allocator,
//! the heap is warm-reused: values refresh in place every solve and the
//! tree rebuilds only when the node topology changes. Step 5's victim
//! search (a scan over *jobs*, not nodes) is bounded instead by a
//! failed-scan memo:
//! searchers run priority-descending, so one exhaustive failure proves
//! failure for every later searcher with no easier memory requirement
//! until an eviction changes the node states.

use crate::allocation::Allocator;
use crate::heap::CandidateHeap;
use crate::placement::{Placement, PlacementChange};
use crate::problem::{JobRequest, PlacementProblem};
use serde::{Deserialize, Serialize};
use slaq_obs::Recorder;
use slaq_types::{fcmp, CpuMhz, Interner, JobId, MemMb, NodeId};

/// The `solve` field of a controller spec: parsed, round-tripped, and
/// read by nothing past the spec. No controller, solver or config
/// carries it; every solve runs the one pipeline and the full two-phase
/// allocation flow. The incremental re-flow `Delta` used to select never
/// engaged on a fleet (the controller re-equalises every target every
/// cycle, so every cycle was structural) and is deleted; both variants
/// stay because spec files, `fleetbench` and the spec-level
/// delta ≡ batch oracles spell them (ROADMAP item 3, stage 3e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolveMode {
    /// The default.
    #[default]
    Batch,
    /// Accepted; solves exactly as [`SolveMode::Batch`].
    Delta,
}

/// Result of one placement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// The new placement with exact allocations — per-entity satisfied
    /// CPU is [`Placement::app_alloc`] / [`Placement::job_alloc`].
    pub placement: Placement,
    /// Disruptive actions relative to the previous placement.
    pub changes: Vec<PlacementChange>,
    /// Jobs with positive targets that could not be placed this cycle
    /// (they stay pending/suspended).
    pub unplaced_jobs: Vec<JobId>,
}

impl PlacementOutcome {
    /// Σ satisfied transactional CPU.
    pub fn total_app_satisfied(&self) -> CpuMhz {
        self.placement.total_app_alloc()
    }

    /// Σ satisfied job CPU.
    pub fn total_job_satisfied(&self) -> CpuMhz {
        self.placement.total_job_alloc()
    }
}

/// Mutable per-node trackers used while making discrete decisions.
/// Indexed by dense node index; `id` is carried only for tie-breaking and
/// final readout.
#[derive(Debug, Clone, Copy)]
struct NodeState {
    id: NodeId,
    mem_free: MemMb,
    /// Residual CPU available for *committing* new demand. An
    /// approximation used only to steer discrete choices; the exact
    /// division is recomputed by the flow at the end.
    cpu_free: f64,
}

/// Reusable per-cycle working memory (all dense-indexed).
#[derive(Debug, Clone, Default)]
struct Scratch {
    nodes: Vec<NodeState>,
    /// Per app: dense node indices currently hosting an instance.
    app_hosts: Vec<Vec<usize>>,
    /// Per app: CPU actually claimed per host, parallel to `app_hosts`.
    app_take: Vec<Vec<f64>>,
    /// Per job: dense node index where placed this cycle.
    job_node: Vec<Option<usize>>,
    /// Per job: CPU committed during the discrete phase.
    committed: Vec<f64>,
    /// Per job: `running_on` translated to a dense index.
    running_dense: Vec<Option<usize>>,
    /// Job dense indices, priority-descending (ties: id ascending).
    ordered_jobs: Vec<usize>,
    /// App dense indices, demand-descending (ties: id ascending).
    ordered_apps: Vec<usize>,
    /// Water-fill temporary: host *positions* with residual CPU.
    open: Vec<usize>,
    /// Host-sort temporary.
    host_sort: Vec<(NodeId, usize, f64)>,
    /// Step-2 affinity term: per dense node, the current app's affinity
    /// bonus (MHz scale). Rebuilt only for apps whose request carries a
    /// non-empty `affinity`; affinity-free apps never read it.
    aff_bonus: Vec<f64>,
    /// Step-0/1 kept jobs committed below their demand, in priority
    /// order: the only jobs step 4's rebalance can act on.
    deficit_jobs: Vec<usize>,
    /// Jobs still unplaced after step 3, in priority order: the only
    /// jobs steps 5/6 can act on (they re-check placement — step 5's
    /// evictions place some mid-iteration).
    unplaced: Vec<usize>,
}

/// A long-lived placement solver: reuses its dense scratch state and the
/// allocation flow network across cycles. Construct once per controller
/// and call [`Solver::solve`] every cycle; the free [`solve`] function
/// remains as a cold one-shot convenience.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    alloc: Allocator,
    s: Scratch,
    heap: CandidateHeap,
    /// Observability plane: step spans + migrated one-off counters
    /// (memo hits, heap rebuilds). Off by default — the hot path then
    /// pays one branch per step.
    recorder: Recorder,
    obs: SolverObsKeys,
    /// Heap rebuild count already published to the recorder (the heap's
    /// own counter is cumulative; the registry wants increments).
    obs_rebuilds: usize,
}

/// Pre-interned observability keys for the solver's step spans and
/// migrated counters (dummies while the recorder is off).
#[derive(Debug, Clone, Copy)]
struct SolverObsKeys {
    step0: slaq_obs::Key,
    step1: slaq_obs::Key,
    step2: slaq_obs::Key,
    step3: slaq_obs::Key,
    step4: slaq_obs::Key,
    step5: slaq_obs::Key,
    step6: slaq_obs::Key,
    step7: slaq_obs::Key,
    outcome: slaq_obs::Key,
    memo_hits: slaq_obs::Key,
    heap_rebuilds: slaq_obs::Key,
}

impl SolverObsKeys {
    fn intern(rec: &Recorder) -> Self {
        SolverObsKeys {
            step0: rec.key("solve.step0.boundary"),
            step1: rec.key("solve.step1.keep"),
            step2: rec.key("solve.step2.apps"),
            step3: rec.key("solve.step3.place"),
            step4: rec.key("solve.step4.rebalance"),
            step5: rec.key("solve.step5.evict"),
            step6: rec.key("solve.step6.reclaim"),
            step7: rec.key("solve.step7.allocate"),
            outcome: rec.key("solve.outcome"),
            memo_hits: rec.key("solver.memo.hits"),
            heap_rebuilds: rec.key("heap.rebuilds"),
        }
    }
}

impl Default for SolverObsKeys {
    fn default() -> Self {
        SolverObsKeys::intern(&Recorder::off())
    }
}

impl Solver {
    /// A fresh solver with empty caches.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Install an observability [`Recorder`]: step spans (0–7), a
    /// `solve.outcome` span around the change-list assembly, plus
    /// counters for the failed-scan memos and heap rebuilds,
    /// forwarded into the allocator for its flow-phase
    /// spans. Observes only — no solve decision reads it, so enabling
    /// it is bit-identical.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = SolverObsKeys::intern(&recorder);
        self.alloc.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// How many times the candidate heap rebuilt its topology
    /// (diagnostics: warm re-solves over an unchanged node set must not
    /// rebuild — capacity changes only refresh leaf values in place).
    pub fn heap_rebuilds(&self) -> usize {
        self.heap.rebuilds()
    }

    /// Solve one cycle. `prev` is the placement currently in force.
    pub fn solve(&mut self, problem: &PlacementProblem, prev: &Placement) -> PlacementOutcome {
        let mut budget = problem.config.max_changes.unwrap_or(usize::MAX);
        let n_apps = problem.apps.len();
        let n_jobs = problem.jobs.len();
        // Observability: cheap handle + pre-interned keys. Every span /
        // count below is a single branch while the recorder is off; the
        // memo counter accumulates locally and publishes once per solve.
        let rec = self.recorder.clone();
        let ok = self.obs;
        let mut memo_hits: u64 = 0;

        // --------------------------------------------------------------
        // Boundary: intern ids, build dense state. The only id-keyed
        // lookups of the whole solve happen here.
        // --------------------------------------------------------------
        let span_boundary = rec.span(ok.step0);
        let node_ix = Interner::new(problem.nodes.iter().map(|n| n.id));
        let s = &mut self.s;
        let heap = &mut self.heap;
        s.nodes.clear();
        s.nodes.extend(problem.nodes.iter().map(|n| NodeState {
            id: n.id,
            mem_free: n.mem,
            cpu_free: n.cpu.as_f64(),
        }));

        s.app_hosts.truncate(n_apps);
        s.app_take.truncate(n_apps);
        while s.app_hosts.len() < n_apps {
            s.app_hosts.push(Vec::new());
        }
        while s.app_take.len() < n_apps {
            s.app_take.push(Vec::new());
        }
        for v in &mut s.app_hosts {
            v.clear();
        }
        for v in &mut s.app_take {
            v.clear();
        }

        s.job_node.clear();
        s.job_node.resize(n_jobs, None);
        s.committed.clear();
        s.committed.resize(n_jobs, 0.0);
        s.running_dense.clear();
        s.running_dense.extend(
            problem
                .jobs
                .iter()
                .map(|j| j.running_on.and_then(|n| node_ix.dense(n))),
        );
        s.ordered_jobs.clear();
        s.ordered_jobs.extend(0..n_jobs);
        s.ordered_jobs.sort_by(|&a, &b| {
            let (ja, jb) = (&problem.jobs[a], &problem.jobs[b]);
            fcmp(jb.priority, ja.priority).then(ja.id.cmp(&jb.id))
        });
        s.ordered_apps.clear();
        s.ordered_apps.extend(0..n_apps);
        s.ordered_apps.sort_by(|&a, &b| {
            let (aa, ab) = (&problem.apps[a], &problem.apps[b]);
            ab.demand.total_cmp(aa.demand).then(aa.id.cmp(&ab.id))
        });
        drop(span_boundary);

        // --------------------------------------------------------------
        // Step 0/1: keep previous app instances and running jobs; reserve
        // memory and commit CPU.
        // --------------------------------------------------------------
        let span_keep = rec.span(ok.step1);
        for (ai, app) in problem.apps.iter().enumerate() {
            if let Some(prev_hosts) = prev.apps.get(&app.id) {
                for (&host, _) in prev_hosts.iter() {
                    let Some(ni) = node_ix.dense(host) else {
                        continue;
                    };
                    s.nodes[ni].mem_free =
                        s.nodes[ni].mem_free.saturating_sub(app.mem_per_instance);
                    s.app_hosts[ai].push(ni);
                    s.app_take[ai].push(0.0);
                }
            }
        }

        s.deficit_jobs.clear();
        for k in 0..s.ordered_jobs.len() {
            let ji = s.ordered_jobs[k];
            let job = &problem.jobs[ji];
            if job.running_on.is_none() {
                continue;
            }
            let Some(i) = s.running_dense[ji] else {
                continue;
            };
            // The map lookup sits behind the fits() short-circuit: in the
            // steady state every kept job's memory fits its node's
            // residual, so the per-job `prev` probe almost never runs.
            if s.nodes[i].mem_free.fits(job.mem) || prev.jobs.contains_key(&job.id) {
                // A running job's memory is already resident; keeping
                // it is always feasible (prev placement was valid).
                s.nodes[i].mem_free = s.nodes[i].mem_free.saturating_sub(job.mem);
                let got = job.demand.as_f64().min(s.nodes[i].cpu_free).max(0.0);
                s.nodes[i].cpu_free -= got;
                s.committed[ji] = got;
                s.job_node[ji] = Some(i);
                if got < job.demand.as_f64() {
                    // Shortchanged: a step-4 rebalance candidate. Fully
                    // fed jobs (and step-3 placements, committed at full
                    // demand) have zero deficit and can never act there,
                    // so step 4 walks only this list.
                    s.deficit_jobs.push(ji);
                }
            }
        }

        // --------------------------------------------------------------
        // Candidate heap: mirror the post-keep node trackers. From here
        // through step 4 every node mutation is echoed into the heap
        // (steps 5–6 run no candidate queries, so the heap is allowed to
        // go stale after step 4 — `assign` refreshes it next solve, and
        // only a *topology* change makes it rebuild).
        // --------------------------------------------------------------
        heap.assign(s.nodes.iter().map(|n| (n.id, 0, n.cpu_free, n.mem_free)));
        drop(span_keep);

        // --------------------------------------------------------------
        // Step 2: grow/shrink application instance sets. Applications
        // claim nodes *before new jobs are placed* (kept jobs committed
        // above stay senior): the transactional tier is fluid
        // cluster-wide only through its instances, so it gets first pick
        // of residual capacity; jobs are indivisible and fill in around
        // it.
        // --------------------------------------------------------------
        let span_apps = rec.span(ok.step2);
        for k in 0..s.ordered_apps.len() {
            let ai = s.ordered_apps[k];
            let app = &problem.apps[ai];
            // Affinity term: apps carrying routing-tier warmth scores
            // order grow candidates by `cpu_free + bonus` instead of raw
            // residual CPU, so a warm node outranks a marginally emptier
            // cold one. The dense bonus map is built only here; the
            // empty-affinity case never reads it and queries the heap
            // untouched (bit-identical to the affinity-free solver).
            let has_affinity = !app.affinity.is_empty();
            if has_affinity {
                s.aff_bonus.clear();
                s.aff_bonus.resize(s.nodes.len(), 0.0);
                for &(n, b) in &app.affinity {
                    if let Some(ni) = node_ix.dense(n) {
                        s.aff_bonus[ni] = b;
                    }
                }
            }
            // While this app is being processed its hosts are out of
            // candidacy (the reference's `!hosts.contains(i)` filter);
            // removing them up front also lets the water-fill mutate
            // host CPU without heap upkeep. Every leaf removed here is
            // restored — with its final trackers — when the app is done.
            for &hi in &s.app_hosts[ai] {
                heap.remove(hi);
            }
            // Shrink above max_instances (stop the emptiest nodes first —
            // the flow would starve them anyway). Also shed down to
            // min_instances when the app is idle, releasing memory for
            // future cycles.
            let shrink_to = if app.demand.is_zero() {
                app.min_instances.max(1) as usize
            } else {
                app.max_instances as usize
            };
            while s.app_hosts[ai].len() > shrink_to && budget > 0 {
                let hosts = &s.app_hosts[ai];
                let nodes = &s.nodes;
                let (pos, &hi) = hosts
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        fcmp(nodes[a].cpu_free, nodes[b].cpu_free)
                            .then(nodes[a].id.cmp(&nodes[b].id))
                    })
                    .expect("hosts nonempty");
                s.nodes[hi].mem_free += app.mem_per_instance;
                s.app_hosts[ai].remove(pos);
                s.app_take[ai].remove(pos);
                budget -= 1;
                rec.audit(
                    slaq_obs::AuditSubject::App(app.id.raw()),
                    Some(s.nodes[hi].id.raw()),
                    None,
                    "solve.step2",
                    if app.demand.is_zero() {
                        "idle-shrink"
                    } else {
                        "max-instances"
                    },
                );
                // No longer a host: back into candidacy immediately.
                heap.restore(hi, s.nodes[hi].cpu_free, s.nodes[hi].mem_free);
            }
            // Grow the host set until the reachable capacity covers the
            // target (or instances run out).
            loop {
                let reachable: f64 = s.app_hosts[ai].iter().map(|&i| s.nodes[i].cpu_free).sum();
                if reachable + 1e-6 >= app.demand.as_f64()
                    || s.app_hosts[ai].len() >= app.max_instances as usize
                    || budget == 0
                {
                    break;
                }
                let cand = if has_affinity {
                    // Affinity carriers always scan: the bonus-shifted
                    // key is not the heap's residual order.
                    let hosts = &s.app_hosts[ai];
                    let bonus = &s.aff_bonus;
                    s.nodes
                        .iter()
                        .enumerate()
                        .filter(|&(i, n)| {
                            n.mem_free.fits(app.mem_per_instance)
                                && n.cpu_free > 1e-9
                                && !hosts.contains(&i)
                        })
                        .max_by(|&(ia, a), &(ib, b)| {
                            fcmp(a.cpu_free + bonus[ia], b.cpu_free + bonus[ib])
                                .then(b.id.cmp(&a.id))
                        })
                        .map(|(i, _)| i)
                } else {
                    heap.best_residual(app.mem_per_instance, 1e-9, None)
                };
                let Some(i) = cand else { break };
                s.nodes[i].mem_free -= app.mem_per_instance;
                s.app_hosts[ai].push(i);
                s.app_take[ai].push(0.0);
                budget -= 1;
                rec.audit(
                    slaq_obs::AuditSubject::App(app.id.raw()),
                    None,
                    Some(s.nodes[i].id.raw()),
                    "solve.step2",
                    "demand-growth",
                );
                heap.remove(i); // now a host of this app
            }
            // Spread the target evenly across the hosts (water-fill): a
            // load-balanced cluster divides its traffic, and packing
            // nodes solid would starve their memory slots of job CPU —
            // the Figure 2 ratio depends on this spreading.
            let mut remaining = app.demand.as_f64();
            for _ in 0..s.app_hosts[ai].len().max(1) {
                if remaining <= 1e-6 {
                    break;
                }
                s.open.clear();
                {
                    let nodes = &s.nodes;
                    s.open.extend(
                        s.app_hosts[ai]
                            .iter()
                            .enumerate()
                            .filter(|&(_, &i)| nodes[i].cpu_free > 1e-9)
                            .map(|(pos, _)| pos),
                    );
                }
                if s.open.is_empty() {
                    break;
                }
                let share = remaining / s.open.len() as f64;
                for oi in 0..s.open.len() {
                    let pos = s.open[oi];
                    let i = s.app_hosts[ai][pos];
                    let take = share.min(s.nodes[i].cpu_free).min(remaining);
                    s.nodes[i].cpu_free -= take;
                    remaining -= take;
                    s.app_take[ai][pos] += take;
                }
            }
            // Honour min_instances even when idle (no CPU floor here:
            // a warm-spare instance may sit on an exhausted node).
            while s.app_hosts[ai].len() < app.min_instances as usize && budget > 0 {
                let cand = if has_affinity {
                    let hosts = &s.app_hosts[ai];
                    let bonus = &s.aff_bonus;
                    s.nodes
                        .iter()
                        .enumerate()
                        .filter(|&(i, n)| {
                            n.mem_free.fits(app.mem_per_instance) && !hosts.contains(&i)
                        })
                        .max_by(|&(ia, a), &(ib, b)| {
                            fcmp(a.cpu_free + bonus[ia], b.cpu_free + bonus[ib])
                                .then(b.id.cmp(&a.id))
                        })
                        .map(|(i, _)| i)
                } else {
                    heap.best_residual(app.mem_per_instance, f64::NEG_INFINITY, None)
                };
                let Some(i) = cand else { break };
                s.nodes[i].mem_free -= app.mem_per_instance;
                s.app_hosts[ai].push(i);
                s.app_take[ai].push(0.0);
                budget -= 1;
                rec.audit(
                    slaq_obs::AuditSubject::App(app.id.raw()),
                    None,
                    Some(s.nodes[i].id.raw()),
                    "solve.step2",
                    "min-instances",
                );
                heap.remove(i);
            }
            // Keep hosts id-sorted (deterministic downstream iteration,
            // matching the seed's `hosts.sort()` on NodeIds).
            s.host_sort.clear();
            for (pos, &i) in s.app_hosts[ai].iter().enumerate() {
                s.host_sort.push((s.nodes[i].id, i, s.app_take[ai][pos]));
            }
            s.host_sort.sort_by_key(|&(id, _, _)| id);
            for (pos, &(_, i, take)) in s.host_sort.iter().enumerate() {
                s.app_hosts[ai][pos] = i;
                s.app_take[ai][pos] = take;
            }
            // The app is done: its hosts re-enter candidacy (for other
            // apps and for jobs) with their water-filled trackers.
            for &i in &s.app_hosts[ai] {
                heap.restore(i, s.nodes[i].cpu_free, s.nodes[i].mem_free);
            }
        }
        drop(span_apps);

        // --------------------------------------------------------------
        // Step 3: place unplaced jobs with positive targets, priority
        // order.
        //
        // Failed-scan memo, the same shape as steps 5/6 below: a failed
        // general scan means no node passes `fits(mem) && cpu > 1e-9`,
        // and within this step node trackers only shrink (placements
        // subtract, nothing restores), so any later job needing ≥ that
        // memory fails the same scan. The memo is consulted only for
        // jobs *without* affinity: the affinity fast path accepts a
        // node under a demand-scaled CPU floor the general filter
        // doesn't use, so affinity carriers always run the real probe.
        // (Their failures still feed the memo — failing means the
        // general scan ran and failed.)
        // --------------------------------------------------------------
        let span_place = rec.span(ok.step3);
        let mut place_failed_mem: Option<MemMb> = None;
        s.unplaced.clear();
        for k in 0..s.ordered_jobs.len() {
            let ji = s.ordered_jobs[k];
            if s.job_node[ji].is_some() {
                continue;
            }
            let job = &problem.jobs[ji];
            if job.affinity.is_none() && place_failed_mem.is_some_and(|m| job.mem.fits(m)) {
                memo_hits += 1;
                s.unplaced.push(ji);
                continue; // a no-easier scan already failed
            }
            let affinity_dense = job.affinity.and_then(|n| node_ix.dense(n));
            if let Some(i) = place_job(job, &mut s.nodes, &mut budget, affinity_dense, heap) {
                s.job_node[ji] = Some(i);
                s.committed[ji] = job.demand.as_f64();
                rec.audit(
                    slaq_obs::AuditSubject::Job(job.id.raw()),
                    None,
                    Some(s.nodes[i].id.raw()),
                    "solve.step3",
                    "priority-place",
                );
            } else {
                if !job.demand.is_zero() && budget > 0 {
                    place_failed_mem = Some(match place_failed_mem {
                        Some(m) => m.min(job.mem),
                        None => job.mem,
                    });
                }
                s.unplaced.push(ji);
            }
        }
        drop(span_place);

        // --------------------------------------------------------------
        // Step 4: rebalance — migrate shortchanged running jobs to nodes
        // with room.
        // --------------------------------------------------------------
        let span_rebalance = rec.span(ok.step4);
        for k in 0..s.deficit_jobs.len() {
            if budget == 0 {
                break;
            }
            let ji = s.deficit_jobs[k];
            let Some(cur) = s.job_node[ji] else { continue };
            if s.running_dense[ji] != Some(cur) {
                continue; // only running jobs can live-migrate
            }
            let job = &problem.jobs[ji];
            let got = s.committed[ji];
            let deficit = job.demand.as_f64() - got;
            if deficit <= job.demand.as_f64() * 0.25 {
                continue; // close enough; not worth a migration
            }
            let target = heap.best_residual(job.mem, got + deficit * 0.5, Some(cur));
            if let Some(t) = target {
                s.nodes[cur].mem_free += job.mem;
                s.nodes[cur].cpu_free += got;
                s.nodes[t].mem_free -= job.mem;
                let newgot = job.demand.as_f64().min(s.nodes[t].cpu_free);
                s.nodes[t].cpu_free -= newgot;
                s.committed[ji] = newgot;
                s.job_node[ji] = Some(t);
                budget -= 1;
                rec.audit(
                    slaq_obs::AuditSubject::Job(job.id.raw()),
                    Some(s.nodes[cur].id.raw()),
                    Some(s.nodes[t].id.raw()),
                    "solve.step4",
                    "rebalance-deficit",
                );
                heap.update(cur, s.nodes[cur].cpu_free, s.nodes[cur].mem_free);
                heap.update(t, s.nodes[t].cpu_free, s.nodes[t].mem_free);
            }
        }
        drop(span_rebalance);

        // --------------------------------------------------------------
        // Step 5: eviction — unplaced high-priority jobs displace
        // strictly lower-priority running jobs (suspend + start = two
        // changes).
        // --------------------------------------------------------------
        let span_evict = rec.span(ok.step5);
        // Failed-scan memo: searchers run in priority-descending order,
        // so a later searcher's eligible-victim set (priority strictly
        // below its own minus the gap) is a subset of every earlier
        // searcher's. If a scan found no victim for a searcher needing
        // `m` MB, any later searcher needing ≥ `m` must fail too — as
        // long as no eviction changed the node states in between. This
        // turns the steady state's O(unplaced × jobs) re-scans into one
        // failed scan (and is outcome-preserving by that subset
        // argument).
        let mut evict_failed_mem: Option<MemMb> = None;
        for k in 0..s.unplaced.len() {
            if budget < 2 {
                break;
            }
            let ji = s.unplaced[k];
            let job = &problem.jobs[ji];
            if s.job_node[ji].is_some() || job.demand.is_zero() {
                continue;
            }
            if evict_failed_mem.is_some_and(|m| job.mem.fits(m)) {
                memo_hits += 1;
                continue; // a no-easier scan already failed
            }
            // Cheapest victim: the lowest-priority placed job whose
            // removal makes room, strictly below this job's priority
            // minus the gap.
            let victim = {
                let (job_node, nodes) = (&s.job_node, &s.nodes);
                s.ordered_jobs
                    .iter()
                    .rev() // ascending priority
                    .filter(|&&vi| {
                        job_node[vi].is_some()
                            && problem.jobs[vi].priority + problem.config.evict_priority_gap
                                < job.priority
                    })
                    .find(|&&vi| {
                        let i = job_node[vi].expect("filtered to placed");
                        (nodes[i].mem_free + problem.jobs[vi].mem).fits(job.mem)
                    })
                    .copied()
            };
            if let Some(vi) = victim {
                let i = s.job_node[vi].take().expect("victim placed");
                s.nodes[i].mem_free += problem.jobs[vi].mem;
                s.nodes[i].cpu_free += std::mem::replace(&mut s.committed[vi], 0.0);
                budget -= 1; // the suspension
                rec.audit(
                    slaq_obs::AuditSubject::Job(problem.jobs[vi].id.raw()),
                    Some(s.nodes[i].id.raw()),
                    None,
                    "solve.step5",
                    "evicted",
                );
                s.nodes[i].mem_free -= job.mem;
                let got = job.demand.as_f64().min(s.nodes[i].cpu_free);
                s.nodes[i].cpu_free -= got;
                s.committed[ji] = got;
                s.job_node[ji] = Some(i);
                budget -= 1; // the start
                rec.audit(
                    slaq_obs::AuditSubject::Job(job.id.raw()),
                    None,
                    Some(s.nodes[i].id.raw()),
                    "solve.step5",
                    "evict-place",
                );
                evict_failed_mem = None; // node states changed: memo off
            } else {
                evict_failed_mem = Some(match evict_failed_mem {
                    Some(m) => m.min(job.mem),
                    None => job.mem,
                });
            }
        }
        drop(span_evict);

        // --------------------------------------------------------------
        // Step 6: reclaim — when jobs with positive targets are still
        // memory-blocked, disposable (zero-CPU-take, above min_instances)
        // application instances give their memory back to the job tier.
        // This is the "drop least-useful instances when memory-blocked"
        // move of the NOMS'08 heuristic.
        //
        // Failed-scan memo, same shape as step 5's: whether a disposable
        // instance can be reclaimed for a job depends only on the job's
        // memory need — the eligibility tests (zero take, min-instance
        // headroom, post-reclaim fit, residual CPU) are otherwise
        // job-independent. A scan that failed for `m` MB therefore fails
        // for every later job needing ≥ `m` until a successful reclaim
        // changes node frees or instance headroom. In the steady state
        // (thousands of unplaced jobs, no reclaimable instance) this
        // collapses the O(unplaced × apps × hosts) re-scan into one
        // failed scan per cycle; it is outcome-preserving by the same
        // subset argument, so both solve modes share it.
        let span_reclaim = rec.span(ok.step6);
        let mut reclaim_failed_mem: Option<MemMb> = None;
        for k in 0..s.unplaced.len() {
            if budget < 2 {
                break;
            }
            let ji = s.unplaced[k];
            let job = &problem.jobs[ji];
            if s.job_node[ji].is_some() || job.demand.is_zero() {
                continue;
            }
            if reclaim_failed_mem.is_some_and(|m| job.mem.fits(m)) {
                memo_hits += 1;
                continue; // a no-easier reclaim scan already failed
            }
            'apps: for ak in 0..s.ordered_apps.len() {
                let ai = s.ordered_apps[ak];
                let app = &problem.apps[ai];
                if s.app_hosts[ai].len() <= app.min_instances.max(1) as usize {
                    continue;
                }
                for pos in 0..s.app_hosts[ai].len() {
                    if s.app_take[ai][pos] > 1e-6 {
                        continue; // instance is carrying real load
                    }
                    let i = s.app_hosts[ai][pos];
                    if (s.nodes[i].mem_free + app.mem_per_instance).fits(job.mem)
                        && s.nodes[i].cpu_free > 1e-9
                    {
                        s.nodes[i].mem_free += app.mem_per_instance;
                        s.app_hosts[ai].remove(pos);
                        s.app_take[ai].remove(pos);
                        budget -= 1; // the instance stop
                        rec.audit(
                            slaq_obs::AuditSubject::App(app.id.raw()),
                            Some(s.nodes[i].id.raw()),
                            None,
                            "solve.step6",
                            "memory-reclaim",
                        );
                        s.nodes[i].mem_free -= job.mem;
                        let got = job.demand.as_f64().min(s.nodes[i].cpu_free);
                        s.nodes[i].cpu_free -= got;
                        s.committed[ji] = got;
                        s.job_node[ji] = Some(i);
                        budget -= 1; // the job start
                        rec.audit(
                            slaq_obs::AuditSubject::Job(job.id.raw()),
                            None,
                            Some(s.nodes[i].id.raw()),
                            "solve.step6",
                            "reclaim-place",
                        );
                        reclaim_failed_mem = None; // headroom changed: memo off
                        break 'apps;
                    }
                }
            }
            if s.job_node[ji].is_none() {
                reclaim_failed_mem = Some(match reclaim_failed_mem {
                    Some(m) => m.min(job.mem),
                    None => job.mem,
                });
            }
        }
        drop(span_reclaim);

        // --------------------------------------------------------------
        // Step 7: exact allocation.
        // --------------------------------------------------------------
        let span_alloc = rec.span(ok.step7);
        let placement = self.alloc.allocate_dense(
            &problem.nodes,
            &problem.apps,
            &s.app_hosts,
            &problem.jobs,
            &s.job_node,
        );
        drop(span_alloc);

        // Publish the per-solve counters accumulated locally (and the
        // heap's rebuild increment — its own counter is cumulative).
        if rec.is_enabled() {
            rec.count(ok.memo_hits, memo_hits);
            let rb = heap.rebuilds();
            rec.count(
                ok.heap_rebuilds,
                rb.saturating_sub(self.obs_rebuilds) as u64,
            );
            self.obs_rebuilds = rb;
        }

        let _span = rec.span(ok.outcome);
        assemble_outcome(problem, prev, placement, &s.job_node)
    }
}

/// Final outcome assembly: the change list against `prev` and the jobs
/// left unplaced.
fn assemble_outcome(
    problem: &PlacementProblem,
    prev: &Placement,
    placement: Placement,
    job_node: &[Option<usize>],
) -> PlacementOutcome {
    let changes = placement.diff(prev);
    let unplaced_jobs: Vec<JobId> = problem
        .jobs
        .iter()
        .enumerate()
        .filter(|(ji, j)| !j.demand.is_zero() && job_node[*ji].is_none())
        .map(|(_, j)| j.id)
        .collect();

    PlacementOutcome {
        placement,
        changes,
        unplaced_jobs,
    }
}

/// Step 3's placement move: put one job on the node offering it the most
/// CPU (saturating at its demand; ties: more free memory, then lower id)
/// among nodes with memory room, affinity-first for suspended images.
/// Mutates the chosen node's trackers (and echoes them into the heap);
/// returns the chosen dense node index.
fn place_job(
    job: &JobRequest,
    nodes: &mut [NodeState],
    budget: &mut usize,
    affinity_dense: Option<usize>,
    heap: &mut CandidateHeap,
) -> Option<usize> {
    if *budget == 0 || job.demand.is_zero() {
        return None;
    }
    // Affinity first if it can feed the job meaningfully.
    if let Some(i) = affinity_dense {
        if nodes[i].mem_free.fits(job.mem) && nodes[i].cpu_free >= job.demand.as_f64() * 0.5 {
            nodes[i].mem_free -= job.mem;
            let got = job.demand.as_f64().min(nodes[i].cpu_free);
            nodes[i].cpu_free -= got;
            *budget -= 1;
            heap.update(i, nodes[i].cpu_free, nodes[i].mem_free);
            return Some(i);
        }
    }
    // Otherwise, the node offering the most CPU (ties: more free
    // memory, then lower id).
    let best = heap.best_saturating(job.demand.as_f64(), job.mem, 1e-9, None)?;
    nodes[best].mem_free -= job.mem;
    let got = job.demand.as_f64().min(nodes[best].cpu_free);
    nodes[best].cpu_free -= got;
    *budget -= 1;
    heap.update(best, nodes[best].cpu_free, nodes[best].mem_free);
    Some(best)
}

/// Solve one cycle with a cold (single-shot) [`Solver`]. `prev` is the
/// placement currently in force. Controllers that re-solve every cycle
/// should hold a [`Solver`] instead to reuse its scratch and network.
pub fn solve(problem: &PlacementProblem, prev: &Placement) -> PlacementOutcome {
    Solver::new().solve(problem, prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{AppRequest, NodeCapacity, PlacementConfig};
    use crate::reference::solve_reference;
    use proptest::prelude::*;
    use slaq_types::AppId;

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

    #[test]
    fn empty_problem_yields_empty_outcome() {
        let p = problem(nodes(2, 12_000.0, 4096), vec![], vec![]);
        let out = solve(&p, &Placement::empty());
        assert!(out.placement.jobs.is_empty());
        assert!(out.changes.is_empty());
        assert!(out.unplaced_jobs.is_empty());
    }

    #[test]
    fn memory_limits_jobs_per_node() {
        // The paper's constraint: 4 cores but only 3 jobs fit in memory.
        let p = problem(
            nodes(1, 12_000.0, 4096),
            vec![],
            (0..4).map(|i| jobr(i, 3000.0)).collect(),
        );
        let out = solve(&p, &Placement::empty());
        assert_eq!(out.placement.jobs.len(), 3);
        assert_eq!(out.unplaced_jobs.len(), 1);
        assert_eq!(out.total_job_satisfied(), CpuMhz::new(9000.0));
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn placement_is_sticky_across_cycles() {
        let p = problem(
            nodes(3, 12_000.0, 4096),
            vec![appr(0, 9000.0)],
            (0..4).map(|i| jobr(i, 3000.0)).collect(),
        );
        let first = solve(&p, &Placement::empty());
        // Second cycle: mark jobs as running where they landed.
        let mut p2 = p.clone();
        for j in &mut p2.jobs {
            j.running_on = first.placement.job_node(j.id);
        }
        let second = solve(&p2, &first.placement);
        assert!(
            second.changes.is_empty(),
            "unchanged problem must not churn: {:?}",
            second.changes
        );
        assert_eq!(second.placement.jobs, first.placement.jobs);
    }

    #[test]
    fn warm_solver_matches_cold_solver_across_cycles() {
        // The same Solver re-used across cycles (scratch + network reuse)
        // must behave exactly like fresh one-shot solves.
        let mut warm = Solver::new();
        let mut prev_warm = Placement::empty();
        let mut prev_cold = Placement::empty();
        for cycle in 0..6u32 {
            let mut p = problem(
                nodes(4, 12_000.0, 4096),
                vec![appr(0, 6000.0 + 2000.0 * cycle as f64)],
                (0..8)
                    .map(|i| jobr(i, 1500.0 + 300.0 * ((i + cycle) % 5) as f64))
                    .collect(),
            );
            for j in &mut p.jobs {
                j.running_on = prev_warm.job_node(j.id);
            }
            let w = warm.solve(&p, &prev_warm);
            let c = solve(&p, &prev_cold);
            assert_eq!(w, c, "cycle {cycle}");
            prev_warm = w.placement;
            prev_cold = c.placement;
        }
    }

    #[test]
    fn change_budget_caps_disruptions() {
        let mut p = problem(
            nodes(2, 12_000.0, 8192),
            vec![],
            (0..6).map(|i| jobr(i, 3000.0)).collect(),
        );
        p.config.max_changes = Some(2);
        let out = solve(&p, &Placement::empty());
        assert_eq!(out.changes.len(), 2, "{:?}", out.changes);
        assert_eq!(out.placement.jobs.len(), 2);
        assert_eq!(out.unplaced_jobs.len(), 4);
    }

    #[test]
    fn high_priority_pending_evicts_low_priority_running() {
        // Node full with three running low-priority jobs; a high-priority
        // job arrives.
        let mut jobs: Vec<JobRequest> = (0..3)
            .map(|i| {
                let mut j = jobr(i, 500.0);
                j.running_on = Some(NodeId::new(0));
                j.priority = 1.0;
                j
            })
            .collect();
        let mut hot = jobr(3, 3000.0);
        hot.priority = 100.0;
        jobs.push(hot);
        let mut prev = Placement::empty();
        for i in 0..3 {
            prev.jobs
                .insert(JobId::new(i), (NodeId::new(0), CpuMhz::new(500.0)));
        }
        let mut p = problem(nodes(1, 12_000.0, 4096), vec![], jobs);
        p.config.evict_priority_gap = 10.0;
        let out = solve(&p, &prev);
        assert!(out.placement.jobs.contains_key(&JobId::new(3)));
        assert_eq!(out.placement.jobs.len(), 3);
        let suspended = out
            .changes
            .iter()
            .filter(|c| matches!(c, PlacementChange::SuspendJob { .. }))
            .count();
        assert_eq!(suspended, 1);
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn eviction_respects_priority_gap() {
        let mut running = jobr(0, 2900.0);
        running.running_on = Some(NodeId::new(0));
        running.priority = 95.0;
        let mut pending = jobr(1, 3000.0);
        pending.priority = 100.0;
        // Memory only fits one job.
        let mut prev = Placement::empty();
        prev.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(2900.0)));
        let mut p = problem(nodes(1, 12_000.0, 1500), vec![], vec![running, pending]);
        p.config.evict_priority_gap = 10.0; // gap of 5 < 10: no eviction
        let out = solve(&p, &prev);
        assert!(out.placement.jobs.contains_key(&JobId::new(0)));
        assert!(!out.placement.jobs.contains_key(&JobId::new(1)));
    }

    #[test]
    fn shortchanged_running_job_migrates_to_free_node() {
        // Two jobs run on node0 (cpu 3000): together they demand 6000.
        // Node1 is idle: the solver should migrate one over.
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
        let out = solve(&p, &prev);
        let migrations = out
            .changes
            .iter()
            .filter(|c| matches!(c, PlacementChange::MigrateJob { .. }))
            .count();
        assert_eq!(migrations, 1, "{:?}", out.changes);
        assert_eq!(out.total_job_satisfied(), CpuMhz::new(6000.0));
    }

    #[test]
    fn app_grows_instances_to_cover_demand() {
        let p = problem(nodes(4, 12_000.0, 4096), vec![appr(0, 30_000.0)], vec![]);
        let out = solve(&p, &Placement::empty());
        assert!(out.placement.app_instances(AppId::new(0)) >= 3);
        assert!(out
            .total_app_satisfied()
            .approx_eq(CpuMhz::new(30_000.0), 1.0));
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn idle_app_keeps_min_instances() {
        let mut app = appr(0, 0.0);
        app.min_instances = 2;
        let p = problem(nodes(3, 12_000.0, 4096), vec![app], vec![]);
        let out = solve(&p, &Placement::empty());
        assert_eq!(out.placement.app_instances(AppId::new(0)), 2);
        assert_eq!(out.total_app_satisfied(), CpuMhz::ZERO);
    }

    #[test]
    fn idle_app_sheds_extra_instances() {
        // Previously spread over 3 nodes; demand collapses to zero.
        let mut prev = Placement::empty();
        for n in 0..3 {
            prev.apps
                .entry(AppId::new(0))
                .or_default()
                .insert(NodeId::new(n), CpuMhz::new(1000.0));
        }
        let mut app = appr(0, 0.0);
        app.min_instances = 1;
        let p = problem(nodes(3, 12_000.0, 4096), vec![app], vec![]);
        let out = solve(&p, &prev);
        assert_eq!(out.placement.app_instances(AppId::new(0)), 1);
        let stops = out
            .changes
            .iter()
            .filter(|c| matches!(c, PlacementChange::StopInstance { .. }))
            .count();
        assert_eq!(stops, 2);
    }

    #[test]
    fn max_instances_caps_app_growth() {
        let mut app = appr(0, 48_000.0);
        app.max_instances = 2;
        let p = problem(nodes(4, 12_000.0, 4096), vec![app], vec![]);
        let out = solve(&p, &Placement::empty());
        assert_eq!(out.placement.app_instances(AppId::new(0)), 2);
        assert!(out
            .total_app_satisfied()
            .approx_eq(CpuMhz::new(24_000.0), 1.0));
    }

    #[test]
    fn mixed_workload_shares_one_node() {
        let p = problem(
            nodes(1, 12_000.0, 4096),
            vec![appr(0, 6000.0)],
            vec![jobr(0, 3000.0), jobr(1, 3000.0)],
        );
        let out = solve(&p, &Placement::empty());
        // 2 jobs (2×1280) + 1 instance (1024) = 3584 ≤ 4096 ✓; CPU exactly full.
        assert_eq!(out.placement.jobs.len(), 2);
        assert_eq!(out.total_job_satisfied(), CpuMhz::new(6000.0));
        assert!(out
            .total_app_satisfied()
            .approx_eq(CpuMhz::new(6000.0), 1.0));
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
    }

    #[test]
    fn zero_demand_jobs_are_not_newly_placed_but_kept_if_running() {
        let mut running = jobr(0, 0.0);
        running.running_on = Some(NodeId::new(0));
        running.priority = 0.0;
        let pending = jobr(1, 0.0);
        let mut prev = Placement::empty();
        prev.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::ZERO));
        let p = problem(nodes(2, 12_000.0, 4096), vec![], vec![running, pending]);
        let out = solve(&p, &prev);
        assert!(
            out.placement.jobs.contains_key(&JobId::new(0)),
            "kept running"
        );
        assert!(
            !out.placement.jobs.contains_key(&JobId::new(1)),
            "not started"
        );
        assert!(
            out.unplaced_jobs.is_empty(),
            "zero-demand pending is not 'unplaced'"
        );
    }

    #[test]
    fn suspended_job_prefers_affinity_node() {
        let mut j = jobr(0, 3000.0);
        j.affinity = Some(NodeId::new(1));
        let p = problem(nodes(3, 12_000.0, 4096), vec![], vec![j]);
        let out = solve(&p, &Placement::empty());
        assert_eq!(out.placement.job_node(JobId::new(0)), Some(NodeId::new(1)));
    }

    #[test]
    fn warm_resolve_with_capacity_change_never_rebuilds_heap() {
        // Same node set across cycles — even with capacities and demands
        // shifting — must keep the candidate heap's topology: one build
        // at the first solve, zero rebuilds after.
        let mut warm = Solver::new();
        let mut prev = Placement::empty();
        for cycle in 0..5u32 {
            let mut p = problem(
                nodes(
                    4,
                    9_000.0 + 1500.0 * cycle as f64,
                    4096 + 512 * cycle as u64,
                ),
                vec![appr(0, 8000.0)],
                (0..6).map(|i| jobr(i, 1200.0 + 300.0 * i as f64)).collect(),
            );
            for j in &mut p.jobs {
                j.running_on = prev.job_node(j.id);
            }
            prev = warm.solve(&p, &prev).placement;
        }
        assert_eq!(warm.heap_rebuilds(), 1, "capacity-only cycles rebuilt");
        // A topology change (node lost) does rebuild.
        let p = problem(nodes(3, 9_000.0, 4096), vec![appr(0, 8000.0)], vec![]);
        warm.solve(&p, &prev);
        assert_eq!(warm.heap_rebuilds(), 2);
    }

    #[test]
    fn sparse_node_ids_work_via_interning() {
        // Node ids far apart and unordered: dense indices must absorb it.
        let caps = vec![
            NodeCapacity {
                id: NodeId::new(90),
                cpu: CpuMhz::new(6000.0),
                mem: MemMb::new(4096),
            },
            NodeCapacity {
                id: NodeId::new(7),
                cpu: CpuMhz::new(6000.0),
                mem: MemMb::new(4096),
            },
        ];
        let mut j = jobr(0, 3000.0);
        j.running_on = Some(NodeId::new(90));
        let mut prev = Placement::empty();
        prev.jobs
            .insert(JobId::new(0), (NodeId::new(90), CpuMhz::new(3000.0)));
        let p = problem(caps, vec![appr(0, 4000.0)], vec![j, jobr(1, 2000.0)]);
        let out = solve(&p, &prev);
        out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
        assert_eq!(out.placement.job_node(JobId::new(0)), Some(NodeId::new(90)));
        assert_eq!(out, solve_reference(&p, &prev));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_outcome_always_valid_and_within_budget(
            n_nodes in 1u32..6,
            node_cpu in 3000.0..16_000.0f64,
            node_mem in 1024u64..8192,
            app_demands in proptest::collection::vec(0.0..40_000.0f64, 0..3),
            job_demands in proptest::collection::vec(0.0..3000.0f64, 0..12),
            budget in proptest::option::of(0usize..8),
        ) {
            let apps: Vec<AppRequest> = app_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let mut a = appr(i as u32, d);
                    a.min_instances = 0;
                    a
                })
                .collect();
            let jobs: Vec<JobRequest> = job_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| jobr(i as u32, d))
                .collect();
            let mut p = problem(nodes(n_nodes, node_cpu, node_mem), apps, jobs);
            p.config.max_changes = budget;
            let out = solve(&p, &Placement::empty());
            // 1. Structural validity (capacity constraints, counts).
            out.placement.validate(&p.nodes, &p.apps, &p.jobs).unwrap();
            // 2. Budget respected.
            if let Some(b) = budget {
                prop_assert!(out.changes.len() <= b, "{} > {b}", out.changes.len());
            }
            // 3. Nobody exceeds their demand.
            for a in &p.apps {
                prop_assert!(
                    out.placement.app_alloc(a.id).as_f64() <= a.demand.as_f64() + 1.0
                );
            }
            for j in &p.jobs {
                if let Some(&(_, got)) = out.placement.jobs.get(&j.id) {
                    prop_assert!(got.as_f64() <= j.demand.as_f64() + 1.0);
                }
            }
        }

        #[test]
        fn prop_resolving_same_problem_is_stable(
            n_nodes in 1u32..5,
            job_demands in proptest::collection::vec(100.0..3000.0f64, 1..10),
        ) {
            let jobs: Vec<JobRequest> = job_demands
                .iter()
                .enumerate()
                .map(|(i, &d)| jobr(i as u32, d))
                .collect();
            let p = problem(nodes(n_nodes, 12_000.0, 4096), vec![], jobs);
            let first = solve(&p, &Placement::empty());
            let mut p2 = p.clone();
            for j in &mut p2.jobs {
                j.running_on = first.placement.job_node(j.id);
            }
            let second = solve(&p2, &first.placement);
            prop_assert!(second.changes.is_empty(), "churn: {:?}", second.changes);
        }

        #[test]
        fn prop_dense_solver_matches_reference(
            n_nodes in 1u32..8,
            node_cpu in 3000.0..16_000.0f64,
            node_mem in 1024u64..8192,
            app_demands in proptest::collection::vec(0.0..40_000.0f64, 0..4),
            job_demands in proptest::collection::vec(0.0..3000.0f64, 0..14),
            budget in proptest::option::of(0usize..10),
            gap in 0.0..500.0f64,
            tie_heavy in 0u8..2,
        ) {
            // Differential test: the dense-index solver must reproduce the
            // seed (id-keyed) implementation's outcome bit-for-bit —
            // including across a warm second cycle with running jobs and a
            // prior placement.
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
                    j.priority = if tie_heavy == 1 {
                        // Quantized priorities manufacture eviction ties and
                        // exercise the failed-scan memos' reset paths.
                        (d / 250.0).floor()
                    } else {
                        d * if i % 2 == 0 { 1.0 } else { 0.5 }
                    };
                    j
                })
                .collect();
            let mut p = problem(nodes(n_nodes, node_cpu, node_mem), apps, jobs);
            p.config.max_changes = budget;
            p.config.evict_priority_gap = gap;
            let mut warm = Solver::new();
            let dense1 = warm.solve(&p, &Placement::empty());
            let ref1 = solve_reference(&p, &Placement::empty());
            prop_assert_eq!(&dense1, &ref1, "cold cycle diverged");
            // Warm cycle: jobs run where they landed; prev = cycle-1 result.
            let mut p2 = p.clone();
            for j in &mut p2.jobs {
                j.running_on = dense1.placement.job_node(j.id);
                j.affinity = j.running_on;
            }
            let dense2 = warm.solve(&p2, &dense1.placement);
            let ref2 = solve_reference(&p2, &ref1.placement);
            prop_assert_eq!(&dense2, &ref2, "warm cycle diverged");
        }
    }
}
