//! Exact CPU allocation for a *fixed* placement, via network flow.
//!
//! Once the discrete decisions are made (which instances exist, which jobs
//! run where), distributing CPU is a transportation problem:
//!
//! ```text
//! source ──demand──▶ entity ──placed-edge──▶ node ──capacity──▶ sink
//! ```
//!
//! Max-flow maximizes total satisfied demand; when even the maximum flow
//! cannot satisfy every target (discreteness made some commitment
//! unrealizable), the shortfall must land on the **jobs**: an
//! application's utility collapses catastrophically once its allocation
//! nears its offered load (response times diverge), while a shortchanged
//! job still makes progress on work-conserving spare capacity and merely
//! finishes later.
//!
//! The seed implementation expressed that bias as a 0/1-cost min-cost
//! flow (one Dijkstra per augmenting path — the dominant solver cost at
//! scale). With only two cost classes the same optimum falls out of a
//! **two-phase Dinic**: flow the applications first with the job source
//! edges gated shut, then open the gates and continue to the global
//! maximum. Phase 2 augmenting paths can reroute application slices
//! between nodes but can never reduce the application total (a reverse
//! source edge would revisit the source), so the application tier keeps
//! its phase-1 maximum — exactly the min-cost solution, with no
//! Bellman–Ford and no Dijkstra on the path at all.
//!
//! [`Allocator`] additionally keeps the transportation network **alive
//! across control cycles**: when the topology (who is placed where) is
//! unchanged from the previous call — the common warm re-solve — it only
//! rewrites edge capacities in place and re-flows, allocating nothing.
//!
//! ## Incremental re-flow (the delta path)
//!
//! With tracking enabled ([`Allocator::set_track_delta`]) the allocator
//! audits each full solve for **canonicity**: every app gate saturated,
//! no app slice moved by phase 2 (final app-edge flows equal the
//! phase-1 snapshot), and every placed job's gate saturated. In a
//! canonical state each placed job's flow is exactly its demand routed
//! down its direct `source → job → node → sink` path, so when a later
//! cycle changes *only job demands* — topology, node capacities and app
//! demands all equal at flow-unit granularity — and no node becomes
//! contended under the new demands, the fresh solve's end state is
//! forced: phase 1 reproduces the stored app flows (identical inputs,
//! deterministic Dinic) and phase 2 saturates every job gate on direct
//! level-3 paths without touching an app edge. [`Allocator::
//! try_allocate_delta`] therefore *constructs* that end state — cancel
//! the dirty jobs' flows, re-push their new demands, patch the stored
//! placement — in O(dirty) instead of re-running Dinic over the whole
//! network. Any condition it cannot verify, or a dirty set above
//! [`DELTA_FALLBACK_FRACTION`], returns `None` and the caller falls back
//! to the full path; the differential oracle in `tests/delta_solve.rs`
//! pins bit-identity against the batch path. This re-flow is the whole
//! of the delta solve: `SolveMode::Delta` means the solver's step 7
//! calls `try_allocate_delta` before [`Allocator::allocate_dense`], and
//! nothing else.

use crate::placement::Placement;
use crate::problem::{AppRequest, JobRequest, NodeCapacity};
use slaq_flow::{EdgeId, FlowNetwork, MaxFlowScratch};
use slaq_types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::BTreeMap;

/// Sentinel separating per-app host runs in the flattened topology
/// signature.
const HOST_SEP: u32 = u32::MAX;

/// Largest fraction of the job set that may be dirty before the
/// incremental re-flow gives up and the full warm path runs instead. Past
/// this point the O(dirty) surgery plus its O(problem) audit stops being
/// cheaper than a straight capacity-rewrite re-solve.
pub const DELTA_FALLBACK_FRACTION: f64 = 0.25;

/// MHz granularity fluid demands are scaled to integer flow capacities
/// with; one MHz loses nothing at cluster scale.
pub const MHZ_UNIT: f64 = 1.0;

/// MHz → flow units. Demands round down too: granting an entity a
/// fraction of a unit less than its target is harmless, while rounding
/// *capacities* up would overcommit nodes by up to one unit.
fn to_units(c: CpuMhz) -> i64 {
    (c.as_f64() / MHZ_UNIT).floor().max(0.0) as i64
}

/// Flow units → MHz.
fn to_mhz(u: i64) -> CpuMhz {
    CpuMhz::new(u as f64 * MHZ_UNIT)
}

/// Reusable allocation engine: owns the transportation network, its
/// scratch memory, and the previous topology signature for warm reuse.
#[derive(Debug, Clone, Default)]
pub struct Allocator {
    net: FlowNetwork,
    scratch: MaxFlowScratch,
    // --- topology signature of the network currently built ---
    /// `false` until the first build: a fresh allocator must never take
    /// the warm path, even when the incoming signature is empty too.
    built: bool,
    sig_nodes: usize,
    sig_apps: usize,
    /// Per job: dense node index + 1, or 0 when unplaced.
    sig_job_place: Vec<u32>,
    /// Per app: its dense host indices, runs separated by [`HOST_SEP`].
    sig_hosts: Vec<u32>,
    // --- edge handles, valid for the current topology ---
    /// Source→job edge per job (the phase gate), for **all** jobs.
    job_gate: Vec<EdgeId>,
    /// Job→node edge per placed job.
    job_edge: Vec<Option<EdgeId>>,
    /// Source→app edge per app.
    app_gate: Vec<EdgeId>,
    /// App→node edges, flattened in `sig_hosts` order (separators skipped).
    app_edge: Vec<EdgeId>,
    /// Node→sink edge per node.
    node_edge: Vec<EdgeId>,
    // --- per-call builders (kept for allocation reuse) ---
    new_job_place: Vec<u32>,
    new_hosts: Vec<u32>,
    // --- delta-reflow state (captured only when `track_delta` is on) ---
    /// Whether full solves audit + capture the canonical state below.
    track_delta: bool,
    /// `true` when the network's current flow state is canonical (see the
    /// module docs) and the fingerprints below describe it.
    canonical: bool,
    /// Per job / app / node: demand or capacity in flow units.
    unit_job: Vec<i64>,
    unit_app: Vec<i64>,
    unit_node: Vec<i64>,
    /// Entity identities of the canonical solve — dense indices alone are
    /// not enough: a patched placement keys by id, so a same-shape problem
    /// over different entities must fall back.
    job_ids: Vec<JobId>,
    app_ids: Vec<AppId>,
    node_ids: Vec<NodeId>,
    /// Per node: application / job inflow units in the canonical state.
    node_app_in: Vec<i64>,
    node_job_in: Vec<i64>,
    /// Phase-1 app-edge flows (scratch for the canonicity audit).
    phase1_app_flow: Vec<i64>,
    /// The placement returned by the canonical solve, patched in place by
    /// each successful delta re-flow.
    last_placement: Placement,
    /// Scratch: dirty job indices / touched node indices of one delta call.
    dirty: Vec<usize>,
    touched_nodes: Vec<usize>,
    /// Observability plane: one leaf span per stage of a full solve
    /// (so `solve.step7.allocate` has no unexplained self-time) and one
    /// around the incremental re-flow. Off by default.
    recorder: slaq_obs::Recorder,
    k_setup: slaq_obs::Key,
    k_flow_apps: slaq_obs::Key,
    k_flow_jobs: slaq_obs::Key,
    k_readback: slaq_obs::Key,
    k_capture: slaq_obs::Key,
    k_delta: slaq_obs::Key,
}

impl Allocator {
    /// A fresh allocator with no cached network.
    pub fn new() -> Self {
        Allocator::default()
    }

    /// Install an observability [`Recorder`](slaq_obs::Recorder): spans
    /// around the stages of a full solve — `alloc.setup` (topology
    /// signature, then capacity rewrite or network build), the two
    /// max-flow phases (`alloc.flow.apps` / `alloc.flow.jobs`),
    /// `alloc.readback`, `alloc.capture` (delta mode's canonicity audit)
    /// — and around the incremental re-flow (`alloc.delta`).
    pub fn set_recorder(&mut self, recorder: slaq_obs::Recorder) {
        self.k_setup = recorder.key("alloc.setup");
        self.k_flow_apps = recorder.key("alloc.flow.apps");
        self.k_flow_jobs = recorder.key("alloc.flow.jobs");
        self.k_readback = recorder.key("alloc.readback");
        self.k_capture = recorder.key("alloc.capture");
        self.k_delta = recorder.key("alloc.delta");
        self.recorder = recorder;
    }

    /// Compute allocations for a placement expressed in **dense node
    /// indices** (see [`slaq_types::Interner`]): `app_hosts[ai]` lists the
    /// dense node indices hosting app `ai`, `job_nodes[ji]` the dense node
    /// index running job `ji`. This is the solver's hot entry point.
    /// Application ids must be distinct, and so must the hosts of one
    /// application (the solver never lists a node twice): the read-back
    /// builds each map in one pass and `debug_assert!`s both.
    ///
    /// Returns a [`Placement`] with CPU slices filled in. Entities receive
    /// at most their demand; nodes are never overcommitted; total
    /// satisfied demand is maximal for this placement with the shortfall
    /// biased onto jobs (the flow optimum).
    pub fn allocate_dense(
        &mut self,
        nodes: &[NodeCapacity],
        apps: &[AppRequest],
        app_hosts: &[Vec<usize>],
        jobs: &[JobRequest],
        job_nodes: &[Option<usize>],
    ) -> Placement {
        assert_eq!(apps.len(), app_hosts.len(), "one host list per app");
        assert_eq!(jobs.len(), job_nodes.len(), "one node slot per job");

        // ------------------------------------------------------------------
        // Topology signature: rebuild only when the shape changed.
        // ------------------------------------------------------------------
        let span_setup = self.recorder.span(self.k_setup);
        self.new_job_place.clear();
        self.new_job_place.extend(job_nodes.iter().map(|n| match n {
            Some(ni) => *ni as u32 + 1,
            None => 0,
        }));
        self.new_hosts.clear();
        for hosts in app_hosts {
            self.new_hosts.extend(hosts.iter().map(|&ni| ni as u32));
            self.new_hosts.push(HOST_SEP);
        }
        let warm = self.built
            && self.sig_nodes == nodes.len()
            && self.sig_apps == apps.len()
            && self.sig_job_place == self.new_job_place
            && self.sig_hosts == self.new_hosts;

        // Graph layout: 0 = source; 1..=A apps; A+1..=A+J jobs;
        // A+J+1..=A+J+N nodes; last = sink.
        let n_apps = apps.len();
        let n_jobs = jobs.len();
        let source = 0usize;
        let app_vx = |i: usize| 1 + i;
        let job_vx = |i: usize| 1 + n_apps + i;
        let node_vx = |i: usize| 1 + n_apps + n_jobs + i;
        let sink = 1 + n_apps + n_jobs + nodes.len();

        if warm {
            // Same topology: rewrite every capacity in place (which also
            // discards last cycle's flow) — no graph construction at all.
            for (ji, job) in jobs.iter().enumerate() {
                let cap = to_units(job.demand);
                self.net.set_cap(self.job_gate[ji], cap);
                if let Some(e) = self.job_edge[ji] {
                    self.net.set_cap(e, cap);
                }
            }
            let mut flat = 0usize;
            for (ai, app) in apps.iter().enumerate() {
                let cap = to_units(app.demand);
                self.net.set_cap(self.app_gate[ai], cap);
                for _ in &app_hosts[ai] {
                    self.net.set_cap(self.app_edge[flat], cap);
                    flat += 1;
                }
            }
            for (ni, node) in nodes.iter().enumerate() {
                self.net.set_cap(self.node_edge[ni], to_units(node.cpu));
            }
        } else {
            self.net.clear(sink + 1);
            self.job_gate.clear();
            self.job_edge.clear();
            self.app_gate.clear();
            self.app_edge.clear();
            self.node_edge.clear();
            for (ji, job) in jobs.iter().enumerate() {
                let cap = to_units(job.demand);
                self.job_gate
                    .push(self.net.add_edge(source, job_vx(ji), cap));
                self.job_edge
                    .push(job_nodes[ji].map(|ni| self.net.add_edge(job_vx(ji), node_vx(ni), cap)));
            }
            for (ai, app) in apps.iter().enumerate() {
                let cap = to_units(app.demand);
                self.app_gate
                    .push(self.net.add_edge(source, app_vx(ai), cap));
                for &ni in &app_hosts[ai] {
                    self.app_edge
                        .push(self.net.add_edge(app_vx(ai), node_vx(ni), cap));
                }
            }
            for (ni, node) in nodes.iter().enumerate() {
                self.node_edge
                    .push(self.net.add_edge(node_vx(ni), sink, to_units(node.cpu)));
            }
            std::mem::swap(&mut self.sig_job_place, &mut self.new_job_place);
            std::mem::swap(&mut self.sig_hosts, &mut self.new_hosts);
            self.sig_nodes = nodes.len();
            self.sig_apps = apps.len();
            self.built = true;
        }
        drop(span_setup);

        // ------------------------------------------------------------------
        // Two-phase max-flow: apps first (gates shut), then jobs.
        // ------------------------------------------------------------------
        {
            let _span = self.recorder.span(self.k_flow_apps);
            for gate in &self.job_gate {
                self.net.set_cap(*gate, 0);
            }
            self.net.max_flow_with(source, sink, &mut self.scratch);
        }
        if self.track_delta {
            // Snapshot the app tier before the job phase: the canonicity
            // audit below needs to know whether phase 2 moved any slice.
            self.phase1_app_flow.clear();
            self.phase1_app_flow
                .extend(self.app_edge.iter().map(|&e| self.net.flow_on(e)));
        }
        {
            let _span = self.recorder.span(self.k_flow_jobs);
            for (ji, job) in jobs.iter().enumerate() {
                self.net.set_cap(self.job_gate[ji], to_units(job.demand));
            }
            self.net.max_flow_with(source, sink, &mut self.scratch);
        }

        // ------------------------------------------------------------------
        // Read back the allocation.
        // ------------------------------------------------------------------
        let span_readback = self.recorder.span(self.k_readback);
        // One `collect()` per map: `BTreeMap::from_iter` sorts (a no-op
        // on an id-ordered problem) and bulk-loads full leaves. Every
        // host keeps its instance even at zero flow (warm instance).
        let mut flows = self.app_edge.iter().map(|&e| self.net.flow_on(e));
        // Sized up front: a `filter_map` promises nothing, and `collect()`
        // takes a `Vec`'s buffer over as it is.
        let mut placed = Vec::with_capacity(jobs.len());
        placed.extend(
            jobs.iter()
                .zip(job_nodes.iter().zip(&self.job_edge))
                .filter_map(|(job, (&ni, &e))| {
                    Some((job.id, (nodes[ni?].id, to_mhz(self.net.flow_on(e?)))))
                }),
        );
        let placement = Placement {
            apps: apps
                .iter()
                .zip(app_hosts)
                .map(|(app, hosts)| {
                    let slices: BTreeMap<NodeId, CpuMhz> = hosts
                        .iter()
                        .zip(&mut flows)
                        .map(|(&ni, f)| (nodes[ni].id, to_mhz(f)))
                        .collect();
                    debug_assert_eq!(slices.len(), hosts.len(), "{} lists a host twice", app.id);
                    (app.id, slices)
                })
                .collect(),
            jobs: placed.into_iter().collect(),
        };
        debug_assert_eq!(
            placement.apps.len(),
            apps.len(),
            "an application id repeats"
        );
        drop(span_readback);

        if self.track_delta {
            let _span = self.recorder.span(self.k_capture);
            self.capture_canonical(nodes, apps, app_hosts, jobs, job_nodes, &placement);
        }
        placement
    }

    /// Turn delta-reflow tracking on or off. Tracking adds an O(problem)
    /// audit to every full solve; disabling it also drops the canonical
    /// state so a later re-enable cannot reuse stale fingerprints.
    pub fn set_track_delta(&mut self, on: bool) {
        self.track_delta = on;
        if !on {
            self.canonical = false;
        }
    }

    /// Audit the just-finished full solve for canonicity and, when it
    /// qualifies, fingerprint it as the base state for incremental
    /// re-flows. Unplaced jobs have no out-edge — their gates carry zero
    /// flow structurally — so gate saturation is only required of placed
    /// jobs.
    fn capture_canonical(
        &mut self,
        nodes: &[NodeCapacity],
        apps: &[AppRequest],
        app_hosts: &[Vec<usize>],
        jobs: &[JobRequest],
        job_nodes: &[Option<usize>],
        placement: &Placement,
    ) {
        let apps_pinned = apps
            .iter()
            .enumerate()
            .all(|(ai, a)| self.net.flow_on(self.app_gate[ai]) == to_units(a.demand))
            && self
                .app_edge
                .iter()
                .zip(&self.phase1_app_flow)
                .all(|(&e, &f)| self.net.flow_on(e) == f);
        let jobs_pinned = apps_pinned
            && jobs.iter().enumerate().all(|(ji, j)| {
                job_nodes[ji].is_none() || self.net.flow_on(self.job_gate[ji]) == to_units(j.demand)
            });
        self.canonical = apps_pinned && jobs_pinned;
        if !self.canonical {
            return;
        }
        self.unit_job.clear();
        self.unit_job
            .extend(jobs.iter().map(|j| to_units(j.demand)));
        self.unit_app.clear();
        self.unit_app
            .extend(apps.iter().map(|a| to_units(a.demand)));
        self.unit_node.clear();
        self.unit_node.extend(nodes.iter().map(|n| to_units(n.cpu)));
        self.job_ids.clear();
        self.job_ids.extend(jobs.iter().map(|j| j.id));
        self.app_ids.clear();
        self.app_ids.extend(apps.iter().map(|a| a.id));
        self.node_ids.clear();
        self.node_ids.extend(nodes.iter().map(|n| n.id));
        self.node_app_in.clear();
        self.node_app_in.resize(nodes.len(), 0);
        let mut flat = 0usize;
        for hosts in app_hosts {
            for &ni in hosts {
                self.node_app_in[ni] += self.net.flow_on(self.app_edge[flat]);
                flat += 1;
            }
        }
        self.node_job_in.clear();
        self.node_job_in.resize(nodes.len(), 0);
        for (ji, &jn) in job_nodes.iter().enumerate() {
            if let Some(ni) = jn {
                self.node_job_in[ni] += self.unit_job[ji];
            }
        }
        self.last_placement = placement.clone();
    }

    /// Incremental re-flow: when only **job demands** moved since the
    /// canonical solve — same topology, same entities, same node
    /// capacities and app demands (all at flow-unit granularity) — and
    /// no node is contended under the new demands,
    /// withdraw the dirty jobs' flows, push their new demands down their
    /// forced direct paths, and patch the stored placement. The result is
    /// bit-identical to a full warm re-solve (see the module docs for the
    /// forcing argument). Returns `None` — leaving the network and the
    /// canonical state untouched — when any precondition fails or the
    /// dirty set exceeds [`DELTA_FALLBACK_FRACTION`]; the caller then
    /// runs [`Allocator::allocate_dense`] as usual.
    pub fn try_allocate_delta(
        &mut self,
        nodes: &[NodeCapacity],
        apps: &[AppRequest],
        app_hosts: &[Vec<usize>],
        jobs: &[JobRequest],
        job_nodes: &[Option<usize>],
    ) -> Option<Placement> {
        if !self.track_delta || !self.built || !self.canonical {
            return None;
        }
        let _span = self.recorder.span(self.k_delta);

        // Same entities, same shape, same placement, same frozen tiers.
        if nodes.len() != self.sig_nodes
            || apps.len() != self.sig_apps
            || jobs.len() != self.unit_job.len()
        {
            return None;
        }
        if self.sig_job_place.len() != jobs.len()
            || !self.node_ids.iter().zip(nodes).all(|(a, n)| *a == n.id)
            || !self.app_ids.iter().zip(apps).all(|(a, x)| *a == x.id)
        {
            return None;
        }
        // Fused per-job audit: identity, placement signature, and the
        // dirty scan in one pass — three O(J) walks folded into one on
        // the hot path. A mid-loop refusal leaves `dirty` partially
        // filled; it is cleared on entry so that never leaks forward.
        self.dirty.clear();
        for (ji, job) in jobs.iter().enumerate() {
            if self.job_ids[ji] != job.id {
                return None;
            }
            let place = match job_nodes[ji] {
                Some(ni) => ni as u32 + 1,
                None => 0,
            };
            if self.sig_job_place[ji] != place {
                return None;
            }
            if to_units(job.demand) != self.unit_job[ji] {
                self.dirty.push(ji);
            }
        }
        self.new_hosts.clear();
        for hosts in app_hosts {
            self.new_hosts.extend(hosts.iter().map(|&ni| ni as u32));
            self.new_hosts.push(HOST_SEP);
        }
        if self.sig_hosts != self.new_hosts {
            return None;
        }
        if !nodes
            .iter()
            .enumerate()
            .all(|(ni, n)| to_units(n.cpu) == self.unit_node[ni])
            || !apps
                .iter()
                .enumerate()
                .all(|(ai, a)| to_units(a.demand) == self.unit_app[ai])
        {
            return None;
        }

        if self.dirty.is_empty() {
            // Nothing moved: the canonical state *is* the answer.
            return Some(self.last_placement.clone());
        }
        // A single dirty job is always worth the surgery, however small
        // the problem; beyond that the fraction threshold governs.
        let dirty_cap = ((jobs.len() as f64 * DELTA_FALLBACK_FRACTION) as usize).max(1);
        if self.dirty.len() > dirty_cap {
            return None;
        }

        // Non-contention audit under the NEW demands, on touched nodes
        // only (untouched nodes were feasible in the canonical state and
        // nothing on them changed). Tentatively apply the inflow deltas;
        // roll them back if any node would overflow.
        self.touched_nodes.clear();
        for &ji in &self.dirty {
            if let Some(ni) = job_nodes[ji] {
                self.node_job_in[ni] += to_units(jobs[ji].demand) - self.unit_job[ji];
                self.touched_nodes.push(ni);
            }
        }
        let contended = self
            .touched_nodes
            .iter()
            .any(|&ni| self.node_app_in[ni] + self.node_job_in[ni] > self.unit_node[ni]);
        if contended {
            for &ji in &self.dirty {
                if let Some(ni) = job_nodes[ji] {
                    self.node_job_in[ni] -= to_units(jobs[ji].demand) - self.unit_job[ji];
                }
            }
            return None;
        }

        // Surgery, two passes so same-node dirty jobs never transiently
        // overflow a node edge: withdraw every dirty flow first, then
        // push every new one.
        for &ji in &self.dirty {
            let new = to_units(jobs[ji].demand);
            self.net.set_cap(self.job_gate[ji], new);
            if let Some(e) = self.job_edge[ji] {
                let ni = job_nodes[ji].expect("job edge implies placement");
                self.net.set_cap(e, new);
                self.net.cancel_flow(self.node_edge[ni], self.unit_job[ji]);
            }
        }
        for &ji in &self.dirty {
            let new = to_units(jobs[ji].demand);
            if let Some(e) = self.job_edge[ji] {
                let ni = job_nodes[ji].expect("job edge implies placement");
                self.net.push_flow(self.job_gate[ji], new);
                self.net.push_flow(e, new);
                self.net.push_flow(self.node_edge[ni], new);
            }
            self.unit_job[ji] = new;
        }

        // Patch the stored placement — it stays the canonical placement
        // for the next delta call.
        for &ji in &self.dirty {
            if let Some(ni) = job_nodes[ji] {
                self.last_placement
                    .jobs
                    .insert(jobs[ji].id, (nodes[ni].id, to_mhz(self.unit_job[ji])));
            }
        }
        Some(self.last_placement.clone())
    }
}

/// Compute allocations for the given instance/job placement (id-keyed
/// convenience for the reference oracle and the tests below; builds a
/// fresh [`Allocator`] per call).
///
/// * `app_instances[a]` — nodes hosting an instance of `a`;
/// * `job_nodes[j]` — node hosting running job `j`.
#[cfg(test)]
pub(crate) fn allocate(
    nodes: &[NodeCapacity],
    apps: &[AppRequest],
    app_instances: &std::collections::BTreeMap<AppId, Vec<NodeId>>,
    jobs: &[JobRequest],
    job_nodes: &std::collections::BTreeMap<JobId, NodeId>,
) -> Placement {
    let node_ix = slaq_types::Interner::new(nodes.iter().map(|n| n.id));
    let app_hosts: Vec<Vec<usize>> = apps
        .iter()
        .map(|a| {
            app_instances
                .get(&a.id)
                .map(|hosts| hosts.iter().filter_map(|h| node_ix.dense(*h)).collect())
                .unwrap_or_default()
        })
        .collect();
    let job_dense: Vec<Option<usize>> = jobs
        .iter()
        .map(|j| job_nodes.get(&j.id).and_then(|n| node_ix.dense(*n)))
        .collect();
    Allocator::new().allocate_dense(nodes, apps, &app_hosts, jobs, &job_dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::MemMb;
    use std::collections::BTreeMap;

    fn node(id: u32, cpu: f64) -> NodeCapacity {
        NodeCapacity {
            id: NodeId::new(id),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(4096),
        }
    }

    fn app(id: u32, demand: f64) -> AppRequest {
        AppRequest {
            id: AppId::new(id),
            demand: CpuMhz::new(demand),
            mem_per_instance: MemMb::new(1024),
            min_instances: 0,
            max_instances: 32,
            affinity: Vec::new(),
        }
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

    #[test]
    fn single_app_single_node_gets_its_demand() {
        let nodes = [node(0, 12_000.0)];
        let apps = [app(0, 5000.0)];
        let mut inst = BTreeMap::new();
        inst.insert(AppId::new(0), vec![NodeId::new(0)]);
        let p = allocate(&nodes, &apps, &inst, &[], &BTreeMap::new());
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::new(5000.0));
    }

    #[test]
    fn app_spreads_across_nodes() {
        let nodes = [node(0, 4000.0), node(1, 4000.0), node(2, 4000.0)];
        let apps = [app(0, 10_000.0)];
        let mut inst = BTreeMap::new();
        inst.insert(
            AppId::new(0),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
        );
        let p = allocate(&nodes, &apps, &inst, &[], &BTreeMap::new());
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::new(10_000.0));
        for n in 0..3 {
            assert!(p.node_cpu_used(NodeId::new(n)).as_f64() <= 4000.0 + 1e-6);
        }
    }

    #[test]
    fn jobs_win_contended_nodes_apps_recover_elsewhere() {
        // Node0: 3000 MHz, hosts a 3000-demand job AND an app instance.
        // Node1: 3000 MHz, app-only. App demand 3000.
        // The job must be satisfied on node0; the app shifts to node1.
        let nodes = [node(0, 3000.0), node(1, 3000.0)];
        let apps = [app(0, 3000.0)];
        let jobs = [jobr(0, 3000.0)];
        let mut inst = BTreeMap::new();
        inst.insert(AppId::new(0), vec![NodeId::new(0), NodeId::new(1)]);
        let mut jn = BTreeMap::new();
        jn.insert(JobId::new(0), NodeId::new(0));
        let p = allocate(&nodes, &apps, &inst, &jobs, &jn);
        assert_eq!(p.job_alloc(JobId::new(0)), CpuMhz::new(3000.0));
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::new(3000.0));
        assert_eq!(p.apps[&AppId::new(0)][&NodeId::new(1)], CpuMhz::new(3000.0));
    }

    #[test]
    fn shortfall_lands_on_the_job() {
        let nodes = [node(0, 4000.0)];
        let apps = [app(0, 3000.0)];
        let jobs = [jobr(0, 3000.0)];
        let mut inst = BTreeMap::new();
        inst.insert(AppId::new(0), vec![NodeId::new(0)]);
        let mut jn = BTreeMap::new();
        jn.insert(JobId::new(0), NodeId::new(0));
        let p = allocate(&nodes, &apps, &inst, &jobs, &jn);
        // App saturates first (phase bias: its utility cliffs at its
        // offered load); the job absorbs the shortfall and will catch up
        // on work-conserving spare in the simulator.
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::new(3000.0));
        assert_eq!(p.job_alloc(JobId::new(0)), CpuMhz::new(1000.0));
    }

    #[test]
    fn unplaced_jobs_get_nothing() {
        let nodes = [node(0, 4000.0)];
        let jobs = [jobr(0, 3000.0)];
        let p = allocate(&nodes, &[], &BTreeMap::new(), &jobs, &BTreeMap::new());
        assert_eq!(p.job_alloc(JobId::new(0)), CpuMhz::ZERO);
        assert!(p.job_node(JobId::new(0)).is_none());
    }

    #[test]
    fn warm_instances_survive_with_zero_flow() {
        let nodes = [node(0, 4000.0)];
        let apps = [app(0, 0.0)];
        let mut inst = BTreeMap::new();
        inst.insert(AppId::new(0), vec![NodeId::new(0)]);
        let p = allocate(&nodes, &apps, &inst, &[], &BTreeMap::new());
        assert_eq!(p.app_instances(AppId::new(0)), 1);
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::ZERO);
    }

    #[test]
    fn multiple_jobs_on_one_node_share_capacity() {
        let nodes = [node(0, 5000.0)];
        let jobs = [jobr(0, 3000.0), jobr(1, 3000.0)];
        let mut jn = BTreeMap::new();
        jn.insert(JobId::new(0), NodeId::new(0));
        jn.insert(JobId::new(1), NodeId::new(0));
        let p = allocate(&nodes, &[], &BTreeMap::new(), &jobs, &jn);
        let total = p.job_alloc(JobId::new(0)) + p.job_alloc(JobId::new(1));
        assert_eq!(total, CpuMhz::new(5000.0));
        assert!(p.job_alloc(JobId::new(0)).as_f64() <= 3000.0 + 1e-9);
        assert!(p.job_alloc(JobId::new(1)).as_f64() <= 3000.0 + 1e-9);
    }

    #[test]
    fn empty_problem_on_fresh_allocator_yields_empty_placement() {
        // Regression: an empty problem's topology signature matches a
        // fresh allocator's default (empty) signature; the warm path must
        // still be refused, since no network exists yet.
        let mut alloc = Allocator::new();
        let p = alloc.allocate_dense(&[], &[], &[], &[], &[]);
        assert!(p.apps.is_empty());
        assert!(p.jobs.is_empty());
        // And again, now genuinely warm.
        let p = alloc.allocate_dense(&[], &[], &[], &[], &[]);
        assert!(p.jobs.is_empty());
    }

    #[test]
    fn warm_reuse_matches_fresh_allocation() {
        // Same topology, changing demands: the warm path (capacity
        // rewrite) must produce exactly what a cold build produces.
        let nodes = [node(0, 6000.0), node(1, 4000.0), node(2, 9000.0)];
        let app_hosts = vec![vec![0usize, 2], vec![1usize, 2]];
        let job_nodes = vec![Some(0usize), Some(1), None, Some(2)];
        let mut warm = Allocator::new();
        for scale in [1.0f64, 0.4, 1.7, 0.0, 1.0] {
            let jobs = [
                jobr(0, 3000.0 * scale),
                jobr(1, 2000.0 * scale),
                jobr(2, 1000.0),
                jobr(3, 4000.0 * scale),
            ];
            let apps_scaled = [app(0, 5000.0 * scale), app(1, 2500.0)];
            let got = warm.allocate_dense(&nodes, &apps_scaled, &app_hosts, &jobs, &job_nodes);
            let fresh = Allocator::new().allocate_dense(
                &nodes,
                &apps_scaled,
                &app_hosts,
                &jobs,
                &job_nodes,
            );
            assert_eq!(got, fresh, "scale {scale}");
        }
    }

    #[test]
    fn delta_reflow_matches_full_rebuild() {
        // Jobs-only fleet, uncontended: every full solve is canonical, so
        // each demand drift must take the delta path and reproduce a
        // fresh allocator bit for bit — across chained delta calls.
        let nodes = [node(0, 6000.0), node(1, 6000.0), node(2, 6000.0)];
        let job_nodes = vec![Some(0usize), Some(1), None, Some(2), Some(0)];
        let mut tracked = Allocator::new();
        tracked.set_track_delta(true);
        let mut demands = [2000.0, 1500.0, 1000.0, 2500.0, 1800.0];
        // Prime with a full solve.
        let jobs: Vec<JobRequest> = (0..5).map(|i| jobr(i, demands[i as usize])).collect();
        tracked.allocate_dense(&nodes, &[], &[], &jobs, &job_nodes);
        assert!(tracked.canonical, "uncontended solve must be canonical");
        // One drifting job per round (index 2 is the unplaced one).
        for (round, drift) in [(1usize, 400.0), (2, -700.0), (3, 250.0)] {
            demands[round] += drift;
            let jobs: Vec<JobRequest> = (0..5).map(|i| jobr(i, demands[i as usize])).collect();
            let got = tracked
                .try_allocate_delta(&nodes, &[], &[], &jobs, &job_nodes)
                .expect("uncontended single-job drift must take the delta path");
            let fresh = Allocator::new().allocate_dense(&nodes, &[], &[], &jobs, &job_nodes);
            assert_eq!(got, fresh, "round {round}");
        }
    }

    #[test]
    fn delta_reflow_composes_with_later_full_solves() {
        // After delta surgery, a topology change must still rebuild and
        // solve correctly (set_cap discards all hand-routed flow).
        let nodes = [node(0, 5000.0), node(1, 5000.0)];
        let mut alloc = Allocator::new();
        alloc.set_track_delta(true);
        let jobs = [jobr(0, 2000.0), jobr(1, 1000.0)];
        alloc.allocate_dense(&nodes, &[], &[], &jobs, &[Some(0), Some(1)]);
        let jobs2 = [jobr(0, 2400.0), jobr(1, 1000.0)];
        alloc
            .try_allocate_delta(&nodes, &[], &[], &jobs2, &[Some(0), Some(1)])
            .expect("delta path");
        // Job 1 migrates: topology signature changes, full path runs.
        let moved = alloc.allocate_dense(&nodes, &[], &[], &jobs2, &[Some(0), Some(0)]);
        let fresh = Allocator::new().allocate_dense(&nodes, &[], &[], &jobs2, &[Some(0), Some(0)]);
        assert_eq!(moved, fresh);
    }

    #[test]
    fn delta_reflow_refuses_when_preconditions_fail() {
        let nodes = [node(0, 4000.0), node(1, 4000.0)];
        let apps = [app(0, 2000.0)];
        let hosts = vec![vec![1usize]];
        let jobs = [jobr(0, 2000.0), jobr(1, 1000.0)];
        let places = [Some(0usize), Some(0)];
        let mut alloc = Allocator::new();
        alloc.set_track_delta(true);
        alloc.allocate_dense(&nodes, &apps, &hosts, &jobs, &places);
        assert!(alloc.canonical);
        // Contention: both jobs grow past node 0's capacity together.
        let hot = [jobr(0, 3000.0), jobr(1, 2000.0)];
        assert!(
            alloc
                .try_allocate_delta(&nodes, &apps, &hosts, &hot, &places)
                .is_none(),
            "contended node must force the full path"
        );
        // App demand drift: the frozen tier moved.
        let apps2 = [app(0, 2500.0)];
        assert!(alloc
            .try_allocate_delta(&nodes, &apps2, &hosts, &jobs, &places)
            .is_none());
        // Entity identity swap at identical shape.
        let renamed = [jobr(7, 2000.0), jobr(1, 1000.0)];
        assert!(alloc
            .try_allocate_delta(&nodes, &apps, &hosts, &renamed, &places)
            .is_none());
        // Dirty fraction above threshold (2 of 2 jobs moved).
        let all_moved = [jobr(0, 1900.0), jobr(1, 900.0)];
        assert!(alloc
            .try_allocate_delta(&nodes, &apps, &hosts, &all_moved, &places)
            .is_none());
        // And after all those refusals, the canonical state is intact: a
        // clean single-job drift still takes the delta path.
        let one = [jobr(0, 1900.0), jobr(1, 1000.0)];
        let got = alloc
            .try_allocate_delta(&nodes, &apps, &hosts, &one, &places)
            .expect("canonical state survived the refusals");
        let fresh = Allocator::new().allocate_dense(&nodes, &apps, &hosts, &one, &places);
        assert_eq!(got, fresh);
    }

    #[test]
    fn phase2_reroute_disqualifies_canonicity() {
        // Node 0 hosts both the app slice and a job that outgrows the
        // shared capacity: phase 2 shifts app flow to node 1, so the end
        // state is not directly constructible and tracking must say so.
        let nodes = [node(0, 3000.0), node(1, 3000.0)];
        let apps = [app(0, 3000.0)];
        let hosts = vec![vec![0usize, 1]];
        let jobs = [jobr(0, 3000.0)];
        let mut alloc = Allocator::new();
        alloc.set_track_delta(true);
        alloc.allocate_dense(&nodes, &apps, &hosts, &jobs, &[Some(0)]);
        assert!(!alloc.canonical, "rerouted solve must not be canonical");
        assert!(alloc
            .try_allocate_delta(&nodes, &apps, &hosts, &jobs, &[Some(0)])
            .is_none());
    }

    #[test]
    fn topology_change_rebuilds_correctly() {
        let nodes = [node(0, 6000.0), node(1, 6000.0)];
        let apps = [app(0, 4000.0)];
        let jobs = [jobr(0, 3000.0)];
        let mut alloc = Allocator::new();
        // Cycle 1: app on node0 only, job on node0 — the app saturates
        // first (shortfall bias), the job absorbs the remainder.
        let p1 = alloc.allocate_dense(&nodes, &apps, &[vec![0]], &jobs, &[Some(0)]);
        assert_eq!(p1.app_alloc(AppId::new(0)), CpuMhz::new(4000.0));
        assert_eq!(p1.job_alloc(JobId::new(0)), CpuMhz::new(2000.0));
        // Cycle 2: app grows to node1; job migrates to node1.
        let p2 = alloc.allocate_dense(&nodes, &apps, &[vec![0, 1]], &jobs, &[Some(1)]);
        assert_eq!(p2.app_alloc(AppId::new(0)), CpuMhz::new(4000.0));
        assert_eq!(p2.job_alloc(JobId::new(0)), CpuMhz::new(3000.0));
        // Cycle 3: job unplaced (topology shrinks).
        let p3 = alloc.allocate_dense(&nodes, &apps, &[vec![0, 1]], &jobs, &[None]);
        assert_eq!(p3.app_alloc(AppId::new(0)), CpuMhz::new(4000.0));
        assert!(p3.job_node(JobId::new(0)).is_none());
    }
}
