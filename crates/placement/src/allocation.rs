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
//! The job gates are born shut: each source → job edge is added with
//! capacity 0 and opened once, between the phases.
//!
//! Only the nodes that host an application instance enter the network.
//! A node hosting none, with its jobs, shares only the source and the
//! sink with the rest, so it is a component of its own: phase 1 never
//! reaches it (its gates are shut), and phase 2's first Dinic round
//! saturates its `source → job → node → sink` paths in ascending edge
//! order, after which it has no augmenting path (a job vertex leads only
//! back to the source). Each of its jobs therefore gets
//! `min(demand, what the node has left)`, in job order — the greedy fill
//! the allocator computes without a network. Levels and pruning are per
//! vertex, and a round that finds no path in a component leaves it as it
//! was, so the application component receives the same blocking flows,
//! round by round, as it would in the full network. An unplaced job is
//! a gate with no way out and stays out as well.
//!
//! [`Allocator`] rebuilds the network on every call, into buffers it
//! keeps **across control cycles**: once they reach their high-water
//! mark a build allocates nothing.

use crate::idmap::IdMap;
use crate::placement::Placement;
use crate::problem::{AppRequest, JobRequest, NodeCapacity};
use slaq_flow::{EdgeId, FlowNetwork, MaxFlowScratch};
#[cfg(test)]
use slaq_types::{AppId, JobId};
use slaq_types::{CpuMhz, NodeId};

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

/// `node_vx` entry of a node that hosts no application instance.
const APP_FREE: u32 = u32::MAX;

/// Reusable allocation engine: owns the transportation network, its
/// scratch memory and the edge handles of the last build.
#[derive(Debug, Clone, Default)]
pub struct Allocator {
    net: FlowNetwork,
    scratch: MaxFlowScratch,
    /// Per node: its network vertex, or [`APP_FREE`].
    node_vx: Vec<u32>,
    /// Per node: its capacity in units, drawn down by the greedy fill of
    /// the app-free nodes.
    left: Vec<i64>,
    /// Per job: the units the greedy fill granted it (0 for a job in the
    /// network or unplaced).
    granted: Vec<i64>,
    // --- edge handles, valid for the network last built ---
    /// Source→job edge (the phase gate) and its open capacity, per job
    /// in the network.
    job_gate: Vec<(EdgeId, i64)>,
    /// Job→node edge per job on an app-hosting node.
    job_edge: Vec<Option<EdgeId>>,
    /// App→node edges, app by app, each app's hosts in listed order.
    app_edge: Vec<EdgeId>,
    /// Observability plane: one leaf span per stage of a solve (so
    /// `solve.step7.allocate` has no unexplained self-time). Off by
    /// default.
    recorder: slaq_obs::Recorder,
    k_setup: slaq_obs::Key,
    k_flow_apps: slaq_obs::Key,
    k_flow_jobs: slaq_obs::Key,
    k_readback: slaq_obs::Key,
}

impl Allocator {
    /// A fresh allocator with no cached network.
    pub fn new() -> Self {
        Allocator::default()
    }

    /// Install an observability [`Recorder`](slaq_obs::Recorder): spans
    /// around the stages of a solve — `alloc.setup` (the network build,
    /// adjacency index included),
    /// the two max-flow phases (`alloc.flow.apps` / `alloc.flow.jobs`)
    /// and `alloc.readback`.
    pub fn set_recorder(&mut self, recorder: slaq_obs::Recorder) {
        self.k_setup = recorder.key("alloc.setup");
        self.k_flow_apps = recorder.key("alloc.flow.apps");
        self.k_flow_jobs = recorder.key("alloc.flow.jobs");
        self.k_readback = recorder.key("alloc.readback");
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
        // Fill the app-free nodes' jobs in job order, then build the
        // network over the rest into the kept buffers.
        // Graph layout: 0 = source; 1..=A apps; then the app-hosting
        // nodes in node order; then their jobs in job order; last = sink.
        // ------------------------------------------------------------------
        let span_setup = self.recorder.span(self.k_setup);
        let source = 0usize;
        let app_vx = |i: usize| 1 + i;

        self.node_vx.clear();
        self.node_vx.resize(nodes.len(), APP_FREE);
        for &ni in app_hosts.iter().flatten() {
            self.node_vx[ni] = 0;
        }
        let mut next_vx = 1 + apps.len() as u32;
        for vx in &mut self.node_vx {
            if *vx != APP_FREE {
                *vx = next_vx;
                next_vx += 1;
            }
        }
        self.left.clear();
        self.left.extend(nodes.iter().map(|n| to_units(n.cpu)));
        let mut net_jobs = 0usize;
        self.granted.clear();
        self.granted
            .extend(jobs.iter().zip(job_nodes).map(|(job, &ni)| match ni {
                Some(ni) if self.node_vx[ni] == APP_FREE => {
                    let units = to_units(job.demand).min(self.left[ni]);
                    self.left[ni] -= units;
                    units
                }
                Some(_) => {
                    net_jobs += 1;
                    0
                }
                None => 0,
            }));
        let mut job_vx = next_vx as usize;
        let sink = job_vx + net_jobs;

        self.net.clear(sink + 1);
        self.job_gate.clear();
        self.job_edge.clear();
        self.app_edge.clear();
        self.job_gate.reserve(net_jobs);
        self.job_edge.reserve(jobs.len());
        self.app_edge
            .reserve(app_hosts.iter().map(Vec::len).sum::<usize>());
        for (job, &ni) in jobs.iter().zip(job_nodes) {
            let node = ni.map_or(APP_FREE, |ni| self.node_vx[ni]);
            self.job_edge.push((node != APP_FREE).then(|| {
                let cap = to_units(job.demand);
                // The gate is born shut; phase 2 opens it.
                self.job_gate
                    .push((self.net.add_edge(source, job_vx, 0), cap));
                let edge = self.net.add_edge(job_vx, node as usize, cap);
                job_vx += 1;
                edge
            }));
        }
        for (ai, app) in apps.iter().enumerate() {
            let cap = to_units(app.demand);
            self.net.add_edge(source, app_vx(ai), cap);
            for &ni in &app_hosts[ai] {
                self.app_edge.push(
                    self.net
                        .add_edge(app_vx(ai), self.node_vx[ni] as usize, cap),
                );
            }
        }
        // A hosting node's `left` is still its full capacity.
        for (&vx, &cap) in self.node_vx.iter().zip(&self.left) {
            if vx != APP_FREE {
                self.net.add_edge(vx as usize, sink, cap);
            }
        }
        self.net.build_index();
        drop(span_setup);

        // ------------------------------------------------------------------
        // Two-phase max-flow: apps first (gates shut), then jobs.
        // ------------------------------------------------------------------
        {
            let _span = self.recorder.span(self.k_flow_apps);
            self.net.max_flow_with(source, sink, &mut self.scratch);
        }
        {
            let _span = self.recorder.span(self.k_flow_jobs);
            for &(gate, cap) in &self.job_gate {
                self.net.set_cap(gate, cap);
            }
            self.net.max_flow_with(source, sink, &mut self.scratch);
        }

        // ------------------------------------------------------------------
        // Read back the allocation.
        // ------------------------------------------------------------------
        let span_readback = self.recorder.span(self.k_readback);
        // One `collect()` per map: `IdMap::from_iter` takes the input as
        // it is when the problem lists its ids in order, and sorts it
        // otherwise. Every host keeps its instance even at zero flow
        // (warm instance).
        let mut flows = self.app_edge.iter().map(|&e| self.net.flow_on(e));
        // Sized up front: a `filter_map` promises nothing, and `collect()`
        // takes a `Vec`'s buffer over as it is.
        let mut placed = Vec::with_capacity(jobs.len());
        placed.extend(
            jobs.iter()
                .zip(job_nodes)
                .zip(self.job_edge.iter().zip(&self.granted))
                .filter_map(|((job, &ni), (&e, &units))| {
                    let units = e.map_or(units, |e| self.net.flow_on(e));
                    Some((job.id, (nodes[ni?].id, to_mhz(units))))
                }),
        );
        let placement = Placement {
            apps: apps
                .iter()
                .zip(app_hosts)
                .map(|(app, hosts)| {
                    let slices: IdMap<NodeId, CpuMhz> = hosts
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
        placement
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
    fn an_app_free_node_fills_its_jobs_in_job_order() {
        let nodes = [node(0, 5000.0)];
        let jobs = [jobr(0, 3000.0), jobr(1, 3000.0), jobr(2, 1000.0)];
        let jn: BTreeMap<JobId, NodeId> = (0..3).map(|j| (JobId::new(j), NodeId::new(0))).collect();
        let p = allocate(&nodes, &[], &BTreeMap::new(), &jobs, &jn);
        let got: Vec<f64> = (0..3)
            .map(|j| p.job_alloc(JobId::new(j)).as_f64())
            .collect();
        assert_eq!(got, [3000.0, 2000.0, 0.0]);
    }

    #[test]
    fn empty_problem_on_fresh_allocator_yields_empty_placement() {
        let mut alloc = Allocator::new();
        let p = alloc.allocate_dense(&[], &[], &[], &[], &[]);
        assert!(p.apps.is_empty());
        assert!(p.jobs.is_empty());
        // And again, into the kept buffers.
        let p = alloc.allocate_dense(&[], &[], &[], &[], &[]);
        assert!(p.jobs.is_empty());
    }

    #[test]
    fn warm_reuse_matches_fresh_allocation() {
        // Same topology, changing demands: a build into the buffers a
        // previous call left behind must produce exactly what a fresh
        // allocator produces.
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
