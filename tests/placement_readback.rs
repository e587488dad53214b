//! The read-back and `diff` oracles.
//!
//! `Allocator::allocate_dense` builds each map of the `Placement` it
//! returns with one `collect()` instead of an insert per job and two per
//! instance; it flows the applications over the nodes that host them,
//! fills every placed job in job order from what its node has left, and
//! adds to the network only the jobs that fill leaves short on an
//! application-hosting node, at their remainder, for a second phase it
//! skips when none is short; `Placement::diff` looks the other side's
//! application up once per application instead of once per instance.
//! All are pure cost optimisations: the same maps, the same changes in
//! the same order.
//!
//! The bodies they replaced are kept here verbatim — `naive_allocate` is
//! the allocator's body (one network over every job and every node, the
//! two max-flow phases, the insertion-loop read-back) on the parent flow
//! kernel of `naive_flow/mod.rs` (adjacency lists, full BFS), so the sweep
//! holds the old kernel, the full network and the old read-back together
//! against the shipped `allocate_dense`; `app_free_fill_allocate` is the
//! body that filled only the app-free nodes and flowed every job on an
//! app-hosting node, on the shipped kernel; `naive_diff` is the
//! per-instance double lookup — and all are compared with the shipped
//! functions over seeded worlds: jobs and applications in shuffled id
//! order, hosts that end at zero flow, unplaced jobs, applications with
//! no host, over-subscribed app-free nodes beside app-hosting ones,
//! application slices that phase 2 moves, jobs short on app-hosting
//! nodes, jobs filled on app-hosting nodes, short jobs that a reroute
//! grants CPU, calls that skip phase 2, applications on one side of the
//! diff only. `fill_then_flow` spells the shipped allocator's steps on
//! the parent kernel, says what each call did and carries the mutations
//! of those steps. Each sweep prints a tally of what it saw, holds it to
//! floors, and ends on mutations the comparison must catch.

mod naive_flow;

use naive_flow::{NaiveEdgeId, NaiveFlowNetwork, NaiveScratch};
use proptest::TestRng;
use slaq::flow::{EdgeId, FlowNetwork, MaxFlowScratch};
use slaq::obs::Recorder;
use slaq::placement::allocation::MHZ_UNIT;
use slaq::placement::{
    Allocator, AppRequest, IdMap, JobRequest, NodeCapacity, Placement, PlacementChange,
};
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId};
use std::collections::BTreeMap;

fn to_units(c: CpuMhz) -> i64 {
    (c.as_f64() / MHZ_UNIT).floor().max(0.0) as i64
}

fn to_mhz(u: i64) -> CpuMhz {
    CpuMhz::new(u as f64 * MHZ_UNIT)
}

/// `Allocator::allocate_dense` on a fresh allocator as it stood before
/// the bulk-built read-back, the gates born shut and the greedy fill of
/// the app-free nodes, on the parent flow kernel: one network over every
/// job and every node. Also says whether phase 2 moved an application
/// slice (the application edges' flows read off after each phase).
fn naive_allocate(
    nodes: &[NodeCapacity],
    apps: &[AppRequest],
    app_hosts: &[Vec<usize>],
    jobs: &[JobRequest],
    job_nodes: &[Option<usize>],
) -> (Placement, bool) {
    let n_apps = apps.len();
    let n_jobs = jobs.len();
    let source = 0usize;
    let app_vx = |i: usize| 1 + i;
    let job_vx = |i: usize| 1 + n_apps + i;
    let node_vx = |i: usize| 1 + n_apps + n_jobs + i;
    let sink = 1 + n_apps + n_jobs + nodes.len();

    let mut net = NaiveFlowNetwork::new(sink + 1);
    let mut scratch = NaiveScratch::default();
    let mut job_gate: Vec<NaiveEdgeId> = Vec::new();
    let mut job_edge: Vec<Option<NaiveEdgeId>> = Vec::new();
    let mut app_edge: Vec<NaiveEdgeId> = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        let cap = to_units(job.demand);
        job_gate.push(net.add_edge(source, job_vx(ji), cap));
        job_edge.push(job_nodes[ji].map(|ni| net.add_edge(job_vx(ji), node_vx(ni), cap)));
    }
    for (ai, app) in apps.iter().enumerate() {
        let cap = to_units(app.demand);
        net.add_edge(source, app_vx(ai), cap);
        for &ni in &app_hosts[ai] {
            app_edge.push(net.add_edge(app_vx(ai), node_vx(ni), cap));
        }
    }
    for (ni, node) in nodes.iter().enumerate() {
        net.add_edge(node_vx(ni), sink, to_units(node.cpu));
    }

    for gate in &job_gate {
        net.set_cap(*gate, 0);
    }
    net.max_flow_with(source, sink, &mut scratch);
    let phase1: Vec<i64> = app_edge.iter().map(|&e| net.flow_on(e)).collect();
    for (ji, job) in jobs.iter().enumerate() {
        net.set_cap(job_gate[ji], to_units(job.demand));
    }
    net.max_flow_with(source, sink, &mut scratch);
    let moved = app_edge
        .iter()
        .zip(&phase1)
        .any(|(&e, &f)| net.flow_on(e) != f);

    let mut placement = Placement::empty();
    let mut flat = 0usize;
    for (ai, app) in apps.iter().enumerate() {
        let slices = placement.apps.entry(app.id).or_default();
        // Every host keeps its instance even at zero flow (warm
        // instance).
        for &ni in &app_hosts[ai] {
            slices.insert(nodes[ni].id, CpuMhz::ZERO);
        }
        for &ni in &app_hosts[ai] {
            let f = net.flow_on(app_edge[flat]);
            flat += 1;
            if f > 0 {
                slices.insert(nodes[ni].id, to_mhz(f));
            }
        }
    }
    for (ji, job) in jobs.iter().enumerate() {
        if let (Some(ni), Some(e)) = (job_nodes[ji], job_edge[ji]) {
            placement
                .jobs
                .insert(job.id, (nodes[ni].id, to_mhz(net.flow_on(e))));
        }
    }
    (placement, moved)
}

/// `Allocator::allocate_dense` as it stood before the greedy fill reached
/// the app-hosting nodes, kept verbatim on the shipped kernel (the
/// allocator's kept buffers are locals here and its spans are gone): the
/// app-free nodes' jobs filled in job order, one network over the
/// app-hosting nodes and every job on them, the gates born shut and
/// opened between the two phases.
fn app_free_fill_allocate(
    nodes: &[NodeCapacity],
    apps: &[AppRequest],
    app_hosts: &[Vec<usize>],
    jobs: &[JobRequest],
    job_nodes: &[Option<usize>],
) -> Placement {
    const APP_FREE: u32 = u32::MAX;
    let mut net = FlowNetwork::default();
    let mut scratch = MaxFlowScratch::default();
    let mut node_vx: Vec<u32> = Vec::new();
    let mut left: Vec<i64> = Vec::new();
    let mut granted: Vec<i64> = Vec::new();
    let mut job_gate: Vec<(EdgeId, i64)> = Vec::new();
    let mut job_edge: Vec<Option<EdgeId>> = Vec::new();
    let mut app_edge: Vec<EdgeId> = Vec::new();

    assert_eq!(apps.len(), app_hosts.len(), "one host list per app");
    assert_eq!(jobs.len(), job_nodes.len(), "one node slot per job");

    // ------------------------------------------------------------------
    // Fill the app-free nodes' jobs in job order, then build the
    // network over the rest into the kept buffers.
    // Graph layout: 0 = source; 1..=A apps; then the app-hosting
    // nodes in node order; then their jobs in job order; last = sink.
    // ------------------------------------------------------------------
    let source = 0usize;
    let app_vx = |i: usize| 1 + i;

    node_vx.clear();
    node_vx.resize(nodes.len(), APP_FREE);
    for &ni in app_hosts.iter().flatten() {
        node_vx[ni] = 0;
    }
    let mut next_vx = 1 + apps.len() as u32;
    for vx in &mut node_vx {
        if *vx != APP_FREE {
            *vx = next_vx;
            next_vx += 1;
        }
    }
    left.clear();
    left.extend(nodes.iter().map(|n| to_units(n.cpu)));
    let mut net_jobs = 0usize;
    granted.clear();
    granted.extend(jobs.iter().zip(job_nodes).map(|(job, &ni)| match ni {
        Some(ni) if node_vx[ni] == APP_FREE => {
            let units = to_units(job.demand).min(left[ni]);
            left[ni] -= units;
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

    net.clear(sink + 1);
    job_gate.clear();
    job_edge.clear();
    app_edge.clear();
    job_gate.reserve(net_jobs);
    job_edge.reserve(jobs.len());
    app_edge.reserve(app_hosts.iter().map(Vec::len).sum::<usize>());
    for (job, &ni) in jobs.iter().zip(job_nodes) {
        let node = ni.map_or(APP_FREE, |ni| node_vx[ni]);
        job_edge.push((node != APP_FREE).then(|| {
            let cap = to_units(job.demand);
            // The gate is born shut; phase 2 opens it.
            job_gate.push((net.add_edge(source, job_vx, 0), cap));
            let edge = net.add_edge(job_vx, node as usize, cap);
            job_vx += 1;
            edge
        }));
    }
    for (ai, app) in apps.iter().enumerate() {
        let cap = to_units(app.demand);
        net.add_edge(source, app_vx(ai), cap);
        for &ni in &app_hosts[ai] {
            app_edge.push(net.add_edge(app_vx(ai), node_vx[ni] as usize, cap));
        }
    }
    // A hosting node's `left` is still its full capacity.
    for (&vx, &cap) in node_vx.iter().zip(&left) {
        if vx != APP_FREE {
            net.add_edge(vx as usize, sink, cap);
        }
    }
    net.build_index();

    // ------------------------------------------------------------------
    // Two-phase max-flow: apps first (gates shut), then jobs.
    // ------------------------------------------------------------------
    net.max_flow_with(source, sink, &mut scratch);
    for &(gate, cap) in &job_gate {
        net.set_cap(gate, cap);
    }
    net.max_flow_with(source, sink, &mut scratch);

    // ------------------------------------------------------------------
    // Read back the allocation.
    // ------------------------------------------------------------------
    // One `collect()` per map: `IdMap::from_iter` takes the input as
    // it is when the problem lists its ids in order, and sorts it
    // otherwise. Every host keeps its instance even at zero flow
    // (warm instance).
    let mut flows = app_edge.iter().map(|&e| net.flow_on(e));
    // Sized up front: a `filter_map` promises nothing, and `collect()`
    // takes a `Vec`'s buffer over as it is.
    let mut placed = Vec::with_capacity(jobs.len());
    placed.extend(
        jobs.iter()
            .zip(job_nodes)
            .zip(job_edge.iter().zip(&granted))
            .filter_map(|((job, &ni), (&e, &units))| {
                let units = e.map_or(units, |e| net.flow_on(e));
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
    placement
}

/// `Placement::diff` as it stood before the per-application lookup; the
/// job half in the lookup formulation the shipped lockstep merge is
/// documented to equal.
fn naive_diff(next: &Placement, prev: &Placement) -> Vec<PlacementChange> {
    let mut changes = Vec::new();
    for (&app, slices) in &next.apps {
        for &node in slices.keys() {
            let existed = prev.apps.get(&app).is_some_and(|m| m.contains_key(&node));
            if !existed {
                changes.push(PlacementChange::StartInstance { app, node });
            }
        }
    }
    for (&app, slices) in &prev.apps {
        for &node in slices.keys() {
            let kept = next.apps.get(&app).is_some_and(|m| m.contains_key(&node));
            if !kept {
                changes.push(PlacementChange::StopInstance { app, node });
            }
        }
    }
    for (&job, &(node, _)) in &next.jobs {
        match prev.jobs.get(&job) {
            None => changes.push(PlacementChange::StartJob { job, node }),
            Some(&(from, _)) if from != node => {
                changes.push(PlacementChange::MigrateJob {
                    job,
                    from,
                    to: node,
                });
            }
            Some(_) => {}
        }
    }
    for (&job, &(node, _)) in &prev.jobs {
        if !next.jobs.contains_key(&job) {
            changes.push(PlacementChange::SuspendJob { job, node });
        }
    }
    changes
}

/// `count` distinct ids below `span`, in random order.
fn shuffled_ids(rng: &mut TestRng, count: usize, span: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..span).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids.truncate(count);
    ids
}

/// A demand: now and then zero, else up to `max` MHz.
fn demand(rng: &mut TestRng, max: f64) -> CpuMhz {
    CpuMhz::new(if rng.below(6) == 0 {
        0.0
    } else {
        rng.unit_f64() * max
    })
}

struct World {
    nodes: Vec<NodeCapacity>,
    apps: Vec<AppRequest>,
    app_hosts: Vec<Vec<usize>>,
    jobs: Vec<JobRequest>,
    job_nodes: Vec<Option<usize>>,
}

impl World {
    /// A dense problem with every id list in random order. Capacities
    /// lean towards 3 000 MHz and a world holds up to 20 jobs, so an
    /// app-free node is often over-subscribed by jobs it must share.
    fn draw(rng: &mut TestRng) -> World {
        let n_nodes = 1 + rng.below(8) as usize;
        let nodes: Vec<NodeCapacity> = shuffled_ids(rng, n_nodes, 24)
            .into_iter()
            .map(|id| NodeCapacity {
                id: NodeId::new(id),
                cpu: CpuMhz::new([0.0, 3000.0, 3000.0, 6000.0, 12_000.0][rng.below(5) as usize]),
                mem: MemMb::new(4096),
            })
            .collect();
        let n_apps = rng.below(5) as usize;
        let apps: Vec<AppRequest> = shuffled_ids(rng, n_apps, 8)
            .into_iter()
            .map(|id| AppRequest {
                id: AppId::new(id),
                demand: demand(rng, 9000.0),
                mem_per_instance: MemMb::new(512),
                min_instances: 0,
                max_instances: 8,
                affinity: Vec::new(),
            })
            .collect();
        let app_hosts: Vec<Vec<usize>> = apps
            .iter()
            .map(|_| {
                let hosts = rng.below(n_nodes as u64 + 1) as usize;
                let picked = shuffled_ids(rng, hosts, n_nodes as u32);
                picked.into_iter().map(|ni| ni as usize).collect()
            })
            .collect();
        let n_jobs = rng.below(21) as usize;
        let jobs: Vec<JobRequest> = shuffled_ids(rng, n_jobs, 40)
            .into_iter()
            .map(|id| JobRequest {
                id: JobId::new(id),
                demand: demand(rng, 3000.0),
                mem: MemMb::new(1280),
                running_on: None,
                affinity: None,
                priority: 0.0,
                importance: 1.0,
            })
            .collect();
        let job_nodes: Vec<Option<usize>> = jobs
            .iter()
            .map(|_| (rng.below(4) != 0).then(|| rng.below(n_nodes as u64) as usize))
            .collect();
        World {
            nodes,
            apps,
            app_hosts,
            jobs,
            job_nodes,
        }
    }

    /// Per node: whether some application lists it as a host.
    fn hosting(&self) -> Vec<bool> {
        let mut hosting = vec![false; self.nodes.len()];
        for &ni in self.app_hosts.iter().flatten() {
            hosting[ni] = true;
        }
        hosting
    }

    /// Indices of the jobs placed on node `ni`, in job order.
    fn jobs_on(&self, ni: usize) -> impl DoubleEndedIterator<Item = usize> + '_ {
        (0..self.jobs.len()).filter(move |&ji| self.job_nodes[ji] == Some(ni))
    }

    /// New demands on the same topology: the quiet cycle's call.
    fn redraw_demands(&mut self, rng: &mut TestRng) {
        for app in &mut self.apps {
            app.demand = demand(rng, 9000.0);
        }
        for job in &mut self.jobs {
            job.demand = demand(rng, 3000.0);
        }
    }

    fn shipped(&self, alloc: &mut Allocator) -> Placement {
        alloc.allocate_dense(
            &self.nodes,
            &self.apps,
            &self.app_hosts,
            &self.jobs,
            &self.job_nodes,
        )
    }

    fn app_free_fill(&self) -> Placement {
        app_free_fill_allocate(
            &self.nodes,
            &self.apps,
            &self.app_hosts,
            &self.jobs,
            &self.job_nodes,
        )
    }

    fn naive(&self) -> (Placement, bool) {
        naive_allocate(
            &self.nodes,
            &self.apps,
            &self.app_hosts,
            &self.jobs,
            &self.job_nodes,
        )
    }
}

/// A change to one of the shipped allocator's steps that the sweep must
/// catch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutant {
    /// The app-hosting nodes' jobs filled in descending job order.
    HostingFillBackwards,
    /// Phase 2 on sink edges that still offer what the fill took.
    SinksNotLowered,
    /// A short job entered at its full demand, not its remainder.
    ShortAtFullDemand,
}

const MUTANTS: [Mutant; 3] = [
    Mutant::HostingFillBackwards,
    Mutant::SinksNotLowered,
    Mutant::ShortAtFullDemand,
];

/// What one call of `fill_then_flow` did, and where each mutant can bite.
#[derive(Debug, Default)]
struct Stages {
    /// Jobs on an app-hosting node that the fill granted CPU.
    filled_on_hosting: usize,
    /// Jobs the fill left short that entered the flow.
    short: usize,
    /// Of those, the ones phase 2 granted CPU by a reroute.
    rerouted: usize,
    /// An app-hosting node whose jobs, two or more, ask more than phase 1
    /// left it.
    hosting_over_subscribed: bool,
    /// A short job the fill granted part of its demand.
    partly_filled_short: bool,
}

/// The shipped allocator's steps, spelled out on the parent kernel with
/// every node a vertex (an app-free one stays isolated): phase 1 over the
/// applications, the app-hosting nodes and the sink; the fill of every
/// placed job in job order from what its node has left; the jobs it
/// leaves short on an app-hosting node entered at their remainder; the
/// sink edges lowered by the fills; phase 2 unless no job is short.
fn fill_then_flow(world: &World, mutant: Option<Mutant>) -> (Placement, Stages) {
    let (nodes, apps, jobs) = (&world.nodes, &world.apps, &world.jobs);
    let hosting = world.hosting();
    let source = 0usize;
    let app_vx = |i: usize| 1 + i;
    let node_vx = |i: usize| 1 + apps.len() + i;
    let sink = 1 + apps.len() + nodes.len();
    let mut net = NaiveFlowNetwork::new(sink + 1 + jobs.len());
    let mut scratch = NaiveScratch::default();
    let mut app_edge: Vec<NaiveEdgeId> = Vec::new();
    for (ai, app) in apps.iter().enumerate() {
        let cap = to_units(app.demand);
        net.add_edge(source, app_vx(ai), cap);
        for &ni in &world.app_hosts[ai] {
            app_edge.push(net.add_edge(app_vx(ai), node_vx(ni), cap));
        }
    }
    let sink_edge: Vec<Option<NaiveEdgeId>> = (0..nodes.len())
        .map(|ni| hosting[ni].then(|| net.add_edge(node_vx(ni), sink, to_units(nodes[ni].cpu))))
        .collect();
    net.max_flow_with(source, sink, &mut scratch);

    let mut stages = Stages::default();
    let mut left: Vec<i64> = nodes
        .iter()
        .zip(&sink_edge)
        .map(|(node, e)| to_units(node.cpu) - e.map_or(0, |e| net.flow_on(e)))
        .collect();
    stages.hosting_over_subscribed = (0..nodes.len()).any(|ni| {
        let demands: Vec<i64> = world
            .jobs_on(ni)
            .map(|ji| to_units(jobs[ji].demand))
            .collect();
        let asking = demands.iter().filter(|&&units| units > 0).count();
        hosting[ni] && left[ni] > 0 && asking >= 2 && demands.iter().sum::<i64>() > left[ni]
    });
    // Fills on different nodes do not meet, so the mutant may take the
    // hosting nodes' jobs in a pass of their own.
    let order: Vec<usize> = if mutant == Some(Mutant::HostingFillBackwards) {
        let on_hosting = |&ji: &usize| world.job_nodes[ji].is_some_and(|ni| hosting[ni]);
        let rest = (0..jobs.len()).filter(|ji| !on_hosting(ji));
        rest.chain((0..jobs.len()).rev().filter(on_hosting))
            .collect()
    } else {
        (0..jobs.len()).collect()
    };
    let mut granted = vec![0i64; jobs.len()];
    for ji in order {
        if let Some(ni) = world.job_nodes[ji] {
            granted[ji] = to_units(jobs[ji].demand).min(left[ni]);
            left[ni] -= granted[ji];
            stages.filled_on_hosting += usize::from(hosting[ni] && granted[ji] > 0);
        }
    }
    let mut short_edge: Vec<(usize, NaiveEdgeId)> = Vec::new();
    for (ji, job) in jobs.iter().enumerate() {
        let Some(ni) = world.job_nodes[ji].filter(|&ni| hosting[ni]) else {
            continue;
        };
        let demand = to_units(job.demand);
        if granted[ji] < demand {
            stages.partly_filled_short |= granted[ji] > 0;
            let cap = if mutant == Some(Mutant::ShortAtFullDemand) {
                demand
            } else {
                demand - granted[ji]
            };
            let vx = sink + 1 + short_edge.len();
            net.add_edge(source, vx, cap);
            short_edge.push((ji, net.add_edge(vx, node_vx(ni), cap)));
        }
    }
    stages.short = short_edge.len();
    if !short_edge.is_empty() {
        if mutant != Some(Mutant::SinksNotLowered) {
            for (ni, e) in sink_edge.iter().enumerate() {
                if let Some(e) = *e {
                    net.set_cap(e, left[ni]);
                }
            }
        }
        net.max_flow_with(source, sink, &mut scratch);
        for &(ji, e) in &short_edge {
            let units = net.flow_on(e);
            stages.rerouted += usize::from(units > 0);
            granted[ji] += units;
        }
    }

    let mut flows = app_edge.iter().map(|&e| net.flow_on(e));
    let placement = Placement {
        apps: apps
            .iter()
            .zip(&world.app_hosts)
            .map(|(app, hosts)| {
                let slices = hosts
                    .iter()
                    .zip(&mut flows)
                    .map(|(&ni, f)| (nodes[ni].id, to_mhz(f)))
                    .collect();
                (app.id, slices)
            })
            .collect(),
        jobs: jobs
            .iter()
            .zip(&world.job_nodes)
            .zip(&granted)
            .filter_map(|((job, &ni), &units)| Some((job.id, (nodes[ni?].id, to_mhz(units)))))
            .collect(),
    };
    (placement, stages)
}

/// What an allocator that fills the app-free nodes' jobs in descending
/// job order would return.
fn with_app_free_nodes_filled_backwards(world: &World, mut placement: Placement) -> Placement {
    for (ni, hosting) in world.hosting().into_iter().enumerate() {
        if hosting {
            continue;
        }
        let mut left = to_units(world.nodes[ni].cpu);
        for ji in world.jobs_on(ni).rev() {
            let units = to_units(world.jobs[ji].demand).min(left);
            left -= units;
            placement.jobs.get_mut(&world.jobs[ji].id).unwrap().1 = to_mhz(units);
        }
    }
    placement
}

/// What a read-back that keeps only hosts with a flow would return.
fn without_zero_flow_hosts(mut placement: Placement) -> Placement {
    for slices in placement.apps.values_mut() {
        slices.retain(|_, cpu| !cpu.is_zero());
    }
    placement
}

#[test]
fn the_bulk_built_read_back_equals_the_insertion_loop() {
    const WORLDS: u64 = 2400;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut caught, mut caught_backwards) = (0usize, 0usize);
    // Per mutant: the calls where it can bite, and those where it was
    // caught.
    let mut bites = [(0usize, 0usize); MUTANTS.len()];
    // One allocator for the whole sweep, as the solver keeps one: a first
    // call per world, then a second on the same topology — both rebuild
    // into the buffers the previous call left behind. Its recorder's
    // `alloc.short_jobs` must count what `fill_then_flow` enters.
    let recorder = Recorder::enabled();
    let mut alloc = Allocator::new();
    alloc.set_recorder(recorder.clone());
    let mut short_jobs = 0u64;
    for seed in 0..WORLDS {
        let rng = &mut TestRng::new(seed);
        let mut world = World::draw(rng);
        let (mut warm, mut naive) = (Placement::empty(), Placement::empty());
        let mut moved_app_slice = false;
        for call in ["cold", "warm"] {
            if call == "warm" {
                world.redraw_demands(rng);
            }
            let shipped = world.shipped(&mut alloc);
            (naive, moved_app_slice) = world.naive();
            assert_eq!(shipped, naive, "seed {seed}, {call}");
            assert_eq!(
                shipped,
                world.app_free_fill(),
                "seed {seed}, {call}: app-free fill"
            );
            let (steps, stages) = fill_then_flow(&world, None);
            assert_eq!(steps, shipped, "seed {seed}, {call}: the steps spelled out");
            let counted = recorder.counter_value("alloc.short_jobs");
            assert_eq!(
                counted - short_jobs,
                stages.short as u64,
                "seed {seed}, {call}"
            );
            short_jobs = counted;

            let mut saw = |what: &'static str, seen: bool| {
                *tally.entry(what).or_default() += usize::from(seen);
            };
            saw(
                "call: job filled on an app-hosting node",
                stages.filled_on_hosting > 0,
            );
            saw("call: short job enters the flow", stages.short > 0);
            saw(
                "call: short job granted CPU by a reroute",
                stages.rerouted > 0,
            );
            saw("call: phase 2 skipped", stages.short == 0);
            for (mutant, (can_bite, caught)) in MUTANTS.into_iter().zip(&mut bites) {
                let bites = match mutant {
                    Mutant::HostingFillBackwards => stages.hosting_over_subscribed,
                    Mutant::SinksNotLowered => stages.short > 0 && stages.filled_on_hosting > 0,
                    Mutant::ShortAtFullDemand => stages.partly_filled_short && stages.rerouted > 0,
                };
                if bites {
                    *can_bite += 1;
                    *caught += usize::from(fill_then_flow(&world, Some(mutant)).0 != naive);
                }
            }
            warm = shipped;
        }

        let mut saw = |what: &'static str, seen: bool| {
            *tally.entry(what).or_default() += usize::from(seen);
        };
        let zero_flow_host = naive.apps.values().flatten().any(|(_, cpu)| cpu.is_zero());
        saw("zero-flow host", zero_flow_host);
        saw(
            "empty application",
            naive.apps.values().any(|m| m.is_empty()),
        );
        saw("unplaced job", world.job_nodes.contains(&None));
        saw(
            "jobs out of id order",
            world.jobs.windows(2).any(|w| w[0].id > w[1].id),
        );
        saw(
            "applications out of id order",
            world.apps.windows(2).any(|w| w[0].id > w[1].id),
        );
        saw(
            "hosts out of id order",
            world.app_hosts.iter().any(|hosts| {
                hosts
                    .windows(2)
                    .any(|w| world.nodes[w[0]].id > world.nodes[w[1]].id)
            }),
        );
        saw(
            "positive slice",
            naive.apps.values().flatten().any(|(_, cpu)| !cpu.is_zero()),
        );
        let hosting = world.hosting();
        let over_subscribed_app_free_node = (0..world.nodes.len()).any(|ni| {
            let demand: i64 = world
                .jobs_on(ni)
                .map(|ji| to_units(world.jobs[ji].demand))
                .sum();
            !hosting[ni] && world.jobs_on(ni).count() >= 2 && demand > to_units(world.nodes[ni].cpu)
        });
        saw(
            "app-free node over-subscribed by >= 2 jobs",
            over_subscribed_app_free_node,
        );
        saw(
            "app-free and app-hosting nodes",
            hosting.contains(&true) && hosting.contains(&false),
        );
        saw("phase 2 moved an application slice", moved_app_slice);
        saw(
            "job short on an app-hosting node",
            world.jobs.iter().zip(&world.job_nodes).any(|(job, &ni)| {
                ni.is_some_and(|ni| {
                    hosting[ni] && to_units(naive.jobs[&job.id].1) < to_units(job.demand)
                })
            }),
        );
        if over_subscribed_app_free_node
            && with_app_free_nodes_filled_backwards(&world, warm.clone()) != naive
        {
            caught_backwards += 1;
        }
        if zero_flow_host && without_zero_flow_hosts(warm) != naive {
            caught += 1;
        }
    }
    println!("bulk read-back ≡ insertion loop over {WORLDS} worlds, two calls each: {tally:?}");
    for (what, seen) in &tally {
        assert!(*seen >= 400, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 15, "{tally:?}");
    // The mutation checks: a read-back that drops the hosts left at zero
    // flow; an allocator that fills the app-free nodes in descending job
    // order.
    let with_one = tally["zero-flow host"];
    println!("zero-flow hosts dropped: caught in {caught} of {with_one} worlds that have one");
    assert!(caught * 2 >= with_one, "{caught} of {with_one}");
    let with_one = tally["app-free node over-subscribed by >= 2 jobs"];
    println!(
        "app-free nodes filled backwards: caught in {caught_backwards} of {with_one} worlds \
         that have one over-subscribed"
    );
    assert!(
        caught_backwards * 2 >= with_one,
        "{caught_backwards} of {with_one}"
    );
    // And the mutations of the shipped steps, per call where each can
    // bite: the app-hosting nodes filled in descending job order (a node
    // phase 1 left short of its jobs' demand); sink edges not lowered by
    // the fills (a filled hosting node and a phase 2); a short job entered
    // at its full demand (one the fill granted part of it, in a phase 2
    // that grants some short job CPU).
    for (mutant, (can_bite, caught)) in MUTANTS.into_iter().zip(bites) {
        println!("{mutant:?}: caught in {caught} of {can_bite} calls where it can bite");
    }
    for (mutant, (can_bite, caught)) in MUTANTS.into_iter().zip(bites) {
        assert!(
            can_bite >= 400 && caught * 2 >= can_bite,
            "{mutant:?}: {caught} of {can_bite}"
        );
    }
}

/// A placement over a few ids: each application present with probability
/// one half, so a pair often has one on one side only.
fn draw_placement(rng: &mut TestRng) -> Placement {
    let mut p = Placement::empty();
    for app in 0..4 {
        if rng.below(2) == 0 {
            let slices = p.apps.entry(AppId::new(app)).or_default();
            let instances = rng.below(5) as usize;
            for node in shuffled_ids(rng, instances, 6) {
                slices.insert(NodeId::new(node), CpuMhz::new(100.0));
            }
        }
    }
    let placed = rng.below(10) as usize;
    for job in shuffled_ids(rng, placed, 12) {
        let node = NodeId::new(rng.below(6) as u32);
        p.jobs.insert(JobId::new(job), (node, CpuMhz::new(100.0)));
    }
    p
}

#[test]
fn the_diff_equals_the_per_instance_lookup_order_included() {
    const PAIRS: u64 = 3000;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut one_sided, mut caught) = (0usize, 0usize);
    for seed in 0..PAIRS {
        let rng = &mut TestRng::new(seed);
        let prev = draw_placement(rng);
        // Now and then the successor is the same plan, else a fresh draw.
        let next = if rng.below(8) == 0 {
            prev.clone()
        } else {
            draw_placement(rng)
        };
        let shipped = next.diff(&prev);
        let naive = naive_diff(&next, &prev);
        assert_eq!(shipped, naive, "seed {seed}");

        for change in &naive {
            *tally
                .entry(match change {
                    PlacementChange::StartInstance { .. } => "start instance",
                    PlacementChange::StopInstance { .. } => "stop instance",
                    PlacementChange::StartJob { .. } => "start job",
                    PlacementChange::SuspendJob { .. } => "suspend job",
                    PlacementChange::MigrateJob { .. } => "migrate job",
                })
                .or_default() += 1;
        }
        *tally.entry("no change").or_default() += usize::from(naive.is_empty());
        let new_app = |a: &AppId| !next.apps[a].is_empty() && !prev.apps.contains_key(a);
        let gone_app = |a: &AppId| !prev.apps[a].is_empty() && !next.apps.contains_key(a);
        let only_next = next.apps.keys().any(new_app);
        let only_prev = prev.apps.keys().any(gone_app);
        *tally.entry("application only in next").or_default() += usize::from(only_next);
        *tally.entry("application only in prev").or_default() += usize::from(only_prev);

        // The mutation check: a diff that skips an application the other
        // side does not know instead of starting / stopping all of it.
        if only_next || only_prev {
            one_sided += 1;
            let mutated: Vec<PlacementChange> = shipped
                .into_iter()
                .filter(|change| match change {
                    PlacementChange::StartInstance { app, .. } => prev.apps.contains_key(app),
                    PlacementChange::StopInstance { app, .. } => next.apps.contains_key(app),
                    _ => true,
                })
                .collect();
            caught += usize::from(mutated != naive);
        }
    }
    println!("diff ≡ per-instance lookup over {PAIRS} pairs: {tally:?}");
    for (what, seen) in &tally {
        assert!(*seen >= 300, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 8, "{tally:?}");
    println!(
        "one-sided applications skipped: caught in {caught} of {one_sided} pairs that have one"
    );
    assert!(
        one_sided >= 300 && caught == one_sided,
        "{caught} of {one_sided}"
    );
}
