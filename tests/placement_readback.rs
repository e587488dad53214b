//! The read-back and `diff` oracles.
//!
//! `Allocator::allocate_dense` builds each map of the `Placement` it
//! returns with one `collect()` instead of an insert per job and two per
//! instance, and flows only the nodes that host an application instance,
//! filling every other node's jobs in job order without a network;
//! `Placement::diff` looks the other side's application up once per
//! application instead of once per instance. All are pure cost
//! optimisations: the same maps, the same changes in the same order.
//!
//! The bodies they replaced are kept here verbatim — `naive_allocate` is
//! the allocator's body (one network over every job and every node, the
//! two max-flow phases, the insertion-loop read-back) on the parent flow
//! kernel of `naive_flow/mod.rs` (adjacency lists, full BFS), so the sweep
//! holds the old kernel, the full network and the old read-back together
//! against the shipped `allocate_dense`; `naive_diff` is the per-instance
//! double lookup — and both are compared with the shipped functions over
//! seeded worlds: jobs and applications in shuffled id order, hosts that
//! end at zero flow, unplaced jobs, applications with no host,
//! over-subscribed app-free nodes beside app-hosting ones, application
//! slices that phase 2 moves, jobs short on app-hosting nodes,
//! applications on one side of the diff only. Each sweep prints a tally
//! of what it saw, holds it to floors, and ends on mutations the
//! comparison must catch.

mod naive_flow;

use naive_flow::{NaiveEdgeId, NaiveFlowNetwork, NaiveScratch};
use proptest::TestRng;
use slaq::placement::allocation::MHZ_UNIT;
use slaq::placement::{
    Allocator, AppRequest, JobRequest, NodeCapacity, Placement, PlacementChange,
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
    // One allocator for the whole sweep, as the solver keeps one: a first
    // call per world, then a second on the same topology — both rebuild
    // into the buffers the previous call left behind.
    let mut alloc = Allocator::new();
    for seed in 0..WORLDS {
        let rng = &mut TestRng::new(seed);
        let mut world = World::draw(rng);
        let cold = world.shipped(&mut alloc);
        assert_eq!(cold, world.naive().0, "seed {seed}, cold");
        world.redraw_demands(rng);
        let warm = world.shipped(&mut alloc);
        let (naive, moved_app_slice) = world.naive();
        assert_eq!(warm, naive, "seed {seed}, warm");

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
    assert_eq!(tally.len(), 11, "{tally:?}");
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
