//! The effective-speed oracles.
//!
//! Five layers, all bit for bit.
//!
//! **Kernel ≡ naive.** `effective_speeds` groups the placement by node
//! in dense tables once per call and shares each node's CPU with an
//! allocation-free kernel, instead of re-filtering the whole placement
//! for every node. That is a pure cost optimisation: every float must
//! be the one the old body produced. The pre-grouping body is kept here
//! verbatim as `naive_effective_speeds` and compared with the shipped
//! function on random fleets.
//!
//! **Incremental ≡ from scratch.** The simulator keeps one `NodeSpeeds`
//! alive, marks the nodes an event touched and flushes only those.
//! `drive` does the same to one index over a random sequence of steps —
//! complete a job, unblock one, move capacities, replace the placement,
//! nothing at all — while mirroring each step on the plain `(placement,
//! caps, blocked)`; after every step the flushed index must equal a
//! from-scratch `effective_speeds` on the mirror and the naive oracle,
//! and must have recomputed exactly as many nodes as the step touched. A
//! replaced placement touches the listed nodes whose jobs or instances
//! (ids and grants) changed: `NodeSpeeds::update` carries the others
//! over, so a job the new world keeps at the same node and grant keeps
//! its cap and its blocked flag, as it does in the simulator.
//!
//! **In-kernel clip ≡ map clip.** Under overbooking `flush` also clips
//! every node it recomputes to the node's true capacity and re-sums the
//! applications of a node whose clip factor moved. The simulator's
//! map-based `overcommit_node_clip` + `apply_overcommit` are kept here
//! verbatim (`physical cpu × bite` handed in as the node's truth) and
//! applied to the from-scratch maps. Half of `drive`'s worlds are
//! overbooked: they draw a truth per node — zero, above any grant, or
//! somewhere in between — and re-draw them at random steps among the
//! others. Those worlds have the shape the simulator can hold, which the
//! map clip assumes: the node list in id order (`from_cluster`; the map
//! clip sums an application's instances in id order, the index in list
//! order) and every entity on a listed node (`Placement::validate`).
//!
//! **Projection ≡ from scratch.** The observation stage of a control
//! cycle asks the index what-if questions without touching it:
//! `NodeSpeeds::project` runs the kernel over every node into a
//! `Projection`, with nobody blocked and no clip for the job-outlook
//! series, with the flush's own switches for the SLO pass's clip factors.
//! `drive` takes both before every flush — so from an index that is
//! all-dirty (capacities or truths moved), partly marked (a completion,
//! an unblock, a replaced placement) or clean — and each must equal the
//! from-scratch call and the naive oracle on the mirror, leave `to_maps`
//! as it was, and leave the marks alone (the flush that follows still
//! recomputes exactly what the step touched and still lands on the
//! from-scratch floats).
//!
//! A fifth layer lives in the simulator itself: debug builds compare the
//! event loop's speed tables with a from-scratch derivation plus the map
//! clip at every event, and both projections with their from-scratch
//! forms at every control cycle, so every simulator test of the tier-1
//! run is an oracle run. A release run has this file only.

use proptest::prelude::*;
use proptest::TestRng;
use slaq::placement::problem::NodeCapacity;
use slaq::placement::Placement;
use slaq::sim::{effective_speeds, NodeSpeeds, Projection};
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId};
use std::collections::{BTreeMap, BTreeSet};

type Speeds = (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>);

/// `effective_speeds` as it stood before the grouping: for every node,
/// filter the whole placement for what sits there.
fn naive_effective_speeds(
    nodes: &[NodeCapacity],
    placement: &Placement,
    job_caps: &BTreeMap<JobId, CpuMhz>,
    blocked: &BTreeSet<JobId>,
    cap_apps: bool,
) -> Speeds {
    let mut job_speed: BTreeMap<JobId, CpuMhz> = BTreeMap::new();
    let mut app_speed: BTreeMap<AppId, CpuMhz> = BTreeMap::new();

    for node in nodes {
        // Gather entities on this node.
        let jobs_here: Vec<(JobId, CpuMhz)> = placement
            .jobs
            .iter()
            .filter(|&(_, &(n, _))| n == node.id)
            .map(|(&j, &(_, g))| (j, g))
            .collect();
        let apps_here: Vec<(AppId, CpuMhz)> = placement
            .apps
            .iter()
            .filter_map(|(&a, slices)| slices.get(&node.id).map(|&g| (a, g)))
            .collect();

        let mut used = CpuMhz::ZERO;
        // Guarantees (blocked jobs run at zero; their share is spare).
        let mut runnable: Vec<(JobId, CpuMhz, CpuMhz)> = Vec::new(); // (id, speed, cap)
        for &(j, g) in &jobs_here {
            if blocked.contains(&j) {
                job_speed.insert(j, CpuMhz::ZERO);
                continue;
            }
            let cap = job_caps.get(&j).copied().unwrap_or(g);
            let g = g.min(cap);
            used += g;
            runnable.push((j, g, cap));
        }
        for &(_, g) in &apps_here {
            used += g;
        }
        let mut spare = node.cpu.saturating_sub(used);

        // Water-fill spare across runnable jobs up to their caps.
        loop {
            let open: Vec<usize> = runnable
                .iter()
                .enumerate()
                .filter(|(_, (_, s, cap))| cap.as_f64() - s.as_f64() > 1e-9)
                .map(|(i, _)| i)
                .collect();
            if open.is_empty() || spare.as_f64() <= 1e-9 {
                break;
            }
            let share = spare / open.len() as f64;
            let mut granted_any = false;
            for i in open {
                let (_, s, cap) = runnable[i];
                let grant = (cap - s).min(share).max_zero();
                if grant.as_f64() > 0.0 {
                    runnable[i].1 += grant;
                    spare -= grant;
                    granted_any = true;
                }
            }
            if !granted_any {
                break;
            }
        }
        for (j, s, _) in &runnable {
            job_speed.insert(*j, *s);
        }

        // Remaining spare flows to transactional instances (unless the
        // controller's allocations are enforced as limits).
        if !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9 {
            let g_total: f64 = apps_here.iter().map(|(_, g)| g.as_f64()).sum();
            for &(a, g) in &apps_here {
                let bonus = if g_total > 1e-9 {
                    spare * (g.as_f64() / g_total)
                } else {
                    spare / apps_here.len() as f64
                };
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g + bonus;
            }
        } else {
            for &(a, g) in &apps_here {
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g;
            }
        }
    }

    (job_speed, app_speed)
}

/// `Simulator::overcommit_node_clip` as the event loop's debug oracle
/// keeps it: per-node clip factors (all `< 1`) for nodes whose granted
/// CPU exceeds their true capacity `truth` (parallel to `nodes`).
fn naive_node_clip(
    nodes: &[NodeCapacity],
    truth: &[f64],
    placement: &Placement,
    job_speeds: &BTreeMap<JobId, CpuMhz>,
) -> BTreeMap<NodeId, f64> {
    let mut clip = BTreeMap::new();
    let mut granted: BTreeMap<NodeId, f64> = BTreeMap::new();
    for (j, &(n, _)) in &placement.jobs {
        *granted.entry(n).or_insert(0.0) += job_speeds.get(j).map_or(0.0, |s| s.as_f64());
    }
    for slices in placement.apps.values() {
        for (&n, g) in slices {
            *granted.entry(n).or_insert(0.0) += g.as_f64();
        }
    }
    for (node, &truth) in nodes.iter().zip(truth) {
        let g = granted.get(&node.id).copied().unwrap_or(0.0);
        if g <= 0.0 {
            continue;
        }
        if g > truth {
            clip.insert(node.id, (truth / g).max(0.0));
        }
    }
    clip
}

/// `Simulator::apply_overcommit` likewise: every job grant and app slice
/// on a clipped node is scaled by that node's factor.
fn naive_apply_overcommit(
    clip: &BTreeMap<NodeId, f64>,
    placement: &Placement,
    job_speeds: &mut BTreeMap<JobId, CpuMhz>,
    app_speeds: &mut BTreeMap<AppId, CpuMhz>,
) {
    if clip.is_empty() {
        return;
    }
    for (j, &(n, _)) in &placement.jobs {
        if let Some(&f) = clip.get(&n) {
            if let Some(s) = job_speeds.get_mut(j) {
                *s = *s * f;
            }
        }
    }
    for (a, slices) in &placement.apps {
        if slices.keys().any(|n| clip.contains_key(n)) {
            let delivered: f64 = slices
                .iter()
                .map(|(n, g)| g.as_f64() * clip.get(n).copied().unwrap_or(1.0))
                .sum();
            app_speeds.insert(*a, CpuMhz::new(delivered));
        }
    }
}

/// Same keys, same values as bit patterns.
fn same_map<K: Ord>(a: &BTreeMap<K, CpuMhz>, b: &BTreeMap<K, CpuMhz>) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.as_f64().to_bits() == y.1.as_f64().to_bits())
}

/// Both maps the same, bit for bit.
fn same_bits(a: &Speeds, b: &Speeds) -> bool {
    same_map(&a.0, &b.0) && same_map(&a.1, &b.1)
}

const NODE_IDS: u64 = 24;
const JOB_IDS: u64 = 48;
const APP_IDS: u64 = 5;

/// A CPU quantity that is often exactly zero or one of a few round
/// values, so ties, empty headroom and the even-split branch all occur.
fn cpu(rng: &mut TestRng, max: f64) -> CpuMhz {
    CpuMhz::new(match rng.below(5) {
        0 => 0.0,
        1 => (rng.below(5) * 1000) as f64,
        _ => rng.unit_f64() * max,
    })
}

/// A fleet: distinct sparse ids in arbitrary order, some dead nodes.
fn gen_nodes(rng: &mut TestRng) -> Vec<NodeCapacity> {
    let mut ids: Vec<u32> = (0..NODE_IDS as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ids.truncate(1 + rng.below(NODE_IDS - 4) as usize);
    ids.into_iter()
        .map(|id| NodeCapacity {
            id: NodeId::new(id),
            cpu: cpu(rng, 16_000.0),
            mem: MemMb::new(4096),
        })
        .collect()
}

/// A placement over (mostly) those nodes — a few entities sit on nodes
/// the fleet does not have — plus caps for most jobs and a blocked set.
fn gen_world(rng: &mut TestRng) -> (Placement, BTreeMap<JobId, CpuMhz>, BTreeSet<JobId>) {
    let mut placement = Placement::empty();
    let mut caps = BTreeMap::new();
    let mut blocked = BTreeSet::new();
    for _ in 0..rng.below(JOB_IDS) {
        let job = JobId::new(rng.below(JOB_IDS) as u32);
        let node = NodeId::new(rng.below(NODE_IDS + 2) as u32);
        placement.jobs.insert(job, (node, cpu(rng, 4000.0)));
        if rng.below(5) > 0 {
            caps.insert(job, cpu(rng, 4000.0));
        }
        if rng.below(4) == 0 {
            blocked.insert(job);
        }
    }
    for _ in 0..rng.below(4 * APP_IDS) {
        let app = AppId::new(rng.below(APP_IDS) as u32);
        let node = NodeId::new(rng.below(NODE_IDS + 2) as u32);
        placement
            .apps
            .entry(app)
            .or_default()
            .insert(node, cpu(rng, 6000.0));
    }
    if rng.below(4) == 0 {
        // An application that is placed nowhere.
        placement
            .apps
            .entry(AppId::new(APP_IDS as u32))
            .or_default();
    }
    (placement, caps, blocked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The indexed function equals the naive oracle, bit for bit.
    #[test]
    fn prop_indexed_equals_the_naive_oracle(seed in 0u64..u64::MAX, cap_apps in 0u8..2) {
        let mut rng = TestRng::new(seed);
        let nodes = gen_nodes(&mut rng);
        let (placement, caps, blocked) = gen_world(&mut rng);
        let cap_apps = cap_apps == 1;
        let naive = naive_effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        let indexed = effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        prop_assert!(same_bits(&naive, &indexed), "seed {seed}: {naive:?} vs {indexed:?}");
    }
}

/// Node ids far apart and out of order, and entities on nodes the list
/// does not have — below, between and beyond the listed ids: those get
/// no speed, and an application placed only there gets no entry.
#[test]
fn sparse_node_ids_and_entities_on_unlisted_nodes() {
    let nodes: Vec<NodeCapacity> = [(70_000, 9000.0), (3, 12_000.0), (512, 0.0), (9, 6000.0)]
        .into_iter()
        .map(|(id, cpu)| NodeCapacity {
            id: NodeId::new(id),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(4096),
        })
        .collect();
    let mut placement = Placement::empty();
    let mut caps = BTreeMap::new();
    let on = [3, 70_000, 4, 512, 9, u32::MAX, 3, 70_001, 0, 70_000];
    for (job, node) in on.into_iter().enumerate() {
        let job = JobId::new(job as u32 * 7);
        placement
            .jobs
            .insert(job, (NodeId::new(node), CpuMhz::new(1500.0)));
        caps.insert(job, CpuMhz::new(3000.0));
    }
    let blocked: BTreeSet<JobId> = [JobId::new(0), JobId::new(14)].into();
    for (app, node, cpu) in [
        (0, 3, 2000.0),
        (0, 70_000, 1000.0),
        (0, 8, 500.0),
        (1, 100_000, 4000.0),
        (2, 9, 0.0),
        (2, 512, 0.0),
    ] {
        placement
            .apps
            .entry(AppId::new(app))
            .or_default()
            .insert(NodeId::new(node), CpuMhz::new(cpu));
    }
    for cap_apps in [false, true] {
        let naive = naive_effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        let indexed = effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        assert!(same_bits(&naive, &indexed), "{naive:?} vs {indexed:?}");
        // Six jobs sit on listed nodes; applications 0 and 2 do.
        assert_eq!(indexed.0.len(), 6);
        assert_eq!(
            indexed.1.keys().copied().collect::<Vec<_>>(),
            [AppId::new(0), AppId::new(2)]
        );
    }
}

/// A driver or an oracle with a defect the sweep must notice.
#[derive(Clone, Copy, PartialEq)]
enum Mutant {
    /// A simulator that forgot a call site: the driver mirrors an
    /// unblock but never tells the index (and expects no node recomputed
    /// for it, so only stale speeds can give it away).
    NeverForwardsUnblocks,
    /// A kernel that does not re-sum a node's applications when only the
    /// node's clip factor changed: the oracle keeps the previous step's
    /// total of every application whose unclipped total did not move
    /// since, unless the placement was replaced.
    KeepsTotalsWhenOnlyTheClipMoved,
    /// An outlook series that reads what the flushed tables hold: the
    /// driver projects with the blocked jobs still blocked and the clip
    /// still on where the oracle has nobody blocked and no clip.
    ProjectsWithTheFlushSwitches,
}

/// What `drive` remembers of the step before.
struct Before {
    /// The index's application totals …
    kept: BTreeMap<AppId, CpuMhz>,
    /// … the from-scratch ones before the clip …
    unclipped: BTreeMap<AppId, CpuMhz>,
    /// … and the nodes the clip bit on.
    clipped: Vec<NodeId>,
}

/// A true capacity per node: zero, above any grant, or somewhere in
/// between.
fn gen_truths(rng: &mut TestRng, nodes: &[NodeCapacity]) -> Vec<f64> {
    nodes
        .iter()
        .map(|_| match rng.below(4) {
            0 => 0.0,
            1 => 1e9,
            _ => rng.unit_f64() * 16_000.0,
        })
        .collect()
}

/// Whether `nodes` lists `node`.
fn listed(nodes: &[NodeCapacity], node: NodeId) -> bool {
    nodes.iter().any(|n| n.id == node)
}

/// `gen_world`, restricted to entities on `nodes` when the world is
/// overbooked.
fn gen_world_on(
    rng: &mut TestRng,
    nodes: &[NodeCapacity],
    overbooked: bool,
) -> (Placement, BTreeMap<JobId, CpuMhz>, BTreeSet<JobId>) {
    let mut world = gen_world(rng);
    if overbooked {
        world.0.jobs.retain(|_, (node, _)| listed(nodes, *node));
        for slices in world.0.apps.values_mut() {
            slices.retain(|node, _| listed(nodes, *node));
        }
        world.2.retain(|job| world.0.jobs.contains_key(job));
    }
    world
}

/// Whether `projection`, taken from `speeds`, reads `expected` for every
/// job id the generator can produce (zero for a job `expected` lacks).
fn projects_jobs(
    projection: &Projection,
    speeds: &NodeSpeeds,
    expected: &BTreeMap<JobId, CpuMhz>,
) -> bool {
    (0..JOB_IDS as u32 + 2).map(JobId::new).all(|job| {
        let want = expected.get(&job).copied().unwrap_or(CpuMhz::ZERO);
        projection.job_speed(speeds, job).as_f64().to_bits() == want.as_f64().to_bits()
    })
}

/// Whether `projection` reads the factors of `clip` (`1.0` for a node
/// `clip` lacks) on every node id the generator can produce.
fn projects_clip(
    projection: &Projection,
    speeds: &NodeSpeeds,
    clip: &BTreeMap<NodeId, f64>,
) -> bool {
    projection.clipped() == clip.len()
        && (0..NODE_IDS as u32 + 2).map(NodeId::new).all(|node| {
            let want = clip.get(&node).copied().unwrap_or(1.0);
            projection.node_clip(speeds, node).to_bits() == want.to_bits()
        })
}

/// How many listed nodes hold other jobs or instances, ids and grant
/// bits compared, under `new` than under `old`: what an update marks.
fn nodes_changed(nodes: &[NodeCapacity], old: &Placement, new: &Placement) -> usize {
    let on = |placement: &Placement, node: NodeId| {
        let jobs = placement.jobs.iter().filter(|(_, on)| on.0 == node);
        let apps = placement.apps.iter().filter_map(|(app, slices)| {
            slices
                .get(&node)
                .map(|g| (app.index() + JOB_IDS as usize, *g))
        });
        let mut held: Vec<(usize, u64)> = jobs
            .map(|(job, on)| (job.index(), on.1))
            .chain(apps)
            .map(|(id, g)| (id, g.as_f64().to_bits()))
            .collect();
        held.sort_unstable();
        held
    };
    nodes
        .iter()
        .filter(|n| on(old, n.id) != on(new, n.id))
        .count()
}

/// The mirror `drive` keeps beside the index.
struct Mirror<'a> {
    nodes: &'a [NodeCapacity],
    placement: &'a Placement,
    caps: &'a BTreeMap<JobId, CpuMhz>,
    blocked: &'a BTreeSet<JobId>,
    truths: Option<&'a [f64]>,
}

/// The projection layer, for the state `speeds` is in right now: the
/// outlook projection (nobody blocked, no clip) and the flush-switched
/// one (blocked jobs at zero, clipped to the truths) against the
/// from-scratch call and the naive oracle on `mirror`. Returns whether a
/// blocked job shared its node with another job and how many nodes the
/// clip bit.
fn check_projections(
    speeds: &NodeSpeeds,
    projection: &mut Projection,
    mirror: &Mirror,
    cap_apps: bool,
    mutant: Option<Mutant>,
) -> Result<(bool, usize), String> {
    let Mirror {
        nodes,
        placement,
        caps,
        blocked,
        truths,
    } = *mirror;
    let truth_of = |pos: usize| truths.map(|t| t[pos]);
    let tables = speeds.to_maps();

    let nobody = BTreeSet::new();
    let scratch = effective_speeds(nodes, placement, caps, &nobody, cap_apps).0;
    let naive = naive_effective_speeds(nodes, placement, caps, &nobody, cap_apps).0;
    if mutant == Some(Mutant::ProjectsWithTheFlushSwitches) {
        speeds.project(nodes, true, truth_of, projection);
    } else {
        speeds.project(nodes, false, |_| None, projection);
    }
    if !projects_jobs(projection, speeds, &scratch)
        || !projects_jobs(projection, speeds, &naive)
        || !projects_clip(projection, speeds, &BTreeMap::new())
    {
        return Err(format!(
            "outlook projection {projection:?} vs from scratch {scratch:?} vs naive {naive:?}"
        ));
    }

    let mut scratch = effective_speeds(nodes, placement, caps, blocked, cap_apps);
    let mut naive = naive_effective_speeds(nodes, placement, caps, blocked, cap_apps);
    let clip = match truths {
        Some(truths) => naive_node_clip(nodes, truths, placement, &scratch.0),
        None => BTreeMap::new(),
    };
    naive_apply_overcommit(&clip, placement, &mut scratch.0, &mut scratch.1);
    naive_apply_overcommit(&clip, placement, &mut naive.0, &mut naive.1);
    speeds.project(nodes, true, truth_of, projection);
    if !projects_jobs(projection, speeds, &scratch.0)
        || !projects_jobs(projection, speeds, &naive.0)
        || !projects_clip(projection, speeds, &clip)
    {
        return Err(format!(
            "flush-switched projection {projection:?} vs from scratch {scratch:?} vs naive \
             {naive:?}, clip {clip:?}"
        ));
    }

    if !same_bits(&tables, &speeds.to_maps()) {
        return Err(format!("a projection moved the tables from {tables:?}"));
    }
    let shared = blocked.iter().any(|job| {
        let node = placement.jobs[job].0;
        listed(nodes, node) && placement.jobs.values().filter(|on| on.0 == node).count() > 1
    });
    Ok((shared, clip.len()))
}

/// Drive one kept-alive `NodeSpeeds` through a random world and a
/// random sequence of steps, mirrored on `(placement, caps, blocked)`
/// and, in an overbooked world (every other pair of seeds), on the
/// per-node truths, checking it after every step; `tally` counts what
/// occurred.
fn drive(
    seed: u64,
    cap_apps: bool,
    mutant: Option<Mutant>,
    tally: &mut BTreeMap<&'static str, usize>,
) -> Result<(), String> {
    let forward_unblocks = mutant != Some(Mutant::NeverForwardsUnblocks);
    let overbooked = seed % 4 >= 2;
    let mut rng = TestRng::new(seed);
    let mut nodes = gen_nodes(&mut rng);
    if overbooked {
        nodes.sort_by_key(|n| n.id);
    }
    let (mut placement, mut caps, mut blocked) = gen_world_on(&mut rng, &nodes, overbooked);
    let mut truths = overbooked.then(|| gen_truths(&mut rng, &nodes));
    let mut speeds = NodeSpeeds::new(&nodes);
    speeds.update(
        &Placement::empty(),
        &placement,
        |j| caps.get(&j).copied(),
        |j| blocked.contains(&j),
    );
    let mut touched = nodes_changed(&nodes, &Placement::empty(), &placement);
    let mut step = "replace";
    let mut previous: Option<Before> = None;
    let mut resummed = false;
    let (mut clip_bit, mut clip_split_an_app, mut clip_moved_in_place) = (false, false, false);
    let mut projection = Projection::default();
    let (mut unblocked_on_a_shared_node, mut projected_past_a_clip) = (false, false);
    for at in 0..5 + rng.below(12) {
        let mirror = Mirror {
            nodes: &nodes,
            placement: &placement,
            caps: &caps,
            blocked: &blocked,
            truths: truths.as_deref(),
        };
        match check_projections(&speeds, &mut projection, &mirror, cap_apps, mutant) {
            Ok((shared, clipped)) => {
                unblocked_on_a_shared_node |= shared;
                projected_past_a_clip |= clipped > 0;
            }
            Err(caught) => return Err(format!("step {at} ({step}), before the flush: {caught}")),
        }
        *tally
            .entry(match touched {
                0 => "projected clean",
                n if n == nodes.len() => "projected all-dirty",
                _ => "projected partly marked",
            })
            .or_default() += 1;
        let flushed = speeds.flush(&nodes, cap_apps, |pos| truths.as_ref().map(|t| t[pos]));
        let kept = speeds.to_maps();
        let mut scratch = effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        let mut naive = naive_effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        let unclipped = scratch.1.clone();
        let clip = match &truths {
            Some(truths) => naive_node_clip(&nodes, truths, &placement, &scratch.0),
            None => BTreeMap::new(),
        };
        naive_apply_overcommit(&clip, &placement, &mut scratch.0, &mut scratch.1);
        naive_apply_overcommit(&clip, &placement, &mut naive.0, &mut naive.1);
        if mutant == Some(Mutant::KeepsTotalsWhenOnlyTheClipMoved) && step != "replace" {
            let before = previous.as_ref().expect("not the first step");
            for (app, total) in &mut scratch.1 {
                if unclipped[app].as_f64().to_bits() == before.unclipped[app].as_f64().to_bits() {
                    *total = before.kept[app];
                }
            }
        }
        if !same_bits(&kept, &scratch) || !same_bits(&kept, &naive) {
            return Err(format!(
                "step {at} ({step}): kept {kept:?} vs from scratch {scratch:?} vs naive {naive:?}"
            ));
        }
        if flushed.recomputed != touched {
            return Err(format!(
                "step {at} ({step}): flushed {} nodes, touched {touched}",
                flushed.recomputed
            ));
        }
        if flushed.recomputed == nodes.len() && flushed.clipped != clip.len() {
            return Err(format!(
                "step {at} ({step}): {} nodes clipped, the oracle clips {clip:?}",
                flushed.clipped
            ));
        }
        *tally.entry(step).or_default() += 1;
        *tally
            .entry(match flushed.recomputed {
                0 => "flushed none",
                n if n == nodes.len() => "flushed all",
                _ => "flushed one",
            })
            .or_default() += 1;
        // A one-node flush that moved an application's total: the case
        // the re-sum rule is for.
        resummed |= flushed.recomputed == 1
            && nodes.len() > 1
            && previous
                .as_ref()
                .is_some_and(|before| !same_map(&before.kept, &kept.1));
        let clipped: Vec<NodeId> = clip.keys().copied().collect();
        clip_bit |= !clipped.is_empty();
        clip_split_an_app |= placement.apps.values().any(|slices| {
            slices.keys().any(|n| clip.contains_key(n))
                && slices.keys().any(|n| !clip.contains_key(n))
        });
        clip_moved_in_place |= step != "replace"
            && previous
                .as_ref()
                .is_some_and(|before| before.clipped != clipped);
        previous = Some(Before {
            kept: kept.1,
            unclipped,
            clipped,
        });

        touched = 0;
        step = match rng.below(if overbooked { 6 } else { 5 }) {
            0 => {
                // Complete a placed job (now and then one that is not).
                let placed: Vec<JobId> = placement.jobs.keys().copied().collect();
                let job = match placed.len() as u64 {
                    n if n > 0 && rng.below(8) > 0 => placed[rng.below(n) as usize],
                    _ => JobId::new(JOB_IDS as u32 + 1),
                };
                if let Some((node, _)) = placement.jobs.remove(&job) {
                    touched = listed(&nodes, node) as usize;
                }
                blocked.remove(&job);
                speeds.complete_job(job);
                "complete"
            }
            1 => {
                // Unblock a blocked job (now and then a running one).
                let pool: Vec<JobId> = if rng.below(8) > 0 {
                    blocked.iter().copied().collect()
                } else {
                    placement.jobs.keys().copied().collect()
                };
                if !pool.is_empty() {
                    let job = pool[rng.below(pool.len() as u64) as usize];
                    if blocked.remove(&job) && forward_unblocks {
                        touched = listed(&nodes, placement.jobs[&job].0) as usize;
                    }
                    if forward_unblocks {
                        speeds.unblock(job);
                    }
                }
                "unblock"
            }
            2 => {
                // A capacity boundary: some nodes change, all are marked.
                for node in &mut nodes {
                    if rng.below(3) == 0 {
                        node.cpu = cpu(&mut rng, 16_000.0);
                    }
                }
                speeds.mark_all_dirty();
                touched = nodes.len();
                "capacities"
            }
            3 => {
                // A new placement is enacted.
                let (next, mut next_caps, mut next_blocked) =
                    gen_world_on(&mut rng, &nodes, overbooked);
                for (job, on) in &next.jobs {
                    let kept = placement.jobs.get(job).is_some_and(|was| {
                        was.0 == on.0 && was.1.as_f64().to_bits() == on.1.as_f64().to_bits()
                    });
                    if kept {
                        match caps.get(job) {
                            Some(&cap) => next_caps.insert(*job, cap),
                            None => next_caps.remove(job),
                        };
                        if blocked.contains(job) {
                            next_blocked.insert(*job);
                        } else {
                            next_blocked.remove(job);
                        }
                    }
                }
                touched = nodes_changed(&nodes, &placement, &next);
                let from = std::mem::replace(&mut placement, next);
                (caps, blocked) = (next_caps, next_blocked);
                speeds.update(
                    &from,
                    &placement,
                    |j| caps.get(&j).copied(),
                    |j| blocked.contains(&j),
                );
                "replace"
            }
            5 => {
                // A new cycle's bites: every truth re-drawn, all marked.
                truths = Some(gen_truths(&mut rng, &nodes));
                speeds.mark_all_dirty();
                touched = nodes.len();
                "truths"
            }
            _ => "nothing",
        };
    }
    for (flag, what) in [
        (resummed && !cap_apps, "worlds re-summed uncapped"),
        (clip_bit, "worlds a clip bit"),
        (
            clip_split_an_app,
            "worlds an app spanned clipped and unclipped nodes",
        ),
        (clip_moved_in_place, "worlds a clip came or went in place"),
        (
            unblocked_on_a_shared_node,
            "worlds a projection unblocked a job on a shared node",
        ),
        (
            projected_past_a_clip,
            "worlds a projection ignored a clipped node",
        ),
    ] {
        if flag {
            *tally.entry(what).or_default() += 1;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kept-alive index equals from scratch and the naive oracle
    /// after every step, and flushes what the step touched.
    #[test]
    fn prop_incremental_equals_from_scratch(seed in 0u64..u64::MAX, cap_apps in 0u8..2) {
        let verdict = drive(seed, cap_apps == 1, None, &mut BTreeMap::new());
        prop_assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
    }
}

/// The same over 2 000 fixed seeds, with a tally of what the generator
/// produced, so that a case it stops producing shows.
#[test]
fn the_sweep_sees_every_kind_of_step_and_flush() {
    let mut tally = BTreeMap::new();
    for seed in 0..2000 {
        if let Err(caught) = drive(seed, seed % 2 == 1, None, &mut tally) {
            panic!("seed {seed}: {caught}");
        }
    }
    println!("incremental ≡ from scratch over 2000 worlds: {tally:?}");
    for (expected, at_least) in [
        ("complete", 1000),
        ("unblock", 1000),
        ("capacities", 1000),
        ("replace", 3000),
        ("nothing", 1000),
        ("truths", 1000),
        ("flushed none", 1000),
        ("flushed one", 1000),
        ("flushed all", 5000),
        ("worlds re-summed uncapped", 50),
        ("worlds a clip bit", 800),
        ("worlds an app spanned clipped and unclipped nodes", 400),
        ("worlds a clip came or went in place", 400),
        ("projected all-dirty", 5000),
        ("projected partly marked", 1000),
        ("projected clean", 1000),
        ("worlds a projection unblocked a job on a shared node", 1000),
        ("worlds a projection ignored a clipped node", 800),
    ] {
        assert!(
            tally.get(expected).is_some_and(|&n| n >= at_least),
            "{expected}: {tally:?}"
        );
    }
}

/// How many of the sweep's seeds notice `mutant`.
fn worlds_that_catch(mutant: Mutant) -> usize {
    (0..2000)
        .filter(|&seed| drive(seed, seed % 2 == 1, Some(mutant), &mut BTreeMap::new()).is_err())
        .count()
}

/// The mutation check: a driver that mirrors unblocks but never forwards
/// them to the index must be caught by the sweep's seeds.
#[test]
fn the_sweep_catches_a_driver_that_never_forwards_an_unblock() {
    let caught = worlds_that_catch(Mutant::NeverForwardsUnblocks);
    println!("unblock never forwarded: stale speeds in {caught} of 2000 worlds");
    assert!(caught >= 100, "caught in {caught} worlds only");
}

/// The clip's mutation check: a kernel that leaves an application's total
/// alone when only a clip factor under it changed (modelled on the
/// oracle's side) must be caught likewise.
#[test]
fn the_sweep_catches_a_clip_that_moved_without_a_re_sum() {
    let caught = worlds_that_catch(Mutant::KeepsTotalsWhenOnlyTheClipMoved);
    println!("clip moved, applications not re-summed: caught in {caught} of 2000 worlds");
    assert!(caught >= 100, "caught in {caught} worlds only");
}

/// The projection's mutation check: an outlook that projects with the
/// flush's switches — what reading the flushed tables would give, blocked
/// jobs at zero and clipped nodes scaled — must be caught likewise.
#[test]
fn the_sweep_catches_an_outlook_that_keeps_the_blocked_set_and_the_clip() {
    let caught = worlds_that_catch(Mutant::ProjectsWithTheFlushSwitches);
    println!("outlook projected with the flush's switches: caught in {caught} of 2000 worlds");
    assert!(caught >= 1500, "caught in {caught} worlds only");
}
