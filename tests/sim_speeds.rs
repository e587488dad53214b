//! The effective-speed oracles.
//!
//! Two layers, both bit for bit.
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
//! and must have recomputed exactly as many nodes as the step touched.
//!
//! A third layer lives in the simulator itself: debug builds compare
//! the event loop's kept maps with a from-scratch derivation at every
//! event, so every simulator test of the tier-1 run is an oracle run.

use proptest::prelude::*;
use proptest::TestRng;
use slaq::placement::problem::NodeCapacity;
use slaq::placement::Placement;
use slaq::sim::{effective_speeds, NodeSpeeds};
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

/// Drive one kept-alive `NodeSpeeds` through a random world and a
/// random sequence of steps, mirrored on `(placement, caps, blocked)`,
/// checking it after every step; `tally` counts what occurred. With
/// `forward_unblocks` off the driver is a simulator that forgot a call
/// site: it mirrors an unblock but never tells the index (and expects
/// no node recomputed for it, so only stale speeds can give it away).
fn drive(
    seed: u64,
    cap_apps: bool,
    forward_unblocks: bool,
    tally: &mut BTreeMap<&'static str, usize>,
) -> Result<(), String> {
    let mut rng = TestRng::new(seed);
    let mut nodes = gen_nodes(&mut rng);
    let (mut placement, mut caps, mut blocked) = gen_world(&mut rng);
    let listed = |nodes: &[NodeCapacity], node: NodeId| nodes.iter().any(|n| n.id == node);
    let mut speeds = NodeSpeeds::new(&nodes);
    speeds.rebuild(
        &placement,
        |j| caps.get(&j).copied(),
        |j| blocked.contains(&j),
    );
    let mut touched = nodes.len();
    let mut step = "replace";
    let mut previous: Option<BTreeMap<AppId, CpuMhz>> = None;
    let mut resummed = false;
    for at in 0..5 + rng.below(12) {
        let flushed = speeds.flush(&nodes, cap_apps);
        let kept = speeds.to_maps();
        let scratch = effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        let naive = naive_effective_speeds(&nodes, &placement, &caps, &blocked, cap_apps);
        if !same_bits(&kept, &scratch) || !same_bits(&kept, &naive) {
            return Err(format!(
                "step {at} ({step}): kept {kept:?} vs from scratch {scratch:?} vs naive {naive:?}"
            ));
        }
        if flushed != touched {
            return Err(format!(
                "step {at} ({step}): flushed {flushed} nodes, touched {touched}"
            ));
        }
        *tally.entry(step).or_default() += 1;
        *tally
            .entry(match flushed {
                0 => "flushed none",
                n if n == nodes.len() => "flushed all",
                _ => "flushed one",
            })
            .or_default() += 1;
        // A one-node flush that moved an application's total: the case
        // the re-sum rule is for.
        resummed |= flushed == 1
            && nodes.len() > 1
            && previous.is_some_and(|apps| !same_map(&apps, &kept.1));
        previous = Some(kept.1);

        touched = 0;
        step = match rng.below(5) {
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
                (placement, caps, blocked) = gen_world(&mut rng);
                speeds.rebuild(
                    &placement,
                    |j| caps.get(&j).copied(),
                    |j| blocked.contains(&j),
                );
                touched = nodes.len();
                "replace"
            }
            _ => "nothing",
        };
    }
    if resummed && !cap_apps {
        *tally.entry("worlds re-summed uncapped").or_default() += 1;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kept-alive index equals from scratch and the naive oracle
    /// after every step, and flushes what the step touched.
    #[test]
    fn prop_incremental_equals_from_scratch(seed in 0u64..u64::MAX, cap_apps in 0u8..2) {
        let verdict = drive(seed, cap_apps == 1, true, &mut BTreeMap::new());
        prop_assert!(verdict.is_ok(), "seed {seed}: {verdict:?}");
    }
}

/// The same over 2 000 fixed seeds, with a tally of what the generator
/// produced, so that a case it stops producing shows.
#[test]
fn the_sweep_sees_every_kind_of_step_and_flush() {
    let mut tally = BTreeMap::new();
    for seed in 0..2000 {
        if let Err(caught) = drive(seed, seed % 2 == 1, true, &mut tally) {
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
        ("flushed none", 1000),
        ("flushed one", 1000),
        ("flushed all", 5000),
        ("worlds re-summed uncapped", 50),
    ] {
        assert!(
            tally.get(expected).is_some_and(|&n| n >= at_least),
            "{expected}: {tally:?}"
        );
    }
}

/// The mutation check: a driver that mirrors unblocks but never forwards
/// them to the index must be caught by the sweep's seeds.
#[test]
fn the_sweep_catches_a_driver_that_never_forwards_an_unblock() {
    let caught = (0..2000)
        .filter(|&seed| drive(seed, seed % 2 == 1, false, &mut BTreeMap::new()).is_err())
        .count();
    println!("unblock never forwarded: stale speeds in {caught} of 2000 worlds");
    assert!(caught >= 100, "caught in {caught} worlds only");
}
