//! The effective-speed oracle.
//!
//! `effective_speeds` counting-sorts the placement by node position
//! into two CSR tables once per call and shares each node's CPU with an
//! allocation-free kernel over dense tables, instead of re-filtering
//! the whole placement for every node. That is a pure cost
//! optimisation: every float must be the one the old body produced.
//! The pre-grouping body is kept here verbatim as
//! `naive_effective_speeds` and compared with the shipped function on
//! random fleets, bit for bit. The simulator's event loop calls the
//! shipped function at every event, so the golden corpus pins cover it
//! end to end as well.

use proptest::prelude::*;
use proptest::TestRng;
use slaq::placement::problem::NodeCapacity;
use slaq::placement::Placement;
use slaq::sim::effective_speeds;
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
fn same_bits(a: &Speeds, b: &Speeds) -> bool {
    fn eq<K: Ord>(a: &BTreeMap<K, CpuMhz>, b: &BTreeMap<K, CpuMhz>) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && x.1.as_f64().to_bits() == y.1.as_f64().to_bits())
    }
    eq(&a.0, &b.0) && eq(&a.1, &b.1)
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
