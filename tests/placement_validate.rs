//! The `Placement::validate` oracle.
//!
//! `validate` indexes its three slices by id once and accumulates node
//! usage by position instead of running a linear `find` per placed
//! entity. That is a pure cost optimisation: the same placements must
//! pass, and a failing one must fail with the same error — variant
//! *and* payload, so the order the checks run in is part of the
//! contract. The pre-index body is kept here verbatim as
//! `naive_validate` and compared with the shipped method on random
//! fleets, including slices in arbitrary order and with repeated ids
//! (the first match wins, as `find` had it).
//!
//! The slice form is three interners around `Placement::validate_with`,
//! the one body, which the simulator calls with lookups of its own. The
//! same worlds therefore also go through `validate_with` directly, fed
//! plain `find`s over the same slices: a third verdict that must equal
//! the other two, and a mutation — lookups that return a repeated id's
//! *last* copy — that must not.

use proptest::prelude::*;
use proptest::TestRng;
use slaq::placement::problem::{AppRequest, JobRequest, NodeCapacity};
use slaq::placement::Placement;
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId, SlaqError};
use std::collections::BTreeMap;

/// `Placement::validate` as it stood before the id index.
fn naive_validate(
    placement: &Placement,
    nodes: &[NodeCapacity],
    apps: &[AppRequest],
    jobs: &[JobRequest],
) -> Result<(), SlaqError> {
    let node_of = |id: NodeId| -> Result<&NodeCapacity, SlaqError> {
        nodes
            .iter()
            .find(|n| n.id == id)
            .ok_or(SlaqError::UnknownNode(id))
    };
    let app_req = |id: AppId| apps.iter().find(|a| a.id == id);
    let job_req = |id: JobId| jobs.iter().find(|j| j.id == id);

    // Per-node accumulation.
    let mut cpu_used: BTreeMap<NodeId, CpuMhz> = BTreeMap::new();
    let mut mem_used: BTreeMap<NodeId, MemMb> = BTreeMap::new();

    for (&app, slices) in &placement.apps {
        let req = app_req(app).ok_or(SlaqError::UnknownApp(app))?;
        if slices.len() > req.max_instances as usize {
            return Err(SlaqError::InvalidSpec(format!(
                "{app} has {} instances, max {}",
                slices.len(),
                req.max_instances
            )));
        }
        for (&node, &cpu) in slices {
            node_of(node)?;
            if cpu.as_f64() < -1e-9 {
                return Err(SlaqError::InvalidSpec(format!(
                    "negative slice for {app} on {node}"
                )));
            }
            *cpu_used.entry(node).or_insert(CpuMhz::ZERO) += cpu;
            *mem_used.entry(node).or_insert(MemMb::ZERO) += req.mem_per_instance;
        }
    }
    for (&job, &(node, cpu)) in &placement.jobs {
        let req = job_req(job).ok_or(SlaqError::UnknownJob(job))?;
        node_of(node)?;
        if cpu.as_f64() < -1e-9 {
            return Err(SlaqError::InvalidSpec(format!("negative alloc for {job}")));
        }
        *cpu_used.entry(node).or_insert(CpuMhz::ZERO) += cpu;
        *mem_used.entry(node).or_insert(MemMb::ZERO) += req.mem;
    }

    for node in nodes {
        if let Some(&cpu) = cpu_used.get(&node.id) {
            if cpu.as_f64() > node.cpu.as_f64() + 1e-6 {
                return Err(SlaqError::CapacityViolation {
                    node: node.id,
                    detail: format!("cpu {cpu} > {}", node.cpu),
                });
            }
        }
        if let Some(&mem) = mem_used.get(&node.id) {
            if !node.mem.fits(mem) {
                return Err(SlaqError::CapacityViolation {
                    node: node.id,
                    detail: format!("memory {mem} > {}", node.mem),
                });
            }
        }
    }
    Ok(())
}

const NODE_IDS: u64 = 10;
const APP_IDS: u64 = 4;
const JOB_IDS: u64 = 24;

/// `0..ids` in random order, a few dropped, now and then one repeated —
/// the repeat lands at a random position, so either copy may come first.
fn gen_ids(rng: &mut TestRng, ids: u64) -> Vec<u32> {
    let mut out: Vec<u32> = (0..ids as u32).collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out.truncate(out.len() - rng.below(3) as usize);
    if rng.below(3) == 0 {
        let repeated = out[rng.below(out.len() as u64) as usize];
        out.insert(rng.below(out.len() as u64 + 1) as usize, repeated);
    }
    out
}

/// A listed id most of the time, now and then one that may be unknown.
fn pick(rng: &mut TestRng, listed: &[u32], ids: u64) -> u32 {
    if rng.below(24) == 0 {
        rng.below(ids + 2) as u32
    } else {
        listed[rng.below(listed.len() as u64) as usize]
    }
}

/// A grant: usually positive, sometimes within the negative tolerance,
/// rarely outright negative.
fn grant(rng: &mut TestRng, max: f64) -> CpuMhz {
    CpuMhz::new(match rng.below(120) {
        0 => -1.0,
        1 => -1e-12,
        _ => rng.unit_f64() * max,
    })
}

type World = (
    Vec<NodeCapacity>,
    Vec<AppRequest>,
    Vec<JobRequest>,
    Placement,
);

fn gen_world(rng: &mut TestRng) -> World {
    // Repeated ids carry different capacities and footprints, so which
    // copy a lookup returns shows in the outcome.
    let nodes: Vec<NodeCapacity> = gen_ids(rng, NODE_IDS)
        .into_iter()
        .map(|id| NodeCapacity {
            id: NodeId::new(id),
            cpu: CpuMhz::new([4000.0, 8000.0, 12_000.0][rng.below(3) as usize]),
            mem: MemMb::new([3072, 4096, 8192][rng.below(3) as usize]),
        })
        .collect();
    let apps: Vec<AppRequest> = gen_ids(rng, APP_IDS)
        .into_iter()
        .map(|id| AppRequest {
            id: AppId::new(id),
            demand: CpuMhz::ZERO,
            mem_per_instance: MemMb::new([512, 1024][rng.below(2) as usize]),
            min_instances: 0,
            max_instances: 2 + rng.below(8) as u32,
            affinity: Vec::new(),
        })
        .collect();
    let jobs: Vec<JobRequest> = gen_ids(rng, JOB_IDS)
        .into_iter()
        .map(|id| JobRequest {
            id: JobId::new(id),
            demand: CpuMhz::ZERO,
            mem: MemMb::new([640, 1280][rng.below(2) as usize]),
            running_on: None,
            affinity: None,
            priority: 0.0,
            importance: 1.0,
        })
        .collect();

    let node_ids: Vec<u32> = nodes.iter().map(|n| n.id.raw()).collect();
    let app_ids: Vec<u32> = apps.iter().map(|a| a.id.raw()).collect();
    let job_ids: Vec<u32> = jobs.iter().map(|j| j.id.raw()).collect();
    let mut placement = Placement::empty();
    for _ in 0..rng.below(NODE_IDS + 4) {
        let app = AppId::new(pick(rng, &app_ids, APP_IDS));
        let node = NodeId::new(pick(rng, &node_ids, NODE_IDS));
        placement
            .apps
            .entry(app)
            .or_default()
            .insert(node, grant(rng, 2500.0));
    }
    if rng.below(8) == 0 {
        // An application with an entry and no instance is still looked up.
        let app = AppId::new(pick(rng, &app_ids, APP_IDS));
        placement.apps.entry(app).or_default();
    }
    for _ in 0..rng.below(JOB_IDS) {
        let job = JobId::new(pick(rng, &job_ids, JOB_IDS));
        let node = NodeId::new(pick(rng, &node_ids, NODE_IDS));
        placement.jobs.insert(job, (node, grant(rng, 2500.0)));
    }
    (nodes, apps, jobs, placement)
}

/// What a verdict is, for the coverage tally.
fn kind(verdict: &Result<(), SlaqError>) -> &'static str {
    match verdict {
        Ok(()) => "ok",
        Err(SlaqError::UnknownApp(_)) => "unknown app",
        Err(SlaqError::UnknownJob(_)) => "unknown job",
        Err(SlaqError::UnknownNode(_)) => "unknown node",
        Err(SlaqError::InvalidSpec(msg)) if msg.contains("instances") => "over max_instances",
        Err(SlaqError::InvalidSpec(_)) => "negative grant",
        Err(SlaqError::CapacityViolation { detail, .. }) if detail.starts_with("cpu") => {
            "cpu overflow"
        }
        Err(SlaqError::CapacityViolation { .. }) => "memory overflow",
        Err(_) => "other",
    }
}

/// `validate_with` over linear lookups into the same slices; `last`
/// resolves a repeated id to its last copy (the mutation), else the
/// first match wins as everywhere else.
fn lookup_validate(
    placement: &Placement,
    nodes: &[NodeCapacity],
    apps: &[AppRequest],
    jobs: &[JobRequest],
    last: bool,
) -> Result<(), SlaqError> {
    fn at<T>(items: &[T], last: bool, is: impl Fn(&T) -> bool) -> Option<usize> {
        if last {
            items.iter().rposition(is)
        } else {
            items.iter().position(is)
        }
    }
    placement.validate_with(
        nodes,
        |id| at(nodes, last, |n| n.id == id),
        |id| {
            let app = &apps[at(apps, last, |a| a.id == id)?];
            Some((app.mem_per_instance, app.max_instances))
        },
        |id| Some(jobs[at(jobs, last, |j| j.id == id)?].mem),
    )
}

/// The verdicts on the world drawn from `seed`: the naive oracle's, the
/// slice form's, the lookup-driven body's, and the mutation's.
fn verdicts(seed: u64) -> [Result<(), SlaqError>; 4] {
    let (nodes, apps, jobs, placement) = gen_world(&mut TestRng::new(seed));
    [
        naive_validate(&placement, &nodes, &apps, &jobs),
        placement.validate(&nodes, &apps, &jobs),
        lookup_validate(&placement, &nodes, &apps, &jobs, false),
        lookup_validate(&placement, &nodes, &apps, &jobs, true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed method and the lookup-driven body return what the
    /// naive oracle returns.
    #[test]
    fn prop_indexed_validate_equals_the_naive_oracle(seed in 0u64..u64::MAX) {
        let [naive, indexed, lookup, _] = verdicts(seed);
        prop_assert_eq!(&naive, &indexed, "seed {}", seed);
        prop_assert_eq!(&naive, &lookup, "seed {}", seed);
    }
}

/// The generator reaches every verdict the method can give, so the
/// property above compares more than one kind of answer; and lookups
/// that resolve a repeated id to the wrong copy change some of them.
#[test]
fn the_oracle_sees_every_kind_of_verdict() {
    let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut caught = 0usize;
    for seed in 0..4000 {
        let [naive, indexed, lookup, last_copy] = verdicts(seed);
        assert_eq!(naive, indexed, "seed {seed}");
        assert_eq!(naive, lookup, "seed {seed}");
        *seen.entry(kind(&naive)).or_default() += 1;
        caught += usize::from(last_copy != naive);
    }
    println!("slice form ≡ lookup-driven body ≡ naive over 4000 worlds: {seen:?}");
    for expected in [
        "ok",
        "unknown app",
        "unknown job",
        "unknown node",
        "over max_instances",
        "negative grant",
        "cpu overflow",
        "memory overflow",
    ] {
        assert!(
            seen.get(expected).is_some_and(|&n| n >= 20),
            "{expected}: {seen:?}"
        );
    }
    assert!(!seen.contains_key("other"), "{seen:?}");
    println!("a repeated id resolved to its last copy: caught in {caught} of 4000 worlds");
    assert!(caught >= 100, "{caught}");
}
