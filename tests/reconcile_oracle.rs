//! The reconcile oracle.
//!
//! `core::pipeline::reconcile` reads the live world by node position:
//! one `Interner` over `inputs.nodes`, the plan's residual CPU and memory
//! folded into two flat vectors by `Placement::residual_into`, one
//! `retain` over the plan's jobs for both drops, one helper for every
//! "keep this job at its live node" step, and the clamp guard tallying by
//! position. That is a pure cost rewrite: every float must be formed in
//! the order the id-keyed ledgers formed it. The body it replaced is kept
//! verbatim in `naive_reconcile/mod.rs`; the sweep below holds the shipped
//! function to it — the same plan, bit for bit, and the same
//! `ReconcileOutcome` — over seeded stale worlds: completed and unknown
//! jobs, dead and unknown nodes, running jobs the snapshot never saw
//! (grafted back, or moved by the plan and kept in place), drift
//! migrations and forced suspends under a change budget, nodes loaded to
//! within an ulp of the clamp guard's 1e-6 CPU tolerance, and nodes
//! overcommitted in memory only. It prints a tally of what it saw, holds
//! it to floors, and ends on a mutation the comparison must catch: a
//! ledger that charges the jobs before the application slices.

mod naive_reconcile;

use proptest::TestRng;
use slaq::core::reconcile;
use slaq::jobs::{JobManager, JobSpec};
use slaq::perfmodel::TransactionalSpec;
use slaq::placement::{NodeCapacity, Placement};
use slaq::sim::{AppObservation, ControlInputs};
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId, SimDuration, SimTime, Work};
use slaq::utility::{CompletionGoal, ResponseTimeGoal};
use std::collections::BTreeMap;

/// Node ids a placement may name; the live world knows some of them.
const NODE_SPAN: u32 = 10;
/// Application ids a placement may name; id 3 is never known.
const APP_SPAN: u32 = 4;

fn job_spec(mem: u64) -> JobSpec {
    JobSpec {
        name: "stale".into(),
        total_work: Work::from_power_secs(CpuMhz::new(3000.0), 1000.0),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(mem),
        goal: CompletionGoal::relative(SimTime::ZERO, SimDuration::from_secs(1000.0), 1.25, 2.0)
            .expect("valid goal"),
        importance: 1.0,
    }
}

fn app(id: u32, mem: u64) -> AppObservation {
    AppObservation {
        id: AppId::new(id),
        spec: TransactionalSpec {
            name: format!("app{id}"),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).expect("valid goal"),
            mem_per_instance: MemMb::new(mem),
            max_instances: 8,
            min_instances: 1,
            u_cap: 0.9,
        },
        lambda: 10.0,
        affinity: Vec::new(),
    }
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

/// A grant: now and then zero, else up to 3 000 MHz in no round number.
fn grant(rng: &mut TestRng) -> CpuMhz {
    CpuMhz::new(if rng.below(8) == 0 {
        0.0
    } else {
        rng.unit_f64() * 3000.0
    })
}

/// A node to place something on: mostly one the live world knows.
fn some_node(rng: &mut TestRng, nodes: &[NodeCapacity]) -> NodeId {
    if nodes.is_empty() || rng.below(4) == 0 {
        NodeId::new(rng.below(NODE_SPAN as u64) as u32)
    } else {
        nodes[rng.below(nodes.len() as u64) as usize].id
    }
}

/// One stale plan and the live world it is enacted against.
struct World {
    nodes: Vec<NodeCapacity>,
    apps: Vec<AppObservation>,
    jobs: JobManager,
    current: Placement,
    snapshot: Placement,
    plan: Placement,
    max_changes: Option<usize>,
}

impl World {
    fn draw(rng: &mut TestRng) -> World {
        // The live nodes: a contiguous run in id order (the interner's
        // offset path) or a shuffled subset of the span; some dead.
        let n_nodes = 1 + rng.below(7) as usize;
        let ids: Vec<u32> = if rng.below(2) == 0 {
            let base = rng.below(3) as u32;
            (base..base + n_nodes as u32).collect()
        } else {
            shuffled_ids(rng, n_nodes, NODE_SPAN)
        };
        let nodes: Vec<NodeCapacity> = ids
            .into_iter()
            .map(|id| NodeCapacity {
                id: NodeId::new(id),
                cpu: CpuMhz::new(if rng.below(6) == 0 {
                    0.0
                } else {
                    [4000.0, 6000.0, 9000.0, 12_000.0][rng.below(4) as usize]
                }),
                mem: MemMb::new([2048, 4096, 8192][rng.below(3) as usize]),
            })
            .collect();
        let mut apps = Vec::new();
        for id in 0..APP_SPAN - 1 {
            if rng.below(4) != 0 {
                apps.push(app(id, [512, 1024][rng.below(2) as usize]));
            }
        }

        // Jobs: pending, running (in the live placement) or completed.
        let n_jobs = rng.below(15) as u32;
        let mut jobs = JobManager::new();
        let mut current = Placement::empty();
        let mut completed = Vec::new();
        for j in 0..n_jobs {
            let id = jobs
                .submit(
                    job_spec([640, 1280, 2560][rng.below(3) as usize]),
                    SimTime::ZERO,
                )
                .expect("valid job");
            assert_eq!(id, JobId::new(j));
            match rng.below(4) {
                0 => {}
                1 => {
                    let job = jobs.job_mut(id).expect("submitted");
                    job.start(NodeId::new(0), SimTime::ZERO).expect("pending");
                    job.advance(
                        CpuMhz::new(3000.0),
                        SimTime::ZERO,
                        SimDuration::from_secs(2000.0),
                    );
                    assert!(!job.is_active());
                    completed.push(id);
                }
                _ => {
                    let node = some_node(rng, &nodes);
                    let job = jobs.job_mut(id).expect("submitted");
                    job.start(node, SimTime::ZERO).expect("pending");
                    current.jobs.insert(id, (node, grant(rng)));
                }
            }
        }

        // The placement in force when the plan was solved: half the
        // running jobs, some since moved by an interim plan, and some
        // jobs that have completed since.
        let mut snapshot = Placement::empty();
        for (&job, &(node, alloc)) in &current.jobs {
            if rng.below(3) == 0 {
                let at = if rng.below(2) == 0 {
                    node
                } else {
                    some_node(rng, &nodes)
                };
                snapshot.jobs.insert(job, (at, alloc));
            }
        }
        for &job in &completed {
            if rng.below(3) == 0 {
                snapshot
                    .jobs
                    .insert(job, (some_node(rng, &nodes), grant(rng)));
            }
        }

        // The stale plan, over every job and two the manager never saw.
        let mut plan = Placement::empty();
        for j in 0..n_jobs + 2 {
            let job = JobId::new(j);
            let choice = rng.below(4);
            let at = match (snapshot.jobs.get(&job), current.jobs.get(&job)) {
                (Some(&(node, _)), _) => match choice {
                    0 | 1 => Some(node),
                    2 => Some(some_node(rng, &nodes)),
                    _ => None,
                },
                (None, Some(&(node, _))) => match choice {
                    0 | 1 => None,
                    2 => Some(node),
                    _ => Some(some_node(rng, &nodes)),
                },
                (None, None) => (choice < 2).then(|| some_node(rng, &nodes)),
            };
            if let Some(node) = at {
                plan.jobs.insert(job, (node, grant(rng)));
            }
        }
        for a in 0..APP_SPAN {
            if rng.below(3) != 0 {
                let slices = plan.apps.entry(AppId::new(a)).or_default();
                for _ in 0..1 + rng.below(3) {
                    slices.insert(some_node(rng, &nodes), grant(rng));
                }
            }
        }
        // The live placement holds about half of the plan's instances, so
        // the budget sees instance starts as well as job changes.
        for (&app, slices) in &plan.apps {
            for &node in slices.keys() {
                if rng.below(2) == 0 {
                    current
                        .apps
                        .entry(app)
                        .or_default()
                        .insert(node, CpuMhz::new(500.0));
                }
            }
        }

        // Tighten some live nodes: their plan load is rewritten to fill
        // the node in unequal shares that do not add up exactly, the last
        // one nudged to within an ulp or two of the 1e-6 tolerance, so the
        // order the shares are charged in decides the residual's last bits.
        for node in &nodes {
            if node.cpu.is_zero() || rng.below(2) != 0 {
                continue;
            }
            let cap = node.cpu.as_f64();
            let fill = [0.9, 0.97, 1.0, 1.2][rng.below(4) as usize];
            let nudge = [0.0, 1e-6 - 9e-13, 1e-6, 1e-6 + 9e-13, 3e-6][rng.below(5) as usize];
            let mut shares: Vec<&mut CpuMhz> = plan
                .apps
                .values_mut()
                .filter_map(|slices| slices.get_mut(&node.id))
                .chain(
                    plan.jobs
                        .values_mut()
                        .filter(|(at, _)| *at == node.id)
                        .map(|(_, cpu)| cpu),
                )
                .collect();
            let weights: Vec<f64> = shares.iter().map(|_| 1.0 + rng.below(7) as f64).collect();
            let total: f64 = weights.iter().sum();
            let parts = shares.len();
            for (k, (share, w)) in shares.iter_mut().zip(&weights).enumerate() {
                **share =
                    CpuMhz::new(cap * fill * w / total + if k + 1 == parts { nudge } else { 0.0 });
            }
        }

        let max_changes = (rng.below(3) != 0).then(|| rng.below(6) as usize);
        World {
            nodes,
            apps,
            jobs,
            current,
            snapshot,
            plan,
            max_changes,
        }
    }

    fn inputs(&self) -> ControlInputs<'_> {
        ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &self.nodes,
            current: &self.current,
            jobs: &self.jobs,
            apps: &self.apps,
        }
    }

    fn capacity(&self, node: NodeId) -> Option<&NodeCapacity> {
        self.nodes.iter().find(|n| n.id == node)
    }

    fn alive(&self, node: NodeId) -> bool {
        self.capacity(node).is_some_and(|n| !n.cpu.is_zero())
    }

    /// The plan as the clamp guard first sees it, less the grafts: its
    /// completed, unknown and dead-node assignments dropped.
    fn after_drops(&self) -> Placement {
        let mut plan = self.plan.clone();
        plan.jobs.retain(|&job, &mut (node, _)| {
            self.jobs.job(job).is_ok_and(|j| j.is_active()) && self.alive(node)
        });
        for slices in plan.apps.values_mut() {
            slices.retain(|&node, _| self.alive(node));
        }
        plan
    }

    fn mem_on(&self, plan: &Placement, node: NodeId) -> MemMb {
        let app_mem = |app: AppId| {
            self.apps
                .iter()
                .find(|a| a.id == app)
                .map_or(MemMb::ZERO, |a| a.spec.mem_per_instance)
        };
        let apps: MemMb = plan
            .apps
            .iter()
            .filter(|(_, slices)| slices.contains_key(&node))
            .map(|(&app, _)| app_mem(app))
            .sum();
        let jobs: MemMb = plan
            .jobs
            .iter()
            .filter(|&(_, &(at, _))| at == node)
            .map(|(&job, _)| self.jobs.job(job).map_or(MemMb::ZERO, |j| j.spec.mem))
            .sum();
        apps + jobs
    }
}

#[test]
fn positional_reconcile_equals_the_id_keyed_ledgers() {
    const WORLDS: u64 = 6000;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut caught, mut bound) = (0usize, 0usize);
    for seed in 0..WORLDS {
        let rng = &mut TestRng::new(seed);
        let world = World::draw(rng);
        let inputs = world.inputs();

        let mut shipped = world.plan.clone();
        let got = reconcile(&mut shipped, &world.snapshot, &inputs, world.max_changes);
        let mut naive = world.plan.clone();
        let want = naive_reconcile::reconcile(
            &mut naive,
            &world.snapshot,
            &inputs,
            world.max_changes,
            false,
        );
        assert_eq!(got, want, "seed {seed}: outcome");
        // Compared through `Debug`, which prints every float's shortest
        // round-trip form: `PartialEq` would let -0.0 pass for 0.0.
        assert_eq!(
            format!("{shipped:?}"),
            format!("{naive:?}"),
            "seed {seed}: plan"
        );

        let mut mutant = world.plan.clone();
        let mutant_out = naive_reconcile::reconcile(
            &mut mutant,
            &world.snapshot,
            &inputs,
            world.max_changes,
            true,
        );
        let mutant_caught = mutant_out != want || format!("{mutant:?}") != format!("{naive:?}");
        caught += usize::from(mutant_caught);

        let mut saw = |what: &'static str, seen: bool| {
            *tally.entry(what).or_default() += usize::from(seen);
        };
        saw("dropped_inactive", want.dropped_inactive > 0);
        saw("dropped_dead", want.dropped_dead > 0);
        saw("grafted", want.grafted > 0);
        saw("kept_in_place", want.kept_in_place > 0);
        saw("clamped", want.clamped > 0);
        saw("cancelled", want.cancelled > 0);
        saw(
            "unknown job planned",
            world.plan.jobs.keys().any(|&j| world.jobs.job(j).is_err()),
        );
        saw(
            "completed job planned",
            world
                .plan
                .jobs
                .keys()
                .any(|&j| world.jobs.job(j).is_ok_and(|job| !job.is_active())),
        );
        let planned_nodes = || {
            let slices = world.plan.apps.values().flat_map(|s| s.keys().copied());
            slices.chain(world.plan.jobs.values().map(|&(node, _)| node))
        };
        saw(
            "dead node planned",
            planned_nodes().any(|n| world.capacity(n).is_some_and(|c| c.cpu.is_zero())),
        );
        saw(
            "unknown node planned",
            planned_nodes().any(|n| world.capacity(n).is_none()),
        );
        saw(
            "node ids by offset",
            world
                .nodes
                .windows(2)
                .all(|w| w[1].id.raw() == w[0].id.raw() + 1),
        );
        saw(
            "drift migration reverted",
            world.snapshot.jobs.keys().any(|job| {
                let live = world.current.jobs.get(job).map(|&(n, _)| n);
                let planned = world.plan.jobs.get(job).map(|&(n, _)| n);
                live.is_some()
                    && planned.is_some()
                    && live != planned
                    && naive.job_node(*job) == live
            }),
        );
        saw(
            "budget overshot by forced repairs",
            world
                .max_changes
                .is_some_and(|cap| naive.diff(&world.current).len() > cap),
        );
        // A job kept at its live node whose grant the residual cut short:
        // where the mutation can bite.
        let residual_bound = world.current.jobs.iter().any(|(job, &(node, live_alloc))| {
            let asked = match world.plan.jobs.get(job) {
                Some(&(at, alloc)) if at != node => alloc,
                None => live_alloc,
                Some(_) => return false,
            };
            !world.snapshot.jobs.contains_key(job)
                && naive.jobs.get(job).is_some_and(|&(at, got)| {
                    at == node && got.as_f64() > 0.0 && got.as_f64() < asked.as_f64()
                })
        });
        saw("grant bound by the residual", residual_bound);
        bound += usize::from(residual_bound);
        let dropped = world.after_drops();
        let over =
            |node: &NodeCapacity| dropped.node_cpu_used(node.id).as_f64() - node.cpu.as_f64();
        let live_nodes = || world.nodes.iter().filter(|n| !n.cpu.is_zero());
        saw(
            "cpu over, inside the tolerance",
            live_nodes().any(|n| over(n) > 0.0 && over(n) <= 1e-6),
        );
        saw(
            "cpu over, just past the tolerance",
            live_nodes().any(|n| over(n) > 1e-6 && over(n) < 2e-6),
        );
        saw(
            "memory over, cpu within",
            live_nodes().any(|n| over(n) <= 0.0 && !n.mem.fits(world.mem_on(&dropped, n.id))),
        );
    }
    println!("positional reconcile ≡ id-keyed ledgers over {WORLDS} worlds: {tally:?}");
    for (what, seen) in &tally {
        assert!(*seen >= 100, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 17, "{tally:?}");
    // The mutation check: a ledger that charges the jobs before the
    // application slices moves a residual's last bits only where both
    // kinds share a node and the sums round apart, and the plan only
    // where such a residual bounds a grant.
    println!(
        "ledger charged jobs before applications: caught in {caught} worlds; \
         {bound} worlds have a grant bound by the residual"
    );
    assert!(caught >= 100 && caught * 6 >= bound, "{caught} of {bound}");
}
