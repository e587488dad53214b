//! The `DeltaTracker` oracle.
//!
//! The tracker diffs consecutive sensed worlds by *position* — one zip
//! per slice over flat fingerprint vectors — instead of rebuilding three
//! id-keyed maps every cycle, and reports seven counts instead of seven
//! id vectors. That is a pure cost optimisation: as long as the node and
//! app slices keep their order (the simulator's do) every count must be
//! the length of the vector the old body built. The map-based body is
//! kept here verbatim as `NaiveTracker::observe` and compared with the
//! shipped tracker over seeded multi-cycle worlds.

use proptest::TestRng;
use slaq::jobs::{JobManager, JobSpec, JobState};
use slaq::perfmodel::TransactionalSpec;
use slaq::placement::problem::NodeCapacity;
use slaq::placement::{Placement, SolveDelta};
use slaq::sim::{AppObservation, ControlInputs, DeltaTracker};
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId, SimDuration, SimTime, Work};
use slaq::utility::{CompletionGoal, ResponseTimeGoal};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
struct JobPrint {
    node: Option<NodeId>,
    tag: u8,
    remaining: f64,
}

/// `DeltaTracker` as it stood with id-keyed maps and id vectors (its
/// tolerance fixed at the 0.0 the simulator always passed).
#[derive(Default)]
struct NaiveTracker {
    primed: bool,
    nodes: BTreeMap<NodeId, (f64, u64)>,
    apps: BTreeMap<AppId, f64>,
    jobs: BTreeMap<JobId, JobPrint>,
    /// The mutation check: a tracker that forgot the node clause.
    forget_node_moves: bool,
}

impl NaiveTracker {
    fn observe(&mut self, inputs: &ControlInputs<'_>) -> SolveDelta {
        let tolerance = 0.0;
        let mut arrived_jobs = Vec::new();
        let mut completed_jobs = Vec::new();
        let mut resized_jobs = Vec::new();
        let mut dead_nodes = Vec::new();
        let mut recovered_nodes = Vec::new();
        let mut capacity_changed_nodes = Vec::new();
        let mut drifted_apps = Vec::new();
        let drifted = |old: f64, new: f64, tol: f64| (new - old).abs() > tol * old.abs().max(1.0);

        let mut cur_nodes = BTreeMap::new();
        for n in inputs.nodes {
            cur_nodes.insert(n.id, (n.cpu.as_f64(), n.mem.as_u64()));
        }
        if self.primed {
            for (&id, &(cpu, mem)) in &cur_nodes {
                match self.nodes.get(&id) {
                    None => recovered_nodes.push(id),
                    Some(&(old_cpu, old_mem)) => {
                        if old_cpu == 0.0 && cpu > 0.0 {
                            recovered_nodes.push(id);
                        } else if old_cpu > 0.0 && cpu == 0.0 {
                            dead_nodes.push(id);
                        } else if (old_cpu, old_mem) != (cpu, mem) {
                            capacity_changed_nodes.push(id);
                        }
                    }
                }
            }
            for &id in self.nodes.keys() {
                if !cur_nodes.contains_key(&id) {
                    dead_nodes.push(id);
                }
            }
        }

        let mut cur_apps = BTreeMap::new();
        for a in inputs.apps {
            cur_apps.insert(a.id, a.lambda);
        }
        if self.primed {
            for (&id, &lambda) in &cur_apps {
                match self.apps.get(&id) {
                    None => drifted_apps.push(id),
                    Some(&old) if drifted(old, lambda, tolerance) => drifted_apps.push(id),
                    Some(_) => {}
                }
            }
            for &id in self.apps.keys() {
                if !cur_apps.contains_key(&id) {
                    drifted_apps.push(id);
                }
            }
        }

        let mut cur_jobs = BTreeMap::new();
        for job in inputs.jobs.jobs() {
            let tag = match job.state {
                JobState::Pending => 0u8,
                JobState::Running { .. } => 1,
                JobState::Suspended { .. } => 2,
                JobState::Completed { .. } => continue,
            };
            cur_jobs.insert(
                job.id,
                JobPrint {
                    node: job.state.node(),
                    tag,
                    remaining: job.remaining.as_f64(),
                },
            );
        }
        for (&id, print) in &cur_jobs {
            match self.jobs.get(&id) {
                None => arrived_jobs.push(id),
                Some(old) => {
                    if old.tag != print.tag
                        || (old.node != print.node && !self.forget_node_moves)
                        || drifted(old.remaining, print.remaining, tolerance)
                    {
                        resized_jobs.push(id);
                    }
                }
            }
        }
        if self.primed {
            for &id in self.jobs.keys() {
                if !cur_jobs.contains_key(&id) {
                    completed_jobs.push(id);
                }
            }
        }

        self.primed = true;
        self.nodes = cur_nodes;
        self.apps = cur_apps;
        self.jobs = cur_jobs;
        SolveDelta {
            arrived_jobs: arrived_jobs.len(),
            completed_jobs: completed_jobs.len(),
            resized_jobs: resized_jobs.len(),
            dead_nodes: dead_nodes.len(),
            recovered_nodes: recovered_nodes.len(),
            capacity_changed_nodes: capacity_changed_nodes.len(),
            drifted_apps: drifted_apps.len(),
        }
    }
}

const BASE_CPU: f64 = 12_000.0;

fn job_spec() -> JobSpec {
    JobSpec {
        name: "churn".into(),
        total_work: Work::from_power_secs(CpuMhz::new(3000.0), 3000.0),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(1280),
        goal: CompletionGoal::relative(SimTime::ZERO, SimDuration::from_secs(3000.0), 1.25, 2.0)
            .expect("valid goal"),
        importance: 1.0,
    }
}

fn app(id: u32, lambda: f64) -> AppObservation {
    AppObservation {
        id: AppId::new(id),
        spec: TransactionalSpec {
            name: format!("app{id}"),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).expect("valid goal"),
            mem_per_instance: MemMb::new(1024),
            max_instances: 8,
            min_instances: 1,
            u_cap: 0.9,
        },
        lambda,
        affinity: Vec::new(),
    }
}

/// A small world that moves between observations the ways the
/// simulator's does; node and app slices keep their order throughout.
struct World {
    nodes: Vec<NodeCapacity>,
    apps: Vec<AppObservation>,
    jobs: JobManager,
    current: Placement,
    now: SimTime,
}

impl World {
    fn new(rng: &mut TestRng) -> World {
        let nodes = (0..2 + rng.below(5) as u32)
            .map(|id| NodeCapacity {
                id: NodeId::new(id),
                cpu: CpuMhz::new(BASE_CPU),
                mem: MemMb::new(4096),
            })
            .collect();
        let apps = (0..rng.below(4) as u32).map(|id| app(id, 20.0)).collect();
        let mut world = World {
            nodes,
            apps,
            jobs: JobManager::new(),
            current: Placement::empty(),
            now: SimTime::ZERO,
        };
        // Some worlds are already populated (finished jobs included)
        // when the unprimed tracker first looks.
        for _ in 0..rng.below(3) {
            world.step(rng);
        }
        world
    }

    fn node(&self, rng: &mut TestRng) -> NodeId {
        self.nodes[rng.below(self.nodes.len() as u64) as usize].id
    }

    /// One control period of churn; one time in six, none at all.
    fn step(&mut self, rng: &mut TestRng) {
        let period = SimDuration::from_secs(600.0);
        if rng.below(6) == 0 {
            self.now += period;
            return;
        }
        for _ in 0..rng.below(3) {
            let id = self.jobs.submit(job_spec(), self.now).expect("valid spec");
            if rng.below(5) == 0 {
                // Arrives *and* completes before the tracker looks again.
                let node = self.node(rng);
                let job = self.jobs.job_mut(id).expect("just submitted");
                job.start(node, self.now).expect("pending");
                job.advance(
                    CpuMhz::new(3000.0),
                    self.now,
                    SimDuration::from_secs(4000.0),
                );
            }
        }
        for i in 0..self.jobs.len() {
            let (node, other) = (self.node(rng), self.node(rng));
            let now = self.now;
            let job = self.jobs.job_mut(JobId::new(i as u32)).expect("listed");
            match (job.state, rng.below(8)) {
                (JobState::Pending, 0..=2) => job.start(node, now).expect("pending"),
                (JobState::Running { .. }, 0) => job.suspend().expect("running"),
                // A bare node move: same lifecycle tag, same work left.
                (JobState::Running { node: at }, 1) if at != other => {
                    job.migrate(other).expect("running")
                }
                // `remaining` drift, now and then down to completion.
                (JobState::Running { .. }, 2..=5) => {
                    let dt = [60.0, 600.0, 4000.0][rng.below(3) as usize];
                    job.advance(CpuMhz::new(2500.0), now, SimDuration::from_secs(dt));
                }
                // Elasticity: the work left is rewritten in place.
                (JobState::Running { .. }, 6) => job.remaining = job.remaining * 1.5,
                (JobState::Suspended { .. }, 0..=2) => job.resume(node).expect("suspended"),
                _ => {}
            }
        }
        for n in &mut self.nodes {
            n.cpu = match (n.cpu.as_f64(), rng.below(12)) {
                (cpu, 0) if cpu > 0.0 => CpuMhz::ZERO,          // outage
                (0.0, 1..=4) => CpuMhz::new(BASE_CPU),          // recovery
                (BASE_CPU, 1) => CpuMhz::new(BASE_CPU * 0.6),   // capacity dip
                (cpu, 2) if cpu > 0.0 => CpuMhz::new(BASE_CPU), // dip ends
                (cpu, _) => CpuMhz::new(cpu),
            };
            if rng.below(40) == 0 {
                n.mem = MemMb::new(8192);
            }
        }
        for a in &mut self.apps {
            if rng.below(2) == 0 {
                a.lambda += rng.unit_f64() - 0.5; // λ drift
            }
        }
        self.now += period;
    }

    fn inputs(&self) -> ControlInputs<'_> {
        ControlInputs {
            now: self.now,
            nodes: &self.nodes,
            current: &self.current,
            jobs: &self.jobs,
            apps: &self.apps,
        }
    }
}

/// Both trackers' reports over the world sequence drawn from `seed`,
/// the first from an unprimed tracker.
fn reports(seed: u64, forget_node_moves: bool) -> Vec<(SolveDelta, SolveDelta)> {
    let rng = &mut TestRng::new(seed);
    let mut world = World::new(rng);
    let mut shipped = DeltaTracker::default();
    let mut naive = NaiveTracker {
        forget_node_moves,
        ..NaiveTracker::default()
    };
    (0..4 + rng.below(8))
        .map(|_| {
            let inputs = world.inputs();
            let pair = (naive.observe(&inputs), shipped.observe(&inputs));
            world.step(rng);
            pair
        })
        .collect()
}

/// Over 2 500 seeded sequences the positional tracker counts what the
/// map-based one listed, and the sequences reach every category.
#[test]
fn positional_tracker_counts_what_the_map_tracker_listed() {
    let mut fired: BTreeMap<&'static str, usize> = BTreeMap::new();
    for seed in 0..2500 {
        for (cycle, (naive, shipped)) in reports(seed, false).into_iter().enumerate() {
            assert_eq!(naive, shipped, "seed {seed}, cycle {cycle}");
            for (category, count) in [
                ("arrived", naive.arrived_jobs),
                ("completed", naive.completed_jobs),
                ("resized", naive.resized_jobs),
                ("dead", naive.dead_nodes),
                ("recovered", naive.recovered_nodes),
                ("capacity changed", naive.capacity_changed_nodes),
                ("drifted", naive.drifted_apps),
                ("nothing", usize::from(naive.is_empty())),
                (
                    "in-place churn only",
                    usize::from(!naive.is_empty() && !naive.is_structural()),
                ),
            ] {
                *fired.entry(category).or_default() += usize::from(count > 0);
            }
        }
    }
    for (category, &cycles) in &fired {
        assert!(cycles >= 200, "{category}: {fired:?}");
    }
}

/// The sweep has teeth: a tracker that forgot the `old.node != print.node`
/// clause disagrees with the shipped one on some sequence.
#[test]
fn the_sweep_catches_a_tracker_that_forgot_node_moves() {
    let caught = (0..2500).any(|seed| {
        reports(seed, true)
            .iter()
            .any(|(mutant, shipped)| mutant != shipped)
    });
    assert!(
        caught,
        "no sequence moves a job without touching its tag or work"
    );
}

/// A node slice whose ids left their positions is reported wholesale and
/// structural, whatever else happened; an app slice likewise, as drift.
#[test]
fn moved_ids_are_reported_as_structural() {
    let rng = &mut TestRng::new(7);
    let mut world = World::new(rng);
    world.apps = vec![app(0, 20.0), app(1, 30.0)];
    let mut tracker = DeltaTracker::default();
    tracker.observe(&world.inputs());
    let quiet = tracker.observe(&world.inputs());
    assert!(quiet.is_empty(), "{quiet:?}");

    let n = world.nodes.len();
    world.nodes.swap(0, 1);
    let swapped = tracker.observe(&world.inputs());
    assert!(swapped.is_structural(), "{swapped:?}");
    assert_eq!((swapped.dead_nodes, swapped.recovered_nodes), (n, n));

    world.nodes.pop();
    let shrunk = tracker.observe(&world.inputs());
    assert!(shrunk.is_structural(), "{shrunk:?}");
    assert_eq!((shrunk.dead_nodes, shrunk.recovered_nodes), (n, n - 1));

    world.apps.swap(0, 1);
    let apps_moved = tracker.observe(&world.inputs());
    assert_eq!(apps_moved.drifted_apps, 4, "{apps_moved:?}");
    assert_eq!(apps_moved.len(), 4, "nodes and jobs kept still");
}
