//! The per-node progress oracle.
//!
//! The simulator integrates running jobs' progress node by node
//! (`slaq_sim::Progress`): each node keeps an epoch — the instant its
//! live jobs' `remaining` is exact at — and a key, its earliest
//! completion measured from the epoch, in a min tree whose root is the
//! next completion. The top of an event integrates the nodes the speed
//! index has marked, at the speeds they ran at, before the flush
//! recomputes them, and re-keys them after; a completion integrates only
//! the nodes whose key is due; a resize its target's node; a control
//! instant, the horizon and an outage strip every running job. Splitting
//! each job's `speed · dt` only where its own node's speeds moved sums
//! the same products in other steps, so floats move in their last bits:
//! this is a tolerance oracle, not a bit-for-bit one.
//!
//! Two bodies are kept as oracles. The per-event body — `advance_running`
//! at every breakpoint and the next completion re-derived from `now` —
//! is `naive_next_completion` (the simulator's scan verbatim) and the
//! `Side::Naive` arm of `run`. The global-epoch body that came between
//! — one instant for every job, integrated at every event but a lone
//! arrival — is `naive_progress::Progress`, kept verbatim, driven by the
//! `Side::Global` arm as the simulator drove it.
//!
//! Seeded multi-node worlds drive all three through a real `NodeSpeeds`
//! index, each side on its own copy: jobs start, migrate, get suspended
//! and resumed at control instants, pay placement latencies (unblocks
//! mark their node), share their nodes' CPU, arrive at random instants
//! inside the speed epochs (some on a control instant, some on another
//! arrival's), get resized, lose their node to an outage strip, and
//! complete (each completion marks its node); capacity boundaries mark
//! some nodes — a capacity may stay — or all of them. Two identical jobs
//! alone on two identical nodes finish at one instant, in one due set.
//! Every side must complete the same jobs at the same instants within
//! 1 ns — the completions of one instant compared as a set, since the
//! per-node side retires them node by node — and every `remaining`
//! wherever it is read (a control instant, a resize's target, the
//! horizon) must agree within 1e-12 of the job's total work.
//!
//! The per-node side also holds itself, as the event loop's
//! `debug_assert!`s do, to a fresh derivation of every key, bit for bit,
//! at every breakpoint, and to every epoch being `now` at a control
//! instant, at the horizon and at a resized job's node. At random
//! breakpoints it re-keys a node whose epoch is behind `now`, which must
//! change nothing. The sweep prints a tally with floors and ends on two
//! mutations it must catch: a marked node integrated after its flush (at
//! its new speeds), and a key measured from `now` instead of its node's
//! epoch.

mod naive_progress;

use proptest::TestRng;
use slaq::jobs::{JobManager, JobSpec, JobState};
use slaq::placement::problem::NodeCapacity;
use slaq::placement::Placement;
use slaq::sim::{NodeSpeeds, Progress};
use slaq::types::{CpuMhz, JobId, MemMb, NodeId, SimDuration, SimTime, Work};
use slaq::utility::CompletionGoal;
use std::collections::BTreeMap;

const WORLDS: u64 = 2000;

/// The next completion as the per-event loop derived it, from `now`.
fn naive_next_completion(
    now: SimTime,
    jobs: &JobManager,
    speed_of: impl Fn(JobId) -> CpuMhz,
) -> SimTime {
    let mut earliest = SimTime::NEVER;
    for j in jobs.jobs() {
        if !j.is_running() {
            continue;
        }
        let speed = speed_of(j.id);
        if speed.is_zero() {
            continue;
        }
        let t = now + SimDuration::from_secs(j.remaining.secs_at(speed));
        earliest = earliest.min(t);
    }
    earliest
}

fn job(rng: &mut TestRng, submit: f64) -> JobSpec {
    let max_speed = CpuMhz::new(1000.0 + (rng.below(5) * 500) as f64);
    let secs = 500.0 + rng.unit_f64() * 4500.0;
    JobSpec {
        name: format!("j@{submit}"),
        total_work: Work::from_power_secs(max_speed, secs),
        max_speed,
        mem: MemMb::new(1024),
        goal: CompletionGoal::relative(
            SimTime::from_secs(submit),
            SimDuration::from_secs(secs),
            1.25,
            2.0,
        )
        .expect("valid goal"),
        importance: 1.0,
    }
}

/// A capacity boundary: the nodes it marks, every node when `None`.
struct Boundary {
    at: SimTime,
    nodes: Option<Vec<usize>>,
}

/// One seeded world. Everything a side decides along the way is drawn
/// from `seed` and the count of what happened so far, never from the
/// side's own floats.
struct World {
    seed: u64,
    /// The node list at the start.
    nodes: Vec<NodeCapacity>,
    /// The jobs running at the start, each with its node position.
    initial: Vec<(JobSpec, usize)>,
    /// The twin nodes: each hosts one of the last two initial jobs, which
    /// are equal, alone and untouched by every control, strip and
    /// boundary, so the two finish at one instant.
    twins: Option<[usize; 2]>,
    /// Ascending; several may share an instant.
    arrivals: Vec<(SimTime, JobSpec)>,
    /// Ascending control instants: jobs start, move, stop.
    controls: Vec<SimTime>,
    /// Ascending capacity boundaries.
    boundaries: Vec<Boundary>,
    /// Ascending outage strips: everything on the node is suspended.
    strips: Vec<(SimTime, usize)>,
    /// Ascending elasticity resizes: one active job's `remaining` is
    /// scaled and no speed moves.
    resizes: Vec<SimTime>,
    horizon: SimTime,
    /// Tally: arrivals drawn on a control instant or on another arrival.
    on_control: usize,
    on_arrival: usize,
}

fn capacity(rng: &mut TestRng) -> CpuMhz {
    CpuMhz::new(2000.0 + (rng.below(9) * 500) as f64)
}

/// Up to `most - 1` ascending instants in `[0, horizon)`.
fn instants(rng: &mut TestRng, most: u64, horizon: f64) -> Vec<SimTime> {
    let count = rng.below(most);
    let mut at: Vec<SimTime> = (0..count)
        .map(|_| SimTime::from_secs(rng.unit_f64() * horizon))
        .collect();
    at.sort_by(|a, b| a.total_cmp(*b));
    at
}

impl World {
    fn new(seed: u64) -> Self {
        let rng = &mut TestRng::new(seed);
        let horizon = 3000.0 + rng.unit_f64() * 12_000.0;
        let period = 200.0 + rng.unit_f64() * 1300.0;
        let controls: Vec<SimTime> = (1..)
            .map(|k| k as f64 * period)
            .take_while(|&t| t < horizon)
            .map(SimTime::from_secs)
            .collect();
        let shared = 2 + rng.below(6) as usize;
        let mut nodes: Vec<CpuMhz> = (0..shared).map(|_| capacity(rng)).collect();
        let mut initial: Vec<(JobSpec, usize)> = (0..2 + rng.below(9))
            .map(|_| (job(rng, 0.0), rng.below(shared as u64) as usize))
            .collect();
        let twins = (rng.below(2) == 0).then(|| {
            let cpu = capacity(rng);
            let spec = job(rng, 0.0);
            nodes.extend([cpu, cpu]);
            initial.push((spec.clone(), shared));
            initial.push((spec, shared + 1));
            [shared, shared + 1]
        });
        let (mut on_control, mut on_arrival) = (0, 0);
        let mut arrivals: Vec<f64> = Vec::new();
        for _ in 0..5 + rng.below(56) {
            let t = match rng.below(8) {
                0 if !controls.is_empty() => {
                    on_control += 1;
                    controls[rng.below(controls.len() as u64) as usize].as_secs()
                }
                1 if !arrivals.is_empty() => {
                    on_arrival += 1;
                    arrivals[rng.below(arrivals.len() as u64) as usize]
                }
                _ => rng.unit_f64() * horizon,
            };
            arrivals.push(t);
        }
        arrivals.sort_by(f64::total_cmp);
        let boundaries = instants(rng, 7, horizon)
            .into_iter()
            .map(|at| Boundary {
                at,
                nodes: (rng.below(4) != 0).then(|| {
                    let mut marked: Vec<usize> = (0..1 + rng.below(3))
                        .map(|_| rng.below(nodes.len() as u64) as usize)
                        .collect();
                    marked.sort_unstable();
                    marked.dedup();
                    marked
                }),
            })
            .collect();
        let strips = instants(rng, 4, horizon)
            .into_iter()
            .map(|at| (at, rng.below(shared as u64) as usize))
            .collect();
        let resizes = instants(rng, 5, horizon);
        let arrivals = arrivals
            .into_iter()
            .map(|t| (SimTime::from_secs(t), job(rng, t)))
            .collect();
        World {
            seed,
            nodes: nodes
                .into_iter()
                .enumerate()
                .map(|(pos, cpu)| NodeCapacity {
                    id: NodeId::new(pos as u32),
                    cpu,
                    mem: MemMb::new(1 << 20),
                })
                .collect(),
            initial,
            twins,
            arrivals,
            controls,
            boundaries,
            strips,
            resizes,
            horizon: SimTime::from_secs(horizon),
            on_control,
            on_arrival,
        }
    }

    /// Nodes other than the twins'.
    fn shared(&self) -> usize {
        self.twins.map_or(self.nodes.len(), |[a, _]| a)
    }

    fn is_twin(&self, job: JobId) -> bool {
        self.twins.is_some()
            && job.index() + 2 >= self.initial.len()
            && job.index() < self.initial.len()
    }

    /// Every job's total work, by id.
    fn totals(&self) -> Vec<f64> {
        let initial = self.initial.iter().map(|(s, _)| s);
        initial
            .chain(self.arrivals.iter().map(|(_, s)| s))
            .map(|s| s.total_work.as_f64())
            .collect()
    }
}

/// One side's copy of the world.
struct State {
    jobs: JobManager,
    placement: Placement,
    speeds: NodeSpeeds,
    caps: Vec<NodeCapacity>,
    /// Placement latencies still running: job → the instant it unblocks.
    blocked: BTreeMap<JobId, SimTime>,
    arrival: usize,
    control: usize,
    boundary: usize,
    strip: usize,
    resize: usize,
    now: SimTime,
}

impl State {
    fn new(world: &World) -> Self {
        let mut st = State {
            jobs: JobManager::new(),
            placement: Placement::empty(),
            speeds: NodeSpeeds::new(&world.nodes),
            caps: world.nodes.clone(),
            blocked: BTreeMap::new(),
            arrival: 0,
            control: 0,
            boundary: 0,
            strip: 0,
            resize: 0,
            now: SimTime::ZERO,
        };
        for (i, (spec, pos)) in world.initial.iter().enumerate() {
            let id = st.jobs.submit(spec.clone(), SimTime::ZERO).expect("submit");
            let node = NodeId::new(*pos as u32);
            st.jobs
                .job_mut(id)
                .expect("just submitted")
                .start(node, SimTime::ZERO)
                .expect("pending");
            let guarantee = if world.is_twin(id) {
                CpuMhz::ZERO
            } else {
                spec.max_speed * (0.1 * (i % 4) as f64)
            };
            st.placement.jobs.insert(id, (node, guarantee));
        }
        st.reindex(&Placement::empty());
        st
    }

    fn speed_of(&self) -> impl Fn(JobId) -> CpuMhz + '_ {
        |id| self.speeds.job_speed(id)
    }

    fn reindex(&mut self, from: &Placement) {
        let (jobs, blocked, now) = (&self.jobs, &self.blocked, self.now);
        self.speeds.update(
            from,
            &self.placement,
            |id| match jobs.job(id) {
                Ok(job) if job.is_running() => Some(job.spec.max_speed),
                _ => None,
            },
            |id| blocked.get(&id).is_some_and(|&t| t > now),
        );
    }

    fn flush(&mut self) -> usize {
        self.speeds.flush(&self.caps, false, |_| None).recomputed
    }

    fn retire(&mut self, done: &[(JobId, SimTime)]) {
        for &(job, _) in done {
            self.placement.jobs.remove(&job);
            self.blocked.remove(&job);
            self.speeds.complete_job(job);
        }
    }

    fn next_arrival(&self, world: &World) -> SimTime {
        world
            .arrivals
            .get(self.arrival)
            .map_or(SimTime::NEVER, |a| a.0)
    }

    /// Every scheduled instant but the arrivals: controls, boundaries,
    /// strips, resizes, unblocks and the horizon.
    fn next_scheduled(&self, world: &World) -> SimTime {
        let control = world.controls.get(self.control).copied();
        let boundary = world.boundaries.get(self.boundary).map(|b| b.at);
        let strip = world.strips.get(self.strip).map(|s| s.0);
        let resize = world.resizes.get(self.resize).copied();
        let unblock = self
            .blocked
            .values()
            .copied()
            .filter(|&t| t > self.now)
            .reduce(SimTime::min);
        [control, boundary, strip, resize, unblock]
            .into_iter()
            .flatten()
            .fold(world.horizon, SimTime::min)
    }

    /// Whether every `remaining` is read at `t`: a control instant or the
    /// horizon.
    fn reads_all_at(&self, world: &World, t: SimTime) -> bool {
        world.controls.get(self.control) == Some(&t) || t >= world.horizon
    }

    /// The `k`-th control: start a share of the pending jobs, suspend a
    /// share of the running ones, migrate some, resume a share of the
    /// suspended ones, each move paying a drawn latency; then re-index.
    fn enact(&mut self, world: &World, k: usize) {
        let rng = &mut TestRng::new(!world.seed ^ (k as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        let now = self.now;
        let from = self.placement.clone();
        for i in 0..self.jobs.len() {
            let id = JobId::new(i as u32);
            let roll = rng.below(20);
            let node = NodeId::new(rng.below(world.shared() as u64) as u32);
            let share = 0.5 * rng.unit_f64();
            let latency = [0.0, 0.0, 60.0, 150.0, 300.0][rng.below(5) as usize];
            if world.is_twin(id) {
                continue;
            }
            let job = self.jobs.job_mut(id).expect("dense ids");
            let guarantee = job.spec.max_speed * share;
            let placed = match job.state {
                JobState::Running { .. } if roll < 3 => {
                    job.suspend().expect("running");
                    self.placement.jobs.remove(&id);
                    self.blocked.remove(&id);
                    false
                }
                JobState::Running { .. } if roll == 3 => {
                    job.migrate(node).expect("running");
                    true
                }
                JobState::Pending if roll < 10 => {
                    job.start(node, now).expect("pending");
                    true
                }
                JobState::Suspended { .. } if roll < 8 => {
                    job.resume(node).expect("suspended");
                    true
                }
                _ => false,
            };
            if placed {
                self.placement.jobs.insert(id, (node, guarantee));
                if latency > 0.0 {
                    self.blocked
                        .insert(id, now + SimDuration::from_secs(latency));
                }
            }
        }
        self.reindex(&from);
    }

    /// The `k`-th boundary: new capacities on the nodes it marks (a
    /// twin's never moves, another's may stay), then the marks.
    fn cross(&mut self, world: &World, k: usize) {
        let rng = &mut TestRng::new(world.seed.rotate_left(41) ^ k as u64);
        let boundary = &world.boundaries[k];
        let marked: Vec<usize> = match &boundary.nodes {
            Some(nodes) => nodes.clone(),
            None => (0..self.caps.len()).collect(),
        };
        for &pos in &marked {
            let cpu = capacity(rng);
            if pos < world.shared() && rng.below(3) != 0 {
                self.caps[pos].cpu = cpu;
            }
        }
        match boundary.nodes {
            Some(_) => marked.iter().for_each(|&pos| self.speeds.mark(pos)),
            None => self.speeds.mark_all_dirty(),
        }
    }

    /// The `k`-th strip: everything on its node is suspended and the
    /// speeds re-indexed. Returns whether anything was stripped.
    fn strip(&mut self, world: &World, k: usize) -> bool {
        let node = NodeId::new(world.strips[k].1 as u32);
        let victims: Vec<JobId> = self
            .placement
            .jobs
            .iter()
            .filter(|&(_, &(n, _))| n == node)
            .map(|(&j, _)| j)
            .collect();
        if victims.is_empty() {
            return false;
        }
        let from = self.placement.clone();
        for job in victims {
            self.jobs
                .job_mut(job)
                .expect("placed")
                .suspend()
                .expect("running");
            self.placement.jobs.remove(&job);
            self.blocked.remove(&job);
        }
        self.reindex(&from);
        true
    }

    /// The `k`-th resize's target, as the simulator draws it: one active
    /// job with work left, and the factor it is scaled by.
    fn resize_target(&self, world: &World, k: usize) -> Option<(JobId, f64)> {
        let active: Vec<JobId> = self
            .jobs
            .jobs()
            .iter()
            .filter(|j| j.is_active() && j.remaining.as_f64() > 0.0)
            .map(|j| j.id)
            .collect();
        if active.is_empty() {
            return None;
        }
        let rng = &mut TestRng::new(world.seed.rotate_left(29) ^ k as u64);
        let target = active[rng.below(active.len() as u64) as usize];
        Some((target, [1.5, 0.5][rng.below(2) as usize]))
    }

    /// Latencies that ran out by now: their jobs start drawing CPU.
    fn unblock(&mut self) -> bool {
        let now = self.now;
        let before = self.blocked.len();
        let speeds = &mut self.speeds;
        self.blocked.retain(|&job, &mut t| {
            if t <= now {
                speeds.unblock(job);
            }
            t > now
        });
        self.blocked.len() < before
    }

    /// Every job's `remaining` into `log`, read at `now`.
    fn read_all(&self, log: &mut Log) {
        for j in self.jobs.jobs() {
            log.reads.push((self.now, j.id, j.remaining.as_f64()));
        }
    }
}

/// Which body integrates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    /// `advance_running` at every breakpoint, completions from `now`.
    Naive,
    /// The global-epoch `Progress` that came before the per-node one.
    Global,
    /// `slaq_sim::Progress`, as the event loop drives it.
    PerNode,
    /// Mutation: the marked nodes integrated after the flush, at their
    /// new speeds.
    LateCatchUp,
    /// Mutation: every key measured from `now` instead of its node's
    /// epoch.
    KeyFromNow,
}

/// What one side saw.
#[derive(Default)]
struct Log {
    /// Completions, merged per instant they were retired at: `(instant,
    /// completions)`.
    completions: Vec<(SimTime, Vec<(JobId, SimTime)>)>,
    /// Every `remaining` read: `(instant, job, remaining)`.
    reads: Vec<(SimTime, JobId, f64)>,
    tally: BTreeMap<&'static str, usize>,
}

impl Log {
    fn retired(&mut self, now: SimTime, done: &[(JobId, SimTime)]) {
        if done.is_empty() {
            return;
        }
        match self.completions.last_mut() {
            Some((t, group)) if *t == now => group.extend_from_slice(done),
            _ => self.completions.push((now, done.to_vec())),
        }
    }

    fn count(&mut self, what: &'static str, n: usize) {
        *self.tally.entry(what).or_default() += n;
    }
}

/// The earliest completion on the node at `pos` measured from `now`:
/// the `KeyFromNow` mutation's key.
fn key_from_now(st: &State, pos: usize) -> SimTime {
    st.speeds
        .jobs_at(pos)
        .filter(|(_, speed)| !speed.is_zero())
        .map(|(id, speed)| {
            let remaining = st.jobs.job(id).expect("listed").remaining;
            st.now + SimDuration::from_secs(remaining.secs_at(speed))
        })
        .fold(SimTime::NEVER, SimTime::min)
}

fn run(world: &World, side: Side) -> Result<Log, String> {
    let per_node = !matches!(side, Side::Naive | Side::Global);
    let n = world.nodes.len();
    let mut log = Log::default();
    let mut st = State::new(world);
    let mut global = naive_progress::Progress::default();
    let mut progress = Progress::new(n);
    // `KeyFromNow`: its keys, and the nodes a due integration queued.
    let mut shadow = vec![SimTime::NEVER; n];
    let mut due: Vec<usize> = Vec::new();
    let mut integrated_all = false;
    let rekeys = &mut TestRng::new(world.seed.rotate_left(17));
    for breakpoint in 0.. {
        if breakpoint > 100_000 {
            return Err(format!("no progress at {}", st.now));
        }
        // The top of the event: integrate the marked nodes, flush, re-key.
        let marked: Vec<usize> = st.speeds.marked().iter().map(|&p| p as usize).collect();
        // A whole-fleet integration queued every node for a re-key.
        let full = marked.len() == n || std::mem::take(&mut integrated_all);
        if per_node && full {
            log.count("full re-keys", 1);
        }
        if per_node && marked.len() < n {
            let at_now = marked
                .iter()
                .filter(|&&p| progress.epoch(p) == st.now)
                .count();
            log.count("marked nodes skipped at now", at_now);
            log.count(
                "marked nodes integrated before the flush",
                marked.len() - at_now,
            );
        }
        match side {
            Side::Naive => {
                st.flush();
            }
            Side::Global => {
                if st.flush() > 0 {
                    global.speeds_moved();
                }
            }
            Side::LateCatchUp => {
                st.flush();
                for &pos in &marked {
                    let done = progress.catch_up_node(&mut st.jobs, &st.speeds, pos, st.now);
                    st.retire(&done);
                    log.retired(st.now, &done);
                    progress.rekey_node(pos, &st.jobs, &st.speeds);
                }
                let done = progress.catch_up(&mut st.jobs, &st.speeds, st.now);
                st.retire(&done);
                log.retired(st.now, &done);
                progress.rekey(&st.jobs, &st.speeds);
            }
            Side::PerNode | Side::KeyFromNow => {
                let done = progress.catch_up(&mut st.jobs, &st.speeds, st.now);
                st.retire(&done);
                log.retired(st.now, &done);
                st.flush();
                progress.rekey(&st.jobs, &st.speeds);
                let rekeyed = if full {
                    (0..n).collect()
                } else {
                    [marked.as_slice(), &due].concat()
                };
                for pos in rekeyed {
                    shadow[pos] = key_from_now(&st, pos);
                }
                due.clear();
            }
        }
        if per_node && !progress.keys_are_fresh(&st.jobs, &st.speeds) {
            return Err(format!("stale keys at {}", st.now));
        }

        let t_done = match side {
            Side::Naive => naive_next_completion(st.now, &st.jobs, st.speed_of()),
            Side::Global => {
                let kept = global.next_completion(&st.jobs, st.speed_of());
                let fresh = global.fresh_completion(&st.jobs, st.speed_of());
                if kept.as_secs().to_bits() != fresh.as_secs().to_bits() {
                    return Err(format!(
                        "kept completion {kept} ≠ fresh {fresh} at {}",
                        st.now
                    ));
                }
                kept
            }
            Side::KeyFromNow => shadow.iter().copied().fold(SimTime::NEVER, SimTime::min),
            Side::PerNode | Side::LateCatchUp => progress.next_completion(),
        };
        let t_arrival = st.next_arrival(world);
        let t_scheduled = st.next_scheduled(world);
        let t_next = t_scheduled.min(t_done).min(t_arrival);

        let done = match side {
            Side::Naive => {
                let speeds = &st.speeds;
                st.jobs
                    .advance_running(st.now, t_next - st.now, |id| speeds.job_speed(id))
            }
            Side::Global if t_scheduled.min(t_done) <= t_arrival => {
                let speeds = &st.speeds;
                global.integrate(&mut st.jobs, t_next, |id| speeds.job_speed(id))
            }
            Side::Global => {
                log.count("breakpoints skipped by the global epoch", 1);
                Vec::new()
            }
            _ if st.reads_all_at(world, t_next) => {
                integrated_all = true;
                progress.integrate_all(&mut st.jobs, &st.speeds, t_next)
            }
            _ => {
                let limit = t_next.as_secs() + 1e-9;
                due = (0..n)
                    .filter(|&p| progress.key(p).as_secs() <= limit)
                    .collect();
                log.count(
                    "due sets with more than one node",
                    usize::from(due.len() > 1),
                );
                progress.integrate_due(&mut st.jobs, &st.speeds, t_next)
            }
        };
        st.retire(&done);
        log.retired(t_next, &done);
        st.now = t_next;
        let now = st.now;

        // What is due at now, in the simulator's order.
        while world
            .boundaries
            .get(st.boundary)
            .is_some_and(|b| b.at <= now)
        {
            let k = st.boundary;
            st.cross(world, k);
            st.boundary += 1;
            let what = if world.boundaries[k].nodes.is_some() {
                "boundaries marking some nodes"
            } else {
                "boundaries marking every node"
            };
            log.count(what, 1);
        }
        while world.strips.get(st.strip).is_some_and(|s| s.0 <= now) {
            let k = st.strip;
            st.strip += 1;
            if st
                .placement
                .jobs
                .values()
                .all(|&(node, _)| node.index() != world.strips[k].1)
            {
                continue;
            }
            if side == Side::Global && global.integrated_to() != now {
                return Err(format!("strip behind now at {now}"));
            }
            if per_node && !progress.all_at(now) {
                integrated_all = true;
                let done = progress.integrate_all(&mut st.jobs, &st.speeds, now);
                st.retire(&done);
                log.retired(now, &done);
            }
            st.strip(world, k);
            log.count("strips", 1);
        }
        while world.resizes.get(st.resize).is_some_and(|&t| t <= now) {
            let k = st.resize;
            st.resize += 1;
            let Some((target, factor)) = st.resize_target(world, k) else {
                continue;
            };
            let node = st.speeds.placed(target).map(|(pos, _)| pos);
            if let (true, Some(pos)) = (per_node, node) {
                let done = progress.catch_up_node(&mut st.jobs, &st.speeds, pos, now);
                st.retire(&done);
                log.retired(now, &done);
                if progress.epoch(pos) != now {
                    return Err(format!("resized node behind now at {now}"));
                }
            }
            if side == Side::Global && global.integrated_to() != now {
                return Err(format!("resize behind now at {now}"));
            }
            let job = st.jobs.job_mut(target).expect("listed");
            log.reads.push((now, target, job.remaining.as_f64()));
            job.remaining = job.remaining * factor;
            if let (true, Some(pos)) = (per_node, node) {
                progress.rekey_node(pos, &st.jobs, &st.speeds);
                shadow[pos] = key_from_now(&st, pos);
            }
            log.count("resizes", 1);
        }
        while st.next_arrival(world) <= now {
            let (t, spec) = world.arrivals[st.arrival].clone();
            st.jobs.submit(spec, t).expect("submit");
            st.arrival += 1;
        }
        while world.controls.get(st.control).is_some_and(|&t| t <= now) {
            if per_node && !progress.all_at(now) {
                return Err(format!("control behind now at {now}"));
            }
            if side == Side::Global && global.integrated_to() != now {
                return Err(format!("control behind now at {now}"));
            }
            st.read_all(&mut log);
            let k = st.control;
            st.enact(world, k);
            st.control += 1;
            if side == Side::Global {
                global.speeds_moved();
            }
        }
        if st.unblock() {
            log.count("unblocks", 1);
        }
        if per_node {
            // A node behind now re-keyed from its epoch keeps its key.
            let pos = rekeys.below(n as u64) as usize;
            if progress.epoch(pos) < now {
                let kept = progress.key(pos);
                progress.rekey_node(pos, &st.jobs, &st.speeds);
                if kept.as_secs().to_bits() != progress.key(pos).as_secs().to_bits() {
                    return Err(format!("re-key behind now moved a key at {now}"));
                }
                shadow[pos] = key_from_now(&st, pos);
                log.count("re-keys behind now", 1);
            }
            let (nodes, jobs) = progress.take_work();
            log.count("node integrations", nodes as usize);
            log.count("jobs advanced", jobs as usize);
        }
        log.count("breakpoints", 1);
        if now >= world.horizon {
            if per_node && !progress.all_at(now) {
                return Err(format!("report behind now at {now}"));
            }
            st.read_all(&mut log);
            return Ok(log);
        }
    }
    unreachable!("the loop returns")
}

/// Holds `other` to `reference`: the same completions, instant by
/// instant as sets, within 1 ns, and every `remaining` read within 1e-12
/// of the job's total work. Returns the worst instant gap and the worst
/// relative `remaining` gap seen.
fn compare(world: &World, reference: &Log, other: &Log) -> Result<(f64, f64), String> {
    if reference.completions.len() != other.completions.len() {
        return Err(format!(
            "{} completion instants in the reference, {} in the other",
            reference.completions.len(),
            other.completions.len()
        ));
    }
    let (mut worst_t, mut worst_rem): (f64, f64) = (0.0, 0.0);
    for ((ta, a), (tb, b)) in reference.completions.iter().zip(&other.completions) {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.sort_by_key(|c| c.0);
        b.sort_by_key(|c| c.0);
        let ids = |g: &[(JobId, SimTime)]| g.iter().map(|c| c.0).collect::<Vec<_>>();
        if ids(&a) != ids(&b) || (ta.as_secs() - tb.as_secs()).abs() > 1e-9 {
            return Err(format!(
                "at {ta}: {:?} in the reference, at {tb}: {:?}",
                ids(&a),
                ids(&b)
            ));
        }
        for (&(job, x), &(_, y)) in a.iter().zip(&b) {
            let gap = (x.as_secs() - y.as_secs()).abs();
            worst_t = worst_t.max(gap);
            if gap > 1e-9 {
                return Err(format!(
                    "{job} at {:?} in the reference, {:?}",
                    x.as_secs(),
                    y.as_secs()
                ));
            }
        }
    }
    if reference.reads.len() != other.reads.len() {
        return Err(format!(
            "{} reads in the reference, {} in the other",
            reference.reads.len(),
            other.reads.len()
        ));
    }
    let totals = world.totals();
    for (&(ta, ja, x), &(tb, jb, y)) in reference.reads.iter().zip(&other.reads) {
        if ta != tb || ja != jb {
            return Err(format!("read {ja} at {ta} in the reference, {jb} at {tb}"));
        }
        let gap = (x - y).abs() / totals[ja.index()];
        worst_rem = worst_rem.max(gap);
        if gap > 1e-12 {
            return Err(format!("at {ta}: {ja} remaining {x} in the reference, {y}"));
        }
    }
    Ok((worst_t, worst_rem))
}

#[test]
fn lazy_progress_matches_the_per_event_loop() {
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut worst_t, mut worst_rem): (f64, f64) = (0.0, 0.0);
    for seed in 0..WORLDS {
        let world = World::new(seed);
        let naive = run(&world, Side::Naive).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let global = run(&world, Side::Global).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let per_node = run(&world, Side::PerNode).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for (name, reference) in [("per-event", &naive), ("global-epoch", &global)] {
            let (gap_t, gap_rem) = compare(&world, reference, &per_node)
                .unwrap_or_else(|e| panic!("seed {seed}, against the {name} body: {e}"));
            worst_t = worst_t.max(gap_t);
            worst_rem = worst_rem.max(gap_rem);
        }
        for (what, n) in &per_node.tally {
            *tally.entry(what).or_default() += n;
        }
        let skipped = "breakpoints skipped by the global epoch";
        *tally.entry(skipped).or_default() += global.tally.get(skipped).copied().unwrap_or(0);
        *tally.entry("worlds").or_default() += 1;
        *tally.entry("remaining compared").or_default() += per_node.reads.len();
        *tally.entry("completions compared").or_default() += per_node
            .completions
            .iter()
            .map(|g| g.1.len())
            .sum::<usize>();
        *tally
            .entry("instants with several completions")
            .or_default() += per_node
            .completions
            .iter()
            .filter(|g| g.1.len() > 1)
            .count();
        let twins = world.initial.len() - 2..world.initial.len();
        *tally.entry("twins finishing in one due set").or_default() += usize::from(
            world.twins.is_some()
                && per_node
                    .completions
                    .iter()
                    .any(|g| twins.clone().all(|i| g.1.iter().any(|c| c.0.index() == i))),
        );
        *tally.entry("arrivals on a control instant").or_default() += world.on_control;
        *tally.entry("arrivals on another arrival").or_default() += world.on_arrival;
    }
    println!("per-node ≡ per-event ≡ global-epoch progress: {tally:?}");
    println!(
        "nodes integrated per breakpoint: {:.2}",
        tally["node integrations"] as f64 / tally["breakpoints"] as f64
    );
    println!("worst gaps: completion instant {worst_t:e} s, remaining {worst_rem:e} of total work");
    for (expected, at_least) in [
        ("worlds", WORLDS as usize),
        ("breakpoints", 100_000),
        ("node integrations", 150_000),
        ("remaining compared", 400_000),
        ("completions compared", 15_000),
        ("instants with several completions", 400),
        ("twins finishing in one due set", 400),
        ("due sets with more than one node", 400),
        ("marked nodes integrated before the flush", 30_000),
        ("marked nodes skipped at now", 15_000),
        ("full re-keys", 20_000),
        ("re-keys behind now", 60_000),
        ("breakpoints skipped by the global epoch", 25_000),
        ("unblocks", 20_000),
        ("boundaries marking some nodes", 2_500),
        ("boundaries marking every node", 800),
        ("strips", 1_200),
        ("resizes", 2_500),
        ("arrivals on a control instant", 5_000),
        ("arrivals on another arrival", 5_000),
    ] {
        assert!(
            tally.get(expected).is_some_and(|&n| n >= at_least),
            "{expected}: {tally:?}"
        );
    }
}

/// In how many worlds the sweep tells `mutant` apart from the per-event
/// loop, and in how many of those by its own cross-checks.
fn caught(mutant: Side) -> (u64, u64) {
    let (mut caught, mut by_checks) = (0, 0);
    for seed in 0..WORLDS {
        let world = World::new(seed);
        match run(&world, mutant) {
            Err(_) => by_checks += 1,
            Ok(log) => {
                let naive = run(&world, Side::Naive).expect("naive");
                caught += u64::from(compare(&world, &naive, &log).is_err());
            }
        }
    }
    (caught + by_checks, by_checks)
}

/// The mutation check: a marked node integrated after the flush runs its
/// last interval at the speeds that start now — an unblocked job gains
/// work it never did — and the sweep must see it.
#[test]
fn the_sweep_catches_a_marked_node_integrated_after_its_flush() {
    let (caught, by_checks) = caught(Side::LateCatchUp);
    println!(
        "marked node integrated after its flush: caught in {caught} of {WORLDS} worlds \
         ({by_checks} by the cross-checks)"
    );
    assert!(caught >= 1000, "caught in {caught} worlds only");
}

/// The mutation check: a key re-derived from `now` while its node's
/// `remaining` is behind it lands late, and the sweep must see it.
#[test]
fn the_sweep_catches_a_completion_measured_from_now() {
    let (caught, by_checks) = caught(Side::KeyFromNow);
    println!(
        "key measured from now: caught in {caught} of {WORLDS} worlds \
         ({by_checks} by the cross-checks)"
    );
    assert!(caught >= 1000, "caught in {caught} worlds only");
}
