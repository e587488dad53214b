//! The lazy-progress oracle.
//!
//! The simulator integrates running jobs' progress only at events where
//! a speed can change or `remaining` is read (`slaq_sim::Progress`): an
//! arrival-only event skips the integration and reuses the completion
//! instant kept from the last one. Integrating once per speed epoch
//! instead of once per event sums the same `speed · dt` products in
//! fewer, longer steps, so floats move in their last bits: this is a
//! tolerance oracle, not a bit-for-bit one.
//!
//! The per-event body it replaced — `advance_running` at every
//! breakpoint and the next completion re-derived from `now` — is kept
//! below: `naive_next_completion` is the simulator's scan verbatim, and
//! `run_naive` runs the loop's advance step at every breakpoint. Seeded
//! worlds drive both: jobs start, run at drawn speeds, get suspended and
//! resumed at control instants, arrive at random instants inside the
//! speed epochs (some on a control instant, some on another arrival's),
//! get resized (an integration that moves no speed), and complete, each
//! completion re-drawing the speeds. Both sides must
//! give the same completions in the same order with instants within
//! 1 ns, and at every instant the lazy side integrates, every job's
//! `remaining` within 1e-12 of its total work. Those gaps are the
//! per-event loop's own rounding — about one `ulp(now) · speed` of work
//! per skipped breakpoint, divided by the speed for an instant — so the
//! worlds keep to the simulator's regime: jobs of 500–5 000 s at their
//! maximum speed, partial speeds of at least a quarter of it, up to 60
//! arrivals in a horizon of at most 15 000 s. The lazy side also drops
//! its kept completion at random arrival-only instants — a flush that
//! recomputed nodes without moving a speed — so completions are
//! re-derived while `remaining` is behind `now`, and it holds the kept
//! instant to a fresh derivation, bit for bit, at every breakpoint, as
//! the event loop's `debug_assert!` does.
//!
//! The sweep prints a tally with floors and ends on a mutation it must
//! catch: the next completion measured from `now` rather than from the
//! instant `remaining` is exact at.

use proptest::TestRng;
use slaq::jobs::{JobManager, JobSpec, JobState};
use slaq::sim::Progress;
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

/// One seeded world: the jobs running at the start, the arrivals, the
/// control and resize instants, the horizon. Everything the two sides
/// decide along the way is drawn from `seed` and the count of what
/// happened so far, never from the side's own floats.
struct World {
    seed: u64,
    initial: Vec<JobSpec>,
    /// The last initial job is a twin of the first: same work, speed and
    /// transitions, so the two finish at one instant, in one event.
    twin: Option<usize>,
    /// Ascending; several may share an instant.
    arrivals: Vec<(SimTime, JobSpec)>,
    /// Ascending control instants: the running set and the speeds change.
    controls: Vec<SimTime>,
    /// Ascending elasticity resizes: one active job's `remaining` is
    /// scaled and no speed moves.
    resizes: Vec<SimTime>,
    horizon: SimTime,
    /// Tally: arrivals drawn on a control instant or on another arrival.
    on_control: usize,
    on_arrival: usize,
}

impl World {
    fn new(seed: u64) -> Self {
        let rng = &mut TestRng::new(seed);
        let horizon = 3000.0 + rng.unit_f64() * 12_000.0;
        let period = 200.0 + rng.unit_f64() * 1300.0;
        let mut controls: Vec<SimTime> = (1..)
            .map(|k| k as f64 * period)
            .take_while(|&t| t < horizon)
            .map(SimTime::from_secs)
            .collect();
        // Unblock-like instants between the cycles: speeds move there too.
        for _ in 0..rng.below(4) {
            controls.push(SimTime::from_secs(rng.unit_f64() * horizon));
        }
        controls.sort_by(|a, b| a.total_cmp(*b));
        let mut initial: Vec<JobSpec> = (0..2 + rng.below(9)).map(|_| job(rng, 0.0)).collect();
        let twin = (rng.below(2) == 0).then(|| {
            initial.push(initial[0].clone());
            initial.len() - 1
        });
        let (mut on_control, mut on_arrival) = (0, 0);
        let mut instants: Vec<f64> = Vec::new();
        for _ in 0..5 + rng.below(56) {
            let t = match rng.below(8) {
                0 if !controls.is_empty() => {
                    on_control += 1;
                    controls[rng.below(controls.len() as u64) as usize].as_secs()
                }
                1 if !instants.is_empty() => {
                    on_arrival += 1;
                    instants[rng.below(instants.len() as u64) as usize]
                }
                _ => rng.unit_f64() * horizon,
            };
            instants.push(t);
        }
        instants.sort_by(f64::total_cmp);
        let mut resizes: Vec<SimTime> = (0..rng.below(5))
            .map(|_| SimTime::from_secs(rng.unit_f64() * horizon))
            .collect();
        resizes.sort_by(|a, b| a.total_cmp(*b));
        let arrivals = instants
            .into_iter()
            .map(|t| (SimTime::from_secs(t), job(rng, t)))
            .collect();
        World {
            seed,
            initial,
            twin,
            arrivals,
            controls,
            resizes,
            horizon: SimTime::from_secs(horizon),
            on_control,
            on_arrival,
        }
    }

    /// The manager at the start: every initial job running.
    fn jobs(&self) -> JobManager {
        let mut jobs = JobManager::new();
        for (i, spec) in self.initial.iter().enumerate() {
            let id = jobs.submit(spec.clone(), SimTime::ZERO).expect("submit");
            jobs.job_mut(id)
                .expect("just submitted")
                .start(NodeId::new(i as u32), SimTime::ZERO)
                .expect("pending");
        }
        jobs
    }

    /// The speed table after `moves` speed changes: per job id, zero (a
    /// latency running), its maximum speed, or a share of it no smaller
    /// than a quarter.
    fn speeds(&self, moves: u64) -> Vec<CpuMhz> {
        let rng = &mut TestRng::new(self.seed ^ moves.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let all = self
            .initial
            .iter()
            .chain(self.arrivals.iter().map(|(_, s)| s));
        let mut speeds: Vec<CpuMhz> = all
            .map(|spec| match rng.below(6) {
                0 => CpuMhz::ZERO,
                1 | 2 => spec.max_speed,
                _ => CpuMhz::new(spec.max_speed.as_f64() * (0.25 + 0.75 * rng.unit_f64())),
            })
            .collect();
        if let Some(twin) = self.twin {
            speeds[twin] = speeds[0];
        }
        speeds
    }

    /// The `k`-th control instant's enactment: start a share of the
    /// pending jobs, suspend a share of the running ones, resume a share
    /// of the suspended ones.
    fn enact(&self, k: usize, jobs: &mut JobManager, now: SimTime) {
        let rng = &mut TestRng::new(!self.seed ^ (k as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        let rolls: Vec<u64> = (0..jobs.len()).map(|_| rng.below(20)).collect();
        for (i, &roll) in rolls.iter().enumerate() {
            let roll = if Some(i) == self.twin { rolls[0] } else { roll };
            let job = jobs.job_mut(JobId::new(i as u32)).expect("dense ids");
            let node = NodeId::new(i as u32);
            match job.state {
                JobState::Running { .. } if roll < 3 => job.suspend(),
                JobState::Pending if roll < 10 => job.start(node, now),
                JobState::Suspended { .. } if roll < 8 => job.resume(node),
                _ => Ok(()),
            }
            .expect("a legal transition");
        }
    }

    /// The `k`-th resize, as the simulator's elasticity draws it: one
    /// active job with work left grows by half or shrinks by half.
    fn resize(&self, k: usize, jobs: &mut JobManager) {
        let active: Vec<JobId> = jobs
            .jobs()
            .iter()
            .filter(|j| j.is_active() && j.remaining.as_f64() > 0.0)
            .map(|j| j.id)
            .collect();
        if active.is_empty() {
            return;
        }
        let rng = &mut TestRng::new(self.seed.rotate_left(29) ^ k as u64);
        let target = active[rng.below(active.len() as u64) as usize];
        let factor = [1.5, 0.5][rng.below(2) as usize];
        let job = jobs.job_mut(target).expect("listed");
        job.remaining = job.remaining * factor;
    }
}

/// How far each side has walked the world's schedule.
#[derive(Default)]
struct Cursor {
    arrival: usize,
    control: usize,
    resize: usize,
}

impl Cursor {
    fn next_arrival(&self, world: &World) -> SimTime {
        world
            .arrivals
            .get(self.arrival)
            .map_or(SimTime::NEVER, |a| a.0)
    }

    /// The next control, resize or the horizon: the schedule's instants
    /// that move a speed or touch `remaining`.
    fn next_scheduled(&self, world: &World) -> SimTime {
        let control = world.controls.get(self.control).copied();
        let resize = world.resizes.get(self.resize).copied();
        [control, resize]
            .into_iter()
            .flatten()
            .fold(world.horizon, SimTime::min)
    }

    /// Apply what is due at `now` — arrivals are submitted, resizes
    /// scale, controls enact — and say whether the speeds moved.
    fn apply_due(&mut self, world: &World, now: SimTime, jobs: &mut JobManager) -> bool {
        while world
            .arrivals
            .get(self.arrival)
            .is_some_and(|&(t, _)| t <= now)
        {
            let (t, spec) = world.arrivals[self.arrival].clone();
            jobs.submit(spec, t).expect("submit");
            self.arrival += 1;
        }
        while world.resizes.get(self.resize).is_some_and(|&t| t <= now) {
            world.resize(self.resize, jobs);
            self.resize += 1;
        }
        let mut moved = false;
        while world.controls.get(self.control).is_some_and(|&t| t <= now) {
            world.enact(self.control, jobs, now);
            self.control += 1;
            moved = true;
        }
        moved
    }
}

/// What one side saw: its completions in order, and at each breakpoint
/// it integrated at (by index) the instant and every job's `remaining`.
#[derive(Default)]
struct Log {
    completions: Vec<(JobId, SimTime)>,
    integrated: BTreeMap<usize, (SimTime, Vec<f64>)>,
    breakpoints: usize,
    skipped: usize,
    drops_behind_now: usize,
}

fn remaining(jobs: &JobManager) -> Vec<f64> {
    jobs.jobs().iter().map(|j| j.remaining.as_f64()).collect()
}

/// The per-event loop: integrate at every breakpoint, re-derive the next
/// completion from `now`.
fn run_naive(world: &World) -> Log {
    let mut log = Log::default();
    let mut jobs = world.jobs();
    let (mut cursor, mut moves) = (Cursor::default(), 0);
    let mut speeds = world.speeds(moves);
    let mut now = SimTime::ZERO;
    loop {
        let speed_of = |id: JobId| speeds[id.index()];
        let t_done = naive_next_completion(now, &jobs, speed_of);
        let t_next = cursor
            .next_scheduled(world)
            .min(cursor.next_arrival(world))
            .min(t_done);
        let dt = t_next - now;
        let done = jobs.advance_running(now, dt, speed_of);
        now = t_next;
        log.integrated
            .insert(log.breakpoints, (now, remaining(&jobs)));
        log.breakpoints += 1;
        let mut moved = !done.is_empty();
        log.completions.extend(done);
        moved |= cursor.apply_due(world, now, &mut jobs);
        if moved {
            moves += 1;
            speeds = world.speeds(moves);
        }
        if now >= world.horizon {
            return log;
        }
    }
}

/// The lazy loop as the simulator runs it. `from_now` is the mutation:
/// a kept completion re-derived from `now` instead of from the instant
/// `remaining` is exact at.
fn run_lazy(world: &World, from_now: bool) -> Result<Log, String> {
    let mut log = Log::default();
    let mut jobs = world.jobs();
    let (mut cursor, mut moves) = (Cursor::default(), 0);
    let mut speeds = world.speeds(moves);
    let mut progress = Progress::default();
    let mut mutant_kept: Option<SimTime> = None;
    let mut now = SimTime::ZERO;
    // A flush that recomputed nodes without moving a speed, due at the
    // top of the next breakpoint.
    let mut drop_kept = false;
    let drops = &mut TestRng::new(world.seed.rotate_left(17));
    loop {
        let speed_of = |id: JobId| speeds[id.index()];
        if drop_kept {
            progress.speeds_moved();
            mutant_kept = None;
            log.drops_behind_now += usize::from(progress.integrated_to() < now);
        }
        let t_done = if from_now {
            *mutant_kept.get_or_insert_with(|| naive_next_completion(now, &jobs, speed_of))
        } else {
            let kept = progress.next_completion(&jobs, speed_of);
            let fresh = progress.fresh_completion(&jobs, speed_of);
            if kept.as_secs().to_bits() != fresh.as_secs().to_bits() {
                return Err(format!("kept completion {kept} ≠ fresh {fresh} at {now}"));
            }
            kept
        };
        let t_arrival = cursor.next_arrival(world);
        let t_integrate = cursor.next_scheduled(world).min(t_done);
        let t_next = t_integrate.min(t_arrival);
        let mut moved = false;
        drop_kept = false;
        if t_integrate <= t_arrival {
            let done = progress.integrate(&mut jobs, t_next, speed_of);
            mutant_kept = None;
            log.integrated
                .insert(log.breakpoints, (t_next, remaining(&jobs)));
            moved = !done.is_empty();
            log.completions.extend(done);
        } else {
            log.skipped += 1;
            drop_kept = drops.below(4) == 0;
        }
        log.breakpoints += 1;
        now = t_next;
        moved |= cursor.apply_due(world, now, &mut jobs);
        if moved {
            moves += 1;
            speeds = world.speeds(moves);
            progress.speeds_moved();
            mutant_kept = None;
        }
        if now >= world.horizon {
            return Ok(log);
        }
    }
}

/// Holds the lazy log to the naive one: the same completions in the same
/// order within 1 ns, and at every instant the lazy side integrated at,
/// the same instant within 1 ns and every `remaining` within 1e-12 of
/// the job's total work. Returns the worst instant gap and the worst
/// relative `remaining` gap seen.
fn compare(world: &World, naive: &Log, lazy: &Log) -> Result<(f64, f64), String> {
    if naive.completions.len() != lazy.completions.len() {
        return Err(format!(
            "{} completions naive, {} lazy",
            naive.completions.len(),
            lazy.completions.len()
        ));
    }
    let (mut worst_t, mut worst_rem): (f64, f64) = (0.0, 0.0);
    for (&(a, ta), &(b, tb)) in naive.completions.iter().zip(&lazy.completions) {
        worst_t = worst_t.max((ta.as_secs() - tb.as_secs()).abs());
        if a != b || (ta.as_secs() - tb.as_secs()).abs() > 1e-9 {
            return Err(format!(
                "completion {a} at {:?} naive, {b} at {:?} lazy",
                ta.as_secs(),
                tb.as_secs()
            ));
        }
    }
    let totals: Vec<f64> = world
        .initial
        .iter()
        .chain(world.arrivals.iter().map(|(_, s)| s))
        .map(|s| s.total_work.as_f64())
        .collect();
    for (i, (t, rem)) in &lazy.integrated {
        let Some((tn, naive_rem)) = naive.integrated.get(i) else {
            return Err(format!("breakpoint {i} missing on the naive side"));
        };
        if (t.as_secs() - tn.as_secs()).abs() > 1e-9 || rem.len() != naive_rem.len() {
            return Err(format!("breakpoint {i}: {t} lazy, {tn} naive"));
        }
        for (j, (&x, &y)) in rem.iter().zip(naive_rem).enumerate() {
            let gap = (x - y).abs() / totals[j];
            if gap > 1e-12 {
                return Err(format!(
                    "breakpoint {i} at {t}: job {j} remaining {x} lazy, {y} naive"
                ));
            }
            worst_rem = worst_rem.max(gap);
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
        let naive = run_naive(&world);
        let lazy = run_lazy(&world, false).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let (gap_t, gap_rem) =
            compare(&world, &naive, &lazy).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        worst_t = worst_t.max(gap_t);
        worst_rem = worst_rem.max(gap_rem);
        *tally.entry("worlds").or_default() += 1;
        *tally.entry("breakpoints").or_default() += lazy.breakpoints;
        *tally.entry("breakpoints skipped").or_default() += lazy.skipped;
        *tally.entry("remaining compared").or_default() += lazy.integrated.len();
        *tally.entry("completions compared").or_default() += lazy.completions.len();
        *tally
            .entry("kept completion dropped behind now")
            .or_default() += lazy.drops_behind_now;
        *tally.entry("arrivals on a control instant").or_default() += world.on_control;
        *tally.entry("arrivals on another arrival").or_default() += world.on_arrival;
        *tally.entry("resizes").or_default() += world.resizes.len();
        let ties = lazy
            .completions
            .windows(2)
            .filter(|w| w[0].1 == w[1].1)
            .count();
        *tally.entry("completions sharing an instant").or_default() += ties;
    }
    println!("lazy ≡ per-event progress: {tally:?}");
    println!("worst gaps: completion instant {worst_t:e} s, remaining {worst_rem:e} of total work");
    for (expected, at_least) in [
        ("worlds", WORLDS as usize),
        ("breakpoints skipped", 40_000),
        ("remaining compared", 40_000),
        ("completions compared", 20_000),
        ("kept completion dropped behind now", 8_000),
        ("arrivals on a control instant", 5_000),
        ("arrivals on another arrival", 5_000),
        ("resizes", 3_000),
        ("completions sharing an instant", 300),
    ] {
        assert!(
            tally.get(expected).is_some_and(|&n| n >= at_least),
            "{expected}: {tally:?}"
        );
    }
}

/// The mutation check: a completion re-derived from `now` while
/// `remaining` is behind it lands late, and the sweep must see it.
#[test]
fn the_sweep_catches_a_completion_measured_from_now() {
    let caught = (0..WORLDS)
        .filter(|&seed| {
            let world = World::new(seed);
            let mutant = run_lazy(&world, true).expect("the mutant skips the cross-check");
            compare(&world, &run_naive(&world), &mutant).is_err()
        })
        .count();
    println!("next completion measured from now: caught in {caught} of {WORLDS} worlds");
    assert!(caught >= 1000, "caught in {caught} worlds only");
}
