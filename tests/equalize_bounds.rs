//! The equalizer bounds oracle.
//!
//! `EqEntity::new` reads each curve's bounds — `max_useful_cpu`,
//! `max_utility`, `utility_at_zero` — once, through
//! `UtilityOfCpu::saturation`, and the equalizers read the kept values
//! instead of asking the curve on every use; `JobUtility` overrides
//! `saturation` to do each goal interpolation once. Between the kept
//! bounds the equalizers ask for `cpu_for_utility_in_range`, which
//! `JobUtility` answers without re-deriving its bounds, and a grant's
//! utility is read again only where the closing trim or hand-out moved
//! its CPU. All are pure cost optimisations: the same allocation, bit
//! for bit.
//!
//! The equalizer bodies they replaced are kept here verbatim (module
//! `naive`, over an entity that carries nothing but its curve) and the
//! shipped `equalize_bisection` / `equalize_weighted` are held to them over
//! seeded pools that mix job curves (fresh, partly done, done, flat,
//! past their fastest finish, capped below `max_speed`, hostile goals)
//! with transactional models (idle and loaded), at budgets from zero
//! through contended to uncontended. A second sweep holds `saturation()`
//! to the three calls on single curves, and a third holds the in-range
//! inverse to `cpu_for_utility` at levels strictly inside the kept
//! bounds, the representable values next to each edge among them. Each
//! sweep prints a tally, holds it to floors, and ends on a mutation the
//! comparison must catch: for the first two an override that returns the
//! utility at `max_speed` as `max_utility` even when the cap is below
//! `max_speed`, for the third an in-range body without the `max_speed`
//! clamp.
//!
//! The naive bodies also sum the demand at every mid, where the shipped
//! bisections replay the same path from a bracketed root, summing only
//! the mids between the levels already summed on each side; that is
//! sound where every curve's demand is monotone, which the curve says
//! through `UtilityOfCpu::is_monotone`. The pool sweeps tally the calls
//! the replay served against those the gate sent back to one sum a step,
//! on pools of up to 100 curves too, and catch a `JobUtility` that claims
//! a monotone demand on a hostile goal. A fourth sweep holds every curve
//! that claims a monotone demand to a non-decreasing one over sorted
//! levels.

use proptest::TestRng;
use slaq::jobs::JobUtility;
use slaq::perfmodel::{TransactionalModel, TransactionalSpec};
use slaq::types::{AppId, CpuMhz, EntityId, JobId, MemMb, SimDuration, SimTime, Work};
use slaq::utility::{
    equalize_bisection, equalize_weighted, CompletionGoal, EntityAllocation, EqEntity,
    EqualizeOptions, EqualizedAllocation, ResponseTimeGoal, UtilityOfCpu,
};
use std::collections::BTreeMap;

/// The equalizers as they stood before the bounds were kept per entity:
/// every bound is asked of the curve where it is used. The bodies are
/// verbatim but for the `mark` calls, which record the path taken, the
/// `contended` flag each result now carries (`false` on the two early
/// returns), which the fingerprint compares, and the `sums` count (one
/// a step), which it does not.
mod naive {
    use super::*;
    use slaq::types::fcmp;
    use std::cell::Cell;

    pub const UNCONTENDED: usize = 0;
    pub const TRIMMED: usize = 1;
    pub const HANDED_OUT: usize = 2;

    thread_local! {
        static PATH: Cell<[bool; 3]> = const { Cell::new([false; 3]) };
    }

    fn mark(step: usize) {
        PATH.with(|p| {
            let mut seen = p.get();
            seen[step] = true;
            p.set(seen);
        });
    }

    /// The path flags of the calls since the last `take_path`.
    pub fn take_path() -> [bool; 3] {
        PATH.with(|p| p.replace([false; 3]))
    }

    /// The entity as it was: an id and a curve, nothing kept.
    pub struct NaiveEntity<'a> {
        pub id: EntityId,
        pub curve: &'a dyn UtilityOfCpu,
    }

    fn min_utility(allocations: &[EntityAllocation]) -> f64 {
        allocations
            .iter()
            .map(|a| a.utility)
            .fold(f64::INFINITY, f64::min)
    }

    fn demand_at_level(e: &dyn UtilityOfCpu, u: f64) -> CpuMhz {
        if u <= e.utility_at_zero() {
            return CpuMhz::ZERO;
        }
        if u >= e.max_utility() {
            return e.max_useful_cpu();
        }
        e.cpu_for_utility(u).unwrap_or_else(|| e.max_useful_cpu())
    }

    fn grant_at_level(e: &NaiveEntity<'_>, u: f64) -> EntityAllocation {
        let cpu = demand_at_level(e.curve, u);
        EntityAllocation {
            id: e.id,
            cpu,
            utility: e.curve.utility(cpu),
        }
    }

    fn no_entities(total: CpuMhz) -> EqualizedAllocation {
        EqualizedAllocation {
            allocations: Vec::new(),
            common_utility: 0.0,
            total_allocated: CpuMhz::ZERO,
            surplus: total,
            iterations: 0,
            sums: 0,
            contended: false,
        }
    }

    fn uncontended(
        entities: &[NaiveEntity<'_>],
        total: CpuMhz,
        opts: &EqualizeOptions,
    ) -> Option<EqualizedAllocation> {
        if entities.is_empty() {
            return Some(no_entities(total));
        }
        let full_demand: CpuMhz = entities.iter().map(|e| e.curve.max_useful_cpu()).sum();
        if full_demand.as_f64() > total.as_f64() + opts.tol_cpu {
            return None;
        }
        mark(UNCONTENDED);
        let allocations: Vec<EntityAllocation> = entities
            .iter()
            .map(|e| EntityAllocation {
                id: e.id,
                cpu: e.curve.max_useful_cpu(),
                utility: e.curve.max_utility(),
            })
            .collect();
        Some(EqualizedAllocation {
            common_utility: min_utility(&allocations),
            total_allocated: full_demand,
            surplus: total.saturating_sub(full_demand),
            allocations,
            iterations: 0,
            sums: 0,
            contended: false,
        })
    }

    fn trim_to_budget(allocations: &mut [EntityAllocation], total: CpuMhz) -> CpuMhz {
        let mut granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
        if granted.as_f64() > total.as_f64() {
            mark(TRIMMED);
            let scale = total.as_f64() / granted.as_f64();
            for a in allocations.iter_mut() {
                a.cpu = a.cpu * scale;
            }
            granted = allocations.iter().map(|a| a.cpu).sum();
        }
        total.saturating_sub(granted)
    }

    fn hand_out(
        entities: &[NaiveEntity<'_>],
        allocations: &mut [EntityAllocation],
        order: &[usize],
        mut residual: CpuMhz,
        opts: &EqualizeOptions,
    ) {
        mark(HANDED_OUT);
        for &idx in order {
            if residual.as_f64() <= opts.tol_cpu {
                break;
            }
            let cap = entities[idx].curve.max_useful_cpu();
            let room = cap.saturating_sub(allocations[idx].cpu);
            let grant = room.min(residual);
            if grant.as_f64() > 0.0 {
                allocations[idx].cpu += grant;
                residual -= grant;
            }
        }
    }

    fn finish(
        entities: &[NaiveEntity<'_>],
        mut allocations: Vec<EntityAllocation>,
        total: CpuMhz,
        iterations: usize,
        opts: &EqualizeOptions,
    ) -> EqualizedAllocation {
        for (a, e) in allocations.iter_mut().zip(entities) {
            a.utility = e.curve.utility(a.cpu);
        }
        let granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
        let all_saturated = allocations
            .iter()
            .zip(entities)
            .all(|(a, e)| a.cpu.as_f64() >= e.curve.max_useful_cpu().as_f64() - opts.tol_cpu);
        EqualizedAllocation {
            common_utility: min_utility(&allocations),
            total_allocated: granted,
            surplus: if all_saturated {
                total.saturating_sub(granted)
            } else {
                CpuMhz::ZERO
            },
            allocations,
            iterations,
            sums: iterations,
            contended: true,
        }
    }

    pub fn equalize_bisection(
        entities: &[NaiveEntity<'_>],
        total: CpuMhz,
        opts: &EqualizeOptions,
    ) -> EqualizedAllocation {
        let total = total.max_zero();
        if let Some(settled) = uncontended(entities, total, opts) {
            return settled;
        }

        let mut lo = entities
            .iter()
            .map(|e| e.curve.utility_at_zero())
            .fold(f64::INFINITY, f64::min);
        let mut hi = entities
            .iter()
            .map(|e| e.curve.max_utility())
            .fold(f64::NEG_INFINITY, f64::max);
        debug_assert!(lo <= hi + 1e-12);

        let mut iterations = 0;
        while hi - lo > opts.tol_utility && iterations < opts.max_iters {
            let mid = 0.5 * (lo + hi);
            let need: CpuMhz = entities.iter().map(|e| demand_at_level(e.curve, mid)).sum();
            if need.as_f64() <= total.as_f64() {
                lo = mid;
            } else {
                hi = mid;
            }
            iterations += 1;
        }
        let level = lo;

        let mut allocations: Vec<EntityAllocation> =
            entities.iter().map(|e| grant_at_level(e, level)).collect();

        let residual = trim_to_budget(&mut allocations, total);
        if residual.as_f64() > opts.tol_cpu {
            let mut order: Vec<usize> = (0..allocations.len()).collect();
            order.sort_by(|&a, &b| fcmp(allocations[a].utility, allocations[b].utility));
            hand_out(entities, &mut allocations, &order, residual, opts);
        }

        EqualizedAllocation {
            common_utility: level,
            ..finish(entities, allocations, total, iterations, opts)
        }
    }

    pub fn equalize_weighted(
        entities: &[NaiveEntity<'_>],
        weights: &[f64],
        total: CpuMhz,
        opts: &EqualizeOptions,
    ) -> EqualizedAllocation {
        let total = total.max_zero();
        if let Some(settled) = uncontended(entities, total, opts) {
            return settled;
        }
        let weight = |i: usize| -> f64 {
            let usable = |w: &f64| *w > 0.0 && w.is_finite();
            weights.get(i).copied().filter(usable).unwrap_or(1.0)
        };

        let mut lo = 0.0f64;
        let mut hi = entities
            .iter()
            .enumerate()
            .map(|(i, e)| weight(i) * (e.curve.max_utility() - e.curve.utility_at_zero()))
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let mut iterations = 0;
        while hi - lo > opts.tol_utility && iterations < opts.max_iters {
            let mid = 0.5 * (lo + hi);
            let need: CpuMhz = entities
                .iter()
                .enumerate()
                .map(|(i, e)| demand_at_level(e.curve, e.curve.max_utility() - mid / weight(i)))
                .sum();
            if need.as_f64() <= total.as_f64() {
                hi = mid;
            } else {
                lo = mid;
            }
            iterations += 1;
        }
        let level = hi;

        let mut allocations: Vec<EntityAllocation> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| grant_at_level(e, e.curve.max_utility() - level / weight(i)))
            .collect();
        let residual = trim_to_budget(&mut allocations, total);
        if residual.as_f64() > opts.tol_cpu {
            let mut order: Vec<usize> = (0..allocations.len()).collect();
            order.sort_by(|&a, &b| {
                let sa = weight(a) * (entities[a].curve.max_utility() - allocations[a].utility);
                let sb = weight(b) * (entities[b].curve.max_utility() - allocations[b].utility);
                fcmp(sb, sa)
            });
            hand_out(entities, &mut allocations, &order, residual, opts);
        }
        finish(entities, allocations, total, iterations, opts)
    }
}

use naive::NaiveEntity;

/// The goal edits of `hostile_goal_survives_the_equalizer`, plus one that
/// puts the best utility below the floor (a flat curve whose fastest
/// finish scores under its zero-CPU utility), and one whose demand is
/// not monotone where a bisection looks. A goal that never exhausts
/// asks the fastest finish at exactly `goal_utility` (its last segment
/// is `0 · ∞` there) and less just above it, so its demand spikes at
/// that one level; 0.75 is the third mid of the `[-1, 1]` bracket a
/// pool with a loaded model starts from, the first one past the plain
/// steps that the replay may read off its bracket.
const HOSTILE: [fn(&mut CompletionGoal); 8] = [
    |g| g.goal = g.earliest - SimDuration::from_secs(500.0),
    |g| g.exhausted = SimTime::ZERO,
    |g| (g.max_utility, g.goal_utility) = (0.2, 0.9),
    |g| g.exhausted = SimTime::NEVER,
    |g| g.earliest = SimTime(f64::NEG_INFINITY),
    |g| g.goal = SimTime(f64::NAN),
    |g| (g.max_utility, g.goal_utility, g.min_utility) = (-0.5, -0.5, 0.0),
    |g| (g.goal_utility, g.exhausted) = (0.75, SimTime::NEVER),
];

/// One curve of a pool.
enum Curve {
    Job(JobUtility),
    Trans(TransactionalModel),
}

impl Curve {
    fn as_dyn(&self) -> &dyn UtilityOfCpu {
        match self {
            Curve::Job(ju) => ju,
            Curve::Trans(m) => m,
        }
    }
}

fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.unit_f64()
}

/// A job snapshot anywhere in its life: fresh at submission, partly
/// done, done, past its fastest finish, past `exhausted`; one in eight
/// with a hostile goal where `hostile` allows them.
fn draw_job(rng: &mut TestRng, hostile: bool) -> JobUtility {
    let max_speed = CpuMhz::new([1000.0, 2000.0, 2933.3, 3000.0][rng.below(4) as usize]);
    let fastest = uniform(rng, 100.0, 5000.0);
    let submit = uniform(rng, 0.0, 1000.0);
    let goal_factor = uniform(rng, 1.0, 2.0);
    let exhausted_factor = goal_factor + uniform(rng, 0.0, 2.0);
    let mut goal = CompletionGoal::relative(
        SimTime::from_secs(submit),
        SimDuration::from_secs(fastest),
        goal_factor,
        exhausted_factor,
    )
    .expect("ordered factors");
    if hostile && rng.below(8) == 0 {
        HOSTILE[rng.below(HOSTILE.len() as u64) as usize](&mut goal);
    }
    let total = Work::from_power_secs(max_speed, fastest);
    let remaining = match rng.below(4) {
        0 => total,
        1 => Work::ZERO,
        _ => Work::new(total.as_f64() * rng.unit_f64()),
    };
    let now = if rng.below(4) == 0 {
        submit
    } else {
        submit + fastest * exhausted_factor * uniform(rng, 0.0, 1.3)
    };
    JobUtility {
        remaining,
        max_speed,
        goal,
        now: SimTime::from_secs(now),
    }
}

/// A transactional model, idle (λ = 0) one time in four.
fn draw_model(rng: &mut TestRng) -> TransactionalModel {
    let spec = TransactionalSpec {
        name: "app".into(),
        service_per_request: Work::new(uniform(rng, 100.0, 3000.0)),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(uniform(rng, 0.1, 1.0)))
            .expect("positive target"),
        mem_per_instance: MemMb::new(1024),
        max_instances: 8,
        min_instances: 1,
        u_cap: uniform(rng, 0.5, 0.95),
    };
    let lambda = if rng.below(4) == 0 {
        0.0
    } else {
        uniform(rng, 0.1, 50.0)
    };
    TransactionalModel::new(spec, lambda).expect("valid spec, finite λ")
}

fn draw_curve(rng: &mut TestRng) -> Curve {
    draw_curve_with(rng, true)
}

fn draw_curve_with(rng: &mut TestRng, hostile: bool) -> Curve {
    if rng.below(4) == 0 {
        Curve::Trans(draw_model(rng))
    } else {
        Curve::Job(draw_job(rng, hostile))
    }
}

/// The tally label of a drawn curve.
fn kind(curve: &Curve) -> &'static str {
    match curve {
        Curve::Trans(m) if m.lambda == 0.0 => "idle model",
        Curve::Trans(_) => "loaded model",
        Curve::Job(ju) if ju.remaining.is_done() => "done job",
        Curve::Job(ju) if !ju.goal.is_valid() => "hostile goal",
        Curve::Job(ju) if ju.max_useful_cpu().is_zero() => "flat job",
        Curve::Job(ju) if capped_below_max_speed(ju) => "cap below max_speed",
        Curve::Job(ju) if ju.now >= ju.goal.earliest => "slack ≤ 0",
        Curve::Job(_) => "cap at max_speed",
    }
}

/// The three separate calls, as the equalizers made them before.
fn three_calls(c: &dyn UtilityOfCpu) -> (CpuMhz, f64, f64) {
    (c.max_useful_cpu(), c.max_utility(), c.utility_at_zero())
}

fn bounds_bits((cap, u_max, u_zero): (CpuMhz, f64, f64)) -> [u64; 3] {
    [cap.as_f64().to_bits(), u_max.to_bits(), u_zero.to_bits()]
}

/// `0 < cap < max_speed`: the one case where the override computes the
/// saturation level apart from the utility at `max_speed`.
fn capped_below_max_speed(ju: &JobUtility) -> bool {
    let cap = ju.max_useful_cpu();
    !cap.is_zero() && cap < ju.max_speed
}

/// The mutation: a `JobUtility` whose `saturation` returns the utility at
/// `max_speed` as `max_utility`, whatever the cap.
struct FullSpeedMax<'a>(&'a JobUtility);

impl UtilityOfCpu for FullSpeedMax<'_> {
    fn utility(&self, cpu: CpuMhz) -> f64 {
        self.0.utility(cpu)
    }

    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz> {
        self.0.cpu_for_utility(u)
    }

    fn cpu_for_utility_in_range(&self, u: f64) -> Option<CpuMhz> {
        self.0.cpu_for_utility_in_range(u)
    }

    fn max_useful_cpu(&self) -> CpuMhz {
        self.0.max_useful_cpu()
    }

    fn saturation(&self) -> (CpuMhz, f64, f64) {
        let (cap, _, u_zero) = self.0.saturation();
        (cap, self.0.utility(self.0.max_speed), u_zero)
    }
}

/// Every field of a result, floats by their bits.
type Fingerprint = (Vec<(EntityId, u64, u64)>, [u64; 3], usize, bool);

fn fingerprint(r: &EqualizedAllocation) -> Fingerprint {
    (
        r.allocations
            .iter()
            .map(|a| (a.id, a.cpu.as_f64().to_bits(), a.utility.to_bits()))
            .collect(),
        [
            r.common_utility.to_bits(),
            r.total_allocated.as_f64().to_bits(),
            r.surplus.as_f64().to_bits(),
        ],
        r.iterations,
        r.contended,
    )
}

#[test]
fn saturation_equals_the_three_calls() {
    const CURVES: u64 = 40_000;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut caught = 0usize;
    for seed in 0..CURVES {
        let rng = &mut TestRng::new(seed);
        let curve = draw_curve(rng);
        let c = curve.as_dyn();
        assert_eq!(
            bounds_bits(c.saturation()),
            bounds_bits(three_calls(c)),
            "seed {seed}"
        );
        *tally.entry(kind(&curve)).or_default() += 1;
        if let Curve::Job(ju) = &curve {
            let mutated = FullSpeedMax(ju).saturation();
            if bounds_bits(mutated) != bounds_bits(three_calls(ju)) {
                assert!(ju.max_useful_cpu() < ju.max_speed, "seed {seed}");
                caught += 1;
            }
        }
    }
    println!("saturation ≡ three calls over {CURVES} curves: {tally:?}");
    for (what, seen) in &tally {
        assert!(*seen >= 1000, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 8, "{tally:?}");
    // The mutation check: the full-speed utility kept as `max_utility`
    // below the cap. A job capped below `max_speed` finishes at its
    // fastest finish either way, where the goal is flat, so the two
    // utilities part only where rounding lands the capped finish a hair
    // past `earliest`, or on a flat curve whose best utility lies under
    // its zero-CPU utility: the floor is a count, not a share.
    let capped = tally["cap below max_speed"];
    println!(
        "full-speed utility as max_utility: caught on {caught} curves ({capped} capped below max_speed)"
    );
    assert!(caught >= 200, "{caught} of {capped}");
}

/// The mutation of the replay's gate: a `JobUtility` that claims a
/// monotone demand whatever its goal, so a hostile goal's demand, which
/// can fall as the level rises, is trusted by the replay.
struct ClaimsMonotone<'a>(&'a JobUtility);

impl UtilityOfCpu for ClaimsMonotone<'_> {
    fn utility(&self, cpu: CpuMhz) -> f64 {
        self.0.utility(cpu)
    }

    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz> {
        self.0.cpu_for_utility(u)
    }

    fn cpu_for_utility_in_range(&self, u: f64) -> Option<CpuMhz> {
        self.0.cpu_for_utility_in_range(u)
    }

    fn max_useful_cpu(&self) -> CpuMhz {
        self.0.max_useful_cpu()
    }

    fn saturation(&self) -> (CpuMhz, f64, f64) {
        self.0.saturation()
    }

    fn is_monotone(&self) -> bool {
        true
    }
}

/// The root finder's stated cap on its sums (`EqualizedAllocation::sums`).
const FINDER_SUMS: usize = 12;

/// What a bit-identity sweep over pools saw.
#[derive(Default)]
struct PoolSweep {
    /// Paths the naive bodies took, and pool traits, in runs.
    tally: BTreeMap<&'static str, usize>,
    /// Runs where the full-speed `max_utility` moves a bound, and the
    /// runs whose answer it changed.
    full_speed: (usize, usize),
    /// Contended runs over a hostile goal, and the runs whose answer a
    /// claimed monotone demand changed.
    claimed: (usize, usize),
    /// Contended runs whose every curve is monotone: runs, probes, sums.
    replayed: (usize, usize, usize),
    /// Contended runs gated to one sum a probe.
    gated: usize,
}

impl PoolSweep {
    fn print(&self, what: &str) {
        let (runs, probes, sums) = self.replayed;
        println!("{what}: {:?}", self.tally);
        println!(
            "  replayed {runs} runs ({:.2} sums for {:.2} probes a run), gated {}",
            sums as f64 / runs.max(1) as f64,
            probes as f64 / runs.max(1) as f64,
            self.gated
        );
        println!(
            "  full-speed utility as max_utility: caught in {} of {} runs it moves a bound in",
            self.full_speed.1, self.full_speed.0
        );
        println!(
            "  a hostile goal that claims is_monotone: caught in {} of {} contended runs over one",
            self.claimed.1, self.claimed.0
        );
    }
}

/// The pool's entities with each curve that has a wrapper seen through it.
fn wrapped_pool<'a, W: UtilityOfCpu>(
    curves: &'a [Curve],
    wrappers: &'a [Option<W>],
    id: impl Fn(usize) -> EntityId,
) -> Vec<EqEntity<'a>> {
    (0..curves.len())
        .map(|k| match &wrappers[k] {
            Some(w) => EqEntity::new(id(k), w),
            None => EqEntity::new(id(k), curves[k].as_dyn()),
        })
        .collect()
}

/// Hold the shipped equalizers to the naive bodies over one seeded pool
/// per seed, of `size` curves, hostile goals drawn where `hostile` says.
fn sweep_pools(
    seeds: std::ops::Range<u64>,
    size: impl Fn(&mut TestRng) -> usize,
    hostile: impl Fn(&mut TestRng) -> bool,
) -> PoolSweep {
    let mut sweep = PoolSweep::default();
    for seed in seeds {
        let rng = &mut TestRng::new(seed);
        let n = size(rng);
        let hostile = hostile(rng);
        let curves: Vec<Curve> = (0..n).map(|_| draw_curve_with(rng, hostile)).collect();
        let id = |k: usize| -> EntityId {
            match curves[k] {
                Curve::Job(_) => JobId::new(k as u32).into(),
                Curve::Trans(_) => AppId::new(k as u32).into(),
            }
        };
        let shipped: Vec<EqEntity<'_>> = (0..n)
            .map(|k| EqEntity::new(id(k), curves[k].as_dyn()))
            .collect();
        for e in &shipped {
            let cap = three_calls(e.curve()).0;
            assert_eq!(e.cap().as_f64().to_bits(), cap.as_f64().to_bits());
        }
        let naive: Vec<NaiveEntity<'_>> = (0..n)
            .map(|k| NaiveEntity {
                id: id(k),
                curve: curves[k].as_dyn(),
            })
            .collect();
        let mutated_curves: Vec<Option<FullSpeedMax<'_>>> = curves
            .iter()
            .map(|c| match c {
                Curve::Job(ju) => Some(FullSpeedMax(ju)),
                Curve::Trans(_) => None,
            })
            .collect();
        let mutated = wrapped_pool(&curves, &mutated_curves, id);
        let claiming_curves: Vec<Option<ClaimsMonotone<'_>>> = curves
            .iter()
            .map(|c| match c {
                Curve::Job(ju) => Some(ClaimsMonotone(ju)),
                Curve::Trans(_) => None,
            })
            .collect();
        let claiming = wrapped_pool(&curves, &claiming_curves, id);
        let capped = curves
            .iter()
            .any(|c| matches!(c, Curve::Job(ju) if capped_below_max_speed(ju)));
        let has_hostile = curves
            .iter()
            .any(|c| matches!(c, Curve::Job(ju) if !ju.goal.is_valid()));
        let monotone = curves.iter().all(|c| c.as_dyn().is_monotone());
        assert_eq!(monotone, !has_hostile, "seed {seed}");
        // Whether the mutation moves any bound of this pool.
        let mutation_bites = curves.iter().any(|c| {
            matches!(c, Curve::Job(ju)
                if bounds_bits(FullSpeedMax(ju).saturation()) != bounds_bits(three_calls(ju)))
        });

        let weights: Vec<f64> = (0..n - rng.below(2) as usize)
            .map(|_| {
                [1.0, 2.0, 0.5, 4.0, f64::NAN, -3.0, 0.0, f64::INFINITY][rng.below(8) as usize]
            })
            .collect();
        let opts = match rng.below(10) {
            0 => EqualizeOptions {
                max_iters: 0,
                ..Default::default()
            },
            1 => EqualizeOptions {
                max_iters: 3,
                ..Default::default()
            },
            2 => EqualizeOptions {
                tol_utility: 1e-3,
                ..Default::default()
            },
            _ => EqualizeOptions::default(),
        };
        let demand: f64 = curves
            .iter()
            .map(|c| c.as_dyn().max_useful_cpu().as_f64())
            .sum();
        let demand = if demand > 0.0 { demand } else { 1000.0 };
        let budgets = [
            0.0,
            demand * 1e-6,
            demand * rng.unit_f64(),
            demand * uniform(rng, 0.9, 1.0),
            demand,
            demand * uniform(rng, 1.0, 3.0),
        ];
        for total in budgets.map(CpuMhz::new) {
            for weighted in [false, true] {
                let run = |es: &[EqEntity<'_>]| {
                    if weighted {
                        equalize_weighted(es, &weights, total, &opts)
                    } else {
                        equalize_bisection(es, total, &opts)
                    }
                };
                naive::take_path();
                let want = if weighted {
                    naive::equalize_weighted(&naive, &weights, total, &opts)
                } else {
                    naive::equalize_bisection(&naive, total, &opts)
                };
                let path = naive::take_path();
                let got = run(&shipped);
                assert_eq!(
                    fingerprint(&got),
                    fingerprint(&want),
                    "seed {seed}, budget {total}, weighted {weighted}"
                );
                if got.contended {
                    assert!(
                        got.sums <= got.iterations + FINDER_SUMS,
                        "seed {seed}: {} sums, {} iterations",
                        got.sums,
                        got.iterations
                    );
                    if monotone {
                        let (runs, probes, sums) = &mut sweep.replayed;
                        (*runs, *probes, *sums) =
                            (*runs + 1, *probes + got.iterations, *sums + got.sums);
                    } else {
                        assert_eq!(got.sums, got.iterations, "seed {seed}: gated");
                        sweep.gated += 1;
                    }
                } else {
                    assert_eq!(got.sums, 0, "seed {seed}");
                }

                let mut saw = |what: &'static str, seen: bool| {
                    *sweep.tally.entry(what).or_default() += usize::from(seen);
                };
                saw("uncontended", path[naive::UNCONTENDED]);
                saw("bisected", !path[naive::UNCONTENDED] && want.iterations > 0);
                saw("trimmed", path[naive::TRIMMED]);
                saw("residual hand-out", path[naive::HANDED_OUT]);
                saw("cap below max_speed", capped);
                saw("hostile goal", has_hostile);
                if mutation_bites {
                    sweep.full_speed.0 += 1;
                    sweep.full_speed.1 +=
                        usize::from(fingerprint(&run(&mutated)) != fingerprint(&want));
                }
                if has_hostile && want.contended {
                    sweep.claimed.0 += 1;
                    sweep.claimed.1 +=
                        usize::from(fingerprint(&run(&claiming)) != fingerprint(&want));
                }
            }
        }
    }
    sweep
}

#[test]
fn kept_bounds_equal_the_curve_read_on_every_use() {
    const POOLS: u64 = 3000;
    let sweep = sweep_pools(0..POOLS, |rng| 1 + rng.below(12) as usize, |_| true);
    sweep.print(&format!(
        "kept bounds ≡ curve on every use over {POOLS} pools, 6 budgets, 2 equalizers"
    ));
    let tally = &sweep.tally;
    for (what, seen) in tally {
        assert!(*seen >= 200, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 6, "{tally:?}");
    // The mutation check: pools where the full-speed utility kept as
    // `max_utility` moves a bound (see `saturation_equals_the_three_calls`).
    let (mutated_runs, caught) = sweep.full_speed;
    assert!(
        caught >= 200 && caught * 3 >= mutated_runs,
        "{caught} of {mutated_runs}"
    );
    // The replay's gate: one non-monotone curve sends the call down the
    // sum-every-probe path, and trusting a hostile goal's claim parts
    // from the naive body.
    let (runs, _, _) = sweep.replayed;
    assert!(
        runs >= 3000 && sweep.gated >= 1000,
        "{runs}, {}",
        sweep.gated
    );
    let (claimed, caught) = sweep.claimed;
    assert!(caught >= 5, "{caught} of {claimed}");
}

/// The replay at the pool sizes the controller serves (the `paper`
/// preset equalizes 73 entities): pools of 13 to 100 curves, half of
/// them free of hostile goals so that the replay, not the gate, serves
/// them.
#[test]
fn replay_equals_the_naive_bisection_on_large_pools() {
    const POOLS: u64 = 400;
    // Seeds past the other sweeps' ranges: fresh pools.
    const FIRST_SEED: u64 = 1 << 21;
    let sweep = sweep_pools(
        FIRST_SEED..FIRST_SEED + POOLS,
        |rng| 13 + rng.below(88) as usize,
        |rng| rng.below(2) == 0,
    );
    sweep.print(&format!(
        "replay ≡ naive bisection over {POOLS} pools of 13–100 curves, 6 budgets, 2 equalizers"
    ));
    let tally = &sweep.tally;
    for what in [
        "bisected",
        "uncontended",
        "residual hand-out",
        "hostile goal",
    ] {
        assert!(tally[what] >= 200, "{what}: {tally:?}");
    }
    let (runs, probes, sums) = sweep.replayed;
    assert!(runs >= 500 && sweep.gated >= 500, "{runs}, {}", sweep.gated);
    // The saving itself: fewer than half as many sums as probes. (A
    // hostile goal's one-level spike is lost in a large pool's demand:
    // the gate's mutation is caught in the small pools.)
    assert!(2 * sums < probes, "{sums} sums for {probes} probes");
}

/// The mutation of the in-range sweep: `JobUtility`'s in-range body
/// without the `.min(max_speed)` clamp.
fn unclamped_in_range(ju: &JobUtility, u: f64) -> Option<CpuMhz> {
    let latest = ju.goal.latest_for_utility(u);
    if latest.is_never() {
        return Some(CpuMhz::ZERO);
    }
    let dt = (latest - ju.now).as_secs();
    Some(ju.remaining.power_for_secs(dt).max_zero())
}

fn cpu_bits(cpu: Option<CpuMhz>) -> Option<u64> {
    cpu.map(|c| c.as_f64().to_bits())
}

#[test]
fn in_range_inverse_equals_the_checked_one() {
    const CURVES: u64 = 40_000;
    // Seeds past the other sweeps' ranges: fresh curves.
    const FIRST_SEED: u64 = 1 << 20;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut no_interior: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut edge_probes, mut caught, mut caught_past_fastest) = (0usize, 0usize, 0usize);
    for seed in FIRST_SEED..FIRST_SEED + CURVES {
        let rng = &mut TestRng::new(seed);
        let curve = draw_curve(rng);
        let c = curve.as_dyn();
        let what = kind(&curve);
        // The levels `demand_at_level` asks the in-range inverse for:
        // strictly between the kept bounds.
        let (_, u_max, u_zero) = c.saturation();
        let inside = |u: f64| u_zero < u && u < u_max;
        let edges = [u_zero.next_up(), u_max.next_down()];
        let mut levels: Vec<f64> = edges.into_iter().filter(|&u| inside(u)).collect();
        edge_probes += levels.len();
        levels.extend(
            (0..6)
                .map(|_| u_zero + rng.unit_f64() * (u_max - u_zero))
                .chain([0.5 * (u_zero + u_max), u_max - 1e-9, u_zero + 1e-9])
                .filter(|&u| inside(u)),
        );
        if levels.is_empty() {
            *no_interior.entry(what).or_default() += 1;
            continue;
        }
        for &u in &levels {
            assert_eq!(
                cpu_bits(c.cpu_for_utility_in_range(u)),
                cpu_bits(c.cpu_for_utility(u)),
                "seed {seed}, {what}, level {u:e} in ({u_zero:e}, {u_max:e})"
            );
            *tally.entry(what).or_default() += 1;
            if let Curve::Job(ju) = &curve {
                if cpu_bits(unclamped_in_range(ju, u)) != cpu_bits(ju.cpu_for_utility(u)) {
                    caught += 1;
                    caught_past_fastest += usize::from(ju.now >= ju.goal.earliest);
                }
            }
        }
    }
    println!(
        "in-range inverse ≡ cpu_for_utility over {CURVES} curves ({edge_probes} edge probes): \
         probes {tally:?}, curves without an interior {no_interior:?}"
    );
    for (what, seen) in &tally {
        assert!(*seen >= 2000, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 5, "{tally:?}");
    assert!(edge_probes >= 40_000, "{edge_probes}");
    // The mutation check: an in-range body without the clamp, beside a
    // checked inverse that keeps it, overshoots `max_speed` wherever the
    // latest completion still achieving `u` lands nearer than the fastest
    // finish `max_speed` allows — on curves past their fastest finish and
    // at the upper edge probes. The same floor fails if the shipped body
    // itself loses the clamp.
    println!(
        "in-range body without the max_speed clamp: caught on {caught} probes \
         ({caught_past_fastest} on curves past their fastest finish)"
    );
    assert!(
        caught >= 1000 && caught_past_fastest >= 500,
        "{caught}, {caught_past_fastest}"
    );
}

/// The equalizers' `demand_at_level`, spelled over the curve's bounds as
/// `EqEntity::new` keeps them.
fn demand_at_level(c: &dyn UtilityOfCpu, u: f64) -> f64 {
    let (cap, u_max, u_zero) = c.saturation();
    let cpu = if u <= u_zero {
        CpuMhz::ZERO
    } else if u >= u_max {
        cap
    } else {
        c.cpu_for_utility_in_range(u).unwrap_or(cap)
    };
    cpu.as_f64()
}

#[test]
fn claimed_monotone_demand_never_falls() {
    const CURVES: u64 = 20_000;
    // Seeds past the other sweeps' ranges: fresh curves.
    const FIRST_SEED: u64 = 1 << 22;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut unclaimed, mut falling) = (0usize, 0usize);
    for seed in FIRST_SEED..FIRST_SEED + CURVES {
        let rng = &mut TestRng::new(seed);
        let curve = draw_curve(rng);
        let c = curve.as_dyn();
        let (_, u_max, u_zero) = c.saturation();
        // The representable neighbours of every level where the demand
        // changes form, then levels drawn across and around the range.
        let mut marks = vec![u_zero, u_max];
        if let Curve::Job(ju) = &curve {
            let g = &ju.goal;
            marks.extend([g.max_utility, g.goal_utility, g.min_utility]);
        }
        let mut levels: Vec<f64> = marks
            .iter()
            .flat_map(|&u| [u.next_down(), u, u.next_up()])
            .collect();
        let (below, above) = (u_zero.min(u_max) - 0.1, u_zero.max(u_max) + 0.1);
        levels.extend((0..24).map(|_| uniform(rng, below, above)));
        levels.extend((0..24).map(|_| uniform(rng, u_zero, u_max)));
        levels.retain(|u| u.is_finite());
        levels.sort_by(f64::total_cmp);
        levels.dedup();
        let demand: Vec<f64> = levels.iter().map(|&u| demand_at_level(c, u)).collect();
        // A NaN demand counts as a fall.
        let falls = demand
            .windows(2)
            .position(|d| d[0].partial_cmp(&d[1]).is_none_or(|o| o.is_gt()));
        if c.is_monotone() {
            if let Some(k) = falls {
                panic!(
                    "seed {seed}, {}: demand {:e} at {:e} but {:e} at {:e}",
                    kind(&curve),
                    demand[k],
                    levels[k],
                    demand[k + 1],
                    levels[k + 1]
                );
            }
            *tally.entry(kind(&curve)).or_default() += levels.len();
        } else {
            unclaimed += 1;
            falling += usize::from(falls.is_some());
        }
    }
    println!(
        "claimed-monotone demand non-decreasing over {CURVES} curves: levels {tally:?}; \
         {unclaimed} curves claim no monotone demand, {falling} of them fall"
    );
    for (what, seen) in &tally {
        assert!(*seen >= 20_000, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 7, "{tally:?}");
    // The mutation check: the sweep sees a falling demand where there is
    // one — on hostile goals, which do not claim a monotone one (the
    // goals that never exhaust, whose demand spikes at `goal_utility`).
    assert!(falling >= 100, "{falling} of {unclaimed}");
}
