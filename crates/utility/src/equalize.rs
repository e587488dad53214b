//! Utility-equalization solvers: divide a fluid CPU budget among entities
//! so that the *minimum* utility is maximized — which, for strictly
//! increasing curves, equalizes utility across all entities that are not
//! saturated at their demand cap.
//!
//! Three solvers are provided:
//!
//! * [`equalize_bisection`] — exact: bisection on the common utility level
//!   `u*`, exploiting that aggregate demand `Σᵢ cpuᵢ(u)` is monotone in `u`.
//! * [`equalize_weighted`] — service differentiation: bisection on the
//!   common importance-scaled *shortfall* from each entity's own optimum.
//! * [`equalize_steal`] — the paper's own description: *"the algorithm
//!   operates by continuously stealing resources \[from\] the more satisfied
//!   applications to later be given to the less satisfied applications"*.
//!   Implemented as repeated pairwise donor→receiver transfers, each sized
//!   by bisection so the pair's utilities meet.
//!
//! Bisection and steal return the same allocation up to tolerance, as
//! does weighted at unit weights and equal maxima (asserted by tests).
//!
//! Each curve's bounds — `max_useful_cpu`, `max_utility`,
//! `utility_at_zero` — are read once, by [`EqEntity::new`] through
//! [`UtilityOfCpu::saturation`], and kept on the entity; the solvers read
//! the kept values and go through the curve only for `utility` and, once
//! a level lies strictly between the kept bounds, the in-range inverse
//! [`UtilityOfCpu::cpu_for_utility_in_range`]. A grant's utility is read
//! once, and again only if the closing trim or hand-out moves its CPU.
//! `saturation` returns what the three calls return, bit for bit, the
//! in-range inverse what `cpu_for_utility` returns inside the range, and
//! `utility` is a pure function of the CPU, so the answer is the one a
//! solver asking the curve on every use would give
//! (`tests/equalize_bounds.rs`).
//!
//! **The replay.** Both bisections walk the same path of mids to the
//! same level as one that sums the demand at every mid, from far fewer
//! sums. A demand sum is a left fold, in a fixed order, of per-entity
//! demands, and IEEE addition is monotone in each operand; so when every
//! curve's demand is monotone in the level
//! ([`UtilityOfCpu::is_monotone`], asked once per contended call), the
//! sum is monotone too, bit for bit. A mid at or below a level whose sum
//! moved `lo` would move `lo` as well, and one at or above a level whose
//! sum moved `hi` would move `hi`: the loop keeps those two levels and
//! sums only a mid strictly between them. Before the replay, after two
//! plain steps, a bracketing root finder (regula falsi with the
//! Anderson–Björck weights, at most 12 sums) narrows the two levels to
//! half of `tol_utility` around the crossing, so the bisection's 31
//! steps at the default tolerance are decided from about 12 sums
//! (`EqualizedAllocation::sums`). The steps, the termination, the
//! `iterations` and the level are untouched. If some curve cannot
//! promise a monotone demand, or a sum comes back NaN, the loop sums
//! every mid from then on — the plain bisection.

use crate::entity::UtilityOfCpu;
use serde::{Deserialize, Serialize};
use slaq_types::{fcmp, CpuMhz, EntityId};

/// One entity competing for CPU: an id, its utility-of-CPU curve, and
/// the curve's bounds, read once at construction.
pub struct EqEntity<'a> {
    /// Stable identity used in the result.
    pub id: EntityId,
    curve: &'a dyn UtilityOfCpu,
    /// `curve.max_useful_cpu()`: the demand cap.
    cap: CpuMhz,
    /// `curve.max_utility()`: the saturation level.
    u_max: f64,
    /// `curve.utility_at_zero()`.
    u_zero: f64,
}

impl<'a> EqEntity<'a> {
    /// Pair an id with its curve, reading the curve's bounds once
    /// ([`UtilityOfCpu::saturation`]).
    pub fn new(id: impl Into<EntityId>, curve: &'a dyn UtilityOfCpu) -> Self {
        let (cap, u_max, u_zero) = curve.saturation();
        EqEntity {
            id: id.into(),
            curve,
            cap,
            u_max,
            u_zero,
        }
    }

    /// The entity's utility curve.
    pub fn curve(&self) -> &'a dyn UtilityOfCpu {
        self.curve
    }

    /// The curve's demand for maximum utility, as read at construction.
    pub fn cap(&self) -> CpuMhz {
        self.cap
    }
}

/// Per-entity outcome of an equalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntityAllocation {
    /// The entity.
    pub id: EntityId,
    /// CPU power granted.
    pub cpu: CpuMhz,
    /// Utility at that allocation.
    pub utility: f64,
}

/// Result of an equalization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EqualizedAllocation {
    /// Per-entity allocations, in input order.
    pub allocations: Vec<EntityAllocation>,
    /// The max–min water level `u*`: every entity either attains utility
    /// ≥ `u* − tol` or is saturated at its demand cap (its maximum utility
    /// being below `u*`).
    pub common_utility: f64,
    /// Σ of granted CPU.
    pub total_allocated: CpuMhz,
    /// Budget left after every entity saturated (zero while any entity can
    /// still improve).
    pub surplus: CpuMhz,
    /// Iterations used by the solver (bisection steps or steal rounds).
    pub iterations: usize,
    /// Demand sums the bisection computed, each a walk over every
    /// entity's curve inverse: at most `iterations` plus the root
    /// finder's 12, and exactly `iterations` when some curve is not
    /// [`UtilityOfCpu::is_monotone`]. Zero for the steal loop and the
    /// early returns.
    pub sums: usize,
    /// `false` when the solver returned without searching for a level:
    /// no entities, or a budget that covers every demand cap. A contended
    /// bisection may still run zero steps (bounds already within the
    /// tolerance), so `iterations` alone cannot tell the two apart.
    pub contended: bool,
}

impl EqualizedAllocation {
    /// Allocation for one entity, if present. An O(n) scan of
    /// [`EqualizedAllocation::allocations`], meant for tests and one-off
    /// queries; a loop over the entities reads `allocations` by position
    /// instead (it is in input order).
    pub fn cpu_of(&self, id: impl Into<EntityId>) -> Option<CpuMhz> {
        let id = id.into();
        self.allocations.iter().find(|a| a.id == id).map(|a| a.cpu)
    }

    /// Minimum utility across entities (`+∞` when empty).
    pub fn min_utility(&self) -> f64 {
        min_utility(&self.allocations)
    }
}

fn min_utility(allocations: &[EntityAllocation]) -> f64 {
    allocations
        .iter()
        .map(|a| a.utility)
        .fold(f64::INFINITY, f64::min)
}

/// Tuning knobs for the solvers. The defaults resolve a 300 000 MHz cluster
/// to well under 1 MHz.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EqualizeOptions {
    /// Utility-level resolution for bisection termination.
    pub tol_utility: f64,
    /// CPU resolution used when sizing pairwise transfers.
    pub tol_cpu: f64,
    /// Upper bound on solver iterations (bisection steps / steal rounds).
    pub max_iters: usize,
}

impl Default for EqualizeOptions {
    fn default() -> Self {
        EqualizeOptions {
            tol_utility: 1e-9,
            tol_cpu: 1e-6,
            max_iters: 200,
        }
    }
}

/// CPU the entity needs to reach utility level `u`, honouring saturation:
/// entities whose maximum utility is below `u` contribute their full demand
/// cap (they cannot do better), entities already at `u` with zero CPU
/// contribute zero. Past both checks `u` is inside the kept bounds, so
/// the curve is asked for its in-range inverse.
fn demand_at_level(e: &EqEntity<'_>, u: f64) -> CpuMhz {
    if u <= e.u_zero {
        return CpuMhz::ZERO;
    }
    if u >= e.u_max {
        return e.cap;
    }
    e.curve.cpu_for_utility_in_range(u).unwrap_or(e.cap)
}

/// The grant that lifts `e` to utility level `u` (see [`demand_at_level`]).
fn grant_at_level(e: &EqEntity<'_>, u: f64) -> EntityAllocation {
    let cpu = demand_at_level(e, u);
    EntityAllocation {
        id: e.id,
        cpu,
        utility: e.curve.utility(cpu),
    }
}

/// Nothing to divide: the whole budget is surplus.
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

/// The answer when there is no contention to resolve: no entities at
/// all, or a budget that covers everyone's full demand — saturate
/// everyone, the common utility being the lowest saturation level.
fn uncontended(
    entities: &[EqEntity<'_>],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> Option<EqualizedAllocation> {
    if entities.is_empty() {
        return Some(no_entities(total));
    }
    let full_demand: CpuMhz = entities.iter().map(|e| e.cap).sum();
    if full_demand.as_f64() > total.as_f64() + opts.tol_cpu {
        return None;
    }
    let allocations: Vec<EntityAllocation> = entities
        .iter()
        .map(|e| EntityAllocation {
            id: e.id,
            cpu: e.cap,
            utility: e.u_max,
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

/// The closing passes of the two bisection solvers, over the grants at
/// the settled level.
///
/// Feasibility polish: the level satisfies Σ ≤ total by construction
/// (the bisection kept the feasible bound), but fp noise can leave a hair
/// of excess; trim it pro rata. Then hand the budget left over out in the
/// order `rank` gives, each entity up to its demand cap (keeps the result
/// maximal, not just feasible); one pass is enough at the bisection
/// tolerance. `rank` sees the grants' utilities as granted, before the
/// trim. A utility is read again only where a pass moved the CPU.
fn settle(
    entities: &[EqEntity<'_>],
    allocations: &mut [EntityAllocation],
    total: CpuMhz,
    opts: &EqualizeOptions,
    rank: impl FnOnce(&[EntityAllocation]) -> Vec<usize>,
) {
    let granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
    let scale = (granted.as_f64() > total.as_f64()).then(|| total.as_f64() / granted.as_f64());
    let granted: CpuMhz = match scale {
        Some(scale) => allocations.iter().map(|a| a.cpu * scale).sum(),
        None => granted,
    };
    let mut residual = total.saturating_sub(granted);
    let order = (residual.as_f64() > opts.tol_cpu).then(|| rank(allocations));
    if let Some(scale) = scale {
        for (a, e) in allocations.iter_mut().zip(entities) {
            let cpu = a.cpu * scale;
            if cpu.as_f64().to_bits() != a.cpu.as_f64().to_bits() {
                a.cpu = cpu;
                a.utility = e.curve.utility(cpu);
            }
        }
    }
    for &idx in order.iter().flatten() {
        if residual.as_f64() <= opts.tol_cpu {
            break;
        }
        let room = entities[idx].cap.saturating_sub(allocations[idx].cpu);
        let grant = room.min(residual);
        if grant.as_f64() > 0.0 {
            let a = &mut allocations[idx];
            a.cpu += grant;
            a.utility = entities[idx].curve.utility(a.cpu);
            residual -= grant;
        }
    }
}

/// Closing assembly of all three solvers, over allocations whose utility
/// was read at their final grant: surplus counted only when everyone is
/// saturated, and `common_utility` the minimum utility (bisection reports
/// its level).
fn finish(
    entities: &[EqEntity<'_>],
    allocations: Vec<EntityAllocation>,
    total: CpuMhz,
    iterations: usize,
    sums: usize,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let granted: CpuMhz = allocations.iter().map(|a| a.cpu).sum();
    let all_saturated = allocations
        .iter()
        .zip(entities)
        .all(|(a, e)| a.cpu.as_f64() >= e.cap.as_f64() - opts.tol_cpu);
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
        sums,
        contended: true,
    }
}

/// Bisection steps summed as they come before the root finder runs.
const PLAIN_STEPS: usize = 2;
/// The most demand sums the root finder makes.
const FINDER_SUMS: usize = 12;
/// The width, in units of `tol_utility`, the root finder narrows its
/// bracket to: one the bisection's last steps rarely land inside.
const FINDER_WIDTH: f64 = 0.5;

/// Whether every curve promises demand non-decreasing in the level
/// ([`UtilityOfCpu::is_monotone`]); asked once per contended call.
fn monotone(entities: &[EqEntity<'_>]) -> bool {
    entities.iter().all(|e| e.curve.is_monotone())
}

/// Where a bisection ended, and what it cost.
struct Bisection {
    lo: f64,
    hi: f64,
    /// Steps taken.
    iterations: usize,
    /// Demand sums made, by the steps and the root finder together.
    sums: usize,
}

/// The bisection both solvers run on `[lo, hi]`: `mid = 0.5·(lo + hi)`
/// until the bracket is within `tol_utility` or `max_iters` steps ran,
/// `lo` moving to a mid whose demand sum `need(mid)` lies on the low
/// side, `hi` to any other. The low side is the feasible one
/// (`need ≤ total`) when demand `rises` with the level, the infeasible
/// one (or NaN) when it falls. `monotone` says whether `need` may be
/// trusted to be monotone; see [`Replay`] for how a step is decided.
fn bisect(
    mut lo: f64,
    mut hi: f64,
    total: CpuMhz,
    rises: bool,
    monotone: bool,
    opts: &EqualizeOptions,
    need: impl FnMut(f64) -> f64,
) -> Bisection {
    let mut replay = Replay {
        need,
        total: total.as_f64(),
        rises,
        trusted: monotone,
        low: None,
        high: None,
        sums: 0,
    };
    let mut iterations = 0;
    while hi - lo > opts.tol_utility && iterations < opts.max_iters {
        let mid = 0.5 * (lo + hi);
        if iterations == PLAIN_STEPS {
            replay.narrow(lo, hi, FINDER_WIDTH * opts.tol_utility);
        }
        if replay.is_low(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
        iterations += 1;
    }
    Bisection {
        lo,
        hi,
        iterations,
        sums: replay.sums,
    }
}

/// The demand sums a bisection has made, as far as they decide its
/// later steps.
///
/// The sum is a left fold, in a fixed order, of per-entity demands, and
/// IEEE addition is monotone in each operand: when every demand is
/// monotone in the level, so is the sum, bit for bit. A level at or
/// below one whose sum fell on the low side falls there too, and one at
/// or above a level summed on the high side falls there — no sum needed.
/// So the replay keeps the largest level summed low and the smallest
/// summed high, and a step sums only a mid strictly between them. The
/// root finder ([`Replay::narrow`]) first closes that bracket around the
/// crossing with a few well-aimed sums, so that nearly every step of the
/// bisection that follows is decided for free and the loop walks the
/// same path, to the same level, as one that summed every mid.
///
/// Trust is withdrawn for the rest of the call when a sum comes back
/// NaN, and never given when some curve is not [`UtilityOfCpu::is_monotone`]:
/// then every mid is summed, as the plain bisection does.
struct Replay<F> {
    need: F,
    total: f64,
    rises: bool,
    trusted: bool,
    /// The largest level summed on the low side, with its sum.
    low: Option<(f64, f64)>,
    /// The smallest level summed on the high side, with its sum.
    high: Option<(f64, f64)>,
    sums: usize,
}

impl<F: FnMut(f64) -> f64> Replay<F> {
    /// Whether the step at `x` moves `lo`: read off the bracket when it
    /// decides `x`, summed otherwise.
    fn is_low(&mut self, x: f64) -> bool {
        if self.trusted {
            if self.low.is_some_and(|(l, _)| x <= l) {
                return true;
            }
            if self.high.is_some_and(|(h, _)| x >= h) {
                return false;
            }
        }
        self.sum(x).0
    }

    /// The sum at `x`, the side it falls on, and what it teaches the
    /// bracket.
    fn sum(&mut self, x: f64) -> (bool, f64) {
        let need = (self.need)(x);
        self.sums += 1;
        let low = (need <= self.total) == self.rises;
        if need.is_nan() {
            self.trusted = false;
        } else if low {
            if self.low.is_none_or(|(l, _)| x > l) {
                self.low = Some((x, need));
            }
        } else if self.high.is_none_or(|(h, _)| x < h) {
            self.high = Some((x, need));
        }
        (low, need)
    }

    /// Regula falsi on `need − total` over the bracket, with the
    /// Anderson–Björck weights: narrow it to at most `width`, in at most
    /// [`FINDER_SUMS`] sums. A side with no sum yet is first summed at
    /// the loop's own bound there (`lo` or `hi`); if the crossing is not
    /// inside `[lo, hi]`, one side stays empty and the replay decides
    /// every step from the other. A guess is kept `width / 2` inside the
    /// bracket, so one that lands next to the crossing closes the bracket
    /// with the sum after it.
    fn narrow(&mut self, lo: f64, hi: f64, width: f64) {
        let budget = self.sums + FINDER_SUMS;
        if self.trusted && self.low.is_none() {
            self.sum(lo);
        }
        if self.trusted && self.high.is_none() {
            self.sum(hi);
        }
        let (Some((mut a, need_a)), Some((mut b, need_b))) = (self.low, self.high) else {
            return;
        };
        let (mut fa, mut fb) = (need_a - self.total, need_b - self.total);
        let margin = 0.5 * width;
        let mut last_low = None;
        while self.trusted && self.sums < budget && b - a > width {
            let guess = a + (b - a) * (fa / (fa - fb));
            let mut x = guess.max(a + margin).min(b - margin);
            if !(a < x && x < b) {
                x = 0.5 * (a + b);
                if !(a < x && x < b) {
                    return;
                }
            }
            let (low, need) = self.sum(x);
            let f = need - self.total;
            // Two guesses in a row on one side: scale the value kept on
            // the other by 1 − f / f_old, the share of the old value the
            // new guess removed (by ½ where that is not positive).
            let weight = |old: f64| Some(1.0 - f / old).filter(|&m| m > 0.0).unwrap_or(0.5);
            if low {
                if last_low == Some(true) {
                    fb *= weight(fa);
                }
                (a, fa) = (x, f);
            } else {
                if last_low == Some(false) {
                    fa *= weight(fb);
                }
                (b, fb) = (x, f);
            }
            last_low = Some(low);
        }
    }
}

/// Exact max–min equalization by bisection on the common utility level.
///
/// Invariants of the result (covered by property tests):
/// * `Σ cpuᵢ ≤ total (+ε)` and `0 ≤ cpuᵢ ≤ max_useful_cpuᵢ`;
/// * every entity with `utility < common_utility − tol` is saturated;
/// * `surplus > 0` only when **all** entities are saturated.
pub fn equalize_bisection(
    entities: &[EqEntity<'_>],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let total = total.max_zero();
    if let Some(settled) = uncontended(entities, total, opts) {
        return settled;
    }

    // Bisection bounds on the water level.
    let lo = entities
        .iter()
        .map(|e| e.u_zero)
        .fold(f64::INFINITY, f64::min);
    let hi = entities
        .iter()
        .map(|e| e.u_max)
        .fold(f64::NEG_INFINITY, f64::max);
    debug_assert!(lo <= hi + 1e-12);

    // Demand rises with the level: a feasible level moves `lo`.
    let search = bisect(lo, hi, total, true, monotone(entities), opts, |u| {
        let need: CpuMhz = entities.iter().map(|e| demand_at_level(e, u)).sum();
        need.as_f64()
    });
    let level = search.lo;

    let mut allocations: Vec<EntityAllocation> =
        entities.iter().map(|e| grant_at_level(e, level)).collect();

    // Residual budget to the least satisfied first (raises the minimum).
    //
    // Policy note: when the water level pins at a utility *floor* shared
    // by more entities than the budget can lift (a severely overloaded
    // pool), max–min is indifferent between them and this pass degenerates
    // into FIFO-greedy — the earliest entities in input order get
    // saturated first. Callers pass entities in submission order, so this
    // matches the natural "oldest jobs first" tie-break.
    settle(entities, &mut allocations, total, opts, |granted| {
        let mut order: Vec<usize> = (0..granted.len()).collect();
        order.sort_by(|&a, &b| fcmp(granted[a].utility, granted[b].utility));
        order
    });

    EqualizedAllocation {
        common_utility: level,
        ..finish(
            entities,
            allocations,
            total,
            search.iterations,
            search.sums,
            opts,
        )
    }
}

/// Weighted (service-differentiated) equalization: minimize the maximum
/// **importance-scaled utility shortfall** `wᵢ · (u_maxᵢ − uᵢ)`.
///
/// At the common shortfall level `ℓ ≥ 0`, entity `i` targets utility
/// `u_maxᵢ − ℓ/wᵢ`: doubling an entity's weight halves how far below its
/// own optimum it is allowed to fall — "service differentiation based on
/// high-level performance goals" in the paper's words. With all weights
/// equal and equal `u_max`, this coincides with max–min equalization.
///
/// `weights` pairs each input entity (by index) with its importance
/// (> 0); missing/non-positive entries default to 1.0.
pub fn equalize_weighted(
    entities: &[EqEntity<'_>],
    weights: &[f64],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let total = total.max_zero();
    if let Some(settled) = uncontended(entities, total, opts) {
        return settled;
    }
    let usable = |w: &f64| *w > 0.0 && w.is_finite();
    let weight: Vec<f64> = (0..entities.len())
        .map(|i| weights.get(i).copied().filter(usable).unwrap_or(1.0))
        .collect();

    // Bisection on the shortfall level ℓ: demand is non-increasing in ℓ,
    // so an infeasible ℓ moves `lo` (and a feasible one tries a smaller
    // shortfall). ℓ_hi: large enough that every entity is at (or below)
    // its zero-CPU utility.
    let lo = 0.0f64;
    let hi = entities
        .iter()
        .zip(&weight)
        .map(|(e, w)| w * (e.u_max - e.u_zero))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let search = bisect(lo, hi, total, false, monotone(entities), opts, |l| {
        let need: CpuMhz = entities
            .iter()
            .zip(&weight)
            .map(|(e, w)| demand_at_level(e, e.u_max - l / w))
            .sum();
        need.as_f64()
    });
    let level = search.hi;

    let mut allocations: Vec<EntityAllocation> = entities
        .iter()
        .zip(&weight)
        .map(|(e, w)| grant_at_level(e, e.u_max - level / w))
        .collect();
    // Residual to the largest weighted shortfall first.
    settle(entities, &mut allocations, total, opts, |granted| {
        let mut order: Vec<usize> = (0..granted.len()).collect();
        order.sort_by(|&a, &b| {
            let sa = weight[a] * (entities[a].u_max - granted[a].utility);
            let sb = weight[b] * (entities[b].u_max - granted[b].utility);
            fcmp(sb, sa)
        });
        order
    });
    finish(
        entities,
        allocations,
        total,
        search.iterations,
        search.sums,
        opts,
    )
}

/// The paper's iterative scheme: repeatedly steal CPU from the most
/// satisfied entity and hand it to the least satisfied one, sizing each
/// transfer so the pair's utilities meet.
///
/// Slower than [`equalize_bisection`] but follows the published prose; kept
/// as a cross-check oracle in tests.
pub fn equalize_steal(
    entities: &[EqEntity<'_>],
    total: CpuMhz,
    opts: &EqualizeOptions,
) -> EqualizedAllocation {
    let total = total.max_zero();
    let n = entities.len();
    if n == 0 {
        return no_entities(total);
    }

    let cap_sum: CpuMhz = entities.iter().map(|e| e.cap).sum();
    let budget = total.min(cap_sum);

    // Start proportional-to-cap: every entity gets a share of the budget
    // scaled by its demand cap (all-zero caps ⇒ all-zero start).
    let mut alloc: Vec<CpuMhz> = if cap_sum.is_zero() {
        vec![CpuMhz::ZERO; n]
    } else {
        entities
            .iter()
            .map(|e| e.cap * (budget.as_f64() / cap_sum.as_f64()))
            .collect()
    };

    let utility = |i: usize, a: &[CpuMhz]| entities[i].curve.utility(a[i]);

    let mut rounds = 0;
    while rounds < opts.max_iters {
        rounds += 1;

        // Most satisfied donor that actually holds CPU, least satisfied
        // receiver that can still absorb CPU.
        let mut donor: Option<usize> = None;
        let mut receiver: Option<usize> = None;
        for i in 0..n {
            let u = utility(i, &alloc);
            if alloc[i].as_f64() > opts.tol_cpu && donor.is_none_or(|d| u > utility(d, &alloc)) {
                donor = Some(i);
            }
            if entities[i].cap.as_f64() - alloc[i].as_f64() > opts.tol_cpu
                && receiver.is_none_or(|r| u < utility(r, &alloc))
            {
                receiver = Some(i);
            }
        }
        let (Some(d), Some(r)) = (donor, receiver) else {
            break;
        };
        if d == r {
            break;
        }
        let (ud, ur) = (utility(d, &alloc), utility(r, &alloc));
        if ud - ur <= opts.tol_utility.max(1e-7) {
            break; // equalized
        }

        // Size the transfer by bisection so u_d(a_d−m) ≈ u_r(a_r+m).
        let m_max = alloc[d].min(entities[r].cap.saturating_sub(alloc[r]));
        let mut m_lo = 0.0f64;
        let mut m_hi = m_max.as_f64();
        for _ in 0..50 {
            let m = 0.5 * (m_lo + m_hi);
            let u_d = entities[d].curve.utility(alloc[d] - CpuMhz::new(m));
            let u_r = entities[r].curve.utility(alloc[r] + CpuMhz::new(m));
            if u_d > u_r {
                m_lo = m;
            } else {
                m_hi = m;
            }
            if m_hi - m_lo < opts.tol_cpu {
                break;
            }
        }
        let m = CpuMhz::new(0.5 * (m_lo + m_hi));
        if m.as_f64() <= opts.tol_cpu {
            break; // transfer too small to matter: numerically equalized
        }
        alloc[d] -= m;
        alloc[r] += m;
    }

    let allocations: Vec<EntityAllocation> = entities
        .iter()
        .zip(&alloc)
        .map(|(e, a)| {
            let cpu = a.max_zero();
            EntityAllocation {
                id: e.id,
                cpu,
                utility: e.curve.utility(cpu),
            }
        })
        .collect();
    finish(entities, allocations, total, rounds, 0, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::CappedLinearUtility;
    use proptest::prelude::*;
    use slaq_types::{AppId, JobId};

    fn ent(u0: f64, u1: f64, cap: f64) -> CappedLinearUtility {
        CappedLinearUtility::new(u0, u1, CpuMhz::new(cap)).unwrap()
    }

    fn ids(n: usize) -> Vec<EntityId> {
        (0..n)
            .map(|i| EntityId::Job(JobId::new(i as u32)))
            .collect()
    }

    #[test]
    fn empty_input_returns_all_surplus() {
        let r = equalize_bisection(&[], CpuMhz::new(100.0), &EqualizeOptions::default());
        assert_eq!(r.surplus, CpuMhz::new(100.0));
        assert!(r.allocations.is_empty());
        let r = equalize_steal(&[], CpuMhz::new(100.0), &EqualizeOptions::default());
        assert_eq!(r.surplus, CpuMhz::new(100.0));
    }

    #[test]
    fn two_identical_entities_split_evenly() {
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_bisection(&es, CpuMhz::new(1000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(500.0), 1e-3));
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(500.0), 1e-3));
        assert!((r.allocations[0].utility - 0.5).abs() < 1e-6);
        assert!((r.common_utility - 0.5).abs() < 1e-6);
        assert_eq!(r.surplus, CpuMhz::ZERO);
    }

    #[test]
    fn abundant_budget_saturates_everyone_with_surplus() {
        let a = ent(0.0, 1.0, 300.0);
        let b = ent(0.2, 0.9, 700.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(5000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(300.0), 1e-6));
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(700.0), 1e-6));
        assert!(r.surplus.approx_eq(CpuMhz::new(4000.0), 1e-6));
        // Common utility reported as the min of the saturated utilities.
        assert!((r.common_utility - 0.9).abs() < 1e-9);
    }

    #[test]
    fn unequal_curves_get_uneven_cpu_but_equal_utility() {
        // Entity A needs 4x the CPU of entity B for the same utility —
        // the Figure 2 vs Figure 1 phenomenon in miniature.
        let a = ent(0.0, 1.0, 4000.0);
        let b = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(2500.0), &EqualizeOptions::default());
        let (ca, cb) = (r.allocations[0].cpu, r.allocations[1].cpu);
        assert!((r.allocations[0].utility - r.allocations[1].utility).abs() < 1e-6);
        assert!(ca.as_f64() / cb.as_f64() > 3.9 && ca.as_f64() / cb.as_f64() < 4.1);
        assert!((ca + cb).approx_eq(CpuMhz::new(2500.0), 1e-3));
    }

    #[test]
    fn saturated_entity_frees_cpu_for_the_rest() {
        // B saturates at u=0.4; A can keep climbing. Max-min should push A
        // beyond 0.4 once B is capped.
        let a = ent(0.0, 1.0, 1000.0);
        let b = ent(0.0, 0.4, 200.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &a), EqEntity::new(id[1], &b)];
        let r = equalize_bisection(&es, CpuMhz::new(800.0), &EqualizeOptions::default());
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(200.0), 1e-3));
        assert!(r.allocations[0].cpu.approx_eq(CpuMhz::new(600.0), 1e-3));
        assert!((r.allocations[0].utility - 0.6).abs() < 1e-6);
        assert_eq!(r.surplus, CpuMhz::ZERO);
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let a = ent(-0.5, 1.0, 1000.0);
        let id = ids(1);
        let es = vec![EqEntity::new(id[0], &a)];
        let r = equalize_bisection(&es, CpuMhz::ZERO, &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.is_zero());
        assert!((r.allocations[0].utility + 0.5).abs() < 1e-9);
    }

    #[test]
    fn flat_entities_consume_nothing() {
        let flat = ent(0.7, 0.7, 0.0);
        let hungry = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &flat), EqEntity::new(id[1], &hungry)];
        let r = equalize_bisection(&es, CpuMhz::new(1000.0), &EqualizeOptions::default());
        assert!(r.allocations[0].cpu.is_zero());
        assert!(r.allocations[1].cpu.approx_eq(CpuMhz::new(1000.0), 1e-3));
        assert!(r.surplus.is_zero());
    }

    #[test]
    fn steal_matches_bisection_on_a_mixed_pool() {
        let curves = [
            ent(0.0, 1.0, 3000.0),
            ent(0.1, 0.9, 1000.0),
            ent(-0.3, 1.0, 6000.0),
            ent(0.0, 0.5, 500.0),
        ];
        let id = ids(curves.len());
        let es: Vec<EqEntity> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| EqEntity::new(id[i], c))
            .collect();
        let opts = EqualizeOptions {
            max_iters: 10_000,
            ..Default::default()
        };
        let total = CpuMhz::new(4000.0);
        let rb = equalize_bisection(&es, total, &opts);
        let rs = equalize_steal(&es, total, &opts);
        for (b, s) in rb.allocations.iter().zip(&rs.allocations) {
            assert!(
                (b.utility - s.utility).abs() < 1e-3,
                "utility mismatch: bisection {} vs steal {}",
                b.utility,
                s.utility
            );
            assert!(
                b.cpu.approx_eq(s.cpu, total.as_f64() * 1e-3),
                "cpu mismatch: {} vs {}",
                b.cpu,
                s.cpu
            );
        }
    }

    #[test]
    fn weighted_equalization_differentiates() {
        // Two identical entities, one twice as important: the heavy one
        // must end up with a smaller shortfall from its optimum.
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[2.0, 1.0],
            CpuMhz::new(1000.0),
            &EqualizeOptions::default(),
        );
        let (u_gold, u_bronze) = (r.allocations[0].utility, r.allocations[1].utility);
        assert!(
            u_gold > u_bronze + 0.1,
            "gold {u_gold} vs bronze {u_bronze}"
        );
        // Weighted shortfalls are equal: 2·(1−u_g) = 1·(1−u_b).
        assert!(
            (2.0 * (1.0 - u_gold) - (1.0 - u_bronze)).abs() < 1e-3,
            "shortfalls: {} vs {}",
            2.0 * (1.0 - u_gold),
            1.0 - u_bronze
        );
        let total: f64 = r.allocations.iter().map(|a| a.cpu.as_f64()).sum();
        assert!((total - 1000.0).abs() < 1.0);
    }

    #[test]
    fn weighted_with_unit_weights_matches_unweighted_on_equal_maxima() {
        let curves = [ent(0.0, 1.0, 2000.0), ent(0.1, 1.0, 800.0)];
        let id = ids(2);
        let es: Vec<EqEntity> = curves
            .iter()
            .enumerate()
            .map(|(i, c)| EqEntity::new(id[i], c))
            .collect();
        let total = CpuMhz::new(1500.0);
        let opts = EqualizeOptions::default();
        let rw = equalize_weighted(&es, &[1.0, 1.0], total, &opts);
        let rb = equalize_bisection(&es, total, &opts);
        for (a, b) in rw.allocations.iter().zip(&rb.allocations) {
            assert!(
                (a.utility - b.utility).abs() < 1e-3,
                "weighted {} vs plain {}",
                a.utility,
                b.utility
            );
        }
    }

    #[test]
    fn weighted_abundant_budget_saturates_everyone() {
        let c = ent(0.0, 1.0, 500.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[5.0, 1.0],
            CpuMhz::new(5000.0),
            &EqualizeOptions::default(),
        );
        assert!(r.surplus.approx_eq(CpuMhz::new(4000.0), 1e-6));
        assert!((r.allocations[1].utility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_ignores_bogus_weights() {
        let c = ent(0.0, 1.0, 1000.0);
        let id = ids(2);
        let es = vec![EqEntity::new(id[0], &c), EqEntity::new(id[1], &c)];
        let r = equalize_weighted(
            &es,
            &[f64::NAN, -3.0],
            CpuMhz::new(1000.0),
            &EqualizeOptions::default(),
        );
        // Both default to weight 1: even split.
        assert!(r.allocations[0].cpu.approx_eq(r.allocations[1].cpu, 1.0));
    }

    /// The controller reads `allocations` by position: one per input
    /// entity, in input order, whatever path the solver took.
    #[test]
    fn both_solvers_return_one_allocation_per_entity_in_input_order() {
        let wide = ent(0.0, 1.0, 4000.0);
        let early_saturated = ent(0.0, 0.3, 200.0);
        let zero_demand = ent(0.4, 0.4, 0.0);
        let flat = ent(0.2, 0.2, 1000.0);
        // Ids neither sorted nor grouped by kind; `wide` and `flat` each
        // back several entities.
        let es = vec![
            EqEntity::new(JobId::new(9), &wide),
            EqEntity::new(AppId::new(3), &early_saturated),
            EqEntity::new(JobId::new(2), &zero_demand),
            EqEntity::new(AppId::new(0), &wide),
            EqEntity::new(JobId::new(5), &flat),
            EqEntity::new(JobId::new(4), &wide),
            EqEntity::new(JobId::new(7), &flat),
        ];
        let weights = [1.0, 4.0, 1.0, 0.5, 2.0, 1.0, 1.0];
        let opts = EqualizeOptions::default();
        // Nothing, scarce (bisection, trim and residual passes), and
        // enough for everyone (the saturate-all shortcut).
        for total in [0.0, 150.0, 5000.0, 9000.0, 50_000.0] {
            let total = CpuMhz::new(total);
            for r in [
                equalize_bisection(&es, total, &opts),
                equalize_weighted(&es, &weights, total, &opts),
            ] {
                let got: Vec<EntityId> = r.allocations.iter().map(|a| a.id).collect();
                let want: Vec<EntityId> = es.iter().map(|e| e.id).collect();
                assert_eq!(got, want, "budget {total}");
                assert!(r.allocations[1].cpu.as_f64() <= 200.0 + 1e-6);
                assert!(r.allocations[2].cpu.is_zero());
            }
        }
    }

    /// `settle` ranks the grants as granted, before the trim moves them,
    /// and re-reads the utility of exactly the grants a pass moved.
    #[test]
    fn settle_ranks_before_the_trim_and_rereads_only_what_moved() {
        let (a, b, flat) = (
            ent(0.0, 1.0, 1000.0),
            ent(0.1, 1.0, 3000.0),
            ent(0.4, 0.4, 0.0),
        );
        let id = ids(3);
        let es = vec![
            EqEntity::new(id[0], &a),
            EqEntity::new(id[1], &b),
            EqEntity::new(id[2], &flat),
        ];
        let grant = |k: usize, cpu: f64, utility: f64| EntityAllocation {
            id: id[k],
            cpu: CpuMhz::new(cpu),
            utility,
        };
        // The flat grant's utility is a marker: no pass moves its zero
        // CPU, so it must come back unread.
        let mut allocations = vec![
            grant(0, 700.0, 0.7),
            grant(1, 2000.0, 0.7),
            grant(2, 0.0, -7.0),
        ];
        // A negative tolerance ranks and hands out whatever the trim
        // leaves, rounding residue included.
        let opts = EqualizeOptions {
            tol_cpu: -1.0,
            ..Default::default()
        };
        let total = CpuMhz::new(2000.0);
        let mut ranked = false;
        settle(&es, &mut allocations, total, &opts, |granted| {
            let cpus: Vec<f64> = granted.iter().map(|g| g.cpu.as_f64()).collect();
            assert_eq!(cpus, [700.0, 2000.0, 0.0], "ranked after the trim");
            ranked = true;
            vec![0, 1, 2]
        });
        assert!(ranked);
        let granted: f64 = allocations.iter().map(|g| g.cpu.as_f64()).sum();
        assert!((granted - 2000.0).abs() < 1e-9, "{granted}");
        for (g, c) in allocations.iter().zip([&a, &b]) {
            assert_eq!(g.utility.to_bits(), c.utility(g.cpu).to_bits(), "{g:?}");
        }
        assert_eq!(allocations[2].utility, -7.0);
    }

    #[test]
    fn cpu_of_looks_up_by_entity() {
        let a = ent(0.0, 1.0, 100.0);
        let es = vec![EqEntity::new(AppId::new(7), &a)];
        let r = equalize_bisection(&es, CpuMhz::new(50.0), &EqualizeOptions::default());
        assert!(r
            .cpu_of(AppId::new(7))
            .unwrap()
            .approx_eq(CpuMhz::new(50.0), 1e-6));
        assert!(r.cpu_of(AppId::new(8)).is_none());
        assert!(r.cpu_of(JobId::new(7)).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_bisection_respects_budget_and_caps(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..5000.0f64), 1..12),
            total in 0.0..20_000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let r = equalize_bisection(&es, CpuMhz::new(total), &EqualizeOptions::default());
            let sum: f64 = r.allocations.iter().map(|a| a.cpu.as_f64()).sum();
            prop_assert!(sum <= total + 1e-3, "granted {sum} > budget {total}");
            for (a, c) in r.allocations.iter().zip(&curves) {
                prop_assert!(a.cpu.as_f64() >= -1e-9);
                prop_assert!(a.cpu.as_f64() <= c.cap.as_f64() + 1e-3);
            }
        }

        #[test]
        fn prop_bisection_is_max_min_fair(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..5000.0f64), 2..10),
            total in 100.0..10_000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let r = equalize_bisection(&es, CpuMhz::new(total), &EqualizeOptions::default());
            // Max-min: any entity strictly below the water level must be
            // saturated at its cap.
            for (a, c) in r.allocations.iter().zip(&curves) {
                if a.utility < r.common_utility - 1e-6 {
                    prop_assert!(
                        a.cpu.as_f64() >= c.cap.as_f64() - 1e-3,
                        "entity below water level but not saturated"
                    );
                }
            }
        }

        #[test]
        fn prop_more_budget_never_hurts(
            params in proptest::collection::vec(
                (0.0..0.5f64, 0.5..1.0f64, 10.0..2000.0f64), 1..8),
            total in 0.0..5000.0f64,
            extra in 0.0..5000.0f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let opts = EqualizeOptions::default();
            let r1 = equalize_bisection(&es, CpuMhz::new(total), &opts);
            let r2 = equalize_bisection(&es, CpuMhz::new(total + extra), &opts);
            prop_assert!(r2.min_utility() >= r1.min_utility() - 1e-6);
        }

        #[test]
        fn prop_steal_agrees_with_bisection(
            params in proptest::collection::vec(
                (0.0..0.3f64, 0.6..1.0f64, 100.0..3000.0f64), 2..6),
            frac in 0.1..0.9f64,
        ) {
            let curves: Vec<CappedLinearUtility> = params
                .iter()
                .map(|&(u0, u1, cap)| ent(u0, u1, cap))
                .collect();
            let cap_sum: f64 = curves.iter().map(|c| c.cap.as_f64()).sum();
            let total = CpuMhz::new(cap_sum * frac);
            let id = ids(curves.len());
            let es: Vec<EqEntity> = curves
                .iter()
                .enumerate()
                .map(|(i, c)| EqEntity::new(id[i], c))
                .collect();
            let opts = EqualizeOptions { max_iters: 20_000, ..Default::default() };
            let rb = equalize_bisection(&es, total, &opts);
            let rs = equalize_steal(&es, total, &opts);
            prop_assert!(
                (rb.min_utility() - rs.min_utility()).abs() < 5e-3,
                "min utility: bisection {} vs steal {}",
                rb.min_utility(), rs.min_utility()
            );
        }
    }
}
