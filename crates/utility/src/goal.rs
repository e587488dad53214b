//! SLA goal vocabulary: completion-time goals for long-running jobs and
//! response-time goals for transactional applications.
//!
//! Both goal types are monotone utility functions evaluated in closed
//! form, on the same `[U_MIN, U_MAX]` scale, making the two workload
//! classes' performance *comparable* — the paper's key trick for trading
//! off resources between them. A [`CompletionGoal`] is three breakpoints
//! joined by straight lines, a [`ResponseTimeGoal`] one clipped line; no
//! curve object is built to answer a query. (Test builds keep the
//! general piecewise-linear curve library as the oracle both are held to,
//! bit for bit: `cargo test -p slaq-utility closed_form`.)

#[cfg(test)]
use crate::curve::PiecewiseLinear;
use crate::{U_MAX, U_MIN};
use serde::{Deserialize, Serialize};
use slaq_types::{SimDuration, SimTime};

/// Completion-time SLA for a long-running job.
///
/// Utility as a function of the (actual or projected) completion time `t`:
///
/// ```text
/// u(t) = max_utility                     for t ≤ earliest
///        linear: max_utility→goal_utility for earliest < t ≤ goal
///        linear: goal_utility→min_utility for goal < t ≤ exhausted
///        min_utility                     for t > exhausted
/// ```
///
/// "The actual utility achieved by a job can only be calculated at
/// completion time (as a function of actual completion time and the
/// objective completion time)" — this struct is that function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionGoal {
    /// Completion instant at (or before) which utility is maximal —
    /// typically the job's fastest possible finish.
    pub earliest: SimTime,
    /// The SLA objective completion time.
    pub goal: SimTime,
    /// Instant past which utility bottoms out at `min_utility`.
    pub exhausted: SimTime,
    /// Utility for finishing at or before `earliest` (defaults to 1.0).
    pub max_utility: f64,
    /// Utility for finishing exactly at `goal` (defaults to 0.5).
    pub goal_utility: f64,
    /// Utility floor (defaults to 0.0).
    pub min_utility: f64,
}

impl CompletionGoal {
    /// Standard goal shape used throughout the experiments: utility 1.0 up
    /// to the fastest finish, 0.5 at the goal, 0.0 at `exhausted`.
    pub fn new(earliest: SimTime, goal: SimTime, exhausted: SimTime) -> Option<Self> {
        let g = CompletionGoal {
            earliest,
            goal,
            exhausted,
            max_utility: U_MAX,
            goal_utility: 0.5,
            min_utility: 0.0,
        };
        g.is_valid().then_some(g)
    }

    /// Goal relative to a submission: fastest finish after `fastest` work
    /// time, goal at `goal_factor × fastest`, exhausted at
    /// `exhausted_factor × fastest` (factors ≥ 1, exhausted ≥ goal).
    ///
    /// This is how the evaluation derives per-job SLAs for the 800
    /// identical jobs: identical *relative* goals anchored at each job's
    /// submission time.
    pub fn relative(
        submit: SimTime,
        fastest: SimDuration,
        goal_factor: f64,
        exhausted_factor: f64,
    ) -> Option<Self> {
        if !(goal_factor >= 1.0 && exhausted_factor >= goal_factor) {
            return None;
        }
        Self::new(
            submit + fastest,
            submit + fastest * goal_factor,
            submit + fastest * exhausted_factor,
        )
    }

    /// The invariant the constructors enforce: finite, ordered instants
    /// and ordered utility levels within `[U_MIN, U_MAX]`. The fields are
    /// public and the type deserializes, so whoever accepts a goal from
    /// outside (`JobSpec::validate`) checks this at the door.
    pub fn is_valid(&self) -> bool {
        self.earliest.as_secs().is_finite()
            && self.goal.as_secs().is_finite()
            && self.exhausted.as_secs().is_finite()
            && self.earliest <= self.goal
            && self.goal <= self.exhausted
            && self.max_utility >= self.goal_utility
            && self.goal_utility >= self.min_utility
            && self.max_utility <= U_MAX
            && self.min_utility >= U_MIN
    }

    /// The three `(instant, utility)` breakpoints, instants strictly
    /// increasing: coincident ones (e.g. `earliest == goal`) encode a
    /// step, nudged apart by a microsecond to keep the curve a function
    /// while preserving both utility levels.
    fn breakpoints(&self) -> [(f64, f64); 3] {
        let after = |prev: f64, x: f64| if x <= prev { prev + 1e-6 } else { x };
        let x0 = self.earliest.as_secs();
        let x1 = after(x0, self.goal.as_secs());
        let x2 = after(x1, self.exhausted.as_secs());
        [
            (x0, self.max_utility),
            (x1, self.goal_utility),
            (x2, self.min_utility),
        ]
    }

    /// Utility of completing at instant `t`: constant outside the
    /// breakpoints, linear between them. Total — a goal that fails
    /// [`CompletionGoal::is_valid`] or a NaN instant gets an answer, never
    /// a panic; where the arithmetic has none (NaN), the utility floor.
    pub fn utility_at(&self, t: SimTime) -> f64 {
        if t.is_never() {
            return self.min_utility;
        }
        let u = interpolate(&self.breakpoints(), t.as_secs());
        if u.is_nan() {
            self.min_utility
        } else {
            u
        }
    }

    /// The full (non-increasing) utility-of-completion-time curve: the
    /// oracle [`CompletionGoal::utility_at`] and
    /// [`CompletionGoal::latest_for_utility`] are held to. It places its
    /// breakpoints itself, so it checks `breakpoints` too.
    #[cfg(test)]
    pub(crate) fn curve(&self) -> PiecewiseLinear {
        let mut pts: Vec<(f64, f64)> = Vec::with_capacity(3);
        let mut push = |x: f64, y: f64| {
            // Coincident breakpoints (e.g. earliest == goal) encode a step;
            // nudge by a microsecond to keep the curve a function while
            // preserving both utility levels.
            let x = match pts.last() {
                Some(&(px, _)) if x <= px => px + 1e-6,
                _ => x,
            };
            pts.push((x, y));
        };
        push(self.earliest.as_secs(), self.max_utility);
        push(self.goal.as_secs(), self.goal_utility);
        push(self.exhausted.as_secs(), self.min_utility);
        PiecewiseLinear::new(pts).expect("CompletionGoal invariants guarantee a monotone curve")
    }

    /// Latest completion instant that still yields utility ≥ `u`
    /// ([`SimTime::NEVER`] if every completion does; `earliest` if none
    /// does, or if the arithmetic has no answer — a NaN `u`, a goal that
    /// fails [`CompletionGoal::is_valid`]).
    pub fn latest_for_utility(&self, u: f64) -> SimTime {
        if u <= self.min_utility {
            return SimTime::NEVER;
        }
        match latest_at_or_above(&self.breakpoints(), u) {
            Some(x) if !x.is_nan() => SimTime::from_secs(x),
            _ => self.earliest,
        }
    }
}

/// A non-increasing three-point curve at `x`: constant outside the
/// breakpoints, `y0 + t·(y1 − y0)` on the segment holding `x` (the later
/// one when `x` sits on the middle breakpoint).
fn interpolate(pts: &[(f64, f64); 3], x: f64) -> f64 {
    let [first, mid, last] = *pts;
    if x <= first.0 {
        return first.1;
    }
    if x >= last.0 {
        return last.1;
    }
    let ((x0, y0), (x1, y1)) = if mid.0 <= x {
        (mid, last)
    } else {
        (first, mid)
    };
    let t = (x - x0) / (x1 - x0);
    y0 + t * (y1 - y0)
}

/// The largest `x` at which a non-increasing three-point curve is still
/// ≥ `y`: `None` above the maximum, the last breakpoint at or below the
/// minimum, otherwise the crossing on the segment that starts at the
/// last breakpoint ≥ `y` (its far end when the segment is flat).
fn latest_at_or_above(pts: &[(f64, f64); 3], y: f64) -> Option<f64> {
    let [first, mid, last] = *pts;
    if y > first.1 {
        return None;
    }
    if y <= last.1 {
        return Some(last.0);
    }
    let ((x0, y0), (x1, y1)) = if mid.1 >= y {
        (mid, last)
    } else {
        (first, mid)
    };
    if (y1 - y0).abs() < f64::EPSILON {
        return Some(x1);
    }
    let t = (y - y0) / (y1 - y0);
    Some(x0 + t * (x1 - x0))
}

/// Response-time SLA for a transactional application.
///
/// Utility of observed (or predicted) mean response time `rt`:
/// `u = (τ − rt) / τ`, clipped to `[U_MIN, U_MAX]` — the linear
/// normalized-distance-to-goal form used by the authors' transactional
/// framework (NOMS'08, reference \[2\]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseTimeGoal {
    /// The response-time objective τ.
    pub target: SimDuration,
}

impl ResponseTimeGoal {
    /// Create a goal; `target` must be positive and finite.
    pub fn new(target: SimDuration) -> Option<Self> {
        (target.as_secs() > 0.0 && target.as_secs().is_finite())
            .then_some(ResponseTimeGoal { target })
    }

    /// Utility of a response time.
    pub fn utility_of_rt(&self, rt: SimDuration) -> f64 {
        let tau = self.target.as_secs();
        if rt.is_infinite() {
            return U_MIN;
        }
        ((tau - rt.as_secs()) / tau).clamp(U_MIN, U_MAX)
    }

    /// The (non-increasing) utility-of-response-time curve, tabulated on
    /// `[0, 2τ]` (utility is `U_MIN` beyond `2τ` by clipping): the oracle
    /// [`ResponseTimeGoal::utility_of_rt`] is checked against.
    #[cfg(test)]
    pub(crate) fn curve(&self) -> PiecewiseLinear {
        let tau = self.target.as_secs();
        PiecewiseLinear::new(vec![(0.0, U_MAX), (2.0 * tau, U_MIN)])
            .expect("two distinct x, decreasing y")
    }

    /// Largest response time with utility ≥ `u`.
    pub fn rt_for_utility(&self, u: f64) -> SimDuration {
        if u <= U_MIN {
            return SimDuration::INFINITE;
        }
        let u = u.min(U_MAX);
        SimDuration::from_secs(self.target.as_secs() * (1.0 - u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;

    fn goal() -> CompletionGoal {
        CompletionGoal::new(
            SimTime::from_secs(1000.0),
            SimTime::from_secs(2000.0),
            SimTime::from_secs(4000.0),
        )
        .unwrap()
    }

    #[test]
    fn completion_goal_shape() {
        let g = goal();
        assert_eq!(g.utility_at(SimTime::from_secs(0.0)), 1.0);
        assert_eq!(g.utility_at(SimTime::from_secs(1000.0)), 1.0);
        assert_eq!(g.utility_at(SimTime::from_secs(1500.0)), 0.75);
        assert_eq!(g.utility_at(SimTime::from_secs(2000.0)), 0.5);
        assert_eq!(g.utility_at(SimTime::from_secs(3000.0)), 0.25);
        assert_eq!(g.utility_at(SimTime::from_secs(4000.0)), 0.0);
        assert_eq!(g.utility_at(SimTime::from_secs(9e9)), 0.0);
        assert_eq!(g.utility_at(SimTime::NEVER), 0.0);
    }

    #[test]
    fn completion_goal_rejects_disordered_times() {
        assert!(CompletionGoal::new(
            SimTime::from_secs(2000.0),
            SimTime::from_secs(1000.0),
            SimTime::from_secs(4000.0),
        )
        .is_none());
        assert!(CompletionGoal::new(
            SimTime::from_secs(1000.0),
            SimTime::from_secs(2000.0),
            SimTime::from_secs(1500.0),
        )
        .is_none());
    }

    #[test]
    fn relative_goal_anchors_at_submission() {
        let g = CompletionGoal::relative(
            SimTime::from_secs(500.0),
            SimDuration::from_secs(14_400.0),
            1.25,
            2.0,
        )
        .unwrap();
        assert_eq!(g.earliest.as_secs(), 500.0 + 14_400.0);
        assert_eq!(g.goal.as_secs(), 500.0 + 18_000.0);
        assert_eq!(g.exhausted.as_secs(), 500.0 + 28_800.0);
        assert!(CompletionGoal::relative(
            SimTime::ZERO,
            SimDuration::from_secs(100.0),
            0.9, // goal before fastest finish: invalid
            2.0
        )
        .is_none());
    }

    #[test]
    fn degenerate_goal_with_coincident_breakpoints() {
        // earliest == goal: utility drops straight from max at the goal.
        let g = CompletionGoal::new(
            SimTime::from_secs(100.0),
            SimTime::from_secs(100.0),
            SimTime::from_secs(200.0),
        )
        .unwrap();
        assert_eq!(g.utility_at(SimTime::from_secs(99.0)), 1.0);
        assert!((g.utility_at(SimTime::from_secs(150.0)) - 0.25).abs() < 1e-6);
        assert_eq!(g.utility_at(SimTime::from_secs(200.0)), 0.0);
        // All three coincident: a step function collapses to a constant.
        let g2 = CompletionGoal::new(
            SimTime::from_secs(100.0),
            SimTime::from_secs(100.0),
            SimTime::from_secs(100.0),
        )
        .unwrap();
        assert_eq!(g2.utility_at(SimTime::from_secs(50.0)), 1.0);
    }

    #[test]
    fn latest_for_utility_inverts_the_curve() {
        let g = goal();
        assert_eq!(g.latest_for_utility(1.0).as_secs(), 1000.0);
        assert_eq!(g.latest_for_utility(0.5).as_secs(), 2000.0);
        assert_eq!(g.latest_for_utility(0.25).as_secs(), 3000.0);
        assert!(g.latest_for_utility(0.0).is_never());
        assert!(g.latest_for_utility(-0.5).is_never());
    }

    #[test]
    fn response_time_goal_utility() {
        let g = ResponseTimeGoal::new(SimDuration::from_secs(1.0)).unwrap();
        assert_eq!(g.utility_of_rt(SimDuration::ZERO), 1.0);
        assert_eq!(g.utility_of_rt(SimDuration::from_secs(0.5)), 0.5);
        assert_eq!(g.utility_of_rt(SimDuration::from_secs(1.0)), 0.0);
        assert_eq!(g.utility_of_rt(SimDuration::from_secs(2.0)), -1.0);
        assert_eq!(g.utility_of_rt(SimDuration::from_secs(50.0)), -1.0);
        assert_eq!(g.utility_of_rt(SimDuration::INFINITE), -1.0);
    }

    #[test]
    fn response_time_goal_rejects_nonpositive_target() {
        assert!(ResponseTimeGoal::new(SimDuration::ZERO).is_none());
        assert!(ResponseTimeGoal::new(SimDuration::from_secs(1.0)).is_some());
    }

    #[test]
    fn rt_for_utility_inverts() {
        let g = ResponseTimeGoal::new(SimDuration::from_secs(2.0)).unwrap();
        assert_eq!(g.rt_for_utility(1.0).as_secs(), 0.0);
        assert_eq!(g.rt_for_utility(0.0).as_secs(), 2.0);
        assert_eq!(g.rt_for_utility(0.5).as_secs(), 1.0);
        assert!(g.rt_for_utility(-1.0).is_infinite());
    }

    #[test]
    fn rt_goal_curve_matches_closed_form() {
        let g = ResponseTimeGoal::new(SimDuration::from_secs(1.5)).unwrap();
        let c = g.curve();
        for rt in [0.0, 0.3, 1.0, 1.5, 2.9, 3.0, 10.0] {
            let direct = g.utility_of_rt(SimDuration::from_secs(rt));
            assert!(
                (c.eval(rt) - direct).abs() < 1e-12,
                "rt={rt}: curve {} vs direct {direct}",
                c.eval(rt)
            );
        }
    }

    // The closed form against the curve library: `naive_*` build `curve()`
    // and ask it, and the shipped methods must return the same bit pattern
    // on every goal shape and query the sweep draws.

    fn naive_utility_at(g: &CompletionGoal, t: SimTime) -> f64 {
        if t.is_never() {
            return g.min_utility;
        }
        g.curve().eval(t.as_secs())
    }

    fn naive_latest_for_utility(g: &CompletionGoal, u: f64) -> SimTime {
        if u <= g.min_utility {
            return SimTime::NEVER;
        }
        match g.curve().inverse_max_x(u) {
            Some(x) => SimTime::from_secs(x),
            None => g.earliest,
        }
    }

    /// One seeded case: a valid goal, an instant and a utility level to
    /// query it at, and the name of each of the four draws for the tally.
    /// (A "between" draw over coincident breakpoints lands on them; the
    /// tally counts draws, the comparison does not care.)
    fn draw_case(seed: u64) -> (CompletionGoal, SimTime, f64, [&'static str; 4]) {
        let rng = &mut TestRng::new(seed);
        let e = rng.unit_f64() * 1e5;
        let (d1, d2) = (1.0 + rng.unit_f64() * 5e4, 1.0 + rng.unit_f64() * 5e4);
        let (shape, g, x) = match rng.below(4) {
            0 => ("earliest == goal", e, e + d2),
            1 => ("goal == exhausted", e + d1, e + d1),
            2 => ("all instants coincident", e, e),
            _ => ("ordinary instants", e + d1, e + d1 + d2),
        };
        let mut l = [(); 3].map(|_| rng.unit_f64() * 2.0 - 1.0);
        l.sort_by(|a, b| b.total_cmp(a));
        let (levels, [max, mid, min]) = match rng.below(5) {
            0 => ("default levels", [U_MAX, 0.5, 0.0]),
            1 => ("max == goal level", [l[0], l[0], l[2]]),
            2 => ("goal == min level", [l[0], l[2], l[2]]),
            3 => ("max == goal == min level", [l[1], l[1], l[1]]),
            _ => ("three distinct levels", l),
        };
        let goal = CompletionGoal {
            earliest: SimTime::from_secs(e),
            goal: SimTime::from_secs(g),
            exhausted: SimTime::from_secs(x),
            max_utility: max,
            goal_utility: mid,
            min_utility: min,
        };
        assert!(goal.is_valid(), "seed {seed}: {goal:?}");
        let r = rng.unit_f64();
        let (when, t) = match rng.below(9) {
            0 => ("t before earliest", e - r * 1e4),
            1 => ("t on earliest", e),
            2 => ("t between earliest and goal", e + r * (g - e)),
            3 => ("t on goal", g),
            4 => ("t between goal and exhausted", g + r * (x - g)),
            5 => ("t on exhausted", x),
            6 => ("t past exhausted", x + r * 1e4),
            7 => ("t microseconds past goal", g + r * 3e-6),
            _ => ("t never", f64::INFINITY),
        };
        let r = rng.unit_f64();
        let (level, u) = match rng.below(7) {
            0 => ("u below min", min - r),
            1 => ("u on min", min),
            2 => ("u between min and goal level", min + r * (mid - min)),
            3 => ("u on goal level", mid),
            4 => ("u between goal level and max", mid + r * (max - mid)),
            5 => ("u on max", max),
            _ => ("u above max", max + 1e-9 + r),
        };
        (goal, SimTime::from_secs(t), u, [shape, levels, when, level])
    }

    /// Seed sweep, coverage tally, and the mutation check: a closed form
    /// that forgets the microsecond nudge between coincident breakpoints
    /// (same arithmetic, raw instants) must disagree with the oracle on
    /// both queries, or the sweep could not tell.
    #[test]
    fn closed_form_equals_the_curve_library_bit_for_bit() {
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        let (mut eval_mutant_caught, mut inverse_mutant_caught) = (0, 0);
        for seed in 0..24_000 {
            let (goal, t, u, drawn) = draw_case(seed);
            let (at, latest) = (
                naive_utility_at(&goal, t),
                naive_latest_for_utility(&goal, u),
            );
            assert_eq!(
                goal.utility_at(t).to_bits(),
                at.to_bits(),
                "seed {seed}: utility_at({t}) of {goal:?}"
            );
            assert_eq!(
                goal.latest_for_utility(u).as_secs().to_bits(),
                latest.as_secs().to_bits(),
                "seed {seed}: latest_for_utility({u}) of {goal:?}"
            );
            for name in drawn {
                *seen.entry(name).or_default() += 1;
            }
            let raw = [
                (goal.earliest.as_secs(), goal.max_utility),
                (goal.goal.as_secs(), goal.goal_utility),
                (goal.exhausted.as_secs(), goal.min_utility),
            ];
            if !t.is_never() && interpolate(&raw, t.as_secs()).to_bits() != at.to_bits() {
                eval_mutant_caught += 1;
            }
            if u > goal.min_utility
                && latest_at_or_above(&raw, u).is_some_and(|x| x.to_bits() != latest.0.to_bits())
            {
                inverse_mutant_caught += 1;
            }
        }
        println!("closed form ≡ curve library, draws: {seen:#?}");
        println!(
            "missing nudge caught: eval {eval_mutant_caught}, inverse {inverse_mutant_caught}"
        );
        assert_eq!(seen.len(), 4 + 5 + 9 + 7, "{seen:?}");
        assert!(seen.values().all(|&n| n >= 200), "{seen:?}");
        assert!(eval_mutant_caught >= 200 && inverse_mutant_caught >= 200);
    }

    /// Total: non-finite queries and hostile goals (public fields, struct
    /// literal) get the documented answers, where the curve library had
    /// an `expect` and an index underflow.
    #[test]
    fn closed_form_is_total() {
        let g = goal();
        assert_eq!(g.utility_at(SimTime(f64::NAN)), 0.0);
        assert_eq!(g.utility_at(SimTime(f64::NEG_INFINITY)), 0.0);
        assert_eq!(g.latest_for_utility(f64::NAN), g.earliest);
        assert_eq!(g.latest_for_utility(f64::INFINITY), g.earliest);
        assert!(g.latest_for_utility(f64::NEG_INFINITY).is_never());

        let hostile: [fn(&mut CompletionGoal); 7] = [
            |g| g.goal = SimTime::from_secs(500.0), // before `earliest`
            |g| (g.max_utility, g.goal_utility) = (0.2, 0.9),
            |g| g.exhausted = SimTime::NEVER,
            |g| g.earliest = SimTime(f64::NEG_INFINITY),
            |g| g.goal = SimTime(f64::NAN),
            |g| g.min_utility = -7.0,
            |g| g.max_utility = 1.5,
        ];
        for edit in hostile {
            let mut g = goal();
            edit(&mut g);
            assert!(!g.is_valid(), "{g:?}");
            for t in [0.0, 1000.0, 1500.0, 2000.0, 2000.0000005, 1e9, f64::NAN] {
                assert!(!g.utility_at(SimTime(t)).is_nan(), "{g:?} at {t}");
            }
            for u in [-8.0, 0.0, 0.2, 0.5, 0.7, 0.9, 1.0, 2.0, f64::NAN] {
                assert!(!g.latest_for_utility(u).as_secs().is_nan(), "{g:?} at {u}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_completion_utility_monotone_noninc(
            t1 in 0.0..1e6f64, t2 in 0.0..1e6f64,
        ) {
            let g = goal();
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(
                g.utility_at(SimTime::from_secs(lo)) >= g.utility_at(SimTime::from_secs(hi)) - 1e-12
            );
        }

        #[test]
        fn prop_latest_for_utility_roundtrip(u in 0.01..1.0f64) {
            let g = goal();
            let t = g.latest_for_utility(u);
            prop_assert!(!t.is_never());
            prop_assert!((g.utility_at(t) - u).abs() < 1e-9);
        }

        #[test]
        fn prop_rt_utility_bounded(rt in 0.0..1e4f64, tau in 0.001..1e3f64) {
            let g = ResponseTimeGoal::new(SimDuration::from_secs(tau)).unwrap();
            let u = g.utility_of_rt(SimDuration::from_secs(rt));
            prop_assert!((-1.0..=1.0).contains(&u));
        }
    }
}
