//! Utility-of-CPU adapter for jobs: *expected* utility under a sustained
//! CPU allocation, via projected completion time.
//!
//! "The algorithm needs a mechanism to predict (at each control cycle) the
//! utility that each job in the system will achieve given a particular
//! allocation. And this is still true even for jobs that are not yet
//! started, for which the expected completion time is still undefined."
//! — the projection below answers exactly that: assume the job (runs or)
//! starts now and sustains allocation ω until completion:
//!
//! ```text
//! t_c(ω) = now + remaining_work / min(ω, max_speed)
//! u(ω)   = goal.utility_at(t_c(ω))
//! ```
//!
//! `u` is monotone non-decreasing in ω and saturates at
//! `min(max_speed, power-to-finish-by-goal.earliest)` — the job's *demand
//! for maximum utility* aggregated into Figure 2's long-running demand
//! curve.

use crate::job::Job;
use serde::{Deserialize, Serialize};
use slaq_types::{CpuMhz, SimTime, Work};
use slaq_utility::{CompletionGoal, UtilityOfCpu};

/// Snapshot of one job's utility-of-CPU curve at a control instant.
///
/// Owned (no borrow of the job) so the equalizer can hold many of these
/// while the manager stays mutable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobUtility {
    /// Work left at the snapshot instant.
    pub remaining: Work,
    /// Speed cap (one processor in the paper's testbed).
    pub max_speed: CpuMhz,
    /// The job's completion-time SLA.
    pub goal: CompletionGoal,
    /// Snapshot instant: projections assume execution starts here.
    pub now: SimTime,
}

impl JobUtility {
    /// Snapshot a job's curve at instant `now`.
    pub fn of(job: &Job, now: SimTime) -> Self {
        JobUtility {
            remaining: job.remaining,
            max_speed: job.spec.max_speed,
            goal: job.spec.goal.clone(),
            now,
        }
    }

    /// Projected completion instant at sustained allocation `cpu`
    /// ([`SimTime::NEVER`] at zero allocation).
    pub fn projected_completion(&self, cpu: CpuMhz) -> SimTime {
        if self.remaining.is_done() {
            return self.now;
        }
        let speed = cpu.max_zero().min(self.max_speed);
        let secs = self.remaining.secs_at(speed);
        if secs.is_infinite() {
            SimTime::NEVER
        } else {
            self.now + slaq_types::SimDuration::from_secs(secs)
        }
    }

    /// The demand cap given the zero-CPU utility `u_zero`, with the
    /// utility at `max_speed` when the cap needed it.
    fn cap(&self, u_zero: f64) -> (CpuMhz, Option<f64>) {
        if self.remaining.is_done() {
            return (CpuMhz::ZERO, None);
        }
        // A job whose SLA curve has gone flat (even its fastest possible
        // finish lands past `exhausted`) gains nothing from CPU: its
        // demand for maximum utility is zero. It still finishes eventually
        // through the simulator's work-conserving node shares.
        let u_full = self.utility(self.max_speed);
        if u_full <= u_zero + 1e-12 {
            return (CpuMhz::ZERO, Some(u_full));
        }
        let slack = (self.goal.earliest - self.now).as_secs();
        if slack <= 0.0 {
            // The max-utility region of the SLA is already unreachable;
            // every MHz up to the speed cap still improves utility.
            return (self.max_speed, Some(u_full));
        }
        let cap = self.remaining.power_for_secs(slack).min(self.max_speed);
        (cap, Some(u_full))
    }

    /// [`UtilityOfCpu::saturation`]'s three values, each goal
    /// interpolation done once: the utility at `max_speed` doubles as
    /// the saturation level whenever the cap is `max_speed` itself.
    fn bounds(&self) -> (CpuMhz, f64, f64) {
        let u_zero = self.utility_at_zero();
        let (cap, u_full) = self.cap(u_zero);
        let u_max = match u_full {
            Some(u) if cap.as_f64().to_bits() == self.max_speed.as_f64().to_bits() => u,
            _ => self.utility(cap),
        };
        (cap, u_max, u_zero)
    }
}

impl UtilityOfCpu for JobUtility {
    fn utility(&self, cpu: CpuMhz) -> f64 {
        self.goal.utility_at(self.projected_completion(cpu))
    }

    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz> {
        let (_, max_u, u_zero) = self.bounds();
        if u > max_u + 1e-12 {
            return None;
        }
        if u <= u_zero {
            return Some(CpuMhz::ZERO);
        }
        self.cpu_for_utility_in_range(u)
    }

    /// The inverse without `JobUtility::bounds`: inside the range both
    /// of `cpu_for_utility`'s checks fall through.
    fn cpu_for_utility_in_range(&self, u: f64) -> Option<CpuMhz> {
        // Latest completion instant still achieving u, then the power that
        // hits it from `now`.
        let latest = self.goal.latest_for_utility(u);
        if latest.is_never() {
            return Some(CpuMhz::ZERO);
        }
        let dt = (latest - self.now).as_secs();
        let p = self.remaining.power_for_secs(dt);
        Some(p.min(self.max_speed).max_zero())
    }

    fn max_useful_cpu(&self) -> CpuMhz {
        self.cap(self.utility_at_zero()).0
    }

    fn utility_at_zero(&self) -> f64 {
        if self.remaining.is_done() {
            self.goal.utility_at(self.now)
        } else {
            self.goal.utility_at(SimTime::NEVER)
        }
    }

    fn saturation(&self) -> (CpuMhz, f64, f64) {
        let bounds = self.bounds();
        debug_assert!(
            {
                let (cap, u_max, u_zero) = bounds;
                cap.as_f64().to_bits() == self.max_useful_cpu().as_f64().to_bits()
                    && u_max.to_bits() == self.max_utility().to_bits()
                    && u_zero.to_bits() == self.utility_at_zero().to_bits()
            },
            "saturation {bounds:?} drifted from the three calls"
        );
        bounds
    }

    /// A goal that keeps its invariant has non-increasing utility in the
    /// completion instant, so the demand rises with the level; one that
    /// does not can bend it back (a goal that never exhausts asks its
    /// fastest finish at exactly `goal_utility`, and less just above).
    fn is_monotone(&self) -> bool {
        self.goal.is_valid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_types::{JobId, MemMb, SimDuration};

    /// Job: 3 000 000 MHz·s of work (1000 s at the 3000 MHz cap),
    /// submitted at t=0, goal at 1250 s, exhausted at 2000 s.
    fn ju(now_secs: f64) -> JobUtility {
        let spec = crate::job::JobSpec {
            name: "j".into(),
            total_work: Work::new(3_000_000.0),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::ZERO,
                SimDuration::from_secs(1000.0),
                1.25,
                2.0,
            )
            .unwrap(),
            importance: 1.0,
        };
        let job = Job::new(JobId::new(0), spec, SimTime::ZERO).unwrap();
        JobUtility::of(&job, SimTime::from_secs(now_secs))
    }

    #[test]
    fn projection_at_full_speed_hits_fastest_finish() {
        let u = ju(0.0);
        assert_eq!(
            u.projected_completion(CpuMhz::new(3000.0)),
            SimTime::from_secs(1000.0)
        );
        // Allocation beyond max speed doesn't accelerate the job.
        assert_eq!(
            u.projected_completion(CpuMhz::new(30_000.0)),
            SimTime::from_secs(1000.0)
        );
        assert!(u.projected_completion(CpuMhz::ZERO).is_never());
    }

    #[test]
    fn fresh_job_at_full_speed_has_max_utility() {
        let u = ju(0.0);
        assert_eq!(u.utility(CpuMhz::new(3000.0)), 1.0);
        assert_eq!(u.max_useful_cpu(), CpuMhz::new(3000.0));
        assert_eq!(u.max_utility(), 1.0);
        assert_eq!(u.utility_at_zero(), 0.0);
    }

    #[test]
    fn half_speed_lands_past_goal() {
        let u = ju(0.0);
        // At 1500 MHz completion = 2000 s = exhausted ⇒ utility 0.
        assert!((u.utility(CpuMhz::new(1500.0)) - 0.0).abs() < 1e-9);
        // At 2400 MHz completion = 1250 s = goal ⇒ utility 0.5.
        assert!((u.utility(CpuMhz::new(2400.0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inverse_demand_roundtrips() {
        let u = ju(0.0);
        for target in [0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let cpu = u.cpu_for_utility(target).unwrap();
            assert!(
                u.utility(cpu) >= target - 1e-9,
                "target {target}: cpu {cpu} gives {}",
                u.utility(cpu)
            );
        }
        assert!(u.cpu_for_utility(1.01).is_none());
        assert_eq!(u.cpu_for_utility(0.0), Some(CpuMhz::ZERO));
        assert_eq!(u.cpu_for_utility(-1.0), Some(CpuMhz::ZERO));
    }

    #[test]
    fn late_snapshot_degrades_max_utility() {
        // At t=500 s, fastest finish is 1500 s (past 1250 s goal):
        // max utility < goal_utility... actually 1500 s sits between goal
        // (u=0.5) and exhausted (u=0): u = 0.5·(2000−1500)/750 ≈ 0.333.
        let u = ju(500.0);
        assert_eq!(u.max_useful_cpu(), CpuMhz::new(3000.0));
        let umax = u.max_utility();
        assert!((umax - 0.5 * 500.0 / 750.0).abs() < 1e-9, "{umax}");
        // Demands for reachable utility still invert.
        let cpu = u.cpu_for_utility(umax - 0.05).unwrap();
        assert!(u.utility(cpu) >= umax - 0.05 - 1e-9);
        assert!(u.cpu_for_utility(umax + 0.05).is_none());
    }

    #[test]
    fn hopeless_job_pins_at_floor() {
        // At t=3000 s even instant completion is past `exhausted`:
        // the curve is flat at min utility, so no CPU is useful.
        let u = ju(3000.0);
        assert_eq!(u.max_utility(), 0.0);
        assert_eq!(u.utility(CpuMhz::new(3000.0)), 0.0);
        assert_eq!(u.utility_at_zero(), 0.0);
        // Flat curve: demand for its max utility is zero CPU.
        assert_eq!(u.cpu_for_utility(0.0), Some(CpuMhz::ZERO));
        assert_eq!(u.max_useful_cpu(), CpuMhz::ZERO);
    }

    #[test]
    fn completed_job_is_flat_at_now_utility() {
        let mut u = ju(100.0);
        u.remaining = Work::ZERO;
        assert_eq!(u.max_useful_cpu(), CpuMhz::ZERO);
        assert_eq!(
            u.projected_completion(CpuMhz::ZERO),
            SimTime::from_secs(100.0)
        );
        assert_eq!(u.utility(CpuMhz::ZERO), 1.0); // 100 s < earliest
    }

    #[test]
    fn partially_done_job_needs_less_power() {
        let mut u = ju(0.0);
        u.remaining = Work::new(1_500_000.0); // half done
                                              // To finish by earliest (1000 s): 1500 MHz suffices.
        assert_eq!(u.max_useful_cpu(), CpuMhz::new(1500.0));
        assert_eq!(u.utility(CpuMhz::new(1500.0)), 1.0);
    }

    /// `JobSpec::validate` turns hostile goals away, but the fields are
    /// public: one that got past the door (struct literal) may cost the
    /// equalizer a wrong answer, never a panic.
    #[test]
    fn hostile_goal_survives_the_equalizer() {
        use slaq_utility::{equalize_bisection, EqEntity, EqualizeOptions};
        let edits: [fn(&mut CompletionGoal); 7] = [
            |_| {},                                 // one sound job among them
            |g| g.goal = SimTime::from_secs(500.0), // before `earliest`
            |g| g.exhausted = SimTime::ZERO,
            |g| (g.max_utility, g.goal_utility) = (0.2, 0.9),
            |g| g.exhausted = SimTime::NEVER,
            |g| g.earliest = SimTime(f64::NEG_INFINITY),
            |g| g.goal = SimTime(f64::NAN),
        ];
        let pool = edits.map(|edit| {
            let mut u = ju(0.0);
            edit(&mut u.goal);
            u
        });
        assert_eq!(pool.iter().filter(|u| u.goal.is_valid()).count(), 1);
        let entities: Vec<EqEntity> = pool
            .iter()
            .enumerate()
            .map(|(i, u)| EqEntity::new(JobId::new(i as u32), u))
            .collect();
        for total in [0.0, 2500.0, 9000.0, 50_000.0] {
            let r = equalize_bisection(&entities, CpuMhz::new(total), &EqualizeOptions::default());
            let granted: f64 = r.allocations.iter().map(|a| a.cpu.as_f64()).sum();
            assert!(granted <= total + 1e-3, "budget {total}: granted {granted}");
            for a in &r.allocations {
                assert!((0.0..=3000.0 + 1e-6).contains(&a.cpu.as_f64()), "{a:?}");
                assert!(!a.utility.is_nan(), "budget {total}: {a:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_utility_monotone_in_cpu(
            now in 0.0..2500.0f64,
            a in 0.0..4000.0f64,
            extra in 0.0..4000.0f64,
        ) {
            let u = ju(now);
            prop_assert!(
                u.utility(CpuMhz::new(a + extra)) >= u.utility(CpuMhz::new(a)) - 1e-12
            );
        }

        #[test]
        fn prop_contract_cpu_for_utility(
            now in 0.0..1800.0f64,
            q in 0.0..1.0f64,
        ) {
            let u = ju(now);
            let target = u.utility_at_zero()
                + q * (u.max_utility() - u.utility_at_zero());
            if let Some(cpu) = u.cpu_for_utility(target) {
                prop_assert!(u.utility(cpu) >= target - 1e-9);
                prop_assert!(cpu.as_f64() <= u.max_useful_cpu().as_f64() + 1e-6);
            } else {
                prop_assert!(target > u.max_utility());
            }
        }

        #[test]
        fn prop_less_remaining_means_weakly_more_utility(
            now in 0.0..1500.0f64,
            alloc in 0.0..4000.0f64,
            frac in 0.0..1.0f64,
        ) {
            let full = ju(now);
            let mut part = full.clone();
            part.remaining = Work::new(full.remaining.as_f64() * frac);
            prop_assert!(
                part.utility(CpuMhz::new(alloc)) >= full.utility(CpuMhz::new(alloc)) - 1e-12
            );
        }
    }
}
