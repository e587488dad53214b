//! The job model: specification, lifecycle state, and progress tracking.

use serde::{Deserialize, Serialize};
use slaq_types::{CpuMhz, JobId, MemMb, NodeId, SimDuration, SimTime, SlaqError, Work};
use slaq_utility::CompletionGoal;

/// Static description of a long-running job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Human-readable name (experiment reports).
    pub name: String,
    /// Total CPU work the job must perform.
    pub total_work: Work,
    /// Maximum speed at which the job can consume CPU — "each job's
    /// maximum speed permits it to use a single processor" in the paper's
    /// evaluation.
    pub max_speed: CpuMhz,
    /// Memory footprint of the job's VM while placed (running or
    /// suspended-in-memory). The paper's testbed fits three such jobs per
    /// node.
    pub mem: MemMb,
    /// Completion-time SLA.
    pub goal: CompletionGoal,
    /// Importance tier for service differentiation (1.0 = baseline): the
    /// controller allows a job weighted `w` only `1/w` of the common
    /// utility shortfall, and the solver evicts a running job only for a
    /// strictly more important one.
    pub importance: f64,
}

impl JobSpec {
    /// Validate the spec.
    pub fn validate(&self) -> Result<(), SlaqError> {
        let finite_positive = |v: f64| v.is_finite() && v > 0.0;
        if !finite_positive(self.total_work.as_f64()) {
            return Err(SlaqError::InvalidSpec(
                "job total_work must be finite and positive".into(),
            ));
        }
        if !finite_positive(self.max_speed.as_f64()) {
            return Err(SlaqError::InvalidSpec(
                "job max_speed must be finite and positive".into(),
            ));
        }
        if !finite_positive(self.importance) {
            return Err(SlaqError::InvalidSpec(
                "job importance must be finite and positive".into(),
            ));
        }
        // The goal's fields are public and it deserializes, so its own
        // constructors may never have run.
        if !self.goal.is_valid() {
            return Err(SlaqError::InvalidSpec(
                "job goal must have finite earliest ≤ goal ≤ exhausted and \
                 max ≥ goal ≥ min utility within [-1, 1]"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Lifecycle state of a job.
///
/// ```text
/// Pending ──start──▶ Running ──complete──▶ Completed
///                      │  ▲
///               suspend│  │resume (same or different node = migration
///                      ▼  │         by suspend/resume)
///                   Suspended
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, never yet started; holds no resources.
    Pending,
    /// Executing on a node.
    Running {
        /// Where the job's VM currently runs.
        node: NodeId,
    },
    /// Suspended. The VM image remains on its node (holding memory there)
    /// until resumed or migrated.
    Suspended {
        /// Node holding the suspended image.
        node: NodeId,
    },
    /// Finished all its work.
    Completed {
        /// Completion instant.
        at: SimTime,
    },
}

impl JobState {
    /// `true` while the job still needs CPU (pending, running or
    /// suspended).
    pub fn is_active(&self) -> bool {
        !matches!(self, JobState::Completed { .. })
    }

    /// Node currently hosting the job's VM, if any.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            JobState::Running { node } | JobState::Suspended { node } => Some(*node),
            _ => None,
        }
    }
}

/// A job instance: spec + dynamic state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Identifier assigned at submission.
    pub id: JobId,
    /// The static spec.
    pub spec: JobSpec,
    /// Submission instant.
    pub submitted: SimTime,
    /// Current lifecycle state.
    pub state: JobState,
    /// First-start instant, if the job ever started.
    pub started: Option<SimTime>,
    /// Work still to perform.
    pub remaining: Work,
    /// Utility actually achieved, set at completion ("the actual utility
    /// achieved by a job can only be calculated at completion time").
    pub achieved_utility: Option<f64>,
    /// Count of placement disruptions experienced (suspends + migrations),
    /// for churn accounting in experiments.
    pub disruptions: u32,
}

impl Job {
    /// Create a pending job.
    pub fn new(id: JobId, spec: JobSpec, submitted: SimTime) -> Result<Self, SlaqError> {
        spec.validate()?;
        Ok(Job {
            id,
            remaining: spec.total_work,
            spec,
            submitted,
            state: JobState::Pending,
            started: None,
            achieved_utility: None,
            disruptions: 0,
        })
    }

    /// `true` while the job still needs CPU.
    pub fn is_active(&self) -> bool {
        self.state.is_active()
    }

    /// `true` iff currently running.
    pub fn is_running(&self) -> bool {
        matches!(self.state, JobState::Running { .. })
    }

    /// Fraction of total work already done, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        1.0 - (self.remaining.as_f64() / self.spec.total_work.as_f64()).clamp(0.0, 1.0)
    }

    /// Start the job on `node`. Legal from `Pending` only.
    pub fn start(&mut self, node: NodeId, now: SimTime) -> Result<(), SlaqError> {
        match self.state {
            JobState::Pending => {
                self.state = JobState::Running { node };
                self.started = Some(now);
                Ok(())
            }
            _ => Err(SlaqError::IllegalState(format!(
                "{} cannot start from {:?}",
                self.id, self.state
            ))),
        }
    }

    /// Suspend a running job in place.
    pub fn suspend(&mut self) -> Result<(), SlaqError> {
        match self.state {
            JobState::Running { node } => {
                self.state = JobState::Suspended { node };
                self.disruptions += 1;
                Ok(())
            }
            _ => Err(SlaqError::IllegalState(format!(
                "{} cannot suspend from {:?}",
                self.id, self.state
            ))),
        }
    }

    /// Resume a suspended job on `node` (a different node than it was
    /// suspended on constitutes a migration and counts as a disruption).
    pub fn resume(&mut self, node: NodeId) -> Result<(), SlaqError> {
        match self.state {
            JobState::Suspended { node: old } => {
                if old != node {
                    self.disruptions += 1;
                }
                self.state = JobState::Running { node };
                Ok(())
            }
            _ => Err(SlaqError::IllegalState(format!(
                "{} cannot resume from {:?}",
                self.id, self.state
            ))),
        }
    }

    /// Live-migrate a running job to another node.
    pub fn migrate(&mut self, to: NodeId) -> Result<(), SlaqError> {
        match self.state {
            JobState::Running { node } if node != to => {
                self.state = JobState::Running { node: to };
                self.disruptions += 1;
                Ok(())
            }
            JobState::Running { .. } => Ok(()), // no-op migration to self
            _ => Err(SlaqError::IllegalState(format!(
                "{} cannot migrate from {:?}",
                self.id, self.state
            ))),
        }
    }

    /// Effective execution speed at CPU allocation `alloc` (capped by the
    /// job's maximum speed).
    pub fn speed_at(&self, alloc: CpuMhz) -> CpuMhz {
        alloc.max_zero().min(self.spec.max_speed)
    }

    /// Advance a *running* job by `dt` at allocation `alloc`. Returns the
    /// completion instant if the job finishes within the interval (work is
    /// integrated exactly, so completion lands mid-interval). `now` is the
    /// interval start. Non-running jobs make no progress.
    ///
    /// Completion carries a 1 ns tolerance: repeated fluid work
    /// subtraction leaves sub-nanosecond remainders that would otherwise
    /// schedule completion events indistinguishable (in `f64` time) from
    /// "now", stalling an event loop.
    pub fn advance(&mut self, alloc: CpuMhz, now: SimTime, dt: SimDuration) -> Option<SimTime> {
        if !self.is_running() {
            return None;
        }
        let speed = self.speed_at(alloc);
        let needed = self.remaining.secs_at(speed);
        if needed <= dt.as_secs() + 1e-9 {
            let at = now + SimDuration::from_secs(needed.min(dt.as_secs().max(0.0)));
            self.remaining = Work::ZERO;
            self.state = JobState::Completed { at };
            self.achieved_utility = Some(self.spec.goal.utility_at(at));
            Some(at)
        } else {
            self.remaining = self
                .remaining
                .saturating_sub(Work::from_power_secs(speed, dt.as_secs()));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn spec(work_mhz_s: f64) -> JobSpec {
        JobSpec {
            name: "batch".into(),
            total_work: Work::new(work_mhz_s),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::ZERO,
                SimDuration::from_secs(work_mhz_s / 3000.0),
                1.25,
                2.0,
            )
            .unwrap(),
            importance: 1.0,
        }
    }

    fn job() -> Job {
        Job::new(JobId::new(0), spec(3_000_000.0), SimTime::ZERO).unwrap()
    }

    #[test]
    fn spec_validation() {
        let mut s = spec(100.0);
        s.total_work = Work::ZERO;
        assert!(s.validate().is_err());
        let mut s = spec(100.0);
        s.max_speed = CpuMhz::ZERO;
        assert!(s.validate().is_err());
        // Non-finite values go round the constructors' debug checks (a
        // deserialized spec carries whatever the file held).
        for bad in [f64::NAN, f64::INFINITY] {
            let mut s = spec(100.0);
            s.total_work = Work(bad);
            assert!(s.validate().is_err(), "total_work {bad}");
            let mut s = spec(100.0);
            s.max_speed = CpuMhz(bad);
            assert!(s.validate().is_err(), "max_speed {bad}");
        }
        let mut s = spec(100.0);
        s.goal.goal_utility = f64::NAN; // no constructor returns this goal
        assert!(matches!(s.validate(), Err(SlaqError::InvalidSpec(_))));
    }

    /// Importance reaches the equalizer and the solver unchecked, so an
    /// unusable weight is refused at submission.
    #[test]
    fn unusable_importance_is_refused_at_submit() {
        let mut jobs = crate::JobManager::new();
        for bad in [f64::NAN, -3.0, 0.0, f64::INFINITY] {
            let mut s = spec(100.0);
            s.importance = bad;
            let err = jobs.submit(s, SimTime::ZERO).expect_err("refused");
            assert!(err.to_string().contains("importance"), "{bad}: {err}");
        }
        assert!(jobs.jobs().is_empty());
        jobs.submit(spec(100.0), SimTime::ZERO).unwrap();
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut j = job();
        assert!(j.is_active());
        assert!(!j.is_running());
        j.start(NodeId::new(3), SimTime::from_secs(10.0)).unwrap();
        assert!(j.is_running());
        assert_eq!(j.state.node(), Some(NodeId::new(3)));
        assert_eq!(j.started, Some(SimTime::from_secs(10.0)));
        j.suspend().unwrap();
        assert!(!j.is_running());
        assert!(j.is_active());
        assert_eq!(j.state.node(), Some(NodeId::new(3)));
        assert_eq!(j.disruptions, 1);
        j.resume(NodeId::new(7)).unwrap(); // migration by resume
        assert_eq!(j.state.node(), Some(NodeId::new(7)));
        assert_eq!(j.disruptions, 2);
    }

    #[test]
    fn illegal_transitions_are_rejected() {
        let mut j = job();
        assert!(j.suspend().is_err());
        assert!(j.resume(NodeId::new(0)).is_err());
        assert!(j.migrate(NodeId::new(0)).is_err());
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        assert!(j.start(NodeId::new(1), SimTime::ZERO).is_err());
        j.suspend().unwrap();
        assert!(j.suspend().is_err());
        assert!(j.migrate(NodeId::new(1)).is_err());
    }

    #[test]
    fn migrate_to_self_is_noop() {
        let mut j = job();
        j.start(NodeId::new(2), SimTime::ZERO).unwrap();
        j.migrate(NodeId::new(2)).unwrap();
        assert_eq!(j.disruptions, 0);
        j.migrate(NodeId::new(4)).unwrap();
        assert_eq!(j.disruptions, 1);
    }

    #[test]
    fn speed_is_capped_at_max_speed() {
        let j = job();
        assert_eq!(j.speed_at(CpuMhz::new(12_000.0)), CpuMhz::new(3000.0));
        assert_eq!(j.speed_at(CpuMhz::new(1500.0)), CpuMhz::new(1500.0));
        assert_eq!(j.speed_at(CpuMhz::new(-5.0)), CpuMhz::ZERO);
    }

    #[test]
    fn advance_integrates_work() {
        let mut j = job(); // 3e6 MHz·s: 1000 s at full speed
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        let done = j.advance(
            CpuMhz::new(3000.0),
            SimTime::ZERO,
            SimDuration::from_secs(400.0),
        );
        assert!(done.is_none());
        assert!((j.progress() - 0.4).abs() < 1e-12);
        assert_eq!(j.remaining, Work::new(1_800_000.0));
    }

    #[test]
    fn advance_detects_mid_interval_completion() {
        let mut j = job();
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        // 600 s of the 1000 s done…
        j.advance(
            CpuMhz::new(3000.0),
            SimTime::ZERO,
            SimDuration::from_secs(600.0),
        );
        // …then a 600 s cycle: completes 400 s in.
        let done = j.advance(
            CpuMhz::new(3000.0),
            SimTime::from_secs(600.0),
            SimDuration::from_secs(600.0),
        );
        assert_eq!(done, Some(SimTime::from_secs(1000.0)));
        assert!(!j.is_active());
        // Completed exactly at fastest finish ⇒ full utility.
        assert_eq!(j.achieved_utility, Some(1.0));
        assert_eq!(j.progress(), 1.0);
    }

    #[test]
    fn late_completion_yields_partial_utility() {
        let mut j = job(); // goal at 1250 s, exhausted 2000 s
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        // Run at half speed: finishes at 2000 s ⇒ utility 0.
        let done = j.advance(
            CpuMhz::new(1500.0),
            SimTime::ZERO,
            SimDuration::from_secs(4000.0),
        );
        assert_eq!(done, Some(SimTime::from_secs(2000.0)));
        assert_eq!(j.achieved_utility, Some(0.0));
    }

    #[test]
    fn suspended_jobs_make_no_progress() {
        let mut j = job();
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        j.suspend().unwrap();
        let before = j.remaining;
        assert!(j
            .advance(
                CpuMhz::new(3000.0),
                SimTime::ZERO,
                SimDuration::from_secs(100.0)
            )
            .is_none());
        assert_eq!(j.remaining, before);
    }

    #[test]
    fn sub_nanosecond_remainder_completes_even_with_zero_dt() {
        // Regression: fp dust after repeated subtraction must not leave a
        // job forever "about to finish" (Zeno stall in the event loop).
        let mut j = job();
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        j.remaining = Work::new(1e-6); // 0.33 ns at full speed
        let done = j.advance(
            CpuMhz::new(3000.0),
            SimTime::from_secs(500.0),
            SimDuration::ZERO,
        );
        assert_eq!(done, Some(SimTime::from_secs(500.0)));
        assert!(!j.is_active());
    }

    #[test]
    fn zero_dt_with_real_work_left_is_a_noop() {
        let mut j = job();
        j.start(NodeId::new(0), SimTime::ZERO).unwrap();
        let before = j.remaining;
        assert!(j
            .advance(CpuMhz::new(3000.0), SimTime::ZERO, SimDuration::ZERO)
            .is_none());
        assert_eq!(j.remaining, before);
    }
}
