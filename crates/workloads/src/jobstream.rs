//! The job template: one job specification, anchored at its submission.

use serde::{Deserialize, Serialize};
use slaq_jobs::JobSpec;
use slaq_types::{CpuMhz, MemMb, SimTime, Work};
use slaq_utility::CompletionGoal;

/// Template all jobs in a stream share — the paper's evaluation uses 800
/// *identical* jobs, differing only in submission time (and hence SLA
/// anchor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTemplate {
    /// Prefix for generated job names (`"batch-17"` etc.).
    pub name_prefix: String,
    /// Total CPU work per job.
    pub work: Work,
    /// Maximum useful speed (one processor in the paper).
    pub max_speed: CpuMhz,
    /// VM memory footprint.
    pub mem: MemMb,
    /// Goal completion at `goal_factor × fastest_runtime` after
    /// submission (≥ 1).
    pub goal_factor: f64,
    /// Utility floor reached at `exhausted_factor × fastest_runtime`
    /// (≥ `goal_factor`).
    pub exhausted_factor: f64,
}

impl JobTemplate {
    /// Instantiate the template for a submission at `submit`.
    pub fn spec_at(&self, submit: SimTime, index: usize) -> Option<JobSpec> {
        let fastest = slaq_types::SimDuration::from_secs(self.work.secs_at(self.max_speed));
        let goal =
            CompletionGoal::relative(submit, fastest, self.goal_factor, self.exhausted_factor)?;
        Some(JobSpec {
            name: format!("{}-{index}", self.name_prefix),
            total_work: self.work,
            max_speed: self.max_speed,
            mem: self.mem,
            goal,
            importance: 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, JobMix, RateSchedule};

    /// `count` jobs of template `t` with Poisson arrivals over `schedule`,
    /// truncated at `horizon`: the spec pipeline's single-class stream.
    fn mix_stream(
        t: &JobTemplate,
        schedule: RateSchedule,
        count: usize,
        horizon: SimTime,
        seed: u64,
    ) -> Vec<(SimTime, JobSpec)> {
        let arrivals = ArrivalProcess::Poisson { schedule }.stream(count, horizon, seed);
        JobMix::uniform(t.clone()).generate(&arrivals, seed, 0)
    }

    /// The paper's job: 4 h at one 3000 MHz processor, 3 per node by
    /// memory.
    pub(crate) fn paper_template() -> JobTemplate {
        JobTemplate {
            name_prefix: "batch".into(),
            work: Work::from_power_secs(CpuMhz::new(3000.0), 14_400.0),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal_factor: 1.25,
            exhausted_factor: 2.0,
        }
    }

    #[test]
    fn template_anchors_goal_at_submission() {
        let t = paper_template();
        let spec = t.spec_at(SimTime::from_secs(1000.0), 3).unwrap();
        assert_eq!(spec.name, "batch-3");
        assert_eq!(spec.goal.earliest.as_secs(), 1000.0 + 14_400.0);
        assert_eq!(spec.goal.goal.as_secs(), 1000.0 + 18_000.0);
        assert_eq!(spec.goal.exhausted.as_secs(), 1000.0 + 28_800.0);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn template_rejects_bad_factors() {
        let mut t = paper_template();
        t.goal_factor = 0.5;
        assert!(t.spec_at(SimTime::ZERO, 0).is_none());
    }

    #[test]
    fn stream_respects_count_and_horizon() {
        let t = paper_template();
        let sched = RateSchedule::constant(260.0).unwrap();
        let stream = mix_stream(&t, sched, 800, SimTime::from_secs(72_000.0), 42);
        // ~72 000 / 260 ≈ 277 arrivals fit the window.
        assert!(stream.len() > 200 && stream.len() < 360, "{}", stream.len());
        assert!(stream.iter().all(|(t, _)| t.as_secs() <= 72_000.0));
        // Identical jobs: same work/memory everywhere.
        assert!(stream
            .iter()
            .all(|(_, s)| s.total_work == t.work && s.mem == t.mem));
        // Submission-anchored goals differ.
        assert_ne!(stream[0].1.goal.goal, stream[1].1.goal.goal);
    }

    #[test]
    fn short_horizon_truncates_stream() {
        let t = paper_template();
        let sched = RateSchedule::constant(260.0).unwrap();
        let stream = mix_stream(&t, sched, 800, SimTime::from_secs(2600.0), 42);
        assert!(stream.len() < 30);
    }

    #[test]
    fn stream_is_reproducible() {
        let t = paper_template();
        let sched = RateSchedule::constant(100.0).unwrap();
        let a = mix_stream(&t, sched.clone(), 50, SimTime::from_secs(1e6), 5);
        let b = mix_stream(&t, sched, 50, SimTime::from_secs(1e6), 5);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0));
    }
}
