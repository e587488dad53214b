//! The job manager: submissions, lifecycle bookkeeping, progress
//! integration, and the paper's **hypothetical utility** computation.

use crate::job::{Job, JobSpec, JobState};
use crate::utility::JobUtility;
use serde::{Deserialize, Serialize};
use slaq_types::{CpuMhz, JobId, Result, SimDuration, SimTime, SlaqError};
use slaq_utility::{equalize_bisection, EqEntity, EqualizeOptions, EqualizedAllocation};

/// Outcome of a hypothetical-utility evaluation over the active job pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypotheticalOutcome {
    /// The fluid equalized allocation over active jobs.
    pub allocation: EqualizedAllocation,
    /// Mean utility over active jobs — the series Figure 1 plots as
    /// "average hypothetical utility for the long-running workload".
    pub average_utility: f64,
    /// Σ of per-job demands for maximum utility — the Figure 2
    /// "long-running demand" series.
    pub total_demand: CpuMhz,
    /// Number of active jobs considered.
    pub active_jobs: usize,
}

/// Aggregate statistics over all jobs ever submitted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct JobStats {
    /// Jobs ever submitted.
    pub submitted: usize,
    /// Jobs pending (never started).
    pub pending: usize,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs currently suspended.
    pub suspended: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Mean achieved utility over completed jobs (0 when none).
    pub mean_achieved_utility: f64,
    /// Completed jobs that met their goal (completion ≤ goal instant).
    pub goals_met: usize,
    /// Total placement disruptions (suspends + migrations) across jobs.
    pub disruptions: u32,
}

/// Owns every job in the system, indexed densely by [`JobId`], and the
/// live view: the positions of the jobs not yet retired, in id order.
#[derive(Debug, Clone, Default)]
pub struct JobManager {
    jobs: Vec<Job>,
    /// Positions of the jobs submitted and not yet retired, ascending.
    live: Vec<u32>,
}

impl JobManager {
    /// An empty manager.
    pub fn new() -> Self {
        JobManager::default()
    }

    /// Submit a job; ids are assigned densely in submission order.
    pub fn submit(&mut self, spec: JobSpec, now: SimTime) -> Result<JobId> {
        let id = JobId::new(self.jobs.len() as u32);
        self.jobs.push(Job::new(id, spec, now)?);
        self.live.push(id.raw());
        Ok(id)
    }

    /// All jobs ever submitted, by id. Completed jobs stay for the report
    /// and [`JobManager::job`]; a pass that runs every cycle walks
    /// [`JobManager::active`] instead.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The active jobs (pending, running or suspended), in id order: the
    /// live view. A job completed through [`JobManager::job_mut`] and not
    /// yet retired is skipped.
    pub fn active(&self) -> impl Iterator<Item = &Job> + '_ {
        self.live
            .iter()
            .map(|&pos| &self.jobs[pos as usize])
            .filter(|j| j.is_active())
    }

    /// [`JobManager::active`], mutably.
    pub fn active_mut(&mut self) -> impl Iterator<Item = &mut Job> + '_ {
        let mut table = self.jobs.iter_mut();
        let mut next = 0;
        self.live
            .iter()
            .filter_map(move |&pos| {
                let job = table.nth(pos as usize - next)?;
                next = pos as usize + 1;
                Some(job)
            })
            .filter(|j| j.is_active())
    }

    /// Take a completed job out of the live view; one already out of it
    /// is left alone.
    pub fn retire(&mut self, id: JobId) {
        debug_assert!(self.job(id).is_ok_and(|j| !j.is_active()), "{id} active");
        if let Ok(at) = self.live.binary_search(&id.raw()) {
            self.live.remove(at);
        }
    }

    /// Number of jobs ever submitted.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Look up a job.
    pub fn job(&self, id: JobId) -> Result<&Job> {
        self.jobs.get(id.index()).ok_or(SlaqError::UnknownJob(id))
    }

    /// Look up a job mutably.
    pub fn job_mut(&mut self, id: JobId) -> Result<&mut Job> {
        self.jobs
            .get_mut(id.index())
            .ok_or(SlaqError::UnknownJob(id))
    }

    /// Utility-curve snapshots for every active job at instant `now` —
    /// the entities the equalizer (and the cross-workload tradeoff in
    /// `slaq-core`) consumes.
    pub fn entities(&self, now: SimTime) -> Vec<(JobId, JobUtility)> {
        self.active()
            .map(|j| (j.id, JobUtility::of(j, now)))
            .collect()
    }

    /// The paper's hypothetical utility: assume all active jobs can be
    /// placed simultaneously and `budget` MHz of CPU may be divided
    /// arbitrarily finely among them so that expected utility is
    /// equalized. Returns the per-job fluid allocation, the average
    /// utility (Figure 1's long-running series) and the total demand for
    /// maximum utility (Figure 2's long-running demand series).
    pub fn hypothetical(
        &self,
        now: SimTime,
        budget: CpuMhz,
        opts: &EqualizeOptions,
    ) -> HypotheticalOutcome {
        let snapshots = self.entities(now);
        let entities: Vec<EqEntity<'_>> = snapshots
            .iter()
            .map(|(id, ju)| EqEntity::new(*id, ju as &dyn slaq_utility::UtilityOfCpu))
            .collect();
        let allocation = equalize_bisection(&entities, budget, opts);
        let average_utility = if allocation.allocations.is_empty() {
            0.0
        } else {
            allocation
                .allocations
                .iter()
                .map(|a| a.utility)
                .sum::<f64>()
                / allocation.allocations.len() as f64
        };
        let total_demand: CpuMhz = entities.iter().map(|e| e.cap()).sum();
        HypotheticalOutcome {
            average_utility,
            total_demand,
            active_jobs: snapshots.len(),
            allocation,
        }
    }

    /// Advance every running job by `dt`, with per-job allocations given
    /// by `alloc_of`, and retire the jobs that finished within the
    /// interval. Returns `(id, completion_instant)` for them, in id order.
    pub fn advance_running(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        mut alloc_of: impl FnMut(JobId) -> CpuMhz,
    ) -> Vec<(JobId, SimTime)> {
        let mut done = Vec::new();
        for job in self.active_mut().filter(|j| j.is_running()) {
            if let Some(at) = job.advance(alloc_of(job.id), now, dt) {
                done.push((job.id, at));
            }
        }
        for &(id, _) in &done {
            self.retire(id);
        }
        done
    }

    /// Aggregate statistics: a walk of the whole table, for the report.
    pub fn stats(&self) -> JobStats {
        let mut s = JobStats {
            submitted: self.jobs.len(),
            ..Default::default()
        };
        let mut util_sum = 0.0;
        for j in &self.jobs {
            s.disruptions += j.disruptions;
            match j.state {
                JobState::Pending => s.pending += 1,
                JobState::Running { .. } => s.running += 1,
                JobState::Suspended { .. } => s.suspended += 1,
                JobState::Completed { at } => {
                    s.completed += 1;
                    util_sum += j.achieved_utility.unwrap_or(0.0);
                    if at <= j.spec.goal.goal {
                        s.goals_met += 1;
                    }
                }
            }
        }
        if s.completed > 0 {
            s.mean_achieved_utility = util_sum / s.completed as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_types::{MemMb, NodeId, Work};
    use slaq_utility::CompletionGoal;

    fn spec(work: f64, submit: f64) -> JobSpec {
        JobSpec {
            name: format!("job@{submit}"),
            total_work: Work::new(work),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::from_secs(submit),
                SimDuration::from_secs(work / 3000.0),
                1.25,
                2.0,
            )
            .unwrap(),
            importance: 1.0,
        }
    }

    fn mgr_with(n: usize) -> JobManager {
        let mut m = JobManager::new();
        for i in 0..n {
            m.submit(
                spec(3_000_000.0, i as f64 * 100.0),
                SimTime::from_secs(i as f64 * 100.0),
            )
            .unwrap();
        }
        m
    }

    #[test]
    fn submission_assigns_dense_ids() {
        let m = mgr_with(3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.jobs()[2].id, JobId::new(2));
        assert!(m.job(JobId::new(2)).is_ok());
        assert!(matches!(
            m.job(JobId::new(3)),
            Err(SlaqError::UnknownJob(_))
        ));
    }

    #[test]
    fn invalid_spec_is_rejected_at_submit() {
        let mut m = JobManager::new();
        let mut s = spec(100.0, 0.0);
        s.total_work = Work::ZERO;
        assert!(m.submit(s, SimTime::ZERO).is_err());
        // A goal that never met its constructors (public fields, serde).
        let mut disordered = spec(100.0, 0.0);
        disordered.goal.goal = disordered.goal.earliest - SimDuration::from_secs(1.0);
        let mut open_ended = spec(100.0, 0.0);
        open_ended.goal.exhausted = SimTime::NEVER;
        for hostile in [disordered, open_ended] {
            let refused = m.submit(hostile, SimTime::ZERO);
            assert!(
                matches!(refused, Err(SlaqError::InvalidSpec(_))),
                "{refused:?}"
            );
        }
        assert!(m.is_empty());
    }

    #[test]
    fn active_and_running_sets_track_lifecycle() {
        let mut m = mgr_with(3);
        m.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::ZERO)
            .unwrap();
        m.job_mut(JobId::new(1))
            .unwrap()
            .start(NodeId::new(1), SimTime::ZERO)
            .unwrap();
        m.job_mut(JobId::new(1)).unwrap().suspend().unwrap();
        assert_eq!(m.entities(SimTime::ZERO).len(), 3, "all three active");
        assert!(m.job(JobId::new(0)).unwrap().is_running());
        let s = m.stats();
        assert_eq!((s.pending, s.running, s.suspended), (1, 1, 1));
        assert_eq!(s.disruptions, 1);
    }

    #[test]
    fn hypothetical_with_ample_budget_is_fully_satisfied() {
        let mut m = JobManager::new();
        for _ in 0..4 {
            m.submit(spec(3_000_000.0, 0.0), SimTime::ZERO).unwrap();
        }
        let h = m.hypothetical(
            SimTime::ZERO,
            CpuMhz::new(300_000.0),
            &EqualizeOptions::default(),
        );
        assert_eq!(h.active_jobs, 4);
        // Every job can run at full speed ⇒ utility 1 each.
        assert!(
            (h.average_utility - 1.0).abs() < 1e-9,
            "{}",
            h.average_utility
        );
        // Fresh jobs each demand their full speed.
        assert!(h.total_demand.approx_eq(CpuMhz::new(4.0 * 3000.0), 1e-6));
    }

    #[test]
    fn stale_jobs_cannot_reach_full_utility() {
        // Jobs submitted at 0/100/200/300 but only considered at t=300:
        // earlier jobs' fastest finishes have slipped past their goals, so
        // even unlimited CPU yields a sub-1 average (0.7167 exactly for
        // this geometry) — the cost of queueing the paper's SLAs price in.
        let m = mgr_with(4);
        let h = m.hypothetical(
            SimTime::from_secs(300.0),
            CpuMhz::new(300_000.0),
            &EqualizeOptions::default(),
        );
        assert!(
            (h.average_utility - (0.4667 + 0.6 + 0.8 + 1.0) / 4.0).abs() < 1e-3,
            "{}",
            h.average_utility
        );
    }

    #[test]
    fn hypothetical_utility_decreases_as_pool_crowds() {
        // Fixed budget, growing job count: average utility must fall —
        // the crowding effect driving Figure 1's long-running decay.
        let budget = CpuMhz::new(12_000.0);
        let now = SimTime::from_secs(0.0);
        let mut prev = f64::INFINITY;
        for n in [2usize, 6, 12, 24] {
            let mut m = JobManager::new();
            for _ in 0..n {
                m.submit(spec(3_000_000.0, 0.0), now).unwrap();
            }
            let h = m.hypothetical(now, budget, &EqualizeOptions::default());
            assert!(
                h.average_utility <= prev + 1e-9,
                "n={n}: {} vs prev {prev}",
                h.average_utility
            );
            prev = h.average_utility;
        }
        assert!(prev < 0.4, "24 jobs on 4 cores should be unhappy: {prev}");
    }

    #[test]
    fn hypothetical_equalizes_mixed_progress() {
        let mut m = mgr_with(2);
        // Job 0 is half done: needs less CPU for the same utility.
        m.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::ZERO)
            .unwrap();
        m.job_mut(JobId::new(0)).unwrap().advance(
            CpuMhz::new(3000.0),
            SimTime::ZERO,
            SimDuration::from_secs(500.0),
        );
        let h = m.hypothetical(
            SimTime::from_secs(500.0),
            CpuMhz::new(3600.0),
            &EqualizeOptions::default(),
        );
        let a0 = h.allocation.cpu_of(JobId::new(0)).unwrap();
        let a1 = h.allocation.cpu_of(JobId::new(1)).unwrap();
        assert!(a0 < a1, "half-done job should need less: {a0} vs {a1}");
        let u0 = h.allocation.allocations[0].utility;
        let u1 = h.allocation.allocations[1].utility;
        assert!((u0 - u1).abs() < 0.01, "utilities equalized: {u0} vs {u1}");
    }

    #[test]
    fn hypothetical_with_no_active_jobs() {
        let m = JobManager::new();
        let h = m.hypothetical(
            SimTime::ZERO,
            CpuMhz::new(1000.0),
            &EqualizeOptions::default(),
        );
        assert_eq!(h.active_jobs, 0);
        assert_eq!(h.average_utility, 0.0);
        assert_eq!(h.total_demand, CpuMhz::ZERO);
    }

    #[test]
    fn advance_running_integrates_and_collects_completions() {
        let mut m = mgr_with(2);
        for i in 0..2 {
            m.job_mut(JobId::new(i))
                .unwrap()
                .start(NodeId::new(i), SimTime::ZERO)
                .unwrap();
        }
        // Job 0 at full speed (completes at 1000 s), job 1 at half.
        let done = m.advance_running(SimTime::ZERO, SimDuration::from_secs(1200.0), |id| {
            if id == JobId::new(0) {
                CpuMhz::new(3000.0)
            } else {
                CpuMhz::new(1500.0)
            }
        });
        assert_eq!(done, vec![(JobId::new(0), SimTime::from_secs(1000.0))]);
        let s = m.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.goals_met, 1);
        assert!((s.mean_achieved_utility - 1.0).abs() < 1e-9);
        assert!((m.job(JobId::new(1)).unwrap().progress() - 0.6).abs() < 1e-9);
    }

    /// The live view's lifecycle sweep: seeded sequences of submits,
    /// starts, suspends, resumes, migrations, `advance_running` calls and
    /// completions through `job_mut` retired with `retire`. After every
    /// step both iterators of the view must list exactly what a filter of
    /// the whole table on `is_active` lists, in id order (a completion
    /// not yet retired included), and after every retire or advance the
    /// index must hold
    /// exactly the active jobs. Returns the tally, or the first step the
    /// view and the table disagree at.
    fn live_view_sweep(
        retire: fn(&mut JobManager, JobId),
    ) -> std::result::Result<[u64; 9], String> {
        // submits, starts, suspends, resumes, migrations, advances,
        // completions by advance, completions retired, largest index.
        let mut tally = [0u64; 9];
        for seed in 0..400u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut below = |bound: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % bound as u64) as usize
            };
            let mut m = JobManager::new();
            let mut now = SimTime::ZERO;
            for step in 0..80 {
                let of = |m: &JobManager, f: fn(&Job) -> bool| -> Vec<JobId> {
                    m.jobs().iter().filter(|j| f(j)).map(|j| j.id).collect()
                };
                let pending = of(&m, |j| j.state == JobState::Pending);
                let running = of(&m, |j| j.is_running());
                let suspended = of(&m, |j| matches!(j.state, JobState::Suspended { .. }));
                let node = NodeId::new(below(4) as u32);
                let op = below(8);
                let mut checks_index = false;
                match op {
                    0 | 1 => {
                        m.submit(spec(3_000.0 * (1 + below(600)) as f64, now.as_secs()), now)
                            .unwrap();
                    }
                    2 if !pending.is_empty() => {
                        let id = pending[below(pending.len())];
                        m.job_mut(id).unwrap().start(node, now).unwrap();
                    }
                    3 if !running.is_empty() => {
                        m.job_mut(running[below(running.len())])
                            .unwrap()
                            .suspend()
                            .unwrap();
                    }
                    4 if !suspended.is_empty() => {
                        let id = suspended[below(suspended.len())];
                        m.job_mut(id).unwrap().resume(node).unwrap();
                    }
                    5 if !running.is_empty() => {
                        m.job_mut(running[below(running.len())])
                            .unwrap()
                            .migrate(node)
                            .unwrap();
                    }
                    6 => {
                        let dt = SimDuration::from_secs(50.0 * below(8) as f64);
                        let speeds = [3000.0, 1500.0, 0.0];
                        let done = m.advance_running(now, dt, |id| {
                            CpuMhz::new(speeds[id.index() % speeds.len()])
                        });
                        tally[6] += done.len() as u64;
                        now += dt;
                        checks_index = true;
                    }
                    7 if !running.is_empty() => {
                        // Complete a few running jobs behind the manager's
                        // back: the view must hide them before the retire.
                        let mut completed = Vec::new();
                        for _ in 0..1 + below(3) {
                            let id = running[below(running.len())];
                            let job = m.job_mut(id).unwrap();
                            let until = SimDuration::from_secs(1e6);
                            completed
                                .extend(job.advance(job.spec.max_speed, now, until).map(|_| id));
                        }
                        if let Some(msg) = disagreement(&mut m) {
                            return Err(format!("seed {seed} step {step} before retire: {msg}"));
                        }
                        for id in completed {
                            retire(&mut m, id);
                            tally[7] += 1;
                        }
                        checks_index = true;
                    }
                    _ => continue,
                }
                if op < 7 {
                    tally[op.max(1) - 1] += 1;
                }
                if let Some(msg) = disagreement(&mut m) {
                    return Err(format!("seed {seed} step {step} after op {op}: {msg}"));
                }
                let active = m.active().count();
                if checks_index && m.live.len() != active {
                    return Err(format!(
                        "seed {seed} step {step} after op {op}: index holds {} for {active} active",
                        m.live.len()
                    ));
                }
                tally[8] = tally[8].max(m.live.len() as u64);
            }
        }
        Ok(tally)
    }

    /// Where the live view (either iterator) and a filter of the whole
    /// table disagree.
    fn disagreement(m: &mut JobManager) -> Option<String> {
        let view: Vec<JobId> = m.active().map(|j| j.id).collect();
        let view_mut: Vec<JobId> = m.active_mut().map(|j| j.id).collect();
        if view_mut != view {
            return Some(format!("active_mut {view_mut:?}, active {view:?}"));
        }
        let table: Vec<JobId> = m
            .jobs()
            .iter()
            .filter(|j| j.is_active())
            .map(|j| j.id)
            .collect();
        (view != table).then(|| format!("view {view:?}, table {table:?}"))
    }

    #[test]
    fn the_live_view_equals_a_filter_of_the_table() {
        let tally = live_view_sweep(JobManager::retire).unwrap_or_else(|e| panic!("{e}"));
        println!(
            "live view: {} submits, {} starts, {} suspends, {} resumes, {} migrations, \
             {} advances ({} completions), {} completions retired, index peak {}",
            tally[0],
            tally[1],
            tally[2],
            tally[3],
            tally[4],
            tally[5],
            tally[6],
            tally[7],
            tally[8]
        );
        for (what, floor) in tally
            .iter()
            .zip([6000, 3000, 1500, 1200, 1400, 3000, 400, 1800, 20])
        {
            assert!(*what >= floor, "tally {tally:?} under its floors");
        }
    }

    /// The mutation check: a retire that leaves the completion in the
    /// index is caught.
    #[test]
    fn the_sweep_catches_a_retire_that_keeps_the_completion() {
        let err = live_view_sweep(|_, _| {}).expect_err("mutant passed");
        assert!(err.contains("index holds"), "{err}");
    }

    #[test]
    fn stats_counts_goal_misses() {
        let mut m = JobManager::new();
        m.submit(spec(3_000_000.0, 0.0), SimTime::ZERO).unwrap();
        m.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::ZERO)
            .unwrap();
        // Crawl at 1000 MHz: completes at 3000 s, past exhausted (2000 s).
        m.job_mut(JobId::new(0)).unwrap().advance(
            CpuMhz::new(1000.0),
            SimTime::ZERO,
            SimDuration::from_secs(5000.0),
        );
        let s = m.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.goals_met, 0);
        assert_eq!(s.mean_achieved_utility, 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_hypothetical_min_decreases_with_crowding(
            n1 in 1usize..10,
            extra in 1usize..10,
            budget in 3000.0..60_000.0f64,
        ) {
            // Max–min guarantees are about the *minimum*: adding jobs to a
            // fixed budget can never raise the worst-off job's utility.
            // (The mean is NOT monotone at the utility floor — see the
            // FIFO residual policy note in slaq-utility::equalize.)
            let mk = |n: usize| {
                let mut m = JobManager::new();
                for _ in 0..n {
                    m.submit(spec(3_000_000.0, 0.0), SimTime::ZERO).unwrap();
                }
                m.hypothetical(SimTime::ZERO, CpuMhz::new(budget), &EqualizeOptions::default())
                    .allocation
                    .min_utility()
            };
            prop_assert!(mk(n1 + extra) <= mk(n1) + 1e-6);
        }

        #[test]
        fn prop_hypothetical_budget_helps_the_minimum(
            n in 1usize..12,
            b1 in 1000.0..50_000.0f64,
            extra in 0.0..50_000.0f64,
        ) {
            let mut m = JobManager::new();
            for _ in 0..n {
                m.submit(spec(3_000_000.0, 0.0), SimTime::ZERO).unwrap();
            }
            let u1 = m
                .hypothetical(SimTime::ZERO, CpuMhz::new(b1), &EqualizeOptions::default())
                .allocation
                .min_utility();
            let u2 = m
                .hypothetical(SimTime::ZERO, CpuMhz::new(b1 + extra), &EqualizeOptions::default())
                .allocation
                .min_utility();
            prop_assert!(u2 >= u1 - 1e-6);
        }
    }
}
