//! Job progress as the simulator integrated it before progress was kept
//! per node: one global instant up to which every running job's
//! `remaining` is exact, and the next completion measured from it —
//! `slaq_sim::Progress` as it stood, kept verbatim (imports through the
//! façade) as the second oracle of `tests/lazy_progress.rs`. Every
//! integration advances every running job; the kept completion is
//! dropped by every integration and by every flush that recomputed a
//! node.

#![allow(dead_code)]

use slaq::jobs::JobManager;
use slaq::types::{CpuMhz, JobId, SimDuration, SimTime};

/// The integration state of the running jobs: where `remaining` is
/// exact, and the next completion it implies under the speeds in force.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Every running job's `remaining` is exact as of this instant.
    integrated_to: SimTime,
    /// The earliest completion under the speeds in force, measured from
    /// `integrated_to`; `None` once an integration or a speed change may
    /// have moved it.
    next_done: Option<SimTime>,
}

impl Progress {
    /// The instant every running job's `remaining` is exact at.
    pub fn integrated_to(&self) -> SimTime {
        self.integrated_to
    }

    /// The earliest completion under `speed_of` (`NEVER` if none): the
    /// kept instant, or re-derived from `integrated_to` and kept.
    pub fn next_completion(
        &mut self,
        jobs: &JobManager,
        speed_of: impl Fn(JobId) -> CpuMhz,
    ) -> SimTime {
        match self.next_done {
            Some(t) => t,
            None => *self.next_done.insert(self.fresh_completion(jobs, speed_of)),
        }
    }

    /// The earliest completion under `speed_of`, re-derived from
    /// `integrated_to` whatever is kept: what [`Progress::next_completion`]
    /// must equal, bit for bit.
    pub fn fresh_completion(
        &self,
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
            let t = self.integrated_to + SimDuration::from_secs(j.remaining.secs_at(speed));
            earliest = earliest.min(t);
        }
        earliest
    }

    /// The speeds were recomputed: forget the kept completion.
    pub fn speeds_moved(&mut self) {
        self.next_done = None;
    }

    /// Integrate every running job from `integrated_to` to `to` at
    /// `speed_of`, returning the completions as
    /// [`JobManager::advance_running`] does. Runs for a zero-length
    /// interval too: sub-nanosecond remainders complete through the
    /// tolerance in `Job::advance`.
    pub fn integrate(
        &mut self,
        jobs: &mut JobManager,
        to: SimTime,
        speed_of: impl FnMut(JobId) -> CpuMhz,
    ) -> Vec<(JobId, SimTime)> {
        let done = jobs.advance_running(self.integrated_to, to - self.integrated_to, speed_of);
        self.integrated_to = to;
        self.next_done = None;
        done
    }
}
