//! Running jobs' progress, integrated only where a speed can change.
//!
//! Between two events every running job progresses at its effective
//! speed, and that speed changes only when an event moves it: a
//! completion or an unblock frees or claims a node's CPU, a capacity
//! boundary moves the nodes, a control cycle enacts a new placement. An
//! arrival moves nothing (a pending job draws no CPU), so integrating
//! `remaining -= speed · dt` at an arrival only splits one product into
//! two. [`Progress`] keeps the instant up to which every running job's
//! `remaining` is exact and the earliest completion under the speeds in
//! force, measured from that instant; the event loop integrates only at
//! the events that can move a speed or read `remaining`, and an
//! arrival-only event reuses the kept completion.
//!
//! Integrating once per speed epoch instead of once per event sums the
//! same products in fewer, longer steps, so `remaining` and completion
//! instants move in their last bits: an exact-metric move, held to the
//! per-event body by `tests/lazy_progress.rs` within 1 ns per completion
//! and 1e-12 of each job's total work per `remaining`.

use slaq_jobs::JobManager;
use slaq_types::{CpuMhz, JobId, SimDuration, SimTime};

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
