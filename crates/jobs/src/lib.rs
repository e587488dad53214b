//! # slaq-jobs — the long-running workload manager
//!
//! Long-running jobs are the second workload class of the paper: batch
//! computations executed inside VMs, each with a *completion-time* SLA.
//! The controller's levers are placement, suspension/resumption and
//! migration; its challenge is that the control cycle (minutes) is far
//! shorter than job runtimes (hours), so job utility must be *predicted*
//! every cycle rather than observed.
//!
//! This crate provides:
//!
//! * [`JobSpec`] / [`Job`] — the job model: total work (MHz·s), maximum
//!   useful speed (one processor in the paper's testbed), memory
//!   footprint, and a [`CompletionGoal`](slaq_utility::CompletionGoal) utility function (`job` module);
//! * [`JobUtility`] — the utility-of-CPU adapter built on projected
//!   completion time, the quantity the equalizer consumes
//!   (`utility` module);
//! * [`JobManager`] — lifecycle bookkeeping (pending → running ⇄ suspended
//!   → completed), progress integration, and the **hypothetical utility**
//!   computation: assume every outstanding job is placed simultaneously
//!   and the jobs' CPU share is arbitrarily finely divisible, then
//!   equalize expected utility among them (`manager` module). It keeps
//!   the job table (every job ever submitted, for lookups and the
//!   report) and the live view ([`JobManager::active`]: the jobs not yet
//!   retired, in id order), which every per-cycle pass walks.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod job;
pub mod manager;
pub mod utility;

pub use job::{Job, JobSpec, JobState};
pub use manager::{HypotheticalOutcome, JobManager, JobStats};
pub use utility::JobUtility;
