//! # slaq-utility — utility functions and utility-equalization solvers
//!
//! The paper's central mechanism: *"We use monotonic and continuous utility
//! functions to represent the satisfaction of both transactional and
//! long-running workloads"*, and the allocation algorithm *"operates by
//! continuously stealing resources \[from\] the more satisfied applications to
//! later be given to the less satisfied applications"* until utility is
//! equalized.
//!
//! This crate is the paper's §2 and nothing else:
//!
//! * SLA goal vocabulary (`goal` module): [`CompletionGoal`] for
//!   long-running jobs (utility of completion time — three breakpoints
//!   joined by straight lines) and [`ResponseTimeGoal`] for transactional
//!   applications (utility of response time — one clipped line). Both
//!   evaluate and invert in closed form, on the stack.
//! * The [`UtilityOfCpu`] abstraction (`entity` module): a monotone
//!   non-decreasing mapping from allocated CPU power to utility, with an
//!   inverse demand query ("how much CPU to reach utility *u*?"). Every
//!   transactional application and every long-running job is presented to
//!   the equalizer as one such entity; the implementations live with the
//!   domain knowledge (`slaq-perfmodel`, `slaq-jobs`).
//! * The equalization solvers (`equalize` module):
//!   [`equalize_bisection`] (exact max–min via bisection on the common
//!   utility level), [`equalize_weighted`] (importance-scaled shortfall)
//!   and [`equalize_steal`] (the paper's iterative
//!   steal-from-the-most-satisfied loop). Tests assert they agree.
//!
//! A general piecewise-linear curve library (`curve` module) and two
//! curve-backed entities are compiled into test builds only: they are the
//! oracle the goals' closed forms are held to and the fixtures the
//! equalizer's tests run on, not part of the API.

#![deny(missing_docs)]
#![warn(clippy::all)]

#[cfg(test)]
mod curve;
pub mod entity;
pub mod equalize;
pub mod goal;

pub use entity::UtilityOfCpu;
pub use equalize::{
    equalize_bisection, equalize_steal, equalize_weighted, EntityAllocation, EqEntity,
    EqualizeOptions, EqualizedAllocation,
};
pub use goal::{CompletionGoal, ResponseTimeGoal};

/// Utilities live in `[U_MIN, U_MAX]` across the workspace.
pub const U_MIN: f64 = -1.0;
/// See [`U_MIN`].
pub const U_MAX: f64 = 1.0;
