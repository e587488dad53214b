//! # slaq-perfmodel — transactional performance model
//!
//! The paper's transactional workloads are clustered web applications
//! managed to a *response-time* goal. The authors' prototype derives CPU
//! demand from a performance model fed by a work profiler (WebSphere XD's
//! flow controller; see references \[2\] and \[5\] of the paper). That stack is
//! proprietary, so this crate substitutes the standard open
//! **M/G/1 processor-sharing** model with the same interface:
//!
//! * inputs — observed request arrival rate λ and per-request service
//!   demand (estimated online by [`DemandEstimator`]);
//! * outputs — predicted response time for a CPU allocation
//!   ([`PsQueue::response_time`]), the allocation needed to meet a
//!   response-time target ([`PsQueue::cpu_for_response_time`]), and a
//!   monotone utility-of-CPU curve ([`TransactionalModel`]) consumed by the
//!   equalizer in `slaq-utility`.
//!
//! The processor-sharing discipline is the textbook abstraction of a
//! multi-threaded application server, and its closed forms make the
//! utility curve's inverse exact — no tabulation error in the controller.
//!
//! A clustered application is one [`PsQueue`] at its aggregate
//! allocation: proportional routing keeps every instance equally
//! utilised, so the cluster behaves as one pooled server. A routing tier
//! that lands requests on warm instances shrinks the work per request;
//! the simulator scales the offered load by that discount before the
//! queue sees it.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod estimator;
pub mod queueing;
pub mod transactional;

pub use estimator::DemandEstimator;
pub use queueing::PsQueue;
pub use transactional::{TransactionalModel, TransactionalSpec};
