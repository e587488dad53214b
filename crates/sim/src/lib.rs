//! # slaq-sim — the virtualized data-center simulator
//!
//! The substitution for the authors' physical testbed (ARCHITECTURE.md,
//! *Simulator event loop*): a fluid discrete-event simulator of a
//! cluster of nodes running two workload classes under
//! controller-issued placements.
//!
//! What it preserves of the real system (the behaviours the paper's
//! algorithms actually exercise):
//!
//! * **Contended CPU** — each node's power is divided among the VMs the
//!   controller placed there; guarantees are enforced and spare capacity
//!   is redistributed work-conservingly (jobs first, capped at their
//!   maximum speed, then transactional instances) — `cluster` module;
//! * **Memory capacity** — placements that overcommit memory are rejected
//!   (the paper's 3-jobs-per-node constraint);
//! * **Placement-change costs** — job start/resume/migration each blocks
//!   the affected job for a configurable latency;
//! * **Workload dynamics** — Poisson job arrivals, measured transactional
//!   response times from the same processor-sharing law the performance
//!   model predicts with, online demand estimation with observation
//!   noise living in the estimator path.
//!
//! The control interface is the [`Controller`] trait: every control cycle
//! the simulator hands the controller its observations and applies the
//! returned [`Placement`](slaq_placement::Placement) — `slaq-core` provides the paper's controller,
//! and the baselines live alongside it. Each control cycle is staged as
//! **sense → solve → actuate**; the `snapshot` module's
//! [`SensingSnapshot`] is the owned, `Send` capture of the sensed inputs
//! that the benchmark replays solves from and tests use as a frozen
//! world (no control path takes one).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod apps;
// The unit tests of the fault stage's capacity cache.
mod capacity;
pub mod chaos;
pub mod cluster;
mod faults;
pub mod metrics;
pub mod progress;
pub mod simulator;
pub mod snapshot;

pub use apps::{AppObservation, TransactionalRuntime};
pub use chaos::{
    CapacityDip, ChaosSpec, DegradationSpec, ElasticitySpec, FlapSpec, FlashCrowdSpec, FloodSpec,
    InvariantChecker, OvercommitSpec, ZoneStormSpec,
};
pub use cluster::{effective_speeds, NodeSpeeds, Projection};
pub use faults::{Faults, NodeOutage};
pub use metrics::{MetricKey, MetricsSink};
pub use progress::Progress;
pub use simulator::{ControlInputs, Controller, OverheadConfig, SimConfig, SimReport, Simulator};
pub use snapshot::{DeltaTracker, SensingSnapshot};
