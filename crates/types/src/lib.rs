//! # slaq-types — domain model for SLA-driven heterogeneous workload placement
//!
//! Foundational vocabulary shared by every crate in the `slaq` workspace:
//!
//! * **Capacity units** — [`CpuMhz`] (CPU power, fluid / fractionally
//!   divisible, as in the paper's hypothetical-utility model) and [`MemMb`]
//!   (memory, integral: an instance either fits on a node or it does not).
//! * **Time** — [`SimTime`] (absolute simulation time) and [`SimDuration`]
//!   (spans), both in seconds, mirroring the paper's second-granularity
//!   control cycle (600 s) and experiment horizon (~72 000 s).
//! * **Identifiers** — [`NodeId`], [`AppId`], [`JobId`] and the unified
//!   [`EntityId`] used by the utility equalizer, which treats every
//!   transactional application and every long-running job as an entity
//!   competing for CPU power.
//! * **The cluster** — [`ClusterTopology`], a list of [`NodePoolSpec`]s,
//!   describing the virtualized data center once, from the spec file down
//!   to the simulator (the paper evaluates 25 nodes × 4 processors with a
//!   3-jobs-per-node memory constraint).
//! * **Errors** — [`SlaqError`].
//!
//! The crate is dependency-light by design; heavier machinery (utility
//! curves, queueing models, placement) lives in downstream crates.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cluster;
pub mod error;
pub mod ids;
pub mod intern;
pub mod time;
pub mod units;

pub use cluster::{ClusterTopology, NodePoolSpec, MAX_MHZ};
pub use error::SlaqError;
pub use ids::{AppId, EntityId, JobId, NodeId, ShardId, ZoneId};
pub use intern::Interner;
pub use time::{SimDuration, SimTime};
pub use units::{fcmp, CpuMhz, MemMb, Work};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, SlaqError>;
