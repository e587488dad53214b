//! # slaq-flow — network-flow kernel
//!
//! The placement controller's allocation subproblem — *given* a placement
//! of instances on nodes, how much CPU can each application actually
//! receive? — is exactly a bipartite transportation problem: applications
//! supply their demand, nodes offer their capacity, and an edge exists
//! wherever an instance is placed. The authors solve it with an LP inside
//! the APC; this crate implements the one flow algorithm the allocator
//! needs to solve this class exactly:
//!
//! * [`FlowNetwork::max_flow_with`] — Dinic's algorithm, run in two
//!   phases by `slaq-placement`'s allocator (applications first with the
//!   job gates shut, then everything), which lands the shortfall on the
//!   jobs exactly as a 0/1-cost min-cost flow would, with no cost
//!   arithmetic.
//!
//! Capacities are `i64`; callers scale fluid MHz quantities to integer
//! units (1 MHz resolution loses nothing at cluster scale).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod network;

pub use network::{EdgeId, FlowNetwork, MaxFlowScratch};
