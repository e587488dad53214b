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
//!
//! The kernel is flat: half-edges in two arrays by id, the flow on an edge
//! read off its reverse half's residual (no original capacity is kept),
//! and the adjacency as one CSR index over `u32` ids. The index is built
//! in ascending edge-id order at the first solve after an `add_edge` or a
//! `clear` ([`FlowNetwork::build_index`] lets a caller build it earlier).
//! Each Dinic BFS stops at the sink's level: everything it leaves
//! unlabelled is a dead end the DFS would only have pruned, so the
//! augmenting paths are exactly those of a Dinic over per-vertex lists
//! with a full BFS. Nor does a round ever leave the sink (the BFS never
//! expands it, the DFS augments on reaching it), so an edge into the sink
//! may be lowered with [`FlowNetwork::set_cap`] between solves although
//! that zeroes its reverse half. See the [`network`] module for both
//! arguments.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod network;

pub use network::{EdgeId, FlowNetwork, MaxFlowScratch};
