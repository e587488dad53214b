//! # slaq-placement — the Application Placement Controller
//!
//! The optimizer at the heart of the paper's system (the "APC" of the
//! authors' middleware, algorithmically the NOMS'08 placement heuristic
//! extended with long-running jobs). Every control cycle it receives:
//!
//! * per-entity **CPU targets** from the utility equalizer — how much CPU
//!   each transactional application and each job *should* get;
//! * node capacities (CPU MHz, memory MB) and the **previous placement**.
//!
//! and produces a placement that realizes those targets as closely as the
//! discrete constraints allow:
//!
//! * transactional applications are **fluid but clustered** — they may
//!   have at most one instance per node, each instance carries a memory
//!   footprint, and the cluster-wide allocation is the sum of per-node
//!   slices;
//! * jobs are **indivisible** — exactly one node, a memory footprint
//!   (three jobs per node in the paper's testbed), and an allocation
//!   capped by the job's maximum speed;
//! * **churn is bounded** — placements are sticky, and the number of
//!   disruptive actions per cycle (job starts/resumes/migrations/
//!   suspensions, instance starts/stops) can be capped.
//!
//! The allocation subproblem for a *fixed* placement is solved exactly as
//! a max-flow (`allocation` module, on top of `slaq-flow`); the discrete
//! placement search is the greedy-with-improvement heuristic in `solver`.
//!
//! ## Candidate-node heap (`heap` module)
//!
//! The heuristic's improvement steps pick nodes through a
//! [`CandidateHeap`]: an indexed tournament heap keyed by residual CPU
//! (with free-memory and shard-membership summaries for pruning),
//! updated incrementally as placements land — `O(log N)` per candidate
//! query instead of the seed algorithm's full-node `max_by` scan, and
//! **bit-identical** to it (the heap reproduces the scan comparators
//! exactly; differential tests against the seed `reference` oracle pin
//! this). There is no other engine: `reference` is the test oracle
//! (compiled under `#[cfg(test)]` only, not part of the API), the heap is
//! production. A job is still
//! placed "on the node offering it the most residual CPU among those
//! with memory room" — the heap only changes how that node is found,
//! turning the placement loop from `O(J·N)` into `O(J log N)`.
//!
//! ## Sharded solves (`shard` module)
//!
//! For large fleets the crate also offers a **zone-partitioned engine**:
//! [`ShardedSolver`] implements the same `solve(problem, prev)` interface
//! as [`Solver`] but partitions the nodes into shards (per zone label or
//! a fixed count, via [`ShardMap`]/[`ShardPlan`]), solves the shards with
//! independent warm `Solver`s — in parallel under real `rayon` — and then
//! runs a budgeted **cross-shard rebalance pass** that migrates the most
//! unsatisfied jobs from over-subscribed shards onto foreign-shard nodes
//! with residual capacity.
//!
//! Fidelity guarantees, in decreasing strength:
//!
//! * **1 shard ≡ global.** A single-shard plan routes through the exact
//!   global solve, bit for bit (differential tests pin this on the whole
//!   scenario corpus and on random problems).
//! * **k shards: feasible, near-global.** Every capacity/instance-count
//!   constraint of the merged placement still holds (`Placement::
//!   validate`); placement *quality* may trail the global solve because
//!   app demand is split across shards proportionally to capacity and a
//!   job confined to a crowded shard is only rescued by the budgeted
//!   rebalance pass. Corpus tests pin the utility gap. (With the
//!   candidate heap the global solve is already `O(J log N)`, so under
//!   the sequential `rayon` stand-in sharding no longer wins on scan
//!   width at the bench shapes — its payoff is the `~k×` smaller
//!   allocation flows, zone isolation, and real thread parallelism once
//!   the stand-in is swapped for the real crate.)

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod allocation;
pub mod delta;
pub mod heap;
pub mod idmap;
pub mod placement;
pub mod problem;
#[cfg(test)]
mod reference;
pub mod shard;
pub mod solver;

pub use allocation::Allocator;
pub use delta::SolveDelta;
pub use heap::CandidateHeap;
pub use idmap::IdMap;
pub use placement::{Placement, PlacementChange};
pub use problem::{AppRequest, JobRequest, NodeCapacity, PlacementConfig, PlacementProblem};
pub use shard::{ShardMap, ShardPlan, ShardedSolver};
pub use solver::{solve, PlacementOutcome, SolveMode, Solver};
