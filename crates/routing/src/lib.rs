//! # slaq-routing — the request-level routing tier
//!
//! The subsystem between workload generation and the placement layer:
//! where the placement controller decides *where instances sit*, this
//! crate decides *where requests land* — and feeds what it learns back
//! into the control cycle.
//!
//! Each control cycle, per application:
//!
//! 1. **Sync** — the tier's warmth table (per instance, an EWMA of the
//!    routed share, a proxy for cache/data locality) is merged with the
//!    live instance set: vanished instances lose their warmth, new ones
//!    start cold.
//! 2. **[`Router`]** — apportions the cycle's request *count* (never
//!    individual requests) across the live instances in fixed-size
//!    chunks, scoring each instance `warm_gain · warmth − load_penalty ·
//!    overload`. At `temperature = 0` the choice is a pure argmax with an
//!    id tie-break; at `temperature > 0` it is a seeded softmax draw —
//!    deterministic per seed either way.
//! 3. **Update** — each instance's warmth moves toward the share it was
//!    just routed (in the fluid simulation the routed share *is* the
//!    share served).
//! 4. **Feedback** — the share-weighted warmth of the routed cycle
//!    yields an effective-work multiplier ([`RouteOutcome::discount`])
//!    that the simulator feeds into the demand/SLA signal the utility
//!    controller optimizes, and the warmth table surfaces as per-node
//!    affinity bonuses ([`RoutingTier::affinity`]) in the placement
//!    solver's candidate ordering.
//!
//! [`RoutingTier`] bundles the router and the warmth table into the
//! single object the simulator owns.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod router;
pub mod tier;

pub use router::{RouteOutcome, Router, RouterConfig};
pub use tier::RoutingTier;
