//! # slaq-workloads — composable, reproducible workload generation
//!
//! The generator library behind the scenario corpus: every workload shape
//! a [`ScenarioSpec`](../slaq_core/spec) references by name+params lives
//! here as plain serde-round-trippable data, and materializes into
//! concrete streams with explicit seeds so every figure regenerates
//! bit-identically.
//!
//! Three generator families:
//!
//! * **Intensity traces** ([`IntensityTrace`]) — transactional request
//!   intensity λ(t): constant (the paper's evaluation), stepped, diurnal,
//!   spiky (periodic flash crowds), and pointwise sums of any of these.
//!   The simulator folds λ(t) into one request count per application and
//!   control cycle for the routing tier — never individual requests.
//! * **Arrival processes** ([`ArrivalProcess`]) — job submission
//!   instants: Poisson streams over a piecewise-constant
//!   [`RateSchedule`] (the paper submits 800 jobs at a mean spacing of
//!   260 s, "slightly decreased" near the end), bursty ON–OFF sources,
//!   and periodic batch drops. [`PoissonArrivals`] is the underlying
//!   iterator form.
//! * **Job mixes** ([`JobMix`] of weighted [`TemplateClass`]es) — turn
//!   arrival instants into concrete [`slaq_jobs::JobSpec`]s: short vs
//!   long jobs, small vs large memory footprints, and differentiated
//!   importance tiers, with SLAs anchored at each submission via
//!   [`JobTemplate`]; a single-template stream is
//!   [`JobMix::uniform`].
//!
//! Everything random is driven by `ChaCha12Rng` with explicit seeds;
//! determinism is pinned by property tests in each module.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arrivals;
pub mod intensity;
pub mod jobstream;
pub mod mix;

pub use arrivals::{ArrivalProcess, PoissonArrivals, RateSchedule};
pub use intensity::IntensityTrace;
pub use jobstream::JobTemplate;
pub use mix::{JobMix, TemplateClass};
