//! # slaq-experiments — regenerating the paper's evaluation
//!
//! One module per concern:
//!
//! * [`figures`] — run the paper's experiment (E1/E2) and extract the
//!   Figure 1 and Figure 2 series as CSV;
//! * [`shape`] — quantitative "shape" metrics of a run (crossover time,
//!   equalization band, recovery) used both by the integration tests and
//!   by EXPERIMENTS.md;
//! * [`ascii`] — terminal line plots so `cargo run -p slaq-experiments
//!   --bin fig1` shows the curves without any plotting stack;
//! * [`comparison`] — E3: the utility controller vs the two baselines;
//! * [`sweeps`] — E4: placement-solver scalability grids
//!   (rayon-parallel), seed robustness, brief runs over the whole
//!   scenario corpus ([`sweeps::corpus_sweep`]), and the control-plane
//!   staleness sweep ([`sweeps::staleness_sweep`]: corpus × pipeline
//!   modes, quantifying what overlapped solves acting on stale
//!   snapshots cost).
//!
//! Binaries: `fig1`, `fig2`, `baselines`, `differentiation`, `sweep`,
//! and `bench_gate` — the CI gate over solver shapes (warm, sharded
//! and instrumented solves, one routing cycle) and one same-run
//! invariant; end-to-end cycle numbers live in `fleetbench/`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ascii;
pub mod comparison;
pub mod figures;
pub mod shape;
pub mod sweeps;

pub use comparison::{compare_controllers, ComparisonRow};
pub use figures::{fig1_csv, fig2_csv, run_paper_experiment};
pub use shape::{shape_metrics, ShapeMetrics};
pub use sweeps::{
    corpus_sweep, routing_sweep, staleness_sweep, CorpusOutcome, RoutingCell, StalenessCell,
};
