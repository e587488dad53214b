//! # slaq-experiments — regenerating the paper's evaluation
//!
//! One module per concern:
//!
//! * [`figures`] — the Figure 1 and Figure 2 series (E1/E2) of a
//!   `paper` / `paper-small` preset run, as CSV;
//! * [`shape`] — quantitative "shape" metrics of a run (crossover time,
//!   equalization band, recovery) used both by the integration tests and
//!   by EXPERIMENTS.md;
//! * [`ascii`] — terminal line plots so `cargo run -p slaq-experiments
//!   --bin fig1` shows the curves without any plotting stack;
//! * [`sweeps`] — every comparison of runs as a list of specs through one
//!   runner into one row type ([`CorpusOutcome`]): E3 (the paper preset
//!   × the three controllers, [`sweeps::corpus_controller_sweep`]), the
//!   corpus ([`sweeps::corpus_sweep`]), the control-plane staleness
//!   sweep ([`sweeps::staleness_sweep`]: corpus × pipeline modes) and the
//!   routing-policy sweep; plus E4's placement-solver scalability grid
//!   (rayon-parallel) and seed robustness of the paper's shape.
//!
//! Binaries: `fig1`, `fig2`, `baselines`, `differentiation`, `sweep`,
//! and `bench_gate` — the CI gate over solver shapes (warm, sharded
//! and instrumented solves, one routing cycle) and one same-run
//! invariant; end-to-end cycle numbers live in `fleetbench/`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ascii;
pub mod figures;
pub mod shape;
pub mod sweeps;

pub use figures::{fig1_csv, fig2_csv};
pub use shape::{shape_metrics, ShapeMetrics};
pub use sweeps::{corpus_sweep, routing_sweep, staleness_sweep, CorpusOutcome};
