//! # slaq-obs — the unified observability plane
//!
//! One instrumentation surface for the whole control cycle: interned-key
//! **spans** (wall-clock phase timing with nesting on one stack and
//! self-time accounting), **counters**, and fixed-log-bucket
//! **histograms**, all behind a [`Recorder`] handle that is a no-op
//! enum variant when disabled — the hot path pays a single branch and
//! never formats a string.
//!
//! ## Contract
//!
//! - Components receive a `Recorder` clone at setup (`set_recorder`)
//!   and pre-intern their [`Key`]s once; recording via a key is
//!   string-free.
//! - The recorder observes, never steers: no simulation or solver
//!   decision may read it, which is what makes enabling observability
//!   bit-identical on every metric series (pinned in
//!   `tests/observability.rs`).
//! - `Recorder::off()` (the default) makes every call return
//!   immediately; the obs-off overhead pin in `bench_gate` holds the
//!   warm solve to the uninstrumented baseline.
//!
//! ## Exports
//!
//! - [`run_report`] — per-run phase-breakdown table (count, total,
//!   self-time, p50/p95/max per span) plus counters and histograms.
//! - [`chrome_trace_json`] — Chrome trace-event JSON (`ph:"X"` complete
//!   spans), loadable in `chrome://tracing` / Perfetto.
//! - [`prometheus_text`] — Prometheus text exposition of counters and
//!   histograms.
//! - [`audit_jsonl`] — the placement decision audit log as
//!   deterministic JSON Lines.
//!
//! ## SLA observability
//!
//! On top of the raw plane sits the SLA layer: per-app [`SloSpec`]s
//! tracked cycle by cycle into compliance/burn/worst-window stats
//! ([`slo`]), a violation [`Attribution`] whose named causes sum
//! exactly to each cycle's deficit, and the bounded placement decision
//! audit ring ([`audit`]) every solver step, shard lane, and
//! reconciliation pass tags its changes into. All of it obeys the same
//! contract: observes, never steers.
//!
//! ```
//! use slaq_obs::{Recorder, run_report};
//!
//! let rec = Recorder::enabled();
//! let solve = rec.key("cycle.solve");
//! {
//!     let _span = rec.span(solve); // closed on drop
//! }
//! rec.count(rec.key("delta.hits"), 1);
//! assert!(run_report(&rec).contains("cycle.solve"));
//! ```

#![deny(missing_docs)]

pub mod audit;
pub mod hist;
pub mod recorder;
pub mod report;
pub mod slo;

pub use audit::{audit_jsonl, AuditEntry, AuditSubject};
pub use hist::Histogram;
pub use recorder::{Key, ObsSnapshot, Recorder, SloId, SpanGuard, SpanStats};
pub use report::{chrome_trace_json, prometheus_text, run_report};
pub use slo::{Attribution, SloSample, SloSpec, SloTracker};
