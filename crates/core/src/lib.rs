//! # slaq-core — the heterogeneous workload manager
//!
//! The paper's contribution, assembled from the substrate crates: a
//! controller that manages *transactional applications* (response-time
//! SLAs) and *long-running jobs* (completion-time SLAs) on the same
//! virtualized cluster by trading CPU between them through utility
//! functions.
//!
//! Each control cycle, [`UtilityController`]:
//!
//! 1. builds a monotone utility-of-CPU curve for every entity — each
//!    application from the queueing model (`slaq-perfmodel`), each active
//!    job from its projected completion time (`slaq-jobs`);
//! 2. **equalizes utility** across all entities over the cluster's total
//!    CPU power (`slaq-utility`) — stealing from the more satisfied to
//!    give to the less satisfied, exactly the paper's §2;
//! 3. realizes the resulting CPU targets as a concrete placement under
//!    memory/CPU constraints with bounded churn (`slaq-placement`),
//!    enacted via instance start/stop and job start/suspend/resume/migrate.
//!
//! The `baselines` module provides the two comparison controllers used by
//! experiment E3 (ARCHITECTURE.md, *Crate map*): a transactional-first
//! FCFS scheduler without utility awareness, and a static cluster
//! partitioning in the spirit of the paper's reference \[6\].
//!
//! The `pipeline` module is the **pipelined control plane**: a
//! [`PipelinedController`] adapter that solves every cycle inline and
//! enacts the plan solved at cycle *k* — reconciled against the live
//! world — at cycle *k + latency* (spec knob `controller.pipeline`).
//!
//! Scenarios are **data**: the `spec` module defines the declarative,
//! serde-round-trippable [`ScenarioSpec`] (cluster pools, timing,
//! outages, apps with composable intensity traces, job streams with
//! composable arrival processes and template mixes, controller tuning)
//! plus a ≥6-preset corpus, the paper's experiment among them as the
//! `"paper"` and `"paper-small"` presets; the `scenario` module holds the
//! materialized [`Scenario`] form.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod controller;
pub mod pipeline;
pub mod scenario;
pub mod spec;

pub use baselines::{StaticPartitionController, TransactionalFirstController};
pub use controller::{ControllerConfig, UtilityController};
pub use pipeline::{reconcile, PipelinedController, ReconcileOutcome};
pub use scenario::{Scenario, ScenarioApp};
pub use spec::{
    AppSpec, ClusterTopology, ControllerKind, ControllerSpec, JobStreamSpec, NodePoolSpec,
    ObserveSpec, OutageSpec, PipelineSpec, RoutingSpec, ScenarioSpec, ShardingSpec, TimingSpec,
};
