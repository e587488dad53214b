//! # slaq — SLA-driven placement of heterogeneous workloads
//!
//! Façade crate re-exporting the full public API of the workspace.
//!
//! Reproduction of Carrera, Steinder, Whalley, Torres, Ayguadé:
//! *"Managing SLAs of Heterogeneous Workloads using Dynamic Application
//! Placement"*, HPDC 2008. See `README.md` for a tour, `ARCHITECTURE.md`
//! for the system map and `examples/` for runnable entry points:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --release --example mixed_datacenter
//! cargo run --example job_scheduler
//! cargo run --release --example capacity_planning
//! cargo run --release --example run_scenario -- --preset paper-small
//! ```
//!
//! Layer map (bottom-up):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `slaq-types` | units, time, ids, the cluster (`ClusterTopology`) |
//! | [`obs`] | `slaq-obs` | spans, counters, histograms, trace export |
//! | [`utility`] | `slaq-utility` | SLA goals, utility-of-CPU entities, equalizers |
//! | [`perfmodel`] | `slaq-perfmodel` | M/G/1-PS model, demand estimation |
//! | [`flow`] | `slaq-flow` | max-flow kernel |
//! | [`placement`] | `slaq-placement` | the placement controller (APC) |
//! | [`jobs`] | `slaq-jobs` | job lifecycle + hypothetical utility |
//! | [`workloads`] | `slaq-workloads` | arrival streams, intensity traces, job mixes |
//! | [`sim`] | `slaq-sim` | the data-center simulator |
//! | [`routing`] | `slaq-routing` | request router + per-instance warmth table |
//! | [`core`] | `slaq-core` | the paper's controller, baselines, scenarios |

#![warn(clippy::all)]

pub use slaq_core as core;
pub use slaq_flow as flow;
pub use slaq_jobs as jobs;
pub use slaq_obs as obs;
pub use slaq_perfmodel as perfmodel;
pub use slaq_placement as placement;
pub use slaq_routing as routing;
pub use slaq_sim as sim;
pub use slaq_types as types;
pub use slaq_utility as utility;
pub use slaq_workloads as workloads;

/// Commonly used items, importable with `use slaq::prelude::*`.
pub mod prelude {
    pub use slaq_core::{
        AppSpec, ClusterTopology, ControllerKind, ControllerSpec, JobStreamSpec, NodePoolSpec,
        OutageSpec, Scenario, ScenarioApp, ScenarioSpec, ShardingSpec, StaticPartitionController,
        TimingSpec, TransactionalFirstController, UtilityController,
    };
    pub use slaq_jobs::{Job, JobManager, JobSpec, JobState, JobUtility};
    pub use slaq_perfmodel::{PsQueue, TransactionalModel, TransactionalSpec};
    pub use slaq_placement::{
        AppRequest, JobRequest, NodeCapacity, Placement, PlacementConfig, PlacementProblem,
        ShardedSolver, Solver,
    };
    pub use slaq_routing::{RouteOutcome, Router, RouterConfig, RoutingTier};
    pub use slaq_sim::{
        Controller, Faults, MetricsSink, OverheadConfig, SimConfig, Simulator, TransactionalRuntime,
    };
    pub use slaq_types::{
        AppId, CpuMhz, EntityId, JobId, MemMb, NodeId, SimDuration, SimTime, Work,
    };
    pub use slaq_utility::{
        equalize_bisection, equalize_steal, CompletionGoal, EqEntity, EqualizeOptions,
        ResponseTimeGoal, UtilityOfCpu,
    };
    pub use slaq_workloads::{
        ArrivalProcess, IntensityTrace, JobMix, JobTemplate, RateSchedule, TemplateClass,
    };
}
