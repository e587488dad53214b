//! Runnable scenarios.
//!
//! A [`Scenario`] is the *materialized* form of a declarative
//! [`crate::spec::ScenarioSpec`]: the spec's cluster, simulator config,
//! application runtimes, a fully generated job stream (each job
//! carrying its class's service-differentiation importance), the
//! faults, and the controller configuration. [`Scenario::build`] validates
//! and assembles the simulator — it is fallible, returning
//! [`SlaqError`] rather than panicking on an inconsistent app spec.
//!
//! The HPDC'08 experiment is the `"paper"` preset (and `"paper-small"`,
//! its scaled variant): sweeps edit the spec, and everything downstream
//! goes through [`crate::spec::ScenarioSpec::materialize`].

use crate::baselines::{StaticPartitionController, TransactionalFirstController};
use crate::controller::{ControllerConfig, UtilityController};
use crate::pipeline::PipelinedController;
use crate::spec::{ControllerKind, ObserveSpec, PipelineSpec};
use slaq_jobs::JobSpec;
use slaq_perfmodel::TransactionalSpec;
use slaq_sim::{Controller, Faults, SimConfig, SimReport, Simulator, TransactionalRuntime};
use slaq_types::{AppId, ClusterTopology, Result, SimTime, SlaqError};
use slaq_workloads::IntensityTrace;

/// One transactional application in a scenario.
pub struct ScenarioApp {
    /// Static spec.
    pub spec: TransactionalSpec,
    /// Ground-truth intensity trace.
    pub trace: IntensityTrace,
    /// EWMA smoothing for the demand estimator.
    pub estimator_alpha: f64,
    /// Optional service-level objective; apps without one are tracked
    /// against [`slaq_obs::SloSpec::default`] when observability is on.
    pub slo: Option<slaq_obs::SloSpec>,
}

/// A complete simulation scenario: cluster + timing + workloads +
/// controller configuration.
pub struct Scenario {
    /// Label used in reports.
    pub name: String,
    /// The cluster.
    pub cluster: ClusterTopology,
    /// Simulator timing and overheads.
    pub sim: SimConfig,
    /// Transactional applications.
    pub apps: Vec<ScenarioApp>,
    /// Job arrival stream.
    pub jobs: Vec<(SimTime, JobSpec)>,
    /// Outage and dip windows (the spec's outages, then the lowered
    /// chaos plan's), overbooking and elasticity, seeded with the spec's
    /// master seed.
    pub faults: Faults,
    /// Controller configuration (placement knobs, sharding plan).
    pub controller: ControllerConfig,
    /// Which controller runs this scenario (`utility` | `fcfs` |
    /// `static`), named in the spec.
    pub kind: ControllerKind,
    /// Control-plane scheduling: synchronous solves, or the pipelined
    /// plane enacting each plan `latency_cycles` after it was solved.
    pub pipeline: PipelineSpec,
    /// Request-level routing tier to install on the simulator, lowered
    /// from [`crate::RoutingSpec`] (`None` = no tier, bit-identical to
    /// pre-routing runs).
    pub routing: Option<slaq_routing::RouterConfig>,
    /// Observability plane: `On` installs an enabled
    /// [`slaq_obs::Recorder`] on the simulator at build time (spans,
    /// counters, histograms for post-run export); metric series stay
    /// bit-identical either way.
    pub observe: ObserveSpec,
}

impl Scenario {
    /// Materialize a simulator for this scenario. Fails with
    /// [`SlaqError::InvalidSpec`] if an application spec is inconsistent
    /// (spec-built scenarios are pre-validated; hand-built ones are
    /// checked here).
    pub fn build(&self) -> Result<Simulator> {
        let mut sim = Simulator::new(&self.cluster, self.sim, self.faults.clone());
        for (i, app) in self.apps.iter().enumerate() {
            let trace = app.trace.clone();
            let runtime = TransactionalRuntime::new(
                AppId::new(i as u32),
                app.spec.clone(),
                Box::new(move |t| trace.lambda(t)),
                app.estimator_alpha,
            )
            .ok_or_else(|| {
                SlaqError::InvalidSpec(format!(
                    "app {} ({}): invalid transactional spec or estimator alpha",
                    i, app.spec.name
                ))
            })?;
            sim.add_app(runtime);
        }
        sim.add_arrivals(self.jobs.clone());
        if let Some(cfg) = self.routing {
            sim.set_routing(slaq_routing::RoutingTier::new(cfg));
        }
        if self.observe.is_on() {
            sim.set_recorder(slaq_obs::Recorder::enabled());
            // Register every app on the SLO board (explicit spec or the
            // default objective) so compliance is tracked corpus-wide.
            for (i, app) in self.apps.iter().enumerate() {
                sim.register_slo(
                    AppId::new(i as u32),
                    &app.spec.name,
                    app.slo.unwrap_or_default(),
                );
            }
        }
        sim.set_change_budget(self.controller.placement.max_changes);
        Ok(sim)
    }

    /// The scenario's own controller: the spec-named kind (`utility` |
    /// `fcfs` | `static`), carrying the spec's placement knobs and — for
    /// the utility controller — its sharding plan.
    /// Under a `controller.pipeline = overlap` spec the kind-controller
    /// comes back wrapped in the pipelined control plane
    /// ([`PipelinedController`]), so its plans land `latency_cycles`
    /// after they were solved.
    pub fn controller(&self) -> Box<dyn Controller> {
        let inner: Box<dyn Controller> = match self.kind {
            ControllerKind::Utility => Box::new(UtilityController::new(self.controller.clone())),
            ControllerKind::Fcfs => Box::new(TransactionalFirstController {
                placement: self.controller.placement,
            }),
            ControllerKind::Static { trans_fraction } => Box::new(StaticPartitionController {
                trans_fraction,
                placement: self.controller.placement,
            }),
        };
        match self.pipeline {
            PipelineSpec::Sync => inner,
            PipelineSpec::Overlap { latency_cycles, .. } => Box::new(PipelinedController::new(
                inner,
                latency_cycles,
                self.controller.placement.max_changes,
            )),
        }
    }

    /// The scenario's configuration lowered onto the paper's utility
    /// controller, regardless of [`Scenario::kind`] — for callers that
    /// need the concrete type (warm-solver benchmarks, engine probes).
    pub fn utility_controller(&self) -> UtilityController {
        UtilityController::new(self.controller.clone())
    }

    /// Build and run under `controller`.
    pub fn run(&self, controller: &mut dyn Controller) -> Result<SimReport> {
        self.build()?.run(controller)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use slaq_placement::problem::NodeCapacity;
    use slaq_types::{CpuMhz, MemMb, Work};
    use slaq_workloads::{ArrivalProcess, JobTemplate, PoissonArrivals, RateSchedule};

    #[test]
    fn paper_params_match_the_paper() {
        let p = ScenarioSpec::preset("paper").unwrap();
        let pool = &p.cluster.pools[..];
        assert_eq!(pool.len(), 1);
        assert_eq!((pool[0].count, pool[0].cpus_per_node), (25, 4));
        let stream = &p.job_streams[0];
        assert_eq!(stream.max_jobs, 800);
        let ArrivalProcess::Poisson { schedule } = &stream.arrivals else {
            panic!("the paper's stream is Poisson: {:?}", stream.arrivals);
        };
        assert_eq!(schedule.mean_at(SimTime::ZERO), 260.0);
        assert_eq!(p.timing.control_period_secs, 600.0);
        let nodes = NodeCapacity::from_cluster(&p.cluster);
        let total: CpuMhz = nodes.iter().map(|n| n.cpu).sum();
        assert_eq!(total, CpuMhz::new(300_000.0));
        // Three jobs per node by memory.
        let job_mem = stream.mix.classes[0].template.mem;
        assert_eq!(pool[0].node_mem_mb / job_mem.as_u64(), 3);
    }

    #[test]
    fn scenario_assembles_consistently() {
        let p = ScenarioSpec::preset("paper").unwrap();
        let s = p.materialize().unwrap();
        assert_eq!(s.cluster.node_count(), 25);
        assert_eq!(s.apps.len(), 1);
        assert!(!s.jobs.is_empty());
        // Arrival stream fits the horizon and arrives sorted.
        assert!(s
            .jobs
            .iter()
            .all(|(t, _)| t.as_secs() <= p.timing.horizon_secs));
        assert!(s.jobs.windows(2).all(|w| w[0].0 <= w[1].0));
        // Identical jobs.
        let w0 = s.jobs[0].1.total_work;
        assert!(s.jobs.iter().all(|(_, j)| j.total_work == w0));
    }

    #[test]
    fn spec_pipeline_reproduces_the_legacy_stream_bit_identically() {
        // The PR-1 generator and the spec pipeline must agree on every
        // submission instant and every job name, or the Figure 1/2
        // regression corpus silently shifts. The generator's inputs are
        // `paper-small`'s parameters, written out.
        let template = JobTemplate {
            name_prefix: "batch".into(),
            work: Work::from_power_secs(CpuMhz::new(3000.0), 4000.0),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal_factor: 1.25,
            exhausted_factor: 3.0,
        };
        let schedule = RateSchedule::new(vec![
            (SimTime::ZERO, 240.0),
            (SimTime::from_secs(11_000.0), 800.0),
        ])
        .unwrap();
        // The single-template generator the spec pipeline replaced,
        // inline as the oracle.
        let legacy: Vec<(SimTime, JobSpec)> = PoissonArrivals::new(schedule, 200, 8)
            .take_while(|&t| t <= SimTime::from_secs(22_000.0))
            .enumerate()
            .filter_map(|(i, t)| template.spec_at(t, i).map(|s| (t, s)))
            .collect();
        let via_spec = ScenarioSpec::preset("paper-small")
            .unwrap()
            .materialize()
            .unwrap()
            .jobs;
        assert_eq!(legacy.len(), via_spec.len());
        for (a, b) in legacy.iter().zip(&via_spec) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.name, b.1.name);
            assert_eq!(a.1.goal, b.1.goal);
        }
    }

    #[test]
    fn hand_built_scenario_with_bad_app_fails_to_build() {
        let mut s = ScenarioSpec::preset("paper-small")
            .unwrap()
            .materialize()
            .unwrap();
        s.apps[0].spec.u_cap = 2.0; // invalid: must be < 1
        let err = match s.build() {
            Err(e) => e,
            Ok(_) => panic!("invalid app spec must not build"),
        };
        assert!(
            matches!(err, SlaqError::InvalidSpec(_)),
            "expected InvalidSpec, got {err}"
        );
        // And `run` propagates instead of panicking.
        assert!(s.run(s.controller().as_mut()).is_err());
    }

    #[test]
    fn small_scenario_runs_end_to_end_with_the_paper_controller() {
        let spec = ScenarioSpec::preset("paper-small").unwrap();
        assert_eq!(spec.controller.kind, ControllerKind::Utility);
        let report = spec.run().unwrap();
        assert!(report.cycles >= 25, "cycles {}", report.cycles);
        assert!(report.job_stats.completed > 0);
        // The headline series all exist.
        for name in [
            "trans_utility",
            "jobs_hypo_utility",
            "trans_alloc",
            "jobs_alloc",
        ] {
            assert!(!report.metrics.series(name).is_empty(), "{name} missing");
        }
    }
}
