//! Runnable scenarios and the paper's experiment parameters.
//!
//! A [`Scenario`] is the *materialized* form of a declarative
//! [`crate::spec::ScenarioSpec`]: concrete cluster, simulator config,
//! application runtimes, a fully generated job stream, an outage plan,
//! and the controller configuration (including service-differentiation
//! importance derived from the job mix). [`Scenario::build`] validates
//! and assembles the simulator — it is fallible, returning
//! [`SlaqError`] rather than panicking on an inconsistent app spec.
//!
//! [`PaperParams`] keeps the HPDC'08 experiment's knobs as a plain
//! struct — a 25-node cluster of four-processor machines, a constant
//! transactional workload, and up to 800 identical jobs with mean
//! spacing 260 s over a ~72 000 s horizon — and lowers them onto the
//! spec API via [`PaperParams::spec_named`]; the `"paper"` and
//! `"paper-small"` corpus presets are exactly these parameters. Sweeps
//! mutate the struct, everything downstream goes through the spec.

use crate::baselines::{StaticPartitionController, TransactionalFirstController};
use crate::controller::{ControllerConfig, UtilityController};
use crate::pipeline::PipelinedController;
use crate::spec::{
    AppSpec, ClusterTopology, ControllerKind, ControllerSpec, JobStreamSpec, ObserveSpec,
    PipelineSpec, ScenarioSpec, TimingSpec,
};
use slaq_jobs::JobSpec;
use slaq_perfmodel::TransactionalSpec;
use slaq_sim::{Controller, NodeOutage, SimConfig, SimReport, Simulator, TransactionalRuntime};
use slaq_types::{
    AppId, ClusterSpec, CpuMhz, MemMb, Result, SimDuration, SimTime, SlaqError, Work,
};
use slaq_utility::ResponseTimeGoal;
use slaq_workloads::{ArrivalProcess, IntensityTrace, JobMix, JobTemplate, RateSchedule};

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
    /// The spec's master seed, carried through for the seeded runtime
    /// models (overbooking bites, elasticity resize draws).
    pub seed: u64,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Simulator timing and overheads.
    pub sim: SimConfig,
    /// Transactional applications.
    pub apps: Vec<ScenarioApp>,
    /// Job arrival stream.
    pub jobs: Vec<(SimTime, JobSpec)>,
    /// Planned node outages.
    pub outages: Vec<NodeOutage>,
    /// Partial-capacity windows from the lowered chaos plan.
    pub dips: Vec<slaq_sim::CapacityDip>,
    /// Overbooking model to install on the simulator.
    pub overcommit: Option<slaq_sim::OvercommitSpec>,
    /// Vertical-elasticity model to install on the simulator.
    pub elasticity: Option<slaq_sim::ElasticitySpec>,
    /// Controller configuration (placement knobs, sharding plan, and
    /// importance tiers from the job mix).
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
        let mut sim = Simulator::new(&self.cluster, self.sim);
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
        for o in &self.outages {
            sim.add_outage(*o);
        }
        for d in &self.dips {
            sim.add_capacity_dip(*d);
        }
        if let Some(oc) = self.overcommit {
            sim.set_overcommit(self.seed, oc);
        }
        if let Some(el) = self.elasticity {
            sim.set_elasticity(self.seed, el);
        }
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
    /// the utility controller — its sharding plan and importance tiers.
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

/// Parameters of the paper's experiment, exposed for sweeps and the
/// scaled-down variants used in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperParams {
    /// Number of nodes (paper: 25).
    pub nodes: u32,
    /// Processors per node (paper: 4).
    pub cpus_per_node: u32,
    /// Power of one processor.
    pub core_mhz: f64,
    /// Node memory. 4096 MB with 1280 MB jobs gives the paper's
    /// three-jobs-per-node constraint.
    pub node_mem_mb: u64,
    /// Transactional arrival rate (req/s), constant through the run.
    pub lambda: f64,
    /// CPU work per request (MHz·s).
    pub service_mhz_s: f64,
    /// Response-time goal τ (seconds).
    pub rt_goal_secs: f64,
    /// Modeled maximum-utility level for demand purposes.
    pub u_cap: f64,
    /// Instance memory footprint.
    pub app_mem_mb: u64,
    /// Job runtime at full speed (seconds); work = core_mhz × this.
    pub job_work_secs: f64,
    /// Job VM memory footprint.
    pub job_mem_mb: u64,
    /// Completion goal at this multiple of the fastest runtime.
    pub goal_factor: f64,
    /// Utility floor at this multiple of the fastest runtime.
    pub exhausted_factor: f64,
    /// Maximum jobs submitted (paper: 800; the horizon truncates).
    pub total_jobs: usize,
    /// Mean inter-arrival time (paper: 260 s).
    pub mean_interarrival_secs: f64,
    /// Instant at which the submission rate drops ("at the end of the
    /// experiment the job submission rate is slightly decreased").
    pub tail_start_secs: f64,
    /// Mean inter-arrival time after the drop.
    pub tail_interarrival_secs: f64,
    /// Experiment horizon.
    pub horizon_secs: f64,
    /// Control cycle (paper: 600 s).
    pub control_period_secs: f64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for PaperParams {
    fn default() -> Self {
        PaperParams {
            nodes: 25,
            cpus_per_node: 4,
            core_mhz: 3000.0,
            node_mem_mb: 4096,
            // λ·c = 78 000 MHz of raw offered load plus 60 000 MHz of
            // response-time headroom at u_cap: a max-utility demand of
            // ~138 000 MHz (46 % of the cluster), most of it squeezable —
            // the proportion Figure 2's transactional curves exhibit.
            lambda: 26.0,
            service_mhz_s: 3000.0,
            rt_goal_secs: 0.5,
            u_cap: 0.9,
            app_mem_mb: 1024,
            job_work_secs: 16_200.0, // 4.5 h at one processor
            job_mem_mb: 1280,
            goal_factor: 1.25,
            exhausted_factor: 3.0,
            total_jobs: 800,
            mean_interarrival_secs: 260.0,
            tail_start_secs: 50_000.0,
            tail_interarrival_secs: 520.0,
            horizon_secs: 72_000.0,
            control_period_secs: 600.0,
            // Arbitrary workload-stream seed, chosen so the scaled-down
            // scenario exhibits the paper's crossover→equalize→recover
            // shape with comfortable margins under the in-tree ChaCha12
            // stream (the offline stand-in's keystream differs from the
            // upstream rand_chacha crate's).
            seed: 8,
        }
    }
}

impl PaperParams {
    /// A ~4× smaller variant (nodes, traffic, job length, horizon) that
    /// preserves the experiment's *proportions* — job work-arrival rate ≈
    /// 62 % of cluster power and transactional max-utility demand ≈ 47 %,
    /// i.e. the same ~109 % aggregate pressure as the full setup — so the
    /// crossover→equalization→recovery shape survives the scaling. Used
    /// by tests and smoke benches where the full run would be wasteful.
    pub fn small() -> Self {
        PaperParams {
            nodes: 6,
            lambda: 27.0,
            service_mhz_s: 720.0,
            job_work_secs: 4000.0,
            total_jobs: 200,
            mean_interarrival_secs: 240.0,
            tail_start_secs: 11_000.0,
            tail_interarrival_secs: 800.0,
            horizon_secs: 22_000.0,
            ..Default::default()
        }
    }

    /// Total cluster CPU power.
    pub fn total_cpu(&self) -> CpuMhz {
        CpuMhz::new(self.nodes as f64 * self.cpus_per_node as f64 * self.core_mhz)
    }

    /// The transactional application spec.
    pub fn app_spec(&self) -> TransactionalSpec {
        TransactionalSpec {
            name: "transactional".into(),
            service_per_request: Work::new(self.service_mhz_s),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(self.rt_goal_secs))
                .expect("positive goal"),
            mem_per_instance: MemMb::new(self.app_mem_mb),
            max_instances: self.nodes,
            min_instances: 1,
            u_cap: self.u_cap,
        }
    }

    /// The job template.
    pub fn job_template(&self) -> JobTemplate {
        JobTemplate {
            name_prefix: "batch".into(),
            work: Work::from_power_secs(CpuMhz::new(self.core_mhz), self.job_work_secs),
            max_speed: CpuMhz::new(self.core_mhz),
            mem: MemMb::new(self.job_mem_mb),
            goal_factor: self.goal_factor,
            exhausted_factor: self.exhausted_factor,
        }
    }

    /// Lower these parameters onto the declarative spec API. The
    /// resulting spec reproduces the PR-1 experiment bit-identically: a
    /// single-class mix over a two-segment Poisson schedule draws the
    /// exact same ChaCha12 stream as the original generator.
    pub fn spec_named(&self, name: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            seed: self.seed,
            cluster: ClusterTopology::homogeneous(
                self.nodes,
                self.cpus_per_node,
                self.core_mhz,
                self.node_mem_mb,
            ),
            timing: TimingSpec {
                control_period_secs: self.control_period_secs,
                horizon_secs: self.horizon_secs,
                // The authors' middleware enforces the computed
                // allocations; without limits, work-conserving spare
                // masks the squeeze that Figure 1 shows.
                cap_transactional: true,
                ..TimingSpec::default()
            },
            controller: ControllerSpec::default(),
            apps: vec![AppSpec {
                name: "transactional".into(),
                trace: IntensityTrace::constant(self.lambda),
                service_mhz_s: self.service_mhz_s,
                rt_goal_secs: self.rt_goal_secs,
                u_cap: self.u_cap,
                mem_mb: self.app_mem_mb,
                min_instances: 1,
                max_instances: self.nodes,
                estimator_alpha: 0.4,
                slo: None,
            }],
            job_streams: vec![JobStreamSpec {
                name: "batch".into(),
                arrivals: ArrivalProcess::Poisson {
                    schedule: RateSchedule::new(vec![
                        (SimTime::ZERO, self.mean_interarrival_secs),
                        (
                            SimTime::from_secs(self.tail_start_secs),
                            self.tail_interarrival_secs,
                        ),
                    ])
                    .expect("valid schedule"),
                },
                max_jobs: self.total_jobs,
                mix: JobMix::uniform(self.job_template()),
                seed_offset: 0,
            }],
            outages: vec![],
            chaos: None,
            overcommit: None,
            elasticity: None,
        }
    }

    /// The spec form under the canonical `"paper"` name.
    pub fn spec(&self) -> ScenarioSpec {
        self.spec_named("paper")
    }

    /// Assemble the full scenario (via the spec pipeline).
    pub fn scenario(&self) -> Scenario {
        self.spec()
            .materialize()
            .expect("paper parameters are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::UtilityController;
    use slaq_workloads::generate_job_stream;

    #[test]
    fn paper_params_match_the_paper() {
        let p = PaperParams::default();
        assert_eq!(p.nodes, 25);
        assert_eq!(p.cpus_per_node, 4);
        assert_eq!(p.total_jobs, 800);
        assert_eq!(p.mean_interarrival_secs, 260.0);
        assert_eq!(p.control_period_secs, 600.0);
        assert_eq!(p.total_cpu(), CpuMhz::new(300_000.0));
        // Three jobs per node by memory.
        assert_eq!(p.node_mem_mb / p.job_mem_mb, 3);
    }

    #[test]
    fn scenario_assembles_consistently() {
        let p = PaperParams::default();
        let s = p.scenario();
        assert_eq!(s.cluster.len(), 25);
        assert_eq!(s.apps.len(), 1);
        assert!(!s.jobs.is_empty());
        // Arrival stream fits the horizon and arrives sorted.
        assert!(s.jobs.iter().all(|(t, _)| t.as_secs() <= p.horizon_secs));
        assert!(s.jobs.windows(2).all(|w| w[0].0 <= w[1].0));
        // Identical jobs.
        let w0 = s.jobs[0].1.total_work;
        assert!(s.jobs.iter().all(|(_, j)| j.total_work == w0));
    }

    #[test]
    fn spec_pipeline_reproduces_the_legacy_stream_bit_identically() {
        // The PR-1 generator and the spec pipeline must agree on every
        // submission instant and every job name, or the Figure 1/2
        // regression corpus silently shifts.
        let p = PaperParams::small();
        let schedule = RateSchedule::new(vec![
            (SimTime::ZERO, p.mean_interarrival_secs),
            (
                SimTime::from_secs(p.tail_start_secs),
                p.tail_interarrival_secs,
            ),
        ])
        .unwrap();
        let legacy = generate_job_stream(
            &p.job_template(),
            schedule,
            p.total_jobs,
            SimTime::from_secs(p.horizon_secs),
            p.seed,
        );
        let via_spec = p.scenario().jobs;
        assert_eq!(legacy.len(), via_spec.len());
        for (a, b) in legacy.iter().zip(&via_spec) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.name, b.1.name);
            assert_eq!(a.1.goal, b.1.goal);
        }
    }

    #[test]
    fn hand_built_scenario_with_bad_app_fails_to_build() {
        let p = PaperParams::small();
        let mut s = p.scenario();
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
        assert!(s.run(&mut UtilityController::default()).is_err());
    }

    #[test]
    fn small_scenario_runs_end_to_end_with_the_paper_controller() {
        let s = PaperParams::small().scenario();
        let report = s.run(&mut UtilityController::default()).unwrap();
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
