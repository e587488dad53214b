//! Declarative scenario specifications: a run as **data**.
//!
//! [`ScenarioSpec`] fully describes a simulation — cluster topology
//! (homogeneous and heterogeneous node pools), simulator timing/overheads
//! and planned outages, transactional applications with composable
//! intensity traces, job streams with composable arrival processes and
//! template mixes, and controller tuning — and round-trips through serde
//! JSON, so scenarios live in files and corpora instead of code.
//!
//! The pipeline is:
//!
//! ```text
//! ScenarioSpec ──validate()──▶ ok? ──materialize()──▶ Scenario ──build()──▶ Simulator
//!      ▲                                                │
//!      └── serde JSON (to_json / from_json) ────────────┘ run(…) ──▶ SimReport
//! ```
//!
//! The built-in corpus is twelve spec files, `presets/<name>.json` in
//! this crate, embedded at build time and parsed like any other spec:
//! the paper's experiment and its scaled variant, heterogeneous, diurnal,
//! bursty, differentiated, zoned and routed workloads, and four
//! adversarial ones. [`ScenarioSpec::preset`] looks one up by name and
//! [`ScenarioSpec::corpus`] returns all of them for sweeps, benches and
//! the CI round-trip gate; `scenarios/README.md` gives the reasons
//! behind their numbers.

use crate::controller::ControllerConfig;
use crate::scenario::{Scenario, ScenarioApp};
use serde::{Deserialize, Serialize};
use slaq_jobs::JobSpec;
use slaq_obs::SloSpec;
use slaq_perfmodel::TransactionalSpec;
use slaq_placement::problem::PlacementConfig;
use slaq_placement::SolveMode;
use slaq_sim::{
    ChaosSpec, ElasticitySpec, Faults, NodeOutage, OvercommitSpec, OverheadConfig, SimConfig,
    SimReport,
};
pub use slaq_types::{ClusterTopology, NodePoolSpec};
use slaq_types::{CpuMhz, MemMb, NodeId, Result, SimDuration, SimTime, SlaqError, Work, MAX_MHZ};
use slaq_utility::ResponseTimeGoal;
use slaq_workloads::{ArrivalProcess, IntensityTrace, JobMix, JobTemplate};

/// Simulator timing, placement-action overheads, and enforcement mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Controller invocation period (paper: 600 s).
    pub control_period_secs: f64,
    /// Experiment horizon (paper: 72 000 s).
    pub horizon_secs: f64,
    /// Cold-start latency of a pending job's VM.
    pub start_overhead_secs: f64,
    /// Resume latency of a suspended image.
    pub resume_overhead_secs: f64,
    /// Live-migration latency.
    pub migrate_overhead_secs: f64,
    /// Enforce transactional allocations as hypervisor limits (the
    /// paper's middleware behaviour).
    pub cap_transactional: bool,
}

impl Default for TimingSpec {
    fn default() -> Self {
        TimingSpec {
            control_period_secs: 600.0,
            horizon_secs: 72_000.0,
            start_overhead_secs: 30.0,
            resume_overhead_secs: 60.0,
            migrate_overhead_secs: 90.0,
            cap_transactional: true,
        }
    }
}

impl TimingSpec {
    /// Cap the horizon to at most `cycles` control cycles — the one
    /// idiom behind every "run a preset briefly" sweep, bench and gate
    /// (specs are data, so the cap is a field write). Never extends a
    /// shorter horizon.
    pub fn cap_to_cycles(&mut self, cycles: usize) {
        self.horizon_secs = self
            .horizon_secs
            .min(self.control_period_secs * cycles as f64);
    }

    /// The concrete simulator configuration.
    pub fn materialize(&self) -> SimConfig {
        SimConfig {
            control_period: SimDuration::from_secs(self.control_period_secs),
            horizon: SimTime::from_secs(self.horizon_secs),
            overheads: OverheadConfig {
                start: SimDuration::from_secs(self.start_overhead_secs),
                resume: SimDuration::from_secs(self.resume_overhead_secs),
                migrate: SimDuration::from_secs(self.migrate_overhead_secs),
            },
            cap_transactional: self.cap_transactional,
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.control_period_secs.is_finite() && self.control_period_secs > 0.0) {
            return Err(SlaqError::spec("timing", "control period must be positive"));
        }
        if !(self.horizon_secs.is_finite() && self.horizon_secs > 0.0) {
            return Err(SlaqError::spec("timing", "horizon must be positive"));
        }
        for (name, v) in [
            ("start_overhead_secs", self.start_overhead_secs),
            ("resume_overhead_secs", self.resume_overhead_secs),
            ("migrate_overhead_secs", self.migrate_overhead_secs),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SlaqError::spec(
                    "timing",
                    format!("{name} must be non-negative"),
                ));
            }
        }
        Ok(())
    }
}

/// One transactional application: static SLA parameters plus its
/// ground-truth intensity trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Report label.
    pub name: String,
    /// Ground-truth request intensity λ(t).
    pub trace: IntensityTrace,
    /// CPU work per request (MHz·s).
    pub service_mhz_s: f64,
    /// Response-time goal τ (seconds).
    pub rt_goal_secs: f64,
    /// Modeled maximum-utility level (must lie in (0, 1)).
    pub u_cap: f64,
    /// Memory footprint per instance.
    pub mem_mb: u64,
    /// Instances kept running even when idle.
    pub min_instances: u32,
    /// Cluster-size limit.
    pub max_instances: u32,
    /// EWMA smoothing of the online demand estimator (in (0, 1]).
    pub estimator_alpha: f64,
    /// Optional service-level objective. Absent (pre-SLO spec files) or
    /// partial blocks fill defaults; apps without a block are still
    /// tracked against [`SloSpec::default`] when observability is on.
    pub slo: Option<SloSpec>,
}

impl AppSpec {
    /// The static spec the performance model consumes.
    pub fn transactional_spec(&self) -> Result<TransactionalSpec> {
        let rt_goal = ResponseTimeGoal::new(SimDuration::from_secs(self.rt_goal_secs))
            .ok_or_else(|| SlaqError::spec(&self.name, "rt_goal_secs must be positive"))?;
        if !(self.service_mhz_s.is_finite() && self.service_mhz_s <= MAX_MHZ) {
            return Err(SlaqError::spec(
                &self.name,
                "service_mhz_s must be finite and at most 1e12",
            ));
        }
        let spec = TransactionalSpec {
            name: self.name.clone(),
            service_per_request: Work::new(self.service_mhz_s),
            rt_goal,
            mem_per_instance: MemMb::new(self.mem_mb),
            max_instances: self.max_instances,
            min_instances: self.min_instances,
            u_cap: self.u_cap,
        };
        spec.validate()
            .map_err(|detail| SlaqError::spec(&self.name, detail))?;
        Ok(spec)
    }

    fn validate(&self, section: &str) -> Result<()> {
        self.transactional_spec().map_err(|e| relabel(e, section))?;
        self.trace
            .validate()
            .map_err(|detail| SlaqError::spec(section, detail))?;
        if !(self.estimator_alpha > 0.0 && self.estimator_alpha <= 1.0) {
            return Err(SlaqError::spec(
                section,
                "estimator_alpha must lie in (0, 1]",
            ));
        }
        if let Some(slo) = &self.slo {
            slo.validate()
                .map_err(|detail| SlaqError::spec(section, detail))?;
        }
        Ok(())
    }
}

/// One job stream: an arrival process feeding a template mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStreamSpec {
    /// Report label.
    pub name: String,
    /// When jobs arrive.
    pub arrivals: ArrivalProcess,
    /// Cap on jobs submitted by this stream (the horizon truncates
    /// further).
    pub max_jobs: usize,
    /// What arrives.
    pub mix: JobMix,
    /// Added to the scenario seed so streams draw independent randomness.
    pub seed_offset: u64,
}

impl JobStreamSpec {
    fn validate(&self, section: &str) -> Result<()> {
        self.arrivals
            .validate()
            .map_err(|detail| SlaqError::spec(section, detail))?;
        self.mix
            .validate()
            .map_err(|detail| SlaqError::spec(section, detail))?;
        if self.max_jobs == 0 {
            return Err(SlaqError::spec(section, "max_jobs must be at least 1"));
        }
        Ok(())
    }
}

/// A planned node outage, by node index.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageSpec {
    /// Failing node index (dense, across pools).
    pub node: u32,
    /// Failure instant.
    pub from_secs: f64,
    /// Recovery instant.
    pub to_secs: f64,
}

/// Which controller runs the scenario — the paper's utility-driven
/// manager or one of the E3 baselines, named in the spec so corpus rows
/// can compare controllers per scenario instead of hard-coding one.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ControllerKind {
    /// [`UtilityController`](crate::UtilityController): utility equalization + constrained
    /// placement (the paper's algorithm; default).
    #[default]
    Utility,
    /// [`crate::TransactionalFirstController`]: apps take their full
    /// demand, jobs queue FCFS for the scraps.
    Fcfs,
    /// [`crate::StaticPartitionController`]: a fixed node fence between
    /// the tiers.
    Static {
        /// Fraction of nodes reserved for the transactional tier,
        /// in (0, 1).
        trans_fraction: f64,
    },
}

impl ControllerKind {
    /// Short lowercase label for report rows (`utility` | `fcfs` |
    /// `static`).
    pub fn name(&self) -> &'static str {
        match self {
            ControllerKind::Utility => "utility",
            ControllerKind::Fcfs => "fcfs",
            ControllerKind::Static { .. } => "static",
        }
    }
}

/// How the placement engine partitions nodes into shards.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ShardingSpec {
    /// Derive shards from the pools' `zone` labels: one shard per
    /// distinct zone, falling back to the exact global solver when the
    /// fleet has at most one zone (default — unlabeled specs keep
    /// today's behavior bit for bit).
    #[default]
    Zones,
    /// Always solve globally, ignoring zone labels.
    Global,
}

/// How the control plane schedules placement solves — the knob behind
/// the pipelined control plane (`crate::pipeline`).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum PipelineSpec {
    /// Sense, solve and actuate inside one control cycle (the paper's
    /// synchronous controller; default).
    #[default]
    Sync,
    /// Stale plans: the plan solved at cycle *k* is enacted — reconciled
    /// against the live world — at cycle *k + latency_cycles*.
    /// `latency_cycles = 0` routes through the pipeline machinery but
    /// reproduces the synchronous path bit for bit (pinned by the corpus
    /// differential gate).
    Overlap {
        /// Enactment lag, in control cycles.
        latency_cycles: u32,
        /// Accepted and carried; selects nothing. Exactly one plan
        /// matures per cycle, so there is never a backlog to supersede.
        /// Kept only because the bench spells it; it goes once the
        /// ROADMAP's benchmark surface diet stops the bench spelling it.
        #[serde(default = "default_supersede")]
        supersede: bool,
    },
}

fn default_supersede() -> bool {
    true
}

impl PipelineSpec {
    /// An overlapped plane (the common construction in sweeps and
    /// tests).
    pub fn overlap(latency_cycles: u32) -> Self {
        PipelineSpec::Overlap {
            latency_cycles,
            supersede: true,
        }
    }

    /// Short lowercase label for report rows (`sync` | `overlapN`).
    pub fn label(&self) -> String {
        match self {
            PipelineSpec::Sync => "sync".into(),
            PipelineSpec::Overlap { latency_cycles, .. } => format!("overlap{latency_cycles}"),
        }
    }
}

/// Observability plane for one run — the knob behind `crates/obs`
/// (`"Off"` | `"On"`). `On` installs an enabled [`slaq_obs::Recorder`]
/// on the simulator at build time, so the run can export a span/counter
/// report, a Chrome trace, or a Prometheus text dump. The recorder
/// observes only — no control decision reads it — so every metric
/// series stays bit-identical to an `Off` run (pinned by the
/// observability gate).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ObserveSpec {
    /// No instrumentation: the recorder stays the no-op handle, one
    /// never-taken branch per site (default).
    #[default]
    Off,
    /// Record phase spans, counters and histograms across the control
    /// cycle for post-run export.
    On,
}

impl ObserveSpec {
    /// `true` when an enabled recorder should be installed on the
    /// simulator.
    pub fn is_on(&self) -> bool {
        matches!(self, ObserveSpec::On)
    }

    /// Short lowercase label for report rows (`off` | `on`).
    pub fn label(&self) -> &'static str {
        match self {
            ObserveSpec::Off => "off",
            ObserveSpec::On => "on",
        }
    }
}

/// Request-level routing tier configuration — the knob behind
/// `crates/routing` (`"Off"` | `"Uniform"` | `"Affinity"`).
///
/// Knobs omitted from a spec file take the router's own defaults
/// ([`slaq_routing::RouterConfig::default`]); `placement_bias` defaults
/// to `0`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RoutingSpec {
    /// No routing tier: the simulator records no router series and every
    /// metric stays bit-identical to the pre-routing output (default).
    #[default]
    Off,
    /// Route blindly round-robin across live instances — the baseline
    /// the affinity policy is measured against. Warmth is still tracked
    /// (uniform traffic spreads it thin), but never published to the
    /// placement solver.
    Uniform {
        /// Fraction of per-request work a fully-warm instance saves.
        #[serde(default = "default_warm_gain")]
        warm_gain: f64,
        /// Warmth EWMA smoothing factor in `(0, 1]`.
        #[serde(default = "default_warm_alpha")]
        warm_alpha: f64,
    },
    /// Affinity-aware routing: chunks go to the best
    /// `warm_gain·warmth − load_penalty·overload` score, and warmth is
    /// published to the solver as a candidate-ordering bonus.
    Affinity {
        /// Softmax temperature; `0` = deterministic argmax.
        #[serde(default = "default_temperature")]
        temperature: f64,
        /// Fraction of per-request work a fully-warm instance saves.
        #[serde(default = "default_warm_gain")]
        warm_gain: f64,
        /// Warmth EWMA smoothing factor in `(0, 1]`.
        #[serde(default = "default_warm_alpha")]
        warm_alpha: f64,
        /// Weight of the overload term in the chunk score.
        #[serde(default = "default_load_penalty")]
        load_penalty: f64,
        /// MHz-per-warmth-point bonus the solver adds to a warm node's
        /// residual CPU when ordering candidates (`0` keeps placement
        /// affinity-free while still routing by warmth).
        #[serde(default)]
        placement_bias: f64,
    },
}

fn default_temperature() -> f64 {
    slaq_routing::RouterConfig::default().temperature
}

fn default_warm_gain() -> f64 {
    slaq_routing::RouterConfig::default().warm_gain
}

fn default_warm_alpha() -> f64 {
    slaq_routing::RouterConfig::default().warm_alpha
}

fn default_load_penalty() -> f64 {
    slaq_routing::RouterConfig::default().load_penalty
}

impl RoutingSpec {
    /// Short lowercase label for report rows (`off` | `uniform` |
    /// `affinity`).
    pub fn label(&self) -> &'static str {
        match self {
            RoutingSpec::Off => "off",
            RoutingSpec::Uniform { .. } => "uniform",
            RoutingSpec::Affinity { .. } => "affinity",
        }
    }

    /// Lower onto a concrete [`slaq_routing::RouterConfig`], `None` when
    /// routing is off. The router's softmax stream is seeded from the
    /// scenario seed so seeded runs reproduce bit for bit.
    pub fn router_config(&self, scenario_seed: u64) -> Option<slaq_routing::RouterConfig> {
        let base = slaq_routing::RouterConfig {
            seed: scenario_seed ^ 0x526f_7574_6572_5f31, // "Router_1"
            ..slaq_routing::RouterConfig::default()
        };
        match *self {
            RoutingSpec::Off => None,
            RoutingSpec::Uniform {
                warm_gain,
                warm_alpha,
            } => Some(slaq_routing::RouterConfig {
                warm_gain,
                warm_alpha,
                uniform: true,
                ..base
            }),
            RoutingSpec::Affinity {
                temperature,
                warm_gain,
                warm_alpha,
                load_penalty,
                ..
            } => Some(slaq_routing::RouterConfig {
                temperature,
                warm_gain,
                warm_alpha,
                load_penalty,
                uniform: false,
                ..base
            }),
        }
    }

    /// The MHz-per-warmth-point placement bonus (`0` unless affinity
    /// routing asks for one).
    pub fn placement_bias(&self) -> f64 {
        match *self {
            RoutingSpec::Affinity { placement_bias, .. } => placement_bias,
            _ => 0.0,
        }
    }

    fn validate(&self) -> Result<()> {
        let check = |name: &str, ok: bool| -> Result<()> {
            if ok {
                Ok(())
            } else {
                Err(SlaqError::spec("controller", format!("routing: {name}")))
            }
        };
        let warmth = |warm_gain: f64, warm_alpha: f64| -> Result<()> {
            check(
                "warm_gain must lie in [0, 1)",
                warm_gain.is_finite() && (0.0..1.0).contains(&warm_gain),
            )?;
            check(
                "warm_alpha must lie in (0, 1]",
                warm_alpha > 0.0 && warm_alpha <= 1.0,
            )
        };
        match *self {
            RoutingSpec::Off => Ok(()),
            RoutingSpec::Uniform {
                warm_gain,
                warm_alpha,
            } => warmth(warm_gain, warm_alpha),
            RoutingSpec::Affinity {
                temperature,
                warm_gain,
                warm_alpha,
                load_penalty,
                placement_bias,
            } => {
                check(
                    "temperature must be non-negative",
                    temperature.is_finite() && temperature >= 0.0,
                )?;
                warmth(warm_gain, warm_alpha)?;
                check(
                    "load_penalty must be non-negative",
                    load_penalty.is_finite() && load_penalty >= 0.0,
                )?;
                check(
                    "placement_bias must be non-negative",
                    placement_bias.is_finite() && placement_bias >= 0.0,
                )
            }
        }
    }
}

/// Controller tuning carried by the spec (the knobs experiments sweep).
///
/// Every knob is spec data, so controller variants — which algorithm,
/// how the placement engine shards, how the control plane pipelines —
/// are one field write away, and invalid settings are caught by
/// [`ScenarioSpec::validate`] with the offending section named:
///
/// ```
/// use slaq_core::{ControllerKind, PipelineSpec, ScenarioSpec, ShardingSpec};
///
/// let mut spec = ScenarioSpec::preset("consolidation").expect("built-in preset");
/// // One shard per zone label, a cross-shard migration budget, and a
/// // one-cycle-stale overlapped control plane:
/// spec.controller.shards = ShardingSpec::Zones;
/// spec.controller.rebalance_budget = 8;
/// spec.controller.pipeline = PipelineSpec::overlap(1);
/// spec.validate().expect("still a valid scenario");
///
/// spec.controller.kind = ControllerKind::Static { trans_fraction: 1.5 };
/// let err = spec.validate().expect_err("a fence outside (0, 1) is rejected");
/// assert!(err.to_string().contains("controller"), "{err}");
/// ```
///
/// Keys a spec file omits take their [`ControllerSpec::default`] values,
/// so files written before a knob existed keep parsing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ControllerSpec {
    /// Which controller to run (`Utility` | `Fcfs` | `Static`).
    pub kind: ControllerKind,
    /// Cap on placement changes per cycle (`None` = unbounded).
    pub max_changes: Option<usize>,
    /// Node partitioning for the placement engine (utility controller
    /// only).
    pub shards: ShardingSpec,
    /// Cross-shard migrations allowed per cycle when sharded.
    pub rebalance_budget: usize,
    /// Control-plane scheduling: synchronous solves or the pipelined
    /// snapshot → solve → actuate plane with overlapped solves.
    pub pipeline: PipelineSpec,
    /// `"Batch"` | `"Delta"`: parsed and round-tripped, and lowered onto
    /// nothing — [`ScenarioSpec::materialize`] stops here, so both give
    /// the same controller (the re-flow `"Delta"` selected never engaged
    /// on a fleet and is deleted; the key stays so spec files keep
    /// parsing).
    pub solve: SolveMode,
    /// Request-level routing tier in front of placement (`"Off"` |
    /// `"Uniform"` | `"Affinity"`). Off — the default — installs no
    /// tier, keeping every metric series bit-identical to pre-routing
    /// runs.
    pub routing: RoutingSpec,
    /// Observability plane (`"Off"` | `"On"`). On instruments the run
    /// with spans/counters/histograms for post-run export; metric series
    /// stay bit-identical either way.
    pub observe: ObserveSpec,
}

impl Default for ControllerSpec {
    fn default() -> Self {
        let d = ControllerConfig::default();
        ControllerSpec {
            kind: ControllerKind::Utility,
            max_changes: d.placement.max_changes,
            shards: ShardingSpec::Zones,
            rebalance_budget: d.rebalance_budget,
            pipeline: PipelineSpec::Sync,
            solve: SolveMode::Batch,
            routing: RoutingSpec::Off,
            observe: ObserveSpec::Off,
        }
    }
}

/// A complete, declarative, serde-round-trippable description of one run.
///
/// Specs are plain data: look one up from the built-in corpus (or read
/// it from JSON), tweak fields, and it round-trips losslessly —
/// [`ScenarioSpec::to_json`] then [`ScenarioSpec::from_json`] is a fixed
/// point, which is what lets scenarios live in files and CI gates
/// instead of code:
///
/// ```
/// use slaq_core::ScenarioSpec;
///
/// let spec = ScenarioSpec::preset("paper-small").expect("built-in preset");
/// spec.validate().expect("corpus presets always validate");
///
/// let json = spec.to_json().expect("specs serialize");
/// let back = ScenarioSpec::from_json(&json).expect("and parse back");
/// assert_eq!(back, spec, "JSON round-trip is a fixed point");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (also the report label).
    pub name: String,
    /// Master workload seed; streams offset it via their `seed_offset`.
    pub seed: u64,
    /// The cluster.
    pub cluster: ClusterTopology,
    /// Simulator timing and overheads.
    pub timing: TimingSpec,
    /// Controller tuning.
    pub controller: ControllerSpec,
    /// Transactional applications.
    pub apps: Vec<AppSpec>,
    /// Job streams.
    pub job_streams: Vec<JobStreamSpec>,
    /// Planned node outages (failure injection).
    pub outages: Vec<OutageSpec>,
    /// Adversarial chaos plan (zone storms, flapping nodes, capacity
    /// degradation, flash crowds, batch floods), lowered onto the
    /// outage/trace/stream machinery at materialization. Absent in
    /// pre-chaos spec files, which keep parsing.
    pub chaos: Option<ChaosSpec>,
    /// Overbooking knobs: advertised-capacity ratios plus the seeded
    /// true-usage bite model.
    pub overcommit: Option<OvercommitSpec>,
    /// Vertical elasticity: seeded mid-run job resize events.
    pub elasticity: Option<ElasticitySpec>,
}

/// Rewrite a nested spec error's section to the outer path.
fn relabel(e: SlaqError, section: &str) -> SlaqError {
    match e {
        SlaqError::Spec { detail, .. } => SlaqError::spec(section, detail),
        other => other,
    }
}

impl ScenarioSpec {
    /// Check every section; the error names the offending part.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(SlaqError::spec("name", "scenario name must be non-empty"));
        }
        self.cluster.validate()?;
        self.timing.validate()?;
        self.controller.routing.validate()?;
        if let ControllerKind::Static { trans_fraction } = self.controller.kind {
            if !(trans_fraction.is_finite() && trans_fraction > 0.0 && trans_fraction < 1.0) {
                return Err(SlaqError::spec(
                    "controller",
                    "static partition trans_fraction must lie in (0, 1)",
                ));
            }
        }
        if self.apps.is_empty() && self.job_streams.is_empty() {
            return Err(SlaqError::spec(
                "workloads",
                "a scenario needs at least one app or job stream",
            ));
        }
        for (i, app) in self.apps.iter().enumerate() {
            app.validate(&format!("apps[{i}]"))?;
        }
        for (i, s) in self.job_streams.iter().enumerate() {
            s.validate(&format!("job_streams[{i}]"))?;
        }
        let nodes = self.cluster.node_count();
        for (i, o) in self.outages.iter().enumerate() {
            let section = format!("outages[{i}]");
            if o.node >= nodes {
                return Err(SlaqError::spec(
                    section,
                    format!("node {} out of range (cluster has {nodes})", o.node),
                ));
            }
            if !(o.from_secs.is_finite() && o.from_secs >= 0.0 && o.to_secs > o.from_secs) {
                return Err(SlaqError::spec(section, "outage window must be non-empty"));
            }
        }
        // Reject overlapping hand-written windows on the same node: two
        // overlapping outages almost always mean a typo'd plan, and the
        // simulator would silently merge them.
        let mut windows: Vec<(u32, f64, f64, usize)> = self
            .outages
            .iter()
            .enumerate()
            .map(|(i, o)| (o.node, o.from_secs, o.to_secs, i))
            .collect();
        windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in windows.windows(2) {
            let (node, _, prev_to, prev_ix) = w[0];
            let (next_node, next_from, _, next_ix) = w[1];
            if node == next_node && next_from < prev_to {
                return Err(SlaqError::spec(
                    format!("outages[{next_ix}]"),
                    format!("window overlaps outages[{prev_ix}] on node {node}"),
                ));
            }
        }
        if let Some(chaos) = &self.chaos {
            chaos
                .validate(nodes as usize)
                .map_err(|msg| SlaqError::spec("chaos", msg))?;
        }
        if let Some(oc) = &self.overcommit {
            oc.validate()
                .map_err(|msg| SlaqError::spec("overcommit", msg))?;
            if !self.timing.cap_transactional {
                return Err(SlaqError::spec(
                    "overcommit",
                    "the overbooking model requires timing.cap_transactional",
                ));
            }
        }
        if let Some(el) = &self.elasticity {
            el.validate()
                .map_err(|msg| SlaqError::spec("elasticity", msg))?;
        }
        Ok(())
    }

    /// Validate and materialize the runnable [`Scenario`]: concrete
    /// cluster, generated job population (each job carrying its class's
    /// importance tier), and outage plan.
    ///
    /// Specs compose from plain struct literals, so a whole scenario —
    /// cluster, SLAs, workload, controller — builds programmatically and
    /// runs end to end:
    ///
    /// ```
    /// use slaq_core::{AppSpec, ClusterTopology, ControllerSpec, ScenarioSpec, TimingSpec};
    /// use slaq_workloads::IntensityTrace;
    ///
    /// let mut spec = ScenarioSpec {
    ///     name: "one-app-demo".into(),
    ///     seed: 7,
    ///     cluster: ClusterTopology::homogeneous(4, 4, 3000.0, 4096),
    ///     timing: TimingSpec::default(),
    ///     controller: ControllerSpec::default(),
    ///     apps: vec![AppSpec {
    ///         name: "storefront".into(),
    ///         trace: IntensityTrace::Constant { rate: 12.0 },
    ///         service_mhz_s: 720.0,
    ///         rt_goal_secs: 0.5,
    ///         u_cap: 0.9,
    ///         mem_mb: 1024,
    ///         min_instances: 1,
    ///         max_instances: 4,
    ///         estimator_alpha: 0.4,
    ///         slo: None,
    ///     }],
    ///     job_streams: vec![],
    ///     outages: vec![],
    ///     chaos: None,
    ///     overcommit: None,
    ///     elasticity: None,
    /// };
    /// spec.timing.cap_to_cycles(2); // keep the doctest run short
    ///
    /// let scenario = spec.materialize().expect("spec is valid");
    /// let mut controller = scenario.controller();
    /// let mut sim = scenario.build().expect("scenario builds");
    /// let report = sim.run(controller.as_mut()).expect("and runs");
    /// // Control fires at t = 0 s, 600 s and the 1200 s horizon.
    /// assert_eq!(report.cycles, 3);
    /// ```
    pub fn materialize(&self) -> Result<Scenario> {
        self.validate()?;
        let sim = self.timing.materialize();
        let horizon = sim.horizon;

        // The chaos plan (if any) reaches the workload as a demand spike
        // summed onto every app trace and an antagonist job stream, and
        // the fleet as outage windows and capacity dips (below).
        let spike = self.chaos.as_ref().and_then(ChaosSpec::spike);

        let mut apps = Vec::with_capacity(self.apps.len());
        for app in &self.apps {
            let trace = match &spike {
                Some(spike) => IntensityTrace::Sum {
                    parts: vec![app.trace.clone(), spike.clone()],
                },
                None => app.trace.clone(),
            };
            apps.push(ScenarioApp {
                spec: app.transactional_spec()?,
                trace,
                estimator_alpha: app.estimator_alpha,
                slo: app.slo,
            });
        }

        // Generate all streams; each job carries its class's importance.
        let mut jobs: Vec<(SimTime, JobSpec)> = Vec::new();
        for stream in &self.job_streams {
            let arrival_seed = self.seed.wrapping_add(stream.seed_offset);
            let mix_seed = arrival_seed ^ 0x6a09_e667_f3bc_c909;
            let arrivals = stream
                .arrivals
                .stream(stream.max_jobs, horizon, arrival_seed);
            jobs.extend(stream.mix.generate(&arrivals, mix_seed, jobs.len()));
        }
        if let Some(flood) = self.chaos.and_then(|c| c.batch_floods) {
            let flood_seed = self.seed.wrapping_add(0x466c_6f6f_6421); // "Flood!"
            let arrivals = ArrivalProcess::BatchDrops {
                first_secs: flood.first_secs,
                period_secs: flood.period_secs,
                batch_size: flood.batch_size,
            }
            .stream(flood.max_jobs as usize, horizon, flood_seed);
            let mix = JobMix::uniform(batch_template("flood", flood.work_secs, flood.mem_mb));
            let mix_seed = flood_seed ^ 0x6a09_e667_f3bc_c909;
            jobs.extend(mix.generate(&arrivals, mix_seed, jobs.len()));
        }
        // Submission order; names are unique, so an unstable sort is
        // deterministic.
        jobs.sort_unstable_by(|a, b| a.0.total_cmp(b.0).then_with(|| a.1.name.cmp(&b.1.name)));
        jobs.shrink_to_fit();

        // Lower the sharding knob onto a zone table: zone labels activate
        // the sharded engine; a single effective zone keeps the exact
        // global solver (the empty table).
        let sharding = match self.controller.shards {
            ShardingSpec::Zones if self.cluster.zone_count() > 1 => self.cluster.zone_table(),
            _ => Vec::new(),
        };

        let controller = ControllerConfig {
            placement: PlacementConfig {
                max_changes: self.controller.max_changes,
            },
            sharding,
            rebalance_budget: self.controller.rebalance_budget,
            affinity_bias: self.controller.routing.placement_bias(),
        };

        // The spec's outages, then the chaos plan's windows.
        let mut faults = Faults {
            outages: self
                .outages
                .iter()
                .map(|o| NodeOutage {
                    node: NodeId::new(o.node),
                    from: SimTime::from_secs(o.from_secs),
                    to: SimTime::from_secs(o.to_secs),
                })
                .collect(),
            dips: Vec::new(),
            overcommit: self.overcommit,
            elasticity: self.elasticity,
            seed: self.seed,
        };
        if let Some(chaos) = &self.chaos {
            chaos.lower_into(
                self.seed,
                horizon.as_secs(),
                &self.cluster.zone_table(),
                &mut faults,
            );
        }

        Ok(Scenario {
            name: self.name.clone(),
            cluster: self.cluster.clone(),
            sim,
            apps,
            jobs,
            faults,
            controller,
            kind: self.controller.kind,
            pipeline: self.controller.pipeline,
            routing: self.controller.routing.router_config(self.seed),
            observe: self.controller.observe,
        })
    }

    /// Materialize, build, and run under the scenario's own controller.
    pub fn run(&self) -> Result<SimReport> {
        let scenario = self.materialize()?;
        let mut controller = scenario.controller();
        scenario.run(controller.as_mut())
    }

    /// Pretty JSON rendering of the spec.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| SlaqError::spec("json", e.to_string()))
    }

    /// Parse a spec from JSON text (then validate separately / on
    /// materialization).
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text).map_err(|e| SlaqError::spec("json", e.to_string()))
    }

    /// Names of the built-in corpus, in canonical order. The last four
    /// are the adversarial presets (chaos plans, overbooking,
    /// elasticity) asserted under the invariant checker by
    /// `tests/adversarial.rs`.
    pub fn preset_names() -> &'static [&'static str] {
        &PRESET_NAMES
    }

    /// Look up a built-in preset by name.
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        let (_, text) = PRESETS.iter().find(|(n, _)| *n == name)?;
        Some(parse_preset(text))
    }

    /// The full built-in corpus.
    pub fn corpus() -> Vec<ScenarioSpec> {
        PRESETS.iter().map(|(_, text)| parse_preset(text)).collect()
    }
}

/// `(name, text)` of every built-in preset, in canonical order: the spec
/// file `presets/<name>.json`, embedded at build time.
macro_rules! presets {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../presets/", $name, ".json")))),*]
    };
}

const PRESETS: [(&str, &str); 12] = presets![
    "paper",
    "paper-small",
    "hetero-pool",
    "diurnal",
    "bursty-batch",
    "differentiation-mix",
    "consolidation",
    "request-routing",
    "flash-crowd",
    "zone-storm",
    "node-flap",
    "antagonist-flood",
];

static PRESET_NAMES: [&str; PRESETS.len()] = {
    let mut names = [""; PRESETS.len()];
    let mut i = 0;
    while i < PRESETS.len() {
        names[i] = PRESETS[i].0;
        i += 1;
    }
    names
};

fn parse_preset(text: &str) -> ScenarioSpec {
    ScenarioSpec::from_json(text).expect("built-in presets parse")
}

fn batch_template(prefix: &str, work_secs: f64, mem_mb: u64) -> JobTemplate {
    JobTemplate {
        name_prefix: prefix.into(),
        work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(mem_mb),
        goal_factor: 1.25,
        exhausted_factor: 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_placement::problem::NodeCapacity;
    use slaq_types::ZoneId;

    #[test]
    fn corpus_has_all_named_presets() {
        let corpus = ScenarioSpec::corpus();
        assert_eq!(corpus.len(), ScenarioSpec::preset_names().len());
        assert!(corpus.len() >= 6);
        for (spec, name) in corpus.iter().zip(ScenarioSpec::preset_names()) {
            assert_eq!(&spec.name, name);
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(ScenarioSpec::preset("no-such-scenario").is_none());
    }

    // JSON round-trip coverage lives in tests/scenario_corpus.rs (the CI
    // corpus gate), which also asserts the serialization fixed point.

    #[test]
    fn every_preset_materializes() {
        for spec in ScenarioSpec::corpus() {
            let scenario = spec
                .materialize()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let nodes = NodeCapacity::from_cluster(&scenario.cluster);
            assert_eq!(nodes.len() as u32, spec.cluster.node_count());
            assert!(!scenario.jobs.is_empty(), "{}: no jobs", spec.name);
            // Arrivals sorted and inside the horizon.
            assert!(scenario.jobs.windows(2).all(|w| w[0].0 <= w[1].0));
            assert!(scenario
                .jobs
                .iter()
                .all(|(t, _)| t.as_secs() <= spec.timing.horizon_secs));
        }
    }

    #[test]
    fn validation_pinpoints_the_offending_section() {
        let mut s = ScenarioSpec::preset("paper-small").unwrap();
        s.apps[0].u_cap = 1.5;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("apps[0]"), "{e}");

        let mut s = ScenarioSpec::preset("paper-small").unwrap();
        s.cluster.pools[0].count = 0;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("cluster.pools[0]"), "{e}");

        let mut s = ScenarioSpec::preset("hetero-pool").unwrap();
        s.outages[0].node = 99;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("outages[0]"), "{e}");

        let mut s = ScenarioSpec::preset("paper-small").unwrap();
        s.job_streams[0].max_jobs = 0;
        assert!(s.validate().is_err());

        let mut s = ScenarioSpec::preset("paper-small").unwrap();
        s.apps.clear();
        s.job_streams.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn validation_rejects_overlapping_outage_windows_on_one_node() {
        let mut s = ScenarioSpec::preset("hetero-pool").unwrap();
        let first = s.outages[0];
        // A second window on the same node starting inside the first.
        s.outages.push(OutageSpec {
            node: first.node,
            from_secs: (first.from_secs + first.to_secs) / 2.0,
            to_secs: first.to_secs + 500.0,
        });
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("overlaps"), "{e}");
        assert!(e.to_string().contains("outages[1]"), "{e}");
        // The same window on a different node is fine.
        s.outages[1].node = first.node + 1;
        s.validate().expect("disjoint nodes may share windows");
        // Touching windows (to == from) on one node are fine too.
        s.outages[1] = OutageSpec {
            node: first.node,
            from_secs: first.to_secs,
            to_secs: first.to_secs + 500.0,
        };
        s.validate().expect("back-to-back windows are not overlaps");
    }

    #[test]
    fn validation_names_the_adversarial_knob_sections() {
        let mut s = ScenarioSpec::preset("flash-crowd").unwrap();
        s.chaos
            .as_mut()
            .unwrap()
            .flash_crowds
            .as_mut()
            .unwrap()
            .surge = -1.0;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("chaos"), "{e}");
        assert!(e.to_string().contains("flash_crowds.surge"), "{e}");

        let mut s = ScenarioSpec::preset("flash-crowd").unwrap();
        s.overcommit.as_mut().unwrap().cpu_ratio = 0.5;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("overcommit"), "{e}");

        // Overbooking without the transactional cap is rejected: the
        // true-usage clip is only defined for capped app allocations.
        let mut s = ScenarioSpec::preset("flash-crowd").unwrap();
        s.timing.cap_transactional = false;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("cap_transactional"), "{e}");

        let mut s = ScenarioSpec::preset("antagonist-flood").unwrap();
        s.elasticity.as_mut().unwrap().grow_factor = 0.9;
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("elasticity"), "{e}");
    }

    #[test]
    fn hetero_pool_materializes_all_pools_and_outage() {
        let spec = ScenarioSpec::preset("hetero-pool").unwrap();
        let scenario = spec.materialize().unwrap();
        let nodes = NodeCapacity::from_cluster(&scenario.cluster);
        assert_eq!(nodes.len(), 8);
        // Pool boundaries: node 4 is a fat box, node 6 a fast 2-way.
        assert_eq!(nodes[4].id, NodeId::new(4));
        assert_eq!(nodes[4].cpu, CpuMhz::new(8.0 * 2400.0));
        assert_eq!(nodes[4].mem, MemMb::new(16_384));
        assert_eq!(nodes[6].cpu, CpuMhz::new(2.0 * 3600.0));
        assert_eq!(scenario.faults.outages.len(), 1);
        assert_eq!(scenario.faults.outages[0].node, NodeId::new(0));
    }

    #[test]
    fn differentiation_mix_gold_jobs_carry_importance_two() {
        let spec = ScenarioSpec::preset("differentiation-mix").unwrap();
        let scenario = spec.materialize().unwrap();
        let (gold, rest): (Vec<_>, Vec<_>) = scenario
            .jobs
            .iter()
            .map(|(_, j)| j)
            .partition(|j| j.name.starts_with("gold-short"));
        assert!(!gold.is_empty(), "preset must exercise the gold tier");
        assert!(gold.iter().all(|j| j.importance == 2.0));
        assert!(!rest.is_empty() && rest.iter().all(|j| j.importance == 1.0));
    }

    #[test]
    fn zone_table_maps_pools_to_sorted_zone_ids() {
        let spec = ScenarioSpec::preset("consolidation").unwrap();
        assert_eq!(spec.cluster.zone_count(), 3);
        let table = spec.cluster.zone_table();
        assert_eq!(table.len(), 12);
        // Labels rank alphabetically after the implicit zone 0:
        // core=1, edge=2, yard=3; pools are core×6, yard×3, edge×3.
        assert!(table[..6].iter().all(|&z| z == ZoneId::new(1)));
        assert!(table[6..9].iter().all(|&z| z == ZoneId::new(3)));
        assert!(table[9..].iter().all(|&z| z == ZoneId::new(2)));
        // Unlabeled fleets collapse to the single implicit zone.
        let plain = ScenarioSpec::preset("paper-small").unwrap();
        assert_eq!(plain.cluster.zone_count(), 1);
        assert!(plain
            .cluster
            .zone_table()
            .iter()
            .all(|&z| z == ZoneId::new(0)));
    }

    #[test]
    fn sharding_knob_lowers_onto_the_right_plan() {
        // Zones + labels → the zone table; Zones without labels →
        // global (the empty table); Global always global.
        let zoned = ScenarioSpec::preset("consolidation").unwrap();
        assert_eq!(
            zoned.materialize().unwrap().controller.sharding,
            zoned.cluster.zone_table()
        );
        let mut forced = zoned.clone();
        forced.controller.shards = ShardingSpec::Global;
        assert!(forced.materialize().unwrap().controller.sharding.is_empty());
        let plain = ScenarioSpec::preset("paper-small").unwrap();
        assert!(plain.materialize().unwrap().controller.sharding.is_empty());
    }

    #[test]
    fn pre_sharding_spec_files_still_parse_with_defaults() {
        // A file dumped before the `kind`/`shards`/`rebalance_budget`
        // knobs (and pool `zone` labels) existed must keep parsing, with
        // the new fields at their defaults — users pin spec files on
        // disk and a format break would rot every one of them.
        let spec = ScenarioSpec::preset("paper-small").unwrap();
        let mut json = spec.to_json().unwrap();
        for stale in [
            "\"kind\": \"Utility\",",
            ",\n    \"shards\": \"Zones\",\n    \"rebalance_budget\": 8",
            ",\n    \"pipeline\": \"Sync\"",
            ",\n    \"solve\": \"Batch\"",
            ",\n    \"routing\": \"Off\"",
            ",\n        \"zone\": null",
        ] {
            assert!(json.contains(stale), "fixture drifted: {stale}");
            json = json.replace(stale, "");
        }
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("legacy spec must parse: {e}"));
        assert_eq!(back.controller, spec.controller);
        assert_eq!(back.cluster, spec.cluster);
        back.validate().unwrap();

        // `null` is omission: in every preset file, deleting any one
        // `null` key, or all of them, parses to the same spec.
        let mut deleted = 0;
        for (name, text) in PRESETS {
            let spec = ScenarioSpec::from_json(text).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let nulls: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].trim_end_matches(',').ends_with(": null"))
                .collect();
            let without = |gone: &[usize]| {
                let mut kept: Vec<String> = Vec::new();
                for (i, line) in lines.iter().enumerate() {
                    if !gone.contains(&i) {
                        kept.push(line.to_string());
                    } else if !line.ends_with(',') {
                        // An object's last key: the key before it loses
                        // its comma.
                        if let Some(prev) = kept.last_mut().filter(|l| l.ends_with(',')) {
                            prev.pop();
                        }
                    }
                }
                kept.join("\n")
            };
            for &i in &nulls {
                let back = ScenarioSpec::from_json(&without(&[i]))
                    .unwrap_or_else(|e| panic!("{name} without `{}`: {e}", lines[i].trim()));
                assert_eq!(back, spec, "{name} without `{}`", lines[i].trim());
                deleted += 1;
            }
            assert_eq!(
                ScenarioSpec::from_json(&without(&nulls)).unwrap(),
                spec,
                "{name}"
            );
        }
        assert!(deleted >= 80, "{deleted} null keys deleted");

        // The same promise knob by knob: a legacy `controller` block —
        // only `max_changes` + the removed `evict_priority_gap` (ignored
        // like any unknown key), plus one partially written newer knob
        // per row — must raise to exactly the value its era's parser
        // produced, the old key aside.
        let d = ControllerSpec {
            max_changes: Some(4),
            ..ControllerSpec::default()
        };
        let r = slaq_routing::RouterConfig::default();
        let affinity = |warm_gain: f64, placement_bias: f64| RoutingSpec::Affinity {
            temperature: r.temperature,
            warm_gain,
            warm_alpha: r.warm_alpha,
            load_penalty: r.load_penalty,
            placement_bias,
        };
        let uniform = RoutingSpec::Uniform {
            warm_gain: r.warm_gain,
            warm_alpha: r.warm_alpha,
        };
        let table = [
            ("", d),
            (
                r#", "pipeline": {"Overlap": {"latency_cycles": 1}}"#,
                ControllerSpec {
                    pipeline: PipelineSpec::overlap(1),
                    ..d
                },
            ),
            (
                r#", "routing": {"Affinity": {}}"#,
                ControllerSpec {
                    routing: affinity(r.warm_gain, 0.0),
                    ..d
                },
            ),
            (
                r#", "routing": {"Uniform": {}}"#,
                ControllerSpec {
                    routing: uniform,
                    ..d
                },
            ),
            (
                r#", "routing": {"Affinity": {"warm_gain": 0.25, "placement_bias": 40.0}}"#,
                ControllerSpec {
                    routing: affinity(0.25, 40.0),
                    ..d
                },
            ),
            (r#", "pipeline": "Sync", "routing": "Off""#, d),
            (
                r#", "solve": "Delta""#,
                ControllerSpec {
                    solve: SolveMode::Delta,
                    ..d
                },
            ),
        ];
        for (knob, want) in table {
            let json = format!(r#"{{"max_changes": 4, "evict_priority_gap": 150.0{knob}}}"#);
            let got: ControllerSpec =
                serde_json::from_str(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(got, want, "{json}");
        }
        for bad in [r#"{"pipeline": "Async"}"#, r#"{"routing": {"Sticky": {}}}"#] {
            assert!(
                serde_json::from_str::<ControllerSpec>(bad).is_err(),
                "{bad} must not parse"
            );
        }
    }

    #[test]
    fn the_solve_key_stops_at_the_spec() {
        // `solve` round-trips as written and lowers onto nothing: a spec
        // and its `"Delta"` twin build the same controller config.
        for name in ["paper-small", "consolidation"] {
            let batch = ScenarioSpec::preset(name).unwrap();
            let mut delta = batch.clone();
            delta.controller.solve = SolveMode::Delta;
            let back = ScenarioSpec::from_json(&delta.to_json().unwrap()).unwrap();
            assert_eq!(back.controller.solve, SolveMode::Delta);
            let config = |s: &ScenarioSpec| format!("{:?}", s.materialize().unwrap().controller);
            assert_eq!(config(&delta), config(&batch), "{name}");
        }
    }

    #[test]
    fn controller_section_validation_rejects_bad_knobs() {
        let mut s = ScenarioSpec::preset("paper-small").unwrap();
        s.controller.kind = ControllerKind::Static {
            trans_fraction: 1.5,
        };
        let e = s.validate().unwrap_err();
        assert!(e.to_string().contains("trans_fraction"), "{e}");
    }

    #[test]
    fn spec_named_baselines_run_and_differ_from_utility() {
        // The controller is spec data: the same scenario under fcfs must
        // run end to end through `ScenarioSpec::run` and (being
        // SLA-blind) not beat the utility controller on goals met.
        let mut spec = ScenarioSpec::preset("paper-small").unwrap();
        spec.timing.horizon_secs = spec.timing.control_period_secs * 6.0;
        let utility = spec.run().unwrap();
        spec.controller.kind = ControllerKind::Fcfs;
        let fcfs = spec.run().unwrap();
        assert_eq!(
            utility.job_stats.submitted, fcfs.job_stats.submitted,
            "same workload"
        );
        assert!(fcfs.cycles >= 6);
        // The kinds must actually select different controllers: only the
        // utility controller equalizes (and records the water level), and
        // SLA-blind FCFS cannot beat it on goals met.
        assert!(!utility.metrics.series("water_level").is_empty());
        assert!(
            fcfs.metrics.series("water_level").is_empty(),
            "fcfs must not run the utility equalizer"
        );
        assert!(fcfs.job_stats.goals_met <= utility.job_stats.goals_met);
        spec.controller.kind = ControllerKind::Static {
            trans_fraction: 0.4,
        };
        let fenced = spec.run().unwrap();
        assert!(fenced.cycles >= 6);
        assert_eq!(spec.controller.kind.name(), "static");
    }

    #[test]
    fn spec_horizon_is_data_not_code() {
        // Truncating the horizon is a field write — the property sweeps
        // and benches rely on.
        let mut spec = ScenarioSpec::preset("paper-small").unwrap();
        spec.timing.horizon_secs = 1200.0;
        let scenario = spec.materialize().unwrap();
        assert!(scenario.jobs.iter().all(|(t, _)| t.as_secs() <= 1200.0));
    }
}
