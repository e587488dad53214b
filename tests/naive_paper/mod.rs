//! The paper's experiment as it was described before the `paper` and
//! `paper-small` presets were written out: `PaperParams`, a plain struct
//! of the experiment's knobs, with its `Default` (the full experiment),
//! `small` (the scaled variant) and `spec_named`, which lowers it onto
//! the spec, kept verbatim. `tests/paper_preset_oracle.rs` holds the
//! presets, and every edit the callers make to them, to this lowering.

use slaq::core::{
    AppSpec, ClusterTopology, ControllerSpec, JobStreamSpec, ScenarioSpec, TimingSpec,
};
use slaq::types::{CpuMhz, MemMb, SimTime, Work};
use slaq::workloads::{ArrivalProcess, IntensityTrace, JobMix, JobTemplate, RateSchedule};

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
}
