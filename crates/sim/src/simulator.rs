//! The simulation loop: events, placement enactment, measurement.
//!
//! A fluid discrete-event design: between events every running job
//! progresses at its effective speed and every application observes its
//! effective allocation. Events are job arrivals, control cycles, job
//! completions, overhead-unblock instants, outage / capacity-dip
//! boundaries, elasticity resizes and the horizon.
//!
//! The placement holds for a whole control period, so between two
//! cycles a CPU share can only change on the node where a job just
//! completed or finished paying its placement latency. Effective speeds
//! are therefore **state**: one [`NodeSpeeds`] index lives as long as
//! the simulator, whoever changes an input marks the nodes it touched
//! (`enact` and an outage that stripped something re-index, a completion
//! and an unblock mark one node, a capacity boundary marks all; an
//! arrival or a resize marks nothing), and the top of each event flushes
//! the marked nodes — so the freed capacity of a completed job is still
//! redistributed at once. The loop's consumers — the next-completion
//! scan, the advance, the per-application interval — read the index's
//! dense tables, and the overbooking clip is part of the flush. The
//! observation stage of a control cycle (`observe`) asks the same index
//! its what-if questions — every job unblocked and unclipped for the
//! outlook series, the upcoming interval's clip factors for the SLO pass
//! — as kernel passes into a scratch ([`NodeSpeeds::project`]) that
//! leave the tables and the marks alone. Debug builds compare the tables
//! with a from-scratch [`effective_speeds`] plus the map-based clip at
//! every event, and each projection with its from-scratch form at every
//! cycle; no release path calls either. Node capacities are state too
//! (`capacity::Capacities`), re-derived only when the clock crosses an
//! outage or dip boundary, and the overbooking bite factors are drawn
//! once per control cycle.

use crate::apps::{AppObservation, TransactionalRuntime};
use crate::capacity::Capacities;
use crate::cluster::{effective_speeds, NodeSpeeds, Projection};
use crate::metrics::{MetricKey, MetricsSink};
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use slaq_jobs::{JobManager, JobSpec, JobState, JobStats};
use slaq_obs::Recorder;
use slaq_placement::problem::NodeCapacity;
use slaq_placement::{Placement, PlacementChange};
use slaq_types::{ClusterSpec, CpuMhz, JobId, Result, SimDuration, SimTime, SlaqError};
use std::collections::{BTreeMap, BTreeSet};

mod observe;

/// Latencies paid by jobs for placement actions (the *cost* that makes
/// churn worth bounding).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadConfig {
    /// Cold start of a pending job's VM.
    pub start: SimDuration,
    /// Resume of a suspended image (disk → memory).
    pub resume: SimDuration,
    /// Live migration of a running VM.
    pub migrate: SimDuration,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            start: SimDuration::from_secs(30.0),
            resume: SimDuration::from_secs(60.0),
            migrate: SimDuration::from_secs(90.0),
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Controller invocation period (600 s in the paper).
    pub control_period: SimDuration,
    /// End of the experiment.
    pub horizon: SimTime,
    /// Placement action latencies.
    pub overheads: OverheadConfig,
    /// Enforce transactional allocations as hypervisor *limits* (the
    /// paper's middleware applies the computed fine-grained allocations,
    /// so the delivered power equals the controller's decision). When
    /// `false` the hypervisor is fully work-conserving and spare CPU also
    /// flows to transactional instances. Jobs always reuse spare up to
    /// their speed caps.
    pub cap_transactional: bool,
}

impl SimConfig {
    /// The paper's timing: 600 s cycles over a 72 000 s horizon, with
    /// transactional allocations enforced as limits.
    pub fn paper() -> Self {
        SimConfig {
            control_period: SimDuration::from_secs(600.0),
            horizon: SimTime::from_secs(72_000.0),
            overheads: OverheadConfig::default(),
            cap_transactional: true,
        }
    }
}

/// Everything a controller may observe at a control cycle.
pub struct ControlInputs<'a> {
    /// Current instant.
    pub now: SimTime,
    /// Node capacities.
    pub nodes: &'a [NodeCapacity],
    /// Placement currently in force.
    pub current: &'a Placement,
    /// The job manager (states, remaining work, SLAs).
    pub jobs: &'a JobManager,
    /// Per-application observations (spec + estimated intensity).
    pub apps: &'a [AppObservation],
}

/// A placement controller under test.
pub trait Controller {
    /// Produce the placement to enact for the next cycle. Controllers may
    /// record model-side series into `metrics`.
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement;

    /// [`Controller::control`] with an advisory churn hint. The simulator
    /// never calls it — it calls [`Controller::control`] — and no
    /// controller in the workspace implements it: the default forwards
    /// to [`Controller::control`]. Kept for the bench surface, whose
    /// timing wrapper implements it (ROADMAP item 3, stage 3d).
    fn control_delta(
        &mut self,
        inputs: &ControlInputs<'_>,
        delta: Option<&slaq_placement::SolveDelta>,
        metrics: &mut MetricsSink,
    ) -> Placement {
        let _ = delta;
        self.control(inputs, metrics)
    }

    /// Install an observability [`Recorder`]. The simulator forwards its
    /// recorder here at the start of a run so the controller (and
    /// whatever solver stack it wraps) records spans and counters into
    /// the same registry. The recorder observes, never steers: no
    /// controller decision may depend on it. The default ignores it.
    fn set_recorder(&mut self, recorder: Recorder) {
        let _ = recorder;
    }
}

/// Final report of a run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// All recorded series.
    pub metrics: MetricsSink,
    /// Job statistics at the horizon.
    pub job_stats: JobStats,
    /// Control cycles executed.
    pub cycles: usize,
    /// Total placement changes enacted.
    pub total_changes: usize,
}

/// A planned node outage (failure injection): the node contributes no
/// CPU or memory during `[from, to)`; running jobs on it are suspended
/// when it goes down and the controller sees a zero-capacity node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// The failing node.
    pub node: slaq_types::NodeId,
    /// Failure instant.
    pub from: SimTime,
    /// Recovery instant.
    pub to: SimTime,
}

/// The simulator.
pub struct Simulator {
    nodes: Vec<NodeCapacity>,
    job_mgr: JobManager,
    apps: Vec<TransactionalRuntime>,
    /// Pending arrivals, sorted by time *descending* (pop from the back).
    arrivals: Vec<(SimTime, JobSpec)>,
    placement: Placement,
    blocked_until: BTreeMap<JobId, SimTime>,
    /// `placement` indexed by node with the speeds it yields under the
    /// current capacities, job caps, blocked set and overbooking bites;
    /// whoever changes one of those marks the nodes it touched.
    speeds: NodeSpeeds,
    /// Scratch of the observation stage's what-if kernel passes over
    /// `speeds` (`observe`), kept alive between cycles.
    projection: Projection,
    metrics: MetricsSink,
    config: SimConfig,
    /// Outage and dip windows plus the physical / advertised capacities
    /// in force at `now`; refreshed whenever `now` moves.
    capacities: Capacities,
    /// Overbooking model `(seed, spec)`: advertised capacities are the
    /// physical ones scaled by the overcommit ratios, and a seeded
    /// true-usage draw per `(cycle, node)` occasionally claws real CPU
    /// back. `None` leaves every code path and every float untouched.
    overcommit: Option<(u64, crate::chaos::OvercommitSpec)>,
    /// This cycle's [`bite_factor`](crate::chaos::bite_factor) per node,
    /// parallel to `nodes`; empty while overbooking is off.
    bites: Vec<f64>,
    /// Vertical elasticity `(seed, spec)` plus the precomputed resize
    /// instants (ascending) and a cursor into them.
    elasticity: Option<(u64, crate::chaos::ElasticitySpec)>,
    resize_events: Vec<SimTime>,
    resize_at: usize,
    /// Diffs consecutive cycles' sensed inputs; only the size of the
    /// diff is kept, as the `delta.dirty` histogram — no controller sees
    /// it. Runs only while the recorder is on.
    delta_tracker: crate::snapshot::DeltaTracker,
    /// Optional request-level routing tier, driven once per control
    /// cycle *before* sensing (sim-side, so pipelined controllers see
    /// identical router series). `None` leaves every series and every
    /// observation bit-identical to the routing-free simulator.
    routing: Option<slaq_routing::RoutingTier>,
    /// Observability plane (spans/counters/histograms). `Recorder::off`
    /// unless installed via [`Simulator::set_recorder`] or the
    /// `SLAQ_TRACE` env var; observes only, never steers.
    recorder: Recorder,
    obs: ObsKeys,
    /// Interned [`MetricKey`]s for the static per-cycle series.
    keys: SimSeriesKeys,
    /// Interned per-app rt/utility series keys, parallel to `apps`.
    app_keys: Vec<AppMetricKeys>,
    /// Interned routing warm/discount series keys per app, filled
    /// lazily on first route.
    route_keys: BTreeMap<slaq_types::AppId, (MetricKey, MetricKey)>,
    /// SLO board handles per app (registered via
    /// [`Simulator::register_slo`]; empty unless observability is on).
    slo_ids: BTreeMap<slaq_types::AppId, slaq_obs::SloId>,
    /// This cycle's flushed (rt secs, utility) per app, parallel to
    /// `apps`. Private sensing state — feeds only the SLO board, so it
    /// never steers the simulation.
    last_app_flush: Vec<Option<(f64, f64)>>,
    /// The controller's configured per-cycle change budget, for
    /// budget-exhaustion attribution (`None` = unlimited).
    change_budget: Option<usize>,
    now: SimTime,
    next_control: SimTime,
    cycles: usize,
    total_changes: usize,
}

/// Interned sink keys for the series the simulator records every
/// cycle, so the per-cycle hot path never looks up a name.
#[derive(Clone, Copy)]
struct SimSeriesKeys {
    route_requests: MetricKey,
    route_quality: MetricKey,
    route_discount: MetricKey,
    trans_utility: MetricKey,
    jobs_outlook: MetricKey,
    jobs_outlook_min: MetricKey,
    trans_alloc: MetricKey,
    jobs_alloc: MetricKey,
    changes: MetricKey,
    jobs_active: MetricKey,
    jobs_running: MetricKey,
    jobs_pending: MetricKey,
    jobs_suspended: MetricKey,
    jobs_completed: MetricKey,
}

impl SimSeriesKeys {
    fn intern(m: &mut MetricsSink) -> Self {
        SimSeriesKeys {
            route_requests: m.intern("route_requests"),
            route_quality: m.intern("route_quality"),
            route_discount: m.intern("route_discount"),
            trans_utility: m.intern("trans_utility"),
            jobs_outlook: m.intern("jobs_outlook"),
            jobs_outlook_min: m.intern("jobs_outlook_min"),
            trans_alloc: m.intern("trans_alloc"),
            jobs_alloc: m.intern("jobs_alloc"),
            changes: m.intern("changes"),
            jobs_active: m.intern("jobs_active"),
            jobs_running: m.intern("jobs_running"),
            jobs_pending: m.intern("jobs_pending"),
            jobs_suspended: m.intern("jobs_suspended"),
            jobs_completed: m.intern("jobs_completed"),
        }
    }
}

#[derive(Clone, Copy)]
struct AppMetricKeys {
    rt: MetricKey,
    utility: MetricKey,
}

/// Pre-interned observability keys for the simulator's own spans and
/// events (dummies while the recorder is off).
#[derive(Clone, Copy)]
struct ObsKeys {
    cycle: slaq_obs::Key,
    route: slaq_obs::Key,
    sense: slaq_obs::Key,
    solve: slaq_obs::Key,
    actuate: slaq_obs::Key,
    validate: slaq_obs::Key,
    enact: slaq_obs::Key,
    series: slaq_obs::Key,
    advance: slaq_obs::Key,
    event: slaq_obs::Key,
    events: slaq_obs::Key,
    /// The event census: what an iteration did at the instant it
    /// advanced to (one iteration may bump several).
    ev_arrival: slaq_obs::Key,
    ev_completion: slaq_obs::Key,
    ev_unblock: slaq_obs::Key,
    ev_boundary: slaq_obs::Key,
    ev_resize: slaq_obs::Key,
    ev_control: slaq_obs::Key,
    speed_rebuilds: slaq_obs::Key,
    map_rebuilds: slaq_obs::Key,
    nodes_recomputed: slaq_obs::Key,
    nodes_clipped: slaq_obs::Key,
    delta_dirty: slaq_obs::Key,
}

impl ObsKeys {
    fn intern(rec: &Recorder) -> Self {
        ObsKeys {
            cycle: rec.key("cycle"),
            route: rec.key("cycle.route"),
            sense: rec.key("cycle.sense"),
            solve: rec.key("cycle.solve"),
            actuate: rec.key("cycle.actuate"),
            validate: rec.key("actuate.validate"),
            enact: rec.key("actuate.enact"),
            series: rec.key("actuate.series"),
            advance: rec.key("sim.advance"),
            event: rec.key("sim.event"),
            events: rec.key("sim.events"),
            ev_arrival: rec.key("sim.events.arrival"),
            ev_completion: rec.key("sim.events.completion"),
            ev_unblock: rec.key("sim.events.unblock"),
            ev_boundary: rec.key("sim.events.boundary"),
            ev_resize: rec.key("sim.events.resize"),
            ev_control: rec.key("sim.events.control"),
            speed_rebuilds: rec.key("sim.speeds.rebuilds"),
            map_rebuilds: rec.key("sim.speeds.map_rebuilds"),
            nodes_recomputed: rec.key("sim.speeds.nodes_recomputed"),
            nodes_clipped: rec.key("sim.speeds.nodes_clipped"),
            delta_dirty: rec.key("delta.dirty"),
        }
    }
}

/// The overbooking model handed to the speed kernel: the true CPU of the
/// node at a position is its physical capacity scaled by this cycle's
/// bite (`None` while overbooking is off and `bites` is empty).
fn truth_of<'a>(
    physical: &'a [NodeCapacity],
    bites: &'a [f64],
) -> impl Fn(usize) -> Option<f64> + 'a {
    |pos| bites.get(pos).map(|bite| physical[pos].cpu.as_f64() * bite)
}

impl Simulator {
    /// Create a simulator over `cluster`.
    pub fn new(cluster: &ClusterSpec, config: SimConfig) -> Self {
        let mut metrics = MetricsSink::new();
        let keys = SimSeriesKeys::intern(&mut metrics);
        let recorder = Recorder::off();
        let obs = ObsKeys::intern(&recorder);
        let nodes = NodeCapacity::from_cluster(cluster);
        Simulator {
            speeds: NodeSpeeds::new(&nodes),
            projection: Projection::default(),
            nodes,
            job_mgr: JobManager::new(),
            apps: Vec::new(),
            arrivals: Vec::new(),
            placement: Placement::empty(),
            blocked_until: BTreeMap::new(),
            metrics,
            config,
            capacities: Capacities::default(),
            overcommit: None,
            bites: Vec::new(),
            elasticity: None,
            resize_events: Vec::new(),
            resize_at: 0,
            delta_tracker: crate::snapshot::DeltaTracker::default(),
            routing: None,
            recorder,
            obs,
            keys,
            app_keys: Vec::new(),
            route_keys: BTreeMap::new(),
            slo_ids: BTreeMap::new(),
            last_app_flush: Vec::new(),
            change_budget: None,
            now: SimTime::ZERO,
            next_control: SimTime::ZERO,
            cycles: 0,
            total_changes: 0,
        }
    }

    /// Install an observability [`Recorder`]. Forwarded to the routing
    /// tier immediately and to the controller at the start of
    /// [`Simulator::run`]. Recording never changes a metric series —
    /// enabling observability is bit-identical (pinned in
    /// `tests/observability.rs`).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = ObsKeys::intern(&recorder);
        if let Some(tier) = &mut self.routing {
            tier.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// The installed recorder (clone it to read reports after a run).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Register app `id` on the recorder's SLO board under `name`. Each
    /// control cycle the simulator measures the app's satisfied-CPU
    /// fraction, deficit and response time against `spec` and feeds the
    /// tracker, with the deficit decomposed into named causes. A no-op
    /// while the recorder is off.
    pub fn register_slo(&mut self, id: slaq_types::AppId, name: &str, spec: slaq_obs::SloSpec) {
        if self.recorder.is_enabled() {
            let slo_id = self.recorder.slo_register(name, spec);
            self.slo_ids.insert(id, slo_id);
        }
    }

    /// Declare the controller's per-cycle change budget so violation
    /// attribution can recognize budget-exhausted cycles. Purely
    /// observational — the simulator never enforces it.
    pub fn set_change_budget(&mut self, max_changes: Option<usize>) {
        self.change_budget = max_changes;
    }

    /// Schedule a node outage (failure injection). May be called multiple
    /// times, also for the same node.
    pub fn add_outage(&mut self, outage: NodeOutage) {
        self.capacities.add_outage(outage);
    }

    /// Schedule a partial-capacity window (chaos degradation): the
    /// node's CPU is scaled by the dip's factor during `[from, to)`
    /// while the node stays alive and keeps its memory.
    pub fn add_capacity_dip(&mut self, dip: crate::chaos::CapacityDip) {
        self.capacities.add_dip(dip);
    }

    /// Install the overbooking model. The controller is shown node
    /// capacities inflated by the overcommit ratios; each control
    /// cycle a seeded per-node draw ([`crate::chaos::bite_factor`])
    /// decides whether physical capacity bites, proportionally
    /// clipping everything granted on the affected node. Assumes
    /// transactional allocations are capped at their solver slices
    /// ([`SimConfig::cap_transactional`]).
    pub fn set_overcommit(&mut self, seed: u64, spec: crate::chaos::OvercommitSpec) {
        self.capacities
            .set_overcommit(spec.cpu_ratio, spec.mem_ratio);
        self.overcommit = Some((seed, spec));
    }

    /// Install the vertical-elasticity model: at seeded instants a
    /// random active job's remaining work grows or shrinks, surfacing
    /// as resize churn in the
    /// [`DeltaTracker`](crate::snapshot::DeltaTracker)'s counts.
    pub fn set_elasticity(&mut self, seed: u64, spec: crate::chaos::ElasticitySpec) {
        let mut events = Vec::new();
        let mut t = spec.first_secs;
        while (events.len() as u32) < spec.max_events && t < self.config.horizon.as_secs() {
            events.push(SimTime::from_secs(t));
            t += spec.period_secs;
        }
        self.resize_events = events;
        self.resize_at = 0;
        self.elasticity = Some((seed, spec));
    }

    /// Next pending elasticity resize instant (`NEVER` if none).
    fn next_resize_event(&self) -> SimTime {
        self.resize_events
            .get(self.resize_at)
            .copied()
            .unwrap_or(SimTime::NEVER)
    }

    /// Apply every elasticity resize due at or before `now`: a seeded
    /// draw picks one active job and grows or shrinks its remaining
    /// work. Deterministic per event index, independent of controller
    /// choices only insofar as the active-job set is.
    fn apply_resizes(&mut self) {
        let Some((seed, el)) = self.elasticity else {
            return;
        };
        let first_due = self.resize_at;
        while self.resize_at < self.resize_events.len()
            && self.resize_events[self.resize_at] <= self.now
        {
            let k = self.resize_at as u64;
            self.resize_at += 1;
            let active: Vec<JobId> = self
                .job_mgr
                .jobs()
                .iter()
                .filter(|j| j.is_active() && j.remaining.as_f64() > 0.0)
                .map(|j| j.id)
                .collect();
            if active.is_empty() {
                continue;
            }
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(
                seed ^ 0x5265_7369_7a65_4a6f ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15), // "ResizeJo"
            );
            let target = active[(rng.next_u64() % active.len() as u64) as usize];
            let factor = if rng.next_u64() & 1 == 0 {
                el.grow_factor
            } else {
                el.shrink_factor
            };
            if let Ok(job) = self.job_mgr.job_mut(target) {
                job.remaining = job.remaining * factor;
            }
        }
        if self.resize_at > first_due {
            self.recorder.count(self.obs.ev_resize, 1);
        }
    }

    /// Strip the placement of anything on nodes that are down at `now`:
    /// running jobs are force-suspended (they lose their in-flight work's
    /// node but keep their progress), instances vanish, and the speeds
    /// are re-indexed. Nothing at all happens while no down node hosts
    /// anything — every event of an outage but its first, and the index
    /// answers that per node without a look at the placement.
    fn apply_outages(&mut self) -> Result<()> {
        let advertised = self.capacities.advertised();
        let mut nodes = advertised.iter().enumerate();
        if !nodes.any(|(pos, n)| n.cpu.is_zero() && self.speeds.hosts_anything(pos)) {
            return Ok(());
        }
        let down = |node| {
            self.speeds
                .position(node)
                .is_some_and(|pos| advertised[pos].cpu.is_zero())
        };
        let victims: Vec<JobId> = self
            .placement
            .jobs
            .iter()
            .filter(|&(_, &(n, _))| down(n))
            .map(|(&j, _)| j)
            .collect();
        for job in victims {
            self.job_mgr.job_mut(job)?.suspend()?;
            self.placement.jobs.remove(&job);
            self.blocked_until.remove(&job);
        }
        for slices in self.placement.apps.values_mut() {
            slices.retain(|&n, _| !down(n));
        }
        self.reindex_speeds();
        Ok(())
    }

    /// Register a transactional application.
    pub fn add_app(&mut self, app: TransactionalRuntime) {
        self.app_keys.push(AppMetricKeys {
            rt: self.metrics.intern(app.rt_metric_key()),
            utility: self.metrics.intern(app.utility_metric_key()),
        });
        self.last_app_flush.push(None);
        self.apps.push(app);
    }

    /// Install a request-level routing tier. Each control cycle the
    /// simulator batches every app's requests, routes them across the
    /// app's live instances, and feeds the resulting effective-work
    /// discount (and, for affinity-publishing tiers, per-node warmth)
    /// back into the sensed observations.
    pub fn set_routing(&mut self, mut tier: slaq_routing::RoutingTier) {
        if self.recorder.is_enabled() {
            tier.set_recorder(self.recorder.clone());
        }
        self.routing = Some(tier);
    }

    /// The routing tier, if one is installed (inspection in tests).
    pub fn routing(&self) -> Option<&slaq_routing::RoutingTier> {
        self.routing.as_ref()
    }

    /// Queue job arrivals (merged with any already queued).
    pub fn add_arrivals(&mut self, mut stream: Vec<(SimTime, JobSpec)>) {
        self.arrivals.append(&mut stream);
        self.arrivals
            .sort_by(|a, b| b.0.total_cmp(a.0).then(b.1.name.cmp(&a.1.name)));
    }

    /// Access the job manager (inspection in tests/experiments).
    pub fn jobs(&self) -> &JobManager {
        &self.job_mgr
    }

    /// The placement currently in force.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    fn blocked_set(&self) -> BTreeSet<JobId> {
        self.blocked_until
            .iter()
            .filter(|&(_, &t)| t > self.now)
            .map(|(&j, _)| j)
            .collect()
    }

    fn job_caps(&self) -> BTreeMap<JobId, CpuMhz> {
        self.job_mgr
            .jobs()
            .iter()
            .filter(|j| j.is_running())
            .map(|j| (j.id, j.spec.max_speed))
            .collect()
    }

    /// Re-index the speeds after the placement was replaced or stripped:
    /// a running job is capped at its maximum speed (what `job_caps`
    /// lists) and blocked while its latency runs (what `blocked_set`
    /// lists).
    fn reindex_speeds(&mut self) {
        let now = self.now;
        self.speeds.rebuild(
            &self.placement,
            |id| match self.job_mgr.job(id) {
                Ok(job) if job.is_running() => Some(job.spec.max_speed),
                _ => None,
            },
            |id| self.blocked_until.get(&id).is_some_and(|&t| t > now),
        );
        self.recorder.count(self.obs.speed_rebuilds, 1);
    }

    /// The unclipped speeds under `blocked`, derived from scratch: the
    /// oracle the debug cross-checks hold the index to.
    fn speeds_from_scratch(
        &self,
        blocked: &BTreeSet<JobId>,
    ) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<slaq_types::AppId, CpuMhz>) {
        effective_speeds(
            self.capacities.advertised(),
            &self.placement,
            &self.job_caps(),
            blocked,
            self.config.cap_transactional,
        )
    }

    /// Whether the speed tables hold, bit for bit, what a from-scratch
    /// derivation returns right now: the event loop's debug cross-check.
    fn speeds_are_current(&self) -> bool {
        fn same<K: Ord>(a: &BTreeMap<K, CpuMhz>, b: &BTreeMap<K, CpuMhz>) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.as_f64().to_bits() == y.1.as_f64().to_bits())
        }
        let (mut job_speeds, mut app_speeds) = self.speeds_from_scratch(&self.blocked_set());
        if self.overcommit.is_some() {
            self.apply_overcommit(&mut job_speeds, &mut app_speeds);
        }
        let kept = self.speeds.to_maps();
        same(&job_speeds, &kept.0) && same(&app_speeds, &kept.1)
    }

    /// Enact a controller-issued placement: validate against the
    /// advertised capacities, then apply the diff as job lifecycle
    /// transitions with their overheads.
    fn enact(&mut self, next: Placement) -> Result<usize> {
        {
            let _validate = self.recorder.span(self.obs.validate);
            // Liveness first, then the structural and capacity checks
            // over what the simulator already holds indexed.
            for &job in next.jobs.keys() {
                if !self.job_mgr.job(job)?.is_active() {
                    return Err(SlaqError::IllegalState(format!(
                        "controller placed completed {job}"
                    )));
                }
            }
            next.validate_with(
                self.capacities.advertised(),
                |node| self.speeds.position(node),
                |app| {
                    let spec = &self.apps.iter().find(|a| a.id == app)?.spec;
                    Some((spec.mem_per_instance, spec.max_instances))
                },
                |job| Some(self.job_mgr.job(job).ok()?.spec.mem),
            )?;
        }

        let _enact = self.recorder.span(self.obs.enact);
        let changes = next.diff(&self.placement);
        for change in &changes {
            match *change {
                PlacementChange::StartJob { job, node } => {
                    let j = self.job_mgr.job_mut(job)?;
                    let overhead = match j.state {
                        JobState::Pending => {
                            j.start(node, self.now)?;
                            self.config.overheads.start
                        }
                        JobState::Suspended { .. } => {
                            j.resume(node)?;
                            self.config.overheads.resume
                        }
                        _ => {
                            return Err(SlaqError::IllegalState(format!(
                                "{job} cannot start from {:?}",
                                j.state
                            )))
                        }
                    };
                    if !overhead.is_zero() {
                        self.blocked_until.insert(job, self.now + overhead);
                    }
                }
                PlacementChange::SuspendJob { job, .. } => {
                    self.job_mgr.job_mut(job)?.suspend()?;
                    self.blocked_until.remove(&job);
                }
                PlacementChange::MigrateJob { job, to, .. } => {
                    self.job_mgr.job_mut(job)?.migrate(to)?;
                    let overhead = self.config.overheads.migrate;
                    if !overhead.is_zero() {
                        self.blocked_until.insert(job, self.now + overhead);
                    }
                }
                // Instances are stateless in the simulator: the new
                // placement map is the whole truth.
                PlacementChange::StartInstance { .. } | PlacementChange::StopInstance { .. } => {}
            }
        }
        self.placement = next;
        self.reindex_speeds();
        Ok(changes.len())
    }

    /// Draw the overbooking bite factor of every node for the cycle
    /// `self.cycles` now names.
    fn draw_bites(&mut self) {
        if let Some((seed, oc)) = &self.overcommit {
            let cycle = self.cycles as u64;
            self.bites.clear();
            self.bites.extend(
                self.nodes
                    .iter()
                    .map(|n| crate::chaos::bite_factor(*seed, cycle, n.id, oc)),
            );
        }
    }

    /// Next completion instant under current speeds (`NEVER` if none).
    fn next_completion(&self) -> SimTime {
        let mut earliest = SimTime::NEVER;
        for j in self.job_mgr.jobs() {
            if !j.is_running() {
                continue;
            }
            let speed = self.speeds.job_speed(j.id);
            if speed.is_zero() {
                continue;
            }
            let t = self.now + SimDuration::from_secs(j.remaining.secs_at(speed));
            earliest = earliest.min(t);
        }
        earliest
    }

    /// Run to the horizon under `controller`.
    pub fn run(&mut self, controller: &mut dyn Controller) -> Result<SimReport> {
        // `SLAQ_TRACE` is an alias for installing an echoing recorder:
        // the structured event log replaces the old ad-hoc eprintln
        // tracer. Resolved once per run, not per event.
        if std::env::var_os("SLAQ_TRACE").is_some() && !self.recorder.is_enabled() {
            self.set_recorder(Recorder::with_echo(true));
        }
        if self.recorder.is_enabled() {
            controller.set_recorder(self.recorder.clone());
        }
        if self.capacities.refresh(&self.nodes, self.now) {
            self.speeds.mark_all_dirty();
        }
        self.draw_bites();
        // Everything between two control cycles is one `sim.advance`.
        let mut advance_span = Some(self.recorder.span(self.obs.advance));
        loop {
            self.recorder.count(self.obs.events, 1);
            debug_assert!(
                self.capacities.is_current(&self.nodes, self.now),
                "stale capacities at {}",
                self.now
            );
            // Bring the speeds up to date: the marked nodes under the
            // advertised capacities, clipped to this cycle's true ones.
            let flushed = self.speeds.flush(
                self.capacities.advertised(),
                self.config.cap_transactional,
                truth_of(self.capacities.physical(), &self.bites),
            );
            if flushed.recomputed > 0 && self.recorder.is_enabled() {
                self.recorder.count(self.obs.map_rebuilds, 1);
                self.recorder
                    .count(self.obs.nodes_recomputed, flushed.recomputed as u64);
                self.recorder
                    .count(self.obs.nodes_clipped, flushed.clipped as u64);
            }
            debug_assert!(self.speeds_are_current(), "stale speeds at {}", self.now);

            // Next event.
            let t_arrival = self
                .arrivals
                .last()
                .map(|&(t, _)| t)
                .unwrap_or(SimTime::NEVER);
            let t_done = self.next_completion();
            let t_unblock = self
                .blocked_until
                .values()
                .filter(|&&t| t > self.now)
                .fold(SimTime::NEVER, |acc, &t| acc.min(t));
            let t_next = self
                .next_control
                .min(t_arrival)
                .min(t_done)
                .min(t_unblock)
                .min(self.capacities.next_boundary())
                .min(self.next_resize_event())
                .min(self.config.horizon);
            if self.recorder.is_enabled() {
                self.recorder.emit(
                    self.obs.event,
                    &[
                        ("now", self.now.as_secs()),
                        ("next", t_next.as_secs()),
                        ("ctrl", self.next_control.as_secs()),
                        ("arr", t_arrival.as_secs()),
                        ("done", t_done.as_secs()),
                        ("unblk", t_unblock.as_secs()),
                    ],
                );
            }

            // Advance to t_next. Run the advance even for zero-length
            // intervals: sub-nanosecond work remainders complete through
            // the tolerance in `Job::advance` (otherwise the completion
            // event would re-fire at the same instant forever).
            let dt = t_next - self.now;
            let speeds = &self.speeds;
            let done = self
                .job_mgr
                .advance_running(self.now, dt, |id| speeds.job_speed(id));
            if !done.is_empty() {
                self.recorder.count(self.obs.ev_completion, 1);
            }
            for (job, _) in done {
                self.placement.jobs.remove(&job);
                self.blocked_until.remove(&job);
                self.speeds.complete_job(job);
            }
            if !dt.is_zero() {
                for app in &mut self.apps {
                    app.observe_interval(self.now, dt, self.speeds.app_speed(app.id));
                }
            }
            let prev_now = self.now;
            self.now = t_next;
            if self.capacities.refresh(&self.nodes, self.now) {
                self.speeds.mark_all_dirty();
                self.recorder.count(self.obs.ev_boundary, 1);
            }
            self.apply_outages()?;
            self.apply_resizes();

            if self.now >= self.config.horizon && prev_now >= self.config.horizon {
                break;
            }

            // Arrivals at or before now: a pending job draws no CPU, so
            // they mark nothing.
            let queued = self.arrivals.len();
            while self.arrivals.last().is_some_and(|&(t, _)| t <= self.now) {
                let (t, spec) = self.arrivals.pop().expect("checked non-empty");
                self.job_mgr.submit(spec, t)?;
            }
            if self.arrivals.len() < queued {
                self.recorder.count(self.obs.ev_arrival, 1);
            }

            // Control cycle.
            if self.now >= self.next_control {
                self.recorder.count(self.obs.ev_control, 1);
                drop(advance_span.take());
                self.run_control(controller)?;
                self.next_control = self.now + self.config.control_period;
                advance_span = Some(self.recorder.span(self.obs.advance));
            }

            // Drop stale unblock entries: those jobs start drawing CPU.
            let now = self.now;
            let blocked = self.blocked_until.len();
            self.blocked_until.retain(|&job, &mut t| {
                if t <= now {
                    self.speeds.unblock(job);
                }
                t > now
            });
            if self.blocked_until.len() < blocked {
                self.recorder.count(self.obs.ev_unblock, 1);
            }

            if self.now >= self.config.horizon {
                break;
            }
        }
        drop(advance_span);

        Ok(SimReport {
            metrics: self.metrics.clone(),
            job_stats: self.job_mgr.stats(),
            cycles: self.cycles,
            total_changes: self.total_changes,
        })
    }

    /// One control cycle, staged as the control plane's pipeline:
    /// **sense** (flush cycle measurements, collect observations),
    /// **solve** (hand the inputs to the controller, which solves inline;
    /// a pipelined controller returns an earlier cycle's reconciled plan
    /// instead of the one it just solved), and **actuate** (enact the
    /// returned placement and record the mechanical series).
    fn run_control(&mut self, controller: &mut dyn Controller) -> Result<()> {
        let _cycle = self.recorder.span(self.obs.cycle);
        // Stamp the audit ring before any stage runs, so decisions made
        // anywhere in this cycle (router, solver, reconcile) tag it.
        self.recorder.audit_begin_cycle(self.cycles as u64);
        // --- route ---
        {
            let _route = self.recorder.span(self.obs.route);
            self.route_cycle();
        }
        // --- sense ---
        let sense_span = self.recorder.span(self.obs.sense);
        let observations = self.sense();
        // Every stage of the cycle (solve, enact's validation, the metric
        // series) reads the capacities in force at `now`.
        let inputs = ControlInputs {
            now: self.now,
            nodes: self.capacities.advertised(),
            current: &self.placement,
            jobs: &self.job_mgr,
            apps: &observations,
        };
        // The tracker's only reader is the histogram: asleep while the
        // recorder is off, which it is for a whole run or not at all.
        if self.recorder.is_enabled() {
            let dirty = self.delta_tracker.observe(&inputs).len();
            self.recorder.observe(self.obs.delta_dirty, dirty as u64);
        }
        drop(sense_span);
        // --- solve ---
        let next = {
            let _solve = self.recorder.span(self.obs.solve);
            controller.control(&inputs, &mut self.metrics)
        };
        // --- actuate ---
        let actuate_span = self.recorder.span(self.obs.actuate);
        let n_changes = self.enact(next)?;
        self.cycles += 1;
        self.draw_bites();
        self.total_changes += n_changes;
        {
            let _series = self.recorder.span(self.obs.series);
            self.record_cycle_series(n_changes);
            if self.recorder.is_enabled() && !self.slo_ids.is_empty() {
                self.observe_slos(n_changes);
            }
        }
        drop(actuate_span);
        Ok(())
    }

    /// The routing stage, run before sensing: batch each app's cycle
    /// requests (counts, never individual events), apportion them across
    /// the app's live instances, and install the resulting effective-
    /// work discount on the runtime for the coming interval. Records the
    /// per-app warmth/discount series under interned keys plus the
    /// aggregate `route_requests` / `route_quality` / `route_discount`
    /// series. A no-op without an installed tier.
    fn route_cycle(&mut self) {
        let Some(tier) = self.routing.as_mut() else {
            return;
        };
        let t = self.now;
        let window = self.config.control_period;
        let mut total_requests: u64 = 0;
        let mut hit_weighted = 0.0;
        let mut disc_weighted = 0.0;
        let mut instances: Vec<(slaq_types::NodeId, f64)> = Vec::new();
        for app in &mut self.apps {
            let batch = app.request_batch(t, window);
            instances.clear();
            if let Some(slices) = self.placement.apps.get(&app.id) {
                instances.extend(slices.iter().map(|(&n, &c)| (n, c.as_f64())));
            }
            let out = tier.route_app(app.id, batch.count, &instances);
            app.set_route_discount(out.discount);
            let (warm_key, disc_key) = match self.route_keys.get(&app.id) {
                Some(&ks) => ks,
                None => {
                    let keys = tier.series_keys(app.id);
                    let ks = (
                        self.metrics.intern(&keys.warm),
                        self.metrics.intern(&keys.discount),
                    );
                    self.route_keys.insert(app.id, ks);
                    ks
                }
            };
            self.metrics.record_key(warm_key, t, out.warm_hit);
            self.metrics.record_key(disc_key, t, out.discount);
            total_requests = total_requests.saturating_add(batch.count);
            hit_weighted += out.warm_hit * batch.count as f64;
            disc_weighted += out.discount * batch.count as f64;
        }
        self.metrics
            .record_key(self.keys.route_requests, t, total_requests as f64);
        if total_requests > 0 {
            let n = total_requests as f64;
            self.metrics
                .record_key(self.keys.route_quality, t, hit_weighted / n);
            self.metrics
                .record_key(self.keys.route_discount, t, disc_weighted / n);
        }
    }

    /// The sensing stage: flush per-app measurements of the cycle that
    /// just ended (recording the measured series) and collect the
    /// observations the controller may see. With an affinity-publishing
    /// routing tier installed, each observation also carries the tier's
    /// per-node warmth scores as a placement hint.
    fn sense(&mut self) -> Vec<AppObservation> {
        for (i, app) in self.apps.iter_mut().enumerate() {
            let flushed = app.flush_cycle();
            self.last_app_flush[i] = flushed.map(|(rt, u)| (rt.as_secs(), u));
            if let Some((rt, u)) = flushed {
                let keys = self.app_keys[i];
                self.metrics.record_key(keys.rt, self.now, rt.as_secs());
                self.metrics.record_key(keys.utility, self.now, u);
                self.metrics
                    .record_key(self.keys.trans_utility, self.now, u);
            }
        }
        let mut observations: Vec<AppObservation> =
            self.apps.iter().map(|a| a.observation(self.now)).collect();
        if let Some(tier) = &self.routing {
            if tier.publishes_affinity() {
                for obs in &mut observations {
                    obs.affinity = tier.affinity(obs.id);
                }
            }
        }
        observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::{AppId, MemMb, NodeId, Work};
    use slaq_utility::{CompletionGoal, ResponseTimeGoal};

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 4, CpuMhz::new(3000.0), MemMb::new(4096))
    }

    fn config(horizon: f64) -> SimConfig {
        SimConfig {
            control_period: SimDuration::from_secs(600.0),
            horizon: SimTime::from_secs(horizon),
            overheads: OverheadConfig {
                start: SimDuration::ZERO,
                resume: SimDuration::ZERO,
                migrate: SimDuration::ZERO,
            },
            cap_transactional: false,
        }
    }

    fn job_spec(work_secs: f64, submit: f64) -> JobSpec {
        JobSpec {
            name: format!("j@{submit}"),
            total_work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::from_secs(submit),
                SimDuration::from_secs(work_secs),
                1.25,
                2.0,
            )
            .unwrap(),
        }
    }

    /// Controller that keeps whatever runs and FCFS-places every pending
    /// job on the first node with memory room, giving each its max speed
    /// if CPU remains.
    struct FcfsController;

    impl Controller for FcfsController {
        fn control(&mut self, inputs: &ControlInputs<'_>, _m: &mut MetricsSink) -> Placement {
            let mut next = inputs.current.clone();
            for job in inputs.jobs.jobs() {
                if !job.is_active() || next.jobs.contains_key(&job.id) {
                    continue;
                }
                // Find a node with memory and CPU room.
                for node in inputs.nodes {
                    let mem_used: u64 = inputs
                        .jobs
                        .jobs()
                        .iter()
                        .filter(|j| next.job_node(j.id) == Some(node.id))
                        .map(|j| j.spec.mem.as_u64())
                        .sum();
                    let cpu_used = next.node_cpu_used(node.id);
                    if mem_used + job.spec.mem.as_u64() <= node.mem.as_u64()
                        && (node.cpu - cpu_used).as_f64() >= job.spec.max_speed.as_f64()
                    {
                        next.jobs.insert(job.id, (node.id, job.spec.max_speed));
                        break;
                    }
                }
            }
            next
        }
    }

    /// Controller that returns a fixed sequence of placements.
    struct Scripted {
        script: Vec<Placement>,
        at: usize,
    }

    impl Controller for Scripted {
        fn control(&mut self, inputs: &ControlInputs<'_>, _m: &mut MetricsSink) -> Placement {
            let p = self
                .script
                .get(self.at)
                .cloned()
                .unwrap_or_else(|| inputs.current.clone());
            self.at += 1;
            p
        }
    }

    #[test]
    fn single_job_runs_to_completion_at_full_speed() {
        let mut sim = Simulator::new(&cluster(), config(3000.0));
        sim.add_arrivals(vec![(SimTime::ZERO, job_spec(1000.0, 0.0))]);
        let report = sim.run(&mut FcfsController).unwrap();
        assert_eq!(report.job_stats.completed, 1);
        assert_eq!(report.job_stats.goals_met, 1);
        assert!((report.job_stats.mean_achieved_utility - 1.0).abs() < 1e-9);
        // Arrival at 0, first control at 0 places it, completes at 1000.
        let done = sim.jobs().job(JobId::new(0)).unwrap();
        assert!(
            matches!(done.state, JobState::Completed { at } if (at.as_secs() - 1000.0).abs() < 1e-6)
        );
    }

    #[test]
    fn start_overhead_delays_completion() {
        let mut cfg = config(3000.0);
        cfg.overheads.start = SimDuration::from_secs(100.0);
        let mut sim = Simulator::new(&cluster(), cfg);
        sim.add_arrivals(vec![(SimTime::ZERO, job_spec(1000.0, 0.0))]);
        sim.run(&mut FcfsController).unwrap();
        let done = sim.jobs().job(JobId::new(0)).unwrap();
        assert!(
            matches!(done.state, JobState::Completed { at } if (at.as_secs() - 1100.0).abs() < 1e-6),
            "{:?}",
            done.state
        );
    }

    #[test]
    fn arrival_mid_experiment_waits_for_next_cycle() {
        let mut sim = Simulator::new(&cluster(), config(3000.0));
        // Arrives at 650 s; cycles at 0/600/1200 ⇒ placed at 1200.
        sim.add_arrivals(vec![(SimTime::from_secs(650.0), job_spec(500.0, 650.0))]);
        sim.run(&mut FcfsController).unwrap();
        let done = sim.jobs().job(JobId::new(0)).unwrap();
        assert!(
            matches!(done.state, JobState::Completed { at } if (at.as_secs() - 1700.0).abs() < 1e-6),
            "{:?}",
            done.state
        );
    }

    #[test]
    fn memory_constrains_concurrent_jobs_fcfs_queues_rest() {
        // 2 nodes × 3 job slots = 6 concurrent; submit 8 equal jobs.
        let mut sim = Simulator::new(&cluster(), config(4000.0));
        let arrivals: Vec<(SimTime, JobSpec)> = (0..8)
            .map(|i| (SimTime::ZERO, job_spec(1000.0, 0.0 + i as f64 * 0.0)))
            .collect();
        sim.add_arrivals(arrivals);
        let report = sim.run(&mut FcfsController).unwrap();
        // 6 finish at ~1000; the 2 queued start at the 1200 cycle, done 2200.
        assert_eq!(report.job_stats.completed, 8);
        let completed_at: Vec<f64> = sim
            .jobs()
            .jobs()
            .iter()
            .filter_map(|j| match j.state {
                JobState::Completed { at } => Some(at.as_secs()),
                _ => None,
            })
            .collect();
        assert_eq!(
            completed_at.iter().filter(|&&t| t < 1100.0).count(),
            6,
            "{completed_at:?}"
        );
        assert_eq!(completed_at.iter().filter(|&&t| t > 2000.0).count(), 2);
    }

    #[test]
    fn scripted_suspension_pauses_progress() {
        let mut run_then_suspend = Vec::new();
        let mut p0 = Placement::empty();
        p0.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        run_then_suspend.push(p0.clone()); // t=0: run
        run_then_suspend.push(Placement::empty()); // t=600: suspend
        run_then_suspend.push(p0); // t=1200: resume
        let mut sim = Simulator::new(&cluster(), config(3000.0));
        sim.add_arrivals(vec![(SimTime::ZERO, job_spec(1000.0, 0.0))]);
        let mut ctrl = Scripted {
            script: run_then_suspend,
            at: 0,
        };
        let report = sim.run(&mut ctrl).unwrap();
        // 600 s done before suspend; 400 s left after resume at 1200 ⇒ 1600.
        let done = sim.jobs().job(JobId::new(0)).unwrap();
        assert!(
            matches!(done.state, JobState::Completed { at } if (at.as_secs() - 1600.0).abs() < 1e-6),
            "{:?}",
            done.state
        );
        assert_eq!(report.job_stats.disruptions, 1);
    }

    #[test]
    fn overcommitted_placement_is_rejected() {
        // 4 jobs on one node: 4×1280 MB > 4096 MB.
        let mut bad = Placement::empty();
        for i in 0..4 {
            bad.jobs
                .insert(JobId::new(i), (NodeId::new(0), CpuMhz::new(1000.0)));
        }
        let mut sim = Simulator::new(&cluster(), config(2000.0));
        sim.add_arrivals(
            (0..4)
                .map(|_| (SimTime::ZERO, job_spec(1000.0, 0.0)))
                .collect(),
        );
        let mut ctrl = Scripted {
            script: vec![bad],
            at: 0,
        };
        let err = sim.run(&mut ctrl).unwrap_err();
        assert!(matches!(err, SlaqError::CapacityViolation { .. }), "{err}");
    }

    #[test]
    fn transactional_app_measures_rt_and_utility() {
        struct AppOnly;
        impl Controller for AppOnly {
            fn control(&mut self, inputs: &ControlInputs<'_>, _m: &mut MetricsSink) -> Placement {
                // One instance on each node, guarantee = half the node.
                let mut p = Placement::empty();
                for node in inputs.nodes {
                    p.apps
                        .entry(AppId::new(0))
                        .or_default()
                        .insert(node.id, node.cpu * 0.5);
                }
                p
            }
        }
        let mut sim = Simulator::new(&cluster(), config(1800.0));
        let spec = slaq_perfmodel::TransactionalSpec {
            name: "shop".into(),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
            mem_per_instance: MemMb::new(1024),
            max_instances: 2,
            min_instances: 1,
            u_cap: 0.9,
        };
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), spec, Box::new(|_| 5.0), 0.5).unwrap(),
        );
        let report = sim.run(&mut AppOnly).unwrap();
        // Effective alloc = full cluster (work-conserving spare): 24 000.
        // RT = 2000/(24 000 − 10 000) ≈ 0.1429 s ⇒ u ≈ 0.714.
        let u = report.metrics.last("trans_utility").unwrap();
        assert!((u - (1.0 - 0.14285714 / 0.5)).abs() < 1e-3, "{u}");
        let rt = report.metrics.last("trans_rt_app0").unwrap();
        assert!((rt - 0.14285714).abs() < 1e-3, "{rt}");
    }

    #[test]
    fn metrics_track_job_population() {
        let mut sim = Simulator::new(&cluster(), config(2500.0));
        sim.add_arrivals(
            (0..3)
                .map(|i| {
                    (
                        SimTime::from_secs(100.0 * i as f64),
                        job_spec(5000.0, 100.0 * i as f64),
                    )
                })
                .collect(),
        );
        let report = sim.run(&mut FcfsController).unwrap();
        assert_eq!(report.metrics.last("jobs_running"), Some(3.0));
        assert!(report.cycles >= 4);
        assert!(report.total_changes >= 3);
    }

    #[test]
    fn delta_tracker_sleeps_while_the_recorder_is_off() {
        // A job that outlives the horizon: a primed tracker holds its
        // fingerprint, an unprimed one reads it as arrived.
        let arrived_after_run = |recorder: Recorder| {
            let mut sim = Simulator::new(&cluster(), config(1800.0));
            sim.set_recorder(recorder);
            sim.add_arrivals(vec![(SimTime::ZERO, job_spec(5000.0, 0.0))]);
            sim.run(&mut FcfsController).unwrap();
            let inputs = ControlInputs {
                now: sim.now,
                nodes: sim.capacities.advertised(),
                current: &sim.placement,
                jobs: &sim.job_mgr,
                apps: &[],
            };
            sim.delta_tracker.observe(&inputs).arrived_jobs
        };
        assert_eq!(arrived_after_run(Recorder::default()), 1);
        assert_eq!(arrived_after_run(Recorder::enabled()), 0);
    }
}
