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
//! (`enact` and an outage that stripped something mark the nodes whose
//! jobs or instances changed, a completion and an unblock mark one node,
//! a capacity boundary or a re-drawn bite marks the nodes it moves; an
//! arrival or a resize marks nothing), and the top of each event flushes
//! the marked nodes — so the freed capacity of a completed job is still
//! redistributed at once. The loop's consumers — the
//! per-node progress, the per-application interval — read the index's
//! dense tables, and the overbooking clip is part of
//! the flush. The observation stage of a control cycle (`observe`) asks
//! the same index its what-if questions: every job unblocked and
//! unclipped for the outlook series, kept beside the tables and re-run on
//! the nodes marked since the last cycle ([`NodeSpeeds::project_outlook`]);
//! the upcoming interval's clip factors for the SLO pass, a kernel pass
//! into a scratch ([`NodeSpeeds::project`]) that leaves the tables and the
//! marks alone.
//! Debug builds compare the tables with a from-scratch
//! [`effective_speeds`] plus the map-based clip at every event, and each
//! projection with its from-scratch form at every cycle; no release path
//! calls either. What the faults leave of the fleet is state too, asked
//! of one stage (`faults::FaultModel`, given its [`Faults`] in
//! [`Simulator::new`]): capacities re-derived only for the nodes whose
//! outage or dip boundary the clock crossed, overbooking bite factors
//! drawn once per control cycle, and the resizes due. Only a boundary or
//! an enacted plan can put a live entity on a down node, so the outage
//! strip looks only after one of them.
//!
//! Job progress is integrated node by node ([`Progress`]): each node
//! keeps the instant its jobs' `remaining` is exact at and its earliest
//! completion measured from there, in a min tree whose root is the next
//! completion. An event integrates only the nodes whose speeds it moves —
//! the marked nodes at the top of the next event, before the flush
//! recomputes them; the nodes whose completion is due; a resized job's
//! node — and re-keys only those. Every running job is integrated at a
//! control instant, at the horizon and before an outage strip; an
//! arrival integrates nothing.

use crate::apps::{AppObservation, TransactionalRuntime};
use crate::cluster::{effective_speeds, NodeSpeeds, Projection};
use crate::faults::{FaultModel, Faults};
use crate::metrics::{MetricKey, MetricsSink};
use crate::progress::Progress;
use serde::{Deserialize, Serialize};
use slaq_jobs::{JobManager, JobSpec, JobState, JobStats};
use slaq_obs::Recorder;
use slaq_placement::problem::NodeCapacity;
use slaq_placement::{Placement, PlacementChange};
use slaq_types::{ClusterTopology, CpuMhz, JobId, MemMb, Result, SimDuration, SimTime, SlaqError};
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
    /// timing wrapper implements it, until the ROADMAP's benchmark
    /// surface diet stops spelling it.
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
    /// Scratch of the SLO pass's what-if kernel pass over `speeds`
    /// (`observe`), kept alive between cycles.
    slo_projection: Projection,
    metrics: MetricsSink,
    config: SimConfig,
    /// The physical / advertised capacities in force at `now` (refreshed
    /// whenever `now` moves), this cycle's overbooking bites and the
    /// resize schedule.
    faults: FaultModel,
    /// Whether a live entity may sit on a down node: set when a refresh
    /// moved a capacity or a plan was enacted, cleared by
    /// `apply_outages`.
    outages_due: bool,
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
    /// unless installed via [`Simulator::set_recorder`]; observes only,
    /// never steers.
    recorder: Recorder,
    obs: ObsKeys,
    /// Interned [`MetricKey`]s for the static per-cycle series.
    keys: SimSeriesKeys,
    /// Interned per-app series keys, parallel to `apps`.
    app_keys: Vec<AppMetricKeys>,
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
    /// Per node, where its running jobs' `remaining` is exact and the
    /// earliest completion it implies; behind `now` on every node no event
    /// touched since.
    progress: Progress,
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

/// One app's series: measured response time and utility, and the
/// routing tier's warm-hit and work discount. Interned when the app is
/// added; a series never recorded stays invisible to the sink.
#[derive(Clone, Copy)]
struct AppMetricKeys {
    rt: MetricKey,
    utility: MetricKey,
    route_warm: MetricKey,
    route_discount: MetricKey,
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
    events: slaq_obs::Key,
    /// The event census: what an iteration did at the instant it
    /// advanced to (one iteration may bump several).
    ev_arrival: slaq_obs::Key,
    ev_completion: slaq_obs::Key,
    ev_unblock: slaq_obs::Key,
    ev_boundary: slaq_obs::Key,
    ev_resize: slaq_obs::Key,
    ev_control: slaq_obs::Key,
    /// Iterations that advanced at least one node's job progress …
    ev_integrate: slaq_obs::Key,
    /// … and the calls to `Job::advance` they made.
    jobs_advanced: slaq_obs::Key,
    speed_rebuilds: slaq_obs::Key,
    /// The nodes those updates found changed, laid out anew and marked …
    nodes_changed: slaq_obs::Key,
    /// … and the jobs they wrote into the index.
    jobs_laid_out: slaq_obs::Key,
    /// Plans `enact` sent to the full [`Simulator::validate`].
    validate_full: slaq_obs::Key,
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
            events: rec.key("sim.events"),
            ev_arrival: rec.key("sim.events.arrival"),
            ev_completion: rec.key("sim.events.completion"),
            ev_unblock: rec.key("sim.events.unblock"),
            ev_boundary: rec.key("sim.events.boundary"),
            ev_resize: rec.key("sim.events.resize"),
            ev_control: rec.key("sim.events.control"),
            ev_integrate: rec.key("sim.events.integrate"),
            jobs_advanced: rec.key("sim.progress.jobs_advanced"),
            speed_rebuilds: rec.key("sim.speeds.rebuilds"),
            nodes_changed: rec.key("sim.speeds.nodes_changed"),
            jobs_laid_out: rec.key("sim.speeds.jobs_laid_out"),
            validate_full: rec.key("sim.validate.full"),
            map_rebuilds: rec.key("sim.speeds.map_rebuilds"),
            nodes_recomputed: rec.key("sim.speeds.nodes_recomputed"),
            nodes_clipped: rec.key("sim.speeds.nodes_clipped"),
            delta_dirty: rec.key("delta.dirty"),
        }
    }
}

impl Simulator {
    /// Create a simulator over `cluster`, perturbed by `faults`.
    pub fn new(cluster: &ClusterTopology, config: SimConfig, faults: Faults) -> Self {
        let mut metrics = MetricsSink::new();
        let keys = SimSeriesKeys::intern(&mut metrics);
        let recorder = Recorder::off();
        let obs = ObsKeys::intern(&recorder);
        let nodes = NodeCapacity::from_cluster(cluster);
        Simulator {
            speeds: NodeSpeeds::new(&nodes),
            faults: FaultModel::new(&nodes, faults, config.horizon),
            progress: Progress::new(nodes.len()),
            slo_projection: Projection::default(),
            nodes,
            job_mgr: JobManager::new(),
            apps: Vec::new(),
            arrivals: Vec::new(),
            placement: Placement::empty(),
            blocked_until: BTreeMap::new(),
            metrics,
            config,
            outages_due: false,
            delta_tracker: crate::snapshot::DeltaTracker::default(),
            routing: None,
            recorder,
            obs,
            keys,
            app_keys: Vec::new(),
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

    /// Apply every elasticity resize due at or before `now`: a seeded
    /// draw picks one active job and grows or shrinks its remaining
    /// work. Deterministic per event index, independent of controller
    /// choices only insofar as the active-job set is.
    fn apply_resizes(&mut self) {
        let mut resized = false;
        while let Some(k) = self.faults.take_resize(self.now) {
            resized = true;
            let active: Vec<JobId> = self
                .job_mgr
                .active()
                .filter(|j| j.remaining.as_f64() > 0.0)
                .map(|j| j.id)
                .collect();
            if active.is_empty() {
                continue;
            }
            let (target, factor) = self.faults.resize_draw(k, &active);
            // Only the target's node is read: bring it up to now, scale,
            // and re-key it (no speed moved, so nothing is marked).
            let node = self.speeds.placed(target).map(|(pos, _)| pos);
            if let Some(pos) = node {
                let done =
                    self.progress
                        .catch_up_node(&mut self.job_mgr, &self.speeds, pos, self.now);
                self.retire(done);
                debug_assert_eq!(self.progress.epoch(pos), self.now, "resize behind now");
            }
            if let Ok(job) = self.job_mgr.job_mut(target) {
                job.remaining = job.remaining * factor;
            }
            if let Some(pos) = node {
                self.progress.rekey_node(pos, &self.job_mgr, &self.speeds);
            }
        }
        if resized {
            self.recorder.count(self.obs.ev_resize, 1);
        }
    }

    /// Bring the capacities up to `now` and mark the nodes whose
    /// capacity moved. Returns whether anything moved.
    fn refresh_capacities(&mut self) -> bool {
        let crossed = self.faults.refresh(&self.nodes, self.now);
        if crossed.is_empty() {
            return false;
        }
        for pos in crossed.iter().filter_map(|b| b.node) {
            self.speeds.mark(pos as usize);
        }
        self.outages_due = true;
        true
    }

    /// Whether a down node at `now` hosts a live job or an instance.
    fn down_node_hosts_anything(&self) -> bool {
        let mut nodes = self.faults.advertised().iter().enumerate();
        nodes.any(|(pos, n)| n.cpu.is_zero() && self.speeds.hosts_anything(pos))
    }

    /// Strip the placement of anything on nodes that are down at `now`:
    /// running jobs are force-suspended (they lose their in-flight work's
    /// node but keep their progress), instances vanish, and the stripped
    /// nodes are re-indexed. Only a capacity that moved or an enacted plan can
    /// put a live entity on a down node, so the strip looks only after
    /// one of them (`outages_due`), and then does nothing while no down
    /// node hosts anything — the index answers that per node without a
    /// look at the placement.
    fn apply_outages(&mut self) -> Result<()> {
        if !std::mem::take(&mut self.outages_due) {
            debug_assert!(
                !self.down_node_hosts_anything(),
                "unstripped down node at {}",
                self.now
            );
            return Ok(());
        }
        if !self.down_node_hosts_anything() {
            return Ok(());
        }
        // The down nodes' jobs ran until now, and the update below
        // refills their speeds: integrate every node first.
        if !self.progress.all_at(self.now) {
            let done = self
                .progress
                .integrate_all(&mut self.job_mgr, &self.speeds, self.now);
            self.retire(done);
        }
        let advertised = self.faults.advertised();
        let down = |node| {
            self.speeds
                .position(node)
                .is_some_and(|pos| advertised[pos].cpu.is_zero())
        };
        let mut stripped = self.placement.clone();
        let victims: Vec<JobId> = stripped
            .jobs
            .iter()
            .filter(|&(_, &(n, _))| down(n))
            .map(|(&j, _)| j)
            .collect();
        for job in victims {
            self.job_mgr.job_mut(job)?.suspend()?;
            stripped.jobs.remove(&job);
            self.blocked_until.remove(&job);
        }
        for slices in stripped.apps.values_mut() {
            slices.retain(|&n, _| !down(n));
        }
        self.speeds.merge(&self.placement, &stripped);
        self.install(stripped);
        Ok(())
    }

    /// Register a transactional application.
    pub fn add_app(&mut self, app: TransactionalRuntime) {
        let id = app.id;
        self.app_keys.push(AppMetricKeys {
            rt: self.metrics.intern(&format!("trans_rt_{id}")),
            utility: self.metrics.intern(&format!("trans_utility_{id}")),
            route_warm: self.metrics.intern(&format!("route_warm_{id}")),
            route_discount: self.metrics.intern(&format!("route_disc_{id}")),
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
            .active()
            .filter(|j| j.is_running())
            .map(|j| (j.id, j.spec.max_speed))
            .collect()
    }

    /// Put `next` in force in place of the placement it replaces or
    /// strips, which `speeds` has merged it with, and bring the speeds
    /// along: the nodes whose jobs or instances changed are laid out anew
    /// and marked, where a running job is capped at its maximum speed
    /// (what `job_caps` lists) and blocked while its latency runs (what
    /// `blocked_set` lists).
    fn install(&mut self, next: Placement) {
        let now = self.now;
        debug_assert!(self.progress.all_at(now), "re-index behind now");
        self.placement = next;
        let (changed, laid) = self.speeds.apply(
            &self.placement,
            |id| match self.job_mgr.job(id) {
                Ok(job) if job.is_running() => Some(job.spec.max_speed),
                _ => None,
            },
            |id| self.blocked_until.get(&id).is_some_and(|&t| t > now),
        );
        self.recorder.count(self.obs.speed_rebuilds, 1);
        self.recorder.count(self.obs.nodes_changed, changed as u64);
        self.recorder.count(self.obs.jobs_laid_out, laid as u64);
    }

    /// The unclipped speeds under `blocked`, derived from scratch: the
    /// oracle the debug cross-checks hold the index to.
    fn speeds_from_scratch(
        &self,
        blocked: &BTreeSet<JobId>,
    ) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<slaq_types::AppId, CpuMhz>) {
        effective_speeds(
            self.faults.advertised(),
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
        if self.faults.overbooked() {
            self.apply_overcommit(&mut job_speeds, &mut app_speeds);
        }
        let kept = self.speeds.to_maps();
        same(&job_speeds, &kept.0) && same(&app_speeds, &kept.1)
    }

    /// The full verdict on a plan: every job it places must be active,
    /// then [`Placement::validate_with`] over the advertised capacities
    /// and what the simulator already holds indexed.
    fn validate(&self, next: &Placement) -> Result<()> {
        for &job in next.jobs.keys() {
            if !self.job_mgr.job(job)?.is_active() {
                return Err(SlaqError::IllegalState(format!(
                    "controller placed completed {job}"
                )));
            }
        }
        next.validate_with(
            self.faults.advertised(),
            |node| self.speeds.position(node),
            |app| {
                let spec = &self.apps.iter().find(|a| a.id == app)?.spec;
                Some((spec.mem_per_instance, spec.max_instances))
            },
            |job| Some(self.job_mgr.job(job).ok()?.spec.mem),
        )
    }

    /// Whether `next`, which `speeds` has merged with the plan in force,
    /// passes [`Simulator::validate`], re-checking only what can differ
    /// from the last plan that passed: each application's spec and
    /// instance count; each entry the merge found new, moved or
    /// re-granted (a listed node, a grant of at least −1e-9, a known and
    /// active job); and the CPU and memory totals of each node the plan
    /// changed or at `recheck` — the nodes whose contents or advertised
    /// capacity moved since that plan ([`NodeSpeeds::unchecked`]). Every
    /// other entry and total is the one that passed (a placed job is
    /// running), and each total is summed as `validate_with` sums it, so
    /// `true` means `validate` returns `Ok`; `false` means nothing.
    fn passes_as_delta(&self, next: &Placement, recheck: &[u32]) -> bool {
        let spec = |app| self.apps.iter().find(|a| a.id == app).map(|a| &a.spec);
        let nodes = self.faults.advertised();
        next.apps.iter().all(|(&app, slices)| {
            spec(app).is_some_and(|spec| slices.len() <= spec.max_instances as usize)
        }) && self
            .speeds
            .entered_pass(|job| self.job_mgr.job(job).is_ok_and(|j| j.is_active()))
            && self.speeds.loads_fit(
                recheck,
                |app| spec(app).map_or(MemMb::ZERO, |spec| spec.mem_per_instance),
                |job| self.job_mgr.job(job).map_or(MemMb::ZERO, |j| j.spec.mem),
                |pos, cpu, mem| {
                    cpu.as_f64() <= nodes[pos].cpu.as_f64() + 1e-6 && nodes[pos].mem.fits(mem)
                },
            )
    }

    /// Enact a controller-issued placement: one merge with the plan in
    /// force lists its changes, the nodes it changed and the entries that
    /// entered; a plan that passes [`Simulator::passes_as_delta`] is in,
    /// any other gets [`Simulator::validate`]'s verdict, before any state
    /// moves (so does a plan that changed, with the nodes to re-check,
    /// more than a quarter of the fleet). Then the changes are applied as
    /// job lifecycle transitions with their overheads and the changed
    /// nodes laid out anew.
    fn enact(&mut self, next: Placement) -> Result<usize> {
        {
            let _validate = self.recorder.span(self.obs.validate);
            self.speeds.merge(&self.placement, &next);
            // Re-checking what changed pays while it is a small part of
            // the fleet; past a quarter of the nodes the full checks, one
            // tight walk of the plan, cost less.
            let recheck = self.speeds.unchecked();
            let small = (self.speeds.nodes_changed() + recheck.len()) * 4 <= self.nodes.len();
            if !(small && self.passes_as_delta(&next, recheck)) {
                self.recorder.count(self.obs.validate_full, 1);
                self.validate(&next)?;
            }
            debug_assert!(
                self.validate(&next).is_ok(),
                "accepted a plan validate_with refuses"
            );
            debug_assert_eq!(
                self.speeds.changes(),
                next.diff(&self.placement),
                "the merge's change list is not diff's"
            );
        }

        let _enact = self.recorder.span(self.obs.enact);
        for change in self.speeds.changes() {
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
        let changes = self.speeds.changes().len();
        self.install(next);
        self.speeds.clear_unchecked();
        self.outages_due = true;
        Ok(changes)
    }

    /// Retire the jobs an integration completed: each leaves the live
    /// view, the placement, the blocked set and its node, which is marked.
    fn retire(&mut self, done: Vec<(JobId, SimTime)>) {
        for (job, _) in done {
            self.job_mgr.retire(job);
            self.placement.jobs.remove(&job);
            self.blocked_until.remove(&job);
            self.speeds.complete_job(job);
        }
    }

    /// Run to the horizon under `controller`.
    pub fn run(&mut self, controller: &mut dyn Controller) -> Result<SimReport> {
        if self.recorder.is_enabled() {
            controller.set_recorder(self.recorder.clone());
        }
        // The fault stage derived the capacities and drew the bites at
        // zero: every node's speeds and the outage strip are due.
        self.speeds.mark_all_dirty();
        self.outages_due = true;
        // Everything between two control cycles is one `sim.advance`.
        let mut advance_span = Some(self.recorder.span(self.obs.advance));
        loop {
            self.recorder.count(self.obs.events, 1);
            debug_assert!(
                self.faults.is_current(&self.nodes, self.now),
                "stale capacities at {}",
                self.now
            );
            // Integrate the marked nodes up to now at the speeds they ran
            // at, then bring the speeds up to date — the marked nodes under
            // the advertised capacities, clipped to this cycle's true ones
            // — and re-key those nodes.
            let done = self
                .progress
                .catch_up(&mut self.job_mgr, &self.speeds, self.now);
            self.retire(done);
            let flushed = self.speeds.flush(
                self.faults.advertised(),
                self.config.cap_transactional,
                self.faults.truth(),
            );
            if flushed.recomputed > 0 && self.recorder.is_enabled() {
                self.recorder.count(self.obs.map_rebuilds, 1);
                self.recorder
                    .count(self.obs.nodes_recomputed, flushed.recomputed as u64);
                self.recorder
                    .count(self.obs.nodes_clipped, flushed.clipped as u64);
            }
            self.progress.rekey(&self.job_mgr, &self.speeds);
            debug_assert!(self.speeds_are_current(), "stale speeds at {}", self.now);
            debug_assert!(
                self.progress.keys_are_fresh(&self.job_mgr, &self.speeds),
                "stale completion keys at {}",
                self.now
            );

            // Next event.
            let t_arrival = self
                .arrivals
                .last()
                .map(|&(t, _)| t)
                .unwrap_or(SimTime::NEVER);
            let t_done = self.progress.next_completion();
            let t_unblock = self
                .blocked_until
                .values()
                .filter(|&&t| t > self.now)
                .fold(SimTime::NEVER, |acc, &t| acc.min(t));
            let t_next = self
                .next_control
                .min(t_done)
                .min(t_unblock)
                .min(self.faults.next_boundary())
                .min(self.faults.next_resize())
                .min(self.config.horizon)
                .min(t_arrival);
            // Integrate up to t_next: every running job where the control
            // cycle or the report reads `remaining`, else only the nodes
            // whose completion is due — the speeds hold everywhere else.
            // A due node is integrated even over a zero-length interval:
            // sub-nanosecond work remainders complete through the
            // tolerance in `Job::advance` (otherwise the completion event
            // would re-fire at the same instant forever).
            let done = if t_next >= self.next_control || t_next >= self.config.horizon {
                self.progress
                    .integrate_all(&mut self.job_mgr, &self.speeds, t_next)
            } else {
                self.progress
                    .integrate_due(&mut self.job_mgr, &self.speeds, t_next)
            };
            if !done.is_empty() {
                self.recorder.count(self.obs.ev_completion, 1);
            }
            self.retire(done);
            let dt = t_next - self.now;
            if !dt.is_zero() {
                for app in &mut self.apps {
                    app.observe_interval(self.now, dt, self.speeds.app_speed(app.id));
                }
            }
            let prev_now = self.now;
            self.now = t_next;
            if self.refresh_capacities() {
                self.recorder.count(self.obs.ev_boundary, 1);
            }
            self.apply_outages()?;
            self.apply_resizes();
            let (nodes_advanced, jobs_advanced) = self.progress.take_work();
            if nodes_advanced > 0 {
                self.recorder.count(self.obs.ev_integrate, 1);
                self.recorder.count(self.obs.jobs_advanced, jobs_advanced);
            }

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

            // Latencies that ran out by now: those jobs start drawing CPU.
            // Before the control cycle, so an enactment finds every
            // blocked flag it carries over current.
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

            // Control cycle.
            if self.now >= self.next_control {
                self.recorder.count(self.obs.ev_control, 1);
                drop(advance_span.take());
                self.run_control(controller)?;
                self.next_control = self.now + self.config.control_period;
                advance_span = Some(self.recorder.span(self.obs.advance));
            }

            if self.now >= self.config.horizon {
                break;
            }
        }
        drop(advance_span);
        debug_assert!(self.progress.all_at(self.now), "report behind now");

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
        debug_assert!(self.progress.all_at(self.now), "cycle behind now");
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
            nodes: self.faults.advertised(),
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
        let speeds = &mut self.speeds;
        self.faults
            .draw_bites(&self.nodes, self.cycles as u64, |pos| {
                speeds.mark_flush(pos)
            });
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

    /// The routing stage, run before sensing: count each app's cycle
    /// requests (never individual events), apportion them across the
    /// app's live instances, and install the resulting effective-work
    /// discount on the runtime for the coming interval. Records the
    /// per-app warmth/discount series plus the aggregate
    /// `route_requests` / `route_quality` / `route_discount` series. A
    /// no-op without an installed tier.
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
        for (app, keys) in self.apps.iter_mut().zip(&self.app_keys) {
            let requests = app.requests(t, window);
            instances.clear();
            if let Some(slices) = self.placement.apps.get(&app.id) {
                instances.extend(slices.iter().map(|(&n, &c)| (n, c.as_f64())));
            }
            let out = tier.route_app(app.id, requests, &instances);
            app.set_route_discount(out.discount);
            self.metrics.record_key(keys.route_warm, t, out.warm_hit);
            self.metrics
                .record_key(keys.route_discount, t, out.discount);
            total_requests = total_requests.saturating_add(requests);
            hit_weighted += out.warm_hit * requests as f64;
            disc_weighted += out.discount * requests as f64;
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
    use crate::NodeOutage;
    use slaq_types::{AppId, MemMb, NodeId, Work};
    use slaq_utility::{CompletionGoal, ResponseTimeGoal};

    fn cluster() -> ClusterTopology {
        ClusterTopology::homogeneous(2, 4, 3000.0, 4096)
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
            importance: 1.0,
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
        let mut sim = Simulator::new(&cluster(), config(3000.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), cfg, Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(3000.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(4000.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(3000.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(2000.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(1800.0), Faults::default());
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
        let mut sim = Simulator::new(&cluster(), config(2500.0), Faults::default());
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

    /// `sim.validate.full` counts the plans `enact` sends to the full
    /// `validate`: the first cycle's plan fills both nodes (more than a
    /// quarter of the fleet), and the plans that keep it change nothing
    /// and pass as a delta.
    #[test]
    fn the_full_verdict_is_counted_by_name() {
        let mut sim = Simulator::new(&cluster(), config(1800.0), Faults::default());
        sim.set_recorder(Recorder::enabled());
        sim.add_arrivals(
            (0..4)
                .map(|_| (SimTime::ZERO, job_spec(50_000.0, 0.0)))
                .collect(),
        );
        let report = sim.run(&mut FcfsController).unwrap();
        assert!(report.cycles > 1, "{} cycles", report.cycles);
        assert_eq!(report.metrics.last("jobs_running"), Some(4.0));
        assert_eq!(sim.recorder().counter_value("sim.validate.full"), 1);
    }

    #[test]
    fn delta_tracker_sleeps_while_the_recorder_is_off() {
        // A job that outlives the horizon: a primed tracker holds its
        // fingerprint, an unprimed one reads it as arrived.
        let arrived_after_run = |recorder: Recorder| {
            let mut sim = Simulator::new(&cluster(), config(1800.0), Faults::default());
            sim.set_recorder(recorder);
            sim.add_arrivals(vec![(SimTime::ZERO, job_spec(5000.0, 0.0))]);
            sim.run(&mut FcfsController).unwrap();
            let inputs = ControlInputs {
                now: sim.now,
                nodes: sim.faults.advertised(),
                current: &sim.placement,
                jobs: &sim.job_mgr,
                apps: &[],
            };
            sim.delta_tracker.observe(&inputs).arrived_jobs
        };
        assert_eq!(arrived_after_run(Recorder::default()), 1);
        assert_eq!(arrived_after_run(Recorder::enabled()), 0);
    }

    /// The top of one step of the enactment sweep, as `run` has it: the
    /// marked nodes brought up to now and flushed, every job then run to
    /// `now + dt`, the completions retired, the latencies that ran out
    /// lifted, the capacities refreshed and any down node stripped (the
    /// loop would have stopped at each of those instants). Returns
    /// how many jobs completed, whether a boundary was crossed and
    /// whether a strip changed the placement.
    fn sweep_advance(sim: &mut Simulator, dt: f64) -> (usize, bool, bool) {
        let done = sim
            .progress
            .catch_up(&mut sim.job_mgr, &sim.speeds, sim.now);
        sim.retire(done);
        sim.speeds.flush(
            sim.faults.advertised(),
            sim.config.cap_transactional,
            sim.faults.truth(),
        );
        sim.progress.rekey(&sim.job_mgr, &sim.speeds);
        assert!(sim.speeds_are_current(), "stale speeds at {}", sim.now);
        let t = sim.now + SimDuration::from_secs(dt);
        let done = sim.progress.integrate_all(&mut sim.job_mgr, &sim.speeds, t);
        let completed = done.len();
        sim.retire(done);
        sim.now = t;
        let speeds = &mut sim.speeds;
        sim.blocked_until.retain(|&job, &mut until| {
            if until <= t {
                speeds.unblock(job);
            }
            until > t
        });
        let crossed = sim.refresh_capacities();
        let before = sim.placement.clone();
        sim.apply_outages().expect("a strip suspends running jobs");
        (completed, crossed, sim.placement != before)
    }

    /// A plan drawn from `current`: most entries stay, some move, change
    /// their grant or leave; some unplaced active jobs and some instances
    /// arrive. Grants run up to a whole node, so CPU and memory overflow
    /// on their own now and then.
    fn sweep_plan(
        current: &Placement,
        jobs: &JobManager,
        nodes: u32,
        below: &mut impl FnMut(u64) -> u64,
    ) -> Placement {
        let mut next = current.clone();
        let grant = |roll: u64| CpuMhz::new(750.0 * (roll % 9) as f64 + (roll % 3) as f64 / 3.0);
        for (&job, &(node, _)) in &current.jobs {
            match below(10) {
                0 => {
                    next.jobs.remove(&job);
                }
                1 => {
                    let to = NodeId::new(below(nodes as u64) as u32);
                    next.jobs.insert(job, (to, grant(below(64))));
                }
                2 => {
                    next.jobs.insert(job, (node, grant(below(64))));
                }
                _ => {}
            }
        }
        for job in jobs.active() {
            if !next.jobs.contains_key(&job.id) && below(3) == 0 {
                let to = NodeId::new(below(nodes as u64) as u32);
                next.jobs.insert(job.id, (to, grant(below(64))));
            }
        }
        for app in [AppId::new(0), AppId::new(1)] {
            let slices = next.apps.entry(app).or_default();
            let node = NodeId::new(below(nodes as u64) as u32);
            match (slices.contains_key(&node), below(4)) {
                (true, 0) => {
                    slices.remove(&node);
                }
                (true, 1) | (false, 0) => {
                    slices.insert(node, grant(below(64)));
                }
                _ => {}
            }
        }
        next.apps.retain(|_, slices| !slices.is_empty());
        next
    }

    /// Break `next` in one way `validate` reports, drawn by `roll`; the
    /// name of the way, or `None` when there was nothing to break that
    /// way.
    fn sweep_break(
        next: &mut Placement,
        jobs: &JobManager,
        nodes: u32,
        roll: u64,
    ) -> Option<&'static str> {
        let some_node = NodeId::new((roll / 8 % nodes as u64) as u32);
        let placed = next.jobs.keys().next().copied();
        match roll % 8 {
            0 => {
                next.apps
                    .entry(AppId::new(7))
                    .or_default()
                    .insert(some_node, CpuMhz::new(100.0));
                Some("unknown app")
            }
            1 => {
                let job = placed?;
                next.jobs
                    .insert(job, (NodeId::new(nodes + 3), CpuMhz::new(100.0)));
                Some("unknown node")
            }
            2 => {
                next.jobs
                    .insert(JobId::new(999), (some_node, CpuMhz::new(100.0)));
                Some("unknown job")
            }
            3 => {
                let slices = next.apps.entry(AppId::new(0)).or_default();
                for k in 0..3.min(nodes) {
                    slices.insert(NodeId::new(k), CpuMhz::new(10.0));
                }
                (slices.len() > 2).then_some("too many instances")
            }
            4 => {
                let job = placed?;
                let (node, _) = next.jobs[&job];
                next.jobs.insert(job, (node, CpuMhz::new(-1.0)));
                Some("negative grant")
            }
            5 => {
                let done = jobs.jobs().iter().find(|j| !j.is_active())?;
                next.jobs.insert(done.id, (some_node, CpuMhz::new(100.0)));
                Some("completed job")
            }
            6 => {
                let job = placed?;
                let (node, _) = next.jobs[&job];
                next.jobs.insert(job, (node, CpuMhz::new(20_000.0)));
                Some("cpu over capacity")
            }
            _ => {
                let movable: Vec<JobId> = jobs.active().take(4).map(|j| j.id).collect();
                for &job in &movable {
                    next.jobs.insert(job, (some_node, CpuMhz::new(10.0)));
                }
                (movable.len() == 4).then_some("memory over capacity")
            }
        }
    }

    /// Drive one simulator through the plan sequence seeded by `seed` —
    /// plans, completions, strips, outages and dips that fall and
    /// recover, plans broken each way `validate` reports — and hold every
    /// plan's enactment to the reference: the liveness loop and
    /// `validate_with` (`Simulator::validate`) for the verdict, variant
    /// and payload; `Placement::diff` for the merge's change list, order
    /// included; the state untouched by a refused plan; and the speeds
    /// the update leaves against a from-scratch derivation at the next
    /// step. Returns the plans the mutation — re-checking only the nodes
    /// the plan changed — would have let in against the reference.
    fn enact_sweep(
        seed: u64,
        tally: &mut BTreeMap<&'static str, u64>,
    ) -> std::result::Result<u64, String> {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut below = move |bound: u64| rng.next_u64() % bound;
        let mut count = |what: &'static str, n: u64| *tally.entry(what).or_default() += n;
        let nodes = 2 + below(15) as u32;
        let window = |from: u64, len: u64| {
            (
                SimTime::from_secs(100.0 * from as f64 + 1.0),
                SimTime::from_secs(100.0 * (from + 1 + len) as f64 + 1.0),
            )
        };
        let mut faults = Faults::default();
        for _ in 0..below(2 + nodes as u64 / 4) {
            let (from, to) = window(below(20), below(10));
            let node = NodeId::new(below(nodes as u64) as u32);
            faults.outages.push(NodeOutage { node, from, to });
        }
        for _ in 0..1 + below(3 + nodes as u64 / 3) {
            let (from, to) = window(below(20), below(10));
            let node = NodeId::new(below(nodes as u64) as u32);
            let cpu_factor = [0.2, 0.5, 0.8][below(3) as usize];
            faults.dips.push(crate::CapacityDip {
                node,
                from,
                to,
                cpu_factor,
            });
        }
        let mut cfg = config(1e6);
        cfg.overheads = OverheadConfig {
            start: SimDuration::from_secs(50.0),
            resume: SimDuration::from_secs(30.0),
            migrate: SimDuration::from_secs(20.0),
        };
        let cluster = ClusterTopology::homogeneous(nodes, 4, 3000.0, 4096);
        let mut sim = Simulator::new(&cluster, cfg, faults);
        for (at, max_instances) in [(0, 2), (1, 3)] {
            let spec = slaq_perfmodel::TransactionalSpec {
                name: format!("app{at}"),
                service_per_request: Work::new(2000.0),
                rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
                mem_per_instance: MemMb::new(1024),
                max_instances,
                min_instances: 1,
                u_cap: 0.9,
            };
            let app = TransactionalRuntime::new(AppId::new(at), spec, Box::new(|_| 5.0), 0.5);
            sim.add_app(app.unwrap());
        }
        sim.speeds.mark_all_dirty();
        sim.outages_due = true;
        let mut caught = 0;
        for _ in 0..12 + below(20) {
            if below(3) == 0 {
                for _ in 0..below(3) {
                    let work = 100.0 + 50.0 * below(10) as f64;
                    let submit = sim.now.as_secs();
                    sim.job_mgr.submit(job_spec(work, submit), sim.now).unwrap();
                    count("jobs submitted", 1);
                }
                let (completed, crossed, stripped) =
                    sweep_advance(&mut sim, 50.0 + 50.0 * below(8) as f64);
                count("completions", completed as u64);
                count("steps that crossed a capacity boundary", u64::from(crossed));
                count("strips", u64::from(stripped));
                continue;
            }
            let mut next = match below(4) {
                0 => {
                    count("plans that kept everything", 1);
                    sim.placement.clone()
                }
                _ => sweep_plan(&sim.placement, &sim.job_mgr, nodes, &mut below),
            };
            if below(3) == 0 {
                if let Some(how) = sweep_break(&mut next, &sim.job_mgr, nodes, below(1 << 20)) {
                    count(how, 1);
                }
            }
            let verdict = sim.validate(&next);
            let diff = next.diff(&sim.placement);
            sim.speeds.merge(&sim.placement, &next);
            if sim.speeds.changes() != diff {
                return Err(format!(
                    "{next:?}: merged {:?}, diff {diff:?}",
                    sim.speeds.changes()
                ));
            }
            let recheck = sim.speeds.unchecked();
            let fast = sim.passes_as_delta(&next, recheck);
            let small = (sim.speeds.nodes_changed() + recheck.len()) * 4 <= sim.nodes.len();
            if fast && verdict.is_err() {
                return Err(format!("{next:?} passed as a delta, refused: {verdict:?}"));
            }
            if verdict.is_err() && sim.passes_as_delta(&next, &[]) {
                count("refusals found on nodes the plan did not change", 1);
                caught += 1;
            }
            let before = (sim.placement.clone(), sim.blocked_until.clone());
            let got = sim.enact(next.clone());
            match (&got, &verdict) {
                (Ok(n), Ok(())) if *n == diff.len() && sim.placement == next => {
                    count("plans enacted", 1);
                    count("plans passed as a delta", u64::from(fast));
                    count(
                        "plans enacted on the delta checks",
                        u64::from(fast && small),
                    );
                    count("changes compared", diff.len() as u64);
                }
                (Err(e), Err(r)) if e == r => {
                    if (&sim.placement, &sim.blocked_until) != (&before.0, &before.1) {
                        return Err(format!("{e} refused after the state moved"));
                    }
                    count(
                        match e {
                            SlaqError::CapacityViolation { .. } => "refused: capacity",
                            SlaqError::UnknownApp(_) => "refused: unknown app",
                            SlaqError::UnknownNode(_) => "refused: unknown node",
                            SlaqError::UnknownJob(_) => "refused: unknown job",
                            SlaqError::IllegalState(_) => "refused: completed job",
                            _ => "refused: invalid spec",
                        },
                        1,
                    );
                }
                _ => return Err(format!("{next:?}: enacted {got:?}, reference {verdict:?}")),
            }
        }
        sweep_advance(&mut sim, 1.0);
        count("worlds", 1);
        Ok(caught)
    }

    /// The enactment against its reference over 1 500 seeded worlds, with
    /// a printed tally under floors; then the mutation that re-checks only
    /// the nodes a plan changed, so a capacity that fell under unchanged
    /// contents goes unseen, which the verdicts must catch.
    #[test]
    fn enactment_equals_the_reference_over_seeded_plans() {
        let mut tally = BTreeMap::new();
        let mut caught = 0;
        for seed in 0..1500 {
            match enact_sweep(seed, &mut tally) {
                Ok(n) => caught += u64::from(n > 0),
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
        tally.insert(
            "worlds that catch re-checking only the changed nodes",
            caught,
        );
        println!("enactment ≡ reference: {tally:?}");
        for (what, floor) in [
            ("worlds", 1500),
            ("plans enacted", 11_500),
            ("plans passed as a delta", 11_500),
            ("plans enacted on the delta checks", 7500),
            ("plans that kept everything", 4300),
            ("changes compared", 9700),
            ("completions", 1900),
            ("strips", 250),
            ("steps that crossed a capacity boundary", 4200),
            ("unknown app", 700),
            ("unknown node", 430),
            ("unknown job", 700),
            ("too many instances", 670),
            ("negative grant", 440),
            ("completed job", 170),
            ("cpu over capacity", 420),
            ("memory over capacity", 290),
            ("refused: capacity", 1850),
            ("refused: completed job", 170),
            ("refused: invalid spec", 1550),
            ("refused: unknown app", 680),
            ("refused: unknown job", 700),
            ("refused: unknown node", 410),
            ("refusals found on nodes the plan did not change", 210),
            ("worlds that catch re-checking only the changed nodes", 80),
        ] {
            let seen = tally.get(what).copied().unwrap_or(0);
            assert!(seen >= floor, "{what}: {seen} under {floor}");
        }
    }
}
