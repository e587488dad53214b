//! The pipelined control plane: **solve → wait → actuate**, a plan
//! enacted a fixed number of cycles after it was solved.
//!
//! The paper's controller is synchronous: sense demand, solve placement,
//! enact — all inside one 600 s cycle. Real SLA-driven placers enact a
//! plan that is necessarily a little stale: the world moves while the
//! solve runs. This module models that staleness on top of the
//! simulator's control interface:
//!
//! 1. **Solve** — at cycle *k* the wrapped controller solves against the
//!    live [`ControlInputs`], inline, recording its model-side series
//!    straight into the run's sink; the pipeline keeps the plan, the
//!    wall-clock solve latency and a copy of the placement in force.
//! 2. **Wait** — the plan sits in a queue for *latency* cycles.
//! 3. **Actuate** — at cycle *k + latency* the plan is **reconciled**
//!    against the *current* world ([`reconcile`]): assignments of jobs
//!    that completed meanwhile are dropped, assignments on nodes that
//!    died are dropped, running jobs the stale plan never knew about are
//!    kept where they are instead of being suspended or migrated by
//!    omission, allocations are clamped to live node capacities, and the
//!    per-cycle change budget is re-enforced against the live placement.
//!
//! The solve reads its inputs only, so solving the live world at cycle
//! *k* is exactly solving a copy of it taken at cycle *k*; one plan
//! matures per cycle once the queue is full.
//!
//! ### Staleness semantics
//!
//! [`PipelinedController`] wraps any [`Controller`] and implements
//! [`Controller`] itself, so `Simulator::run` needs no special mode: with
//! `latency_cycles = L`, the placement returned at cycle *k* is the
//! reconciled plan solved at cycle *k − L* (the first *L* cycles keep
//! the placement unchanged while the pipeline fills). Jobs
//! that arrive inside the staleness window wait one extra plan for their
//! first placement; demand shifts are acted on *L* cycles late; the
//! reconciliation guarantees the stale plan can never violate liveness
//! (completed jobs, dead nodes) or capacity feasibility, and re-enforces
//! the change budget best-effort (see [`reconcile`] for the two corners
//! where forced repairs can exceed it).
//! With `L = 0` the pipeline degenerates to the synchronous path — same
//! solve, a no-op reconciliation — and is pinned bit-identical to it by
//! the corpus differential gate.
//!
//! Every enacted plan records pipeline series into the run's
//! [`MetricsSink`]: `pipeline_staleness_secs` /
//! `pipeline_staleness_cycles` (age of the enacted plan) and
//! `pipeline_reconciled` (how many assignments the reconciliation had to
//! touch). All are functions of the scenario; how long a solve took is
//! the recorder's `pipeline.solve` span.

use slaq_obs::Recorder;
use slaq_placement::{NodeCapacity, Placement, PlacementChange};
use slaq_sim::{ControlInputs, Controller, MetricsSink};
use slaq_types::{AppId, CpuMhz, Interner, JobId, MemMb, NodeId, SimTime};
use std::collections::VecDeque;

/// What the reconciliation had to do to make a stale plan safe against
/// the live world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// Assignments dropped because their job completed (or is unknown).
    pub dropped_inactive: usize,
    /// Assignments (job or instance) dropped because their node is down.
    pub dropped_dead: usize,
    /// Live running jobs the plan never knew about, re-grafted onto their
    /// current node.
    pub grafted: usize,
    /// Live running jobs the plan would have moved out of ignorance, kept
    /// in place instead.
    pub kept_in_place: usize,
    /// Node-level allocation clamps applied (overcommitted CPU scaled
    /// down, overcommitted memory relieved).
    pub clamped: usize,
    /// Placement starts cancelled to stay inside the change budget.
    pub cancelled: usize,
}

impl ReconcileOutcome {
    /// Total number of plan edits the reconciliation made.
    pub fn total(&self) -> usize {
        self.dropped_inactive
            + self.dropped_dead
            + self.grafted
            + self.kept_in_place
            + self.clamped
            + self.cancelled
    }
}

/// The positions in `nodes` of the live nodes `plan` overcommits — CPU
/// beyond capacity (by more than 1e-6) or memory that does not fit — in
/// `nodes` order. One pass over the plan: usage accumulates by node
/// position, applications in id order and then jobs in id order, so each
/// node's float sum is exactly the one a scan of the whole plan for that
/// node alone would form.
fn overcommitted_nodes(
    plan: &Placement,
    nodes: &[NodeCapacity],
    node_ix: &Interner<NodeId>,
    app_mem: impl Fn(AppId) -> MemMb,
    job_mem: impl Fn(JobId) -> MemMb,
) -> Vec<usize> {
    let mut cpu_used = vec![0.0f64; nodes.len()];
    let mut mem_used = vec![MemMb::ZERO; nodes.len()];
    for (&app, slices) in &plan.apps {
        let mem = app_mem(app);
        for (&node, cpu) in slices {
            if let Some(at) = node_ix.dense(node) {
                cpu_used[at] += cpu.as_f64();
                mem_used[at] += mem;
            }
        }
    }
    for (&job, &(node, cpu)) in &plan.jobs {
        if let Some(at) = node_ix.dense(node) {
            cpu_used[at] += cpu.as_f64();
            mem_used[at] += job_mem(job);
        }
    }
    (0..nodes.len())
        .filter(|&at| {
            let NodeCapacity { cpu, mem, .. } = nodes[at];
            !cpu.is_zero() && (cpu_used[at] > cpu.as_f64() + 1e-6 || !mem.fits(mem_used[at]))
        })
        .collect()
}

/// Keep `job` on its live node `node`, at position `at` of the residual
/// ledger: whatever the plan grants it elsewhere goes back to that node,
/// then it is granted `alloc` clamped to `[0, residual]` and charged
/// `mem` at `at`.
fn keep_at(
    plan: &mut Placement,
    node_ix: &Interner<NodeId>,
    (cpu_free, mem_free): (&mut Vec<f64>, &mut Vec<MemMb>),
    job: JobId,
    (node, at): (NodeId, usize),
    alloc: CpuMhz,
    mem: MemMb,
) {
    if let Some(&(planned, held)) = plan.jobs.get(&job) {
        if let Some(from) = node_ix.dense(planned) {
            cpu_free[from] += held.as_f64();
            mem_free[from] += mem;
        }
    }
    let grant = alloc.as_f64().min(cpu_free[at]).max(0.0);
    cpu_free[at] -= grant;
    mem_free[at] = mem_free[at].saturating_sub(mem);
    plan.jobs.insert(job, (node, CpuMhz::new(grant)));
}

/// Reconcile a possibly stale `plan` against the **current** world so it
/// can be enacted safely: see the module docs for the rule set. A fresh
/// plan (solved from the very inputs it is enacted against) passes
/// through untouched — that is what makes the zero-latency pipeline
/// bit-identical to the synchronous path.
///
/// `snapshot_placement` is the placement that was in force when the plan
/// was solved: a running job absent from it is one the plan could not
/// have deliberately suspended or migrated, so its live assignment wins.
/// `max_changes` re-enforces the per-cycle change budget against the
/// live placement: drift-induced changes are cancelled cheapest-first —
/// migrations revert to the job's live node, then placement starts,
/// newest entities first. Suspensions and stops are never cancelled, so
/// the cap can still be exceeded in two corners, both involving a job
/// whose live node no longer fits it under this plan: a drift migration
/// that cannot revert, and a drift suspend of a running job the plan
/// never saw and could not keep (its eviction is forced either way).
/// The `pipeline_reconciled` series counts every such repair, so budget
/// overshoot is observable.
pub fn reconcile(
    plan: &mut Placement,
    snapshot_placement: &Placement,
    inputs: &ControlInputs<'_>,
    max_changes: Option<usize>,
) -> ReconcileOutcome {
    let mut out = ReconcileOutcome::default();
    // Every node is read by its position in `inputs.nodes`; a live node
    // is a known one with capacity.
    let nodes = inputs.nodes;
    let node_ix = Interner::new(nodes.iter().map(|n| n.id));
    let alive = |id: NodeId| node_ix.dense(id).filter(|&at| !nodes[at].cpu.is_zero());

    // 1–2. Jobs that completed (or are unknown) hold no assignment, and
    // nothing lands on a dead node.
    plan.jobs.retain(|&j, &mut (node, _)| {
        let active = inputs.jobs.job(j).is_ok_and(|job| job.is_active());
        let live = active && alive(node).is_some();
        out.dropped_inactive += usize::from(!active);
        out.dropped_dead += usize::from(active && !live);
        live
    });
    for slices in plan.apps.values_mut() {
        slices.retain(|&node, _| {
            let live = alive(node).is_some();
            out.dropped_dead += usize::from(!live);
            live
        });
    }

    // Residual capacities under the plan, by node position.
    let app_mem = |app: AppId| -> MemMb {
        inputs
            .apps
            .iter()
            .find(|a| a.id == app)
            .map_or(MemMb::ZERO, |a| a.spec.mem_per_instance)
    };
    let job_mem =
        |job: JobId| -> MemMb { inputs.jobs.job(job).map_or(MemMb::ZERO, |j| j.spec.mem) };
    let (mut cpu_free, mut mem_free) = (Vec::new(), Vec::new());
    plan.residual_into(
        nodes,
        |node| node_ix.dense(node),
        |app| Some(app_mem(app)),
        |job| Some(job_mem(job)),
        &mut cpu_free,
        &mut mem_free,
    );

    // 3. Continuity: a job running *now* that the plan's snapshot did not
    // know as placed was placed by an interim plan — the stale plan's
    // omission (or relocation) of it is ignorance, not a decision. Keep
    // it where it runs whenever the capacity still allows.
    for (&job, &(node, live_alloc)) in &inputs.current.jobs {
        if snapshot_placement.jobs.contains_key(&job) {
            continue;
        }
        let Some(at) = alive(node) else { continue };
        let mem = job_mem(job);
        let planned = plan.jobs.get(&job).copied();
        // Memory is the hard gate; the CPU grant clamps to whatever
        // residual remains (possibly zero — a running job at a zero
        // guarantee still draws work-conserving spare and dodges a
        // suspend/resume round trip).
        if planned.is_some_and(|(n, _)| n == node) || !mem_free[at].fits(mem) {
            continue;
        }
        let (alloc, tally) = match planned {
            // The plan moved a job it never saw running: keep it put.
            Some((_, alloc)) => (alloc, &mut out.kept_in_place),
            // The plan omitted a job it never saw running: graft it back.
            None => (live_alloc, &mut out.grafted),
        };
        *tally += 1;
        let ledger = (&mut cpu_free, &mut mem_free);
        keep_at(plan, &node_ix, ledger, job, (node, at), alloc, mem);
    }

    // 4. Clamp guard: a plan that still overcommits a live node (it
    // should not, after the steps above) gets its CPU scaled down
    // proportionally and its newest jobs shed until memory fits.
    for at in overcommitted_nodes(plan, nodes, &node_ix, app_mem, job_mem) {
        let (node, cap, mem_cap) = (nodes[at].id, nodes[at].cpu, nodes[at].mem);
        // Shed newest jobs until memory fits.
        loop {
            let mem_used: MemMb = plan
                .apps
                .iter()
                .filter(|(_, s)| s.contains_key(&node))
                .map(|(&a, _)| app_mem(a))
                .sum::<MemMb>()
                + plan
                    .jobs
                    .iter()
                    .filter(|&(_, &(n, _))| n == node)
                    .map(|(&j, _)| job_mem(j))
                    .sum::<MemMb>();
            if mem_cap.fits(mem_used) {
                break;
            }
            let Some(&victim) = plan
                .jobs
                .iter()
                .filter(|&(_, &(n, _))| n == node)
                .map(|(j, _)| j)
                .next_back()
            else {
                break;
            };
            plan.jobs.remove(&victim);
            out.clamped += 1;
        }
        // Scale CPU down proportionally.
        let total: f64 = plan
            .apps
            .values()
            .filter_map(|s| s.get(&node))
            .map(|c| c.as_f64())
            .sum::<f64>()
            + plan
                .jobs
                .values()
                .filter(|&&(n, _)| n == node)
                .map(|&(_, c)| c.as_f64())
                .sum::<f64>();
        if total > cap.as_f64() + 1e-6 {
            let scale = cap.as_f64() / total;
            for slices in plan.apps.values_mut() {
                if let Some(c) = slices.get_mut(&node) {
                    *c = *c * scale;
                }
            }
            for (n, c) in plan.jobs.values_mut() {
                if *n == node {
                    *c = *c * scale;
                }
            }
            out.clamped += 1;
        }
    }

    // 5. Re-enforce the change budget against the live placement. Drift
    // inside the staleness window adds changes the solver never
    // budgeted: placement starts of entities the world dropped,
    // migrations of jobs an interim plan relocated, and suspends of
    // running jobs the plan never saw and step 3 could not keep. Cancel
    // the cheapest first — migrations revert to the job's live node (it
    // keeps running, zero disruption), then job starts newest-id first,
    // then instance starts. Suspensions and stops are never cancelled
    // (re-placing the job is exactly what failed in step 3), so the cap
    // can still be exceeded by unrevertable migrations and forced
    // suspends — see the function docs.
    if let Some(cap) = max_changes {
        let diff = plan.diff(inputs.current);
        if diff.len() > cap {
            let mut excess = diff.len() - cap;
            let (mut migrations, mut job_starts, mut inst_starts) = (vec![], vec![], vec![]);
            for change in &diff {
                match *change {
                    PlacementChange::MigrateJob { job, from, .. } => migrations.push((job, from)),
                    PlacementChange::StartJob { job, .. } => job_starts.push(job),
                    PlacementChange::StartInstance { app, node } => inst_starts.push((app, node)),
                    _ => {}
                }
            }
            // Migrations first: keep the job at its live node when the
            // residual capacity there (conservatively tracked — clamps
            // and cancellations only free more) still fits it.
            migrations.sort_unstable_by_key(|m| std::cmp::Reverse(m.0));
            for (job, from) in migrations {
                if excess == 0 {
                    break;
                }
                let mem = job_mem(job);
                let Some(at) = alive(from).filter(|&at| mem_free[at].fits(mem)) else {
                    continue;
                };
                let alloc = plan.job_alloc(job);
                let ledger = (&mut cpu_free, &mut mem_free);
                keep_at(plan, &node_ix, ledger, job, (from, at), alloc, mem);
                out.cancelled += 1;
                excess -= 1;
            }
            job_starts.sort_unstable_by(|a, b| b.cmp(a));
            for job in job_starts {
                if excess == 0 {
                    break;
                }
                plan.jobs.remove(&job);
                out.cancelled += 1;
                excess -= 1;
            }
            inst_starts.sort_unstable_by(|a, b| b.cmp(a));
            for (app, node) in inst_starts {
                if excess == 0 {
                    break;
                }
                if let Some(slices) = plan.apps.get_mut(&app) {
                    slices.remove(&node);
                    out.cancelled += 1;
                    excess -= 1;
                }
            }
        }
    }

    out
}

/// A plan waiting for its enactment cycle.
struct InFlight {
    /// Control-cycle index the plan was solved at.
    seq: u64,
    /// Instant the plan was solved at.
    solved_at: SimTime,
    /// Placement that was in force when the plan was solved — the
    /// reconciler uses it to tell deliberate plan decisions from mere
    /// ignorance of events inside the staleness window.
    solved_from: Placement,
    plan: Placement,
}

/// A [`Controller`] adapter that delays another controller's plans: the
/// plan solved at cycle *k* is enacted at cycle *k + latency_cycles*,
/// reconciled against the live world (see the module docs for the
/// staleness semantics).
pub struct PipelinedController {
    inner: Box<dyn Controller>,
    latency_cycles: u64,
    max_changes: Option<usize>,
    cycle: u64,
    in_flight: VecDeque<InFlight>,
    /// Observability handle: the pipeline times the copy of the
    /// placement in force (`pipeline.snapshot`), the solve
    /// (`pipeline.solve`) and reconciliation (`pipeline.reconcile`) and
    /// counts reconcile drops. Observes only — enactment decisions never
    /// read it.
    recorder: Recorder,
    k_snapshot: slaq_obs::Key,
    k_solve: slaq_obs::Key,
    k_reconcile: slaq_obs::Key,
    k_drops: slaq_obs::Key,
}

impl PipelinedController {
    /// Pipeline `inner` with the given enactment latency. `max_changes`
    /// is the per-cycle change budget the reconciliation re-enforces
    /// against the live placement (pass the same value the inner
    /// controller's placement config uses).
    pub fn new(
        inner: Box<dyn Controller>,
        latency_cycles: u32,
        max_changes: Option<usize>,
    ) -> Self {
        PipelinedController {
            inner,
            latency_cycles: latency_cycles as u64,
            max_changes,
            cycle: 0,
            in_flight: VecDeque::new(),
            recorder: Recorder::off(),
            k_snapshot: slaq_obs::Key::default(),
            k_solve: slaq_obs::Key::default(),
            k_reconcile: slaq_obs::Key::default(),
            k_drops: slaq_obs::Key::default(),
        }
    }
}

impl Controller for PipelinedController {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        let k = self.cycle;
        self.cycle += 1;

        // Solve this cycle's plan now, against the live inputs; its
        // model-side series land in the run's sink at once, so none are
        // lost for plans still in flight at the horizon.
        let span = self.recorder.span(self.k_snapshot);
        let solved_from = inputs.current.clone();
        drop(span);
        let span = self.recorder.span(self.k_solve);
        let plan = self.inner.control(inputs, metrics);
        drop(span);
        self.in_flight.push_back(InFlight {
            seq: k,
            solved_at: inputs.now,
            solved_from,
            plan,
        });

        // One plan matures per cycle once the queue holds L + 1.
        let Some(done) = self
            .in_flight
            .pop_front_if(|f| f.seq + self.latency_cycles <= k)
        else {
            // Pipeline still filling: keep the current placement.
            return inputs.current.clone();
        };

        metrics.record(
            "pipeline_staleness_secs",
            inputs.now,
            (inputs.now - done.solved_at).as_secs(),
        );
        metrics.record(
            "pipeline_staleness_cycles",
            inputs.now,
            (k - done.seq) as f64,
        );

        let mut plan = done.plan;
        // Audit what reconciliation does to the stale plan: snapshot it
        // first (only when recording), diff after, tag every repair.
        let audit_before = self.recorder.is_enabled().then(|| plan.clone());
        let span = self.recorder.span(self.k_reconcile);
        let outcome = reconcile(&mut plan, &done.solved_from, inputs, self.max_changes);
        drop(span);
        if let Some(before) = audit_before {
            for change in plan.diff(&before) {
                let (subject, from, to) = change.audit_parts();
                self.recorder
                    .audit(subject, from, to, "pipeline.reconcile", "stale-plan-repair");
            }
        }
        metrics.record("pipeline_reconciled", inputs.now, outcome.total() as f64);
        if self.recorder.is_enabled() {
            self.recorder.count(
                self.k_drops,
                (outcome.dropped_inactive + outcome.dropped_dead) as u64,
            );
        }
        plan
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.k_snapshot = recorder.key("pipeline.snapshot");
        self.k_solve = recorder.key("pipeline.solve");
        self.k_reconcile = recorder.key("pipeline.reconcile");
        self.k_drops = recorder.key("pipeline.reconcile.drops");
        self.inner.set_recorder(recorder.clone());
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_jobs::{JobManager, JobSpec};
    use slaq_types::{SimDuration, Work};
    use slaq_utility::CompletionGoal;
    use std::collections::BTreeMap;

    fn node(id: u32, cpu: f64, mem: u64) -> NodeCapacity {
        NodeCapacity {
            id: NodeId::new(id),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(mem),
        }
    }

    fn job_spec(work_secs: f64) -> JobSpec {
        JobSpec {
            name: "recon".into(),
            total_work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::ZERO,
                SimDuration::from_secs(work_secs),
                1.25,
                2.0,
            )
            .unwrap(),
            importance: 1.0,
        }
    }

    /// A manager with `n` jobs; indices in `completed` are run to
    /// completion, indices in `running` (node per entry) are running.
    fn world(n: u32, completed: &[u32], running: &[(u32, u32)]) -> JobManager {
        let mut mgr = JobManager::new();
        for _ in 0..n {
            mgr.submit(job_spec(1000.0), SimTime::ZERO).unwrap();
        }
        for &i in completed {
            let j = mgr.job_mut(JobId::new(i)).unwrap();
            j.start(NodeId::new(0), SimTime::ZERO).unwrap();
            j.advance(
                CpuMhz::new(3000.0),
                SimTime::ZERO,
                SimDuration::from_secs(2000.0),
            );
        }
        for &(i, node) in running {
            mgr.job_mut(JobId::new(i))
                .unwrap()
                .start(NodeId::new(node), SimTime::ZERO)
                .unwrap();
        }
        mgr
    }

    fn place_jobs(entries: &[(u32, u32, f64)]) -> Placement {
        let mut p = Placement::empty();
        for &(j, n, c) in entries {
            p.jobs
                .insert(JobId::new(j), (NodeId::new(n), CpuMhz::new(c)));
        }
        p
    }

    #[test]
    fn reconcile_drops_completed_jobs_and_dead_nodes() {
        // Job 0 completed; node 1 died (zero capacity). The plan still
        // references both.
        let jobs = world(3, &[0], &[(1, 0)]);
        let nodes = vec![node(0, 12_000.0, 4096), node(1, 0.0, 0)];
        let current = place_jobs(&[(1, 0, 3000.0)]);
        let mut plan = place_jobs(&[(0, 0, 3000.0), (1, 0, 3000.0), (2, 1, 3000.0)]);
        plan.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(1), CpuMhz::new(1000.0));
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &current, &inputs, None);
        assert_eq!(out.dropped_inactive, 1);
        assert_eq!(out.dropped_dead, 2); // job 2 and the app slice
        assert!(!plan.jobs.contains_key(&JobId::new(0)));
        assert!(!plan.jobs.contains_key(&JobId::new(2)));
        assert!(plan.apps[&AppId::new(0)].is_empty());
        assert_eq!(
            plan.jobs[&JobId::new(1)],
            (NodeId::new(0), CpuMhz::new(3000.0))
        );
    }

    #[test]
    fn reconcile_grafts_unknown_running_jobs_back() {
        // Snapshot saw job 1 pending and left it unplaced; an interim
        // plan started it on node 1. The stale plan must not suspend it.
        let jobs = world(2, &[], &[(0, 0), (1, 1)]);
        let nodes = vec![node(0, 12_000.0, 4096), node(1, 12_000.0, 4096)];
        let snapshot_placement = place_jobs(&[(0, 0, 3000.0)]);
        let current = place_jobs(&[(0, 0, 3000.0), (1, 1, 2000.0)]);
        let mut plan = place_jobs(&[(0, 0, 3000.0)]);
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &snapshot_placement, &inputs, None);
        assert_eq!(out.grafted, 1);
        assert_eq!(
            plan.jobs[&JobId::new(1)],
            (NodeId::new(1), CpuMhz::new(2000.0))
        );
    }

    #[test]
    fn reconcile_keeps_unknown_running_jobs_in_place() {
        // Snapshot saw job 1 pending; the plan placed it on node 0, but
        // meanwhile it started on node 1. Keep it put — no migration out
        // of ignorance.
        let jobs = world(2, &[], &[(0, 0), (1, 1)]);
        let nodes = vec![node(0, 12_000.0, 4096), node(1, 12_000.0, 4096)];
        let snapshot_placement = place_jobs(&[(0, 0, 3000.0)]);
        let current = place_jobs(&[(0, 0, 3000.0), (1, 1, 2000.0)]);
        let mut plan = place_jobs(&[(0, 0, 3000.0), (1, 0, 2500.0)]);
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &snapshot_placement, &inputs, None);
        assert_eq!(out.kept_in_place, 1);
        assert_eq!(
            plan.jobs[&JobId::new(1)],
            (NodeId::new(1), CpuMhz::new(2500.0))
        );
    }

    #[test]
    fn reconcile_respects_deliberate_suspensions() {
        // The snapshot had job 0 placed and the plan dropped it — a
        // deliberate suspension, which reconciliation must keep.
        let jobs = world(1, &[], &[(0, 0)]);
        let nodes = vec![node(0, 12_000.0, 4096)];
        let current = place_jobs(&[(0, 0, 3000.0)]);
        let mut plan = Placement::empty();
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &current, &inputs, None);
        assert_eq!(out.grafted, 0);
        assert!(plan.jobs.is_empty());
    }

    #[test]
    fn reconcile_cancels_newest_starts_beyond_the_budget() {
        let jobs = world(4, &[], &[]);
        let nodes = vec![node(0, 12_000.0, 8192)];
        let current = Placement::empty();
        let mut plan = place_jobs(&[
            (0, 0, 2000.0),
            (1, 0, 2000.0),
            (2, 0, 2000.0),
            (3, 0, 2000.0),
        ]);
        let inputs = ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &Placement::empty(), &inputs, Some(2));
        assert_eq!(out.cancelled, 2);
        assert_eq!(plan.diff(&current).len(), 2);
        // Oldest submissions keep their start.
        assert!(plan.jobs.contains_key(&JobId::new(0)));
        assert!(plan.jobs.contains_key(&JobId::new(1)));
    }

    #[test]
    fn reconcile_cancels_drift_migrations_before_starts() {
        // Snapshot saw job 0 running on node 0 and the plan keeps it
        // there (no intended change); an interim plan moved it to node 1
        // meanwhile, so vs. the live world the plan now implies a
        // migration the solver never budgeted. With the cap at 2, the
        // drift migration must be cancelled first — job 0 stays at its
        // live node — so both budgeted starts survive.
        let jobs = world(3, &[], &[(0, 1)]);
        let nodes = vec![node(0, 12_000.0, 4096), node(1, 12_000.0, 4096)];
        let snapshot_placement = place_jobs(&[(0, 0, 3000.0)]);
        let current = place_jobs(&[(0, 1, 3000.0)]);
        let mut plan = place_jobs(&[(0, 0, 3000.0), (1, 0, 3000.0), (2, 0, 3000.0)]);
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        let out = reconcile(&mut plan, &snapshot_placement, &inputs, Some(2));
        assert_eq!(out.cancelled, 1);
        assert_eq!(
            plan.jobs[&JobId::new(0)],
            (NodeId::new(1), CpuMhz::new(3000.0)),
            "drift migration must revert to the live node"
        );
        assert!(plan.jobs.contains_key(&JobId::new(1)));
        assert!(plan.jobs.contains_key(&JobId::new(2)));
        assert_eq!(plan.diff(&current).len(), 2);
    }

    #[test]
    fn reconcile_is_a_no_op_for_fresh_plans() {
        let jobs = world(2, &[], &[(0, 0)]);
        let nodes = vec![node(0, 12_000.0, 4096), node(1, 12_000.0, 4096)];
        let current = place_jobs(&[(0, 0, 3000.0)]);
        let mut plan = place_jobs(&[(0, 0, 3000.0), (1, 1, 2500.0)]);
        let expect = plan.clone();
        let inputs = ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &[],
        };
        // Fresh = snapshot placement is the live placement.
        let out = reconcile(&mut plan, &current, &inputs, Some(8));
        assert_eq!(out, ReconcileOutcome::default());
        assert_eq!(plan, expect);
    }

    /// Scripted inner controller: returns the next placement of a fixed
    /// sequence, recording one model-side sample per solve.
    struct Scripted {
        plans: Vec<Placement>,
        at: usize,
    }

    impl Controller for Scripted {
        fn control(&mut self, inputs: &ControlInputs<'_>, m: &mut MetricsSink) -> Placement {
            m.record("scripted_solves", inputs.now, self.at as f64);
            let p = self
                .plans
                .get(self.at)
                .cloned()
                .unwrap_or_else(|| inputs.current.clone());
            self.at += 1;
            p
        }
    }

    #[test]
    fn pipelined_controller_enacts_plans_one_latency_late() {
        let jobs = world(2, &[], &[]);
        let nodes = vec![node(0, 12_000.0, 4096)];
        let p0 = place_jobs(&[(0, 0, 3000.0)]);
        let p1 = place_jobs(&[(0, 0, 3000.0), (1, 0, 3000.0)]);
        let inner = Scripted {
            plans: vec![p0.clone(), p1.clone()],
            at: 0,
        };
        let mut piped = PipelinedController::new(Box::new(inner), 1, None);
        let mut metrics = MetricsSink::new();
        let empty = Placement::empty();

        // Cycle 0: pipeline filling — placement unchanged.
        let inputs = ControlInputs {
            now: SimTime::ZERO,
            nodes: &nodes,
            current: &empty,
            jobs: &jobs,
            apps: &[],
        };
        let got = piped.control(&inputs, &mut metrics);
        assert_eq!(got, empty);
        assert!(metrics.series("pipeline_staleness_cycles").is_empty());

        // Cycle 1: cycle 0's plan lands, one cycle stale.
        let inputs = ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &empty,
            jobs: &jobs,
            apps: &[],
        };
        let got = piped.control(&inputs, &mut metrics);
        assert_eq!(got, p0);
        assert_eq!(metrics.last("pipeline_staleness_cycles"), Some(1.0));
        assert_eq!(metrics.last("pipeline_staleness_secs"), Some(600.0));
        // Wall-clock solve latency is the recorder's, never the sink's.
        assert!(metrics.series("pipeline_solve_micros").is_empty());
        // Model-side series land at solve time, not enactment: both
        // cycles' solves have surfaced even though only cycle 0's plan
        // has landed.
        assert_eq!(metrics.series("scripted_solves").len(), 2);

        // Cycle 2: cycle 1's plan lands.
        let inputs = ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &nodes,
            current: &p0,
            jobs: &jobs,
            apps: &[],
        };
        let got = piped.control(&inputs, &mut metrics);
        assert_eq!(got, p1);
        assert_eq!(metrics.series("scripted_solves").len(), 3);
        assert_eq!(piped.latency_cycles, 1);
    }

    /// Step 4's guard as it stood before the one-pass accumulation: the
    /// whole plan scanned once per live node.
    fn naive_overcommitted_nodes(
        plan: &Placement,
        nodes: &[NodeCapacity],
        app_mem: impl Fn(AppId) -> MemMb,
        job_mem: impl Fn(JobId) -> MemMb,
    ) -> Vec<NodeId> {
        let mut nodes_over: Vec<NodeId> = Vec::new();
        for &NodeCapacity {
            id: node,
            cpu: cap,
            mem: mem_cap,
        } in nodes
        {
            if cap.is_zero() {
                continue;
            }
            let mut cpu_used = 0.0;
            let mut mem_used = MemMb::ZERO;
            for slices in plan.apps.values() {
                if let Some(c) = slices.get(&node) {
                    cpu_used += c.as_f64();
                }
            }
            for (&app, slices) in &plan.apps {
                if slices.contains_key(&node) {
                    mem_used += app_mem(app);
                }
            }
            for (&job, &(n, c)) in &plan.jobs {
                if n == node {
                    cpu_used += c.as_f64();
                    mem_used += job_mem(job);
                }
            }
            if cpu_used > cap.as_f64() + 1e-6 || !mem_cap.fits(mem_used) {
                nodes_over.push(node);
            }
        }
        nodes_over
    }

    /// The one-pass guard names the nodes the per-node scan names, on
    /// random stale plans over a node slice in id order: dead and unknown
    /// nodes carrying load, nodes filled to within an ulp of the 1e-6 CPU
    /// tolerance, memory overflows, and nodes holding application slices
    /// only.
    #[test]
    fn one_pass_clamp_guard_equals_the_per_node_scan() {
        use proptest::TestRng;
        let app_mem = |a: AppId| MemMb::new([512, 1024][a.index() % 2]);
        let job_mem = |j: JobId| MemMb::new([640, 1280][j.index() % 2]);
        let mut seen: BTreeMap<&'static str, usize> = BTreeMap::new();
        for seed in 0..3000 {
            let rng = &mut TestRng::new(seed);
            let mut live: BTreeMap<NodeId, (CpuMhz, MemMb)> = BTreeMap::new();
            for id in 0..6 {
                if rng.below(8) == 0 {
                    continue; // unknown to the live world
                }
                let cpu = [0.0, 4000.0, 4000.0, 9000.0][rng.below(4) as usize];
                let mem = [2048, 4096, 16_384][rng.below(3) as usize];
                live.insert(NodeId::new(id), (CpuMhz::new(cpu), MemMb::new(mem)));
            }
            let mut plan = Placement::empty();
            let mut next_job = 0;
            for id in 0..6 {
                let node = NodeId::new(id);
                // Fill the node to its capacity in unequal shares that do
                // not add up exactly, then nudge the last one to within
                // an ulp or two of the tolerance, so that the order the
                // shares are summed in decides the verdict.
                let cap = live.get(&node).map_or(4000.0, |&(cpu, _)| cpu.as_f64());
                let weights: Vec<f64> = (0..1 + rng.below(7))
                    .map(|_| 1.0 + rng.below(7) as f64)
                    .collect();
                let parts = weights.len();
                let fill = [0.3, 1.0, 1.0, 1.2][rng.below(4) as usize];
                let nudge = [0.0, 1e-6 - 9e-13, 1e-6, 1e-6 + 9e-13, 3e-6][rng.below(5) as usize];
                let apps_only = rng.below(4) == 0;
                for (k, w) in weights.iter().enumerate() {
                    let share = cap.max(4000.0) * fill * w / weights.iter().sum::<f64>()
                        + if k + 1 == parts { nudge } else { 0.0 };
                    if apps_only || rng.below(3) == 0 {
                        let slices = plan.apps.entry(AppId::new(k as u32)).or_default();
                        slices.insert(node, CpuMhz::new(share));
                    } else {
                        plan.jobs
                            .insert(JobId::new(next_job), (node, CpuMhz::new(share)));
                        next_job += 1;
                    }
                }
            }
            let nodes: Vec<NodeCapacity> = live
                .iter()
                .map(|(&id, &(cpu, mem))| NodeCapacity { id, cpu, mem })
                .collect();
            let node_ix = Interner::new(nodes.iter().map(|n| n.id));
            let naive = naive_overcommitted_nodes(&plan, &nodes, app_mem, job_mem);
            let one_pass: Vec<NodeId> =
                overcommitted_nodes(&plan, &nodes, &node_ix, app_mem, job_mem)
                    .into_iter()
                    .map(|at| nodes[at].id)
                    .collect();
            assert_eq!(naive, one_pass, "seed {seed}");

            let on = |n: NodeId| plan.jobs.values().filter(move |&&(at, _)| at == n);
            let cpu_on = |n: NodeId| plan.node_cpu_used(n).as_f64();
            let kinds = [
                ("clean", naive.is_empty()),
                ("several over", naive.len() > 1),
                (
                    "apps only, over",
                    naive.iter().any(|&n| on(n).next().is_none()),
                ),
                (
                    "memory over, cpu within",
                    naive.iter().any(|&n| cpu_on(n) < live[&n].0.as_f64()),
                ),
                (
                    "within the tolerance",
                    live.iter().any(|(n, &(cap, _))| {
                        let over = cpu_on(*n) - cap.as_f64();
                        !cap.is_zero() && over > 0.0 && over < 2e-6 && !naive.contains(n)
                    }),
                ),
                (
                    "dead or unknown node loaded",
                    (0..6).map(NodeId::new).any(|n| {
                        live.get(&n).is_none_or(|&(cpu, _)| cpu.is_zero()) && cpu_on(n) > 0.0
                    }),
                ),
            ];
            for (kind, hit) in kinds {
                *seen.entry(kind).or_default() += usize::from(hit);
            }
        }
        for (kind, &n) in &seen {
            assert!(n >= 50, "{kind}: {seen:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Under random completion/outage interleavings, a reconciled
        /// solver plan never assigns a completed job or touches a dead
        /// node, and a change budget is re-enforced against the live
        /// placement.
        #[test]
        fn prop_reconcile_never_assigns_dead_or_completed(
            n_nodes in 2u32..6,
            node_cpu in 6000.0..16_000.0f64,
            job_demands in proptest::collection::vec(200.0..3000.0f64, 1..14),
            completed_bits in proptest::collection::vec(0u32..2, 14..15),
            dead_bits in proptest::collection::vec(0u32..2, 6..7),
            cap in proptest::option::of(0usize..6),
        ) {
            use slaq_placement::problem::{JobRequest, PlacementConfig, PlacementProblem};
            let completed_mask: Vec<bool> = completed_bits.iter().map(|&b| b == 1).collect();
            let dead_mask: Vec<bool> = dead_bits.iter().map(|&b| b == 1).collect();
            // Solve a problem against the snapshot-time world (all nodes
            // up, all jobs pending).
            let nodes_up: Vec<NodeCapacity> =
                (0..n_nodes).map(|i| node(i, node_cpu, 4096)).collect();
            let problem = PlacementProblem {
                nodes: nodes_up.clone(),
                apps: vec![],
                jobs: job_demands
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| JobRequest {
                        id: JobId::new(i as u32),
                        demand: CpuMhz::new(d),
                        mem: MemMb::new(1280),
                        running_on: None,
                        affinity: None,
                        priority: d,
                        importance: 1.0,
                    })
                    .collect(),
                config: PlacementConfig::default(),
            };
            let mut plan =
                slaq_placement::solve(&problem, &Placement::empty()).placement;

            // The world moves: some jobs complete, some nodes die.
            let completed: Vec<u32> = (0..job_demands.len() as u32)
                .filter(|&i| completed_mask[i as usize])
                .collect();
            let jobs = world(job_demands.len() as u32, &completed, &[]);
            let live_nodes: Vec<NodeCapacity> = (0..n_nodes)
                .map(|i| {
                    if dead_mask[i as usize] {
                        node(i, 0.0, 0)
                    } else {
                        node(i, node_cpu, 4096)
                    }
                })
                .collect();
            let current = Placement::empty();
            let inputs = ControlInputs {
                now: SimTime::from_secs(1200.0),
                nodes: &live_nodes,
                current: &current,
                jobs: &jobs,
                apps: &[],
            };
            let out = reconcile(&mut plan, &Placement::empty(), &inputs, cap);
            // Liveness: no completed job, nothing on a dead node.
            for (&j, &(n, _)) in &plan.jobs {
                prop_assert!(jobs.job(j).unwrap().is_active(), "{j} completed but placed");
                prop_assert!(!dead_mask[n.index()], "{j} placed on dead {n}");
            }
            for slices in plan.apps.values() {
                for &n in slices.keys() {
                    prop_assert!(!dead_mask[n.index()], "instance on dead {n}");
                }
            }
            // Budget: every change here is a start, so the cap holds
            // exactly.
            if let Some(cap) = cap {
                prop_assert!(plan.diff(&current).len() <= cap, "budget exceeded");
            }
            prop_assert!(out.grafted == 0 && out.kept_in_place == 0);
        }
    }
}
