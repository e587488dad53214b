//! `core::pipeline::reconcile` as it stood before it read the live nodes
//! by position: the `live` map, the id-keyed `cpu_free` / `mem_free`
//! ledgers built by hand, two `retain` passes over the plan's jobs, and
//! the one-pass clamp guard over the `live` map — kept verbatim, with one
//! switch added: `jobs_first` charges the plan's jobs to the ledger before
//! its application slices, the mutation `tests/reconcile_oracle.rs` must
//! catch.

use slaq::core::ReconcileOutcome;
use slaq::placement::{Placement, PlacementChange};
use slaq::sim::ControlInputs;
use slaq::types::{AppId, CpuMhz, JobId, MemMb, NodeId};
use std::collections::BTreeMap;

/// The live nodes `plan` overcommits — CPU beyond capacity (by more than
/// 1e-6) or memory that does not fit — in id order. One pass over the
/// plan: usage accumulates by node position, applications in id order and
/// then jobs in id order, so each node's float sum is exactly the one a
/// scan of the whole plan for that node alone would form.
fn overcommitted_nodes(
    plan: &Placement,
    live: &BTreeMap<NodeId, (CpuMhz, MemMb)>,
    app_mem: impl Fn(AppId) -> MemMb,
    job_mem: impl Fn(JobId) -> MemMb,
) -> Vec<NodeId> {
    let ids: Vec<NodeId> = live.keys().copied().collect();
    let mut cpu_used = vec![0.0f64; ids.len()];
    let mut mem_used = vec![MemMb::ZERO; ids.len()];
    for (&app, slices) in &plan.apps {
        let mem = app_mem(app);
        for (node, cpu) in slices {
            if let Ok(at) = ids.binary_search(node) {
                cpu_used[at] += cpu.as_f64();
                mem_used[at] += mem;
            }
        }
    }
    for (&job, (node, cpu)) in &plan.jobs {
        if let Ok(at) = ids.binary_search(node) {
            cpu_used[at] += cpu.as_f64();
            mem_used[at] += job_mem(job);
        }
    }
    live.iter()
        .zip(cpu_used.into_iter().zip(mem_used))
        .filter(|&((_, &(cap, mem_cap)), (cpu, mem))| {
            !cap.is_zero() && (cpu > cap.as_f64() + 1e-6 || !mem_cap.fits(mem))
        })
        .map(|((&node, _), _)| node)
        .collect()
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
    jobs_first: bool,
) -> ReconcileOutcome {
    let mut out = ReconcileOutcome::default();
    let live: BTreeMap<NodeId, (CpuMhz, MemMb)> = inputs
        .nodes
        .iter()
        .map(|n| (n.id, (n.cpu, n.mem)))
        .collect();
    let dead = |id: NodeId| live.get(&id).is_none_or(|&(cpu, _)| cpu.is_zero());

    // 1. Jobs that completed (or are unknown) hold no assignment.
    plan.jobs.retain(|&j, _| {
        let active = inputs
            .jobs
            .job(j)
            .map(|job| job.is_active())
            .unwrap_or(false);
        if !active {
            out.dropped_inactive += 1;
        }
        active
    });

    // 2. Nothing lands on a dead node.
    plan.jobs.retain(|_, &mut (node, _)| {
        if dead(node) {
            out.dropped_dead += 1;
            false
        } else {
            true
        }
    });
    for slices in plan.apps.values_mut() {
        slices.retain(|&node, _| {
            if dead(node) {
                out.dropped_dead += 1;
                false
            } else {
                true
            }
        });
    }

    // Residual capacities of the live nodes under the plan.
    let mut cpu_free: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut mem_free: BTreeMap<NodeId, MemMb> = BTreeMap::new();
    for (&id, &(cpu, mem)) in &live {
        if !dead(id) {
            cpu_free.insert(id, cpu.as_f64());
            mem_free.insert(id, mem);
        }
    }
    let app_mem = |app: AppId| -> MemMb {
        inputs
            .apps
            .iter()
            .find(|a| a.id == app)
            .map(|a| a.spec.mem_per_instance)
            .unwrap_or(MemMb::ZERO)
    };
    let job_mem = |job: JobId| -> MemMb {
        inputs
            .jobs
            .job(job)
            .map(|j| j.spec.mem)
            .unwrap_or(MemMb::ZERO)
    };
    // The mutation the oracle must catch: jobs charged before
    // applications.
    if jobs_first {
        for (&job, &(node, cpu)) in &plan.jobs {
            if let Some(f) = cpu_free.get_mut(&node) {
                *f -= cpu.as_f64();
            }
            if let Some(f) = mem_free.get_mut(&node) {
                *f = f.saturating_sub(job_mem(job));
            }
        }
    }
    for (&app, slices) in &plan.apps {
        let mem = app_mem(app);
        for (&node, &cpu) in slices {
            if let Some(f) = cpu_free.get_mut(&node) {
                *f -= cpu.as_f64();
            }
            if let Some(f) = mem_free.get_mut(&node) {
                *f = f.saturating_sub(mem);
            }
        }
    }
    if !jobs_first {
        for (&job, &(node, cpu)) in &plan.jobs {
            if let Some(f) = cpu_free.get_mut(&node) {
                *f -= cpu.as_f64();
            }
            if let Some(f) = mem_free.get_mut(&node) {
                *f = f.saturating_sub(job_mem(job));
            }
        }
    }

    // 3. Continuity: a job running *now* that the plan's snapshot did not
    // know as placed was placed by an interim plan — the stale plan's
    // omission (or relocation) of it is ignorance, not a decision. Keep
    // it where it runs whenever the capacity still allows.
    for (&job, &(node, live_alloc)) in &inputs.current.jobs {
        if snapshot_placement.jobs.contains_key(&job) || dead(node) {
            continue;
        }
        let mem = job_mem(job);
        match plan.jobs.get(&job).copied() {
            // The plan moved a job it never saw running: keep it put.
            // Memory is the hard gate; the CPU grant clamps to whatever
            // residual remains (possibly zero — a running job at a zero
            // guarantee still draws work-conserving spare and dodges a
            // suspend/resume round trip).
            Some((planned, alloc)) if planned != node => {
                if mem_free.get(&node).is_some_and(|f| f.fits(mem)) {
                    if let Some(f) = cpu_free.get_mut(&planned) {
                        *f += alloc.as_f64();
                    }
                    if let Some(f) = mem_free.get_mut(&planned) {
                        *f += mem;
                    }
                    let grant = alloc.as_f64().min(cpu_free[&node]).max(0.0);
                    *cpu_free.get_mut(&node).expect("alive node") -= grant;
                    let mf = mem_free.get_mut(&node).expect("alive node");
                    *mf = mf.saturating_sub(mem);
                    plan.jobs.insert(job, (node, CpuMhz::new(grant)));
                    out.kept_in_place += 1;
                }
            }
            // The plan omitted a job it never saw running: graft it back.
            None => {
                if mem_free.get(&node).is_some_and(|f| f.fits(mem)) {
                    let grant = live_alloc.as_f64().min(cpu_free[&node]).max(0.0);
                    *cpu_free.get_mut(&node).expect("alive node") -= grant;
                    let mf = mem_free.get_mut(&node).expect("alive node");
                    *mf = mf.saturating_sub(mem);
                    plan.jobs.insert(job, (node, CpuMhz::new(grant)));
                    out.grafted += 1;
                }
            }
            Some(_) => {}
        }
    }

    // 4. Clamp guard: a plan that still overcommits a live node (it
    // should not, after the steps above) gets its CPU scaled down
    // proportionally and its newest jobs shed until memory fits.
    for node in overcommitted_nodes(plan, &live, app_mem, job_mem) {
        let (cap, mem_cap) = live[&node];
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
            // Migrations first: keep the job at its live node when the
            // residual capacity there (conservatively tracked — clamps
            // and cancellations only free more) still fits it.
            let mut migrations: Vec<(JobId, NodeId, NodeId)> = diff
                .iter()
                .filter_map(|c| match c {
                    PlacementChange::MigrateJob { job, from, to } => Some((*job, *from, *to)),
                    _ => None,
                })
                .collect();
            migrations.sort_unstable_by_key(|m| std::cmp::Reverse(m.0));
            for (job, from, to) in migrations {
                if excess == 0 {
                    break;
                }
                let mem = job_mem(job);
                if dead(from) || !mem_free.get(&from).is_some_and(|f| f.fits(mem)) {
                    continue;
                }
                let alloc = plan.job_alloc(job);
                if let Some(f) = cpu_free.get_mut(&to) {
                    *f += alloc.as_f64();
                }
                if let Some(f) = mem_free.get_mut(&to) {
                    *f += mem;
                }
                let grant = alloc.as_f64().min(cpu_free[&from]).max(0.0);
                *cpu_free.get_mut(&from).expect("alive node") -= grant;
                let mf = mem_free.get_mut(&from).expect("alive node");
                *mf = mf.saturating_sub(mem);
                plan.jobs.insert(job, (from, CpuMhz::new(grant)));
                out.cancelled += 1;
                excess -= 1;
            }
            let mut job_starts: Vec<JobId> = diff
                .iter()
                .filter_map(|c| match c {
                    PlacementChange::StartJob { job, .. } => Some(*job),
                    _ => None,
                })
                .collect();
            job_starts.sort_unstable_by(|a, b| b.cmp(a));
            for job in job_starts {
                if excess == 0 {
                    break;
                }
                plan.jobs.remove(&job);
                out.cancelled += 1;
                excess -= 1;
            }
            let mut inst_starts: Vec<(AppId, NodeId)> = diff
                .iter()
                .filter_map(|c| match c {
                    PlacementChange::StartInstance { app, node } => Some((*app, *node)),
                    _ => None,
                })
                .collect();
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
