//! The seed (pre-dense-index) placement heuristic, kept verbatim as a
//! **differential-testing oracle** for [`crate::solver::solve`].
//!
//! This is the original id-keyed implementation: `BTreeMap` state,
//! `O(n)` `idx_of` position scans in the inner loops. It is compiled for
//! tests only (`#[cfg(test)]` in `lib.rs`), so the property tests in
//! `solver.rs` can compare plans on randomized problems. The
//! production solver must produce **identical** placements —
//! both run the same exact-allocation flow, so any divergence is a bug
//! in the dense rewrite of steps 0–6. Step 5 follows the production
//! rule: a running job is evicted only for a strictly more important
//! one, and only the jobs unplaced before step 5 search in steps 5 and 6.

use crate::allocation::allocate;
use crate::placement::Placement;
use crate::problem::{AppRequest, JobRequest, PlacementProblem};
use crate::solver::PlacementOutcome;
use slaq_types::{fcmp, AppId, JobId, MemMb, NodeId};
use std::collections::BTreeMap;

/// Mutable per-node trackers used while making discrete decisions.
struct NodeState {
    id: NodeId,
    mem_free: MemMb,
    cpu_free: f64,
}

/// Solve one cycle with the seed algorithm. `prev` is the placement
/// currently in force.
pub fn solve_reference(problem: &PlacementProblem, prev: &Placement) -> PlacementOutcome {
    solve_reference_logged(problem, prev, &mut Vec::new())
}

/// [`solve_reference`], appending one `(memory, importance, evicted)`
/// row per step-5 victim search, in search order, to `evict_log`.
pub fn solve_reference_logged(
    problem: &PlacementProblem,
    prev: &Placement,
    evict_log: &mut Vec<(MemMb, f64, bool)>,
) -> PlacementOutcome {
    let cfg = &problem.config;
    let mut budget = cfg.max_changes.unwrap_or(usize::MAX);

    let mut nodes: Vec<NodeState> = problem
        .nodes
        .iter()
        .map(|n| NodeState {
            id: n.id,
            mem_free: n.mem,
            cpu_free: n.cpu.as_f64(),
        })
        .collect();
    let idx_of = |ns: &[NodeState], id: NodeId| ns.iter().position(|n| n.id == id);

    // ------------------------------------------------------------------
    // Step 0/1: keep previous app instances and running jobs; reserve
    // memory and commit CPU.
    // ------------------------------------------------------------------
    let mut app_hosts: BTreeMap<AppId, Vec<NodeId>> = BTreeMap::new();
    for app in &problem.apps {
        let mut hosts: Vec<NodeId> = prev
            .apps
            .get(&app.id)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        hosts.retain(|h| idx_of(&nodes, *h).is_some());
        for h in &hosts {
            let i = idx_of(&nodes, *h).expect("retained");
            nodes[i].mem_free = nodes[i].mem_free.saturating_sub(app.mem_per_instance);
        }
        app_hosts.insert(app.id, hosts);
    }

    let mut ordered_jobs: Vec<&JobRequest> = problem.jobs.iter().collect();
    ordered_jobs.sort_by(|a, b| fcmp(b.priority, a.priority).then(a.id.cmp(&b.id)));

    let mut job_nodes: BTreeMap<JobId, NodeId> = BTreeMap::new();
    let mut committed: BTreeMap<JobId, f64> = BTreeMap::new();
    for job in &ordered_jobs {
        if let Some(node) = job.running_on {
            if let Some(i) = idx_of(&nodes, node) {
                if nodes[i].mem_free.fits(job.mem) || prev.jobs.contains_key(&job.id) {
                    nodes[i].mem_free = nodes[i].mem_free.saturating_sub(job.mem);
                    let got = job.demand.as_f64().min(nodes[i].cpu_free).max(0.0);
                    nodes[i].cpu_free -= got;
                    committed.insert(job.id, got);
                    job_nodes.insert(job.id, node);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Step 2: grow/shrink application instance sets.
    // ------------------------------------------------------------------
    let mut app_take: BTreeMap<(AppId, NodeId), f64> = BTreeMap::new();
    let mut ordered_apps: Vec<&AppRequest> = problem.apps.iter().collect();
    ordered_apps.sort_by(|a, b| b.demand.total_cmp(a.demand).then(a.id.cmp(&b.id)));
    for app in &ordered_apps {
        let hosts = app_hosts.entry(app.id).or_default();
        let shrink_to = if app.demand.is_zero() {
            app.min_instances.max(1) as usize
        } else {
            app.max_instances as usize
        };
        while hosts.len() > shrink_to && budget > 0 {
            let (pos, &host) = hosts
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ca = idx_of(&nodes, **a).map_or(0.0, |i| nodes[i].cpu_free);
                    let cb = idx_of(&nodes, **b).map_or(0.0, |i| nodes[i].cpu_free);
                    fcmp(ca, cb).then(a.cmp(b))
                })
                .expect("hosts nonempty");
            if let Some(i) = idx_of(&nodes, host) {
                nodes[i].mem_free += app.mem_per_instance;
            }
            hosts.remove(pos);
            budget -= 1;
        }
        loop {
            let reachable: f64 = hosts
                .iter()
                .filter_map(|h| idx_of(&nodes, *h))
                .map(|i| nodes[i].cpu_free)
                .sum();
            if reachable + 1e-6 >= app.demand.as_f64()
                || hosts.len() >= app.max_instances as usize
                || budget == 0
            {
                break;
            }
            let cand = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    n.mem_free.fits(app.mem_per_instance)
                        && n.cpu_free > 1e-9
                        && !hosts.contains(&n.id)
                })
                .max_by(|(_, a), (_, b)| fcmp(a.cpu_free, b.cpu_free).then(b.id.cmp(&a.id)))
                .map(|(i, _)| i);
            let Some(i) = cand else { break };
            nodes[i].mem_free -= app.mem_per_instance;
            hosts.push(nodes[i].id);
            budget -= 1;
        }
        let mut remaining = app.demand.as_f64();
        for _ in 0..hosts.len().max(1) {
            if remaining <= 1e-6 {
                break;
            }
            let open: Vec<usize> = hosts
                .iter()
                .filter_map(|h| idx_of(&nodes, *h))
                .filter(|&i| nodes[i].cpu_free > 1e-9)
                .collect();
            if open.is_empty() {
                break;
            }
            let share = remaining / open.len() as f64;
            for i in open {
                let host = nodes[i].id;
                let take = share.min(nodes[i].cpu_free).min(remaining);
                nodes[i].cpu_free -= take;
                remaining -= take;
                *app_take.entry((app.id, host)).or_insert(0.0) += take;
            }
        }
        while hosts.len() < app.min_instances as usize && budget > 0 {
            let cand = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.mem_free.fits(app.mem_per_instance) && !hosts.contains(&n.id))
                .max_by(|(_, a), (_, b)| fcmp(a.cpu_free, b.cpu_free).then(b.id.cmp(&a.id)))
                .map(|(i, _)| i);
            let Some(i) = cand else { break };
            nodes[i].mem_free -= app.mem_per_instance;
            hosts.push(nodes[i].id);
            budget -= 1;
        }
        hosts.sort();
    }

    // ------------------------------------------------------------------
    // Step 3: place unplaced jobs with positive targets, priority order.
    // ------------------------------------------------------------------
    let place_job =
        |job: &JobRequest, nodes: &mut [NodeState], budget: &mut usize| -> Option<NodeId> {
            if *budget == 0 || job.demand.is_zero() {
                return None;
            }
            if let Some(aff) = job.affinity {
                if let Some(i) = idx_of(nodes, aff) {
                    if nodes[i].mem_free.fits(job.mem)
                        && nodes[i].cpu_free >= job.demand.as_f64() * 0.5
                    {
                        nodes[i].mem_free -= job.mem;
                        let got = job.demand.as_f64().min(nodes[i].cpu_free);
                        nodes[i].cpu_free -= got;
                        *budget -= 1;
                        return Some(aff);
                    }
                }
            }
            let best = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.mem_free.fits(job.mem) && n.cpu_free > 1e-9)
                .max_by(|(_, a), (_, b)| {
                    fcmp(
                        a.cpu_free.min(job.demand.as_f64()),
                        b.cpu_free.min(job.demand.as_f64()),
                    )
                    .then(a.mem_free.cmp(&b.mem_free))
                    .then(b.id.cmp(&a.id))
                })
                .map(|(i, _)| i)?;
            nodes[best].mem_free -= job.mem;
            let got = job.demand.as_f64().min(nodes[best].cpu_free);
            nodes[best].cpu_free -= got;
            *budget -= 1;
            Some(nodes[best].id)
        };

    for job in &ordered_jobs {
        if job_nodes.contains_key(&job.id) {
            continue;
        }
        if let Some(node) = place_job(job, &mut nodes, &mut budget) {
            job_nodes.insert(job.id, node);
            committed.insert(job.id, job.demand.as_f64().min(f64::MAX));
        }
    }

    // ------------------------------------------------------------------
    // Step 4: rebalance — migrate shortchanged running jobs to nodes
    // with room.
    // ------------------------------------------------------------------
    for job in &ordered_jobs {
        if budget == 0 {
            break;
        }
        let Some(&cur) = job_nodes.get(&job.id) else {
            continue;
        };
        if job.running_on != Some(cur) {
            continue;
        }
        let got = committed.get(&job.id).copied().unwrap_or(0.0);
        let deficit = job.demand.as_f64() - got;
        if deficit <= job.demand.as_f64() * 0.25 {
            continue;
        }
        let target = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                n.id != cur && n.mem_free.fits(job.mem) && n.cpu_free > got + deficit * 0.5
            })
            .max_by(|(_, a), (_, b)| fcmp(a.cpu_free, b.cpu_free).then(b.id.cmp(&a.id)))
            .map(|(i, _)| i);
        if let Some(t) = target {
            let ci = idx_of(&nodes, cur).expect("current node exists");
            nodes[ci].mem_free += job.mem;
            nodes[ci].cpu_free += got;
            nodes[t].mem_free -= job.mem;
            let newgot = job.demand.as_f64().min(nodes[t].cpu_free);
            nodes[t].cpu_free -= newgot;
            committed.insert(job.id, newgot);
            job_nodes.insert(job.id, nodes[t].id);
            budget -= 1;
        }
    }

    // ------------------------------------------------------------------
    // Step 5: eviction — unplaced jobs displace strictly less important
    // running jobs (suspend + start = two changes). Only the jobs
    // unplaced at this point search, here and in step 6: a job evicted
    // below waits for the next cycle.
    // ------------------------------------------------------------------
    let waiting: Vec<&JobRequest> = ordered_jobs
        .iter()
        .filter(|j| !job_nodes.contains_key(&j.id))
        .copied()
        .collect();
    for job in &waiting {
        if budget < 2 {
            break;
        }
        if job_nodes.contains_key(&job.id) || job.demand.is_zero() {
            continue;
        }
        let victim = ordered_jobs
            .iter()
            .rev() // ascending priority
            .filter(|v| job_nodes.contains_key(&v.id) && v.importance < job.importance)
            .find(|v| {
                let node = job_nodes[&v.id];
                let i = idx_of(&nodes, node).expect("placed on known node");
                (nodes[i].mem_free + v.mem).fits(job.mem)
            })
            .map(|v| v.id);
        evict_log.push((job.mem, job.importance, victim.is_some()));
        if let Some(vid) = victim {
            let vreq = problem
                .jobs
                .iter()
                .find(|j| j.id == vid)
                .expect("victim exists");
            let node = job_nodes.remove(&vid).expect("victim placed");
            let i = idx_of(&nodes, node).expect("known node");
            nodes[i].mem_free += vreq.mem;
            nodes[i].cpu_free += committed.remove(&vid).unwrap_or(0.0);
            budget -= 1; // the suspension
            nodes[i].mem_free -= job.mem;
            let got = job.demand.as_f64().min(nodes[i].cpu_free);
            nodes[i].cpu_free -= got;
            committed.insert(job.id, got);
            job_nodes.insert(job.id, node);
            budget -= 1; // the start
        }
    }

    // ------------------------------------------------------------------
    // Step 6: reclaim — memory-blocked jobs retire zero-load application
    // instances (above min_instances) and take their slot.
    // ------------------------------------------------------------------
    for job in &waiting {
        if budget < 2 {
            break;
        }
        if job_nodes.contains_key(&job.id) || job.demand.is_zero() {
            continue;
        }
        'apps: for app in &ordered_apps {
            let hosts = app_hosts.get_mut(&app.id).expect("initialized above");
            if hosts.len() <= app.min_instances.max(1) as usize {
                continue;
            }
            for (pos, &host) in hosts.iter().enumerate() {
                let take = app_take.get(&(app.id, host)).copied().unwrap_or(0.0);
                if take > 1e-6 {
                    continue;
                }
                let i = idx_of(&nodes, host).expect("host known");
                if (nodes[i].mem_free + app.mem_per_instance).fits(job.mem)
                    && nodes[i].cpu_free > 1e-9
                {
                    nodes[i].mem_free += app.mem_per_instance;
                    hosts.remove(pos);
                    budget -= 1; // the instance stop
                    nodes[i].mem_free -= job.mem;
                    let got = job.demand.as_f64().min(nodes[i].cpu_free);
                    nodes[i].cpu_free -= got;
                    committed.insert(job.id, got);
                    job_nodes.insert(job.id, host);
                    budget -= 1; // the job start
                    break 'apps;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Step 7: exact allocation.
    // ------------------------------------------------------------------
    let placement = allocate(
        &problem.nodes,
        &problem.apps,
        &app_hosts,
        &problem.jobs,
        &job_nodes,
    );
    PlacementOutcome { placement }
}
