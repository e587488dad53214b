//! Work-conserving per-node CPU sharing.
//!
//! The controller's placement carries *guarantees* (hypervisor minimum
//! shares). Real hypervisors are work-conserving: capacity a VM leaves
//! idle flows to its node-mates. This module computes the **effective
//! speeds** that result, one node at a time (a node's outcome depends
//! on that node alone; the placement is grouped by node once per call):
//!
//! 1. every placed entity receives its guarantee;
//! 2. node spare capacity (including guarantees of blocked VMs) is
//!    water-filled across *running jobs* first, each capped at its
//!    maximum speed — this is what lets SLA-hopeless jobs (zero demand,
//!    zero guarantee) still drain to completion;
//! 3. whatever remains goes to the node's transactional instances
//!    (proportional to their guarantees, evenly when all are zero).

use slaq_placement::problem::NodeCapacity;
use slaq_placement::Placement;
use slaq_types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Compute effective speeds for every running job and every application
/// (cluster-wide aggregate over its instances).
///
/// * `job_caps` — per-job maximum speed;
/// * `blocked` — jobs currently paying a start/resume/migration latency:
///   they run at zero speed and their guarantee joins the spare pool;
/// * `cap_apps` — when `true`, transactional instances are *limited* to
///   their guarantees (the paper's middleware enforces the computed
///   fine-grained allocations as hypervisor limits, so the transactional
///   tier's delivered power equals the controller's decision exactly);
///   when `false` leftover spare flows to the instances (fully
///   work-conserving hypervisor). Jobs are always work-conserving up to
///   their speed caps — that is what drains SLA-hopeless jobs.
pub fn effective_speeds(
    nodes: &[NodeCapacity],
    placement: &Placement,
    job_caps: &BTreeMap<JobId, CpuMhz>,
    blocked: &BTreeSet<JobId>,
    cap_apps: bool,
) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>) {
    let mut job_speed: BTreeMap<JobId, CpuMhz> = BTreeMap::new();
    let mut app_speed: BTreeMap<AppId, CpuMhz> = BTreeMap::new();

    // Group the placement by node, once. Both maps iterate in id order,
    // so every node's lists come out in the order a per-node filter of
    // the whole placement would produce.
    let mut jobs_on: BTreeMap<NodeId, Vec<(JobId, CpuMhz)>> = BTreeMap::new();
    for (&j, &(n, g)) in &placement.jobs {
        jobs_on.entry(n).or_default().push((j, g));
    }
    let mut apps_on: BTreeMap<NodeId, Vec<(AppId, CpuMhz)>> = BTreeMap::new();
    for (&a, slices) in &placement.apps {
        for (&n, &g) in slices {
            apps_on.entry(n).or_default().push((a, g));
        }
    }

    for node in nodes {
        let jobs_here = jobs_on.get(&node.id).map_or(&[][..], Vec::as_slice);
        let apps_here = apps_on.get(&node.id).map_or(&[][..], Vec::as_slice);

        let mut used = CpuMhz::ZERO;
        // Guarantees (blocked jobs run at zero; their share is spare).
        let mut runnable: Vec<(JobId, CpuMhz, CpuMhz)> = Vec::new(); // (id, speed, cap)
        for &(j, g) in jobs_here {
            if blocked.contains(&j) {
                job_speed.insert(j, CpuMhz::ZERO);
                continue;
            }
            let cap = job_caps.get(&j).copied().unwrap_or(g);
            let g = g.min(cap);
            used += g;
            runnable.push((j, g, cap));
        }
        for &(_, g) in apps_here {
            used += g;
        }
        let mut spare = node.cpu.saturating_sub(used);

        // Water-fill spare across runnable jobs up to their caps.
        loop {
            let open: Vec<usize> = runnable
                .iter()
                .enumerate()
                .filter(|(_, (_, s, cap))| cap.as_f64() - s.as_f64() > 1e-9)
                .map(|(i, _)| i)
                .collect();
            if open.is_empty() || spare.as_f64() <= 1e-9 {
                break;
            }
            let share = spare / open.len() as f64;
            let mut granted_any = false;
            for i in open {
                let (_, s, cap) = runnable[i];
                let grant = (cap - s).min(share).max_zero();
                if grant.as_f64() > 0.0 {
                    runnable[i].1 += grant;
                    spare -= grant;
                    granted_any = true;
                }
            }
            if !granted_any {
                break;
            }
        }
        for (j, s, _) in &runnable {
            job_speed.insert(*j, *s);
        }

        // Remaining spare flows to transactional instances (unless the
        // controller's allocations are enforced as limits).
        if !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9 {
            let g_total: f64 = apps_here.iter().map(|(_, g)| g.as_f64()).sum();
            for &(a, g) in apps_here {
                let bonus = if g_total > 1e-9 {
                    spare * (g.as_f64() / g_total)
                } else {
                    spare / apps_here.len() as f64
                };
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g + bonus;
            }
        } else {
            for &(a, g) in apps_here {
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g;
            }
        }
    }

    (job_speed, app_speed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::{MemMb, NodeId};

    fn nodes(n: u32, cpu: f64) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(cpu),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    fn caps(ids: &[u32], cap: f64) -> BTreeMap<JobId, CpuMhz> {
        ids.iter()
            .map(|&i| (JobId::new(i), CpuMhz::new(cap)))
            .collect()
    }

    #[test]
    fn guarantees_are_enforced() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(2000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(10_000.0));
        let (js, asp) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0], 3000.0),
            &BTreeSet::new(),
            false,
        );
        // No spare: 2000 + 10 000 = 12 000 exactly.
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(2000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(10_000.0));
    }

    #[test]
    fn spare_goes_to_jobs_first_capped_at_max_speed() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(2000.0));
        // Node 12 000: guarantees 4000, spare 8000. Jobs can absorb
        // 2000 each (cap 3000), leaving 4000 for the app.
        let (js, asp) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0, 1], 3000.0),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(3000.0));
        assert_eq!(js[&JobId::new(1)], CpuMhz::new(3000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(6000.0));
    }

    #[test]
    fn zero_guarantee_job_still_drains_via_spare() {
        // The "hopeless job" path: guarantee 0 but node has spare.
        let mut p = Placement::empty();
        p.jobs.insert(JobId::new(0), (NodeId::new(0), CpuMhz::ZERO));
        let (js, _) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0], 3000.0),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(3000.0));
    }

    #[test]
    fn blocked_jobs_run_at_zero_and_donate_their_guarantee() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(3000.0)));
        let blocked: BTreeSet<JobId> = [JobId::new(0)].into();
        let (js, _) = effective_speeds(
            &nodes(1, 4000.0),
            &p,
            &caps(&[0, 1], 3000.0),
            &blocked,
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::ZERO);
        // Job1: guarantee 3000 (already at cap).
        assert_eq!(js[&JobId::new(1)], CpuMhz::new(3000.0));
    }

    #[test]
    fn water_fill_respects_unequal_headroom() {
        // Three jobs, guarantees 0, caps 1000/2000/3000; node 4500.
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs.insert(JobId::new(i), (NodeId::new(0), CpuMhz::ZERO));
        }
        let mut caps_map = BTreeMap::new();
        caps_map.insert(JobId::new(0), CpuMhz::new(1000.0));
        caps_map.insert(JobId::new(1), CpuMhz::new(2000.0));
        caps_map.insert(JobId::new(2), CpuMhz::new(3000.0));
        let (js, _) = effective_speeds(&nodes(1, 4500.0), &p, &caps_map, &BTreeSet::new(), false);
        // Equal-share rounds: 1500 each → job0 capped at 1000, its 500
        // splits 250/250 → job1 1750, job2 1750.
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(1000.0));
        assert!(js[&JobId::new(1)].approx_eq(CpuMhz::new(1750.0), 1e-6));
        assert!(js[&JobId::new(2)].approx_eq(CpuMhz::new(1750.0), 1e-6));
    }

    #[test]
    fn app_spans_nodes_and_aggregates() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(4000.0));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(1), CpuMhz::new(6000.0));
        let (_, asp) = effective_speeds(
            &nodes(2, 12_000.0),
            &p,
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        // Each node's full spare flows to the only instance there.
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(24_000.0));
    }

    #[test]
    fn zero_guarantee_instances_split_spare_evenly() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        p.apps
            .entry(AppId::new(1))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        let (_, asp) = effective_speeds(
            &nodes(1, 8000.0),
            &p,
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(4000.0));
        assert_eq!(asp[&AppId::new(1)], CpuMhz::new(4000.0));
    }

    #[test]
    fn empty_placement_produces_empty_maps() {
        let (js, asp) = effective_speeds(
            &nodes(3, 12_000.0),
            &Placement::empty(),
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        assert!(js.is_empty());
        assert!(asp.is_empty());
    }

    #[test]
    fn total_never_exceeds_node_capacity() {
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs
                .insert(JobId::new(i), (NodeId::new(0), CpuMhz::new(1000.0)));
        }
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(500.0));
        let (js, asp) = effective_speeds(
            &nodes(1, 6000.0),
            &p,
            &caps(&[0, 1, 2], 3000.0),
            &BTreeSet::new(),
            false,
        );
        let total: f64 = js.values().map(|c| c.as_f64()).sum::<f64>()
            + asp.values().map(|c| c.as_f64()).sum::<f64>();
        assert!(total <= 6000.0 + 1e-6, "{total}");
        assert!(total >= 6000.0 - 1e-6, "work-conserving: {total}");
    }
}
