//! Work-conserving per-node CPU sharing.
//!
//! The controller's placement carries *guarantees* (hypervisor minimum
//! shares). Real hypervisors are work-conserving: capacity a VM leaves
//! idle flows to its node-mates. This module computes the **effective
//! speeds** that result, one node at a time (a node's outcome depends
//! on that node alone; `NodeSpeeds` sorts the placement by node once
//! per call):
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

/// "Not in the node list" in the position table.
const NONE: u32 = u32::MAX;

/// One job of the placement, as its node sees it.
#[derive(Debug, Clone, Copy)]
struct PlacedJob {
    id: JobId,
    guarantee: CpuMhz,
    /// Maximum speed (the guarantee itself for a job without a cap).
    cap: CpuMhz,
    /// Paying a start/resume/migration latency: runs at zero speed and
    /// its guarantee joins the node's spare pool.
    blocked: bool,
}

/// One application instance of the placement.
#[derive(Debug, Clone, Copy)]
struct Slice {
    /// Position of its application in `app_ids`.
    app: u32,
    guarantee: CpuMhz,
}

/// Turn per-node counts (`starts[pos + 1]`, `starts[0] == 0`) into range
/// starts and return a copy to use as the counting sort's fill cursor.
fn prefix_sums(starts: &mut [u32]) -> Vec<u32> {
    for pos in 1..starts.len() {
        starts[pos] += starts[pos - 1];
    }
    starts[..starts.len() - 1].to_vec()
}

/// The placement counting-sorted by node position (two CSR tables: jobs
/// and instances) with the effective speeds it yields in dense `Vec`s.
///
/// Nodes are addressed by their *position* in the node list given to
/// [`NodeSpeeds::new`], whose ids must be distinct. The id → position
/// table is dense by [`NodeId::index`], like the job manager's (cluster
/// specs number their nodes from zero).
struct NodeSpeeds {
    /// [`NodeId::index`] → position in the node list.
    node_pos: Vec<u32>,
    /// Placed jobs, grouped by node position, id order within a node.
    jobs: Vec<PlacedJob>,
    /// Node position → start of its range in `jobs` (`len + 1` entries).
    job_start: Vec<u32>,
    /// Effective speeds, parallel to `jobs`.
    job_speed: Vec<CpuMhz>,
    /// Indices into `jobs`, in job-id order.
    jobs_by_id: Vec<u32>,
    /// Applications with at least one instance on a listed node,
    /// ascending.
    app_ids: Vec<AppId>,
    /// Instances, grouped by node position, application order within.
    slices: Vec<Slice>,
    /// Node position → start of its range in `slices`.
    slice_start: Vec<u32>,
    /// Cluster-wide delivered CPU, parallel to `app_ids`.
    app_speed: Vec<CpuMhz>,
    /// Water-fill scratch, reused from node to node: `(index in jobs,
    /// speed, cap)` of the node's unblocked jobs …
    runnable: Vec<(usize, CpuMhz, CpuMhz)>,
    /// … and the positions in `runnable` still below their cap.
    open: Vec<usize>,
}

impl NodeSpeeds {
    /// An empty index over `nodes` (only their ids and order are kept).
    fn new(nodes: &[NodeCapacity]) -> Self {
        let table = nodes.iter().map(|n| n.id.index() + 1).max().unwrap_or(0);
        let mut node_pos = vec![NONE; table];
        for (pos, node) in nodes.iter().enumerate() {
            debug_assert_eq!(node_pos[node.id.index()], NONE, "duplicate {}", node.id);
            node_pos[node.id.index()] = pos as u32;
        }
        NodeSpeeds {
            node_pos,
            jobs: Vec::new(),
            job_start: vec![0; nodes.len() + 1],
            job_speed: Vec::new(),
            jobs_by_id: Vec::new(),
            app_ids: Vec::new(),
            slices: Vec::new(),
            slice_start: vec![0; nodes.len() + 1],
            app_speed: Vec::new(),
            runnable: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Position of `node` in the node list, if it is listed.
    fn position(&self, node: NodeId) -> Option<usize> {
        match self.node_pos.get(node.index()) {
            Some(&pos) if pos != NONE => Some(pos as usize),
            _ => None,
        }
    }

    /// Index `placement`. `cap_of` is a job's maximum speed (`None`: its
    /// guarantee is its cap), `is_blocked` whether it is paying a
    /// placement latency right now. Entities on nodes outside the node
    /// list have no speed and are left out.
    fn rebuild(
        &mut self,
        placement: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
    ) {
        // Jobs: a counting sort by node position. The placement map
        // iterates in id order, so each node's range comes out id-sorted.
        self.job_start.fill(0);
        for &(node, _) in placement.jobs.values() {
            if let Some(pos) = self.position(node) {
                self.job_start[pos + 1] += 1;
            }
        }
        let mut cursor = prefix_sums(&mut self.job_start);
        let placed = self.job_start[self.job_start.len() - 1] as usize;
        let vacant = PlacedJob {
            id: JobId::new(0),
            guarantee: CpuMhz::ZERO,
            cap: CpuMhz::ZERO,
            blocked: false,
        };
        self.jobs.clear();
        self.jobs.resize(placed, vacant);
        self.job_speed.clear();
        self.job_speed.resize(placed, CpuMhz::ZERO);
        self.jobs_by_id.clear();
        self.jobs_by_id.reserve(placed);
        for (&id, &(node, guarantee)) in &placement.jobs {
            let Some(pos) = self.position(node) else {
                continue;
            };
            let slot = cursor[pos];
            cursor[pos] += 1;
            self.jobs[slot as usize] = PlacedJob {
                id,
                guarantee,
                cap: cap_of(id).unwrap_or(guarantee),
                blocked: is_blocked(id),
            };
            self.jobs_by_id.push(slot);
        }

        // Instances: the same sort. Applications come in id order, so a
        // node's range is in application order.
        self.slice_start.fill(0);
        for per_node in placement.apps.values() {
            for &node in per_node.keys() {
                if let Some(pos) = self.position(node) {
                    self.slice_start[pos + 1] += 1;
                }
            }
        }
        let mut cursor = prefix_sums(&mut self.slice_start);
        let placed = self.slice_start[self.slice_start.len() - 1] as usize;
        self.slices.clear();
        self.slices.resize(
            placed,
            Slice {
                app: 0,
                guarantee: CpuMhz::ZERO,
            },
        );
        self.app_ids.clear();
        for (&app, per_node) in &placement.apps {
            let mut listed = false;
            for (&node, &guarantee) in per_node {
                let Some(pos) = self.position(node) else {
                    continue;
                };
                listed = true;
                self.slices[cursor[pos] as usize] = Slice {
                    app: self.app_ids.len() as u32,
                    guarantee,
                };
                cursor[pos] += 1;
            }
            if listed {
                self.app_ids.push(app);
            }
        }
        self.app_speed.clear();
        self.app_speed.resize(self.app_ids.len(), CpuMhz::ZERO);
    }

    /// Share every node's CPU among what sits on it, under the
    /// capacities `nodes` (same ids and order as at construction).
    /// `cap_apps` limits transactional instances to their guarantees;
    /// otherwise a node's leftover spare flows to them. An application's
    /// total is summed in node order.
    fn recompute(&mut self, nodes: &[NodeCapacity], cap_apps: bool) {
        debug_assert_eq!(nodes.len() + 1, self.job_start.len());
        self.app_speed.fill(CpuMhz::ZERO);
        for (pos, node) in nodes.iter().enumerate() {
            let on_node = self.job_start[pos] as usize..self.job_start[pos + 1] as usize;
            let apps_here =
                &self.slices[self.slice_start[pos] as usize..self.slice_start[pos + 1] as usize];

            let mut used = CpuMhz::ZERO;
            // Guarantees (blocked jobs run at zero; their share is spare).
            self.runnable.clear();
            for i in on_node {
                let pj = self.jobs[i];
                if pj.blocked {
                    self.job_speed[i] = CpuMhz::ZERO;
                    continue;
                }
                let g = pj.guarantee.min(pj.cap);
                used += g;
                self.runnable.push((i, g, pj.cap));
            }
            for s in apps_here {
                used += s.guarantee;
            }
            let mut spare = node.cpu.saturating_sub(used);

            // Water-fill spare across runnable jobs up to their caps.
            loop {
                self.open.clear();
                self.open.extend(
                    self.runnable
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, s, cap))| cap.as_f64() - s.as_f64() > 1e-9)
                        .map(|(i, _)| i),
                );
                if self.open.is_empty() || spare.as_f64() <= 1e-9 {
                    break;
                }
                let share = spare / self.open.len() as f64;
                let mut granted_any = false;
                for &i in &self.open {
                    let (_, s, cap) = self.runnable[i];
                    let grant = (cap - s).min(share).max_zero();
                    if grant.as_f64() > 0.0 {
                        self.runnable[i].1 += grant;
                        spare -= grant;
                        granted_any = true;
                    }
                }
                if !granted_any {
                    break;
                }
            }
            for &(i, s, _) in &self.runnable {
                self.job_speed[i] = s;
            }

            // Remaining spare flows to transactional instances (unless the
            // controller's allocations are enforced as limits).
            if !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9 {
                let g_total: f64 = apps_here.iter().map(|s| s.guarantee.as_f64()).sum();
                for s in apps_here {
                    let bonus = if g_total > 1e-9 {
                        spare * (s.guarantee.as_f64() / g_total)
                    } else {
                        spare / apps_here.len() as f64
                    };
                    self.app_speed[s.app as usize] += s.guarantee + bonus;
                }
            } else {
                for s in apps_here {
                    self.app_speed[s.app as usize] += s.guarantee;
                }
            }
        }
    }

    /// The speeds as maps: one entry per job and per application with at
    /// least one instance, on listed nodes.
    fn to_maps(&self) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>) {
        let jobs = self
            .jobs_by_id
            .iter()
            .map(|&slot| (self.jobs[slot as usize].id, self.job_speed[slot as usize]))
            .collect();
        let apps = self
            .app_ids
            .iter()
            .copied()
            .zip(self.app_speed.iter().copied())
            .collect();
        (jobs, apps)
    }
}

/// Compute effective speeds for every running job and every application
/// (cluster-wide aggregate over its instances). The ids of `nodes` must
/// be distinct.
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
    let mut speeds = NodeSpeeds::new(nodes);
    speeds.rebuild(
        placement,
        |j| job_caps.get(&j).copied(),
        |j| blocked.contains(&j),
    );
    speeds.recompute(nodes, cap_apps);
    speeds.to_maps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::MemMb;

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
