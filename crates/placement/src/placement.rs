//! The placement data structure: which instances and jobs sit on which
//! nodes with what CPU allocation, plus change derivation and validation.

use crate::idmap::IdMap;
use crate::problem::{AppRequest, JobRequest, NodeCapacity};
use serde::{Deserialize, Serialize};
use slaq_types::{AppId, CpuMhz, Interner, JobId, MemMb, NodeId, SlaqError};

/// A complete placement: transactional instances with per-node CPU slices
/// and job assignments with allocations.
///
/// Both maps are [`IdMap`]s: id-sorted vectors that iterate in ascending
/// id order, which keeps the solver reproducible run to run (important
/// for the experiments).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Placement {
    /// `apps[a][n]` = CPU slice of application `a` on node `n`. Presence
    /// of the key means an instance exists there (possibly with a zero
    /// slice, e.g. a warm min-instance).
    pub apps: IdMap<AppId, IdMap<NodeId, CpuMhz>>,
    /// `jobs[j]` = node and allocation of a *running* job. Jobs absent
    /// from the map are pending or suspended.
    pub jobs: IdMap<JobId, (NodeId, CpuMhz)>,
}

/// One disruptive action needed to move from one placement to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementChange {
    /// Start an application instance on a node.
    StartInstance {
        /// Application.
        app: AppId,
        /// Target node.
        node: NodeId,
    },
    /// Stop an application instance.
    StopInstance {
        /// Application.
        app: AppId,
        /// Node losing the instance.
        node: NodeId,
    },
    /// Start (or resume) a job on a node.
    StartJob {
        /// Job.
        job: JobId,
        /// Target node.
        node: NodeId,
    },
    /// Suspend a running job.
    SuspendJob {
        /// Job.
        job: JobId,
        /// Node it was running on.
        node: NodeId,
    },
    /// Move a running job between nodes.
    MigrateJob {
        /// Job.
        job: JobId,
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
}

impl PlacementChange {
    /// Lower this change to the audit log's
    /// `(subject, from, to)` triple — raw ids, `None` for the missing
    /// side of starts/stops. Used by every layer that tags committed
    /// changes into the [`slaq_obs::Recorder`] audit ring.
    pub fn audit_parts(&self) -> (slaq_obs::AuditSubject, Option<u32>, Option<u32>) {
        use slaq_obs::AuditSubject;
        match *self {
            PlacementChange::StartInstance { app, node } => {
                (AuditSubject::App(app.raw()), None, Some(node.raw()))
            }
            PlacementChange::StopInstance { app, node } => {
                (AuditSubject::App(app.raw()), Some(node.raw()), None)
            }
            PlacementChange::StartJob { job, node } => {
                (AuditSubject::Job(job.raw()), None, Some(node.raw()))
            }
            PlacementChange::SuspendJob { job, node } => {
                (AuditSubject::Job(job.raw()), Some(node.raw()), None)
            }
            PlacementChange::MigrateJob { job, from, to } => (
                AuditSubject::Job(job.raw()),
                Some(from.raw()),
                Some(to.raw()),
            ),
        }
    }
}

impl Placement {
    /// Empty placement (cold cluster).
    pub fn empty() -> Self {
        Placement::default()
    }

    /// Cluster-wide CPU granted to an application.
    pub fn app_alloc(&self, app: AppId) -> CpuMhz {
        self.apps
            .get(&app)
            .map(|m| m.values().copied().sum())
            .unwrap_or(CpuMhz::ZERO)
    }

    /// Number of instances an application currently has.
    pub fn app_instances(&self, app: AppId) -> usize {
        self.apps.get(&app).map_or(0, IdMap::len)
    }

    /// CPU granted to a job (zero when not running).
    pub fn job_alloc(&self, job: JobId) -> CpuMhz {
        self.jobs.get(&job).map(|&(_, c)| c).unwrap_or(CpuMhz::ZERO)
    }

    /// Node a job runs on, if placed.
    pub fn job_node(&self, job: JobId) -> Option<NodeId> {
        self.jobs.get(&job).map(|&(n, _)| n)
    }

    /// Total CPU handed to jobs.
    pub fn total_job_alloc(&self) -> CpuMhz {
        self.jobs.values().map(|&(_, c)| c).sum()
    }

    /// Total CPU handed to transactional applications.
    pub fn total_app_alloc(&self) -> CpuMhz {
        self.apps.values().flat_map(|m| m.values()).copied().sum()
    }

    /// CPU committed on one node (instances + jobs).
    pub fn node_cpu_used(&self, node: NodeId) -> CpuMhz {
        let apps: CpuMhz = self
            .apps
            .values()
            .filter_map(|m| m.get(&node))
            .copied()
            .sum();
        let jobs: CpuMhz = self
            .jobs
            .values()
            .filter(|&&(n, _)| n == node)
            .map(|&(_, c)| c)
            .sum();
        apps + jobs
    }

    /// What each node has left under this placement, by position in
    /// `nodes`: `cpu_free` and `mem_free` are refilled with the
    /// capacities, then every application slice (applications in id
    /// order) and every job (in id order) is charged to the node
    /// `node_pos` places it at — its CPU subtracted in that order, its
    /// footprint with `saturating_sub`. A slice or job on a node
    /// `node_pos` does not know, or whose `app_mem` / `job_mem` is
    /// `None`, is skipped.
    pub fn residual_into(
        &self,
        nodes: &[NodeCapacity],
        node_pos: impl Fn(NodeId) -> Option<usize>,
        app_mem: impl Fn(AppId) -> Option<MemMb>,
        job_mem: impl Fn(JobId) -> Option<MemMb>,
        cpu_free: &mut Vec<f64>,
        mem_free: &mut Vec<MemMb>,
    ) {
        cpu_free.clear();
        cpu_free.extend(nodes.iter().map(|n| n.cpu.as_f64()));
        mem_free.clear();
        mem_free.extend(nodes.iter().map(|n| n.mem));
        let mut charge = |node: NodeId, cpu: CpuMhz, mem: MemMb| {
            if let Some(at) = node_pos(node) {
                cpu_free[at] -= cpu.as_f64();
                mem_free[at] = mem_free[at].saturating_sub(mem);
            }
        };
        for (&app, slices) in &self.apps {
            let Some(mem) = app_mem(app) else { continue };
            for (&node, &cpu) in slices {
                charge(node, cpu, mem);
            }
        }
        for (&job, &(node, cpu)) in &self.jobs {
            if let Some(mem) = job_mem(job) {
                charge(node, cpu, mem);
            }
        }
    }

    /// Check every capacity and structural constraint against the
    /// problem's nodes and footprints. The three slices may come in any
    /// order; each is indexed by id once and handed to
    /// [`Placement::validate_with`], so the check is linear (up to the
    /// sorts) in placed entities plus nodes.
    pub fn validate(
        &self,
        nodes: &[NodeCapacity],
        apps: &[AppRequest],
        jobs: &[JobRequest],
    ) -> Result<(), SlaqError> {
        // A repeated id resolves to its first item, as a linear `find`
        // would.
        let node_ix = Interner::new(nodes.iter().map(|n| n.id));
        let app_ix = Interner::new(apps.iter().map(|a| a.id));
        let job_ix = Interner::new(jobs.iter().map(|j| j.id));
        self.validate_with(
            nodes,
            |node| node_ix.dense(node),
            |app| {
                let req = &apps[app_ix.dense(app)?];
                Some((req.mem_per_instance, req.max_instances))
            },
            |job| Some(jobs[job_ix.dense(job)?].mem),
        )
    }

    /// [`Placement::validate`] for a caller that already holds its
    /// entities indexed (the simulator, every cycle): `node_pos` answers
    /// a node's position in `nodes` (in range: usage is accumulated
    /// there), `app_spec` an application's `(mem_per_instance,
    /// max_instances)`, `job_mem` a job's footprint; `None` means the
    /// id is unknown. The checks run in a fixed order —
    /// applications in id order (known, instance count, then per slice:
    /// node known, grant not negative), jobs in id order (known, node
    /// known, grant not negative), then CPU and memory node by node in
    /// `nodes` order — and the first failure is the verdict.
    pub fn validate_with(
        &self,
        nodes: &[NodeCapacity],
        node_pos: impl Fn(NodeId) -> Option<usize>,
        app_spec: impl Fn(AppId) -> Option<(MemMb, u32)>,
        job_mem: impl Fn(JobId) -> Option<MemMb>,
    ) -> Result<(), SlaqError> {
        // Per-node accumulation, by position in `nodes`; `None` until
        // something lands on the node.
        let mut used: Vec<Option<(CpuMhz, MemMb)>> = vec![None; nodes.len()];
        let mut land = |at: usize, cpu: CpuMhz, mem: MemMb| {
            let (c, m) = used[at].get_or_insert((CpuMhz::ZERO, MemMb::ZERO));
            *c += cpu;
            *m += mem;
        };

        for (&app, slices) in &self.apps {
            let (mem_per_instance, max_instances) =
                app_spec(app).ok_or(SlaqError::UnknownApp(app))?;
            if slices.len() > max_instances as usize {
                return Err(SlaqError::InvalidSpec(format!(
                    "{app} has {} instances, max {max_instances}",
                    slices.len(),
                )));
            }
            for (&node, &cpu) in slices {
                let at = node_pos(node).ok_or(SlaqError::UnknownNode(node))?;
                if cpu.as_f64() < -1e-9 {
                    return Err(SlaqError::InvalidSpec(format!(
                        "negative slice for {app} on {node}"
                    )));
                }
                land(at, cpu, mem_per_instance);
            }
        }
        for (&job, &(node, cpu)) in &self.jobs {
            let mem = job_mem(job).ok_or(SlaqError::UnknownJob(job))?;
            let at = node_pos(node).ok_or(SlaqError::UnknownNode(node))?;
            if cpu.as_f64() < -1e-9 {
                return Err(SlaqError::InvalidSpec(format!("negative alloc for {job}")));
            }
            land(at, cpu, mem);
        }

        for node in nodes {
            let Some((cpu, mem)) = node_pos(node.id).and_then(|at| used[at]) else {
                continue;
            };
            if cpu.as_f64() > node.cpu.as_f64() + 1e-6 {
                return Err(SlaqError::CapacityViolation {
                    node: node.id,
                    detail: format!("cpu {cpu} > {}", node.cpu),
                });
            }
            if !node.mem.fits(mem) {
                return Err(SlaqError::CapacityViolation {
                    node: node.id,
                    detail: format!("memory {mem} > {}", node.mem),
                });
            }
        }
        Ok(())
    }

    /// Derive the disruptive actions that transform `prev` into `self`.
    ///
    /// Allocation-only adjustments (same instance/node, different CPU) are
    /// free — hypervisor share changes, not placement churn.
    pub fn diff(&self, prev: &Placement) -> Vec<PlacementChange> {
        let mut changes = Vec::new();
        // Instances: those of `self` that `prev` lacks start, those of
        // `prev` that `self` lacks stop — the other side's application
        // is looked up once, not once per instance.
        for (&app, slices) in &self.apps {
            let old = prev.apps.get(&app);
            for &node in slices.keys() {
                if !old.is_some_and(|m| m.contains_key(&node)) {
                    changes.push(PlacementChange::StartInstance { app, node });
                }
            }
        }
        for (&app, slices) in &prev.apps {
            let new = self.apps.get(&app);
            for &node in slices.keys() {
                if !new.is_some_and(|m| m.contains_key(&node)) {
                    changes.push(PlacementChange::StopInstance { app, node });
                }
            }
        }
        // Jobs: both maps iterate id-sorted, so one lockstep merge
        // replaces the 2·J point lookups a naive double scan would pay —
        // the diff is a hot-path cost on every control cycle. Suspends
        // are buffered so the output order (starts/migrations in new-map
        // order, then suspends in old-map order) matches the lookup
        // formulation exactly.
        let mut suspends = Vec::new();
        let mut new_it = self.jobs.iter().peekable();
        let mut old_it = prev.jobs.iter().peekable();
        loop {
            match (new_it.peek(), old_it.peek()) {
                (Some(&(&job, &(node, _))), None) => {
                    changes.push(PlacementChange::StartJob { job, node });
                    new_it.next();
                }
                (None, Some(&(&job, &(node, _)))) => {
                    suspends.push(PlacementChange::SuspendJob { job, node });
                    old_it.next();
                }
                (Some(&(&job, &(node, _))), Some(&(&old_job, &(old_node, _)))) => {
                    match job.cmp(&old_job) {
                        std::cmp::Ordering::Less => {
                            changes.push(PlacementChange::StartJob { job, node });
                            new_it.next();
                        }
                        std::cmp::Ordering::Greater => {
                            suspends.push(PlacementChange::SuspendJob {
                                job: old_job,
                                node: old_node,
                            });
                            old_it.next();
                        }
                        std::cmp::Ordering::Equal => {
                            if node != old_node {
                                changes.push(PlacementChange::MigrateJob {
                                    job,
                                    from: old_node,
                                    to: node,
                                });
                            }
                            new_it.next();
                            old_it.next();
                        }
                    }
                }
                (None, None) => break,
            }
        }
        changes.extend(suspends);
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PlacementConfig;

    fn nodes(n: u32) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(12_000.0),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    fn app_req(id: u32, demand: f64) -> AppRequest {
        AppRequest {
            id: AppId::new(id),
            demand: CpuMhz::new(demand),
            mem_per_instance: MemMb::new(1024),
            min_instances: 1,
            max_instances: 10,
            affinity: Vec::new(),
        }
    }

    fn job_req(id: u32, demand: f64) -> JobRequest {
        JobRequest {
            id: JobId::new(id),
            demand: CpuMhz::new(demand),
            mem: MemMb::new(1280),
            running_on: None,
            affinity: None,
            priority: demand,
        }
    }

    fn place(app_slices: &[(u32, u32, f64)], job_slots: &[(u32, u32, f64)]) -> Placement {
        let mut p = Placement::empty();
        for &(a, n, c) in app_slices {
            p.apps
                .entry(AppId::new(a))
                .or_default()
                .insert(NodeId::new(n), CpuMhz::new(c));
        }
        for &(j, n, c) in job_slots {
            p.jobs
                .insert(JobId::new(j), (NodeId::new(n), CpuMhz::new(c)));
        }
        p
    }

    #[test]
    fn accessors_aggregate_correctly() {
        let p = place(
            &[(0, 0, 4000.0), (0, 1, 2000.0), (1, 1, 1000.0)],
            &[(0, 0, 3000.0), (1, 1, 3000.0)],
        );
        assert_eq!(p.app_alloc(AppId::new(0)), CpuMhz::new(6000.0));
        assert_eq!(p.app_instances(AppId::new(0)), 2);
        assert_eq!(p.app_alloc(AppId::new(9)), CpuMhz::ZERO);
        assert_eq!(p.job_alloc(JobId::new(1)), CpuMhz::new(3000.0));
        assert_eq!(p.job_node(JobId::new(0)), Some(NodeId::new(0)));
        assert_eq!(p.job_node(JobId::new(7)), None);
        assert_eq!(p.total_job_alloc(), CpuMhz::new(6000.0));
        assert_eq!(p.total_app_alloc(), CpuMhz::new(7000.0));
        assert_eq!(p.node_cpu_used(NodeId::new(1)), CpuMhz::new(6000.0));
    }

    #[test]
    fn residual_into_charges_applications_then_jobs_by_position() {
        // Positions follow `nodes`, not ids; node 9 is unknown.
        let nodes = [(7, 1.0, 800), (3, 500.0, 1000)].map(|(id, cpu, mem)| NodeCapacity {
            id: NodeId::new(id),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(mem),
        });
        let p = place(
            &[(0, 7, 0.3), (1, 3, 100.0), (2, 3, 50.0), (0, 9, 10.0)],
            &[(0, 7, 0.6), (1, 3, 200.0), (2, 9, 10.0), (3, 3, 25.0)],
        );
        let pos = |n: NodeId| nodes.iter().position(|c| c.id == n);
        // Application 2 and job 3 have no footprint: skipped, CPU and all.
        let app_mem = |a: AppId| (a.raw() != 2).then(|| MemMb::new(600));
        let job_mem = |j: JobId| (j.raw() != 3).then(|| MemMb::new(300));
        let (mut cpu, mut mem) = (vec![f64::NAN; 5], vec![MemMb::ZERO]);
        p.residual_into(&nodes, pos, app_mem, job_mem, &mut cpu, &mut mem);

        // The order decides the last bit: applications, then jobs, each
        // subtracted from the capacity in turn.
        let apps_first: f64 = (1.0 - 0.3) - 0.6;
        assert_ne!(apps_first, (1.0 - 0.6) - 0.3);
        assert_ne!(apps_first, 1.0 - (0.3 + 0.6));
        assert_eq!(cpu[0].to_bits(), apps_first.to_bits());
        assert_eq!(cpu[1], 500.0 - 100.0 - 200.0);
        assert_eq!(cpu.len(), 2);
        // 800 − 600 − 300 saturates at zero; 1 000 − 600 − 300 = 100.
        assert_eq!(mem, vec![MemMb::ZERO, MemMb::new(100)]);
    }

    #[test]
    fn validate_accepts_a_legal_placement() {
        let p = place(&[(0, 0, 4000.0)], &[(0, 0, 3000.0), (1, 0, 3000.0)]);
        let apps = vec![app_req(0, 4000.0)];
        let jobs = vec![job_req(0, 3000.0), job_req(1, 3000.0)];
        p.validate(&nodes(1), &apps, &jobs).unwrap();
    }

    #[test]
    fn validate_rejects_cpu_overcommit() {
        let p = place(&[(0, 0, 10_000.0)], &[(0, 0, 3000.0)]);
        let err = p
            .validate(&nodes(1), &[app_req(0, 10_000.0)], &[job_req(0, 3000.0)])
            .unwrap_err();
        assert!(matches!(err, SlaqError::CapacityViolation { .. }), "{err}");
    }

    #[test]
    fn validate_rejects_memory_overcommit() {
        // 3 jobs fit (3840 MB), a 4th (5120 MB) does not.
        let p = place(
            &[],
            &[(0, 0, 100.0), (1, 0, 100.0), (2, 0, 100.0), (3, 0, 100.0)],
        );
        let jobs: Vec<JobRequest> = (0..4).map(|i| job_req(i, 100.0)).collect();
        let err = p.validate(&nodes(1), &[], &jobs).unwrap_err();
        assert!(matches!(err, SlaqError::CapacityViolation { .. }));
    }

    #[test]
    fn validate_rejects_unknown_entities() {
        let p = place(&[(0, 0, 1.0)], &[]);
        assert!(matches!(
            p.validate(&nodes(1), &[], &[]),
            Err(SlaqError::UnknownApp(_))
        ));
        let p = place(&[], &[(0, 5, 1.0)]);
        assert!(matches!(
            p.validate(&nodes(1), &[], &[job_req(0, 1.0)]),
            Err(SlaqError::UnknownNode(_))
        ));
    }

    #[test]
    fn validate_rejects_instance_count_above_max() {
        let mut req = app_req(0, 100.0);
        req.max_instances = 1;
        let p = place(&[(0, 0, 50.0), (0, 1, 50.0)], &[]);
        assert!(p.validate(&nodes(2), &[req], &[]).is_err());
    }

    #[test]
    fn diff_detects_all_change_kinds() {
        let prev = place(
            &[(0, 0, 1000.0), (0, 1, 1000.0)],
            &[(0, 0, 3000.0), (1, 1, 3000.0), (2, 2, 3000.0)],
        );
        let next = place(
            &[(0, 0, 2000.0), (0, 2, 500.0)], // node1 stopped, node2 started, node0 resized (free)
            &[(0, 0, 2000.0), (1, 2, 3000.0), (3, 1, 1000.0)], // job1 migrated, job2 suspended, job3 started
        );
        let changes = next.diff(&prev);
        assert!(changes.contains(&PlacementChange::StartInstance {
            app: AppId::new(0),
            node: NodeId::new(2)
        }));
        assert!(changes.contains(&PlacementChange::StopInstance {
            app: AppId::new(0),
            node: NodeId::new(1)
        }));
        assert!(changes.contains(&PlacementChange::MigrateJob {
            job: JobId::new(1),
            from: NodeId::new(1),
            to: NodeId::new(2)
        }));
        assert!(changes.contains(&PlacementChange::SuspendJob {
            job: JobId::new(2),
            node: NodeId::new(2)
        }));
        assert!(changes.contains(&PlacementChange::StartJob {
            job: JobId::new(3),
            node: NodeId::new(1)
        }));
        assert_eq!(
            changes.len(),
            5,
            "allocation resize must be free: {changes:?}"
        );
    }

    #[test]
    fn diff_of_identical_placements_is_empty() {
        let p = place(&[(0, 0, 1000.0)], &[(0, 1, 500.0)]);
        assert!(p.diff(&p.clone()).is_empty());
        let _ = PlacementConfig::default(); // silence unused-import lint path
    }
}
