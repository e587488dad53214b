//! Baseline controllers for experiment E3 (ARCHITECTURE.md, *Crate map*).
//!
//! The paper motivates utility-driven management by contrast with (a)
//! schedulers that always privilege the interactive tier and queue batch
//! work FCFS, and (b) static partitioning of the cluster between workload
//! classes (its reference \[6\], Solaris Resource Manager-style). These two
//! controllers make that contrast measurable.

use slaq_jobs::JobManager;
use slaq_placement::problem::{AppRequest, JobRequest, PlacementConfig, PlacementProblem};
use slaq_placement::{solve, Placement};
use slaq_sim::{AppObservation, ControlInputs, Controller, MetricsSink};
use slaq_types::{CpuMhz, NodeId};
use slaq_utility::UtilityOfCpu;

/// Every application asks for its maximum-utility allocation outright.
fn full_demand_apps(apps: &[AppObservation]) -> Vec<AppRequest> {
    apps.iter()
        .map(|a| {
            let demand = slaq_perfmodel::TransactionalModel::new(a.spec.clone(), a.lambda)
                .map(|m| m.max_useful_cpu())
                .unwrap_or(CpuMhz::ZERO);
            AppRequest {
                id: a.id,
                demand,
                mem_per_instance: a.spec.mem_per_instance,
                min_instances: a.spec.min_instances,
                max_instances: a.spec.max_instances,
                affinity: Vec::new(),
            }
        })
        .collect()
}

/// Every active job asks for full speed; priority is submission order
/// (FCFS): older (lower id) first via a decreasing priority ramp. Every
/// job weighs 1.0 — FCFS is blind to class, and jobs of one class never
/// preempt each other. A job keeps its node only where `keep` allows it.
fn fcfs_jobs(jobs: &JobManager, keep: impl Fn(NodeId) -> bool) -> Vec<JobRequest> {
    jobs.active()
        .map(|j| JobRequest {
            id: j.id,
            demand: j.spec.max_speed,
            mem: j.spec.mem,
            running_on: match j.state {
                slaq_jobs::JobState::Running { node } if keep(node) => Some(node),
                _ => None,
            },
            affinity: j.state.node().filter(|&n| keep(n)),
            priority: f64::from(u32::MAX - j.id.raw()),
            importance: 1.0,
        })
        .collect()
}

/// Transactional-first FCFS: applications always receive their **full**
/// demand (for maximum utility); jobs queue FCFS for whatever CPU and
/// memory remain, each at full speed, with no SLA awareness and no
/// suspension of running jobs.
#[derive(Debug, Clone, Default)]
pub struct TransactionalFirstController {
    /// Placement knobs (shared with the utility controller for fairness).
    pub placement: PlacementConfig,
}

impl Controller for TransactionalFirstController {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        let now = inputs.now;
        let apps = full_demand_apps(inputs.apps);
        let jobs = fcfs_jobs(inputs.jobs, |_| true);
        let trans_demand: CpuMhz = apps.iter().map(|a| a.demand).sum();
        let jobs_demand: CpuMhz = jobs.iter().map(|j| j.demand).sum();
        metrics.record("trans_demand", now, trans_demand.as_f64());
        metrics.record("jobs_demand", now, jobs_demand.as_f64());

        let problem = PlacementProblem {
            nodes: inputs.nodes.to_vec(),
            apps,
            jobs,
            config: self.placement,
        };
        solve(&problem, inputs.current).placement
    }
}

/// Static partitioning: the first `⌈fraction·N⌉` nodes belong to the
/// transactional tier, the rest to jobs; neither side ever crosses the
/// fence (the paper's reference \[6\] consolidation model).
#[derive(Debug, Clone)]
pub struct StaticPartitionController {
    /// Fraction of nodes reserved for the transactional tier, in (0, 1).
    pub trans_fraction: f64,
    /// Placement knobs.
    pub placement: PlacementConfig,
}

impl StaticPartitionController {
    fn split(&self, n: usize) -> usize {
        ((n as f64 * self.trans_fraction).ceil() as usize).clamp(1, n.saturating_sub(1).max(1))
    }
}

impl Controller for StaticPartitionController {
    fn control(&mut self, inputs: &ControlInputs<'_>, _metrics: &mut MetricsSink) -> Placement {
        let k = self.split(inputs.nodes.len());
        let trans_nodes = &inputs.nodes[..k];
        let job_nodes = &inputs.nodes[k..];
        let fence: NodeId = job_nodes
            .first()
            .map(|n| n.id)
            .unwrap_or_else(|| NodeId::new(u32::MAX));

        // Solve the two partitions independently and merge.
        let apps = full_demand_apps(inputs.apps);
        let mut prev_trans = Placement::empty();
        let mut prev_jobs = Placement::empty();
        for (&app, slices) in &inputs.current.apps {
            for (&node, &cpu) in slices {
                if node < fence {
                    prev_trans.apps.entry(app).or_default().insert(node, cpu);
                }
            }
        }
        for (&job, &(node, cpu)) in &inputs.current.jobs {
            if node >= fence {
                prev_jobs.jobs.insert(job, (node, cpu));
            }
        }

        let trans_problem = PlacementProblem {
            nodes: trans_nodes.to_vec(),
            apps,
            jobs: vec![],
            config: self.placement,
        };
        let trans_part = solve(&trans_problem, &prev_trans).placement;

        let jobs = fcfs_jobs(inputs.jobs, |n| n >= fence);
        let job_problem = PlacementProblem {
            nodes: job_nodes.to_vec(),
            apps: vec![],
            jobs,
            config: self.placement,
        };
        let job_part = solve(&job_problem, &prev_jobs).placement;

        let mut merged = trans_part;
        merged.jobs = job_part.jobs;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_jobs::JobSpec;
    use slaq_perfmodel::TransactionalSpec;
    use slaq_sim::{Faults, OverheadConfig, SimConfig, Simulator, TransactionalRuntime};
    use slaq_types::{AppId, ClusterTopology, MemMb, SimDuration, SimTime, Work};
    use slaq_utility::{CompletionGoal, ResponseTimeGoal};

    fn cluster() -> ClusterTopology {
        ClusterTopology::homogeneous(4, 4, 3000.0, 4096)
    }

    fn partition(trans_fraction: f64) -> StaticPartitionController {
        StaticPartitionController {
            trans_fraction,
            placement: PlacementConfig::default(),
        }
    }

    fn cfg(horizon: f64) -> SimConfig {
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

    fn app_spec() -> TransactionalSpec {
        TransactionalSpec {
            name: "shop".into(),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
            mem_per_instance: MemMb::new(1024),
            max_instances: 8,
            min_instances: 1,
            u_cap: 0.9,
        }
    }

    fn job(work_secs: f64, submit: f64) -> JobSpec {
        JobSpec {
            name: format!("b@{submit}"),
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

    #[test]
    fn transactional_first_starves_jobs_under_app_pressure() {
        // App demand swallows the whole cluster; FCFS jobs crawl.
        let mut sim = Simulator::new(&cluster(), cfg(4000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(), Box::new(|_| 22.0), 0.5).unwrap(),
        );
        sim.add_arrivals((0..3).map(|_| (SimTime::ZERO, job(1500.0, 0.0))).collect());
        let report = sim
            .run(&mut TransactionalFirstController::default())
            .unwrap();
        // λ=22: offered 44 000, demand 84 000 > 48 000 cluster.
        // Utility-blind: app takes everything placeable; job targets
        // shrink to the scraps.
        let u = report.metrics.last("trans_utility").unwrap();
        assert!(u > -1.0);
        let job_alloc = report.metrics.last("jobs_alloc").unwrap_or(0.0);
        assert!(job_alloc < 6000.0, "jobs should be scraps: {job_alloc}");
    }

    #[test]
    fn transactional_first_lets_jobs_use_idle_capacity() {
        let mut sim = Simulator::new(&cluster(), cfg(4000.0), Faults::default());
        // A relaxed RT goal keeps the app's max-utility demand modest
        // (λc + c/(τ(1−u_cap)) = 4000 + 10 000 of the 48 000 cluster), so
        // the utility-blind baseline still leaves jobs plenty of room.
        let mut spec = app_spec();
        spec.rt_goal = ResponseTimeGoal::new(SimDuration::from_secs(2.0)).unwrap();
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), spec, Box::new(|_| 2.0), 0.5).unwrap(),
        );
        sim.add_arrivals((0..6).map(|_| (SimTime::ZERO, job(1000.0, 0.0))).collect());
        let report = sim
            .run(&mut TransactionalFirstController::default())
            .unwrap();
        assert_eq!(report.job_stats.completed, 6);
    }

    #[test]
    fn static_partition_respects_the_fence() {
        let mut ctrl = partition(0.5);
        let mut sim = Simulator::new(&cluster(), cfg(4000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(), Box::new(|_| 8.0), 0.5).unwrap(),
        );
        sim.add_arrivals((0..5).map(|_| (SimTime::ZERO, job(1000.0, 0.0))).collect());
        sim.run(&mut ctrl).unwrap();
        // Instances only on nodes 0-1; jobs only on nodes 2-3.
        let p = sim.placement();
        for slices in p.apps.values() {
            for node in slices.keys() {
                assert!(node.raw() < 2, "instance crossed the fence: {node}");
            }
        }
        for &(node, _) in p.jobs.values() {
            assert!(node.raw() >= 2, "job crossed the fence: {node}");
        }
    }

    #[test]
    fn static_partition_wastes_idle_transactional_nodes() {
        // No transactional traffic at all: half the cluster sits idle
        // while jobs queue — the inefficiency the paper's approach fixes.
        let mut ctrl = partition(0.5);
        let mut sim = Simulator::new(&cluster(), cfg(2500.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(), Box::new(|_| 0.0), 0.5).unwrap(),
        );
        // 12 jobs of 2000 s: the 2 job-nodes fit 6 at a time, so the
        // second wave cannot finish inside the horizon even though half
        // the cluster is completely idle.
        sim.add_arrivals((0..12).map(|_| (SimTime::ZERO, job(2000.0, 0.0))).collect());
        let report = sim.run(&mut ctrl).unwrap();
        assert!(
            report.job_stats.completed <= 7,
            "fence should bottleneck jobs: {}",
            report.job_stats.completed
        );
        // The utility controller on the identical workload uses the idle
        // half and finishes (nearly) everything.
        let mut sim = Simulator::new(&cluster(), cfg(2500.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(), Box::new(|_| 0.0), 0.5).unwrap(),
        );
        sim.add_arrivals((0..12).map(|_| (SimTime::ZERO, job(2000.0, 0.0))).collect());
        let ours = sim
            .run(&mut crate::controller::UtilityController::default())
            .unwrap();
        assert!(
            ours.job_stats.completed >= 10,
            "utility controller should use the whole cluster: {}",
            ours.job_stats.completed
        );
    }

    #[test]
    fn split_is_clamped_sanely() {
        // `split` keeps at least one node on each side of the fence
        // whatever the fraction: [1, n − 1], and 1 on a one-node cluster.
        assert_eq!(partition(0.99).split(4), 3);
        assert_eq!(partition(1.0).split(4), 3);
        assert_eq!(partition(0.01).split(4), 1);
        assert_eq!(partition(0.0).split(4), 1);
        assert_eq!(partition(0.5).split(4), 2);
        assert_eq!(partition(0.5).split(1), 1);
    }
}
