//! The utility-driven placement controller (the paper's algorithm).

use slaq_jobs::JobUtility;
use slaq_obs::Recorder;
use slaq_perfmodel::TransactionalModel;
use slaq_placement::problem::{AppRequest, JobRequest, PlacementConfig, PlacementProblem};
use slaq_placement::{Placement, ShardedSolver};
use slaq_sim::{ControlInputs, Controller, MetricsSink};
use slaq_types::{AppId, CpuMhz, EntityId, ZoneId};
use slaq_utility::{equalize_bisection, EqEntity, EqualizeOptions, UtilityOfCpu};

/// Tuning for [`UtilityController`]. The equalizer runs at
/// [`EqualizeOptions::default`]'s tolerances.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Placement solver knobs (the churn budget).
    pub placement: PlacementConfig,
    /// Node → zone table handed to the placement engine
    /// (`sharding[node.id.raw()]`). The default empty table is one
    /// shard: the exact global solve; a table naming several zones
    /// partitions the nodes into one lane per zone.
    pub sharding: Vec<ZoneId>,
    /// Cross-shard migrations allowed per cycle when sharded (ignored by
    /// a single shard).
    pub rebalance_budget: usize,
    /// MHz-per-warmth-point scale applied to the routing tier's per-node
    /// warmth scores before they enter the solver as candidate-ordering
    /// affinity bonuses. `0.0` (the default) forwards no affinity at
    /// all, keeping the solver's candidate ordering bit-identical to the
    /// affinity-free controller.
    pub affinity_bias: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            placement: PlacementConfig::default(),
            sharding: Vec::new(),
            rebalance_budget: 8,
            affinity_bias: 0.0,
        }
    }
}

/// The heterogeneous workload manager: utility equalization over *all*
/// entities followed by constrained placement.
#[derive(Debug, Clone, Default)]
pub struct UtilityController {
    /// Configuration in force.
    pub config: ControllerConfig,
    /// Long-lived placement engine, built from
    /// [`ControllerConfig::sharding`]: its lanes keep their warm
    /// solvers (dense scratch, allocation buffers) across cycles, and
    /// the empty table's one lane is the global solve, bit for bit.
    engine: ShardedSolver,
    /// Interned per-app metric keys: `control` runs every cycle for the
    /// life of the experiment, so the `format!` for each per-app series
    /// name is paid once here instead of once per cycle per app.
    pred_utility_keys: std::collections::BTreeMap<AppId, String>,
    /// Observability handle: the controller times its three phases
    /// before the solve (`control.models`, `control.equalize`,
    /// `control.problem`), counts the cycles whose equalization reached
    /// the bisection (`equalize.contended`), the probes it ran
    /// (`equalize.probes`) and the demand sums they cost
    /// (`equalize.sums`), and forwards the recorder into the placement
    /// engine. Observes only — control decisions never read it.
    recorder: Recorder,
    k_models: slaq_obs::Key,
    k_equalize: slaq_obs::Key,
    k_problem: slaq_obs::Key,
    k_contended: slaq_obs::Key,
    k_probes: slaq_obs::Key,
    k_sums: slaq_obs::Key,
}

impl UtilityController {
    /// Controller with the given config.
    pub fn new(config: ControllerConfig) -> Self {
        UtilityController {
            engine: ShardedSolver::new(config.sharding.clone(), config.rebalance_budget),
            config,
            ..UtilityController::default()
        }
    }
}

impl Controller for UtilityController {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        let now = inputs.now;
        let total_cpu: CpuMhz = inputs.nodes.iter().map(|n| n.cpu).sum();
        let span_models = self.recorder.span(self.k_models);

        // ------------------------------------------------------------
        // 1. Utility curves for every entity.
        // ------------------------------------------------------------
        // An observation whose model is rejected (NaN / negative λ
        // estimate, invalid spec) takes no part in the equalization and
        // is granted nothing; each surviving model carries the index of
        // the observation it was built from.
        let app_models: Vec<(usize, TransactionalModel)> = inputs
            .apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| Some((i, TransactionalModel::new(a.spec.clone(), a.lambda)?)))
            .collect();
        // One walk over the live view: each active job's curve snapshot
        // and the half of its request that the equalizer does not decide
        // (demand and priority are filled in at step 3).
        let active = inputs.jobs.active().count();
        let mut job_snapshots: Vec<JobUtility> = Vec::with_capacity(active);
        let mut jobs: Vec<JobRequest> = Vec::with_capacity(active);
        for j in inputs.jobs.active() {
            job_snapshots.push(JobUtility::of(j, now));
            jobs.push(JobRequest {
                id: j.id,
                demand: CpuMhz::ZERO,
                mem: j.spec.mem,
                running_on: match j.state {
                    slaq_jobs::JobState::Running { node } => Some(node),
                    _ => None,
                },
                affinity: j.state.node(),
                priority: 0.0,
                importance: j.spec.importance,
            });
        }

        let mut entities: Vec<EqEntity<'_>> =
            Vec::with_capacity(app_models.len() + job_snapshots.len());
        for (i, model) in &app_models {
            entities.push(EqEntity::new(
                inputs.apps[*i].id,
                model as &dyn UtilityOfCpu,
            ));
        }
        for (req, ju) in jobs.iter().zip(&job_snapshots) {
            entities.push(EqEntity::new(req.id, ju as &dyn UtilityOfCpu));
        }
        drop(span_models);

        // ------------------------------------------------------------
        // 2. Equalize utility over the whole cluster's CPU power —
        // importance-weighted (**service differentiation**: an entity
        // weighted `w` is allowed only `1/w` of the common utility
        // shortfall) in a cycle where some active job's importance is
        // not 1.0. Applications weigh 1.0; `JobSpec::validate` keeps
        // every job's weight finite and positive.
        // ------------------------------------------------------------
        let span_eq = self.recorder.span(self.k_equalize);
        let opts = EqualizeOptions::default();
        let eq = if jobs.iter().all(|j| j.importance == 1.0) {
            equalize_bisection(&entities, total_cpu, &opts)
        } else {
            let weights: Vec<f64> = std::iter::repeat_n(1.0, app_models.len())
                .chain(jobs.iter().map(|j| j.importance))
                .collect();
            slaq_utility::equalize_weighted(&entities, &weights, total_cpu, &opts)
        };
        if eq.contended {
            self.recorder.count(self.k_contended, 1);
            self.recorder.count(self.k_probes, eq.iterations as u64);
            self.recorder.count(self.k_sums, eq.sums as u64);
        }
        drop(span_eq);
        let span_problem = self.recorder.span(self.k_problem);
        // Allocations come back in input order — the models, then the
        // active jobs — so every later stage reads them by position.
        debug_assert!(eq
            .allocations
            .iter()
            .map(|a| a.id)
            .eq(entities.iter().map(|e| e.id)));
        let (app_allocs, job_allocs) = eq.allocations.split_at(app_models.len());
        let (app_entities, job_entities) = entities.split_at(app_models.len());

        // Model-side series (Figures 1 & 2 inputs).
        let trans_demand: CpuMhz = app_entities.iter().map(|e| e.cap()).sum();
        let jobs_demand: CpuMhz = job_entities.iter().map(|e| e.cap()).sum();
        let mut trans_target = CpuMhz::ZERO;
        let mut jobs_target = CpuMhz::ZERO;
        let mut jobs_util_sum = 0.0;
        let mut jobs_n = 0usize;
        for a in &eq.allocations {
            match a.id {
                EntityId::App(_) => trans_target += a.cpu,
                EntityId::Job(_) => {
                    jobs_target += a.cpu;
                    jobs_util_sum += a.utility;
                    jobs_n += 1;
                }
            }
        }
        metrics.record("water_level", now, eq.common_utility);
        metrics.record("trans_demand", now, trans_demand.as_f64());
        metrics.record("jobs_demand", now, jobs_demand.as_f64());
        metrics.record("trans_target", now, trans_target.as_f64());
        metrics.record("jobs_target", now, jobs_target.as_f64());
        if jobs_n > 0 {
            metrics.record("jobs_hypo_utility", now, jobs_util_sum / jobs_n as f64);
        }
        let mut app_demand = vec![CpuMhz::ZERO; inputs.apps.len()];
        for ((i, model), alloc) in app_models.iter().zip(app_allocs) {
            let id = inputs.apps[*i].id;
            app_demand[*i] = alloc.cpu;
            let key = self
                .pred_utility_keys
                .entry(id)
                .or_insert_with(|| format!("trans_pred_utility_{id}"));
            metrics.record(key, now, model.utility(alloc.cpu));
        }

        // ------------------------------------------------------------
        // 2b. Work-conserving backfill: surplus CPU (present only when
        // every entity is saturated) flows to SLA-hopeless jobs — flat
        // utility curves, zero equalized demand — so they still run to
        // completion instead of pending forever on an idle cluster.
        // ------------------------------------------------------------
        let mut surplus = eq.surplus;
        // Per active job, parallel to `job_snapshots`.
        let mut job_target: Vec<CpuMhz> =
            job_allocs.iter().map(|a| a.cpu.max(CpuMhz::ZERO)).collect();
        if surplus.as_f64() > 1.0 {
            for ((ju, alloc), target) in job_snapshots.iter().zip(job_allocs).zip(&mut job_target) {
                if surplus.as_f64() <= 1.0 {
                    break;
                }
                if alloc.cpu.is_zero() {
                    let grant = ju.max_speed.min(surplus);
                    if grant.as_f64() > 0.0 {
                        *target = target.max(grant);
                        surplus -= grant;
                    }
                }
            }
        }

        // ------------------------------------------------------------
        // 3. Realize the targets as a placement.
        // ------------------------------------------------------------
        for ((req, target), ju) in jobs.iter_mut().zip(job_target).zip(&job_snapshots) {
            req.demand = target.min(ju.max_speed);
            // Urgency = the job's CPU target, scaled by its importance so
            // differentiation also decides memory-slot contention; ties
            // resolve to the oldest job (dense ids are submission-ordered).
            req.priority = target.as_f64() * req.importance;
        }
        let apps: Vec<AppRequest> = inputs
            .apps
            .iter()
            .zip(app_demand)
            .map(|(a, demand)| AppRequest {
                id: a.id,
                demand,
                mem_per_instance: a.spec.mem_per_instance,
                min_instances: a.spec.min_instances,
                max_instances: a.spec.max_instances,
                // Warmth → candidate-ordering bonus, scaled to MHz. A
                // zero bias forwards nothing: the solver's affinity-free
                // path stays bit-identical.
                affinity: if self.config.affinity_bias > 0.0 && !a.affinity.is_empty() {
                    a.affinity
                        .iter()
                        .map(|&(n, w)| (n, w * self.config.affinity_bias))
                        .collect()
                } else {
                    Vec::new()
                },
            })
            .collect();

        // The front half's buffers go before the solve allocates its own.
        drop(eq);
        drop(entities);
        drop(job_snapshots);
        let problem = PlacementProblem {
            nodes: inputs.nodes.to_vec(),
            apps,
            jobs,
            config: self.config.placement,
        };
        drop(span_problem);
        self.engine.solve(&problem, inputs.current).placement
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.k_models = recorder.key("control.models");
        self.k_equalize = recorder.key("control.equalize");
        self.k_problem = recorder.key("control.problem");
        self.k_contended = recorder.key("equalize.contended");
        self.k_probes = recorder.key("equalize.probes");
        self.k_sums = recorder.key("equalize.sums");
        self.engine.set_recorder(recorder.clone());
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_jobs::JobSpec;
    use slaq_perfmodel::TransactionalSpec;
    use slaq_sim::{
        AppObservation, Faults, OverheadConfig, SimConfig, Simulator, TransactionalRuntime,
    };
    use slaq_types::{AppId, ClusterTopology, JobId, MemMb, SimDuration, SimTime, Work};
    use slaq_utility::{CompletionGoal, ResponseTimeGoal};

    fn cluster(nodes: u32) -> ClusterTopology {
        ClusterTopology::homogeneous(nodes, 4, 3000.0, 4096)
    }

    fn app_spec(_unused: f64) -> TransactionalSpec {
        TransactionalSpec {
            name: "shop".into(),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
            mem_per_instance: MemMb::new(1024),
            max_instances: 32,
            min_instances: 1,
            u_cap: 0.9,
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

    fn quiet_config(horizon: f64) -> SimConfig {
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

    /// Six short jobs on two nodes: every job's demand fits at once.
    fn jobs_only_sim() -> Simulator {
        let mut sim = Simulator::new(&cluster(2), quiet_config(4000.0), Faults::default());
        sim.add_arrivals(
            (0..6)
                .map(|_| (SimTime::ZERO, job_spec(1000.0, 0.0)))
                .collect(),
        );
        sim
    }

    /// One app and twelve long jobs on three nodes: 36 000 MHz of job
    /// demand against 36 000 total, so every cycle is contended.
    fn contention_sim() -> Simulator {
        let mut sim = Simulator::new(&cluster(3), quiet_config(6000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(1.0), Box::new(|_| 6.0), 0.5)
                .unwrap(),
        );
        sim.add_arrivals(
            (0..12)
                .map(|_| (SimTime::ZERO, job_spec(8000.0, 0.0)))
                .collect(),
        );
        sim
    }

    #[test]
    fn jobs_only_cluster_runs_all_jobs() {
        let report = jobs_only_sim()
            .run(&mut UtilityController::default())
            .unwrap();
        assert_eq!(report.job_stats.completed, 6);
        assert_eq!(report.job_stats.goals_met, 6);
    }

    /// The equalizer's path is counted by name: every cycle of the
    /// contended shape reaches the bisection and probes, in fewer demand
    /// sums than probes; the jobs-only shape never does (its budget
    /// covers every demand cap).
    #[test]
    fn equalizer_counters_name_the_contended_cycles() {
        for (name, mut sim, contended) in [
            ("contention", contention_sim(), true),
            ("jobs only", jobs_only_sim(), false),
        ] {
            sim.set_recorder(Recorder::enabled());
            let report = sim.run(&mut UtilityController::default()).unwrap();
            let count = |name: &str| sim.recorder().counter_value(name);
            let (cycles, probes, sums) = (
                count("equalize.contended"),
                count("equalize.probes"),
                count("equalize.sums"),
            );
            println!("{name}: {cycles} contended cycles, {probes} probes, {sums} sums");
            if contended {
                assert!(
                    cycles > 0 && cycles <= report.cycles as u64,
                    "{name}: {cycles}"
                );
                assert!(probes >= cycles, "{name}: {probes} probes");
                // The replay decides most probes from a bracketed root.
                assert!(sums < probes, "{name}: {sums} sums, {probes} probes");
            } else {
                assert_eq!((cycles, probes, sums), (0, 0, 0), "{name}");
            }
        }
    }

    #[test]
    fn app_only_cluster_satisfies_demand() {
        let mut sim = Simulator::new(&cluster(2), quiet_config(2000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(1.0), Box::new(|_| 5.0), 0.5)
                .unwrap(),
        );
        let report = sim.run(&mut UtilityController::default()).unwrap();
        // Demand for u_cap at λ=5: 5·2000 + 2000/(0.5·0.1) = 50 000; the
        // 24 000 cluster can't reach u_cap but must stay stable & positive.
        let u = report.metrics.last("trans_utility").unwrap();
        assert!(u > 0.5, "utility {u}");
        let alloc = report.metrics.last("trans_alloc").unwrap();
        assert!(alloc > 10_000.0, "allocation {alloc}");
    }

    #[test]
    fn contention_equalizes_utilities() {
        // Small cluster, one app + a stack of jobs: after a few cycles the
        // water level should pull the app's predicted utility and the
        // jobs' hypothetical utility together.
        let report = contention_sim()
            .run(&mut UtilityController::default())
            .unwrap();
        let m = &report.metrics;
        let t_end = SimTime::from_secs(6000.0);
        let mid = SimTime::from_secs(1800.0);
        let u_app = m.mean_over("trans_pred_utility_app0", mid, t_end).unwrap();
        let u_jobs = m.mean_over("jobs_hypo_utility", mid, t_end).unwrap();
        assert!(
            (u_app - u_jobs).abs() < 0.15,
            "equalization gap too wide: app {u_app} vs jobs {u_jobs}"
        );
        // And the CPU split is uneven even though utilities match — the
        // equal-utility/unequal-MHz signature (Fig. 1 vs Fig. 2).
        let a_alloc = m.mean_over("trans_alloc", mid, t_end).unwrap();
        let j_alloc = m.mean_over("jobs_alloc", mid, t_end).unwrap();
        let rel_diff = (a_alloc - j_alloc).abs() / a_alloc.max(j_alloc);
        assert!(
            rel_diff > 0.15,
            "split should be uneven: jobs {j_alloc} vs app {a_alloc}"
        );
        assert!(a_alloc > 0.0 && j_alloc > 0.0);
    }

    #[test]
    fn idle_app_releases_cluster_to_jobs() {
        let mut sim = Simulator::new(&cluster(2), quiet_config(3000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(1.0), Box::new(|_| 0.0), 0.5)
                .unwrap(),
        );
        sim.add_arrivals(
            (0..6)
                .map(|_| (SimTime::ZERO, job_spec(1000.0, 0.0)))
                .collect(),
        );
        let report = sim.run(&mut UtilityController::default()).unwrap();
        // All six finish; the sixth had to queue behind the five memory
        // slots (2 on the instance node + 3), so it cannot make its goal
        // — it completes through the work-conserving backfill instead.
        assert_eq!(report.job_stats.completed, 6);
        assert!(report.job_stats.goals_met >= 5);
    }

    #[test]
    fn recorded_series_are_present_and_sane() {
        let mut sim = Simulator::new(&cluster(2), quiet_config(2500.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(1.0), Box::new(|_| 4.0), 0.5)
                .unwrap(),
        );
        sim.add_arrivals(
            (0..3)
                .map(|_| (SimTime::ZERO, job_spec(2000.0, 0.0)))
                .collect(),
        );
        let report = sim.run(&mut UtilityController::default()).unwrap();
        for name in [
            "water_level",
            "trans_demand",
            "jobs_demand",
            "trans_target",
            "jobs_target",
            "jobs_hypo_utility",
            "trans_alloc",
            "jobs_alloc",
        ] {
            assert!(
                !report.metrics.series(name).is_empty(),
                "series {name} missing"
            );
        }
        // The plan is the solve's only output: the enacted change count
        // is the simulator's `changes` series.
        for name in ["placement_changes", "jobs_unplaced"] {
            assert!(
                report.metrics.series(name).is_empty(),
                "series {name} recorded"
            );
        }
        // Targets never exceed cluster capacity.
        let total = 2.0 * 12_000.0;
        for &(_, v) in report.metrics.series("trans_target") {
            assert!(v <= total + 1.0);
        }
        let _ = AppObservation {
            id: AppId::new(0),
            spec: app_spec(1.0),
            lambda: 1.0,
            affinity: vec![],
        };
        let _ = JobId::new(0);
    }

    /// One app sensing a NaN intensity loses its model; the apps after
    /// it must keep their own ids — predicted-utility series and
    /// demands exactly as if the bad app were absent — and the bad app
    /// is granted nothing.
    #[test]
    fn rejected_app_model_does_not_shift_its_neighbours() {
        let nodes = slaq_placement::problem::NodeCapacity::from_cluster(&cluster(8));
        let jobs = slaq_jobs::JobManager::new();
        let current = Placement::empty();
        let obs = |id: u32, lambda: f64| AppObservation {
            id: AppId::new(id),
            spec: app_spec(1.0),
            lambda,
            affinity: vec![],
        };
        let control = |apps: &[AppObservation]| {
            let mut metrics = MetricsSink::new();
            let placement = UtilityController::default().control(
                &ControlInputs {
                    now: SimTime::ZERO,
                    nodes: &nodes,
                    current: &current,
                    jobs: &jobs,
                    apps,
                },
                &mut metrics,
            );
            (placement, metrics)
        };
        let (with_bad, m_bad) = control(&[obs(0, 2.0), obs(1, f64::NAN), obs(2, 3.0)]);
        let (without, m_ref) = control(&[obs(0, 2.0), obs(2, 3.0)]);

        assert!(m_bad.series("trans_pred_utility_app1").is_empty());
        assert_eq!(with_bad.app_alloc(AppId::new(1)), CpuMhz::ZERO);
        for app in [0, 2] {
            let key = format!("trans_pred_utility_app{app}");
            assert!(!m_ref.series(&key).is_empty(), "{key} missing");
            assert_eq!(m_bad.series(&key), m_ref.series(&key), "{key}");
            assert_eq!(
                with_bad.app_alloc(AppId::new(app)),
                without.app_alloc(AppId::new(app)),
                "demand of app{app}"
            );
            assert!(with_bad.app_alloc(AppId::new(app)) > CpuMhz::ZERO);
        }
        for key in ["water_level", "trans_demand", "trans_target"] {
            assert_eq!(m_bad.series(key), m_ref.series(key), "{key}");
        }
    }

    #[test]
    fn placement_is_stable_without_workload_change() {
        let mut sim = Simulator::new(&cluster(2), quiet_config(4000.0), Faults::default());
        sim.add_app(
            TransactionalRuntime::new(AppId::new(0), app_spec(1.0), Box::new(|_| 4.0), 0.5)
                .unwrap(),
        );
        sim.add_arrivals(
            (0..4)
                .map(|_| (SimTime::ZERO, job_spec(20_000.0, 0.0)))
                .collect(),
        );
        let report = sim.run(&mut UtilityController::default()).unwrap();
        // After the first cycle places everything, steady cycles must not
        // thrash: total changes ≈ initial placements.
        let changes = report.metrics.series("changes");
        let after_first: f64 = changes.iter().skip(2).map(|&(_, v)| v).sum();
        assert!(
            after_first <= 2.0,
            "steady-state churn detected: {changes:?}"
        );
    }
}
