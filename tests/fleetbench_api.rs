//! The surface `fleetbench/` compiles against, pinned in tier-1.
//!
//! `fleetbench/` is a workspace of its own, so `cargo test` at the root
//! never compiles it: a PR that renames an item it imports would pass
//! tier-1 and fail every benchmark operation. This test names every
//! `slaq::…` / `slaq_experiments::…` item `fleetbench/src` uses, with
//! the signatures it uses them with — struct literals spell out the
//! field sets, `let` annotations the return types — and drives them
//! once on `paper-small`. It fails to *compile* when a name or a
//! signature moves; keep it in step with `fleetbench/src` (`grep -n
//! "slaq" fleetbench/src/*.rs`).

use slaq::core::{
    AppSpec, ClusterTopology, ControllerSpec, JobStreamSpec, NodePoolSpec, ObserveSpec,
    PipelineSpec, RoutingSpec, Scenario, ScenarioSpec, ShardingSpec, TimingSpec,
};
use slaq::obs::{chrome_trace_json, Key, ObsSnapshot, Recorder, SpanGuard};
use slaq::perfmodel::TransactionalModel;
use slaq::placement::{Placement, SolveDelta, SolveMode, Solver};
use slaq::sim::{
    effective_speeds, ChaosSpec, ControlInputs, Controller, DegradationSpec, DeltaTracker,
    ElasticitySpec, FlapSpec, FlashCrowdSpec, InvariantChecker, MetricsSink, OvercommitSpec,
    SensingSnapshot, SimReport, ZoneStormSpec,
};
use slaq::types::{CpuMhz, JobId, MemMb, SimDuration, Work};
use slaq::utility::{equalize_bisection, EqEntity, EqualizeOptions, UtilityOfCpu};
use slaq::workloads::{ArrivalProcess, IntensityTrace, JobMix, JobTemplate, TemplateClass};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// `fleetbench/src/timed.rs` in miniature: wraps the scenario's
/// controller, forwards all three trait methods, captures what it saw.
struct Wrapper {
    inner: Box<dyn Controller>,
    snapshots: Rc<RefCell<Vec<SensingSnapshot>>>,
}

impl Controller for Wrapper {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        self.control_delta(inputs, None, metrics)
    }

    fn control_delta(
        &mut self,
        inputs: &ControlInputs<'_>,
        delta: Option<&SolveDelta>,
        metrics: &mut MetricsSink,
    ) -> Placement {
        self.snapshots
            .borrow_mut()
            .push(SensingSnapshot::capture(inputs));
        self.inner.control_delta(inputs, delta, metrics)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// Every spec type `fleetbench/src/workloads.rs` builds, by struct
/// literal, so a renamed, added or removed field stops the build.
fn every_knob_spec() -> ScenarioSpec {
    let template = JobTemplate {
        name_prefix: "job".into(),
        work: Work::from_power_secs(CpuMhz::new(3000.0), 6000.0),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(1280),
        goal_factor: 1.5,
        exhausted_factor: 3.0,
    };
    let mix = JobMix {
        classes: vec![TemplateClass {
            template,
            weight: 1.0,
            importance: 1.0,
        }],
    };
    ScenarioSpec {
        name: "api".into(),
        seed: 3000,
        cluster: ClusterTopology {
            pools: vec![NodePoolSpec {
                count: 4,
                cpus_per_node: 4,
                core_mhz: 3000.0,
                node_mem_mb: 4096,
                zone: Some("zone0".into()),
            }],
        },
        timing: TimingSpec {
            control_period_secs: 600.0,
            horizon_secs: 1200.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec {
            max_changes: Some(400),
            shards: ShardingSpec::Zones,
            rebalance_budget: 16,
            pipeline: PipelineSpec::Overlap {
                latency_cycles: 1,
                supersede: true,
            },
            solve: SolveMode::Batch,
            routing: RoutingSpec::Affinity {
                temperature: 0.0,
                warm_gain: 0.5,
                warm_alpha: 0.5,
                load_penalty: 0.4,
                placement_bias: 600.0,
            },
            ..ControllerSpec::default()
        },
        apps: vec![AppSpec {
            name: "app0".into(),
            trace: IntensityTrace::Diurnal {
                base: 25.0,
                amplitude: 8.0,
                period_secs: 36_000.0,
                phase_secs: 0.0,
            },
            service_mhz_s: 720.0,
            rt_goal_secs: 0.5,
            u_cap: 0.9,
            mem_mb: 1024,
            min_instances: 1,
            max_instances: 4,
            estimator_alpha: 0.4,
            slo: None,
        }],
        job_streams: vec![
            JobStreamSpec {
                name: "stream".into(),
                arrivals: ArrivalProcess::poisson_constant(600.0).expect("positive mean"),
                max_jobs: 1_000_000,
                mix: mix.clone(),
                seed_offset: 0,
            },
            JobStreamSpec {
                name: "prefill".into(),
                arrivals: ArrivalProcess::BatchDrops {
                    first_secs: 0.0,
                    period_secs: 1.0e9,
                    batch_size: 6,
                },
                max_jobs: 6,
                mix,
                seed_offset: 4,
            },
        ],
        outages: vec![],
        chaos: Some(ChaosSpec {
            zone_storms: Some(ZoneStormSpec {
                first_secs: 2_700.0,
                period_secs: 6_000.0,
                duration_secs: 1_500.0,
                zones_per_storm: 1,
                node_fraction: 0.5,
            }),
            flaps: Some(FlapSpec {
                nodes: 1,
                first_secs: 1_000.0,
                period_secs: 4_800.0,
                down_secs: 1_200.0,
            }),
            degradation: Some(DegradationSpec {
                nodes: 1,
                from_secs: 600.0,
                to_secs: 20_000.0,
                cpu_factor: 0.6,
            }),
            flash_crowds: Some(FlashCrowdSpec {
                surge: 10.0,
                first_secs: 2_000.0,
                period_secs: 6_000.0,
                spike_secs: 900.0,
            }),
            batch_floods: None,
        }),
        overcommit: Some(OvercommitSpec {
            cpu_ratio: 1.2,
            mem_ratio: 1.0,
            bite_prob: 0.2,
            bite_depth: 0.3,
        }),
        elasticity: Some(ElasticitySpec {
            first_secs: 900.0,
            period_secs: 450.0,
            grow_factor: 1.5,
            shrink_factor: 0.6,
            max_events: 1_000,
        }),
    }
}

#[test]
fn fleetbench_compiles_against_this_surface() {
    // workloads.rs / main.rs / selfcheck.rs: the spec types and the text
    // they travel as.
    let _: ClusterTopology = ClusterTopology::homogeneous(2000, 4, 3000.0, 4096);
    let _: ControllerSpec = ControllerSpec {
        shards: ShardingSpec::Global,
        solve: SolveMode::Delta,
        ..ControllerSpec::default()
    };
    let corpus: Vec<ScenarioSpec> = ScenarioSpec::corpus();
    assert_eq!(corpus.len(), 12);
    let knobs = every_knob_spec();
    let text: String = knobs.to_json().expect("generated specs serialize");
    let reparsed = ScenarioSpec::from_json(&text).expect("its own text parses");
    reparsed.materialize().expect("every knob materializes");
    let mut small = ScenarioSpec::preset("paper-small").expect("preset exists");
    small.timing.cap_to_cycles(4);
    let text = small.to_json().expect("presets serialize");

    // run.rs: text → from_json → materialize → build → run, observed,
    // under an `InvariantChecker` that owns the bench's wrapper.
    let mut spec = ScenarioSpec::from_json(&text).expect("parses");
    spec.controller.observe = ObserveSpec::On;
    let _: &String = &spec.name;
    let cycles = (spec.timing.horizon_secs / spec.timing.control_period_secs) as usize + 1;
    let scenario: Scenario = spec.materialize().expect("materializes");
    let mut sim = scenario.build().expect("builds");
    let controller: Box<dyn Controller> = scenario.controller();
    let snapshots = Rc::new(RefCell::new(Vec::new()));
    let wrapper = Wrapper {
        inner: controller,
        snapshots: snapshots.clone(),
    };
    let max_changes: Option<usize> = scenario.controller.placement.max_changes;
    let mut checker = InvariantChecker::new(Box::new(wrapper), max_changes);
    let report: SimReport = sim
        .run(&mut checker as &mut dyn Controller)
        .expect("preset runs");
    let violations: Vec<String> = checker.violations().to_vec();
    assert_eq!(violations, Vec::<String>::new());
    let checked: usize = checker.cycles_checked();
    assert_eq!((checked, report.cycles), (cycles, cycles));
    let _: usize = report.total_changes;
    let s = &report.job_stats;
    let _: (usize, usize, usize, u32) = (s.submitted, s.completed, s.goals_met, s.disruptions);
    let _: u64 = s.mean_achieved_utility.to_bits();
    let changes: &[(f64, f64)] = report.metrics.series("changes");
    assert_eq!(changes.len(), cycles);
    let _: f64 = scenario.sim.control_period.as_secs();

    // timed.rs / layers.rs / main.rs: the recorder, its snapshots and
    // the trace export.
    let recorder: Recorder = sim.recorder().clone();
    assert!(recorder.is_enabled());
    let end: ObsSnapshot = recorder.snapshot();
    let window: ObsSnapshot = end.delta_since(&ObsSnapshot::default());
    let cycle_hist = window.span_hist("cycle").expect("the run recorded cycles");
    let _: (u64, u64) = (cycle_hist.sum(), cycle_hist.count());
    let dirty = window.histogram("delta.dirty").expect("one sample a cycle");
    assert_eq!(dirty.count() as usize, cycles);
    let _: u64 = window.counter("solver.memo.hits");
    let names: Vec<String> = recorder.names();
    let stats = recorder.span_stats("cycle").expect("recorded");
    let _: (u64, u64) = (stats.total_us, stats.self_us);
    assert!(names.iter().any(|n| n == "cycle.sense"));
    let _: f64 = recorder
        .slo_board()
        .iter()
        .map(|(_, tracker)| tracker.compliance())
        .fold(1.0, f64::min);
    let _: usize = recorder.audit_entries().len();
    let bench = Recorder::enabled();
    let key: Key = bench.key("bench.cycle");
    let guard: SpanGuard = bench.span(key);
    drop(guard);
    assert!(chrome_trace_json(&bench).contains("bench.cycle"));
    assert!(!Recorder::off().is_enabled());

    // layers.rs: the replays of a captured snapshot.
    let snapshots = snapshots.borrow();
    let snap: &SensingSnapshot = snapshots.last().expect("one capture a cycle");
    let inputs: ControlInputs<'_> = snap.inputs();
    let caps: BTreeMap<JobId, CpuMhz> = snap
        .jobs
        .jobs()
        .iter()
        .filter(|j| j.is_running())
        .map(|j| (j.id, j.spec.max_speed))
        .collect();
    let cap_apps: bool = scenario.sim.cap_transactional;
    let _ = effective_speeds(
        &snap.nodes,
        &snap.current,
        &caps,
        &BTreeSet::new(),
        cap_apps,
    );
    let mut tracker = DeltaTracker::default();
    let first: usize = tracker.observe(&inputs).len();
    assert!(
        first > 0,
        "an unprimed tracker reports every job as arrived"
    );
    assert_eq!(tracker.observe(&inputs).len(), 0);
    let job_entities = snap.jobs.entities(snap.now);
    let mut manager = snap.jobs.clone();
    manager.advance_running(snap.now, SimDuration::from_secs(1.0), |_| {
        CpuMhz::new(1000.0)
    });
    let models: Vec<TransactionalModel> = snap
        .apps
        .iter()
        .filter_map(|a| TransactionalModel::new(a.spec.clone(), a.lambda))
        .collect();
    let mut entities: Vec<EqEntity<'_>> = Vec::new();
    for (model, obs) in models.iter().zip(&snap.apps) {
        entities.push(EqEntity::new(obs.id, model as &dyn UtilityOfCpu));
    }
    for (id, ju) in &job_entities {
        entities.push(EqEntity::new(*id, ju as &dyn UtilityOfCpu));
    }
    let total_cpu: CpuMhz = snap.nodes.iter().map(|n| n.cpu).sum();
    equalize_bisection(&entities, total_cpu, &EqualizeOptions::default());
    let mut controller = scenario.utility_controller();
    let mut sink = MetricsSink::new();
    let _: Placement = controller.control(&inputs, &mut sink);
    let mut problem = slaq_experiments::sweeps::synthetic_problem(
        snap.nodes.len() as u32,
        job_entities.len() as u32,
        snap.apps.len() as u32,
    );
    let mut solver = Solver::new();
    let cold = solver.solve(&problem, &Default::default());
    for job in &mut problem.jobs {
        job.running_on = cold.placement.job_node(job.id);
    }
    solver.solve(&problem, &cold.placement);
}
