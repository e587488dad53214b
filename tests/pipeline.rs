//! Pipeline consistency across crate boundaries: the demand the
//! performance model predicts is what the equalizer hands out, what the
//! placement realizes, and what the simulator's sharing delivers.

use slaq::prelude::*;
use slaq_placement::solve;
use std::collections::{BTreeMap, BTreeSet};

fn app_spec(tau: f64) -> TransactionalSpec {
    TransactionalSpec {
        name: "pipeline-app".into(),
        service_per_request: Work::new(2000.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(tau)).unwrap(),
        mem_per_instance: MemMb::new(1024),
        max_instances: 4,
        min_instances: 1,
        u_cap: 0.9,
    }
}

#[test]
fn perfmodel_demand_flows_through_placement_to_allocation() {
    // λ=4 req/s, c=2000 ⇒ offered 8000; u_cap demand = 8000 + 40 000 =
    // 48 000 MHz on a 4-node × 12 000 cluster: exactly realizable.
    let model = TransactionalModel::new(app_spec(0.5), 4.0).unwrap();
    let demand = model.max_useful_cpu();
    assert!((demand.as_f64() - 48_000.0).abs() < 1e-6);

    let nodes: Vec<NodeCapacity> = (0..4)
        .map(|i| NodeCapacity {
            id: NodeId::new(i),
            cpu: CpuMhz::new(12_000.0),
            mem: MemMb::new(4096),
        })
        .collect();
    let problem = PlacementProblem {
        nodes,
        apps: vec![AppRequest {
            id: AppId::new(0),
            demand,
            mem_per_instance: MemMb::new(1024),
            min_instances: 1,
            max_instances: 4,
            affinity: Vec::new(),
        }],
        jobs: vec![],
        config: PlacementConfig::default(),
    };
    let outcome = solve(&problem, &Placement::empty());
    let satisfied = outcome.placement.app_alloc(AppId::new(0));
    assert!(
        satisfied.approx_eq(demand, 2.0),
        "placement satisfied {satisfied} of {demand}"
    );

    // The simulator's sharing must deliver at least the guarantee.
    let caps = BTreeMap::new();
    let (_, app_speeds) = slaq_sim::effective_speeds(
        &problem.nodes,
        &outcome.placement,
        &caps,
        &BTreeSet::new(),
        false,
    );
    let delivered = app_speeds[&AppId::new(0)];
    assert!(
        delivered.as_f64() >= satisfied.as_f64() - 1e-6,
        "simulator delivered {delivered} < guaranteed {satisfied}"
    );

    // And at the delivered allocation the model's predicted utility is at
    // (or above, thanks to work-conserving spare) the cap.
    let u = model.utility(delivered);
    assert!((u - 0.9).abs() < 1e-9, "predicted utility {u}");
}

#[test]
fn job_utility_inverse_matches_equalizer_grant() {
    let now = SimTime::ZERO;
    let mut mgr = JobManager::new();
    for _ in 0..3 {
        mgr.submit(
            JobSpec {
                name: "grant".into(),
                total_work: Work::from_power_secs(CpuMhz::new(3000.0), 3000.0),
                max_speed: CpuMhz::new(3000.0),
                mem: MemMb::new(1280),
                goal: CompletionGoal::relative(now, SimDuration::from_secs(3000.0), 1.25, 2.0)
                    .unwrap(),
                importance: 1.0,
            },
            now,
        )
        .unwrap();
    }
    let budget = CpuMhz::new(6000.0);
    let hypo = mgr.hypothetical(now, budget, &EqualizeOptions::default());
    // Equal jobs ⇒ equal split; utility at the split must match the
    // JobUtility adapter evaluated directly.
    let per_job = budget / 3.0;
    let ju = JobUtility::of(mgr.job(JobId::new(0)).unwrap(), now);
    let direct = ju.utility(per_job);
    for a in &hypo.allocation.allocations {
        assert!(a.cpu.approx_eq(per_job, 1.0), "{}", a.cpu);
        assert!((a.utility - direct).abs() < 1e-6);
    }
}

#[test]
fn facade_prelude_covers_the_whole_stack() {
    // Compile-time check that the façade exposes what a user needs; a
    // smoke call through each layer.
    let cluster = ClusterTopology::homogeneous(2, 4, 3000.0, 4096);
    let nodes = NodeCapacity::from_cluster(&cluster);
    let total: CpuMhz = nodes.iter().map(|n| n.cpu).sum();
    assert_eq!(total, CpuMhz::new(24_000.0));

    let goal = ResponseTimeGoal::new(SimDuration::from_secs(1.0)).unwrap();
    assert_eq!(goal.utility_of_rt(SimDuration::from_secs(0.5)), 0.5);

    let queue = PsQueue::new(10.0, Work::new(100.0)).unwrap();
    assert!(queue.is_stable(CpuMhz::new(2000.0)));

    let trace = IntensityTrace::constant(5.0);
    assert_eq!(trace.lambda(SimTime::ZERO), 5.0);

    let schedule = RateSchedule::constant(100.0).unwrap();
    let template = JobTemplate {
        name_prefix: "t".into(),
        work: Work::new(1000.0),
        max_speed: CpuMhz::new(1000.0),
        mem: MemMb::new(512),
        goal_factor: 1.5,
        exhausted_factor: 3.0,
    };
    let arrivals = ArrivalProcess::Poisson { schedule }.stream(5, SimTime::from_secs(1e6), 1);
    let stream = JobMix::uniform(template).generate(&arrivals, 1, 0);
    assert_eq!(stream.len(), 5);
}
