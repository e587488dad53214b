//! Failure injection: node outages mid-run. The controller never sees
//! more than a zero-capacity node, yet the system must suspend victims,
//! re-place them elsewhere, and re-absorb the node after recovery.

use slaq::prelude::*;
use slaq_sim::{ControlInputs, NodeOutage};

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

fn job(i: u32, work_secs: f64) -> JobSpec {
    JobSpec {
        name: format!("j{i}"),
        total_work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(1280),
        goal: CompletionGoal::relative(SimTime::ZERO, SimDuration::from_secs(work_secs), 1.25, 4.0)
            .unwrap(),
    }
}

#[test]
fn jobs_on_failed_node_are_suspended_and_resumed_elsewhere() {
    // 2 nodes, 3 jobs on node0's slots + others; fail node0 at t=1000.
    let cluster = ClusterSpec::homogeneous(2, 4, CpuMhz::new(3000.0), MemMb::new(4096));
    let mut sim = Simulator::new(&cluster, cfg(8000.0));
    sim.add_arrivals((0..6).map(|i| (SimTime::ZERO, job(i, 3000.0))).collect());
    sim.add_outage(NodeOutage {
        node: NodeId::new(0),
        from: SimTime::from_secs(1000.0),
        to: SimTime::from_secs(3000.0),
    });
    let report = sim.run(&mut UtilityController::default()).unwrap();
    // Everything still completes: victims resume on node1 (or back on
    // node0 after recovery).
    assert_eq!(report.job_stats.completed, 6, "{:?}", report.job_stats);
    // The outage forced real suspensions.
    assert!(
        report.job_stats.disruptions >= 2,
        "disruptions {}",
        report.job_stats.disruptions
    );
    // Nothing may run on node0 between 1000 and 3000: its allocation
    // share is zero in the cycles inside the window.
    for j in sim.jobs().jobs() {
        assert!(!j.is_active(), "{:?} still active", j.id);
    }
}

#[test]
fn cluster_survives_full_single_node_loss_with_app() {
    let cluster = ClusterSpec::homogeneous(3, 4, CpuMhz::new(3000.0), MemMb::new(4096));
    let mut sim = Simulator::new(&cluster, cfg(6000.0));
    let spec = TransactionalSpec {
        name: "front".into(),
        service_per_request: Work::new(720.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
        mem_per_instance: MemMb::new(1024),
        max_instances: 3,
        min_instances: 1,
        u_cap: 0.9,
    };
    sim.add_app(TransactionalRuntime::new(AppId::new(0), spec, Box::new(|_| 10.0), 0.5).unwrap());
    sim.add_arrivals((0..4).map(|i| (SimTime::ZERO, job(i, 2000.0))).collect());
    sim.add_outage(NodeOutage {
        node: NodeId::new(1),
        from: SimTime::from_secs(1200.0),
        to: SimTime::from_secs(2400.0),
    });
    let report = sim.run(&mut UtilityController::default()).unwrap();
    assert_eq!(report.job_stats.completed, 4);
    // The app keeps serving throughout (utility never collapses to −1
    // for a whole cycle: two healthy nodes always exceed its demand).
    let min_u = report.metrics.min("trans_utility").unwrap();
    assert!(min_u > -0.5, "app utility collapsed: {min_u}");
}

#[test]
fn overlapping_outages_of_all_nodes_pause_everything() {
    let cluster = ClusterSpec::homogeneous(2, 4, CpuMhz::new(3000.0), MemMb::new(4096));
    let mut sim = Simulator::new(&cluster, cfg(6000.0));
    sim.add_arrivals(vec![(SimTime::ZERO, job(0, 1000.0))]);
    for n in 0..2 {
        sim.add_outage(NodeOutage {
            node: NodeId::new(n),
            from: SimTime::from_secs(600.0),
            to: SimTime::from_secs(1800.0),
        });
    }
    let report = sim.run(&mut UtilityController::default()).unwrap();
    // Job started at 0, ran 600 s, lost its node, resumed at the 1800 s
    // cycle, finished 400 s later.
    assert_eq!(report.job_stats.completed, 1);
    let j = sim.jobs().job(JobId::new(0)).unwrap();
    match j.state {
        JobState::Completed { at } => {
            assert!(
                (at.as_secs() - 2200.0).abs() < 1.0,
                "completed at {at}, expected ≈2200"
            )
        }
        ref s => panic!("unexpected state {s:?}"),
    }
}

/// Enacts `first` at the first cycle and whatever is in force afterwards,
/// remembering the placement and job 0's state it was shown each cycle.
struct PlaceOnce {
    first: Option<Placement>,
    seen: Vec<(Placement, JobState)>,
}

impl Controller for PlaceOnce {
    fn control(&mut self, inputs: &ControlInputs<'_>, _: &mut MetricsSink) -> Placement {
        let job = inputs.jobs.job(JobId::new(0)).expect("submitted at zero");
        self.seen.push((inputs.current.clone(), job.state));
        self.first.take().unwrap_or_else(|| inputs.current.clone())
    }
}

/// Two nodes, one job and one two-instance app, node 0 down from the
/// second control instant on, the job still paying a 700 s start latency
/// then; `job_on` says where `PlaceOnce` puts the job, and the app's first
/// instance goes with it. Returns what the controller saw, the cycles
/// run, and the `sim.speeds.rebuilds` / `sim.events.unblock` counters.
fn run_with_node0_down_at_600(job_on: u32) -> (Vec<(Placement, JobState)>, u64, u64, u64) {
    let cluster = ClusterSpec::homogeneous(2, 4, CpuMhz::new(3000.0), MemMb::new(4096));
    let mut config = cfg(1800.0);
    config.overheads.start = SimDuration::from_secs(700.0);
    let mut sim = Simulator::new(&cluster, config);
    sim.set_recorder(slaq::obs::Recorder::enabled());
    let spec = TransactionalSpec {
        name: "front".into(),
        service_per_request: Work::new(720.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
        mem_per_instance: MemMb::new(1024),
        max_instances: 2,
        min_instances: 1,
        u_cap: 0.9,
    };
    sim.add_app(TransactionalRuntime::new(AppId::new(0), spec, Box::new(|_| 10.0), 0.5).unwrap());
    sim.add_arrivals(vec![(SimTime::ZERO, job(0, 3000.0))]);
    sim.add_outage(NodeOutage {
        node: NodeId::new(0),
        from: SimTime::from_secs(600.0),
        to: SimTime::from_secs(6000.0),
    });
    let mut first = Placement::empty();
    first
        .jobs
        .insert(JobId::new(0), (NodeId::new(job_on), CpuMhz::new(3000.0)));
    let slices = first.apps.entry(AppId::new(0)).or_default();
    slices.insert(NodeId::new(job_on), CpuMhz::new(4000.0));
    slices.insert(NodeId::new(1), CpuMhz::new(4000.0));
    let mut controller = PlaceOnce {
        first: Some(first),
        seen: Vec::new(),
    };
    let report = sim.run(&mut controller).unwrap();
    let count = |counter: &str| sim.recorder().counter_value(counter);
    (
        controller.seen,
        report.cycles as u64,
        count("sim.speeds.rebuilds"),
        count("sim.events.unblock"),
    )
}

#[test]
fn a_node_that_fails_while_hosting_is_stripped_at_that_very_event() {
    let (seen, cycles, rebuilds, unblocks) = run_with_node0_down_at_600(0);
    // The cycle at 600 s — the failure instant — is already shown the
    // stripped placement: no job, the instance on node 1 only, the job
    // suspended; and nothing comes back while the controller keeps it.
    assert!(seen[1].0.jobs.is_empty(), "{:?}", seen[1].0);
    let instances: Vec<NodeId> = seen[1].0.apps[&AppId::new(0)].keys().copied().collect();
    assert_eq!(instances, [NodeId::new(1)]);
    assert!(
        matches!(seen[1].1, JobState::Suspended { .. }),
        "{:?}",
        seen[1].1
    );
    assert_eq!(seen.last(), Some(&seen[1]));
    // One re-index per enactment plus the strip's own.
    assert_eq!(rebuilds, cycles + 1);
    // The start latency would have run out at 700 s: its entry left with
    // the job, so no unblock event ever fires.
    assert_eq!(unblocks, 0);
}

#[test]
fn a_node_that_fails_empty_strips_nothing_and_re_indexes_nothing() {
    let (seen, cycles, rebuilds, unblocks) = run_with_node0_down_at_600(1);
    // Everything sits on node 1: every cycle after the first is shown the
    // placement the first one enacted, the job running.
    let enacted = &seen[1].0;
    assert_eq!(enacted.jobs[&JobId::new(0)].0, NodeId::new(1));
    assert_eq!(enacted.apps[&AppId::new(0)].len(), 1);
    for (placement, state) in &seen[1..] {
        assert_eq!(placement, enacted);
        assert!(matches!(state, JobState::Running { .. }), "{state:?}");
    }
    // Only the enactments re-index, and the latency runs out as usual.
    assert_eq!(rebuilds, cycles);
    assert_eq!(unblocks, 1);
}
