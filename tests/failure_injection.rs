//! Failure injection: node outages mid-run. The controller never sees
//! more than a zero-capacity node, yet the system must suspend victims,
//! re-place them elsewhere, and re-absorb the node after recovery.
//!
//! And a faulty controller: every verdict `enact` can give a plan, pinned
//! from outside, payload and precedence included.

use slaq::prelude::*;
use slaq::types::SlaqError;
use slaq_sim::{ControlInputs, Faults, NodeOutage};

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

/// Outages on `(node, from, to)` windows, nothing else.
fn outages(windows: &[(u32, f64, f64)]) -> Faults {
    Faults {
        outages: windows
            .iter()
            .map(|&(node, from, to)| NodeOutage {
                node: NodeId::new(node),
                from: SimTime::from_secs(from),
                to: SimTime::from_secs(to),
            })
            .collect(),
        ..Faults::default()
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
        importance: 1.0,
    }
}

/// The "front" application as id 0: 1 GB an instance, at most
/// `max_instances` of them, a steady 10 requests a second.
fn front(max_instances: u32) -> TransactionalRuntime {
    let spec = TransactionalSpec {
        name: "front".into(),
        service_per_request: Work::new(720.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
        mem_per_instance: MemMb::new(1024),
        max_instances,
        min_instances: 1,
        u_cap: 0.9,
    };
    TransactionalRuntime::new(AppId::new(0), spec, Box::new(|_| 10.0), 0.5).unwrap()
}

#[test]
fn jobs_on_failed_node_are_suspended_and_resumed_elsewhere() {
    // 2 nodes, 3 jobs on node0's slots + others; fail node0 at t=1000.
    let cluster = ClusterTopology::homogeneous(2, 4, 3000.0, 4096);
    let mut sim = Simulator::new(&cluster, cfg(8000.0), outages(&[(0, 1000.0, 3000.0)]));
    sim.add_arrivals((0..6).map(|i| (SimTime::ZERO, job(i, 3000.0))).collect());
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
    let cluster = ClusterTopology::homogeneous(3, 4, 3000.0, 4096);
    let mut sim = Simulator::new(&cluster, cfg(6000.0), outages(&[(1, 1200.0, 2400.0)]));
    sim.add_app(front(3));
    sim.add_arrivals((0..4).map(|i| (SimTime::ZERO, job(i, 2000.0))).collect());
    let report = sim.run(&mut UtilityController::default()).unwrap();
    assert_eq!(report.job_stats.completed, 4);
    // The app keeps serving throughout (utility never collapses to −1
    // for a whole cycle: two healthy nodes always exceed its demand).
    let min_u = report.metrics.min("trans_utility").unwrap();
    assert!(min_u > -0.5, "app utility collapsed: {min_u}");
}

#[test]
fn overlapping_outages_of_all_nodes_pause_everything() {
    let cluster = ClusterTopology::homogeneous(2, 4, 3000.0, 4096);
    let both = outages(&[(0, 600.0, 1800.0), (1, 600.0, 1800.0)]);
    let mut sim = Simulator::new(&cluster, cfg(6000.0), both);
    sim.add_arrivals(vec![(SimTime::ZERO, job(0, 1000.0))]);
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
    let cluster = ClusterTopology::homogeneous(2, 4, 3000.0, 4096);
    let mut config = cfg(1800.0);
    config.overheads.start = SimDuration::from_secs(700.0);
    let mut sim = Simulator::new(&cluster, config, outages(&[(0, 600.0, 6000.0)]));
    sim.set_recorder(slaq::obs::Recorder::enabled());
    sim.add_app(front(2));
    sim.add_arrivals(vec![(SimTime::ZERO, job(0, 3000.0))]);
    let first = plan(
        &[(0, job_on, 4000.0), (0, 1, 4000.0)],
        &[(0, job_on, 3000.0)],
    );
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

/// Returns the script's placements, one per cycle, then whatever is in
/// force.
struct Scripted(std::vec::IntoIter<Placement>);

impl Controller for Scripted {
    fn control(&mut self, inputs: &ControlInputs<'_>, _: &mut MetricsSink) -> Placement {
        self.0.next().unwrap_or_else(|| inputs.current.clone())
    }
}

/// A placement of `(app, node, MHz)` instances and `(job, node, MHz)` jobs.
fn plan(instances: &[(u32, u32, f64)], jobs: &[(u32, u32, f64)]) -> Placement {
    let mut p = Placement::empty();
    for &(a, n, c) in instances {
        p.apps
            .entry(AppId::new(a))
            .or_default()
            .insert(NodeId::new(n), CpuMhz::new(c));
    }
    for &(j, n, c) in jobs {
        p.jobs
            .insert(JobId::new(j), (NodeId::new(n), CpuMhz::new(c)));
    }
    p
}

/// What `Simulator::run` returns when the controller hands `enact` the
/// placements of `script`: three nodes of 12 000 MHz and 4 GB, application
/// 0 (1 GB an instance, two at most), six jobs of 1 280 MB submitted at
/// zero, job 0 done after 300 s of a full processor.
fn enact_verdict(script: Vec<Placement>) -> SlaqError {
    let cluster = ClusterTopology::homogeneous(3, 4, 3000.0, 4096);
    let mut sim = Simulator::new(&cluster, cfg(1800.0), Faults::default());
    sim.add_app(front(2));
    sim.add_arrivals(
        (0..6)
            .map(|i| (SimTime::ZERO, job(i, if i == 0 { 300.0 } else { 3000.0 })))
            .collect(),
    );
    sim.run(&mut Scripted(script.into_iter()))
        .expect_err("the plan is illegal")
}

#[test]
fn enact_refuses_a_job_that_was_never_submitted() {
    let verdict = enact_verdict(vec![plan(&[], &[(1, 0, 100.0), (7, 0, 100.0)])]);
    assert_eq!(verdict, SlaqError::UnknownJob(JobId::new(7)));
}

#[test]
fn enact_refuses_a_job_that_has_completed() {
    // Job 0 runs from the first cycle and is done at 300 s; the second
    // cycle, at 600 s, still places it.
    let keep = plan(&[], &[(0, 0, 3000.0)]);
    let verdict = enact_verdict(vec![keep.clone(), keep]);
    let expected = format!("controller placed completed {}", JobId::new(0));
    assert_eq!(verdict, SlaqError::IllegalState(expected));
}

#[test]
fn enact_refuses_a_node_the_cluster_does_not_list() {
    let under_a_job = enact_verdict(vec![plan(&[], &[(1, 9, 100.0)])]);
    assert_eq!(under_a_job, SlaqError::UnknownNode(NodeId::new(9)));
    let under_an_instance = enact_verdict(vec![plan(&[(0, 4, 100.0)], &[])]);
    assert_eq!(under_an_instance, SlaqError::UnknownNode(NodeId::new(4)));
}

#[test]
fn enact_refuses_an_application_nobody_registered() {
    let verdict = enact_verdict(vec![plan(&[(0, 0, 100.0), (5, 1, 100.0)], &[])]);
    assert_eq!(verdict, SlaqError::UnknownApp(AppId::new(5)));
}

#[test]
fn enact_refuses_too_many_instances_and_negative_grants() {
    let (app, node, job) = (AppId::new(0), NodeId::new(1), JobId::new(2));
    let crowded = enact_verdict(vec![plan(
        &[(0, 0, 100.0), (0, 1, 100.0), (0, 2, 100.0)],
        &[],
    )]);
    let expected = format!("{app} has 3 instances, max 2");
    assert_eq!(crowded, SlaqError::InvalidSpec(expected));
    let slice = enact_verdict(vec![plan(&[(0, 1, -5.0)], &[])]);
    let expected = format!("negative slice for {app} on {node}");
    assert_eq!(slice, SlaqError::InvalidSpec(expected));
    let alloc = enact_verdict(vec![plan(&[], &[(2, 1, -5.0)])]);
    let expected = format!("negative alloc for {job}");
    assert_eq!(alloc, SlaqError::InvalidSpec(expected));
}

#[test]
fn enact_refuses_a_node_filled_past_its_advertised_capacity() {
    // 9 000 MHz of instance plus 4 000 of job on a 12 000 MHz node.
    let cpu = enact_verdict(vec![plan(&[(0, 1, 9000.0)], &[(1, 1, 4000.0)])]);
    let detail = format!("cpu {} > {}", CpuMhz::new(13_000.0), CpuMhz::new(12_000.0));
    let node = NodeId::new(1);
    assert_eq!(cpu, SlaqError::CapacityViolation { node, detail });
    // Four 1 280 MB jobs on a 4 GB node.
    let four: Vec<(u32, u32, f64)> = (1..5).map(|j| (j, 2, 100.0)).collect();
    let mem = enact_verdict(vec![plan(&[], &four)]);
    let detail = format!("memory {} > {}", MemMb::new(5120), MemMb::new(4096));
    let node = NodeId::new(2);
    assert_eq!(mem, SlaqError::CapacityViolation { node, detail });
}

#[test]
fn enact_checks_liveness_then_structure_then_capacity() {
    // Three faults in one plan: a job nobody submitted, an application
    // nobody registered, 13 000 MHz on node 0.
    let overfull = [(1, 0, 13_000.0)];
    let all = plan(&[(5, 1, 100.0)], &[overfull[0], (7, 2, 100.0)]);
    assert_eq!(
        enact_verdict(vec![all]),
        SlaqError::UnknownJob(JobId::new(7))
    );
    let two = plan(&[(5, 1, 100.0)], &overfull);
    assert_eq!(
        enact_verdict(vec![two]),
        SlaqError::UnknownApp(AppId::new(5))
    );
    let one = enact_verdict(vec![plan(&[], &overfull)]);
    assert!(
        matches!(one, SlaqError::CapacityViolation { node, .. } if node == NodeId::new(0)),
        "{one}"
    );
}
