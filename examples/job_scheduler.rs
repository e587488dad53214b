//! Library-level usage without the simulator: drive the job manager,
//! hypothetical-utility equalizer and placement solver directly — the
//! building blocks a real control plane would embed.
//!
//! ```text
//! cargo run --example job_scheduler
//! ```

use slaq::prelude::*;
use slaq_placement::solve;
use std::collections::BTreeMap;

fn main() {
    let now = SimTime::ZERO;
    let mut manager = JobManager::new();

    // Submit a mixed bag of jobs: different lengths, same SLA shape.
    for (i, work_secs) in [3600.0, 7200.0, 1800.0, 10_800.0, 5400.0]
        .iter()
        .enumerate()
    {
        manager
            .submit(
                JobSpec {
                    name: format!("analytics-{i}"),
                    total_work: Work::from_power_secs(CpuMhz::new(3000.0), *work_secs),
                    max_speed: CpuMhz::new(3000.0),
                    mem: MemMb::new(1280),
                    goal: CompletionGoal::relative(
                        now,
                        SimDuration::from_secs(*work_secs),
                        1.25,
                        2.0,
                    )
                    .unwrap(),
                    importance: 1.0,
                },
                now,
            )
            .unwrap();
    }

    // 1. Hypothetical utility: fluid equalization over a CPU budget.
    let budget = CpuMhz::new(9000.0); // three processors for five jobs
    let hypo = manager.hypothetical(now, budget, &EqualizeOptions::default());
    println!("== hypothetical utility over {budget} ==");
    println!(
        "average utility {:.3}, total demand {}",
        hypo.average_utility, hypo.total_demand
    );
    for a in &hypo.allocation.allocations {
        println!(
            "  {}: {:>8.1} MHz  → utility {:.3}",
            a.id,
            a.cpu.as_f64(),
            a.utility
        );
    }

    // 2. Realize those targets on a 2-node cluster.
    let nodes: Vec<NodeCapacity> = (0..2)
        .map(|i| NodeCapacity {
            id: NodeId::new(i),
            cpu: CpuMhz::new(6000.0),
            mem: MemMb::new(4096),
        })
        .collect();
    let job_requests: Vec<JobRequest> = manager
        .jobs()
        .iter()
        .map(|j| {
            let target = hypo.allocation.cpu_of(j.id).unwrap_or(CpuMhz::ZERO);
            JobRequest {
                id: j.id,
                demand: target,
                mem: j.spec.mem,
                running_on: None,
                affinity: None,
                priority: target.as_f64(),
                importance: 1.0,
            }
        })
        .collect();
    let problem = PlacementProblem {
        nodes,
        apps: vec![],
        jobs: job_requests,
        config: PlacementConfig::default(),
    };
    let outcome = solve(&problem, &Placement::empty());
    println!("\n== placement ==");
    let mut by_node: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
    for (&job, &(node, cpu)) in &outcome.placement.jobs {
        by_node
            .entry(node)
            .or_default()
            .push(format!("{job}@{:.0}MHz", cpu.as_f64()));
    }
    for (node, jobs) in &by_node {
        println!("  {node}: {}", jobs.join(", "));
    }
    // The solver returns the plan alone; what it leaves out stays queued,
    // and from an empty cluster every placed job is one start.
    let unplaced: Vec<JobId> = problem
        .jobs
        .iter()
        .filter(|j| !j.demand.is_zero() && !outcome.placement.jobs.contains_key(&j.id))
        .map(|j| j.id)
        .collect();
    if !unplaced.is_empty() {
        println!("  unplaced (stay queued): {unplaced:?}");
    }
    println!("  changes: {}", outcome.placement.jobs.len());

    // 3. Start the placed jobs and advance an hour of wall-clock.
    for (&job, &(node, _)) in &outcome.placement.jobs.clone() {
        manager.job_mut(job).unwrap().start(node, now).unwrap();
    }
    let done = manager.advance_running(now, SimDuration::from_hours(1.0), |id| {
        outcome.placement.job_alloc(id)
    });
    println!("\nafter 1 h: {} jobs completed", done.len());
    let stats = manager.stats();
    println!(
        "running {}, pending {}, completed {}",
        stats.running, stats.pending, stats.completed
    );
}
