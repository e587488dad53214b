//! Quickstart: a 4-node cluster running one web application and a batch
//! of jobs under the paper's utility-equalizing controller.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use slaq::prelude::*;

fn main() {
    // A small virtualized cluster: 4 nodes × 4 × 3000 MHz, 4 GB each.
    let cluster = ClusterTopology::homogeneous(4, 4, 3000.0, 4096);

    // One transactional application: 2000 MHz·s per request, 0.5 s
    // response-time goal, 1 GB per instance.
    let shop = TransactionalSpec {
        name: "shop".into(),
        service_per_request: Work::new(2000.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
        mem_per_instance: MemMb::new(1024),
        max_instances: 4,
        min_instances: 1,
        u_cap: 0.9,
    };

    // Simulator: the default 600 s control cycles, for 2 hours.
    let timing = TimingSpec {
        horizon_secs: 7200.0,
        cap_transactional: false,
        ..TimingSpec::default()
    };
    let mut sim = Simulator::new(&cluster, timing.materialize(), Faults::default());
    sim.add_app(
        TransactionalRuntime::new(
            AppId::new(0),
            shop,
            Box::new(|_| 8.0), // constant 8 req/s
            0.4,
        )
        .unwrap(),
    );

    // Six identical batch jobs, each 40 minutes at one processor, with a
    // completion goal of 1.25× their fastest runtime.
    let jobs: Vec<(SimTime, JobSpec)> = (0..6)
        .map(|i| {
            let submit = SimTime::from_secs(i as f64 * 300.0);
            (
                submit,
                JobSpec {
                    name: format!("batch-{i}"),
                    total_work: Work::from_power_secs(CpuMhz::new(3000.0), 2400.0),
                    max_speed: CpuMhz::new(3000.0),
                    mem: MemMb::new(1280),
                    goal: CompletionGoal::relative(
                        submit,
                        SimDuration::from_secs(2400.0),
                        1.25,
                        2.0,
                    )
                    .unwrap(),
                    importance: 1.0,
                },
            )
        })
        .collect();
    sim.add_arrivals(jobs);

    // Run the paper's controller.
    let report = sim.run(&mut UtilityController::default()).unwrap();

    println!("== quickstart ==");
    println!(
        "cycles: {}   placement changes: {}",
        report.cycles, report.total_changes
    );
    println!(
        "jobs: {} submitted, {} completed, {} met goals, mean achieved utility {:.3}",
        report.job_stats.submitted,
        report.job_stats.completed,
        report.job_stats.goals_met,
        report.job_stats.mean_achieved_utility,
    );
    if let Some(u) = report.metrics.last("trans_utility") {
        println!("transactional utility (final cycle): {u:.3}");
    }
    println!("\nseries recorded: {:?}", report.metrics.names());
}
