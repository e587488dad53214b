//! The paper's scenario end to end: constant transactional workload plus
//! a stream of identical long-running jobs on a shared cluster, with the
//! Figure-1 curves rendered in the terminal.
//!
//! ```text
//! cargo run --release --example mixed_datacenter          # full size
//! cargo run --example mixed_datacenter -- --small         # scaled down
//! ```

use slaq::prelude::*;
use slaq_experiments::ascii::{downsample, plot};
use slaq_experiments::shape_metrics;

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let spec =
        ScenarioSpec::preset(if small { "paper-small" } else { "paper" }).expect("built-in preset");
    let pool = &spec.cluster.pools[0];
    let stream = &spec.job_streams[0];
    println!(
        "{} scenario: {} nodes × {} × {} MHz, transactional load {:?}, \
         up to {} jobs of {}, horizon {} s",
        spec.name,
        pool.count,
        pool.cpus_per_node,
        pool.core_mhz,
        spec.apps[0].trace,
        stream.max_jobs,
        stream.mix.classes[0].template.work,
        spec.timing.horizon_secs,
    );

    let report = spec.run().unwrap();

    let ut = downsample(report.metrics.series("trans_utility"), 100);
    let uj = downsample(report.metrics.series("jobs_hypo_utility"), 100);
    println!(
        "\n{}",
        plot(
            &[
                ("transactional (actual)", &ut),
                ("long-running (hypothetical)", &uj)
            ],
            100,
            18,
        )
    );

    let shape = shape_metrics(&report, &spec);
    println!("{shape}");
    println!(
        "\njobs: {} submitted, {} completed, {} met goals, {} disruptions",
        report.job_stats.submitted,
        report.job_stats.completed,
        report.job_stats.goals_met,
        report.job_stats.disruptions,
    );
}
