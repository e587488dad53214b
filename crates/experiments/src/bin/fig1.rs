//! Regenerate **Figure 1**: actual utility of the transactional workload
//! and average hypothetical utility of the long-running workload vs time.
//!
//! ```text
//! cargo run --release -p slaq-experiments --bin fig1 [-- --small]
//! ```
//!
//! Writes `out/fig1.csv` and prints an ASCII rendition plus shape metrics.

use slaq_core::ScenarioSpec;
use slaq_experiments::ascii::{downsample, plot, summary};
use slaq_experiments::{fig1_csv, shape_metrics};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let spec =
        ScenarioSpec::preset(if small { "paper-small" } else { "paper" }).expect("built-in preset");
    eprintln!(
        "running paper experiment ({} nodes, horizon {} s)…",
        spec.cluster.node_count(),
        spec.timing.horizon_secs
    );
    let report = spec.run().expect("simulation must succeed");

    std::fs::create_dir_all("out").expect("create out/");
    let csv = fig1_csv(&report);
    std::fs::write("out/fig1.csv", &csv).expect("write out/fig1.csv");

    let ut = report.metrics.series("trans_utility");
    let uj = report.metrics.series("jobs_hypo_utility");
    println!("Figure 1 — utility of both workloads over time\n");
    let ut_d = downsample(ut, 110);
    let uj_d = downsample(uj, 110);
    println!(
        "{}",
        plot(
            &[
                ("transactional (actual)", &ut_d),
                ("long-running (hypothetical)", &uj_d)
            ],
            110,
            20,
        )
    );
    println!("{}", summary("trans_utility", ut));
    println!("{}", summary("jobs_hypo_utility", uj));
    println!();
    println!("{}", shape_metrics(&report, &spec));
    println!("\nwrote out/fig1.csv ({} rows)", csv.lines().count() - 1);
    println!(
        "jobs: {} submitted, {} completed, {} met goals",
        report.job_stats.submitted, report.job_stats.completed, report.job_stats.goals_met
    );
}
