//! Capacity planning with the simulator: how many nodes does the paper's
//! workload need before both SLAs hold? Sweeps cluster sizes and reports
//! per-size outcomes under the utility-equalizing controller.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use slaq::prelude::*;

fn main() {
    println!("cluster-size sweep on the scaled paper workload\n");
    println!(
        "{:<7} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "nodes", "mean u_T", "mean u_J", "done", "goals", "worst utility"
    );

    for nodes in [3u32, 4, 5, 6, 8, 10] {
        let mut spec = ScenarioSpec::preset("paper-small").expect("built-in preset");
        spec.cluster.pools[0].count = nodes;
        spec.apps[0].max_instances = nodes;
        let report = match spec.run() {
            Ok(r) => r,
            Err(e) => {
                println!("{nodes:<7} simulation failed: {e}");
                continue;
            }
        };
        let horizon = SimTime::from_secs(spec.timing.horizon_secs);
        let m = &report.metrics;
        let u_t = m
            .mean_over("trans_utility", SimTime::ZERO, horizon)
            .unwrap_or(f64::NAN);
        let u_j = m
            .mean_over("jobs_hypo_utility", SimTime::ZERO, horizon)
            .unwrap_or(f64::NAN);
        let worst = m
            .min("trans_utility")
            .unwrap_or(f64::NAN)
            .min(m.min("jobs_hypo_utility").unwrap_or(f64::NAN));
        println!(
            "{:<7} {:>12.3} {:>12.3} {:>10} {:>10} {:>12.3}",
            nodes, u_t, u_j, report.job_stats.completed, report.job_stats.goals_met, worst,
        );
    }

    println!(
        "\nreading: u_T = measured transactional utility, u_J = hypothetical job \
         utility; 'worst utility' is the lowest point either workload hits. \
         Pick the smallest cluster whose worst utility stays above your floor."
    );
}
