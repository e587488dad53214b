//! Regenerate **Figure 2**: CPU power allocated to each workload and the
//! demand each workload would need to achieve maximum utility, vs time.
//!
//! ```text
//! cargo run --release -p slaq-experiments --bin fig2 [-- --small]
//! ```
//!
//! Writes `out/fig2.csv` and prints an ASCII rendition.

use slaq_core::ScenarioSpec;
use slaq_experiments::ascii::{downsample, plot, summary};
use slaq_experiments::fig2_csv;

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
    let csv = fig2_csv(&report);
    std::fs::write("out/fig2.csv", &csv).expect("write out/fig2.csv");

    let m = &report.metrics;
    println!("Figure 2 — CPU allocated to each workload and max-utility demands\n");
    let series = [
        (
            "satisfied transactional",
            downsample(m.series("trans_alloc"), 110),
        ),
        (
            "satisfied long-running",
            downsample(m.series("jobs_alloc"), 110),
        ),
        (
            "transactional demand",
            downsample(m.series("trans_demand"), 110),
        ),
        (
            "long-running demand",
            downsample(m.series("jobs_demand"), 110),
        ),
    ];
    let refs: Vec<(&str, &[(f64, f64)])> = series.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    println!("{}", plot(&refs, 110, 22));
    for name in ["trans_alloc", "jobs_alloc", "trans_demand", "jobs_demand"] {
        println!("{}", summary(name, m.series(name)));
    }
    println!("\nwrote out/fig2.csv ({} rows)", csv.lines().count() - 1);
}
