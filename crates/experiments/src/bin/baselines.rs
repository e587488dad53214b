//! E3: compare the utility-equalizing controller against the
//! transactional-first FCFS scheduler and a static cluster partition on
//! the paper's workload.
//!
//! ```text
//! cargo run --release -p slaq-experiments --bin baselines [-- --small]
//! ```

use slaq_core::{ControllerKind, ScenarioSpec};
use slaq_experiments::sweeps::{corpus_controller_sweep, format_comparison};

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    let spec =
        ScenarioSpec::preset(if small { "paper-small" } else { "paper" }).expect("built-in preset");
    let kinds = [
        ControllerKind::Utility,
        ControllerKind::Fcfs,
        // Give the static partition the transactional share the utility
        // controller converges to (~1/3 of nodes) — a fair fence.
        ControllerKind::Static {
            trans_fraction: 0.36,
        },
    ];
    eprintln!("running 3 controllers on the paper workload…");
    let rows = corpus_controller_sweep(&[spec], &kinds, None).expect("runs must succeed");
    println!("{}", format_comparison(&rows));

    std::fs::create_dir_all("out").expect("create out/");
    let json = serde_json::to_string_pretty(&rows).expect("serialize");
    std::fs::write("out/baselines.json", json).expect("write out/baselines.json");
    println!("wrote out/baselines.json");
}
