//! E4: placement-solver scalability grid and workload-seed robustness.
//!
//! ```text
//! cargo run --release -p slaq-experiments --bin sweep
//! ```

use slaq_core::{PipelineSpec, RoutingSpec, ScenarioSpec};
use slaq_experiments::sweeps::{
    corpus_sweep, format_corpus, format_routing, format_scalability, format_staleness,
    placement_scalability, routing_sweep, seed_sweep, staleness_sweep,
};

fn main() {
    println!("scenario corpus (each preset, first 12 control cycles):\n");
    let corpus = corpus_sweep(Some(12)).expect("corpus presets must run");
    println!("{}", format_corpus(&corpus));

    println!("control-plane staleness (corpus × pipeline mode, 12 cycles):\n");
    let modes = [
        PipelineSpec::Sync,
        PipelineSpec::overlap(1),
        PipelineSpec::overlap(2),
    ];
    let staleness = staleness_sweep(&modes, Some(12)).expect("staleness sweep must run");
    println!("{}", format_staleness(&staleness));

    println!("request routing policies (request-routing preset, full horizon):\n");
    let policies = [
        RoutingSpec::Off,
        RoutingSpec::Uniform {
            warm_gain: 0.5,
            warm_alpha: 0.5,
        },
        RoutingSpec::Affinity {
            temperature: 0.0,
            warm_gain: 0.5,
            warm_alpha: 0.5,
            load_penalty: 0.4,
            placement_bias: 600.0,
        },
    ];
    let routing =
        routing_sweep("request-routing", &policies, None).expect("routing sweep must run");
    println!("{}", format_routing(&routing));

    println!("placement solver scalability (cold placement, jobs-heavy mix):\n");
    let grid: Vec<(u32, u32)> = vec![(10, 30), (25, 120), (50, 300), (100, 600), (200, 1200)];
    let cells = placement_scalability(&grid, 1);
    println!("{}", format_scalability(&cells));

    println!("shape robustness across workload seeds (small paper variant):\n");
    let small = ScenarioSpec::preset("paper-small").expect("built-in preset");
    let outcomes = seed_sweep(&small, &[1, 2, 3, 4, 5, 6, 7, 8]);
    println!("seed   crossover(s)   eq-gap    completed");
    for o in &outcomes {
        println!(
            "{:<6} {:<14} {:<9} {}",
            o.seed,
            o.crossover_secs
                .map(|x| format!("{x:.0}"))
                .unwrap_or_else(|| "never".into()),
            o.equalization_gap
                .map(|g| format!("{g:.3}"))
                .unwrap_or_else(|| "-".into()),
            o.completed
        );
    }
    let crossed = outcomes
        .iter()
        .filter(|o| o.crossover_secs.is_some())
        .count();
    println!(
        "\n{}/{} seeds show the crossover→equalization shape",
        crossed,
        outcomes.len()
    );

    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write(
        "out/sweep.json",
        serde_json::to_string_pretty(&(corpus, staleness, routing, cells, outcomes))
            .expect("serialize"),
    )
    .expect("write out/sweep.json");
    println!("wrote out/sweep.json");
}
