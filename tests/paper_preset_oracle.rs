//! The paper preset oracle.
//!
//! The `paper` and `paper-small` presets are written out like every
//! other preset. They used to be `PaperParams`, a struct of the
//! experiment's knobs lowered onto the spec, and every figure, sweep,
//! test and example edited the struct before lowering it. The struct is
//! kept verbatim in `naive_paper/mod.rs`. The presets must equal its
//! lowering, by `==` and by JSON bytes. So must every preset edit a
//! ported caller makes, against the struct edit it replaced:
//!
//! - the workload seed;
//! - the node count, which the struct also wrote into the application's
//!   `max_instances`;
//! - the light-load job stream and arrival rate;
//! - the change budget, which callers set on a hand-built
//!   `UtilityController::default()` and now set on the spec. Here the
//!   oracle is the hand-built controller's config, and the spec's
//!   lowering must equal it.
//!
//! A seeded sweep applies a random subset of the recipes to both sides,
//! prints a tally with floors, and must catch one mutation: a node-count
//! recipe that forgets `apps[0].max_instances`.

mod naive_paper;

use naive_paper::PaperParams;
use proptest::TestRng;
use slaq::core::{ScenarioSpec, UtilityController};
use slaq::types::SimTime;
use slaq::workloads::{ArrivalProcess, IntensityTrace, RateSchedule};
use std::collections::BTreeMap;

fn oracle(name: &str) -> PaperParams {
    match name {
        "paper" => PaperParams::default(),
        "paper-small" => PaperParams::small(),
        _ => unreachable!("{name}"),
    }
}

fn preset(name: &str) -> ScenarioSpec {
    ScenarioSpec::preset(name).expect("built-in preset")
}

fn json(spec: &ScenarioSpec) -> String {
    spec.to_json().expect("specs serialize")
}

#[test]
fn presets_equal_the_paper_params_lowering() {
    for name in ["paper", "paper-small"] {
        let want = oracle(name).spec_named(name);
        let got = preset(name);
        assert_eq!(got, want, "{name}");
        assert_eq!(json(&got), json(&want), "{name}");
    }
}

/// The node-count recipe; `forget_max_instances` is the mutation.
fn set_nodes(spec: &mut ScenarioSpec, nodes: u32, forget_max_instances: bool) {
    spec.cluster.pools[0].count = nodes;
    if !forget_max_instances {
        spec.apps[0].max_instances = nodes;
    }
}

/// The light-load recipe: job count, both spacings, the tail start and
/// the transactional rate, on the spec.
fn set_light_load(spec: &mut ScenarioSpec, load: (usize, f64, f64, f64, f64)) {
    let (jobs, mean, tail_start, tail_mean, lambda) = load;
    let stream = &mut spec.job_streams[0];
    stream.max_jobs = jobs;
    stream.arrivals = ArrivalProcess::Poisson {
        schedule: RateSchedule::new(vec![
            (SimTime::ZERO, mean),
            (SimTime::from_secs(tail_start), tail_mean),
        ])
        .expect("valid schedule"),
    };
    spec.apps[0].trace = IntensityTrace::constant(lambda);
}

#[test]
fn preset_edits_equal_paper_params_edits() {
    const DRAWS: u64 = 2000;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut caught = 0usize;
    for seed in 0..DRAWS {
        let rng = &mut TestRng::new(seed);
        let name = ["paper", "paper-small"][rng.below(2) as usize];
        let mut params = oracle(name);
        let mut spec = preset(name);
        let mut mutant = preset(name);
        let mut seen = vec![name];

        if rng.below(2) == 0 {
            let s = [8, rng.below(64), rng.next_u64()][rng.below(3) as usize];
            params.seed = s;
            spec.seed = s;
            mutant.seed = s;
            seen.push("recipe: seed");
        }
        if rng.below(2) == 0 {
            let n = 1 + rng.below(40) as u32;
            params.nodes = n;
            set_nodes(&mut spec, n, false);
            set_nodes(&mut mutant, n, true);
            seen.push("recipe: node count");
        }
        if rng.below(2) == 0 {
            let load = if rng.below(4) == 0 {
                // `light_load_completes_everything_on_time`'s values.
                (12, 800.0, 10_000.0, 900.0, 6.0)
            } else {
                (
                    1 + rng.below(400) as usize,
                    50.0 + 900.0 * rng.unit_f64(),
                    1.0 + 60_000.0 * rng.unit_f64(),
                    50.0 + 900.0 * rng.unit_f64(),
                    40.0 * rng.unit_f64(),
                )
            };
            params.total_jobs = load.0;
            params.mean_interarrival_secs = load.1;
            params.tail_start_secs = load.2;
            params.tail_interarrival_secs = load.3;
            params.lambda = load.4;
            set_light_load(&mut spec, load);
            set_light_load(&mut mutant, load);
            seen.push("recipe: light load");
        }
        let mut want = params.spec_named(name);
        if rng.below(2) == 0 {
            let budget = [None, Some(5), Some(rng.below(50) as usize)][rng.below(3) as usize];
            spec.controller.max_changes = budget;
            mutant.controller.max_changes = budget;
            // The struct has no change budget: its side takes the same
            // spec edit, and the oracle for the budget is what
            // `churn_is_bounded_by_config` ran before — the paper
            // scenario under a hand-built default controller with the
            // budget written into its config.
            want.controller.max_changes = budget;
            let mut hand_built = UtilityController::default();
            hand_built.config.placement.max_changes = budget;
            let lowered = spec.materialize().expect("edited presets stay valid");
            assert_eq!(
                format!("{:?}", lowered.controller),
                format!("{:?}", hand_built.config),
                "seed {seed} {name}: the spec's controller config"
            );
            seen.push("recipe: max_changes");
        }
        assert_eq!(spec, want, "seed {seed} {name}");
        assert_eq!(json(&spec), json(&want), "seed {seed} {name}");
        caught += usize::from(json(&mutant) != json(&want));
        if seen.len() == 1 {
            seen.push("no recipe");
        }
        for what in seen {
            *tally.entry(what).or_default() += 1;
        }
    }
    println!("paper presets ≡ PaperParams lowering over {DRAWS} draws: {tally:?}");
    for (what, draws) in &tally {
        assert!(*draws >= 100, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 7, "{tally:?}");
    // The mutation check: a node-count recipe that forgets
    // `apps[0].max_instances` leaves the application able to ask for
    // instances on nodes the cluster no longer has (or too few).
    println!("node count without max_instances: caught in {caught} draws");
    assert!(caught >= 500, "{caught}");
}
