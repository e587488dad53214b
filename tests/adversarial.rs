//! The adversarial gate: the chaos corpus (zone-outage storms, flapping
//! nodes, capacity degradation, flash crowds, antagonist batch floods,
//! overbooking, vertical elasticity) must never shake the controller
//! loose from its safety invariants, and every differential oracle that
//! holds on the friendly corpus must keep holding under fire.
//!
//! 1. **Golden pins under the invariant checker.** Each adversarial
//!    preset runs its full horizon wrapped in [`InvariantChecker`] —
//!    zero violations, every cycle checked, and the headline run shape
//!    (cycles, changes, job counts) pinned exactly.
//! 2. **Overbooking provably bites.** The `flash-crowd` preset with its
//!    overcommit block yields strictly less satisfied CPU than the same
//!    spec with overbooking disabled, and the loss is attributed to the
//!    dedicated `overcommit` cause — not smeared into the capacity
//!    remainder.
//! 3. **The differential oracles survive chaos.** Delta ≡ batch bit
//!    identity and observe-on ≡ observe-off bit identity are replayed
//!    on every chaos preset.
//! 4. **Random fault plans.** A proptest drives seeded random chaos
//!    blocks (storm/flap/degradation/spike/flood interleavings, plus
//!    overbooking and elasticity) through Batch, Delta, Sharded(4), and
//!    Overlap(1) controllers — never panicking, never violating the
//!    checker.

mod zone_table;

use slaq::core::spec::{ObserveSpec, PipelineSpec, ScenarioSpec};
use slaq::core::Scenario;
use slaq::placement::SolveMode;
use slaq::sim::{InvariantChecker, SimReport, Simulator};

const ADVERSARIAL: &[&str] = &["flash-crowd", "zone-storm", "node-flap", "antagonist-flood"];

/// Run a spec end to end with the controller wrapped in the invariant
/// checker, returning the report and the checker's verdict.
fn run_checked(spec: &ScenarioSpec) -> (SimReport, InvariantChecker) {
    let scenario = spec
        .materialize()
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    run_scenario_checked(&scenario)
}

/// [`run_checked`] on an already materialized scenario.
fn run_scenario_checked(scenario: &Scenario) -> (SimReport, InvariantChecker) {
    let mut sim = scenario
        .build()
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
    let mut checker = InvariantChecker::new(
        scenario.controller(),
        scenario.controller.placement.max_changes,
    );
    let report = sim
        .run(&mut checker)
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
    (report, checker)
}

/// Run a preset with SLO observation on, returning the simulator whose
/// recorder holds the per-app SLO board.
fn run_observed(spec: &ScenarioSpec) -> (SimReport, Simulator) {
    let mut spec = spec.clone();
    spec.controller.observe = ObserveSpec::On;
    let scenario = spec.materialize().unwrap_or_else(|e| panic!("{e}"));
    let mut controller = scenario.controller();
    let mut sim = scenario.build().unwrap_or_else(|e| panic!("{e}"));
    let report = sim
        .run(controller.as_mut())
        .unwrap_or_else(|e| panic!("{e}"));
    (report, sim)
}

/// Golden pins: full-horizon run shape per adversarial preset —
/// (name, cycles, total changes, jobs submitted, jobs completed).
/// Exact on purpose: chaos lowering is seeded, so any change to the
/// plan generator or the fault machinery shows up here.
const GOLDEN: &[(&str, usize, usize, usize, usize)] = &[
    ("flash-crowd", 37, 66, 70, 48),
    ("zone-storm", 41, 109, 80, 80),
    ("node-flap", 37, 92, 90, 53),
    ("antagonist-flood", 37, 82, 80, 70),
];

#[test]
fn adversarial_presets_hold_every_invariant_for_the_full_horizon() {
    for &(name, cycles, changes, submitted, completed) in GOLDEN {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let (report, checker) = run_checked(&spec);
        assert_eq!(
            checker.violations(),
            &[] as &[String],
            "{name}: invariant violations"
        );
        assert_eq!(
            checker.cycles_checked(),
            report.cycles,
            "{name}: checker must see every control cycle"
        );
        assert_eq!(report.cycles, cycles, "{name}: cycle count drifted");
        assert_eq!(
            report.total_changes, changes,
            "{name}: change count drifted"
        );
        assert_eq!(
            report.job_stats.submitted, submitted,
            "{name}: submissions drifted"
        );
        assert_eq!(
            report.job_stats.completed, completed,
            "{name}: completions drifted"
        );
    }
}

#[test]
fn golden_table_covers_exactly_the_adversarial_presets() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|&(n, ..)| n).collect();
    assert_eq!(pinned, ADVERSARIAL);
    // And they are all registered corpus presets (so the corpus gate's
    // round-trip and workload pins cover them too).
    for name in ADVERSARIAL {
        assert!(
            ScenarioSpec::preset_names().contains(name),
            "{name} missing from the preset registry"
        );
    }
}

/// The adversarial presets actually exercise the fault machinery they
/// advertise: lowered outages, capacity dips, overbooking, elasticity,
/// and flood-synthesized jobs all appear in the materialized scenarios.
#[test]
fn chaos_plans_lower_onto_the_fault_machinery() {
    let storm = ScenarioSpec::preset("zone-storm")
        .unwrap()
        .materialize()
        .unwrap();
    assert!(
        !storm.faults.outages.is_empty(),
        "zone storms must lower to outages"
    );
    assert!(
        !storm.faults.dips.is_empty(),
        "degradation must lower to dips"
    );
    let flap = ScenarioSpec::preset("node-flap")
        .unwrap()
        .materialize()
        .unwrap();
    assert!(
        !flap.faults.outages.is_empty(),
        "flaps must lower to outages"
    );
    // Flap windows are disjoint per node (merged in the lowering).
    for w in flap.faults.outages.windows(2) {
        if w[0].node == w[1].node {
            assert!(
                w[0].to <= w[1].from || w[1].to <= w[0].from,
                "overlapping flap windows on {:?}",
                w[0].node
            );
        }
    }
    let crowd = ScenarioSpec::preset("flash-crowd").unwrap();
    assert!(crowd.overcommit.is_some(), "flash-crowd must overbook");
    let flood = ScenarioSpec::preset("antagonist-flood")
        .unwrap()
        .materialize()
        .unwrap();
    assert!(
        flood.faults.elasticity.is_some(),
        "flood preset must resize jobs"
    );
    let flood_jobs = flood
        .jobs
        .iter()
        .filter(|(_, j)| j.name.starts_with("flood-"))
        .count();
    assert_eq!(flood_jobs, 40, "antagonist stream must synthesize its jobs");
}

/// Overbooking provably bites: with the overcommit block active the
/// storefront sees strictly more deficit and strictly less compliance
/// than the identical spec with overbooking off, and the entire extra
/// loss is carried by the dedicated `overcommit` attribution cause.
#[test]
fn overbooking_bites_and_is_attributed_to_the_overcommit_cause() {
    let overbooked = ScenarioSpec::preset("flash-crowd").expect("named preset");
    let mut honest = overbooked.clone();
    honest.overcommit = None;

    let (_, oc_sim) = run_observed(&overbooked);
    let (_, base_sim) = run_observed(&honest);
    let oc_board = oc_sim.recorder().slo_board();
    let base_board = base_sim.recorder().slo_board();
    assert_eq!(oc_board.len(), 1);
    assert_eq!(base_board.len(), 1);
    let (app, oc) = &oc_board[0];
    let (_, base) = &base_board[0];

    assert!(
        oc.total_deficit_mhz() > base.total_deficit_mhz(),
        "{app}: overbooking should cost satisfied CPU ({} vs {})",
        oc.total_deficit_mhz(),
        base.total_deficit_mhz()
    );
    assert!(
        oc.compliance() < base.compliance(),
        "{app}: overbooking should cost compliance ({} vs {})",
        oc.compliance(),
        base.compliance()
    );
    assert!(
        oc.attribution().overcommit_mhz > 0.0,
        "{app}: the loss must be attributed to the overcommit cause"
    );
    assert_eq!(
        base.attribution().overcommit_mhz,
        0.0,
        "{app}: no overcommit attribution without overbooking"
    );
    // The attribution identity holds under the new cause too.
    let parts = oc.attribution().total();
    let total = oc.total_deficit_mhz();
    assert!(
        (parts - total).abs() <= 1e-6 * total.max(1.0),
        "{app}: attribution {parts} != deficit {total}"
    );
}

/// Delta ≡ batch, replayed under every chaos preset: flipping the solve
/// mode must reproduce the adversarial runs bit for bit, exactly as it
/// does on the friendly corpus.
#[test]
fn delta_solve_stays_bit_identical_to_batch_under_chaos() {
    for name in ADVERSARIAL {
        let base = ScenarioSpec::preset(name).expect("named preset");
        let run = |solve: SolveMode| {
            let mut spec = base.clone();
            spec.controller.solve = solve;
            spec.timing.cap_to_cycles(6);
            spec.run()
                .unwrap_or_else(|e| panic!("{name} ({solve:?}): {e}"))
        };
        let batch = run(SolveMode::Batch);
        let delta = run(SolveMode::Delta);
        assert_eq!(batch.cycles, delta.cycles, "{name}: cycle count");
        assert_eq!(
            batch.total_changes, delta.total_changes,
            "{name}: total changes"
        );
        assert_eq!(batch.job_stats, delta.job_stats, "{name}: job stats");
        for series in batch.metrics.names() {
            assert_eq!(
                batch.metrics.series(series),
                delta.metrics.series(series),
                "{name}: series {series} diverged"
            );
        }
    }
}

/// Observation ≡ no observation, replayed under every chaos preset:
/// the recorder (SLO board, audit ring and all) must stay invisible to
/// the simulation even while chaos drives it through the fault paths.
#[test]
fn observation_stays_bit_identical_under_chaos() {
    for name in ADVERSARIAL {
        let base = ScenarioSpec::preset(name).expect("named preset");
        let run = |observe: ObserveSpec| {
            let mut spec = base.clone();
            spec.controller.observe = observe;
            spec.timing.cap_to_cycles(6);
            spec.run().unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let off = run(ObserveSpec::Off);
        let on = run(ObserveSpec::On);
        assert_eq!(
            off.metrics, on.metrics,
            "{name}: metric series diverged under observation"
        );
        assert_eq!(off.job_stats, on.job_stats, "{name}: job stats diverged");
        assert_eq!(off.cycles, on.cycles, "{name}: cycle count diverged");
        assert_eq!(
            off.total_changes, on.total_changes,
            "{name}: change count diverged"
        );
    }
}

mod random_fault_plans {
    //! Seeded random chaos blocks — arbitrary interleavings of storms,
    //! flaps, degradation windows, flash crowds, floods, overbooking,
    //! and elasticity — must never panic and never violate the
    //! invariant checker, under all four controller engines.

    use super::*;
    use proptest::prelude::*;
    use slaq::sim::{
        ChaosSpec, DegradationSpec, ElasticitySpec, FlapSpec, FlashCrowdSpec, FloodSpec,
        OvercommitSpec, ZoneStormSpec,
    };

    /// The four engine configurations the checker must hold under: a
    /// solve mode, the global solve or `k` contiguous zones, and a
    /// pipeline.
    fn engines() -> Vec<(&'static str, SolveMode, Option<usize>, PipelineSpec)> {
        vec![
            ("batch", SolveMode::Batch, None, PipelineSpec::Sync),
            ("delta", SolveMode::Delta, None, PipelineSpec::Sync),
            ("sharded4", SolveMode::Batch, Some(4), PipelineSpec::Sync),
            ("overlap1", SolveMode::Batch, None, PipelineSpec::overlap(1)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn prop_random_chaos_never_violates_the_checker(
            seed in 0u64..10_000,
            storm in proptest::option::of(
                (0.0..3000.0f64, 2000.0..6000.0f64, 0.1..0.9f64, 1u32..3, 0.25..1.0f64)),
            flap in proptest::option::of(
                (1u32..3, 0.0..2000.0f64, 1500.0..5000.0f64, 0.1..0.9f64)),
            degrade in proptest::option::of(
                (1u32..3, 0.0..4000.0f64, 500.0..8000.0f64, 0.1..0.9f64)),
            spike in proptest::option::of(
                (1.0..40.0f64, 0.0..3000.0f64, 1000.0..5000.0f64, 0.1..0.9f64)),
            flood in proptest::option::of(
                (0.0..3000.0f64, 1000.0..5000.0f64, 1u32..8, 4u32..20, 500.0..4000.0f64)),
            overcommit in proptest::option::of(
                (1.0..1.6f64, 0.0..1.0f64, 0.05..0.95f64)),
            elastic in proptest::option::of(
                (100.0..2000.0f64, 500.0..3000.0f64, 1.05..2.0f64, 0.3..0.9f64, 1u32..5)),
        ) {
            let mut spec = ScenarioSpec::preset("paper-small").expect("named preset");
            spec.seed = seed;
            spec.timing.cap_to_cycles(3);
            spec.chaos = Some(ChaosSpec {
                zone_storms: storm.map(|(first, period, frac, zones, nf)| ZoneStormSpec {
                    first_secs: first,
                    period_secs: period,
                    duration_secs: period * frac,
                    zones_per_storm: zones,
                    node_fraction: nf,
                }),
                flaps: flap.map(|(nodes, first, period, frac)| FlapSpec {
                    nodes,
                    first_secs: first,
                    period_secs: period,
                    down_secs: period * frac,
                }),
                degradation: degrade.map(|(nodes, from, dur, factor)| DegradationSpec {
                    nodes,
                    from_secs: from,
                    to_secs: from + dur,
                    cpu_factor: factor,
                }),
                flash_crowds: spike.map(|(surge, first, period, frac)| FlashCrowdSpec {
                    surge,
                    first_secs: first,
                    period_secs: period,
                    spike_secs: period * frac,
                }),
                batch_floods: flood.map(|(first, period, batch, max, work)| FloodSpec {
                    first_secs: first,
                    period_secs: period,
                    batch_size: batch,
                    max_jobs: max,
                    work_secs: work,
                    mem_mb: 1024,
                }),
            });
            spec.overcommit = overcommit.map(|(ratio, prob, depth)| OvercommitSpec {
                cpu_ratio: ratio,
                mem_ratio: 1.0,
                bite_prob: prob,
                bite_depth: depth,
            });
            spec.elasticity = elastic.map(|(first, period, grow, shrink, events)| ElasticitySpec {
                first_secs: first,
                period_secs: period,
                grow_factor: grow,
                shrink_factor: shrink,
                max_events: events,
            });
            spec.validate().expect("generated chaos must be structurally valid");

            for (label, solve, zones, pipeline) in engines() {
                let mut variant = spec.clone();
                variant.controller.solve = solve;
                variant.controller.pipeline = pipeline;
                let scenario = zone_table::materialize(&variant, zones);
                let (report, checker) = run_scenario_checked(&scenario);
                prop_assert!(
                    checker.violations().is_empty(),
                    "{label}: {:?}",
                    checker.violations().first()
                );
                prop_assert_eq!(checker.cycles_checked(), report.cycles);
                prop_assert!(report.cycles >= 1, "{label}: no control cycle ran");
            }
        }
    }
}
