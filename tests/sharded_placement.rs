//! Differential gates for the sharded placement engine.
//!
//! 1. **1-shard ≡ global, bit for bit, on every corpus preset.** A run
//!    on a one-zone table (non-empty, every node in zone 0, so the engine
//!    builds its shard map) must reproduce the `Global` run exactly —
//!    every recorded metric sample, every job statistic, every placement
//!    change count. (Solver-level random-problem differentials live in
//!    `crates/placement/src/shard.rs`; this pins the full controller +
//!    simulator path.)
//! 2. **Multi-shard stays within a pinned utility gap of global.** The
//!    sharded engine trades placement quality for per-shard scan width;
//!    the trade must stay bounded on the whole corpus.

mod zone_table;

use slaq::core::spec::{ScenarioSpec, ShardingSpec};

/// Run a preset for `cycles` control cycles on the global solve
/// (`zones = None`) or on `k` contiguous zones (`Some(k)`), returning
/// the report.
fn run_with(spec: &ScenarioSpec, zones: Option<usize>, cycles: usize) -> slaq::sim::SimReport {
    let mut spec = spec.clone();
    spec.timing.cap_to_cycles(cycles);
    let scenario = zone_table::materialize(&spec, zones);
    let mut controller = scenario.controller();
    scenario
        .run(controller.as_mut())
        .unwrap_or_else(|e| panic!("{} ({zones:?} zones): {e}", spec.name))
}

/// Σ of a recorded series' samples (0 when the series is absent).
fn series_sum(report: &slaq::sim::SimReport, name: &str) -> f64 {
    report.metrics.series(name).iter().map(|&(_, v)| v).sum()
}

#[test]
fn one_shard_sharded_engine_is_bit_identical_to_global_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let global = run_with(&spec, None, 4);
        let sharded = run_with(&spec, Some(1), 4);

        assert_eq!(global.cycles, sharded.cycles, "{name}: cycle count");
        assert_eq!(
            global.total_changes, sharded.total_changes,
            "{name}: total changes"
        );
        let g = &global.job_stats;
        let s = &sharded.job_stats;
        assert_eq!(g.submitted, s.submitted, "{name}: submitted");
        assert_eq!(g.completed, s.completed, "{name}: completed");
        assert_eq!(g.goals_met, s.goals_met, "{name}: goals met");
        assert_eq!(g.disruptions, s.disruptions, "{name}: disruptions");
        // Every recorded series, sample for sample, bit for bit.
        let mut names = global.metrics.names();
        names.sort();
        let mut sharded_names = sharded.metrics.names();
        sharded_names.sort();
        assert_eq!(names, sharded_names, "{name}: recorded series differ");
        for series in names {
            assert_eq!(
                global.metrics.series(series),
                sharded.metrics.series(series),
                "{name}: series {series} diverged"
            );
        }
    }
}

#[test]
fn multi_shard_utility_gap_is_bounded_on_every_preset() {
    // The pinned fidelity floor: across the corpus, a 3-shard run must
    // deliver at least this fraction of the global run's total satisfied
    // CPU (transactional + jobs, summed over cycles). Tightening the
    // engine may raise this; it must never sink below.
    const PINNED_FLOOR: f64 = 0.80;
    for name in ScenarioSpec::preset_names() {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let global = run_with(&spec, None, 6);
        let sharded = run_with(&spec, Some(3), 6);

        let g_total = series_sum(&global, "trans_alloc") + series_sum(&global, "jobs_alloc");
        let s_total = series_sum(&sharded, "trans_alloc") + series_sum(&sharded, "jobs_alloc");
        assert!(
            s_total >= PINNED_FLOOR * g_total,
            "{name}: sharded satisfied CPU {s_total:.0} < {PINNED_FLOOR} × global {g_total:.0}"
        );
        // The sharded run must remain a working scheduler, not just a
        // cheap one: it keeps serving the job tier.
        assert!(
            sharded.job_stats.submitted == global.job_stats.submitted,
            "{name}: workloads must be identical"
        );
    }
}

#[test]
fn zoned_preset_actually_exercises_the_sharded_engine() {
    // The consolidation preset's three zone labels must activate the
    // sharded engine through the default `Zones` knob…
    let spec = ScenarioSpec::preset("consolidation").expect("preset");
    let scenario = spec.materialize().expect("valid");
    assert!(
        !scenario.controller.sharding.is_empty(),
        "zone-labeled fleet must select the sharded engine"
    );
    // …while the unlabeled presets keep the exact global solver.
    for name in ["paper-small", "hetero-pool", "diurnal"] {
        let scenario = ScenarioSpec::preset(name)
            .expect("preset")
            .materialize()
            .expect("valid");
        assert!(
            scenario.controller.sharding.is_empty(),
            "{name}: unlabeled fleet must stay on the global solver"
        );
    }
    // And the zoned run completes end to end with a sane report.
    let mut zoned = spec.clone();
    zoned.controller.shards = ShardingSpec::Zones;
    zoned.timing.cap_to_cycles(6);
    let report = zoned.run().expect("zoned run");
    assert!(report.cycles >= 6);
    assert!(series_sum(&report, "trans_alloc") > 0.0);
}
