//! Differential gates for `solve = "Delta"`, which selects nothing: the
//! mode is parsed and stops at the spec, and every solve runs the one
//! pipeline.
//!
//! 1. **Delta ≡ batch, bit for bit, on every corpus preset.** Flipping
//!    `controller.solve = "Delta"` must reproduce the batch run exactly:
//!    every job statistic, every change count, every recorded metric
//!    sample.
//! 2. **The equivalence survives the other engines.** `solve = "Delta"`
//!    composes with `ShardedSolver` lanes and `Overlap{1}` pipelining and
//!    must keep the reports bit-identical to their batch counterparts.
//! 3. **Random churn schedules.** No solver carries a mode, so what a
//!    schedule checks is warmth: ≥ 20 cycles of arrivals,
//!    completions, node outages/recoveries, and demand drift through a
//!    long-lived solver (global and two-shard) and a fresh one per
//!    cycle, comparing whole `PlacementOutcome`s every cycle.

mod zone_table;

use slaq::core::spec::{PipelineSpec, ScenarioSpec};
use slaq::placement::SolveMode;
use slaq::sim::SimReport;

/// Run a preset for `cycles` control cycles with the given solve mode
/// and pipeline knob, on the global solve (`zones = None`) or on `k`
/// contiguous zones (`Some(k)`).
fn run_with(
    spec: &ScenarioSpec,
    solve: SolveMode,
    zones: Option<usize>,
    pipeline: PipelineSpec,
    cycles: usize,
) -> SimReport {
    let mut spec = spec.clone();
    spec.controller.solve = solve;
    spec.controller.pipeline = pipeline;
    spec.timing.cap_to_cycles(cycles);
    let scenario = zone_table::materialize(&spec, zones);
    let mut controller = scenario.controller();
    scenario
        .run(controller.as_mut())
        .unwrap_or_else(|e| panic!("{} ({solve:?}): {e}", spec.name))
}

/// Whole-report bit-identity: statistics, change counts, and every
/// metric series sample for sample, in both directions.
fn assert_reports_identical(name: &str, batch: &SimReport, delta: &SimReport) {
    assert_eq!(batch.cycles, delta.cycles, "{name}: cycle count");
    assert_eq!(
        batch.total_changes, delta.total_changes,
        "{name}: total changes"
    );
    let (a, b) = (&batch.job_stats, &delta.job_stats);
    assert_eq!(a.submitted, b.submitted, "{name}: submitted");
    assert_eq!(a.completed, b.completed, "{name}: completed");
    assert_eq!(a.goals_met, b.goals_met, "{name}: goals met");
    assert_eq!(a.disruptions, b.disruptions, "{name}: disruptions");
    for series in batch.metrics.names() {
        assert_eq!(
            batch.metrics.series(series),
            delta.metrics.series(series),
            "{name}: series {series} diverged"
        );
    }
    for series in delta.metrics.names() {
        assert!(
            !batch.metrics.series(series).is_empty(),
            "{name}: delta-only extra series {series}"
        );
    }
}

#[test]
fn delta_solve_is_bit_identical_to_batch_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let batch = run_with(&spec, SolveMode::Batch, None, PipelineSpec::Sync, 4);
        let delta = run_with(&spec, SolveMode::Delta, None, PipelineSpec::Sync, 4);
        assert_reports_identical(name, &batch, &delta);
    }
}

#[test]
fn delta_solve_composes_with_sharding_and_overlap() {
    // Under the zone-partitioned engine and pipelined (stale-snapshot)
    // control too, the key must not perturb a single sample.
    let variants: &[(&str, Option<usize>, PipelineSpec)] = &[
        ("sharded4", Some(4), PipelineSpec::Sync),
        ("overlap1", None, PipelineSpec::overlap(1)),
        ("sharded4+overlap1", Some(4), PipelineSpec::overlap(1)),
    ];
    for preset in [
        "paper-small",
        "hetero-pool",
        "consolidation",
        "flash-crowd",
        "zone-storm",
        "node-flap",
        "antagonist-flood",
    ] {
        let spec = ScenarioSpec::preset(preset).expect("named preset");
        for &(label, zones, pipeline) in variants {
            let batch = run_with(&spec, SolveMode::Batch, zones, pipeline, 4);
            let delta = run_with(&spec, SolveMode::Delta, zones, pipeline, 4);
            assert_reports_identical(&format!("{preset}/{label}"), &batch, &delta);
        }
    }
}

mod churn_schedules {
    //! Solver-level random-churn oracle: ≥ 20 cycles of arrivals,
    //! completions, outages/recoveries, and demand drift, a warm solver
    //! vs. a fresh one compared as whole `PlacementOutcome`s every cycle,
    //! for the global solver and the sharded lanes.

    use crate::zone_table::contiguous;
    use proptest::prelude::*;
    use slaq::placement::{
        JobRequest, NodeCapacity, Placement, PlacementConfig, PlacementProblem, ShardedSolver,
        Solver,
    };
    use slaq::types::{CpuMhz, JobId, MemMb, NodeId};

    fn fleet(n: u32) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(12_000.0),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_a_warm_solver_gives_the_same_result_as_a_fresh_one(
            n_nodes in 3u32..7,
            n_jobs in 8usize..20,
            schedule in proptest::collection::vec(
                (0u8..6, 0usize..64, 200.0..3000.0f64), 20..32),
        ) {
            let mut demands: Vec<f64> =
                (0..n_jobs).map(|i| 500.0 + ((i * 997) % 2000) as f64).collect();
            let mut alive = vec![true; n_jobs];
            let mut down = vec![false; n_nodes as usize];
            let mut running: Vec<Option<NodeId>> = vec![None; n_jobs];

            let sharded = || ShardedSolver::new(contiguous(n_nodes as usize, 2), 4);
            let mut warm_g = Solver::new();
            let mut warm_s = sharded();
            let mut prev_g = Placement::empty();
            let mut prev_s = Placement::empty();

            for (cycle, &(op, ix, value)) in schedule.iter().enumerate() {
                match op {
                    0 => demands[ix % n_jobs] = value,        // demand drift
                    1 => alive[ix % n_jobs] = false,          // completion
                    2 => alive[ix % n_jobs] = true,           // (re-)arrival
                    3 => down[ix % n_nodes as usize] = true,  // outage
                    4 => down[ix % n_nodes as usize] = false, // recovery
                    _ => {}                                   // quiet cycle
                }
                let nodes: Vec<NodeCapacity> = fleet(n_nodes)
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| !down[*i])
                    .map(|(_, n)| n)
                    .collect();
                // `running_on` is deliberately left pointing at downed
                // nodes: the boundary must shrug off unknown ids.
                let jobs: Vec<JobRequest> = (0..n_jobs)
                    .filter(|&j| alive[j])
                    .map(|j| JobRequest {
                        id: JobId::new(j as u32),
                        demand: CpuMhz::new(demands[j]),
                        mem: MemMb::new(1280),
                        running_on: running[j],
                        affinity: None,
                        priority: ((j * 31) % 7) as f64,
                        importance: 1.0,
                    })
                    .collect();
                let p = PlacementProblem {
                    nodes,
                    apps: vec![],
                    jobs,
                    config: PlacementConfig::default(),
                };

                let out_g = warm_g.solve(&p, &prev_g);
                let fresh_g = Solver::new().solve(&p, &prev_g);
                prop_assert_eq!(&out_g, &fresh_g, "global divergence at cycle {}", cycle);
                let out_s = warm_s.solve(&p, &prev_s);
                let fresh_s = sharded().solve(&p, &prev_s);
                prop_assert_eq!(&out_s, &fresh_s, "sharded divergence at cycle {}", cycle);

                for (j, slot) in running.iter_mut().enumerate() {
                    *slot = out_g.placement.job_node(JobId::new(j as u32));
                }
                prev_g = out_g.placement;
                prev_s = out_s.placement;
            }
        }
    }
}
