//! Differential gates for the delta solve path.
//!
//! 1. **Delta ≡ batch, bit for bit, on every corpus preset.** Flipping
//!    `controller.solve = "Delta"` must reproduce the batch run exactly:
//!    every job statistic, every change count, every recorded metric
//!    sample. The delta path self-verifies each reuse against the actual
//!    problem, so *any* divergence is a bug, never an accepted
//!    approximation. (Solver-level random-problem differentials live in
//!    `crates/placement/src/solver.rs`; this pins the full controller +
//!    simulator path.)
//! 2. **The equivalence survives the other engines.** Delta mode rides
//!    inside each `ShardedSolver` lane and underneath `Overlap{1}`
//!    pipelining — both knobs compose with `solve = "Delta"` and must
//!    keep the reports bit-identical to their batch counterparts.
//! 3. **Random churn schedules.** A proptest drives ≥ 20 cycles of
//!    arrivals, completions, node outages/recoveries, and demand drift
//!    through batch and delta solvers side by side (global and sharded),
//!    comparing whole `PlacementOutcome`s every cycle.
//! 4. **The fast path provably engages.** A steady jobs-only simulation
//!    in delta mode must report incremental hits through
//!    `UtilityController::delta_stats` — otherwise the oracle above
//!    would be vacuously comparing two batch paths.

use slaq::core::spec::{PipelineSpec, ScenarioSpec, ShardingSpec};
use slaq::placement::SolveMode;
use slaq::sim::SimReport;

/// Run a preset for `cycles` control cycles with the given solve mode
/// and pipeline/sharding knobs.
fn run_with(
    spec: &ScenarioSpec,
    solve: SolveMode,
    shards: ShardingSpec,
    pipeline: PipelineSpec,
    cycles: usize,
) -> SimReport {
    let mut spec = spec.clone();
    spec.controller.solve = solve;
    spec.controller.shards = shards;
    spec.controller.pipeline = pipeline;
    spec.timing.cap_to_cycles(cycles);
    spec.run()
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
        if series == "pipeline_solve_micros" {
            // The one wall-clock series: it records measured solve
            // latency, which the delta path is *supposed* to change.
            // Same samples must exist, but their values are timings.
            assert_eq!(
                batch.metrics.series(series).len(),
                delta.metrics.series(series).len(),
                "{name}: {series} sample count diverged"
            );
            continue;
        }
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
        let batch = run_with(
            &spec,
            SolveMode::Batch,
            ShardingSpec::Global,
            PipelineSpec::Sync,
            4,
        );
        let delta = run_with(
            &spec,
            SolveMode::Delta,
            ShardingSpec::Global,
            PipelineSpec::Sync,
            4,
        );
        assert_reports_identical(name, &batch, &delta);
    }
}

#[test]
fn delta_solve_composes_with_sharding_and_overlap() {
    // The delta path lives inside each solver lane, so it must compose
    // with the zone-partitioned engine and with pipelined (stale-
    // snapshot) control without perturbing a single sample.
    let variants: &[(&str, ShardingSpec, PipelineSpec)] = &[
        (
            "sharded4",
            ShardingSpec::Count { count: 4 },
            PipelineSpec::Sync,
        ),
        ("overlap1", ShardingSpec::Global, PipelineSpec::overlap(1)),
        (
            "sharded4+overlap1",
            ShardingSpec::Count { count: 4 },
            PipelineSpec::overlap(1),
        ),
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
        for &(label, shards, pipeline) in variants {
            let batch = run_with(&spec, SolveMode::Batch, shards, pipeline, 4);
            let delta = run_with(&spec, SolveMode::Delta, shards, pipeline, 4);
            assert_reports_identical(&format!("{preset}/{label}"), &batch, &delta);
        }
    }
}

#[test]
fn delta_fast_path_engages_in_a_steady_simulation() {
    use slaq::prelude::*;
    use slaq_core::controller::ControllerConfig;

    // Jobs-only, uncontended, long-lived: after the opening cycles the
    // placement holds still and delta cycles must ride the incremental
    // path — this is the regime the bench gate's churn series measure,
    // pinned here functionally so the 5× invariant can't silently
    // become a batch-vs-batch comparison.
    let cluster = ClusterSpec::homogeneous(2, 4, CpuMhz::new(3000.0), MemMb::new(4096));
    let config = SimConfig {
        control_period: SimDuration::from_secs(600.0),
        horizon: SimTime::from_secs(9000.0),
        overheads: OverheadConfig {
            start: SimDuration::ZERO,
            resume: SimDuration::ZERO,
            migrate: SimDuration::ZERO,
        },
        cap_transactional: false,
    };
    let arrivals: Vec<(SimTime, JobSpec)> = (0..4)
        .map(|i| {
            (
                SimTime::ZERO,
                JobSpec {
                    name: format!("steady-{i}"),
                    // Never completes within the horizon: no structural
                    // churn after the opening placements.
                    total_work: Work::from_power_secs(CpuMhz::new(1000.0), 1e6),
                    max_speed: CpuMhz::new(1000.0),
                    mem: MemMb::new(1280),
                    goal: CompletionGoal::relative(
                        SimTime::ZERO,
                        SimDuration::from_secs(2000.0),
                        1.25,
                        3.0,
                    )
                    .unwrap(),
                },
            )
        })
        .collect();

    let run = |solve: SolveMode| {
        let mut sim = Simulator::new(&cluster, config);
        sim.add_arrivals(arrivals.clone());
        let mut controller = UtilityController::new(ControllerConfig {
            solve,
            ..Default::default()
        });
        let report = sim.run(&mut controller).unwrap();
        (report, controller.delta_stats())
    };

    let (batch_report, batch_stats) = run(SolveMode::Batch);
    let (delta_report, delta_stats) = run(SolveMode::Delta);

    // Batch mode never touches the delta machinery.
    assert_eq!(batch_stats.hits, 0, "batch mode reported delta hits");
    assert_eq!(batch_stats.fallbacks, 0, "batch mode reported fallbacks");
    // Delta mode engages the fast path on the steady tail (the opening
    // cycles legitimately fall back while placements form).
    assert!(
        delta_stats.hits >= 3,
        "fast path barely engaged on a steady fleet: {delta_stats:?}"
    );
    // And the reports still agree exactly.
    assert_reports_identical("steady-sim", &batch_report, &delta_report);
}

mod churn_schedules {
    //! Solver-level random-churn oracle: ≥ 20 cycles of arrivals,
    //! completions, outages/recoveries, and demand drift, batch vs.
    //! delta compared as whole `PlacementOutcome`s every cycle, for the
    //! global solver and the sharded lanes.

    use proptest::prelude::*;
    use slaq::placement::{
        JobRequest, NodeCapacity, Placement, PlacementConfig, PlacementProblem, ShardPlan,
        ShardedSolver, SolveDelta, SolveMode, Solver,
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
        fn prop_delta_matches_batch_over_random_churn(
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

            let mut batch_g = Solver::new();
            // Three global delta solvers, because the hint is advisory:
            // one gets none, one is always told "nothing changed" (a lie
            // on every churn cycle), one is always told the cycle is
            // structural (a lie on every quiet cycle, and it must never
            // try the re-flow).
            let quiet = SolveDelta::default();
            let structural = SolveDelta { arrived_jobs: 1, ..SolveDelta::default() };
            let mut deltas_g = [None, Some(&quiet), Some(&structural)]
                .map(|hint| (Solver::with_mode(SolveMode::Delta), hint, Placement::empty()));
            let mut batch_s = ShardedSolver::new(ShardPlan::Fixed(2), 4);
            let mut delta_s =
                ShardedSolver::new(ShardPlan::Fixed(2), 4).with_mode(SolveMode::Delta);
            let mut prev_bg = Placement::empty();
            let mut prev_bs = Placement::empty();
            let mut prev_ds = Placement::empty();

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
                    })
                    .collect();
                let p = PlacementProblem {
                    nodes,
                    apps: vec![],
                    jobs,
                    config: PlacementConfig::default(),
                };

                let out_bg = batch_g.solve(&p, &prev_bg);
                for (delta_g, hint, prev_dg) in &mut deltas_g {
                    let out_dg = delta_g.solve_with_delta(&p, prev_dg, *hint);
                    prop_assert_eq!(
                        &out_bg, &out_dg, "global divergence at cycle {}, hint {:?}", cycle, hint
                    );
                    *prev_dg = out_dg.placement;
                }
                let out_bs = batch_s.solve(&p, &prev_bs);
                let out_ds = delta_s.solve(&p, &prev_ds);
                prop_assert_eq!(&out_bs, &out_ds, "sharded divergence at cycle {}", cycle);

                for (j, slot) in running.iter_mut().enumerate() {
                    *slot = out_bg.placement.job_node(JobId::new(j as u32));
                }
                prev_bg = out_bg.placement;
                prev_bs = out_bs.placement;
                prev_ds = out_ds.placement;
            }
            prop_assert_eq!(
                deltas_g[2].0.delta_stats().hits, 0, "structural hint tried the re-flow"
            );
        }
    }
}
