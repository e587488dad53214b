//! Gates for the pipelined control plane (solve → wait → actuate):
//!
//! 1. **Zero latency ≡ synchronous, bit for bit, on every corpus
//!    preset.** `controller.pipeline = overlap { latency_cycles: 0 }`
//!    routes through the whole pipeline machinery — the plan queue,
//!    reconciliation — yet must reproduce the
//!    synchronous run exactly: every job statistic, every change count,
//!    every recorded metric sample. (Unit-level reconciliation
//!    differentials live in `crates/core/src/pipeline.rs`.)
//! 2. **Staleness stays affordable.** Acting on one-cycle-old plans
//!    must retain a pinned fraction of the synchronous run's satisfied
//!    CPU across the corpus — the honest-scale-claim gate the ROADMAP
//!    asks for before solves go truly concurrent.
//! 3. **Stale plans survive a hostile world.** Outage presets run under
//!    multi-cycle latency without tripping the simulator's enactment
//!    validation (which rejects placements of completed jobs and
//!    capacity violations outright).
//! 4. **The inline pipeline is the snapshot pipeline it replaced.** The
//!    plane used to capture the world into a `SensingSnapshot`, solve on
//!    the copy into a buffered sink and queue the completed solve; it now
//!    solves on the live inputs. That body, kept below as
//!    [`SnapshotPipeline`], must reproduce every `Overlap { L }` run.

use slaq::core::reconcile;
use slaq::core::spec::{PipelineSpec, ScenarioSpec};
use slaq::obs::Recorder;
use slaq::placement::Placement;
use slaq::sim::{ControlInputs, Controller, MetricsSink, SensingSnapshot, SimReport};
use slaq::types::SimTime;
use slaq_experiments::sweeps::staleness_sweep;
use std::collections::VecDeque;

/// Run a preset for `cycles` control cycles under the given pipeline
/// knob.
fn run_with(spec: &ScenarioSpec, pipeline: PipelineSpec, cycles: usize) -> SimReport {
    let mut spec = spec.clone();
    spec.controller.pipeline = pipeline;
    spec.timing.cap_to_cycles(cycles);
    spec.run()
        .unwrap_or_else(|e| panic!("{} ({pipeline:?}): {e}", spec.name))
}

/// The series the [`SnapshotPipeline`] oracle still records and the
/// shipped plane no longer does: wall-clock time is not a function of
/// the scenario, so it left the results channel.
const WALL_CLOCK: &str = "pipeline_solve_micros";

/// The first difference between two reports, if any: cycle and change
/// counts, job statistics, then every series bit for bit — the oracle's
/// [`WALL_CLOCK`] series left out.
fn report_diff(a: &SimReport, b: &SimReport) -> Option<String> {
    if (a.cycles, a.total_changes) != (b.cycles, b.total_changes) {
        return Some(format!(
            "cycles / total changes {:?} vs {:?}",
            (a.cycles, a.total_changes),
            (b.cycles, b.total_changes)
        ));
    }
    if format!("{:?}", a.job_stats) != format!("{:?}", b.job_stats) {
        return Some(format!("job stats {:?} vs {:?}", a.job_stats, b.job_stats));
    }
    let names = |r: &SimReport| -> Vec<String> {
        let names = r.metrics.names().into_iter();
        names
            .filter(|&n| n != WALL_CLOCK)
            .map(str::to_string)
            .collect()
    };
    if names(a) != names(b) {
        return Some("series names".into());
    }
    let bits = |pts: &[(f64, f64)]| -> Vec<(u64, u64)> {
        pts.iter()
            .map(|&(t, v)| (t.to_bits(), v.to_bits()))
            .collect()
    };
    names(a).into_iter().find_map(|name| {
        (bits(a.metrics.series(&name)) != bits(b.metrics.series(&name)))
            .then(|| format!("series {name}"))
    })
}

/// A solve the [`SnapshotPipeline`] queued.
struct QueuedSolve {
    seq: u64,
    snapshot_time: SimTime,
    snapshot_placement: Placement,
    plan: Placement,
    metrics: MetricsSink,
    solve_micros: f64,
}

/// The pipelined plane as it stood before it solved inline (PR 24's
/// worker `dispatch` and `PipelinedController::control`, spans and
/// counters left out): capture the live inputs, solve on the
/// copy into a buffered sink, copy the series back, queue, pop every
/// matured plan (the freshest wins under `supersede`, one a cycle
/// otherwise), reconcile.
struct SnapshotPipeline {
    inner: Box<dyn Controller>,
    latency_cycles: u64,
    max_changes: Option<usize>,
    supersede: bool,
    cycle: u64,
    pending: VecDeque<QueuedSolve>,
    /// Mutation switch: solve on the previous cycle's snapshot.
    solve_one_behind: bool,
    previous: Option<SensingSnapshot>,
    enacted: usize,
    superseded: usize,
}

impl SnapshotPipeline {
    fn new(inner: Box<dyn Controller>, latency_cycles: u32, max_changes: Option<usize>) -> Self {
        SnapshotPipeline {
            inner,
            latency_cycles: latency_cycles as u64,
            max_changes,
            supersede: true,
            cycle: 0,
            pending: VecDeque::new(),
            solve_one_behind: false,
            previous: None,
            enacted: 0,
            superseded: 0,
        }
    }
}

impl Controller for SnapshotPipeline {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        let k = self.cycle;
        self.cycle += 1;

        let snapshot = SensingSnapshot::capture(inputs);
        let started = std::time::Instant::now();
        let mut sink = MetricsSink::new();
        let solved_on = match &self.previous {
            Some(previous) if self.solve_one_behind => previous,
            _ => &snapshot,
        };
        let plan = self.inner.control(&solved_on.inputs(), &mut sink);
        let solve_micros = started.elapsed().as_secs_f64() * 1e6;
        let done = QueuedSolve {
            seq: k,
            snapshot_time: snapshot.now,
            snapshot_placement: snapshot.current.clone(),
            plan,
            metrics: sink,
            solve_micros,
        };
        if self.solve_one_behind {
            self.previous = Some(snapshot);
        }
        for name in done.metrics.names() {
            for &(t, v) in done.metrics.series(name) {
                metrics.record(name, SimTime::from_secs(t), v);
            }
        }
        self.pending.push_back(done);

        let mut chosen: Option<QueuedSolve> = None;
        let mut superseded = 0usize;
        while self
            .pending
            .front()
            .is_some_and(|c| c.seq + self.latency_cycles <= k)
        {
            let done = self.pending.pop_front().expect("checked non-empty");
            if chosen.replace(done).is_some() {
                superseded += 1;
            }
            if !self.supersede {
                break;
            }
        }
        let Some(done) = chosen else {
            return inputs.current.clone();
        };

        metrics.record("pipeline_solve_micros", inputs.now, done.solve_micros);
        metrics.record(
            "pipeline_staleness_secs",
            inputs.now,
            (inputs.now - done.snapshot_time).as_secs(),
        );
        metrics.record(
            "pipeline_staleness_cycles",
            inputs.now,
            (k - done.seq) as f64,
        );
        // The old body recorded a series and a counter here; the tally
        // keeps the count instead, so the test can assert it stays 0.
        self.superseded += superseded;
        let mut plan = done.plan;
        let outcome = reconcile(
            &mut plan,
            &done.snapshot_placement,
            inputs,
            self.max_changes,
        );
        metrics.record("pipeline_reconciled", inputs.now, outcome.total() as f64);
        self.enacted += 1;
        plan
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

#[test]
fn inline_pipeline_equals_the_snapshot_pipeline_on_every_preset() {
    const CYCLES: usize = 12;
    let (mut compared, mut enacted, mut superseded) = (0usize, 0usize, 0usize);
    let mut caught: Vec<String> = Vec::new();
    for name in ScenarioSpec::preset_names() {
        let mut spec = ScenarioSpec::preset(name).expect("named preset");
        spec.timing.cap_to_cycles(CYCLES);
        for latency in [1u32, 2] {
            // The old body around the Sync-built controller; one latency
            // under each of its two policies.
            let oracle = |solve_one_behind: bool| -> (SimReport, SnapshotPipeline) {
                let mut sync = spec.clone();
                sync.controller.pipeline = PipelineSpec::Sync;
                let scenario = sync.materialize().expect("preset materializes");
                let max_changes = scenario.controller.placement.max_changes;
                let mut ctl = SnapshotPipeline::new(scenario.controller(), latency, max_changes);
                ctl.supersede = latency == 1;
                ctl.solve_one_behind = solve_one_behind;
                let report = scenario
                    .run(&mut ctl)
                    .unwrap_or_else(|e| panic!("{name} oracle L={latency}: {e}"));
                (report, ctl)
            };
            let got = run_with(&spec, PipelineSpec::overlap(latency), CYCLES);
            let (want, ctl) = oracle(false);
            if let Some(diff) = report_diff(&want, &got) {
                panic!("{name} L={latency}: the inline pipeline diverged: {diff}");
            }
            compared += 1;
            enacted += ctl.enacted;
            superseded += ctl.superseded;
            // Mutation: a plan solved one cycle further behind than its
            // staleness says must not pass for the real thing.
            let (mutant, _) = oracle(true);
            if let Some(diff) = report_diff(&mutant, &got) {
                caught.push(format!("{name} L={latency}: {diff}"));
            }
        }
    }
    let behavioural = caught
        .iter()
        .filter(|c| c.contains("total changes") || c.contains("job stats"))
        .count();
    println!(
        "inline ≡ snapshot pipeline: {compared} runs compared, {enacted} plans enacted, \
         {superseded} superseded; mutation caught on {} runs ({behavioural} by changes or \
         job stats)",
        caught.len()
    );
    assert_eq!(compared, 24, "every preset at L = 1 and L = 2");
    assert!(enacted >= 200, "only {enacted} plans enacted");
    assert_eq!(superseded, 0, "an inline solve never falls behind");
    assert!(
        behavioural >= 1,
        "the one-behind mutation went unnoticed: {caught:?}"
    );
}

#[test]
fn zero_latency_overlap_is_bit_identical_to_sync_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let sync = run_with(&spec, PipelineSpec::Sync, 4);
        let piped = run_with(&spec, PipelineSpec::overlap(0), 4);

        assert_eq!(sync.cycles, piped.cycles, "{name}: cycle count");
        assert_eq!(
            sync.total_changes, piped.total_changes,
            "{name}: total changes"
        );
        let a = &sync.job_stats;
        let b = &piped.job_stats;
        assert_eq!(a.submitted, b.submitted, "{name}: submitted");
        assert_eq!(a.completed, b.completed, "{name}: completed");
        assert_eq!(a.goals_met, b.goals_met, "{name}: goals met");
        assert_eq!(a.disruptions, b.disruptions, "{name}: disruptions");

        // Every synchronous series reproduced sample for sample; the
        // pipelined run may add only its own `pipeline_*` series, and
        // must actually record them (staleness is part of the report
        // contract; solve latency is wall-clock, the recorder's).
        for series in sync.metrics.names() {
            assert_eq!(
                sync.metrics.series(series),
                piped.metrics.series(series),
                "{name}: series {series} diverged"
            );
        }
        for series in piped.metrics.names() {
            assert!(
                !sync.metrics.series(series).is_empty() || series.starts_with("pipeline_"),
                "{name}: unexpected extra series {series}"
            );
        }
        assert!(
            !piped.metrics.series("pipeline_staleness_secs").is_empty(),
            "{name}: pipeline_staleness_secs missing from the pipelined report"
        );
        assert!(
            piped.metrics.series(WALL_CLOCK).is_empty(),
            "{name}: wall-clock {WALL_CLOCK} in the results channel"
        );
        // Zero latency means zero staleness, every cycle.
        assert!(
            piped
                .metrics
                .series("pipeline_staleness_secs")
                .iter()
                .all(|&(_, v)| v == 0.0),
            "{name}: zero-latency run reported staleness"
        );
    }
}

#[test]
fn one_cycle_staleness_retains_pinned_satisfied_cpu_on_the_corpus() {
    // The pinned staleness cost: enacting every plan one cycle late must
    // retain at least these fractions of the synchronous satisfied CPU
    // (trans_alloc + jobs_alloc summed over cycles) — ≥ 90 % in corpus
    // aggregate, and no single preset below 80 %. Tightening the
    // reconciliation may raise these; they must never sink below.
    const AGGREGATE_FLOOR: f64 = 0.90;
    const PER_PRESET_FLOOR: f64 = 0.80;

    let modes = [PipelineSpec::Sync, PipelineSpec::overlap(1)];
    let cells = staleness_sweep(&modes, Some(18)).expect("sweep runs");
    let mut sync_total = 0.0;
    let mut stale_total = 0.0;
    for pair in cells.chunks(2) {
        let (sync, stale) = (&pair[0], &pair[1]);
        assert_eq!(sync.scenario, stale.scenario);
        assert!(
            stale.satisfied_cpu >= PER_PRESET_FLOOR * sync.satisfied_cpu,
            "{}: stale {:.0} < {PER_PRESET_FLOOR} × sync {:.0}",
            sync.scenario,
            stale.satisfied_cpu,
            sync.satisfied_cpu
        );
        // The staleness the sweep reports is exactly one control period.
        assert!(
            stale.mean_staleness_secs > 0.0,
            "{}: staleness series missing",
            sync.scenario
        );
        sync_total += sync.satisfied_cpu;
        stale_total += stale.satisfied_cpu;
    }
    assert!(
        stale_total >= AGGREGATE_FLOOR * sync_total,
        "corpus aggregate: stale {stale_total:.0} < {AGGREGATE_FLOOR} × sync {sync_total:.0}"
    );
}

#[test]
fn stale_plans_survive_outages_and_completions() {
    // hetero-pool carries a planned node outage; running it at several
    // latencies to the full horizon forces stale plans to be reconciled
    // across the failure and the recovery. The simulator's `enact`
    // rejects (with an error) any placement naming a completed job, a
    // dead node's capacity, or an overcommitted node — so finishing at
    // all is the assertion. `supersede` is carried and selects nothing:
    // `false` must reproduce `true`.
    let spec = ScenarioSpec::preset("hetero-pool").expect("preset");
    for latency in [1u32, 2, 3] {
        let report = run_with(&spec, PipelineSpec::overlap(latency), 36);
        let fifo = PipelineSpec::Overlap {
            latency_cycles: latency,
            supersede: false,
        };
        let same = report_diff(&report, &run_with(&spec, fifo, 36));
        assert_eq!(
            same, None,
            "latency {latency}: supersede selected something"
        );
        assert!(report.cycles >= 30, "latency {latency}: run truncated");
        assert!(
            report.job_stats.completed > 0,
            "latency {latency}: nothing completed"
        );
        // Staleness series reflect the configured latency once filled.
        let staleness = report.metrics.series("pipeline_staleness_secs");
        assert!(
            staleness
                .iter()
                .all(|&(_, v)| (v - latency as f64 * 600.0).abs() < 1e-6),
            "latency {latency}: unexpected staleness values"
        );
    }
}

#[test]
fn pipeline_warmup_keeps_placement_unchanged() {
    // With latency L, the first L control cycles enact no changes: the
    // pipeline is filling.
    let spec = ScenarioSpec::preset("paper-small").expect("preset");
    for latency in [1u32, 3] {
        let report = run_with(&spec, PipelineSpec::overlap(latency), 8);
        let changes = report.metrics.series("changes");
        for (i, &(_, v)) in changes.iter().take(latency as usize).enumerate() {
            assert_eq!(v, 0.0, "latency {latency}: changes at warmup cycle {i}");
        }
        // And the pipeline does start enacting afterwards.
        assert!(
            changes.iter().skip(latency as usize).any(|&(_, v)| v > 0.0),
            "latency {latency}: pipeline never enacted a plan"
        );
    }
}
