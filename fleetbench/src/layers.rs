//! Per-layer metrics of a traced round: the program's own spans and
//! counters (source O) read back from the simulator's recorder, and
//! replays of captured snapshots through public functions (source R).
//!
//! Nothing here adds a span inside the program: O metrics are whatever
//! the layers already record with `controller.observe = "On"`, summed
//! over the measured window and divided by its cycles.

use crate::bench::Round;
use crate::calib::{self, Footprint};
use crate::metrics::Metrics;
use crate::run::SpecRun;
use crate::stats::median;
use slaq::obs::{ObsSnapshot, Recorder};
use slaq::perfmodel::TransactionalModel;
use slaq::placement::Solver;
use slaq::sim::{effective_speeds, Controller, DeltaTracker, MetricsSink, SensingSnapshot};
use slaq::types::{CpuMhz, JobId, SimDuration};
use slaq::utility::{equalize_bisection, EqEntity, EqualizeOptions, UtilityOfCpu};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Each replayed call is timed this many times; the median counts.
const REPLAY_REPS: usize = 5;

/// The measured window of every run of the round: final recorder state
/// minus the state when the window opened.
fn windows(round: &Round) -> Vec<ObsSnapshot> {
    round
        .runs
        .iter()
        .map(|run| {
            let end = run.recorder.snapshot();
            match &run.window_start {
                Some(start) => end.delta_since(start),
                None => end,
            }
        })
        .collect()
}

/// Kernel µs the bench ran inside the program's spans: the timing
/// wrapper sits inside `cycle.solve`, so every in-run kernel run lands
/// in that span (and in `cycle` around it) and has to come out again.
/// `from` = first call counted (the kernel runs at the *end* of a call).
fn kernel_inside_us(round: &Round, from: usize) -> f64 {
    round
        .runs
        .iter()
        .flat_map(|r| r.calls.iter().skip(from))
        .filter_map(|c| c.calib_us)
        .sum()
}

/// Source O, in reference µs at the round's median kernel time.
pub fn observed(round: &Round, warmup: usize, out: &mut Metrics) {
    let scale = calib::CAL_REF_US / median(&round.kernel_times());
    let windows = windows(round);
    let span_us = |name: &str| -> f64 {
        windows
            .iter()
            .filter_map(|w| w.span_hist(name))
            .map(|h| h.sum() as f64)
            .sum()
    };
    let counter = |name: &str| -> f64 { windows.iter().map(|w| w.counter(name) as f64).sum() };
    let cycles: f64 = windows
        .iter()
        .filter_map(|w| w.span_hist("cycle"))
        .map(|h| h.count() as f64)
        .sum();
    let per_cycle_us =
        |names: &[&str]| -> f64 { names.iter().map(|n| span_us(n)).sum::<f64>() * scale / cycles };

    out.set("sim.route_us", per_cycle_us(&["cycle.route"]));
    out.set("sim.sense_us", per_cycle_us(&["cycle.sense"]));
    out.set(
        "sim.solve_us",
        per_cycle_us(&["cycle.solve"]) - kernel_inside_us(round, warmup) * scale / cycles,
    );
    out.set("sim.actuate_us", per_cycle_us(&["cycle.actuate"]));
    let dirty: (f64, f64) = windows
        .iter()
        .filter_map(|w| w.histogram("delta.dirty"))
        .fold((0.0, 0.0), |(s, n), h| {
            (s + h.sum() as f64, n + h.count() as f64)
        });
    out.set(
        "sim.delta_dirty",
        if dirty.1 > 0.0 {
            dirty.0 / dirty.1
        } else {
            0.0
        },
    );
    out.set("core.equalize_us", per_cycle_us(&["control.equalize"]));
    out.set(
        "placement.steps_us",
        per_cycle_us(&[
            "solve.step0.boundary",
            "solve.step1.keep",
            "solve.step2.apps",
            "solve.step3.place",
            "solve.step4.rebalance",
            "solve.step5.evict",
            "solve.step6.reclaim",
        ]),
    );
    out.set(
        "placement.step5_evict_us",
        per_cycle_us(&["solve.step5.evict"]),
    );
    out.set("placement.memo_hits", counter("solver.memo.hits") / cycles);
    out.set("placement.heap_rebuilds", counter("heap.rebuilds") / cycles);
    // The flow spans nest inside step 7 (or inside `alloc.delta` on the
    // delta path), so step 7 alone is the allocation phase's total.
    out.set(
        "placement.alloc_us",
        per_cycle_us(&["solve.step7.allocate"]),
    );
    out.set("placement.alloc_delta_us", per_cycle_us(&["alloc.delta"]));

    let skip = counter("delta.skip.hits");
    let alloc_hits = counter("delta.alloc.hits");
    let fallbacks = counter("delta.alloc.fallbacks");
    out.set("placement.delta.skip_hits", skip);
    out.set("placement.delta.alloc_hits", alloc_hits);
    out.set("placement.delta.fallbacks", fallbacks);
    let attempts = skip + alloc_hits + fallbacks;
    out.set(
        "placement.delta.hit_frac",
        if attempts > 0.0 {
            (skip + alloc_hits) / attempts
        } else {
            0.0
        },
    );

    out.set("placement.shard.split_us", per_cycle_us(&["shard.split"]));
    out.set("placement.shard.lanes_us", per_cycle_us(&["shard.lanes"]));
    out.set("placement.shard.merge_us", per_cycle_us(&["shard.merge"]));
    out.set(
        "placement.shard.rebalance_us",
        per_cycle_us(&["shard.rebalance"]),
    );
    out.set(
        "placement.shard.migrations",
        counter("shard.migrations") / cycles,
    );
    out.set("core.pipeline.solve_us", per_cycle_us(&["pipeline.solve"]));
    out.set(
        "core.pipeline.reconcile_us",
        per_cycle_us(&["pipeline.reconcile"]),
    );
    out.set(
        "core.pipeline.superseded",
        counter("pipeline.superseded") / cycles,
    );
    out.set(
        "core.pipeline.reconcile_drops",
        counter("pipeline.reconcile.drops") / cycles,
    );
    out.set("routing.requests", counter("route.requests") / cycles);

    // Whole-run figures (the recorder keeps self-time only as totals).
    let recorders: Vec<&Recorder> = round.runs.iter().map(|r| &r.recorder).collect();
    out.set(
        "obs.span_coverage_frac",
        span_coverage(&recorders, kernel_inside_us(round, 0)),
    );
    out.set(
        "obs.slo_compliance_min",
        recorders
            .iter()
            .flat_map(|r| r.slo_board())
            .map(|(_, tracker)| tracker.compliance())
            .fold(1.0, f64::min),
    );
    out.set(
        "obs.audit_entries",
        recorders
            .iter()
            .map(|r| r.audit_entries().len() as f64)
            .sum(),
    );
}

/// Share of the `cycle` span's wall time that sits in leaf spans: one
/// minus the self-time of every span that has children (time inside it
/// that no finer span explains). ROADMAP item 1 wants ≥ 0.9.
/// `bench_us` is the bench's own time inside `cycle.solve`'s self-time.
fn span_coverage(recorders: &[&Recorder], bench_us: f64) -> f64 {
    let mut cycle_us = -bench_us;
    let mut unexplained_us = -bench_us;
    for rec in recorders {
        for name in rec.names() {
            let Some(stats) = rec.span_stats(&name) else {
                continue;
            };
            if name == "cycle" {
                cycle_us += stats.total_us as f64;
            }
            if stats.self_us < stats.total_us {
                unexplained_us += stats.self_us as f64;
            }
        }
    }
    if cycle_us > 0.0 {
        1.0 - unexplained_us / cycle_us
    } else {
        0.0
    }
}

/// Median host µs of `REPLAY_REPS` calls of `f`.
fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Source R: replay each captured snapshot through the public function
/// a layer exposes; per metric, the median over snapshots of the median
/// over repetitions, scaled by kernel runs around the whole replay.
pub fn replayed(run: &SpecRun, footprint: Footprint, out: &mut Metrics) {
    let names = [
        "sim.effective_speeds_us",
        "sim.snapshot_us",
        "sim.delta_observe_us",
        "jobs.entities_us",
        "jobs.advance_us",
        "utility.equalize_us",
        "core.control_replay_us",
        "placement.solve_warm_us",
    ];
    let mut raw: BTreeMap<&str, Vec<f64>> = names.iter().map(|&n| (n, Vec::new())).collect();
    let mut entities_seen = Vec::new();
    let before = calib::run(footprint);
    for snap in &run.snapshots {
        let (entities, times) = replay_one(run, snap);
        entities_seen.push(entities as f64);
        for (name, us) in names.iter().zip(times) {
            raw.get_mut(name).expect("listed above").push(us);
        }
    }
    let after = calib::run(footprint);
    for name in names {
        let value = match raw[name].as_slice() {
            [] => 0.0,
            samples => calib::to_ref(median(samples), before, after),
        };
        out.set(name, value);
    }
    out.set(
        "utility.entities",
        if entities_seen.is_empty() {
            0.0
        } else {
            median(&entities_seen)
        },
    );
}

/// The eight replayed timings for one snapshot, in `replayed`'s order,
/// and the equalizer's entity count.
fn replay_one(run: &SpecRun, snap: &SensingSnapshot) -> (usize, [f64; 8]) {
    let inputs = snap.inputs();

    // sim: the per-event speed computation, as the event loop calls it.
    let caps: BTreeMap<JobId, CpuMhz> = snap
        .jobs
        .jobs()
        .iter()
        .filter(|j| j.is_running())
        .map(|j| (j.id, j.spec.max_speed))
        .collect();
    let blocked = BTreeSet::new();
    let cap_apps = run.scenario.sim.cap_transactional;
    let speeds_us =
        time_us(|| effective_speeds(&snap.nodes, &snap.current, &caps, &blocked, cap_apps));
    let snapshot_us = time_us(|| SensingSnapshot::capture(&inputs));
    // A primed tracker diffing an unchanged world: the O(N + J) scan
    // every cycle pays before any dirty entry is found.
    let mut tracker = DeltaTracker::default();
    tracker.observe(&inputs);
    let observe_us = time_us(|| tracker.observe(&inputs));

    // jobs.
    let entities_us = time_us(|| snap.jobs.entities(snap.now));
    let mut managers: Vec<_> = (0..REPLAY_REPS).map(|_| snap.jobs.clone()).collect();
    let advance_us = time_us(|| {
        let mut mgr = managers.pop().expect("one clone per repetition");
        mgr.advance_running(snap.now, SimDuration::from_secs(1.0), |_| {
            CpuMhz::new(1000.0)
        })
    });

    // utility: the equalizer over every entity, as the controller
    // builds them.
    let models: Vec<TransactionalModel> = snap
        .apps
        .iter()
        .filter_map(|a| TransactionalModel::new(a.spec.clone(), a.lambda))
        .collect();
    let job_entities = snap.jobs.entities(snap.now);
    let mut entities: Vec<EqEntity<'_>> = Vec::with_capacity(models.len() + job_entities.len());
    for (model, obs) in models.iter().zip(&snap.apps) {
        entities.push(EqEntity::new(obs.id, model as &dyn UtilityOfCpu));
    }
    for (id, ju) in &job_entities {
        entities.push(EqEntity::new(*id, ju as &dyn UtilityOfCpu));
    }
    let total_cpu: CpuMhz = snap.nodes.iter().map(|n| n.cpu).sum();
    let options = EqualizeOptions::default();
    let equalize_us = time_us(|| equalize_bisection(&entities, total_cpu, &options));

    // core: a whole control call on the frozen world, warm (the first
    // call primes the solver's scratch and is not timed).
    let mut controller = run.scenario.utility_controller();
    let mut sink = MetricsSink::new();
    controller.control(&inputs, &mut sink);
    let control_us = time_us(|| controller.control(&inputs, &mut sink));

    // placement: the bare solver, warm, on the synthetic problem of this
    // snapshot's shape (the series `bench_gate` tracks).
    let mut problem = slaq_experiments::sweeps::synthetic_problem(
        snap.nodes.len() as u32,
        job_entities.len() as u32,
        snap.apps.len() as u32,
    );
    let mut solver = Solver::new();
    let cold = solver.solve(&problem, &Default::default());
    for job in &mut problem.jobs {
        job.running_on = cold.placement.job_node(job.id);
    }
    solver.solve(&problem, &cold.placement);
    let solve_us = time_us(|| solver.solve(&problem, &cold.placement));

    (
        entities.len(),
        [
            speeds_us,
            snapshot_us,
            observe_us,
            entities_us,
            advance_us,
            equalize_us,
            control_us,
            solve_us,
        ],
    )
}
