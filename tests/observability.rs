//! The observability gate: turning the instrumentation plane on must be
//! invisible to the simulation — every metric series and job statistic
//! stays bit-identical across all corpus presets — while the exports
//! (run report, Chrome trace, Prometheus text) actually cover the
//! control cycle's phases. The recorder observes, never steers; this
//! gate is what keeps that contract honest.

use slaq::core::spec::{ObserveSpec, ScenarioSpec};
use slaq::obs::{chrome_trace_json, prometheus_text, run_report};
use slaq::sim::{SimReport, Simulator};

/// Run `cycles` control cycles of a preset with the given observability
/// setting, returning the report and the simulator (whose recorder
/// holds everything the run recorded).
fn run(name: &str, observe: ObserveSpec, cycles: u32) -> (SimReport, Simulator) {
    let mut spec = ScenarioSpec::preset(name).expect("named preset");
    spec.timing.horizon_secs = spec.timing.control_period_secs * cycles as f64;
    spec.controller.observe = observe;
    run_spec(&spec)
}

/// Materialize, build and run `spec` under its own controller.
fn run_spec(spec: &ScenarioSpec) -> (SimReport, Simulator) {
    let name = &spec.name;
    let scenario = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut controller = scenario.controller();
    let mut sim = scenario.build().unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = sim
        .run(controller.as_mut())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (report, sim)
}

/// The tentpole pin: observation changes nothing. Metric series, job
/// statistics, cycle and change counts are bit-identical with the
/// recorder on and off, for every corpus preset.
#[test]
fn observation_is_bit_identical_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let (off, off_sim) = run(name, ObserveSpec::Off, 3);
        let (on, on_sim) = run(name, ObserveSpec::On, 3);
        assert!(!off_sim.recorder().is_enabled());
        assert!(on_sim.recorder().is_enabled());
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
        // And the observed run actually recorded something.
        assert!(
            !on_sim.recorder().names().is_empty(),
            "{name}: recorder enabled but empty"
        );
    }
}

#[test]
fn chrome_trace_is_valid_json_covering_the_control_phases() {
    let (_, sim) = run("paper-small", ObserveSpec::On, 4);
    let json = chrome_trace_json(sim.recorder());
    let v: serde::Value = serde_json::from_str(&json).expect("trace must parse as JSON");
    let events = serde::obj_get(&v, "traceEvents").expect("traceEvents key");
    let serde::Value::Arr(events) = events else {
        panic!("traceEvents must be an array, got {events:?}");
    };
    assert!(!events.is_empty(), "trace has no events");

    let str_of = |e: &serde::Value, key: &str| -> Option<String> {
        match serde::obj_get(e, key) {
            Ok(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    };
    let mut complete_spans = 0usize;
    for e in events {
        let name = str_of(e, "name").expect("every event is named");
        assert!(!name.is_empty());
        // Mandatory trace-event fields.
        for key in ["ts", "pid", "tid"] {
            assert!(
                matches!(
                    serde::obj_get(e, key),
                    Ok(serde::Value::Int(_) | serde::Value::Float(_))
                ),
                "event {name}: missing numeric {key}"
            );
        }
        match str_of(e, "ph").expect("every event has a phase").as_str() {
            "X" => {
                assert!(
                    matches!(
                        serde::obj_get(e, "dur"),
                        Ok(serde::Value::Int(_) | serde::Value::Float(_))
                    ),
                    "complete event {name} lacks a duration"
                );
                complete_spans += 1;
            }
            other => panic!("unexpected phase {other:?} on {name}: spans only"),
        }
    }
    assert!(complete_spans > 0, "no complete (ph=X) spans in the trace");
    for span in ["cycle", "cycle.sense", "cycle.solve", "cycle.actuate"] {
        assert!(
            events
                .iter()
                .any(|e| str_of(e, "name").as_deref() == Some(span)),
            "trace is missing the {span} phase"
        );
    }
}

#[test]
fn run_report_covers_cycle_phases_and_solver_steps() {
    let (_, sim) = run("paper-small", ObserveSpec::On, 4);
    let report = run_report(sim.recorder());
    for needle in [
        "p50(us)",
        "p95(us)",
        "cycle.sense",
        "cycle.solve",
        "cycle.actuate",
        "control.equalize",
        "solve.step0",
        "solve.step1",
        "solve.step2",
        "solve.step3",
        "solve.step4",
        "solve.step5",
        "solve.step6",
        "solve.step7",
        "alloc.flow",
        "delta.dirty",
    ] {
        assert!(
            report.contains(needle),
            "run report missing {needle}:\n{report}"
        );
    }
}

#[test]
fn prometheus_dump_exposes_spans_as_histograms() {
    let (_, sim) = run("paper-small", ObserveSpec::On, 4);
    let text = prometheus_text(sim.recorder());
    // Span durations surface as `_us` histograms with cumulative buckets.
    assert!(text.contains("# TYPE cycle_solve_us histogram"), "{text}");
    assert!(text.contains("cycle_solve_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains("cycle_solve_us_count"));
    // Value histograms keep their own name.
    assert!(text.contains("# TYPE delta_dirty histogram"));
}

/// The pipelined control plane records its own spans and forwards the
/// recorder through the worker into the wrapped controller's solver
/// stack.
#[test]
fn pipelined_runs_record_pipeline_and_solver_spans() {
    let mut spec = ScenarioSpec::preset("paper-small").expect("named preset");
    spec.timing.horizon_secs = spec.timing.control_period_secs * 4.0;
    spec.controller.pipeline = slaq::core::PipelineSpec::overlap(1);
    spec.controller.observe = ObserveSpec::On;
    let scenario = spec.materialize().unwrap();
    let mut controller = scenario.controller();
    let mut sim = scenario.build().unwrap();
    sim.run(controller.as_mut()).unwrap();
    let names = sim.recorder().names();
    for span in [
        "pipeline.snapshot",
        "pipeline.solve",
        "pipeline.reconcile",
        "solve.step7.allocate",
    ] {
        assert!(
            names.iter().any(|n| n == span),
            "pipelined run missing {span}; recorded: {names:?}"
        );
    }
}

/// `solve = "Delta"` selects nothing, so it exports nothing of its own:
/// the spans that completed and the counters that moved carry exactly
/// the names of the `Batch` twin's.
#[test]
fn delta_mode_exports_the_names_of_its_batch_twin() {
    use slaq::placement::SolveMode;
    let exported = |name: &str, solve: SolveMode| -> Vec<String> {
        let mut spec = ScenarioSpec::preset(name).expect("named preset");
        spec.timing.horizon_secs = spec.timing.control_period_secs * 4.0;
        spec.controller.solve = solve;
        spec.controller.observe = ObserveSpec::On;
        let (_, sim) = run_spec(&spec);
        let rec = sim.recorder();
        let mut names = rec.names();
        names.retain(|n| rec.span_stats(n).is_some() || rec.counter_value(n) > 0);
        names
    };
    for name in ["paper-small", "bursty-batch"] {
        let batch = exported(name, SolveMode::Batch);
        assert!(batch.iter().any(|n| n == "solve.step7.allocate"), "{name}");
        assert_eq!(batch, exported(name, SolveMode::Delta), "{name}");
    }
}

/// The event loop between two control cycles sits in a span of its own
/// (`sim.advance`, one per gap, outside `cycle`), every loop iteration
/// bumps `sim.events`, and `cycle.actuate` is covered by its three
/// leaves; the controller's time before the solve sits in three more
/// (`control.models`, `control.equalize`, `control.problem`), one of
/// each per decision; and every full allocation (`solve.step7.allocate`)
/// is covered by its four leaves, beside the pinned `alloc.short_jobs`.
#[test]
fn the_event_loop_and_actuation_are_covered_by_spans() {
    for name in ["bursty-batch", "zone-storm"] {
        let mut spec = ScenarioSpec::preset(name).expect("named preset");
        spec.controller.observe = ObserveSpec::On;
        let scenario = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut controller = scenario.controller();
        let mut sim = scenario.build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = sim.run(controller.as_mut()).unwrap();

        let cycles = report.cycles as u64;
        let events = sim.recorder().counter_value("sim.events");
        assert!(events >= cycles, "{name}: {events} events, {cycles} cycles");
        let gaps = sim.recorder().span_stats("sim.advance").unwrap().count;
        assert!(gaps >= cycles && gaps <= cycles + 1, "{name}: {gaps} gaps");
        for leaf in ["actuate.validate", "actuate.enact", "actuate.series"] {
            let stats = sim
                .recorder()
                .span_stats(leaf)
                .unwrap_or_else(|| panic!("{name}: no {leaf} span"));
            assert_eq!(stats.count, cycles, "{name}: {leaf}");
        }
        let decisions = sim.recorder().span_stats("control.equalize").unwrap().count;
        assert!(decisions > 0, "{name}: no decision");
        // Batch mode: every solve runs the full allocation.
        let solves = sim
            .recorder()
            .span_stats("solve.step7.allocate")
            .unwrap()
            .count;
        assert!(solves >= decisions, "{name}: {solves} solves");
        for (leaf, count) in [
            ("control.models", decisions),
            ("control.equalize", decisions),
            ("control.problem", decisions),
            ("alloc.setup", solves),
            ("alloc.flow.apps", solves),
            ("alloc.flow.jobs", solves),
            ("alloc.readback", solves),
        ] {
            let stats = sim
                .recorder()
                .span_stats(leaf)
                .unwrap_or_else(|| panic!("{name}: no {leaf} span"));
            assert_eq!(stats.count, count, "{name}: {leaf}");
            assert_eq!(stats.self_us, stats.total_us, "{name}: {leaf} is a leaf");
        }
        // The jobs the greedy fill left short on an app-hosting node are
        // all that enter the allocation's flow; their count is pinned.
        let short_jobs = sim.recorder().counter_value("alloc.short_jobs");
        let pin = if name == "bursty-batch" { 87 } else { 88 };
        assert_eq!(short_jobs, pin, "{name}: alloc.short_jobs");
        if name == "bursty-batch" {
            // A synchronous controller decides once per cycle.
            assert_eq!(decisions, cycles, "{name}");
        }
    }
}

/// The speeds are state, not a per-event computation: an event that
/// only brings arrivals regenerates nothing, and what a flush recomputes
/// is bounded by what marked it — at most every node per update of the
/// index (an enactment or an outage that stripped something; it marks
/// only the nodes whose jobs or instances changed) and once at the start, the
/// nodes it moves per capacity boundary, one node per completion and per
/// unblock (a placement change blocks at most one job) — where a
/// from-scratch loop would read `sim.events × nodes`. The counts
/// themselves are pinned: the time may fall, what is recomputed must
/// not rise. The flushes that recomputed a node are pinned as read off
/// the commit before the event loop's readers went dense; the nodes
/// recomputed fell when a boundary stopped marking every node
/// (zone-storm 719 → 659, node-flap 471 → 436), and again when eviction
/// began comparing importance classes, so equal jobs stopped trading
/// memory slots (bursty-batch 427 → 372, node-flap 436 → 415,
/// flash-crowd 379 → 337; integrations with them), and again when an
/// enactment stopped marking the nodes it did not change (bursty-batch
/// 372 → 300, zone-storm 659 → 414, node-flap 415 → 331, flash-crowd
/// 337 → 281; flushes that recomputed a node 98 → 97 and 127 → 124 with
/// them). So are the re-indexes
/// (`sim.speeds.rebuilds`: one per enactment plus one per outage event
/// that stripped something — `apply_outages` looks only after a
/// boundary or an enactment and returns early when no down node hosts
/// anything, and a strip it owed but skipped shows here by name), and
/// the jobs those updates wrote into the index
/// (`sim.speeds.jobs_laid_out`: the jobs of the nodes with a job edit in
/// each one — an update that laid out every node would count every placed
/// job each time).
/// `sim.speeds.nodes_clipped` is zero without overbooking and positive
/// on the overbooked preset. Job progress is integrated node by node:
/// `sim.events.integrate` counts the iterations that advanced at least
/// one node — every control cycle and every completion, plus the top of
/// an event that follows an unblock or a boundary, whose marked nodes are
/// integrated before the flush — and `sim.progress.jobs_advanced` the
/// calls to `Job::advance` they made. Every iteration that advanced no
/// node brought an arrival, an unblock, a boundary or a resize, and no
/// kind of event but an arrival outnumbers the iterations that advanced
/// a node. Both counts are pinned. Before progress
/// was kept per node, every iteration but a lone arrival integrated
/// every running job: 98 / 127 / 139 / 111 iterations and 1 233 / 1 569 /
/// 1 716 / 1 290 calls on these presets.
#[test]
fn the_event_loop_recomputes_only_what_an_event_touched() {
    for (
        name,
        recomputed_pin,
        map_rebuilds_pin,
        rebuilds_pin,
        integrate_pin,
        advanced_pin,
        laid_pin,
    ) in [
        ("bursty-batch", 300, 97, 37, 84, 757, 323),
        ("zone-storm", 414, 124, 45, 116, 700, 172),
        ("node-flap", 331, 139, 45, 123, 822, 405),
        ("flash-crowd", 281, 111, 37, 97, 632, 202),
    ] {
        let mut spec = ScenarioSpec::preset(name).expect("named preset");
        spec.controller.observe = ObserveSpec::On;
        let scenario = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
        let nodes = u64::from(scenario.cluster.node_count());
        let mut controller = scenario.controller();
        let mut sim = scenario.build().unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = sim.run(controller.as_mut()).unwrap();
        let count = |counter: &str| sim.recorder().counter_value(counter);

        let events = count("sim.events");
        assert_eq!(count("sim.events.control"), report.cycles as u64, "{name}");
        let kinds = ["arrival", "completion", "unblock", "boundary", "resize"];
        let census: Vec<u64> = kinds
            .iter()
            .map(|kind| count(&format!("sim.events.{kind}")))
            .collect();
        assert!(census.iter().all(|&n| n <= events), "{name}: {census:?}");
        assert!(census[0] > 0 && census[1] > 0, "{name}: {census:?}");
        if name == "zone-storm" || name == "node-flap" {
            assert!(census[3] > 0, "{name}: no capacity boundary");
        }
        let integrate = count("sim.events.integrate");
        // An iteration that advanced no node brought an arrival, an
        // unblock or a boundary (whose nodes the next event's top
        // integrates) or a resize of a job that is not running.
        let quiet = census.iter().sum::<u64>() - census[1];
        assert!(
            integrate < events && integrate + quiet >= events,
            "{name}: {integrate} integrations, census {census:?}, {events} events"
        );
        assert!(
            census.iter().skip(1).all(|&n| n <= integrate) && report.cycles as u64 <= integrate,
            "{name}: {census:?}"
        );
        assert_eq!(integrate, integrate_pin, "{name}: integrations");
        let advanced = count("sim.progress.jobs_advanced");
        assert_eq!(advanced, advanced_pin, "{name}: jobs advanced");

        let map_rebuilds = count("sim.speeds.map_rebuilds");
        assert!(
            map_rebuilds < events,
            "{name}: {map_rebuilds} map rebuilds over {events} events"
        );
        // Every enactment and every strip updates the index once (and
        // marks only the nodes whose jobs or instances it changed).
        let rebuilds = count("sim.speeds.rebuilds");
        assert!(rebuilds >= report.cycles as u64, "{name}: {rebuilds}");
        let recomputed = count("sim.speeds.nodes_recomputed");
        let bound = (rebuilds + census[3] + 1) * nodes
            + report.job_stats.completed as u64
            + 2 * report.total_changes as u64;
        assert!(
            recomputed > 0 && recomputed <= bound,
            "{name}: {recomputed} nodes recomputed, bound {bound}, from scratch {}",
            events * nodes
        );
        assert_eq!(recomputed, recomputed_pin, "{name}: nodes recomputed");
        assert_eq!(map_rebuilds, map_rebuilds_pin, "{name}: map rebuilds");
        assert_eq!(rebuilds, rebuilds_pin, "{name}: re-indexes");
        assert_eq!(
            count("sim.speeds.jobs_laid_out"),
            laid_pin,
            "{name}: jobs laid out"
        );
        let clipped = count("sim.speeds.nodes_clipped");
        if scenario.faults.overcommit.is_some() {
            assert!(clipped > 0 && clipped <= recomputed, "{name}: {clipped}");
        } else {
            assert_eq!(clipped, 0, "{name}: clipped without overbooking");
        }
    }
}

/// The `controller.observe` knob round-trips through spec JSON and old
/// spec files (no `observe` key) keep parsing with the default.
#[test]
fn observe_knob_round_trips_and_defaults_off() {
    let mut spec = ScenarioSpec::preset("paper-small").expect("named preset");
    spec.controller.observe = ObserveSpec::On;
    let json = spec.to_json().expect("serialize");
    let back = ScenarioSpec::from_json(&json).expect("reparse");
    assert_eq!(back.controller.observe, ObserveSpec::On);
    // A pre-knob spec file reads the key as absent (`obj_get` maps
    // missing keys to null): nulling it out must fall back to Off.
    let stripped = json.replace("\"observe\": \"On\"", "\"observe\": null");
    assert_ne!(stripped, json, "expected the knob in the serialized spec");
    let old = ScenarioSpec::from_json(&stripped).expect("pre-knob spec parses");
    assert_eq!(old.controller.observe, ObserveSpec::Off);
}

/// What the candidate heap's queries cost is counted: `heap.visits`
/// sums the tree slots every query of a solve visited, accumulated by
/// the heap and published once per solve beside `solver.memo.hits`.
/// Pinned on the paper preset's first eight cycles, where a bound blind
/// to the subtree's lowest id read 1 066: a bound that stops pruning
/// tied subtrees shows here by name.
#[test]
fn heap_visits_are_published_once_per_solve() {
    let (report, sim) = run("paper", ObserveSpec::On, 8);
    let rec = sim.recorder();
    let solves = rec.span_stats("solve.step7.allocate").unwrap().count;
    assert_eq!(solves, report.cycles as u64, "one solve per cycle");
    assert_eq!(rec.counter_value("heap.visits"), 582, "heap visits");
}
