//! The SLA observability gate: per-app SLO tracking, violation
//! attribution, and the placement decision audit log must behave like
//! every other observability surface — one branch while off,
//! bit-identical simulation results while on, and deterministic exports
//! across repeat runs — while the attribution pass keeps its defining
//! invariant: the named causes of each cycle's deficit sum exactly to
//! the deficit they explain.

use slaq::core::spec::{ObserveSpec, ScenarioSpec};
use slaq::obs::{audit_jsonl, chrome_trace_json};
use slaq::sim::{SimReport, Simulator};

/// Run `cycles` control cycles of a preset with the given observability
/// setting, returning the report and the simulator (whose recorder
/// holds the SLO board and audit ring).
fn run(name: &str, observe: ObserveSpec, cycles: u32) -> (SimReport, Simulator) {
    let mut spec = ScenarioSpec::preset(name).expect("named preset");
    spec.timing.horizon_secs = spec.timing.control_period_secs * cycles as f64;
    spec.controller.observe = observe;
    let scenario = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut controller = scenario.controller();
    let mut sim = scenario.build().unwrap_or_else(|e| panic!("{name}: {e}"));
    let report = sim
        .run(controller.as_mut())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (report, sim)
}

/// The tentpole pin, extended to the SLO/audit plane: with per-app SLO
/// tracking and decision auditing active (observe on registers every
/// app), metric series, job statistics, cycle and change counts stay
/// bit-identical to the unobserved run on every corpus preset.
#[test]
fn slo_and_audit_are_bit_identical_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let (off, off_sim) = run(name, ObserveSpec::Off, 4);
        let (on, on_sim) = run(name, ObserveSpec::On, 4);
        assert!(!off_sim.recorder().is_enabled());
        assert!(on_sim.recorder().is_enabled());
        assert_eq!(
            off.metrics, on.metrics,
            "{name}: metric series diverged under SLO/audit observation"
        );
        assert_eq!(off.job_stats, on.job_stats, "{name}: job stats diverged");
        assert_eq!(off.cycles, on.cycles, "{name}: cycle count diverged");
        assert_eq!(
            off.total_changes, on.total_changes,
            "{name}: change count diverged"
        );
        // The observed run actually tracked SLOs for every app in the
        // spec (absent `slo` blocks fall back to the default spec).
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let board = on_sim.recorder().slo_board();
        assert_eq!(
            board.len(),
            spec.apps.len(),
            "{name}: SLO board should carry one tracker per app"
        );
        for (app, tracker) in &board {
            assert_eq!(
                tracker.cycles(),
                on.cycles as u64,
                "{name}/{app}: tracker should observe every control cycle"
            );
        }
    }
}

/// The attribution invariant: for every tracked app, the per-cause
/// decomposition accumulated over the run sums to the total deficit it
/// explains (the capacity cause takes the exact remainder, so this is
/// an identity up to f64 accumulation noise).
#[test]
fn attribution_sums_to_total_deficit_on_every_preset() {
    for name in ScenarioSpec::preset_names() {
        let (_, sim) = run(name, ObserveSpec::On, 6);
        for (app, tracker) in sim.recorder().slo_board() {
            let total = tracker.total_deficit_mhz();
            let parts = tracker.attribution().total();
            let tol = 1e-6 * total.max(1.0);
            assert!(
                (total - parts).abs() <= tol,
                "{name}/{app}: attribution {parts} != deficit {total}"
            );
            // Per-cycle too: the last observed sample's attribution
            // explains exactly that cycle's deficit.
            if let Some((sample, attr)) = tracker.last() {
                let tol = 1e-9 * sample.deficit_mhz.max(1.0);
                assert!(
                    (sample.deficit_mhz - attr.total()).abs() <= tol,
                    "{name}/{app}: last-cycle attribution {} != deficit {}",
                    attr.total(),
                    sample.deficit_mhz
                );
            }
        }
    }
}

/// Determinism: the audit JSONL export is bit-identical across repeat
/// runs of the same spec, for every corpus preset.
#[test]
fn audit_jsonl_is_bit_identical_across_repeat_runs() {
    for name in ScenarioSpec::preset_names() {
        let (_, a) = run(name, ObserveSpec::On, 4);
        let (_, b) = run(name, ObserveSpec::On, 4);
        let ja = audit_jsonl(a.recorder());
        let jb = audit_jsonl(b.recorder());
        assert_eq!(ja, jb, "{name}: audit JSONL diverged across repeat runs");
        // Every line is one JSON object with the full schema.
        for line in ja.lines() {
            let v: serde::Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{name}: bad audit line {line:?}: {e}"));
            for key in ["cycle", "subject", "id", "from", "to", "step", "reason"] {
                assert!(
                    serde::obj_get(&v, key).is_ok(),
                    "{name}: audit line missing {key}: {line}"
                );
            }
        }
        assert_eq!(a.recorder().audit_dropped(), 0, "{name}: ring overflowed");
    }
}

/// Churny presets actually log decisions, stamped with in-range cycles
/// and solver-stage step names.
#[test]
fn audit_log_captures_solver_decisions() {
    let (report, sim) = run("paper-small", ObserveSpec::On, 4);
    let entries = sim.recorder().audit_entries();
    assert!(
        !entries.is_empty(),
        "a churny preset should log placement decisions"
    );
    for e in &entries {
        assert!(
            (e.cycle as usize) < report.cycles,
            "audit cycle {} out of range (ran {})",
            e.cycle,
            report.cycles
        );
        assert!(
            e.step.starts_with("solve.")
                || e.step.starts_with("shard.")
                || e.step.starts_with("pipeline."),
            "unexpected audit step {:?}",
            e.step
        );
        assert!(
            e.from.is_some() || e.to.is_some(),
            "an audit entry must name at least one node"
        );
    }
    // The off recorder's ring stays empty (one-branch-when-off).
    let (_, off_sim) = run("paper-small", ObserveSpec::Off, 4);
    assert!(off_sim.recorder().audit_entries().is_empty());
}

/// Satellite: the Chrome-trace export stays structurally valid on the
/// routing-heavy and consolidation presets (complete events carry
/// durations, all events carry the mandatory fields).
#[test]
fn chrome_trace_is_structurally_valid_on_routing_and_consolidation() {
    for name in ["request-routing", "consolidation"] {
        let (_, sim) = run(name, ObserveSpec::On, 4);
        let json = chrome_trace_json(sim.recorder());
        let v: serde::Value =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: trace not JSON: {e}"));
        let events = serde::obj_get(&v, "traceEvents").expect("traceEvents key");
        let serde::Value::Arr(events) = events else {
            panic!("{name}: traceEvents must be an array");
        };
        assert!(!events.is_empty(), "{name}: trace has no events");
        let str_of = |e: &serde::Value, key: &str| -> Option<String> {
            match serde::obj_get(e, key) {
                Ok(serde::Value::Str(s)) => Some(s.clone()),
                _ => None,
            }
        };
        let mut complete = 0usize;
        for e in events {
            let ev_name = str_of(e, "name").expect("every event is named");
            for key in ["ts", "pid", "tid"] {
                assert!(
                    matches!(
                        serde::obj_get(e, key),
                        Ok(serde::Value::Int(_) | serde::Value::Float(_))
                    ),
                    "{name}/{ev_name}: missing numeric {key}"
                );
            }
            match str_of(e, "ph").expect("every event has a phase").as_str() {
                "X" => {
                    assert!(
                        matches!(
                            serde::obj_get(e, "dur"),
                            Ok(serde::Value::Int(_) | serde::Value::Float(_))
                        ),
                        "{name}/{ev_name}: complete event lacks a duration"
                    );
                    complete += 1;
                }
                other => panic!("{name}/{ev_name}: unexpected phase {other:?}: spans only"),
            }
        }
        assert!(complete > 0, "{name}: no complete spans");
        for span in ["cycle", "cycle.sense", "cycle.solve", "cycle.actuate"] {
            assert!(
                events
                    .iter()
                    .any(|e| str_of(e, "name").as_deref() == Some(span)),
                "{name}: trace missing the {span} phase"
            );
        }
    }
}

/// The per-app `slo` block round-trips through spec JSON, a partial
/// block fills the remaining fields with defaults, and pre-SLO spec
/// files (no `slo` key) keep parsing.
#[test]
fn slo_spec_round_trips_and_fills_defaults() {
    let mut spec = ScenarioSpec::preset("paper-small").expect("named preset");
    let slo = slaq::obs::SloSpec {
        target_satisfied: 0.9,
        ..slaq::obs::SloSpec::default()
    };
    spec.apps[0].slo = Some(slo);
    let json = spec.to_json().expect("serialize");
    let back = ScenarioSpec::from_json(&json).expect("reparse");
    let got = back.apps[0].slo.expect("slo block survives");
    assert_eq!(got.target_satisfied, 0.9);
    assert_eq!(
        got.window_cycles,
        slaq::obs::SloSpec::default().window_cycles
    );
    // A pre-SLO spec file has no `slo` key at all: strip it back out
    // and the spec still parses with the block absent.
    let preset_json = ScenarioSpec::preset("paper-small")
        .expect("named preset")
        .to_json()
        .expect("serialize");
    let old = ScenarioSpec::from_json(&preset_json).expect("pre-SLO spec parses");
    assert!(old.apps.iter().all(|a| a.slo.is_none() || a.slo.is_some()));
    // A partial block fills defaults: only `target_satisfied` given.
    let partial = preset_json.replace(
        "\"name\": \"transactional\",",
        "\"name\": \"transactional\", \"slo\": {\"target_satisfied\": 0.5},",
    );
    assert_ne!(partial, preset_json, "expected the app in the preset");
    let parsed = ScenarioSpec::from_json(&partial).expect("partial slo parses");
    let app = parsed
        .apps
        .iter()
        .find(|a| a.name == "transactional")
        .expect("app present");
    let got = app.slo.expect("partial block present");
    assert_eq!(got.target_satisfied, 0.5);
    assert_eq!(got.error_budget, slaq::obs::SloSpec::default().error_budget);
}
