//! The scenario-corpus CI gate: every named preset must round-trip
//! through serde JSON unchanged, reproduce its pinned workload stream
//! bit-identically, and survive a brief end-to-end run — so spec drift
//! (a renamed field, a reordered variant, a changed generator draw)
//! fails loudly instead of silently shifting the regression corpus.

use slaq::core::spec::ScenarioSpec;
use slaq::core::ObserveSpec;

/// Golden pins per preset: (name, generated job count, first submission
/// instant, first job name). The instants are exact ChaCha12 draws —
/// any change to seeding, stream order, or schedule handling shows up
/// here as a bit-level diff.
const GOLDEN: &[(&str, usize, f64, &str)] = &[
    ("paper", 238, 223.83663736626536, "batch-0"),
    ("paper-small", 60, 206.61843449193728, "batch-0"),
    ("hetero-pool", 98, 189.40023161760917, "batch-0"),
    ("diurnal", 70, 258.27304311492156, "batch-0"),
    ("bursty-batch", 96, 94.70011580880458, "burst-0"),
    (
        "differentiation-mix",
        70,
        180.79113018044512,
        "gold-short-0",
    ),
    ("consolidation", 90, 206.61843449193728, "batch-0"),
    ("request-routing", 70, 206.61843449193728, "batch-0"),
    ("flash-crowd", 70, 206.61843449193728, "batch-0"),
    ("zone-storm", 80, 206.61843449193728, "batch-0"),
    ("node-flap", 90, 206.61843449193728, "batch-0"),
    ("antagonist-flood", 80, 258.27304311492156, "batch-0"),
];

#[test]
fn corpus_and_golden_table_cover_the_same_presets() {
    let names: Vec<&str> = GOLDEN.iter().map(|&(n, ..)| n).collect();
    assert_eq!(names, ScenarioSpec::preset_names());
}

#[test]
fn every_preset_round_trips_through_json_unchanged() {
    for spec in ScenarioSpec::corpus() {
        let json = spec.to_json().expect("serialize");
        let back = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", spec.name));
        assert_eq!(back, spec, "{} drifted through JSON", spec.name);
        // And the re-parsed spec still validates and serializes to the
        // same text (fixed-point, not just equality).
        back.validate().expect("round-tripped spec stays valid");
        assert_eq!(back.to_json().unwrap(), json);
    }
}

#[test]
fn every_preset_reproduces_its_pinned_workload() {
    for &(name, count, first_secs, first_name) in GOLDEN {
        let spec = ScenarioSpec::preset(name).expect("named preset");
        let scenario = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(scenario.jobs.len(), count, "{name}: job count drifted");
        let (t, job) = &scenario.jobs[0];
        // Exact equality on purpose: these are deterministic seeded
        // draws, and approximate matches would hide generator changes.
        assert_eq!(t.as_secs(), first_secs, "{name}: first arrival drifted");
        assert_eq!(job.name, first_name, "{name}: first job name drifted");
        // Twice-materialized must be bit-identical.
        let again = spec.materialize().unwrap();
        assert_eq!(scenario.jobs.len(), again.jobs.len());
        for (a, b) in scenario.jobs.iter().zip(&again.jobs) {
            assert_eq!(a.0, b.0, "{name}: submission instants drifted");
            assert_eq!(a.1.name, b.1.name);
        }
    }
}

#[test]
fn every_preset_runs_one_control_cycle_end_to_end() {
    for name in ScenarioSpec::preset_names() {
        // Specs are data: cap the horizon to a single control cycle and
        // run the full generation → placement → measurement path.
        let mut spec = ScenarioSpec::preset(name).expect("named preset");
        spec.timing.horizon_secs = spec.timing.control_period_secs;
        let report = spec.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.cycles >= 1, "{name}: no control cycle ran");
        assert!(
            !report.metrics.names().is_empty(),
            "{name}: no series recorded"
        );
    }
}

#[test]
fn external_scenarios_dir_specs_round_trip_and_run() {
    // Users pin their own fleet specs under `scenarios/*.json`; the gate
    // globs the directory so a stale spec (field rename, variant
    // reorder) fails CI instead of silently rotting. Absent directory =
    // nothing pinned = pass.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "scenarios/ exists but holds no *.json specs"
    );
    for path in paths {
        let label = path.display().to_string();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{label}: {e}"));
        let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{label}: parse: {e}"));
        spec.validate()
            .unwrap_or_else(|e| panic!("{label}: validate: {e}"));
        // Round-trip fixed point, same as the built-in corpus.
        let json = spec.to_json().unwrap();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back, spec, "{label} drifted through JSON");
        // And one control cycle end to end (specs are data: the horizon
        // cap is a field write).
        let mut brief = spec.clone();
        brief.timing.horizon_secs = brief.timing.control_period_secs;
        let report = brief.run().unwrap_or_else(|e| panic!("{label}: run: {e}"));
        assert!(report.cycles >= 1, "{label}: no control cycle ran");
    }
}

/// `scenarios/fleet-overload.json` is `fleet-churn` (the benchmark's
/// seed-3 dump) at three quarters of its CPU: the contended fleet shape,
/// where the equalizer's bisection runs. A few cycles of it must reach
/// the bisection, and the replay must serve its probes from fewer sums.
#[test]
fn fleet_overload_reaches_the_bisection() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/fleet-overload.json");
    let text = std::fs::read_to_string(&path).expect("scenarios/fleet-overload.json");
    let mut spec = ScenarioSpec::from_json(&text).expect("parse");
    spec.timing.horizon_secs = 8.0 * spec.timing.control_period_secs;
    spec.controller.observe = ObserveSpec::On;
    let scenario = spec.materialize().expect("materialize");
    let mut controller = scenario.controller();
    let mut sim = scenario.build().expect("build");
    let report = sim.run(controller.as_mut()).expect("run");
    let count = |name: &str| sim.recorder().counter_value(name);
    let (contended, probes, sums) = (
        count("equalize.contended"),
        count("equalize.probes"),
        count("equalize.sums"),
    );
    println!(
        "fleet-overload, {} cycles: {contended} contended, {probes} probes, {sums} sums",
        report.cycles
    );
    assert!(contended > 0, "no cycle reached the bisection");
    assert!(2 * sums <= probes, "{sums} sums for {probes} probes");
}

#[test]
fn spec_errors_name_their_section_for_file_authors() {
    // A file author who fat-fingers a field gets pointed at it.
    let mut spec = ScenarioSpec::preset("paper-small").unwrap();
    spec.timing.control_period_secs = -600.0;
    let e = spec.run().unwrap_err();
    assert!(e.to_string().contains("timing"), "{e}");

    let garbled = "{\"name\": \"x\", \"seed\": []}";
    let e = ScenarioSpec::from_json(garbled).unwrap_err();
    assert!(e.to_string().contains("scenario spec"), "{e}");
}
