//! Spec totality: no JSON a file can carry may panic the program.
//!
//! A scenario spec is outside input, so every path from spec text to a
//! finished run must end in a report or a `SlaqError` — never a panic.
//! The sweep takes each corpus preset as a value tree and, for every
//! node of it (leaves and containers alike), substitutes each of a fixed
//! set of hostile values; each mutant goes `from_value` → `validate` →
//! `cap_to_cycles(2)` → `run` under `catch_unwind`. NaN is left out: JSON
//! text cannot carry it.

use serde::{Deserialize, Serialize, Value};
use slaq::core::spec::ScenarioSpec;
use slaq::types::SimTime;
use slaq::workloads::RateSchedule;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run `f`, turning a panic into its message.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

fn substitutes() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(-1),
        Value::Int(i64::MAX as i128),
        Value::Float(0.0),
        Value::Float(-1.0),
        Value::Float(1e308),
        Value::Float(1e-308),
        Value::Float(f64::INFINITY),
        Value::Str(String::new()),
        Value::Arr(Vec::new()),
        Value::Obj(Vec::new()),
        Value::Bool(true),
    ]
}

/// Every node of the tree, as the child indices leading to it.
fn paths(v: &Value, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(here.clone());
    let children: Vec<&Value> = match v {
        Value::Arr(items) => items.iter().collect(),
        Value::Obj(fields) => fields.iter().map(|(_, child)| child).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        paths(child, here, out);
        here.pop();
    }
}

fn node_mut<'a>(root: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(root, |v, &i| match v {
        Value::Arr(items) => &mut items[i],
        Value::Obj(fields) => &mut fields[i].1,
        _ => unreachable!("path leads through a leaf"),
    })
}

#[derive(Default, Debug)]
struct Tally {
    refused_at_parse: usize,
    refused_by_validate: usize,
    refused_by_run: usize,
    ran: usize,
}

/// One mutant through the whole pipeline.
fn drive(v: &Value, tally: &mut Tally) {
    let Ok(mut spec) = ScenarioSpec::from_value(v) else {
        tally.refused_at_parse += 1;
        return;
    };
    if spec.validate().is_err() {
        tally.refused_by_validate += 1;
        return;
    }
    spec.timing.cap_to_cycles(2);
    match spec.run() {
        Ok(_) => tally.ran += 1,
        Err(_) => tally.refused_by_run += 1,
    }
}

#[test]
fn no_spec_a_file_can_carry_panics() {
    let subs = substitutes();
    let mut tally = Tally::default();
    let mut total = 0usize;
    let mut panics: Vec<String> = Vec::new();
    for name in ScenarioSpec::preset_names() {
        let base = ScenarioSpec::preset(name).expect("named preset").to_value();
        let mut all = Vec::new();
        paths(&base, &mut Vec::new(), &mut all);
        for path in &all {
            for sub in &subs {
                let mut mutant = base.clone();
                *node_mut(&mut mutant, path) = sub.clone();
                total += 1;
                if let Err(msg) = caught(|| drive(&mutant, &mut tally)) {
                    panics.push(format!("{name} at {path:?} <- {sub:?}: {msg}"));
                }
            }
        }
    }
    println!(
        "spec totality: {total} specs, {tally:?}, {} panics",
        panics.len()
    );
    assert!(panics.is_empty(), "{}", panics.join("\n"));
    // Not all refusals: a good share of the mutants must reach a report.
    assert!(total >= 12_000, "the sweep shrank: {total} specs");
    assert!(tally.ran >= 1_500, "too few mutants ran: {tally:?}");
    assert!(tally.refused_by_validate >= 1_000, "{tally:?}");
}

/// A partition the engine no longer has is refused at parse, not run:
/// `{"Count": {"count": 3}}` in place of a pinned file's `"Zones"` is an
/// `Err` from `from_json`, while the files as written still parse and
/// run.
#[test]
fn a_shard_count_is_refused_at_parse() {
    for file in ["zoned-fleet.json", "chaos-flash-crowd.json"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(file);
        let text = std::fs::read_to_string(&path).expect("pinned scenario file");
        let mut spec = ScenarioSpec::from_json(&text).expect("the file as written parses");
        spec.timing.cap_to_cycles(2);
        spec.run().expect("and runs");
        let counted = text.replacen(
            "\"shards\": \"Zones\"",
            "\"shards\": {\"Count\": {\"count\": 3}}",
            1,
        );
        assert_ne!(counted, text, "{file}: no shards key to rewrite");
        let parsed = caught(|| ScenarioSpec::from_json(&counted)).expect("no panic");
        assert!(parsed.is_err(), "{file}: a shard count must not parse");
    }
}

/// One step down the tree: an object key, or an array index.
fn child<'a>(v: &'a mut Value, step: &str) -> &'a mut Value {
    match v {
        Value::Obj(fields) => {
            let found = fields.iter_mut().find(|(k, _)| k == step);
            &mut found.unwrap_or_else(|| panic!("no key {step}")).1
        }
        Value::Arr(items) => &mut items[step.parse::<usize>().expect("an index")],
        _ => panic!("{step}: a leaf"),
    }
}

/// An infinite job-template number is refused by `validate`, naming the
/// stream: an infinite `work` or `exhausted_factor` used to empty the
/// stream and an infinite `max_speed` to distort it, all without an
/// error.
#[test]
fn an_infinite_template_number_is_refused() {
    let base = ScenarioSpec::preset("paper-small")
        .expect("named preset")
        .to_value();
    for key in ["work", "max_speed", "exhausted_factor"] {
        let mut mutant = base.clone();
        let path = ["job_streams", "0", "mix", "classes", "0", "template", key];
        *path.iter().fold(&mut mutant, |v, step| child(v, step)) = Value::Float(f64::INFINITY);
        let spec = ScenarioSpec::from_value(&mutant).expect("an infinite float parses");
        let err = spec.validate().expect_err("an infinite template number");
        assert!(err.to_string().contains("job_streams[0]"), "{key}: {err}");
    }
}

/// A class importance the equalizer and the solver cannot use — zero,
/// negative or infinite — is refused by `validate`, naming the stream:
/// it rides on every job of the class into both.
#[test]
fn a_hostile_importance_is_refused() {
    let base = ScenarioSpec::preset("differentiation-mix")
        .expect("named preset")
        .to_value();
    for bad in [0.0, -3.0, f64::INFINITY] {
        let mut mutant = base.clone();
        let path = ["job_streams", "0", "mix", "classes", "0", "importance"];
        *path.iter().fold(&mut mutant, |v, step| child(v, step)) = Value::Float(bad);
        let spec = ScenarioSpec::from_value(&mutant).expect("a float parses");
        let err = spec.validate().expect_err("an unusable importance");
        assert!(err.to_string().contains("job_streams[0]"), "{bad}: {err}");
        let refused = caught(|| spec.run()).expect("no panic");
        assert!(refused.is_err(), "{bad}: ran");
    }
}

/// The harness sees a panic when there is one: `mean_at` on a
/// deserialized empty schedule indexes segment 0 (a schedule no validated
/// spec can hold any more, reached here directly).
#[test]
fn the_harness_reports_a_panic() {
    let empty = Value::Obj(vec![("segments".into(), Value::Arr(Vec::new()))]);
    let schedule = RateSchedule::from_value(&empty).expect("parses: the field is a plain vector");
    let msg = caught(|| schedule.mean_at(SimTime::ZERO)).expect_err("indexing an empty vector");
    assert!(msg.contains("index out of bounds"), "{msg}");
}
