//! Tests of the benchmark itself: `BENCHMARK.json` mirrors the tables
//! in `metrics.rs` and `workloads.rs`, and the counting allocator
//! repeats exactly.

use crate::bench::run_round;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::Kind;
use crate::workloads::{find, WORKLOADS};
use crate::{alloc, DEFAULT_SECONDS};
use slaq::core::ScenarioSpec;

/// `BENCHMARK.json` as the tables define it.
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"fleetbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"fleetbench\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// `FLEETBENCH_BLESS=1 cargo test` rewrites the file from the tables.
#[test]
fn benchmark_json_mirrors_the_tables() {
    let _serial = alloc::serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let expected = benchmark_json();
    if std::env::var_os("FLEETBENCH_BLESS").is_some() {
        std::fs::write(path, &expected).expect("BENCHMARK.json is writable");
    }
    let found = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    assert_eq!(found, expected, "BENCHMARK.json and the tables disagree");
}

#[test]
fn the_tables_fit_the_contract() {
    let _serial = alloc::serial();
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        names.push(w.name);
    }
    for m in &END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        names.push(m.name);
    }
    for m in &PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(["lower", "higher"].contains(&m.better), "{}", m.name);
        names.push(m.name);
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
}

/// Two counted rounds of the same spec in one process: the same
/// allocation count and bytes on every control cycle, the same heap
/// high-water mark, the same results.
#[test]
fn allocation_counts_repeat_exactly() {
    let _serial = alloc::serial();
    let corpus = find("paper-corpus").expect("a workload");
    let text = ScenarioSpec::preset("paper-small")
        .expect("a preset")
        .to_json()
        .expect("presets serialize");
    let texts = [text];
    let a = run_round(corpus, &texts, 1.0, Kind::Counted).expect("runs");
    let b = run_round(corpus, &texts, 1.0, Kind::Counted).expect("runs");
    assert!(a.peak_heap > 0);
    assert_eq!(a.peak_heap, b.peak_heap);
    assert_eq!(a.exact(), b.exact());
    let counts = |round: &crate::bench::Round| -> Vec<_> {
        round.runs[0]
            .calls
            .iter()
            .map(|c| (c.allocs, c.decide_allocs))
            .collect()
    };
    assert!(counts(&a).iter().all(|(cycle, _)| cycle.count > 0));
    assert_eq!(counts(&a), counts(&b));
    // Off, nothing is counted.
    let plain = run_round(corpus, &texts, 1.0, crate::bench::plain(corpus)).expect("runs");
    assert_eq!(plain.peak_heap, 0);
    assert!(counts(&plain).iter().all(|(cycle, _)| cycle.count == 0));
    assert_eq!(plain.exact(), a.exact());
}
