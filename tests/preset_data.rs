//! The built-in presets are spec files.
//!
//! Each preset is `crates/core/presets/<name>.json`, embedded in the
//! library and parsed by `ScenarioSpec::preset`. They used to be Rust
//! builders; the builders are kept verbatim in `naive_presets/mod.rs`.
//! For every preset, the shipped spec must equal its builder's, and the
//! file must hold exactly the builder's `to_json` text plus the newline
//! `run_scenario --dump` prints after it, so a file is regenerated with
//! `run_scenario --dump <name> > crates/core/presets/<name>.json`.
//!
//! The names have one source: the library's table. It must list the
//! builders' names in their order, and exactly the files in the
//! directory, and every file's `name` must be its key. The mutation the
//! oracle must catch is one edited number in one file: every number of
//! every file is edited in turn, and each edit must make the file's spec
//! differ from its builder's.

mod naive_presets;

use slaq::core::ScenarioSpec;
use std::path::PathBuf;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/core/presets")
}

fn file_text(name: &str) -> String {
    let path = dir().join(format!("{name}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn builder(name: &str) -> ScenarioSpec {
    naive_presets::preset(name).unwrap_or_else(|| panic!("no builder for {name}"))
}

/// The byte ranges of the number tokens in JSON text (none of the
/// presets holds a number inside a string).
fn numbers(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() || (bytes[i] == b'-' && bytes[i + 1].is_ascii_digit()) {
            let start = i;
            i += 1;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
    out
}

#[test]
fn every_preset_file_is_its_builders_spec() {
    // presets, bytes compared, lines compared
    let mut tally = [0usize; 3];
    for &name in naive_presets::preset_names() {
        let want = builder(name);
        let got = ScenarioSpec::preset(name).expect("a shipped preset");
        assert_eq!(got, want, "{name}: parsed file against the builder");
        let text = file_text(name);
        let dumped = format!("{}\n", want.to_json().expect("specs serialize"));
        assert_eq!(
            text, dumped,
            "{name}: file bytes against the builder's dump"
        );
        tally[0] += 1;
        tally[1] += text.len();
        tally[2] += text.lines().count();
    }
    println!(
        "preset data: {} presets equal their builders, {} bytes and {} lines identical",
        tally[0], tally[1], tally[2]
    );
    let floors = [12, 28_000, 1_400];
    for (seen, floor) in tally.iter().zip(floors) {
        assert!(*seen >= floor, "{tally:?} under {floors:?}");
    }
}

#[test]
fn the_table_names_every_file_once_by_its_own_name() {
    let names = ScenarioSpec::preset_names();
    assert_eq!(names, naive_presets::preset_names(), "order and spelling");

    let files: Vec<String> = std::fs::read_dir(dir())
        .expect("the presets directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    // Every file reachable by its key, and no more keys than files.
    assert_eq!(files.len(), names.len(), "{files:?} against {names:?}");
    for stem in &files {
        let spec =
            ScenarioSpec::preset(stem).unwrap_or_else(|| panic!("{stem}.json is not in the table"));
        assert_eq!(&spec.name, stem, "a file's name is its key");
    }
}

#[test]
fn an_edited_number_in_any_file_is_caught() {
    let mut edited_numbers = 0usize;
    for &name in ScenarioSpec::preset_names() {
        let want = builder(name);
        let text = file_text(name);
        for (start, end) in numbers(&text) {
            // Bump the last digit: the value always changes and the
            // text stays a number of the same shape.
            let last = text.as_bytes()[end - 1];
            let bumped = if last == b'9' {
                '0'
            } else {
                (last + 1) as char
            };
            let edited = format!("{}{bumped}{}", &text[..end - 1], &text[end..]);
            let caught = ScenarioSpec::from_json(&edited).map_or(true, |spec| spec != want);
            assert!(caught, "{name}: `{}` edited went unseen", &text[start..end]);
            edited_numbers += 1;
        }
    }
    println!("preset data: {edited_numbers} numbers edited one at a time, every edit caught");
    assert!(edited_numbers >= 300, "{edited_numbers}");
}
