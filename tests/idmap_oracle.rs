//! The plan container's oracle.
//!
//! A `Placement` keeps its two maps as `IdMap`s: one vector of
//! `(key, value)` pairs with strictly ascending keys, in place of the
//! `BTreeMap`s it had. Every plan the system makes, prints, writes and
//! diffs hangs on the two behaving alike, so the sweep below runs seeded
//! operation sequences on an `IdMap` and a `std::collections::BTreeMap`
//! side by side over a key range small enough to collide: inserts (past
//! the end, in the middle, replacing), removals (present and absent),
//! `retain` (which also writes the values it visits), `entry` slots,
//! `get_mut` writes, `append` (overlapping, disjoint, empty) and a
//! `collect` from shuffled input with repeated keys, read from the pairs
//! and from a JSON object with the same repeats. After every step it
//! compares every return value, the contents both ways, every lookup, the
//! `Debug` text and the serde JSON text. It prints a tally held to
//! floors and must catch two mutations: a collect that keeps the first
//! of a repeated key, and an `append` where the receiving map's value
//! wins. A last test takes whole plans through serde against the same
//! plan spelled with `BTreeMap`s.

use proptest::TestRng;
use serde::Serialize;
use slaq::placement::{IdMap, Placement};
use slaq::types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::BTreeMap;

/// Keys are drawn below this: small, so keys collide.
const KEY_SPAN: u64 = 24;
/// Seeded operation sequences per sweep.
const SEQUENCES: u64 = 5_000;
/// Steps per sequence.
const STEPS: usize = 40;

/// A behaviour the sweep must tell apart from `BTreeMap`'s.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    /// `collect` keeps the first value of a repeated key.
    CollectKeepsFirst,
    /// `append` keeps the receiving map's value on a shared key.
    AppendSelfWins,
}

type Tally = BTreeMap<&'static str, usize>;

/// `pairs` collected into an `IdMap`, as the shipped code does or as
/// `mutation` would.
fn collect(pairs: &[(u32, u64)], mutation: Option<Mutation>) -> IdMap<u32, u64> {
    if mutation == Some(Mutation::CollectKeepsFirst) {
        let mut seen = Vec::new();
        let firsts = pairs.iter().filter(|(k, _)| {
            let first = !seen.contains(k);
            seen.push(*k);
            first
        });
        return firsts.copied().collect();
    }
    pairs.iter().copied().collect()
}

/// `other` appended to `map`, as the shipped code does or as `mutation`
/// would.
fn append(map: &mut IdMap<u32, u64>, other: &mut IdMap<u32, u64>, mutation: Option<Mutation>) {
    if mutation == Some(Mutation::AppendSelfWins) {
        other.retain(|k, _| !map.contains_key(k));
    }
    map.append(other);
}

/// Every observable of the two maps agrees: contents both ways, length,
/// every lookup in the key range, `Debug` and serde JSON text, and a
/// clone compares equal.
fn same(map: &IdMap<u32, u64>, tree: &BTreeMap<u32, u64>) -> Result<(), String> {
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{what}: {map:?} vs {tree:?}"))
        }
    };
    check(map.iter().eq(tree.iter()), "contents")?;
    check(
        map.iter().rev().eq(tree.iter().rev()),
        "contents, backwards",
    )?;
    check(map.keys().eq(tree.keys()), "keys")?;
    check(map.values().eq(tree.values()), "values")?;
    check(map.len() == tree.len(), "len")?;
    check(map.is_empty() == tree.is_empty(), "is_empty")?;
    for k in 0..KEY_SPAN as u32 {
        check(map.get(&k) == tree.get(&k), "get")?;
        check(
            map.contains_key(&k) == tree.contains_key(&k),
            "contains_key",
        )?;
        if let Some(v) = tree.get(&k) {
            check(map[&k] == *v, "index")?;
        }
    }
    check(format!("{map:?}") == format!("{tree:?}"), "Debug text")?;
    let (json, tree_json) = (serde_json::to_string(map), serde_json::to_string(tree));
    check(json.unwrap() == tree_json.unwrap(), "JSON text")?;
    check(map.clone() == *map, "clone")
}

/// Shuffled pairs over the key range; every key drawn at most a few
/// times, so a repeat is common but not certain. Values are fresh.
fn draw_pairs(rng: &mut TestRng, fresh: &mut u64) -> Vec<(u32, u64)> {
    let len = rng.below(12) as usize;
    let mut pairs: Vec<(u32, u64)> = (0..len)
        .map(|_| {
            *fresh += 1;
            (rng.below(KEY_SPAN) as u32, *fresh)
        })
        .collect();
    if rng.below(4) == 0 {
        // Now and then already ascending: the path that takes the input
        // as it is.
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
    }
    pairs
}

/// One sweep: `SEQUENCES` sequences of `STEPS` steps. Returns the tally,
/// or the first disagreement.
fn sweep(mutation: Option<Mutation>) -> Result<Tally, String> {
    let mut tally = Tally::new();
    for seed in 0..SEQUENCES {
        let rng = &mut TestRng::new(seed);
        let mut fresh = 0u64;
        let mut map: IdMap<u32, u64> = IdMap::default();
        let mut tree: BTreeMap<u32, u64> = BTreeMap::new();
        for step in 0..STEPS {
            let at = |what: &str| format!("seed {seed}, step {step}, {what}");
            let mut saw = |what: &'static str| *tally.entry(what).or_default() += 1;
            let key = rng.below(KEY_SPAN) as u32;
            fresh += 1;
            match rng.below(10) {
                0..=2 => {
                    let last = tree.keys().next_back().copied();
                    match (tree.contains_key(&key), last) {
                        (true, Some(l)) if l == key => saw("insert replacing, at the end"),
                        (true, _) => saw("insert replacing, in the middle"),
                        (false, Some(l)) if l > key => saw("insert new, in the middle"),
                        (false, _) => saw("insert new, past the end"),
                    }
                    if map.insert(key, fresh) != tree.insert(key, fresh) {
                        return Err(at("insert's return"));
                    }
                }
                3 => {
                    if !tree.contains_key(&key) {
                        saw("remove of an absent key");
                    }
                    if map.remove(&key) != tree.remove(&key) {
                        return Err(at("remove's return"));
                    }
                }
                4 => {
                    // Visit order and the writes are compared too.
                    let salt = rng.below(3) as u32;
                    let keep = |k: &u32, v: &mut u64, seen: &mut Vec<u32>| {
                        seen.push(*k);
                        *v += 1;
                        !(k + salt).is_multiple_of(3)
                    };
                    let (mut seen, mut tree_seen) = (Vec::new(), Vec::new());
                    map.retain(|k, v| keep(k, v, &mut seen));
                    tree.retain(|k, v| keep(k, v, &mut tree_seen));
                    saw("retain");
                    if seen != tree_seen {
                        return Err(at("retain's visits"));
                    }
                }
                5 => {
                    saw(if tree.contains_key(&key) {
                        "entry, occupied"
                    } else {
                        "entry, vacant"
                    });
                    let slot = map.entry(key).or_default();
                    *slot += fresh;
                    let got = *slot;
                    let tree_slot = tree.entry(key).or_default();
                    *tree_slot += fresh;
                    if got != *tree_slot {
                        return Err(at("entry's slot"));
                    }
                }
                6 => {
                    let (got, want) = (map.get_mut(&key), tree.get_mut(&key));
                    if got.is_some() != want.is_some() {
                        return Err(at("get_mut"));
                    }
                    if let (Some(got), Some(want)) = (got, want) {
                        saw("get_mut write");
                        *got = fresh;
                        *want = fresh;
                    }
                }
                7 | 8 => {
                    let mut pairs = draw_pairs(rng, &mut fresh);
                    match rng.below(3) {
                        0 => pairs.clear(),
                        1 => {
                            // Disjoint: keys the map does not hold,
                            // sometimes all past its last one.
                            let floor = if rng.below(2) == 0 {
                                tree.keys().next_back().map_or(0, |&l| l + 1)
                            } else {
                                0
                            };
                            pairs.retain(|(k, _)| *k >= floor && !tree.contains_key(k));
                        }
                        _ => {}
                    }
                    let shared = pairs.iter().any(|(k, _)| tree.contains_key(k));
                    saw(match (pairs.is_empty(), shared) {
                        (true, _) => "append, empty",
                        (false, true) => "append, overlapping",
                        (false, false) => "append, disjoint",
                    });
                    let mut other = collect(&pairs, None);
                    let mut tree_other: BTreeMap<u32, u64> = pairs.iter().copied().collect();
                    append(&mut map, &mut other, mutation);
                    tree.append(&mut tree_other);
                    if !other.is_empty() || !tree_other.is_empty() {
                        return Err(at("append left the other map non-empty"));
                    }
                }
                _ => {
                    let pairs = draw_pairs(rng, &mut fresh);
                    let mut keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    if keys.len() < pairs.len() {
                        saw("collect with a repeated key");
                    } else if pairs.windows(2).all(|w| w[0].0 < w[1].0) {
                        saw("collect, already ascending");
                    }
                    map = collect(&pairs, mutation);
                    tree = pairs.iter().copied().collect();
                    // The same pairs as a JSON object, repeats and all.
                    let fields: Vec<String> =
                        pairs.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                    let text = format!("{{{}}}", fields.join(", "));
                    let parsed: IdMap<u32, u64> = serde_json::from_str(&text).unwrap();
                    let tree_parsed: BTreeMap<u32, u64> = serde_json::from_str(&text).unwrap();
                    same(&parsed, &tree_parsed).map_err(|e| at(&format!("JSON input: {e}")))?;
                }
            }
            same(&map, &tree).map_err(|e| at(&e))?;
            if rng.below(50) == 0 {
                map.clear();
                tree.clear();
                same(&map, &tree).map_err(|e| at(&format!("clear: {e}")))?;
            }
        }
    }
    Ok(tally)
}

#[test]
fn idmap_behaves_as_btreemap_step_for_step() {
    let tally = sweep(None).unwrap_or_else(|e| panic!("{e}"));
    println!("IdMap ≡ BTreeMap over {SEQUENCES} sequences of {STEPS} steps: {tally:#?}");
    for (what, seen) in &tally {
        assert!(*seen >= 200, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 14, "{tally:?}");
}

#[test]
fn the_sweep_catches_both_mutations() {
    for mutation in [Mutation::CollectKeepsFirst, Mutation::AppendSelfWins] {
        let caught = sweep(Some(mutation)).expect_err("a mutation went unnoticed");
        println!("{mutation:?}: caught at {caught}");
    }
}

/// A plan spelled with the maps it had before.
#[derive(Serialize)]
struct TreePlan {
    apps: BTreeMap<AppId, BTreeMap<NodeId, CpuMhz>>,
    jobs: BTreeMap<JobId, (NodeId, CpuMhz)>,
}

#[test]
fn plans_write_and_read_as_the_tree_form() {
    let mut tally = Tally::new();
    for seed in 0..1_000 {
        let rng = &mut TestRng::new(seed);
        let cpu = |rng: &mut TestRng| CpuMhz::new((rng.unit_f64() * 3000.0 * 8.0).round() / 8.0);
        let mut plan = Placement::empty();
        let mut tree = TreePlan {
            apps: BTreeMap::new(),
            jobs: BTreeMap::new(),
        };
        // Inserted in random order, applications sometimes with no
        // instance at all.
        for _ in 0..rng.below(6) {
            let app = AppId::new(rng.below(8) as u32);
            let slices = plan.apps.entry(app).or_default();
            let tree_slices = tree.apps.entry(app).or_default();
            for _ in 0..rng.below(4) {
                let (node, c) = (NodeId::new(rng.below(16) as u32), cpu(rng));
                slices.insert(node, c);
                tree_slices.insert(node, c);
            }
        }
        for _ in 0..rng.below(20) {
            let job = JobId::new(rng.below(40) as u32);
            let at = (NodeId::new(rng.below(16) as u32), cpu(rng));
            plan.jobs.insert(job, at);
            tree.jobs.insert(job, at);
        }

        let text = serde_json::to_string(&plan).unwrap();
        assert_eq!(text, serde_json::to_string(&tree).unwrap(), "seed {seed}");
        assert_eq!(format!("{:?}", plan.apps), format!("{:?}", tree.apps));
        assert_eq!(format!("{:?}", plan.jobs), format!("{:?}", tree.jobs));
        let back: Placement = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan, "seed {seed}");
        let empty_app = plan.apps.values().any(|s| s.is_empty());
        assert_eq!(back.apps.values().any(|s| s.is_empty()), empty_app);
        *tally.entry("plans").or_default() += 1;
        *tally
            .entry("with an application and no instance")
            .or_default() += usize::from(empty_app);
    }
    println!("plans written and read as the tree form: {tally:?}");
    assert!(
        tally["with an application and no instance"] >= 200,
        "{tally:?}"
    );
}
