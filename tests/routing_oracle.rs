//! The routing tier oracle.
//!
//! The route stage is a request count, one warmth table and the router:
//! `TransactionalRuntime::requests` folds λ(t) into one number,
//! `RoutingTier` keeps one id-sorted warmth vector per application,
//! synced with the live instances by one sorted merge and moved toward
//! the routed shares by zipping them through the EWMA. That is a pure
//! cost rewrite of the publisher → aggregator → router stage: every
//! count and every float must come out as the old stage formed it. The
//! old stage is kept verbatim in `naive_routing/mod.rs`; the sweep below
//! drives both through seeded worlds — instance sets that grow, shrink,
//! empty and swap one node at an equal count; uniform, affinity and
//! softmax configs with `warm_alpha` inside and outside (0, 1]; request
//! counts of 0, small and ≥ 10⁷ from hostile (λ, window) pairs — and
//! after every cycle compares, bit for bit, every `RouteOutcome`, the
//! request count, and every application's `affinity` snapshot. It prints
//! a tally of what it saw, holds it to floors, and ends on a mutation
//! the comparison must catch: a sync that keeps warmth by position
//! rather than by node id.

mod naive_routing;

use proptest::TestRng;
use slaq::perfmodel::TransactionalSpec;
use slaq::routing::{RouteOutcome, RouterConfig, RoutingTier};
use slaq::sim::TransactionalRuntime;
use slaq::types::{AppId, MemMb, NodeId, SimDuration, SimTime, Work};
use slaq::utility::ResponseTimeGoal;
use std::collections::BTreeMap;

/// Node ids an instance may sit on.
const NODE_SPAN: u32 = 12;
/// Application ids; the last is never routed, so its snapshot must stay
/// empty on both sides.
const APP_SPAN: u32 = 4;

fn runtime(app: AppId, lambda: f64) -> TransactionalRuntime {
    let spec = TransactionalSpec {
        name: format!("{app}"),
        service_per_request: Work::new(2000.0),
        rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).expect("valid goal"),
        mem_per_instance: MemMb::new(1024),
        max_instances: 8,
        min_instances: 1,
        u_cap: 0.9,
    };
    TransactionalRuntime::new(app, spec, Box::new(move |_| lambda), 0.3).expect("valid spec")
}

/// A router config: uniform, affinity (argmax) or softmax, with
/// `warm_alpha` inside (0, 1] or — a third of the time — outside it.
fn draw_config(rng: &mut TestRng) -> (&'static str, RouterConfig) {
    let kind = ["config: uniform", "config: affinity", "config: softmax"][rng.below(3) as usize];
    let warm_alpha = if rng.below(3) == 0 {
        [0.0, -0.4, 1.5, f64::NAN, f64::INFINITY][rng.below(5) as usize]
    } else {
        [1.0, 0.05 + 0.9 * rng.unit_f64()][rng.below(2) as usize]
    };
    let cfg = RouterConfig {
        temperature: if kind == "config: softmax" {
            0.05 + 2.0 * rng.unit_f64()
        } else {
            0.0
        },
        warm_gain: [0.0, 0.5, 0.9, rng.unit_f64()][rng.below(4) as usize],
        warm_alpha,
        load_penalty: [0.0, 0.4, 1.0, 3.0 * rng.unit_f64()][rng.below(4) as usize],
        chunks: [1, 5, 128, 1 + rng.below(300) as u32][rng.below(4) as usize],
        seed: rng.next_u64(),
        uniform: kind == "config: uniform",
    };
    (kind, cfg)
}

/// A hostile-or-ordinary (λ, window) pair: each side is NaN, ±∞, 0 or
/// negative now and then, else a rate that makes a small count or one
/// of ≥ 10⁷ over an ordinary window.
fn draw_load(rng: &mut TestRng) -> (f64, SimDuration) {
    let hostile = |rng: &mut TestRng| {
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -7.5][rng.below(5) as usize]
    };
    let lambda = match rng.below(10) {
        0 | 1 => hostile(rng),
        2..=5 => 0.5 * rng.unit_f64(),
        _ => 1e5 + 1e6 * rng.unit_f64(),
    };
    let window = if rng.below(5) == 0 {
        hostile(rng)
    } else {
        [1.0, 100.0, 600.0, 3600.0][rng.below(4) as usize] * (0.5 + rng.unit_f64())
    };
    (lambda, SimDuration(window))
}

/// Next cycle's instance set of one application, id-sorted: kept,
/// grown, shrunk, emptied, one node swapped at an equal count, or drawn
/// afresh.
fn step_instances(rng: &mut TestRng, nodes: &mut Vec<u32>) -> &'static str {
    let absent = |nodes: &[u32], rng: &mut TestRng| loop {
        let n = rng.below(NODE_SPAN as u64) as u32;
        if !nodes.contains(&n) {
            return n;
        }
    };
    let what = match rng.below(8) {
        0 | 1 => "kept",
        2 if nodes.len() < 6 => {
            for _ in 0..1 + rng.below(2) {
                let n = absent(nodes, rng);
                nodes.push(n);
            }
            "grew"
        }
        3 if !nodes.is_empty() => {
            for _ in 0..1 + rng.below(2) {
                if !nodes.is_empty() {
                    nodes.remove(rng.below(nodes.len() as u64) as usize);
                }
            }
            "shrank"
        }
        4 if !nodes.is_empty() => {
            nodes.clear();
            "emptied"
        }
        5 | 6 if !nodes.is_empty() => {
            let gone = rng.below(nodes.len() as u64) as usize;
            let n = absent(nodes, rng);
            nodes[gone] = n;
            "swapped at an equal count"
        }
        _ => {
            nodes.clear();
            for _ in 0..rng.below(6) {
                let n = absent(nodes, rng);
                nodes.push(n);
            }
            "drawn afresh"
        }
    };
    nodes.sort_unstable();
    what
}

/// Every float by its bits: `PartialEq` would let -0.0 pass for 0.0.
fn outcome_bits(o: &RouteOutcome) -> (Vec<(NodeId, u64)>, u64, u64) {
    let shares = o.shares.iter().map(|&(n, s)| (n, s.to_bits())).collect();
    (shares, o.warm_hit.to_bits(), o.discount.to_bits())
}

fn affinity_bits(aff: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    aff.iter().map(|&(n, w)| (n, w.to_bits())).collect()
}

#[test]
fn warmth_table_equals_the_aggregator_route_stage() {
    const WORLDS: u64 = 2000;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let (mut caught, mut cycles_run) = (0usize, 0usize);
    for seed in 0..WORLDS {
        let rng = &mut TestRng::new(seed);
        let (kind, cfg) = draw_config(rng);
        let mut shipped = RoutingTier::new(cfg);
        let mut naive = naive_routing::RoutingTier::new(cfg, false);
        let mut mutant = naive_routing::RoutingTier::new(cfg, true);
        let routed_apps = 1 + rng.below(APP_SPAN as u64 - 1) as u32;
        let mut sets: Vec<Vec<u32>> = (0..routed_apps).map(|_| Vec::new()).collect();
        let mut seen: Vec<&'static str> = vec![kind];
        let alpha_inside = cfg.warm_alpha > 0.0 && cfg.warm_alpha <= 1.0;
        seen.push(if alpha_inside {
            "alpha inside (0, 1]"
        } else {
            "alpha outside (0, 1]"
        });
        let mut mutant_diverged = false;
        for cycle in 0..4 + rng.below(7) {
            cycles_run += 1;
            let at = SimTime::from_secs(cycle as f64 * 600.0);
            for (a, nodes) in sets.iter_mut().enumerate() {
                let app = AppId::new(a as u32);
                let step = step_instances(rng, nodes);
                seen.push(step);
                let instances: Vec<(NodeId, f64)> = nodes
                    .iter()
                    .map(|&n| {
                        let cpu = [0.0, 1000.0, 3000.0 * rng.unit_f64()][rng.below(3) as usize];
                        (NodeId::new(n), cpu)
                    })
                    .collect();

                let (lambda, window) = draw_load(rng);
                let requests = runtime(app, lambda).requests(at, window);
                let want = naive_routing::RequestBatch::from_rate(lambda, window).count;
                assert_eq!(
                    requests, want,
                    "seed {seed} cycle {cycle}: count of λ {lambda} over {window:?}"
                );
                for v in [lambda, window.as_secs()] {
                    seen.push(match v {
                        v if v.is_nan() => "count: NaN",
                        v if v.is_infinite() => "count: ±∞",
                        0.0 => "count: 0",
                        v if v < 0.0 => "count: negative",
                        _ => continue,
                    });
                }
                seen.push(match requests {
                    0 => "requests 0",
                    r if r < 10_000_000 => "requests small",
                    _ => "requests ≥ 10⁷",
                });

                let got = shipped.route_app(app, requests, &instances);
                let old = naive.route_app(app, requests, &instances);
                assert_eq!(
                    outcome_bits(&got),
                    outcome_bits(&old),
                    "seed {seed} cycle {cycle} {app}: outcome ({step})"
                );
                let bent = mutant.route_app(app, requests, &instances);
                mutant_diverged |= outcome_bits(&bent) != outcome_bits(&old);
            }
            for a in 0..APP_SPAN {
                let app = AppId::new(a);
                let want = affinity_bits(&naive.affinity(app));
                assert_eq!(
                    affinity_bits(&shipped.affinity(app)),
                    want,
                    "seed {seed} cycle {cycle} {app}: affinity"
                );
                mutant_diverged |= affinity_bits(&mutant.affinity(app)) != want;
            }
        }
        seen.sort_unstable();
        seen.dedup();
        for what in seen {
            *tally.entry(what).or_default() += 1;
        }
        caught += usize::from(mutant_diverged);
    }
    println!(
        "warmth table ≡ aggregator route stage over {WORLDS} worlds, {cycles_run} cycles: {tally:?}"
    );
    for (what, worlds) in &tally {
        assert!(*worlds >= 100, "{what}: {tally:?}");
    }
    assert_eq!(tally.len(), 18, "{tally:?}");
    // The mutation check: a sync that keeps warmth by position hands a
    // swapped-in node the warmth of the one it replaced.
    println!("sync by position instead of node id: caught in {caught} worlds");
    assert!(caught >= 500, "{caught}");
}
