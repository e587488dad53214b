//! Solver bench gate: measure the warm-solve hot paths (global, sharded,
//! instrumented) and the routing tier at fixed synthetic shapes, print
//! the medians beside a tracked baseline file, and fail CI on what a
//! shared box can hold. End-to-end cycle latency is not measured here:
//! its one home is `fleetbench` (`paper-corpus` `cycle_us_p50` /
//! `decide_us_p50`, `obs.trace_overhead_ratio`).
//!
//! ```text
//! # measure and print
//! cargo run --release -p slaq-experiments --bin bench_gate
//!
//! # (re)write the tracked baseline
//! cargo run --release -p slaq-experiments --bin bench_gate -- --update BENCH_baseline.json
//!
//! # CI: fail on a broken same-run ratio or a series past the hard cap
//! cargo run --release -p slaq-experiments --bin bench_gate -- --check BENCH_baseline.json
//! ```
//!
//! `--check` judges two things: the same-run, hardware-independent
//! ratio of the instrumented solve to its obs-off twin (see
//! [`relative_invariants_hold`]) and [`HARD_CAP`], the raw bound of each
//! series' median against the file. The medians themselves are printed
//! beside their baseline and not judged: the file was recorded on
//! whatever box last ran `--update`, and a shared runner's speed moves
//! them more than a regression would. The routing series is held by the
//! hard cap alone: a ratio against the warm solve fails whenever the
//! solver gets faster, so it would gate the solver, not routing.

use serde::{Deserialize, Serialize};
use slaq_experiments::sweeps::synthetic_problem;
use slaq_placement::{Placement, PlacementProblem, ShardedSolver, Solver};
use slaq_types::ZoneId;
use std::time::Instant;

/// No series' median may exceed its baseline by this factor, whatever
/// box the baseline was recorded on.
const HARD_CAP: f64 = 3.0;

/// One measured series.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEntry {
    /// Series name (shape + engine).
    name: String,
    /// Median wall time of one warm solve, microseconds.
    micros: f64,
}

/// The tracked baseline file's schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchBaseline {
    /// All gated series.
    entries: Vec<BenchEntry>,
}

/// Prepare the steady-state re-solve inputs for a shape: the cold
/// solution with every job marked running becomes the previous placement.
fn warm_inputs(nodes: u32, jobs: u32) -> (PlacementProblem, Placement) {
    let problem = synthetic_problem(nodes, jobs, 1);
    let cold = slaq_placement::solve(&problem, &Placement::empty());
    let mut warm = problem;
    for j in &mut warm.jobs {
        j.running_on = cold.placement.job_node(j.id);
    }
    (warm, cold.placement)
}

/// Median wall time (µs) of `solve` after `warmup` priming calls.
fn measure(mut solve: impl FnMut() -> usize, warmup: usize, samples: usize) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(solve());
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(solve());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn run_benches() -> Vec<BenchEntry> {
    let shapes: &[(u32, u32)] = &[(100, 600), (500, 3000), (1000, 6000)];
    let mut entries = Vec::new();
    for &(nodes, jobs) in shapes {
        let (warm, prev) = warm_inputs(nodes, jobs);
        let mut global = Solver::new();
        global.solve(&warm, &prev);
        let micros = measure(|| global.solve(&warm, &prev).placement.jobs.len(), 3, 30);
        entries.push(BenchEntry {
            name: format!("warm_global_{nodes}n_{jobs}j"),
            micros,
        });
        // Eight contiguous, size-balanced zones over node ids `0..nodes`:
        // node `i` is in zone `s` for `s·n/8 ≤ i < (s+1)·n/8`.
        let zones: Vec<ZoneId> = (0..8u32)
            .flat_map(|s| {
                let width = (s + 1) * nodes / 8 - s * nodes / 8;
                std::iter::repeat_n(ZoneId::new(s), width as usize)
            })
            .collect();
        let mut sharded = ShardedSolver::new(zones, 16);
        sharded.solve(&warm, &prev);
        let micros = measure(|| sharded.solve(&warm, &prev).placement.jobs.len(), 3, 30);
        entries.push(BenchEntry {
            name: format!("warm_sharded8_{nodes}n_{jobs}j"),
            micros,
        });
    }
    // The 10× scale point, global engine only: eight sequential lanes
    // just multiply the merge cost, so sharding earns no series at this
    // shape. Fewer samples keep the gate's runtime sane;
    // medians stay stable because one solve is long enough to average
    // out scheduler noise on its own.
    {
        let (nodes, jobs) = (10_000u32, 60_000u32);
        let (warm, prev) = warm_inputs(nodes, jobs);
        let mut global = Solver::new();
        global.solve(&warm, &prev);
        let micros = measure(|| global.solve(&warm, &prev).placement.jobs.len(), 1, 10);
        entries.push(BenchEntry {
            name: format!("warm_global_{nodes}n_{jobs}j"),
            micros,
        });
    }
    entries.extend(routing_entries());
    entries.extend(obs_entries());
    entries
}

/// Observability-plane series: the identical warm solve with a live
/// recorder attached. The obs-*off* cost needs no series of its own —
/// every warm series above runs with the recorder compiled in and
/// disabled, so the pre-instrumentation baseline medians in
/// `BENCH_baseline.json` (deliberately not re-recorded when this series
/// landed) already show the disabled plane's overhead. This series
/// prices the *enabled* plane: eight step spans, the flow-phase spans
/// and a handful of counter bumps per solve, pinned against the obs-off
/// twin by the same-run invariant in `relative_invariants_hold`.
fn obs_entries() -> Vec<BenchEntry> {
    let (nodes, jobs) = (1000u32, 6000u32);
    let (warm, prev) = warm_inputs(nodes, jobs);
    let mut solver = Solver::new();
    solver.set_recorder(slaq_obs::Recorder::enabled());
    solver.solve(&warm, &prev);
    let micros = measure(|| solver.solve(&warm, &prev).placement.jobs.len(), 3, 30);
    vec![BenchEntry {
        name: format!("warm_global_obs_{nodes}n_{jobs}j"),
        micros,
    }]
}

/// Routing-tier series: one full control cycle of request routing at
/// the 1000-node fleet scale — 50 transactional apps × 20 live
/// instances each, 20 000 requests per app, so ~1 M requests cross the
/// tier per measured cycle. Requests are aggregated counts (the router
/// scores chunk shares, never individual requests), so the cost is
/// driven by apps × chunks × instances, not by request volume. Held by
/// [`HARD_CAP`] alone.
fn routing_entries() -> Vec<BenchEntry> {
    use slaq_routing::{RouterConfig, RoutingTier};
    use slaq_types::{AppId, NodeId};
    let apps = 50u32;
    let per_app = 20u32;
    let requests_per_app = 20_000u64;
    let fleets: Vec<(AppId, Vec<(NodeId, f64)>)> = (0..apps)
        .map(|a| {
            let instances = (0..per_app)
                .map(|i| {
                    // Spread instances over the 1000-node fleet with a
                    // skewed capacity mix, id-sorted as the tier expects.
                    let node = (a * 20 + i * 7) % 1000;
                    (NodeId::new(node), 2000.0 + ((i * 7919) % 1600) as f64)
                })
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_iter()
                .collect();
            (AppId::new(a), instances)
        })
        .collect();
    let mut tier = RoutingTier::new(RouterConfig::default());
    let micros = measure(
        || {
            let mut routed = 0usize;
            for (app, instances) in &fleets {
                let out = tier.route_app(*app, requests_per_app, instances);
                routed += out.shares.len();
            }
            routed
        },
        3,
        30,
    );
    vec![BenchEntry {
        name: "route_cycle_1000n_50a_1m".into(),
        micros,
    }]
}

fn print_table(entries: &[BenchEntry], baseline: Option<&BenchBaseline>) {
    println!(
        "{:<32} {:>12} {:>12} {:>8}",
        "series", "now (µs)", "base (µs)", "ratio"
    );
    for e in entries {
        let base = baseline.and_then(|b| b.entries.iter().find(|x| x.name == e.name));
        match base {
            Some(b) if b.micros > 0.0 => println!(
                "{:<32} {:>12.1} {:>12.1} {:>8.2}",
                e.name,
                e.micros,
                b.micros,
                e.micros / b.micros
            ),
            _ => println!("{:<32} {:>12.1} {:>12} {:>8}", e.name, e.micros, "-", "-"),
        }
    }
    print_growth(entries);
}

/// Print, under the table, how `warm_global` grows with the fleet: the
/// same-run log-log slope over each decade of nodes (jobs grow with them,
/// six per node). Printed, not judged.
fn print_growth(entries: &[BenchEntry]) {
    let micros = |nodes: u32| {
        let name = format!("warm_global_{nodes}n_{}j", nodes * 6);
        entries.iter().find(|e| e.name == name).map(|e| e.micros)
    };
    for (small, large) in [(100, 1000), (1000, 10_000)] {
        if let (Some(a), Some(b)) = (micros(small), micros(large)) {
            let slope = (b / a).ln() / (f64::from(large) / f64::from(small)).ln();
            println!("warm_global growth {small} → {large} nodes: n^{slope:.2}");
        }
    }
}

/// The hardware-independent invariant, compared within the *same* run on
/// the *same* machine (unlike the baseline medians, which were recorded
/// on whatever box last ran `--update`): the *enabled* observability
/// plane must keep the warm solve within 1.5× of its obs-off twin. It
/// holds regardless of how fast the runner is, so it keeps teeth even
/// when absolute numbers drift with hardware.
fn relative_invariants_hold(entries: &[BenchEntry]) -> bool {
    let find = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.micros);
    // Observability plane, enabled: the fully instrumented warm solve
    // (eight step spans, flow-phase spans, counters) must stay within
    // 1.5x of the obs-off twin measured in this same run. The recorder's
    // hot path is one branch plus two clock reads per span, so 1.5x is
    // generous headroom, not a target.
    if let (Some(off), Some(on)) = (
        find("warm_global_1000n_6000j"),
        find("warm_global_obs_1000n_6000j"),
    ) {
        if on > off * 1.5 {
            eprintln!(
                "FAIL obs overhead: instrumented warm solve {on:.1} µs exceeds \
                 1.5x the obs-off {off:.1} µs"
            );
            return false;
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entries = run_benches();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("--update"), Some(path)) => {
            let baseline = BenchBaseline {
                entries: entries.clone(),
            };
            let json = serde_json::to_string_pretty(&baseline).expect("serializes");
            std::fs::write(path, json + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            print_table(&entries, None);
            println!("baseline written to {path}");
        }
        (Some("--check"), Some(path)) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e} (run --update first)");
                std::process::exit(1);
            });
            let baseline: BenchBaseline = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse baseline {path}: {e}");
                std::process::exit(1);
            });
            print_table(&entries, Some(&baseline));
            let mut failed = false;
            for e in &entries {
                match baseline.entries.iter().find(|b| b.name == e.name) {
                    None => {
                        eprintln!("FAIL {}: not in baseline (run --update)", e.name);
                        failed = true;
                    }
                    Some(b) if b.micros > 0.0 && e.micros > b.micros * HARD_CAP => {
                        eprintln!(
                            "FAIL {}: {:.1} µs vs baseline {:.1} µs exceeds the {HARD_CAP}x \
                             hard cap",
                            e.name, e.micros, b.micros
                        );
                        failed = true;
                    }
                    Some(_) => {}
                }
            }
            if !relative_invariants_hold(&entries) {
                failed = true;
            }
            if failed {
                std::process::exit(1);
            }
            println!("bench gate passed (same-run ratio and the {HARD_CAP}x hard cap)");
        }
        (None, _) => print_table(&entries, None),
        _ => {
            eprintln!(
                "usage: bench_gate [--update <baseline.json> | --check <baseline.json>]\n\
                 --check fails on the same-run ratio (obs-on <= 1.5x obs-off) or a median past \
                 {HARD_CAP}x its baseline; medians are printed, not judged"
            );
            std::process::exit(2);
        }
    }
}
