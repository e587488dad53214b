//! Gates for the request-level routing tier.
//!
//! 1. **Temperature 0 is a pure argmax.** With a single chunk the
//!    router must pick exactly the instance maximizing
//!    `warm_gain·warmth + load_penalty·capacity_share`, ties breaking
//!    to the lowest index (and instances arrive id-sorted, so the
//!    lowest node id). A deterministic case pins the multi-chunk
//!    tie-break order too.
//! 2. **Seeded reproducibility.** Two routers built from the same
//!    config — argmax *or* softmax — produce bit-identical outcomes
//!    over the same call sequence; the softmax stream comes from the
//!    config seed, never ambient entropy.
//! 3. **Pipelining composes.** On the `request-routing` preset under
//!    `Overlap{1}`, the router series are bit-identical between the
//!    batch and delta solver engines and across repeat runs. (Sync
//!    delta ≡ batch for the preset rides the corpus loop in
//!    `tests/delta_solve.rs`.)
//! 4. **Neutral routing is a no-op.** With `warm_gain = 0` (so the
//!    warm-work discount is exactly 1.0) and `placement_bias = 0`,
//!    every series the routing-off run records is reproduced bit for
//!    bit — the tier only *adds* its own `route_*` series.
//! 5. **The payoff invariant.** On the `request-routing` preset,
//!    affinity-aware routing beats uniform round-robin in the same
//!    run: higher warm-hit quality, lower work discount, more jobs
//!    finished, and more CPU released to the job tier.

use slaq::core::spec::{PipelineSpec, RoutingSpec, ScenarioSpec};
use slaq::prelude::{NodeId, SimTime};
use slaq::routing::{RouteOutcome, Router, RouterConfig};
use slaq::sim::SimReport;

/// Run a preset with the given routing override, capped to `cycles`
/// control cycles (`None` = the preset's full horizon).
fn run_preset(
    name: &str,
    routing: Option<RoutingSpec>,
    pipeline: PipelineSpec,
    delta: bool,
    cycles: Option<usize>,
) -> SimReport {
    let mut spec = ScenarioSpec::preset(name).expect("named preset");
    if let Some(r) = routing {
        spec.controller.routing = r;
    }
    spec.controller.pipeline = pipeline;
    if delta {
        spec.controller.solve = slaq::placement::SolveMode::Delta;
    }
    if let Some(c) = cycles {
        spec.timing.cap_to_cycles(c);
    }
    spec.run().unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Mean of a series over the report's whole recorded span.
fn mean(report: &SimReport, series: &str) -> f64 {
    report
        .metrics
        .mean_over(series, SimTime::ZERO, SimTime::from_secs(f64::INFINITY))
        .unwrap_or_else(|| panic!("series {series} missing"))
}

fn outcomes_identical(a: &RouteOutcome, b: &RouteOutcome) -> bool {
    a.shares == b.shares && a.warm_hit == b.warm_hit && a.discount == b.discount
}

mod argmax {
    use super::*;
    use proptest::prelude::*;

    // One chunk, zero temperature: the router is literally
    // `argmax_i (warm_gain·warmth_i + load_penalty·cap_share_i)` with
    // ties to the lowest index.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn single_chunk_zero_temperature_is_argmax(
            pairs in proptest::collection::vec((0.0f64..1.0, 0.5f64..4.0), 1..10),
        ) {
            let cfg = RouterConfig {
                temperature: 0.0,
                chunks: 1,
                ..RouterConfig::default()
            };
            let instances: Vec<(NodeId, f64)> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(_, cap))| (NodeId::new(i as u32), cap))
                .collect();
            let warmth: Vec<f64> = pairs.iter().map(|&(w, _)| w).collect();
            let total_cap: f64 = instances.iter().map(|&(_, c)| c).sum();

            let mut expect = 0usize;
            let mut best = f64::NEG_INFINITY;
            for i in 0..pairs.len() {
                let score =
                    cfg.warm_gain * warmth[i] + cfg.load_penalty * (instances[i].1 / total_cap);
                // Strict `>`: ties stay with the earlier (lower-id) index.
                if score > best {
                    best = score;
                    expect = i;
                }
            }

            let out = Router::new(cfg).route(1_000, &instances, &warmth);
            let winner = out
                .shares
                .iter()
                .find(|&&(_, s)| s > 0.0)
                .map(|&(n, _)| n)
                .expect("one instance takes the chunk");
            prop_assert_eq!(winner, NodeId::new(expect as u32));
            prop_assert_eq!(out.warm_hit, warmth[expect]);
        }
    }

    /// Fully tied scores spread chunk by chunk in id order: the load
    /// penalty pushes each successive chunk to the next instance, and
    /// the remainder chunks land on the lowest ids.
    #[test]
    fn tied_scores_spread_in_id_order() {
        let cfg = RouterConfig {
            temperature: 0.0,
            chunks: 5,
            ..RouterConfig::default()
        };
        let instances: Vec<(NodeId, f64)> = (0..3).map(|i| (NodeId::new(i), 1.0)).collect();
        let out = Router::new(cfg).route(500, &instances, &[0.25; 3]);
        let shares: Vec<f64> = out.shares.iter().map(|&(_, s)| s).collect();
        assert_eq!(shares, vec![2.0 / 5.0, 2.0 / 5.0, 1.0 / 5.0]);
    }
}

mod reproducibility {
    use super::*;
    use proptest::prelude::*;

    // Drive two routers built from the same config through the same
    // call sequence and demand bit-identical outcomes — at temperature
    // zero and with a seeded softmax alike.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn same_config_same_calls_same_outcomes(
            temperature in 0.0f64..1.5,
            seed in 0u64..1_000_000,
            calls in proptest::collection::vec(
                proptest::collection::vec((0.0f64..1.0, 0.5f64..4.0), 1..8),
                3..8,
            ),
        ) {
            // Snap sub-0.1 draws to exact zero so the argmax branch is
            // exercised too, not just small-temperature softmax.
            let temperature = if temperature < 0.1 { 0.0 } else { temperature };
            let cfg = RouterConfig {
                temperature,
                seed,
                ..RouterConfig::default()
            };
            let mut a = Router::new(cfg);
            let mut b = Router::new(cfg);
            for (requests, pairs) in calls.iter().enumerate() {
                let instances: Vec<(NodeId, f64)> = pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(_, cap))| (NodeId::new(i as u32), cap))
                    .collect();
                let warmth: Vec<f64> = pairs.iter().map(|&(w, _)| w).collect();
                let requests = 1 + requests as u64 * 37;
                let oa = a.route(requests, &instances, &warmth);
                let ob = b.route(requests, &instances, &warmth);
                prop_assert!(
                    outcomes_identical(&oa, &ob),
                    "diverged: {:?} vs {:?}",
                    oa,
                    ob
                );
            }
        }
    }
}

#[test]
fn route_series_identical_across_engines_and_repeats_under_overlap() {
    // Batch vs delta under Overlap{1}: the routing tier sits upstream
    // of the solver, so swapping the solve engine must not move a
    // single router sample (nor any other series).
    let batch = run_preset(
        "request-routing",
        None,
        PipelineSpec::overlap(1),
        false,
        Some(5),
    );
    let delta = run_preset(
        "request-routing",
        None,
        PipelineSpec::overlap(1),
        true,
        Some(5),
    );
    for series in batch.metrics.names() {
        assert_eq!(
            batch.metrics.series(series),
            delta.metrics.series(series),
            "series {series} diverged between batch and delta under overlap"
        );
    }
    // And a repeat run reproduces the pipelined router series bit for
    // bit — the seeded softmax stream owes nothing to wall time.
    let again = run_preset(
        "request-routing",
        None,
        PipelineSpec::overlap(1),
        false,
        Some(5),
    );
    for series in ["route_requests", "route_quality", "route_discount"] {
        assert!(
            !batch.metrics.series(series).is_empty(),
            "router recorded no {series} samples"
        );
        assert_eq!(
            batch.metrics.series(series),
            again.metrics.series(series),
            "series {series} drifted across repeat runs"
        );
    }
}

#[test]
fn neutral_routing_reproduces_the_off_series_bit_for_bit() {
    // `warm_gain = 0` makes the warm-work discount exactly 1.0 and
    // `placement_bias = 0` keeps the solver affinity-free, so the tier
    // may only *add* `route_*` series — everything the routing-off run
    // records must come back bit-identical.
    let neutral = [
        RoutingSpec::Uniform {
            warm_gain: 0.0,
            warm_alpha: 0.3,
        },
        RoutingSpec::Affinity {
            temperature: 0.0,
            warm_gain: 0.0,
            warm_alpha: 0.3,
            load_penalty: 0.4,
            placement_bias: 0.0,
        },
    ];
    for preset in ["paper-small", "request-routing"] {
        let off = run_preset(
            preset,
            Some(RoutingSpec::Off),
            PipelineSpec::Sync,
            false,
            Some(4),
        );
        for spec in neutral {
            let on = run_preset(preset, Some(spec), PipelineSpec::Sync, false, Some(4));
            assert_eq!(off.cycles, on.cycles, "{preset}: cycle count");
            assert_eq!(
                off.job_stats.completed, on.job_stats.completed,
                "{preset}: completions"
            );
            for series in off.metrics.names() {
                assert_eq!(
                    off.metrics.series(series),
                    on.metrics.series(series),
                    "{preset}: series {series} perturbed by neutral {} routing",
                    spec.label()
                );
            }
            for series in on.metrics.names() {
                assert!(
                    series.starts_with("route_") || !off.metrics.series(series).is_empty(),
                    "{preset}: neutral routing invented non-router series {series}"
                );
            }
        }
    }
}

#[test]
fn affinity_routing_beats_uniform_on_the_request_routing_preset() {
    // The preset's acceptance invariant, same-run rather than golden:
    // on the skewed-affinity fleet, concentrating each app's requests
    // on warm instances shrinks per-request work, which lowers the
    // transactional demand the controller must satisfy and releases
    // CPU to the starved job tier.
    let affinity = run_preset("request-routing", None, PipelineSpec::Sync, false, None);
    let uniform = run_preset(
        "request-routing",
        Some(RoutingSpec::Uniform {
            warm_gain: 0.5,
            warm_alpha: 0.5,
        }),
        PipelineSpec::Sync,
        false,
        None,
    );

    let (aq, uq) = (
        mean(&affinity, "route_quality"),
        mean(&uniform, "route_quality"),
    );
    assert!(
        aq > uq + 0.1,
        "affinity warm-hit quality should clearly beat round-robin: {aq:.4} vs {uq:.4}"
    );
    let (ad, ud) = (
        mean(&affinity, "route_discount"),
        mean(&uniform, "route_discount"),
    );
    assert!(
        ad < ud,
        "affinity routing should save more per-request work: discount {ad:.4} vs {ud:.4}"
    );
    assert!(
        affinity.job_stats.completed > uniform.job_stats.completed,
        "released CPU should finish more jobs: {} vs {}",
        affinity.job_stats.completed,
        uniform.job_stats.completed
    );
    let (aj, uj) = (mean(&affinity, "jobs_alloc"), mean(&uniform, "jobs_alloc"));
    assert!(
        aj > uj * 1.2,
        "the job tier should gain CPU under affinity routing: {aj:.1} vs {uj:.1} MHz"
    );
    // The gain must not come out of the transactional tier's hide.
    let au = mean(&affinity, "trans_utility");
    assert!(
        au > 0.6,
        "transactional utility collapsed under affinity routing: {au:.4}"
    );
}
