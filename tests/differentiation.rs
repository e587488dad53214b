//! E8: service differentiation — the paper's abstract promises
//! "service differentiation based on high-level performance goals".
//! Gold-class jobs (importance 2) on a contended cluster must come out
//! systematically better than bronze-class jobs (importance 1) submitted
//! at the same instants with identical SLAs.

use slaq::prelude::*;

/// Job `i` of a class: gold weighs `gold_importance`, bronze 1.0.
fn job(i: u32, class: &str, gold_importance: f64) -> JobSpec {
    JobSpec {
        // All eight arrive at t = 0, and the simulator assigns ids in
        // (time, name) order: "0-gold", "1-bronze", "2-gold", … — the
        // classes interleave in id order, so neither is the older.
        name: format!("{i}-{class}"),
        total_work: Work::from_power_secs(CpuMhz::new(3000.0), 2000.0),
        max_speed: CpuMhz::new(3000.0),
        mem: MemMb::new(1280),
        goal: CompletionGoal::relative(SimTime::ZERO, SimDuration::from_secs(2000.0), 1.25, 3.0)
            .unwrap(),
        importance: if class == "gold" {
            gold_importance
        } else {
            1.0
        },
    }
}

/// Mean achieved utility of the gold and the bronze jobs, grouped by
/// name.
fn run(gold_importance: f64) -> (f64, f64) {
    // 2 nodes: 6 memory slots for 8 jobs → contention on both CPU & slots.
    let cluster = ClusterTopology::homogeneous(2, 4, 3000.0, 4096);
    let mut sim = Simulator::new(
        &cluster,
        SimConfig {
            control_period: SimDuration::from_secs(600.0),
            horizon: SimTime::from_secs(9000.0),
            overheads: OverheadConfig {
                start: SimDuration::ZERO,
                resume: SimDuration::ZERO,
                migrate: SimDuration::ZERO,
            },
            cap_transactional: false,
        },
        Faults::default(),
    );
    let arrivals: Vec<(SimTime, JobSpec)> = (0..8)
        .map(|i| {
            let class = if i % 2 == 0 { "gold" } else { "bronze" };
            (SimTime::ZERO, job(i, class, gold_importance))
        })
        .collect();
    sim.add_arrivals(arrivals);
    sim.run(&mut UtilityController::default()).unwrap();

    let mut gold = Vec::new();
    let mut bronze = Vec::new();
    for j in sim.jobs().jobs() {
        let u = j
            .achieved_utility
            .unwrap_or_else(|| j.spec.goal.utility_at(SimTime::NEVER));
        let is_gold = j.spec.name.ends_with("-gold");
        assert_eq!(
            is_gold,
            j.id.raw() % 2 == 0,
            "ids interleave: {}",
            j.spec.name
        );
        if is_gold {
            gold.push(u);
        } else {
            bronze.push(u);
        }
    }
    assert_eq!((gold.len(), bronze.len()), (4, 4));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&gold), mean(&bronze))
}

#[test]
fn gold_jobs_beat_bronze_under_importance_weights() {
    let (gold, bronze) = run(2.0);
    assert!(
        gold > bronze + 0.1,
        "gold {gold} should clearly beat bronze {bronze}"
    );
}

#[test]
fn without_weights_classes_are_statistically_equal() {
    let (gold, bronze) = run(1.0);
    assert!(
        (gold - bronze).abs() < 0.12,
        "unweighted classes should tie: gold {gold} vs bronze {bronze}"
    );
}

#[test]
fn weights_do_not_change_total_throughput_materially() {
    let (g1, b1) = run(2.0);
    let (g2, b2) = run(1.0);
    // Differentiation redistributes utility, it does not create it.
    let sum_w = g1 + b1;
    let sum_u = g2 + b2;
    assert!(
        (sum_w - sum_u).abs() < 0.25,
        "aggregate utility should be comparable: {sum_w} vs {sum_u}"
    );
}
