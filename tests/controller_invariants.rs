//! Cross-crate invariants of the full control loop: capacity respect,
//! target sanity, liveness under light load, determinism.

use slaq::prelude::*;

fn paper_small() -> ScenarioSpec {
    ScenarioSpec::preset("paper-small").expect("built-in preset")
}

#[test]
fn targets_never_exceed_cluster_capacity() {
    let spec = paper_small();
    let report = spec.run().unwrap();
    let nodes = NodeCapacity::from_cluster(&spec.cluster);
    let total: f64 = nodes.iter().map(|n| n.cpu.as_f64()).sum();
    for name in ["trans_target", "jobs_target", "trans_alloc", "jobs_alloc"] {
        for &(t, v) in report.metrics.series(name) {
            assert!(v <= total + 1.0, "{name} at t={t}: {v} > {total}");
            assert!(v >= -1e-6, "{name} at t={t}: negative {v}");
        }
    }
    // Combined allocations also respect capacity.
    let ta = report.metrics.series("trans_alloc");
    let ja = report.metrics.series("jobs_alloc");
    for (&(t, a), &(_, b)) in ta.iter().zip(ja) {
        assert!(a + b <= total + 1.0, "t={t}: {a}+{b} > {total}");
    }
}

#[test]
fn utilities_stay_in_range() {
    let report = paper_small().run().unwrap();
    for name in ["trans_utility", "jobs_hypo_utility", "water_level"] {
        for &(t, v) in report.metrics.series(name) {
            assert!((-1.0..=1.0).contains(&v), "{name} at t={t}: {v}");
        }
    }
}

#[test]
fn light_load_completes_everything_on_time() {
    // Few long jobs, light transactional traffic: every SLA must hold.
    let mut spec = paper_small();
    let stream = &mut spec.job_streams[0];
    stream.max_jobs = 12;
    stream.arrivals = ArrivalProcess::Poisson {
        schedule: RateSchedule::new(vec![
            (SimTime::ZERO, 800.0),
            (SimTime::from_secs(10_000.0), 900.0),
        ])
        .unwrap(),
    };
    spec.apps[0].trace = IntensityTrace::constant(6.0);
    let report = spec.run().unwrap();
    let s = report.job_stats;
    assert_eq!(s.completed, s.submitted, "all jobs must finish: {s:?}");
    assert!(
        s.goals_met as f64 >= 0.9 * s.completed as f64,
        "goals met {} of {}",
        s.goals_met,
        s.completed
    );
    assert!(
        s.mean_achieved_utility > 0.8,
        "mean achieved utility {}",
        s.mean_achieved_utility
    );
}

#[test]
fn run_is_deterministic_for_a_seed() {
    let spec = paper_small();
    let a = spec.run().unwrap();
    let b = spec.run().unwrap();
    for name in [
        "trans_utility",
        "jobs_hypo_utility",
        "trans_alloc",
        "jobs_alloc",
    ] {
        assert_eq!(
            a.metrics.series(name),
            b.metrics.series(name),
            "series {name} must be bit-identical"
        );
    }
    assert_eq!(a.job_stats, b.job_stats);
}

#[test]
fn different_seeds_differ_but_share_the_shape() {
    let mut p1 = paper_small();
    let mut p2 = paper_small();
    p1.seed = 11;
    p2.seed = 12;
    let a = p1.run().unwrap();
    let b = p2.run().unwrap();
    assert_ne!(
        a.metrics.series("jobs_alloc"),
        b.metrics.series("jobs_alloc"),
        "different workloads must differ"
    );
    // Both still complete a similar volume of work.
    let ca = a.job_stats.completed as f64;
    let cb = b.job_stats.completed as f64;
    assert!(
        (ca - cb).abs() / ca.max(cb) < 0.3,
        "completions diverge wildly: {ca} vs {cb}"
    );
}

#[test]
fn churn_is_bounded_by_config() {
    // Same scenario but with a hard change budget per cycle.
    let mut spec = paper_small();
    spec.controller.max_changes = Some(5);
    let report = spec.run().unwrap();
    for &(t, v) in report.metrics.series("changes") {
        assert!(v <= 5.0, "cycle at t={t} enacted {v} changes");
    }
    // The system still makes progress.
    assert!(report.job_stats.completed > 0);
}
