//! The headline integration test: the paper's Figure 1 / Figure 2
//! **shape contract**, on the scaled-down paper scenario.
//!
//! 1. Early phase: the transactional workload is satisfied (allocation ≈
//!    demand) and the job pool is happier than the transactional app.
//! 2. Crowding: the jobs' hypothetical utility decays and crosses below
//!    the transactional utility before the submission-rate tail.
//! 3. Contention: utilities are equalized (small gap) while the CPU split
//!    is strongly uneven — even utility from uneven MHz.
//! 4. Tail: once the submission rate drops, CPU flows back to the
//!    transactional workload.

use slaq::prelude::*;
use slaq_experiments::{shape_metrics, ShapeMetrics};

fn small_report() -> (ScenarioSpec, slaq_sim::SimReport) {
    let spec = ScenarioSpec::preset("paper-small").expect("built-in preset");
    let report = spec.run().expect("scenario must simulate");
    (spec, report)
}

fn small_shape() -> ShapeMetrics {
    let (spec, report) = small_report();
    shape_metrics(&report, &spec)
}

/// When `paper-small`'s submission rate drops.
const TAIL_START_SECS: f64 = 11_000.0;

#[test]
fn phase1_early_transactional_is_satisfied() {
    let shape = small_shape();
    // Allocation tracks demand in the uncontended window (within 25%:
    // the first cycle starts cold and jobs trickle in).
    assert!(
        shape.early_trans_alloc > 0.7 * shape.early_trans_demand,
        "early alloc {} vs demand {}",
        shape.early_trans_alloc,
        shape.early_trans_demand
    );
    // The job pool starts happy.
    assert!(
        shape.early_jobs_utility > 0.7,
        "early jobs utility {}",
        shape.early_jobs_utility
    );
}

#[test]
fn phase2_crowding_causes_crossover() {
    let (spec, report) = small_report();
    let shape = shape_metrics(&report, &spec);
    let x = shape
        .crossover_secs
        .expect("jobs must eventually dip below the transactional utility");
    assert!(
        x > spec.timing.control_period_secs && x < TAIL_START_SECS,
        "crossover at {x}, expected inside (one cycle, tail start)"
    );
    // Jobs' demand for maximum utility must have grown well beyond the
    // transactional demand at its peak (Fig. 2's dominant curve).
    assert!(
        shape.peak_jobs_demand > 1.5 * shape.early_trans_demand,
        "peak jobs demand {} vs trans demand {}",
        shape.peak_jobs_demand,
        shape.early_trans_demand
    );
}

#[test]
fn phase3_contention_equalizes_utility_with_uneven_cpu() {
    let shape = small_shape();
    let gap = shape
        .equalization_gap
        .expect("contention window must exist");
    assert!(gap < 0.2, "utilities should equalize, gap {gap}");
    let ratio = shape
        .contention_alloc_ratio
        .expect("contention window must exist");
    assert!(
        ratio > 1.3,
        "jobs should hold much more CPU than the app under contention, ratio {ratio}"
    );
}

#[test]
fn phase4_tail_returns_cpu_to_transactional() {
    let shape = small_shape();
    let recovery = shape.tail_recovery_ratio.expect("tail window must exist");
    assert!(
        recovery > 1.02,
        "transactional allocation should recover in the tail: {recovery}"
    );
}

#[test]
fn figure2_shape_demand_vs_satisfied() {
    let (_spec, report) = small_report();
    let m = &report.metrics;
    // Long-running demand peaks above what is satisfied (memory + speed
    // caps bound the realizable allocation) …
    let peak_demand = m.max("jobs_demand").unwrap();
    let peak_alloc = m.max("jobs_alloc").unwrap();
    assert!(
        peak_demand > peak_alloc,
        "demand {peak_demand} should exceed satisfied {peak_alloc} at peak"
    );
    // … while early transactional demand is essentially satisfied.
    let first_demand = m.series("trans_demand")[1].1;
    let first_alloc = m.series("trans_alloc")[1].1;
    assert!(
        first_alloc > 0.7 * first_demand,
        "early trans alloc {first_alloc} vs demand {first_demand}"
    );
}

#[test]
fn bookkeeping_totals_add_up() {
    let (spec, report) = small_report();
    let s = report.job_stats;
    assert_eq!(
        s.submitted,
        s.pending + s.running + s.suspended + s.completed,
        "lifecycle states must partition the population"
    );
    assert!(s.completed > 0, "some jobs must finish");
    assert!(s.submitted > 50, "the stream must have fed the system");
    // All series span the run.
    let horizon = spec.timing.horizon_secs;
    let last_t = report.metrics.series("jobs_alloc").last().unwrap().0;
    assert!(last_t > horizon - 2.0 * spec.timing.control_period_secs);
}
