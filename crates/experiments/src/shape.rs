//! Quantitative shape metrics for the Figure 1/2 reproduction.
//!
//! The reproduction contract is about *shape*, not absolute MHz: who wins
//! early, when the curves cross, how tightly utilities equalize under
//! contention, and whether CPU returns to the transactional workload when
//! the job stream thins. These metrics make those claims testable.

use serde::{Deserialize, Serialize};
use slaq_core::ScenarioSpec;
use slaq_sim::SimReport;
use slaq_types::SimTime;
use slaq_workloads::ArrivalProcess;

/// Shape summary of one paper-experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeMetrics {
    /// First instant at which the controller starts withholding CPU from
    /// the transactional workload (target < 95 % of demand) — the paper's
    /// "as soon as the hypothetical utility … becomes lower … our
    /// algorithm starts to reduce the allocation for the transactional
    /// workload". `None` if stealing never starts.
    pub crossover_secs: Option<f64>,
    /// Mean |u_trans − u_jobs| over the contention window (from crossover
    /// to the tail start) — small means utilities equalized.
    pub equalization_gap: Option<f64>,
    /// Mean jobs-allocation ÷ transactional-allocation over the
    /// contention window — large means the CPU split is uneven even
    /// though utilities are equal (Fig. 2 vs Fig. 1).
    pub contention_alloc_ratio: Option<f64>,
    /// Mean transactional allocation in the early (pre-crossover) window.
    pub early_trans_alloc: f64,
    /// Mean transactional demand in the early window (early allocation
    /// should track demand: no contention yet).
    pub early_trans_demand: f64,
    /// Transactional allocation regained in the tail versus its
    /// contention-window mean (≥ 1 means CPU flowed back).
    pub tail_recovery_ratio: Option<f64>,
    /// Peak of the jobs' demand-for-maximum-utility series.
    pub peak_jobs_demand: f64,
    /// Mean hypothetical utility of jobs in the early window.
    pub early_jobs_utility: f64,
}

/// Compute shape metrics of a run of `spec`. The horizon is the spec's;
/// the tail (the experiment's recovery phase) starts where the first
/// job stream's Poisson schedule starts its last segment — the instant
/// the paper's submission rate drops. A spec without one has no tail.
pub fn shape_metrics(report: &SimReport, spec: &ScenarioSpec) -> ShapeMetrics {
    let horizon = SimTime::from_secs(spec.timing.horizon_secs);
    let tail_start = match spec.job_streams.first().map(|s| &s.arrivals) {
        Some(ArrivalProcess::Poisson { schedule }) => schedule.segments().last().map(|s| s.0),
        _ => None,
    }
    .unwrap_or(horizon);
    let m = &report.metrics;
    let ut = m.series("trans_utility");
    let uj = m.series("jobs_hypo_utility");

    // Stealing starts when the equalized transactional target drops below
    // its demand (skip the cold-start cycle at t=0).
    let demand = m.series("trans_demand");
    let mut crossover = None;
    for &(t, target) in m.series("trans_target") {
        if t <= 0.0 {
            continue;
        }
        if let Some(d) = value_at(demand, t) {
            if d > 0.0 && target < 0.95 * d {
                crossover = Some(t);
                break;
            }
        }
    }

    let early_end = crossover.unwrap_or(tail_start.as_secs());
    let early_window = |name: &str| {
        m.mean_over(name, SimTime::ZERO, SimTime::from_secs(early_end))
            .unwrap_or(0.0)
    };
    let early_trans_alloc = early_window("trans_alloc");
    let early_trans_demand = early_window("trans_demand");
    let early_jobs_utility = early_window("jobs_hypo_utility");

    let (equalization_gap, contention_alloc_ratio, contention_trans_alloc) = match crossover {
        Some(x) if x < tail_start.as_secs() => {
            let from = SimTime::from_secs(x);
            let gaps: Vec<f64> = uj
                .iter()
                .filter(|&&(t, _)| t >= x && t <= tail_start.as_secs())
                .filter_map(|&(t, ju)| value_at(ut, t).map(|tu| (tu - ju).abs()))
                .collect();
            let gap = if gaps.is_empty() {
                None
            } else {
                Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
            };
            let ja = m.mean_over("jobs_alloc", from, tail_start);
            let ta = m.mean_over("trans_alloc", from, tail_start);
            let ratio = match (ja, ta) {
                (Some(j), Some(t)) if t > 0.0 => Some(j / t),
                _ => None,
            };
            (gap, ratio, ta)
        }
        _ => (None, None, None),
    };

    let tail_recovery_ratio = contention_trans_alloc.and_then(|contention| {
        // Compare the last quarter of the tail against contention.
        let tail_from =
            SimTime::from_secs(tail_start.as_secs() + 0.5 * (horizon - tail_start).as_secs());
        m.mean_over("trans_alloc", tail_from, horizon)
            .map(|tail| tail / contention.max(1.0))
    });

    ShapeMetrics {
        crossover_secs: crossover,
        equalization_gap,
        contention_alloc_ratio,
        early_trans_alloc,
        early_trans_demand,
        tail_recovery_ratio,
        peak_jobs_demand: m.max("jobs_demand").unwrap_or(0.0),
        early_jobs_utility,
    }
}

/// Step-interpolated lookup of a series at instant `t`.
fn value_at(series: &[(f64, f64)], t: f64) -> Option<f64> {
    let mut last = None;
    for &(ts, v) in series {
        if ts <= t + 1e-9 {
            last = Some(v);
        } else {
            break;
        }
    }
    last
}

impl std::fmt::Display for ShapeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "shape metrics:")?;
        match self.crossover_secs {
            Some(x) => writeln!(f, "  crossover (jobs dip below trans): t = {x:.0} s")?,
            None => writeln!(f, "  crossover: never")?,
        }
        if let Some(g) = self.equalization_gap {
            writeln!(f, "  mean |u_trans - u_jobs| under contention: {g:.3}")?;
        }
        if let Some(r) = self.contention_alloc_ratio {
            writeln!(f, "  jobs/trans CPU ratio under contention: {r:.2}x")?;
        }
        writeln!(
            f,
            "  early trans alloc vs demand: {:.0} / {:.0} MHz",
            self.early_trans_alloc, self.early_trans_demand
        )?;
        writeln!(
            f,
            "  early jobs hypothetical utility: {:.3}",
            self.early_jobs_utility
        )?;
        if let Some(r) = self.tail_recovery_ratio {
            writeln!(
                f,
                "  tail trans-alloc recovery: {r:.2}x of contention level"
            )?;
        }
        write!(f, "  peak jobs demand: {:.0} MHz", self.peak_jobs_demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_steps() {
        let s = [(0.0, 1.0), (10.0, 2.0)];
        assert_eq!(value_at(&s, -1.0), None);
        assert_eq!(value_at(&s, 0.0), Some(1.0));
        assert_eq!(value_at(&s, 5.0), Some(1.0));
        assert_eq!(value_at(&s, 50.0), Some(2.0));
    }

    #[test]
    fn small_run_shape_has_the_paper_phases() {
        let spec = ScenarioSpec::preset("paper-small").unwrap();
        let report = spec.run().unwrap();
        let shape = shape_metrics(&report, &spec);
        // Phase 1: jobs start happy.
        assert!(
            shape.early_jobs_utility > 0.7,
            "early jobs utility {}",
            shape.early_jobs_utility
        );
        // Phase 2: crowding forces a crossover before the tail.
        let x = shape.crossover_secs.expect("crossover must happen");
        assert!(x < 11_000.0, "crossover at {x}"); // paper-small's tail start
                                                   // Phase 3: utilities equalized while CPU is split unevenly.
        assert!(
            shape.equalization_gap.unwrap() < 0.2,
            "gap {:?}",
            shape.equalization_gap
        );
        // Display renders.
        let text = shape.to_string();
        assert!(text.contains("crossover"));
    }
}
