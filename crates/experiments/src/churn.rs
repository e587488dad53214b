//! E9: churn-budget sensitivity — how tightly can placement changes be
//! capped before SLA outcomes degrade?
//!
//! The paper leans on suspension and migration but every action has a
//! latency cost (the simulator charges them). This study sweeps
//! [`PlacementConfig::max_changes`] on the scaled paper workload and
//! reports the utility/churn trade, quantifying the "bounded churn"
//! design decision called out in DESIGN.md §3.2.

use serde::{Deserialize, Serialize};
use slaq_core::controller::ControllerConfig;
use slaq_core::scenario::PaperParams;
use slaq_core::UtilityController;
use slaq_placement::problem::PlacementConfig;
use slaq_types::{Result, SimTime};

/// Outcome of one churn-budget setting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnCell {
    /// Cap on placement changes per cycle (`None` = unbounded).
    pub max_changes: Option<usize>,
    /// Total changes enacted over the run.
    pub total_changes: usize,
    /// Job suspensions/migrations suffered.
    pub disruptions: u32,
    /// Jobs completed.
    pub completed: usize,
    /// Mean measured transactional utility.
    pub mean_trans_utility: f64,
    /// Mean controller-neutral job outlook.
    pub mean_jobs_outlook: f64,
}

/// Run the scaled paper workload at each churn budget.
pub fn churn_sweep(params: &PaperParams, budgets: &[Option<usize>]) -> Result<Vec<ChurnCell>> {
    let horizon = SimTime::from_secs(params.horizon_secs);
    let mut out = Vec::with_capacity(budgets.len());
    for &max_changes in budgets {
        let mut controller = UtilityController::new(ControllerConfig {
            placement: PlacementConfig {
                max_changes,
                evict_priority_gap: 300.0,
            },
            ..Default::default()
        });
        let report = params.scenario().run(&mut controller)?;
        out.push(ChurnCell {
            max_changes,
            total_changes: report.total_changes,
            disruptions: report.job_stats.disruptions,
            completed: report.job_stats.completed,
            mean_trans_utility: report
                .metrics
                .mean_over("trans_utility", SimTime::ZERO, horizon)
                .unwrap_or(0.0),
            mean_jobs_outlook: report
                .metrics
                .mean_over("jobs_outlook", SimTime::ZERO, horizon)
                .unwrap_or(0.0),
        });
    }
    Ok(out)
}

/// Text table for the sweep.
pub fn format_churn(cells: &[ChurnCell]) -> String {
    let mut s = String::from(
        "budget/cycle   total-changes   disruptions   done   mean u_T   jobs outlook\n",
    );
    for c in cells {
        s.push_str(&format!(
            "{:<14} {:<15} {:<13} {:<6} {:<10.3} {:.3}\n",
            c.max_changes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "unbounded".into()),
            c.total_changes,
            c.disruptions,
            c.completed,
            c.mean_trans_utility,
            c.mean_jobs_outlook,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighter_budgets_enact_fewer_changes() {
        let params = PaperParams::small();
        let cells = churn_sweep(&params, &[Some(2), Some(8), None]).unwrap();
        assert_eq!(cells.len(), 3);
        assert!(
            cells[0].total_changes <= cells[1].total_changes,
            "2-cap {} vs 8-cap {}",
            cells[0].total_changes,
            cells[1].total_changes
        );
        assert!(cells[1].total_changes <= cells[2].total_changes);
        // Even the tightest budget keeps the system alive.
        assert!(cells[0].completed > 0);
        let table = format_churn(&cells);
        assert!(table.contains("unbounded"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn disruptions_shrink_with_budget() {
        let params = PaperParams::small();
        let cells = churn_sweep(&params, &[Some(3), None]).unwrap();
        assert!(
            cells[0].disruptions <= cells[1].disruptions,
            "capped {} vs unbounded {}",
            cells[0].disruptions,
            cells[1].disruptions
        );
    }
}
