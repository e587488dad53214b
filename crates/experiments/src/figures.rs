//! E1/E2: Figures 1 and 2, both read from one run of the `paper` (or
//! `paper-small`) preset.

use slaq_sim::SimReport;

/// Figure 1 CSV: actual transactional utility and average hypothetical
/// long-running utility vs time.
pub fn fig1_csv(report: &SimReport) -> String {
    report
        .metrics
        .to_csv(&["trans_utility", "jobs_hypo_utility"])
}

/// Figure 2 CSV: CPU power allocated to each workload and the demand each
/// would need for maximum utility, vs time.
pub fn fig2_csv(report: &SimReport) -> String {
    report
        .metrics
        .to_csv(&["trans_alloc", "jobs_alloc", "trans_demand", "jobs_demand"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_core::ScenarioSpec;

    #[test]
    fn small_run_produces_both_figures() {
        let report = ScenarioSpec::preset("paper-small").unwrap().run().unwrap();
        let f1 = fig1_csv(&report);
        let f2 = fig2_csv(&report);
        assert!(f1.lines().count() > 20, "fig1 rows: {}", f1.lines().count());
        assert!(f2.lines().count() > 20);
        assert!(f1.starts_with("time,trans_utility,jobs_hypo_utility"));
        assert!(f2.starts_with("time,trans_alloc,jobs_alloc,trans_demand,jobs_demand"));
    }
}
