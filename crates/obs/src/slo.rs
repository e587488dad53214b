//! Per-app SLO tracking: a declarative [`SloSpec`], per-cycle
//! [`SloSample`]s, named-cause violation [`Attribution`], and the
//! [`SloTracker`] that folds them into compliance, error-budget burn
//! and worst-window statistics.
//!
//! The layer rides the [`crate::Recorder`]: the simulator registers one
//! tracker per app ([`crate::Recorder::slo_register`]) and feeds it one
//! sample per control cycle ([`crate::Recorder::slo_observe`]). Like
//! every other recorder surface it observes, never steers — the SLO
//! board is write-only from the simulation's point of view, so enabling
//! it is bit-identical on every metric series.
//!
//! ## Attribution contract
//!
//! Each cycle's CPU-satisfaction deficit (MHz of discounted offered
//! work the placement did not cover) is decomposed into named causes by
//! a *sequential min-chain* — outage loss, routing-discount mismatch,
//! pipeline staleness, change-budget exhaustion, overbooking clip, and
//! a cluster-capacity remainder — so the parts always sum back to the
//! total deficit. The invariant is checked by `tests/slo_audit.rs` on
//! every corpus preset.

use serde::{Deserialize, Serialize};

/// Declarative per-app service-level objective, attached to an app in
/// `ScenarioSpec` as an optional `slo` block. Every field defaults, so
/// partial blocks (`{"rt_bound_secs": 0.5}`, an explicit `null`, a
/// pre-SLO spec file with no block at all) parse; ranges are checked by
/// [`SloSpec::validate`], which the owning spec's `validate` calls.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SloSpec {
    /// Target satisfied-CPU fraction per cycle (`0 < target ≤ 1`): the
    /// cycle complies when `allocated / offered ≥ target`.
    pub target_satisfied: f64,
    /// Response-time bound in seconds; `0.0` disables the bound.
    pub rt_bound_secs: f64,
    /// Minimum acceptable utility; `-1.0` (the utility floor) disables
    /// the bound.
    pub min_utility: f64,
    /// Error budget: the tolerated fraction of violating cycles. Burn
    /// rate 1.0 means violations are arriving exactly at budget.
    pub error_budget: f64,
    /// Width (in cycles) of the sliding worst-window statistic.
    pub window_cycles: u32,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            target_satisfied: 0.95,
            rt_bound_secs: 0.0,
            min_utility: -1.0,
            error_budget: 0.1,
            window_cycles: 6,
        }
    }
}

impl SloSpec {
    /// Validate the spec's ranges, returning a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.target_satisfied > 0.0 && self.target_satisfied <= 1.0) {
            return Err(format!(
                "slo.target_satisfied must be in (0, 1], got {}",
                self.target_satisfied
            ));
        }
        if self.rt_bound_secs < 0.0 {
            return Err(format!(
                "slo.rt_bound_secs must be ≥ 0, got {}",
                self.rt_bound_secs
            ));
        }
        if !(self.error_budget > 0.0 && self.error_budget <= 1.0) {
            return Err(format!(
                "slo.error_budget must be in (0, 1], got {}",
                self.error_budget
            ));
        }
        if self.window_cycles == 0 {
            return Err("slo.window_cycles must be ≥ 1".to_string());
        }
        Ok(())
    }
}

/// One control cycle's SLO inputs for one app, measured by the
/// simulator after actuation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloSample {
    /// Satisfied-CPU fraction: `allocated / offered`, clamped to
    /// `[0, 1]`; `1.0` when the app offered no work.
    pub satisfied: f64,
    /// MHz of discounted offered work the placement did not cover.
    pub deficit_mhz: f64,
    /// Mean response time over the cycle, when the app completed
    /// requests this cycle.
    pub rt_secs: Option<f64>,
    /// Utility over the cycle, when measured.
    pub utility: Option<f64>,
}

/// Named-cause decomposition of one cycle's deficit (all MHz). Built by
/// the simulator's attribution pass as a sequential min-chain, so
/// [`Attribution::total`] equals the sample's deficit by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Capacity lost to nodes that were offline this cycle.
    pub outage_mhz: f64,
    /// Offered work the routing tier discounted away (cold instances,
    /// deflected shares) relative to the raw arrival stream.
    pub routing_mhz: f64,
    /// Deficit attributed to enacting a plan ≥ 1 cycle stale
    /// (pipelined control), scaled by staleness `s/(s+1)`.
    pub staleness_mhz: f64,
    /// Deficit left because the cycle's change budget was exhausted
    /// while online capacity still had headroom.
    pub budget_mhz: f64,
    /// Placed CPU the overbooking model's true-usage bite clipped away
    /// this cycle (allocated minus delivered, when overcommitted nodes
    /// could not honor their advertised capacity).
    pub overcommit_mhz: f64,
    /// The remainder: genuine cluster capacity shortfall (and solver
    /// imperfection). Takes whatever the other causes did not, keeping
    /// the sum exact.
    pub capacity_mhz: f64,
}

impl Attribution {
    /// Sum of all attributed parts — equals the cycle's deficit.
    pub fn total(&self) -> f64 {
        self.outage_mhz
            + self.routing_mhz
            + self.staleness_mhz
            + self.budget_mhz
            + self.overcommit_mhz
            + self.capacity_mhz
    }

    /// Fold another attribution into this one, component-wise.
    pub fn accumulate(&mut self, other: &Attribution) {
        self.outage_mhz += other.outage_mhz;
        self.routing_mhz += other.routing_mhz;
        self.staleness_mhz += other.staleness_mhz;
        self.budget_mhz += other.budget_mhz;
        self.overcommit_mhz += other.overcommit_mhz;
        self.capacity_mhz += other.capacity_mhz;
    }
}

/// Per-app SLO state folded cycle by cycle: compliance counts, an
/// error-budget burn rate, a sliding worst-window, and the accumulated
/// deficit with its cause breakdown.
#[derive(Clone, Debug)]
pub struct SloTracker {
    spec: SloSpec,
    cycles: u64,
    violations: u64,
    /// Ring of the last `window_cycles` compliance outcomes.
    window: Vec<bool>,
    window_pos: usize,
    window_violations: u32,
    worst_window: u32,
    total_deficit_mhz: f64,
    attribution: Attribution,
    last: Option<(SloSample, Attribution)>,
}

impl SloTracker {
    /// A fresh tracker for one app.
    pub fn new(spec: SloSpec) -> Self {
        SloTracker {
            spec,
            cycles: 0,
            violations: 0,
            window: vec![false; spec.window_cycles.max(1) as usize],
            window_pos: 0,
            window_violations: 0,
            worst_window: 0,
            total_deficit_mhz: 0.0,
            attribution: Attribution::default(),
            last: None,
        }
    }

    /// Whether `sample` violates this tracker's spec.
    pub fn violates(&self, sample: &SloSample) -> bool {
        if sample.satisfied < self.spec.target_satisfied {
            return true;
        }
        if self.spec.rt_bound_secs > 0.0 {
            if let Some(rt) = sample.rt_secs {
                if rt > self.spec.rt_bound_secs {
                    return true;
                }
            }
        }
        if self.spec.min_utility > -1.0 {
            if let Some(u) = sample.utility {
                if u < self.spec.min_utility {
                    return true;
                }
            }
        }
        false
    }

    /// Fold one cycle's sample and its deficit attribution in.
    pub fn observe(&mut self, sample: &SloSample, attr: &Attribution) {
        self.cycles += 1;
        let bad = self.violates(sample);
        if bad {
            self.violations += 1;
        }
        // Sliding window: replace the outgoing outcome with this one.
        if self.window[self.window_pos] {
            self.window_violations -= 1;
        }
        self.window[self.window_pos] = bad;
        if bad {
            self.window_violations += 1;
        }
        self.window_pos = (self.window_pos + 1) % self.window.len();
        self.worst_window = self.worst_window.max(self.window_violations);
        self.total_deficit_mhz += sample.deficit_mhz;
        self.attribution.accumulate(attr);
        self.last = Some((*sample, *attr));
    }

    /// The spec this tracker enforces.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Cycles observed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles that violated the SLO.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Fraction of compliant cycles (1.0 before any observation).
    pub fn compliance(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            1.0 - self.violations as f64 / self.cycles as f64
        }
    }

    /// Error-budget burn rate: observed violation rate over the
    /// budgeted rate. 1.0 burns exactly at budget; above 1.0 the app is
    /// eating into its budget faster than allowed.
    pub fn burn_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.violations as f64 / self.cycles as f64) / self.spec.error_budget
        }
    }

    /// Most violations seen in any `window_cycles`-wide sliding window.
    pub fn worst_window(&self) -> u32 {
        self.worst_window
    }

    /// Accumulated deficit across all observed cycles, MHz.
    pub fn total_deficit_mhz(&self) -> f64 {
        self.total_deficit_mhz
    }

    /// Accumulated per-cause deficit attribution.
    pub fn attribution(&self) -> &Attribution {
        &self.attribution
    }

    /// The most recent sample and its attribution, if any.
    pub fn last(&self) -> Option<&(SloSample, Attribution)> {
        self.last.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn sample(satisfied: f64, deficit: f64) -> SloSample {
        SloSample {
            satisfied,
            deficit_mhz: deficit,
            rt_secs: None,
            utility: None,
        }
    }

    #[test]
    fn defaults_comply_on_full_satisfaction() {
        let mut t = SloTracker::new(SloSpec::default());
        t.observe(&sample(1.0, 0.0), &Attribution::default());
        assert_eq!(t.violations(), 0);
        assert_eq!(t.compliance(), 1.0);
        assert_eq!(t.burn_rate(), 0.0);
    }

    #[test]
    fn satisfaction_below_target_violates() {
        let mut t = SloTracker::new(SloSpec::default());
        t.observe(&sample(0.90, 500.0), &Attribution::default());
        t.observe(&sample(0.99, 0.0), &Attribution::default());
        assert_eq!(t.violations(), 1);
        assert_eq!(t.compliance(), 0.5);
        // Budget 0.1, observed rate 0.5 → burning 5× too fast.
        assert!((t.burn_rate() - 5.0).abs() < 1e-12);
        assert_eq!(t.total_deficit_mhz(), 500.0);
    }

    #[test]
    fn rt_and_utility_bounds_only_fire_when_enabled() {
        let spec = SloSpec {
            rt_bound_secs: 0.5,
            min_utility: 0.0,
            ..SloSpec::default()
        };
        let t = SloTracker::new(spec);
        let mut s = sample(1.0, 0.0);
        assert!(!t.violates(&s));
        s.rt_secs = Some(0.9);
        assert!(t.violates(&s));
        s.rt_secs = Some(0.1);
        s.utility = Some(-0.5);
        assert!(t.violates(&s));
        // Disabled bounds ignore the same sample.
        let t = SloTracker::new(SloSpec::default());
        assert!(!t.violates(&s));
    }

    #[test]
    fn worst_window_tracks_the_densest_stretch() {
        let spec = SloSpec {
            window_cycles: 3,
            ..SloSpec::default()
        };
        let mut t = SloTracker::new(spec);
        for ok in [true, false, false, true, true, true] {
            t.observe(
                &sample(if ok { 1.0 } else { 0.5 }, 0.0),
                &Attribution::default(),
            );
        }
        assert_eq!(t.worst_window(), 2);
        assert_eq!(t.violations(), 2);
    }

    #[test]
    fn attribution_accumulates_and_sums() {
        let mut t = SloTracker::new(SloSpec::default());
        let a = Attribution {
            outage_mhz: 100.0,
            routing_mhz: 50.0,
            staleness_mhz: 0.0,
            budget_mhz: 15.0,
            overcommit_mhz: 10.0,
            capacity_mhz: 25.0,
        };
        t.observe(&sample(0.5, 200.0), &a);
        t.observe(&sample(0.5, 200.0), &a);
        assert_eq!(t.attribution().total(), 400.0);
        assert_eq!(t.total_deficit_mhz(), 400.0);
    }

    #[test]
    fn spec_serde_round_trips_and_fills_defaults() {
        let spec = SloSpec {
            target_satisfied: 0.9,
            rt_bound_secs: 0.25,
            ..SloSpec::default()
        };
        let back = SloSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back, spec);
        // A partial block keeps defaults for everything it omits.
        let partial = Value::Obj(vec![("target_satisfied".to_string(), Value::Float(0.8))]);
        let got = SloSpec::from_value(&partial).unwrap();
        assert_eq!(got.target_satisfied, 0.8);
        assert_eq!(got.window_cycles, SloSpec::default().window_cycles);
        assert_eq!(got.error_budget, SloSpec::default().error_budget);
    }

    #[test]
    fn spec_validation_rejects_bad_ranges() {
        assert!(SloSpec {
            target_satisfied: 0.0,
            ..SloSpec::default()
        }
        .validate()
        .is_err());
        assert!(SloSpec {
            error_budget: 0.0,
            ..SloSpec::default()
        }
        .validate()
        .is_err());
        assert!(SloSpec {
            window_cycles: 0,
            ..SloSpec::default()
        }
        .validate()
        .is_err());
        // Parsing checks types only; the range check is `validate`'s.
        let bad = Value::Obj(vec![("target_satisfied".to_string(), Value::Float(2.0))]);
        assert!(SloSpec::from_value(&bad).unwrap().validate().is_err());
    }
}
