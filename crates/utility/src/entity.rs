//! The [`UtilityOfCpu`] abstraction: monotone non-decreasing utility as a
//! function of allocated CPU power, with inverse demand queries.
//!
//! The equalizer (see [`crate::equalize`]) sees every transactional
//! application and every long-running job through this one interface; the
//! implementations live where the domain knowledge lives (queueing model
//! in `slaq-perfmodel`, completion-time projection in `slaq-jobs`), each
//! in closed form. The one implementation in this file is a test
//! fixture, compiled under `#[cfg(test)]` only: the capped line the
//! equalizer's tests divide CPU among.
//!
//! The equalizer reads a curve's bounds — demand cap, saturation
//! utility, zero-CPU utility — once per entity, through
//! [`UtilityOfCpu::saturation`], when the [`crate::EqEntity`] is built.
//! While it runs it asks the curve only for `utility` and, at levels
//! strictly between the kept bounds, for the in-range inverse
//! [`UtilityOfCpu::cpu_for_utility_in_range`], which an implementation
//! may answer without re-deriving those bounds.

use slaq_types::CpuMhz;

/// A monotone non-decreasing mapping from allocated CPU power to utility.
///
/// Contract (checked by the property tests in this crate and relied upon by
/// the equalization solvers):
///
/// * `utility` is non-decreasing in `cpu` and constant at
///   `max_utility()` for `cpu ≥ max_useful_cpu()`;
/// * `cpu_for_utility(u)` returns the *least* CPU reaching utility ≥ `u`
///   (`None` iff `u > max_utility()`), so
///   `utility(cpu_for_utility(u)) ≥ u − ε`.
pub trait UtilityOfCpu {
    /// Utility obtained from an allocation of `cpu`.
    fn utility(&self, cpu: CpuMhz) -> f64;

    /// Least CPU allocation achieving utility ≥ `u`, or `None` if `u`
    /// exceeds [`UtilityOfCpu::max_utility`].
    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz>;

    /// [`UtilityOfCpu::cpu_for_utility`] for a level the caller has
    /// already placed strictly inside the curve's bounds:
    /// `utility_at_zero() < u < max_utility()`, compared against the
    /// values [`UtilityOfCpu::saturation`] returns. An override may skip
    /// the checks that range makes moot but must return what
    /// `cpu_for_utility(u)` returns there, bit for bit.
    fn cpu_for_utility_in_range(&self, u: f64) -> Option<CpuMhz> {
        self.cpu_for_utility(u)
    }

    /// The allocation beyond which utility stops improving — the entity's
    /// *demand for maximum utility* (what Figure 2 plots per workload).
    fn max_useful_cpu(&self) -> CpuMhz;

    /// Utility at [`UtilityOfCpu::max_useful_cpu`] (the saturation level).
    fn max_utility(&self) -> f64 {
        self.utility(self.max_useful_cpu())
    }

    /// Utility at zero allocation.
    fn utility_at_zero(&self) -> f64 {
        self.utility(CpuMhz::ZERO)
    }

    /// The curve's three bounds in one call: `(max_useful_cpu(),
    /// max_utility(), utility_at_zero())`. An override may share work
    /// between them but must return the same three values bit for bit;
    /// [`crate::EqEntity::new`] reads them through this method once and
    /// the equalizers never ask the curve again.
    fn saturation(&self) -> (CpuMhz, f64, f64) {
        (
            self.max_useful_cpu(),
            self.max_utility(),
            self.utility_at_zero(),
        )
    }

    /// Whether the curve's demand is non-decreasing in the level *as
    /// floats*: for levels `u ≤ v`, the CPU the equalizer asks of this
    /// curve at `u` — zero at or below `utility_at_zero()`, the demand
    /// cap at or above `max_utility()`, the in-range inverse between —
    /// is never more than at `v`, and never NaN. A curve that says
    /// `true` lets the equalizer decide a bisection step from a sum it
    /// made at another level instead of summing again
    /// ([`crate::equalize`]); one that cannot promise it says `false`,
    /// the default, and gets every step summed.
    fn is_monotone(&self) -> bool {
        false
    }
}

/// Analytic utility that rises linearly from `u_zero` at zero allocation to
/// `u_cap` at `cap`, then saturates. The simplest useful entity.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CappedLinearUtility {
    /// Utility at zero allocation.
    pub u_zero: f64,
    /// Utility at (and beyond) `cap`.
    pub u_cap: f64,
    /// The saturating allocation (demand for maximum utility).
    pub cap: CpuMhz,
}

#[cfg(test)]
impl CappedLinearUtility {
    /// Create; requires `u_cap ≥ u_zero` and `cap ≥ 0`.
    pub fn new(u_zero: f64, u_cap: f64, cap: CpuMhz) -> Option<Self> {
        (u_cap >= u_zero && cap.as_f64() >= 0.0 && u_zero.is_finite() && u_cap.is_finite())
            .then_some(CappedLinearUtility { u_zero, u_cap, cap })
    }
}

#[cfg(test)]
impl UtilityOfCpu for CappedLinearUtility {
    fn utility(&self, cpu: CpuMhz) -> f64 {
        if self.cap.is_zero() {
            return self.u_cap;
        }
        let t = (cpu.as_f64() / self.cap.as_f64()).clamp(0.0, 1.0);
        self.u_zero + t * (self.u_cap - self.u_zero)
    }

    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz> {
        if u > self.u_cap {
            return None;
        }
        if u <= self.u_zero || self.cap.is_zero() {
            return Some(CpuMhz::ZERO);
        }
        let t = (u - self.u_zero) / (self.u_cap - self.u_zero);
        Some(CpuMhz::new(t * self.cap.as_f64()))
    }

    fn max_useful_cpu(&self) -> CpuMhz {
        if (self.u_cap - self.u_zero).abs() < f64::EPSILON {
            CpuMhz::ZERO // flat curve: no CPU is useful
        } else {
            self.cap
        }
    }

    fn max_utility(&self) -> f64 {
        self.u_cap
    }

    fn utility_at_zero(&self) -> f64 {
        self.u_zero
    }

    /// The line's inverse climbs to `cap`, except on a curve flat to
    /// within `f64::EPSILON` but not exactly: its demand cap is zero
    /// while the inverse below `u_cap` is not.
    fn is_monotone(&self) -> bool {
        let rise = (self.u_cap - self.u_zero).abs();
        rise == 0.0 || rise >= f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn capped_linear_basicss() {
        let c = CappedLinearUtility::new(0.0, 1.0, CpuMhz::new(3000.0)).unwrap();
        assert_eq!(c.utility(CpuMhz::new(1500.0)), 0.5);
        assert_eq!(c.utility(CpuMhz::new(9000.0)), 1.0);
        assert_eq!(c.cpu_for_utility(0.5), Some(CpuMhz::new(1500.0)));
        assert_eq!(c.cpu_for_utility(1.1), None);
        assert_eq!(c.max_useful_cpu(), CpuMhz::new(3000.0));
    }

    #[test]
    fn capped_linear_flat_curve_has_zero_useful_cpu() {
        let c = CappedLinearUtility::new(0.6, 0.6, CpuMhz::new(3000.0)).unwrap();
        assert_eq!(c.max_useful_cpu(), CpuMhz::ZERO);
        assert_eq!(c.utility(CpuMhz::ZERO), 0.6);
        assert_eq!(c.cpu_for_utility(0.6), Some(CpuMhz::ZERO));
    }

    #[test]
    fn capped_linear_rejects_decreasing() {
        assert!(CappedLinearUtility::new(0.5, 0.1, CpuMhz::new(100.0)).is_none());
    }

    proptest! {
        #[test]
        fn prop_capped_linear_inverse_roundtrip(
            u_zero in -1.0..0.5f64,
            gain in 0.01..1.0f64,
            cap in 1.0..10_000.0f64,
            q in 0.0..1.0f64,
        ) {
            let u_cap = (u_zero + gain).min(1.0);
            let c = CappedLinearUtility::new(u_zero, u_cap, CpuMhz::new(cap)).unwrap();
            let target = u_zero + q * (u_cap - u_zero);
            let cpu = c.cpu_for_utility(target).unwrap();
            prop_assert!(c.utility(cpu) >= target - 1e-9);
            prop_assert!(cpu.as_f64() <= cap + 1e-9);
        }
    }
}
