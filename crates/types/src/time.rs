//! Simulation time: absolute instants and durations, in seconds.
//!
//! The paper's controller operates on a 600-second control cycle over a
//! ~72 000-second experiment; second (and sub-second) resolution as `f64`
//! is ample and keeps fluid-rate arithmetic (`work = power × time`) exact
//! enough for the solvers downstream.

use crate::units::fcmp;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in seconds since start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(pub f64);

/// A span of simulation time, in seconds. May be zero but never negative
/// when produced by this crate's constructors.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(pub f64);

impl SimTime {
    /// The experiment origin.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A sentinel for "never happens" (e.g. a job that cannot complete at
    /// zero allocation). Compares greater than every finite instant.
    pub const NEVER: SimTime = SimTime(f64::INFINITY);

    /// Construct from seconds since the experiment origin.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime must not be NaN");
        SimTime(secs)
    }

    /// Seconds since the experiment origin.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `true` for the [`SimTime::NEVER`] sentinel.
    #[inline]
    pub fn is_never(self) -> bool {
        self.0.is_infinite()
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Total-order comparison (NaN-free inputs assumed).
    #[inline]
    pub fn total_cmp(self, other: SimTime) -> Ordering {
        fcmp(self.0, other.0)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0.0);
    /// Unbounded span (pairs with [`SimTime::NEVER`]).
    pub const INFINITE: SimDuration = SimDuration(f64::INFINITY);

    /// Construct from seconds; negative inputs are clamped to zero.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimDuration must not be NaN");
        SimDuration(secs.max(0.0))
    }

    /// Construct from whole hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Seconds in this span.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// `true` if the span is (numerically) zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0.abs() < 1e-9
    }

    /// `true` for the [`SimDuration::INFINITE`] sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Total-order comparison.
    #[inline]
    pub fn total_cmp(self, other: SimDuration) -> Ordering {
        fcmp(self.0, other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_never() {
            write!(f, "t=never")
        } else {
            write!(f, "t={:.1}s", self.0)
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            write!(f, "inf s")
        } else {
            write!(f, "{:.1}s", self.0)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// Difference between two instants, clamped at zero (a duration is
    /// never negative).
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = (self.0 - rhs.0).max(0.0);
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime::from_secs(600.0) + SimDuration::from_secs(600.0);
        assert_eq!(t.as_secs(), 1200.0);
    }

    #[test]
    fn instant_difference_clamps_at_zero() {
        let a = SimTime::from_secs(100.0);
        let b = SimTime::from_secs(40.0);
        assert_eq!((a - b).as_secs(), 60.0);
        assert_eq!((b - a).as_secs(), 0.0);
        assert_eq!(b.since(a), SimDuration::ZERO);
    }

    #[test]
    fn never_sentinel_dominates() {
        assert!(SimTime::NEVER.is_never());
        assert!(SimTime::NEVER > SimTime::from_secs(1e12));
        assert!((SimTime::NEVER - SimTime::ZERO).is_infinite());
    }

    #[test]
    fn duration_constructors_convert_units() {
        assert_eq!(SimDuration::from_hours(2.0).as_secs(), 7200.0);
        assert_eq!(SimDuration::from_secs(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_ratio_is_dimensionless() {
        let cycle = SimDuration::from_secs(600.0);
        let horizon = SimDuration::from_hours(20.0);
        assert_eq!(horizon / cycle, 120.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(12.34).to_string(), "t=12.3s");
        assert_eq!(SimTime::NEVER.to_string(), "t=never");
        assert_eq!(SimDuration::from_secs(600.0).to_string(), "600.0s");
        assert_eq!(SimDuration::INFINITE.to_string(), "inf s");
    }

    proptest! {
        #[test]
        fn prop_since_is_nonnegative(a in 0.0..1e9f64, b in 0.0..1e9f64) {
            prop_assert!(SimTime::from_secs(a).since(SimTime::from_secs(b)).as_secs() >= 0.0);
        }

        #[test]
        fn prop_add_then_since_roundtrips(t in 0.0..1e9f64, d in 0.0..1e6f64) {
            let start = SimTime::from_secs(t);
            let end = start + SimDuration::from_secs(d);
            prop_assert!((end.since(start).as_secs() - d).abs() < 1e-6 * d.max(1.0));
        }

        #[test]
        fn prop_duration_sub_never_negative(a in 0.0..1e6f64, b in 0.0..1e6f64) {
            let d = SimDuration::from_secs(a) - SimDuration::from_secs(b);
            prop_assert!(d.as_secs() >= 0.0);
        }
    }
}
