//! Capacity units: CPU power in MHz and memory in MB.
//!
//! CPU power is modelled as a *fluid* quantity ([`CpuMhz`] wraps `f64`):
//! the paper's hypothetical-utility construction explicitly assumes that
//! "the available CPU power may be arbitrarily finely allocated among the
//! jobs", and hypervisor CPU shares are fractional in practice. Memory is
//! integral ([`MemMb`] wraps `u64`): an instance either fits or it does not,
//! which is exactly the constraint that limits the paper's testbed to three
//! jobs per node.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Total-order comparison for `f64` values that are known to be non-NaN.
///
/// All fluid quantities in this workspace are derived from finite inputs by
/// finite arithmetic; a NaN indicates a logic error, so we surface it loudly
/// in debug builds and fall back to `Ordering::Equal` in release builds
/// (keeping sorts total rather than panicking mid-experiment).
#[inline]
pub fn fcmp(a: f64, b: f64) -> Ordering {
    debug_assert!(!a.is_nan() && !b.is_nan(), "NaN reached an ordered context");
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// CPU power in megahertz.
///
/// A node with four 3000 MHz processors has `CpuMhz(12_000.0)` of power; a
/// job whose maximum speed is a single processor demands at most
/// `CpuMhz(3000.0)`. Fractional values represent hypervisor CPU shares.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CpuMhz(pub f64);

impl CpuMhz {
    /// Zero CPU power.
    pub const ZERO: CpuMhz = CpuMhz(0.0);

    /// Construct from a raw MHz value.
    #[inline]
    pub fn new(mhz: f64) -> Self {
        debug_assert!(mhz.is_finite(), "CpuMhz must be finite, got {mhz}");
        CpuMhz(mhz)
    }

    /// Raw MHz value.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `true` if this is (numerically) zero or negative-epsilon noise.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0.abs() < 1e-9
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: CpuMhz) -> CpuMhz {
        CpuMhz(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: CpuMhz) -> CpuMhz {
        CpuMhz(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: CpuMhz, hi: CpuMhz) -> CpuMhz {
        CpuMhz(self.0.clamp(lo.0, hi.0))
    }

    /// Clamp tiny negative rounding noise up to exactly zero.
    #[inline]
    pub fn max_zero(self) -> CpuMhz {
        if self.0 < 0.0 {
            CpuMhz(0.0)
        } else {
            self
        }
    }

    /// Saturating subtraction: never goes below zero.
    #[inline]
    pub fn saturating_sub(self, other: CpuMhz) -> CpuMhz {
        CpuMhz((self.0 - other.0).max(0.0))
    }

    /// `true` if `self` is within `tol` MHz of `other`.
    #[inline]
    pub fn approx_eq(self, other: CpuMhz, tol: f64) -> bool {
        (self.0 - other.0).abs() <= tol
    }

    /// Total-order comparison (see [`fcmp`]).
    #[inline]
    pub fn total_cmp(self, other: CpuMhz) -> Ordering {
        fcmp(self.0, other.0)
    }
}

impl fmt::Display for CpuMhz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} MHz", self.0)
    }
}

impl Add for CpuMhz {
    type Output = CpuMhz;
    #[inline]
    fn add(self, rhs: CpuMhz) -> CpuMhz {
        CpuMhz(self.0 + rhs.0)
    }
}

impl AddAssign for CpuMhz {
    #[inline]
    fn add_assign(&mut self, rhs: CpuMhz) {
        self.0 += rhs.0;
    }
}

impl Sub for CpuMhz {
    type Output = CpuMhz;
    #[inline]
    fn sub(self, rhs: CpuMhz) -> CpuMhz {
        CpuMhz(self.0 - rhs.0)
    }
}

impl SubAssign for CpuMhz {
    #[inline]
    fn sub_assign(&mut self, rhs: CpuMhz) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for CpuMhz {
    type Output = CpuMhz;
    #[inline]
    fn mul(self, rhs: f64) -> CpuMhz {
        CpuMhz(self.0 * rhs)
    }
}

impl Div<f64> for CpuMhz {
    type Output = CpuMhz;
    #[inline]
    fn div(self, rhs: f64) -> CpuMhz {
        CpuMhz(self.0 / rhs)
    }
}

impl Div for CpuMhz {
    type Output = f64;
    #[inline]
    fn div(self, rhs: CpuMhz) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for CpuMhz {
    type Output = CpuMhz;
    #[inline]
    fn neg(self) -> CpuMhz {
        CpuMhz(-self.0)
    }
}

impl Sum for CpuMhz {
    fn sum<I: Iterator<Item = CpuMhz>>(iter: I) -> CpuMhz {
        CpuMhz(iter.map(|c| c.0).sum())
    }
}

impl<'a> Sum<&'a CpuMhz> for CpuMhz {
    fn sum<I: Iterator<Item = &'a CpuMhz>>(iter: I) -> CpuMhz {
        CpuMhz(iter.map(|c| c.0).sum())
    }
}

/// An amount of computational work, in MHz·seconds (megacycles).
///
/// `Work = CpuMhz × SimDuration`: a job with `Work(43_200_000.0)` needs
/// 4 hours on a 3000 MHz processor. The unit also expresses per-request
/// service demands in the transactional queueing model.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Work(pub f64);

impl Work {
    /// No work.
    pub const ZERO: Work = Work(0.0);

    /// Construct from raw MHz·seconds.
    #[inline]
    pub fn new(mhz_secs: f64) -> Self {
        debug_assert!(mhz_secs.is_finite(), "Work must be finite, got {mhz_secs}");
        Work(mhz_secs)
    }

    /// Work done by `power` sustained for `secs` seconds.
    #[inline]
    pub fn from_power_secs(power: CpuMhz, secs: f64) -> Self {
        Work(power.as_f64() * secs)
    }

    /// Raw MHz·seconds.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `true` if the remaining work is (numerically) zero or less.
    #[inline]
    pub fn is_done(self) -> bool {
        self.0 <= 1e-9
    }

    /// Seconds needed to finish this work at sustained `power`
    /// (`f64::INFINITY` when `power` is zero).
    #[inline]
    pub fn secs_at(self, power: CpuMhz) -> f64 {
        if power.is_zero() {
            f64::INFINITY
        } else {
            (self.0 / power.as_f64()).max(0.0)
        }
    }

    /// Power needed to finish this work in `secs` seconds
    /// (`f64::INFINITY` when `secs` is zero and work remains).
    #[inline]
    pub fn power_for_secs(self, secs: f64) -> CpuMhz {
        if self.is_done() {
            CpuMhz::ZERO
        } else if secs <= 0.0 {
            CpuMhz(f64::INFINITY)
        } else {
            CpuMhz(self.0 / secs)
        }
    }

    /// Saturating subtraction: never goes below zero.
    #[inline]
    pub fn saturating_sub(self, other: Work) -> Work {
        Work((self.0 - other.0).max(0.0))
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: Work) -> Work {
        Work(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: Work) -> Work {
        Work(self.0.max(other.0))
    }
}

impl fmt::Display for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0} MHz·s", self.0)
    }
}

impl Add for Work {
    type Output = Work;
    #[inline]
    fn add(self, rhs: Work) -> Work {
        Work(self.0 + rhs.0)
    }
}

impl AddAssign for Work {
    #[inline]
    fn add_assign(&mut self, rhs: Work) {
        self.0 += rhs.0;
    }
}

impl Sub for Work {
    type Output = Work;
    #[inline]
    fn sub(self, rhs: Work) -> Work {
        Work(self.0 - rhs.0)
    }
}

impl Mul<f64> for Work {
    type Output = Work;
    #[inline]
    fn mul(self, rhs: f64) -> Work {
        Work(self.0 * rhs)
    }
}

impl Div<f64> for Work {
    type Output = Work;
    #[inline]
    fn div(self, rhs: f64) -> Work {
        Work(self.0 / rhs)
    }
}

impl Div for Work {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Work) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        Work(iter.map(|w| w.0).sum())
    }
}

/// Memory in megabytes (integral).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MemMb(pub u64);

impl MemMb {
    /// Zero memory.
    pub const ZERO: MemMb = MemMb(0);

    /// Construct from a raw MB value.
    #[inline]
    pub fn new(mb: u64) -> Self {
        MemMb(mb)
    }

    /// Raw MB value.
    #[inline]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: MemMb) -> MemMb {
        MemMb(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, other: MemMb) -> Option<MemMb> {
        self.0.checked_sub(other.0).map(MemMb)
    }

    /// `true` if a footprint of `other` fits within `self`.
    #[inline]
    pub fn fits(self, other: MemMb) -> bool {
        other.0 <= self.0
    }

    /// Element-wise minimum.
    #[inline]
    pub fn min(self, other: MemMb) -> MemMb {
        MemMb(self.0.min(other.0))
    }

    /// Element-wise maximum.
    #[inline]
    pub fn max(self, other: MemMb) -> MemMb {
        MemMb(self.0.max(other.0))
    }
}

impl fmt::Display for MemMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

impl Add for MemMb {
    type Output = MemMb;
    #[inline]
    fn add(self, rhs: MemMb) -> MemMb {
        MemMb(self.0 + rhs.0)
    }
}

impl AddAssign for MemMb {
    #[inline]
    fn add_assign(&mut self, rhs: MemMb) {
        self.0 += rhs.0;
    }
}

impl Sub for MemMb {
    type Output = MemMb;
    #[inline]
    fn sub(self, rhs: MemMb) -> MemMb {
        MemMb(self.0 - rhs.0)
    }
}

impl SubAssign for MemMb {
    #[inline]
    fn sub_assign(&mut self, rhs: MemMb) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for MemMb {
    type Output = MemMb;
    #[inline]
    fn mul(self, rhs: u64) -> MemMb {
        MemMb(self.0 * rhs)
    }
}

impl Sum for MemMb {
    fn sum<I: Iterator<Item = MemMb>>(iter: I) -> MemMb {
        MemMb(iter.map(|m| m.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cpu_arithmetic_roundtrips() {
        let a = CpuMhz::new(3000.0);
        let b = CpuMhz::new(1250.5);
        assert_eq!((a + b - b).as_f64(), 3000.0);
        assert_eq!((a * 2.0).as_f64(), 6000.0);
        assert_eq!((a / 2.0).as_f64(), 1500.0);
        assert!((a / b - 3000.0 / 1250.5).abs() < 1e-12);
    }

    #[test]
    fn cpu_saturating_sub_floors_at_zero() {
        let a = CpuMhz::new(100.0);
        let b = CpuMhz::new(250.0);
        assert_eq!(a.saturating_sub(b), CpuMhz::ZERO);
        assert_eq!(b.saturating_sub(a).as_f64(), 150.0);
    }

    #[test]
    fn cpu_zero_detection_tolerates_noise() {
        assert!(CpuMhz::new(0.0).is_zero());
        assert!(CpuMhz::new(1e-12).is_zero());
        assert!(CpuMhz::new(-1e-12).is_zero());
        assert!(!CpuMhz::new(0.001).is_zero());
    }

    #[test]
    fn cpu_max_zero_clamps_negative_noise() {
        assert_eq!(CpuMhz::new(-1e-9).max_zero(), CpuMhz::ZERO);
        assert_eq!(CpuMhz::new(5.0).max_zero().as_f64(), 5.0);
    }

    #[test]
    fn cpu_sum_over_iterator() {
        let parts = [CpuMhz::new(1.0), CpuMhz::new(2.5), CpuMhz::new(3.5)];
        let total: CpuMhz = parts.iter().sum();
        assert_eq!(total.as_f64(), 7.0);
        let total2: CpuMhz = parts.into_iter().sum();
        assert_eq!(total2.as_f64(), 7.0);
    }

    #[test]
    fn cpu_display_formats_with_unit() {
        assert_eq!(CpuMhz::new(1234.56).to_string(), "1234.6 MHz");
    }

    #[test]
    fn mem_fits_is_inclusive() {
        assert!(MemMb::new(4096).fits(MemMb::new(4096)));
        assert!(MemMb::new(4096).fits(MemMb::new(1024)));
        assert!(!MemMb::new(1024).fits(MemMb::new(4096)));
    }

    #[test]
    fn mem_checked_sub_detects_underflow() {
        assert_eq!(
            MemMb::new(10).checked_sub(MemMb::new(4)),
            Some(MemMb::new(6))
        );
        assert_eq!(MemMb::new(4).checked_sub(MemMb::new(10)), None);
        assert_eq!(MemMb::new(4).saturating_sub(MemMb::new(10)), MemMb::ZERO);
    }

    #[test]
    fn mem_display_formats_with_unit() {
        assert_eq!(MemMb::new(2048).to_string(), "2048 MB");
    }

    #[test]
    fn work_power_time_identities() {
        let w = Work::from_power_secs(CpuMhz::new(3000.0), 14_400.0);
        assert_eq!(w.as_f64(), 43_200_000.0);
        assert_eq!(w.secs_at(CpuMhz::new(3000.0)), 14_400.0);
        assert_eq!(w.secs_at(CpuMhz::new(6000.0)), 7_200.0);
        assert_eq!(w.secs_at(CpuMhz::ZERO), f64::INFINITY);
        assert_eq!(w.power_for_secs(14_400.0), CpuMhz::new(3000.0));
    }

    #[test]
    fn work_done_detection() {
        assert!(Work::ZERO.is_done());
        assert!(Work::new(1e-12).is_done());
        assert!(!Work::new(1.0).is_done());
        assert!(Work::new(5.0).saturating_sub(Work::new(10.0)).is_done());
        assert_eq!(Work::ZERO.power_for_secs(0.0), CpuMhz::ZERO);
        assert_eq!(Work::new(10.0).power_for_secs(0.0).as_f64(), f64::INFINITY);
    }

    #[test]
    fn work_display_and_arithmetic() {
        assert_eq!(Work::new(1234.0).to_string(), "1234 MHz·s");
        assert_eq!((Work::new(10.0) + Work::new(5.0)).as_f64(), 15.0);
        assert_eq!((Work::new(10.0) * 0.5).as_f64(), 5.0);
        assert_eq!(Work::new(10.0) / Work::new(4.0), 2.5);
        let total: Work = [Work::new(1.0), Work::new(2.0)].into_iter().sum();
        assert_eq!(total.as_f64(), 3.0);
    }

    #[test]
    fn fcmp_is_a_total_order_on_finite_values() {
        assert_eq!(fcmp(1.0, 2.0), Ordering::Less);
        assert_eq!(fcmp(2.0, 1.0), Ordering::Greater);
        assert_eq!(fcmp(1.0, 1.0), Ordering::Equal);
    }

    #[test]
    fn serde_transparent_roundtrip() {
        let c = CpuMhz::new(123.25);
        let s = serde_json::to_string(&c).unwrap();
        assert_eq!(s, "123.25");
        let back: CpuMhz = serde_json::from_str(&s).unwrap();
        assert_eq!(back, c);
        let m = MemMb::new(512);
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(s, "512");
        let back: MemMb = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    proptest! {
        #[test]
        fn prop_cpu_add_commutes(a in 0.0..1e7f64, b in 0.0..1e7f64) {
            let (x, y) = (CpuMhz::new(a), CpuMhz::new(b));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn prop_cpu_saturating_sub_never_negative(a in 0.0..1e7f64, b in 0.0..1e7f64) {
            let d = CpuMhz::new(a).saturating_sub(CpuMhz::new(b));
            prop_assert!(d.as_f64() >= 0.0);
        }

        #[test]
        fn prop_cpu_clamp_in_bounds(a in -1e6..1e7f64, lo in 0.0..1e3f64, span in 0.0..1e6f64) {
            let hi = lo + span;
            let c = CpuMhz::new(a).clamp(CpuMhz::new(lo), CpuMhz::new(hi));
            prop_assert!(c.as_f64() >= lo && c.as_f64() <= hi);
        }

        #[test]
        fn prop_mem_fits_antisymmetric_unless_equal(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let (x, y) = (MemMb::new(a), MemMb::new(b));
            if x.fits(y) && y.fits(x) {
                prop_assert_eq!(x, y);
            }
        }
    }
}
