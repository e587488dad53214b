//! The routed-load SLA signal: how much a warmth-aware routing tier
//! shrinks an application's offered work.
//!
//! The routing tier (`slaq-routing`) sends each request to one of an
//! application's instances and reports what share of them landed warm.
//! [`warm_work_discount`] turns that share into the multiplier the
//! simulator applies to the offered load of the application's pooled
//! processor-sharing queue, so the controller sees the load the tier
//! actually delivered.

/// Effective-work multiplier of warmth-aware routing.
///
/// When a share-weighted fraction `warm_hit ∈ [0, 1]` of an application's
/// requests lands on instances whose caches/data are warm, and a warm hit
/// saves a fraction `warm_gain ∈ [0, 1)` of the per-request service
/// demand, the cycle's aggregate work shrinks by `warm_gain · warm_hit`:
///
/// ```text
/// W_eff = λ · service · (1 − warm_gain · warm_hit)
/// ```
///
/// The returned multiplier is the routed-load **SLA signal**: the
/// simulator scales the offered load it feeds the processor-sharing
/// queue (and the work the demand estimator observes) by it, so the
/// controller optimizes against what the routing tier actually
/// delivered. Both inputs are clamped into their domains; the result is
/// always in `(0, 1]`, and exactly `1.0` when either input is zero —
/// the routing-off path multiplies by a bit-exact identity.
pub fn warm_work_discount(warm_gain: f64, warm_hit: f64) -> f64 {
    let gain = warm_gain.clamp(0.0, 0.99);
    let hit = warm_hit.clamp(0.0, 1.0);
    1.0 - gain * hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn warm_discount_identities_and_bounds() {
        // Zero gain or zero hit: exact identity (the routing-off path).
        assert_eq!(warm_work_discount(0.0, 0.7), 1.0);
        assert_eq!(warm_work_discount(0.5, 0.0), 1.0);
        // Fully-warm, half the work saved.
        assert!((warm_work_discount(0.5, 1.0) - 0.5).abs() < 1e-12);
        // Inputs clamped into their domains.
        assert!(warm_work_discount(2.0, 2.0) > 0.0);
        assert_eq!(warm_work_discount(-1.0, 0.5), 1.0);
    }

    proptest! {
        #[test]
        fn prop_warm_discount_in_unit_interval(
            gain in -0.5..1.5f64,
            hit in -0.5..1.5f64,
        ) {
            let d = warm_work_discount(gain, hit);
            prop_assert!(d > 0.0 && d <= 1.0);
        }
    }
}
