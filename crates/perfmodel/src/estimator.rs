//! Online demand estimation — the stand-in for the authors' "work
//! profiler". Exponentially weighted moving averages over per-cycle
//! observations of arrival rate and per-request service demand.

use serde::{Deserialize, Serialize};
use slaq_types::{SimDuration, Work};

/// EWMA estimator for a transactional application's demand parameters.
///
/// Each control cycle the simulator reports the number of completed
/// requests and the CPU work they consumed; the estimator maintains
/// smoothed arrival-rate and service-demand estimates that feed
/// [`crate::TransactionalModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandEstimator {
    /// Smoothing factor in (0, 1]; 1 = no smoothing (trust the last cycle).
    alpha: f64,
    lambda: Option<f64>,
    service: Option<Work>,
}

impl DemandEstimator {
    /// Create with smoothing factor `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Option<Self> {
        (alpha > 0.0 && alpha <= 1.0).then_some(DemandEstimator {
            alpha,
            lambda: None,
            service: None,
        })
    }

    /// Record one observation window: `requests` completed over `window`
    /// consuming `total_work` CPU work. Windows of zero length are ignored.
    pub fn observe(&mut self, requests: u64, total_work: Work, window: SimDuration) {
        let secs = window.as_secs();
        if secs <= 0.0 {
            return;
        }
        let lam_obs = requests as f64 / secs;
        self.lambda = Some(match self.lambda {
            None => lam_obs,
            Some(prev) => prev + self.alpha * (lam_obs - prev),
        });
        if requests > 0 {
            let svc_obs = total_work / (requests as f64);
            self.service = Some(match self.service {
                None => svc_obs,
                Some(prev) => {
                    Work::new(prev.as_f64() + self.alpha * (svc_obs.as_f64() - prev.as_f64()))
                }
            });
        }
    }

    /// Smoothed arrival rate (req/s); `None` before the first observation.
    pub fn lambda(&self) -> Option<f64> {
        self.lambda
    }

    /// Smoothed arrival rate with a fallback for the cold-start cycle.
    pub fn lambda_or(&self, default: f64) -> f64 {
        self.lambda.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_alpha() {
        assert!(DemandEstimator::new(0.0).is_none());
        assert!(DemandEstimator::new(1.5).is_none());
        assert!(DemandEstimator::new(1.0).is_some());
    }

    #[test]
    fn first_observation_seeds_the_estimate() {
        let mut e = DemandEstimator::new(0.3).unwrap();
        assert_eq!(e.lambda(), None);
        e.observe(600, Work::new(1_200_000.0), SimDuration::from_secs(600.0));
        assert_eq!(e.lambda(), Some(1.0));
        assert_eq!(e.service, Some(Work::new(2000.0)));
    }

    #[test]
    fn ewma_converges_to_a_steady_signal() {
        let mut e = DemandEstimator::new(0.3).unwrap();
        // Start biased, then feed constant truth.
        e.observe(100, Work::new(50_000.0), SimDuration::from_secs(100.0));
        for _ in 0..40 {
            e.observe(
                5000,
                Work::new(10_000_000.0),
                SimDuration::from_secs(1000.0),
            );
        }
        assert!((e.lambda().unwrap() - 5.0).abs() < 1e-3);
        assert!((e.service.unwrap().as_f64() - 2000.0).abs() < 1.0);
    }

    #[test]
    fn zero_request_windows_keep_service_estimate() {
        let mut e = DemandEstimator::new(0.5).unwrap();
        e.observe(10, Work::new(1000.0), SimDuration::from_secs(10.0));
        let svc = e.service.unwrap();
        e.observe(0, Work::ZERO, SimDuration::from_secs(10.0));
        assert_eq!(e.service, Some(svc)); // unchanged
        assert!((e.lambda().unwrap() - 0.5).abs() < 1e-12); // decays toward 0
    }

    #[test]
    fn zero_length_windows_are_ignored() {
        let mut e = DemandEstimator::new(0.5).unwrap();
        e.observe(10, Work::new(1000.0), SimDuration::ZERO);
        assert_eq!(e.lambda(), None);
    }

    #[test]
    fn fallbacks_cover_cold_start() {
        let e = DemandEstimator::new(0.5).unwrap();
        assert_eq!(e.lambda_or(7.0), 7.0);
        assert_eq!(e.service, None);
    }

    proptest! {
        #[test]
        fn prop_estimate_stays_within_observed_range(
            alpha in 0.01..1.0f64,
            rates in proptest::collection::vec(0.1..100.0f64, 1..30),
        ) {
            let mut e = DemandEstimator::new(alpha).unwrap();
            for &r in &rates {
                let requests = (r * 100.0).round() as u64;
                e.observe(requests, Work::new(requests as f64), SimDuration::from_secs(100.0));
            }
            let observed: Vec<f64> = rates.iter().map(|r| (r * 100.0).round() / 100.0).collect();
            let lo = observed.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = observed.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let est = e.lambda().unwrap();
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }
}
