//! M/G/1 processor-sharing queueing model.
//!
//! The application is abstracted as a fluid server of capacity ω MHz
//! shared by concurrently executing requests. Requests arrive Poisson at
//! rate λ and each needs `service` MHz·s of CPU work. Under processor
//! sharing the mean response time depends on the service distribution only
//! through its mean:
//!
//! ```text
//! RT(ω) = service / (ω − λ·service)      for ω > λ·service (stable)
//!       = ∞                              otherwise
//! ```
//!
//! The closed form inverts exactly, which the transactional utility curve
//! exploits: `ω(RT) = λ·service + service / RT`.

use serde::{Deserialize, Serialize};
use slaq_types::{CpuMhz, SimDuration, Work};

/// An M/G/1-PS queue: Poisson arrivals at `lambda` req/s, mean per-request
/// service demand `service` (MHz·s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PsQueue {
    /// Request arrival rate, requests per second. May be zero (idle app).
    pub lambda: f64,
    /// Mean CPU work per request.
    pub service: Work,
}

impl PsQueue {
    /// Create a queue; `lambda ≥ 0` and `service > 0` required.
    pub fn new(lambda: f64, service: Work) -> Option<Self> {
        (lambda >= 0.0 && lambda.is_finite() && service.as_f64() > 0.0)
            .then_some(PsQueue { lambda, service })
    }

    /// The raw work arrival rate λ·service — the minimum CPU power below
    /// which the queue is unstable. (This is the "pure demand" of the
    /// workload; any response-time goal requires headroom above it.)
    #[inline]
    pub fn offered_load(&self) -> CpuMhz {
        CpuMhz::new(self.lambda * self.service.as_f64())
    }

    /// `true` if the queue is stable (utilization < 1) at `alloc`.
    pub fn is_stable(&self, alloc: CpuMhz) -> bool {
        self.offered_load().as_f64() < alloc.as_f64()
    }

    /// Mean response time at allocation `alloc`
    /// ([`SimDuration::INFINITE`] when unstable).
    pub fn response_time(&self, alloc: CpuMhz) -> SimDuration {
        let headroom = alloc - self.offered_load();
        if headroom.as_f64() <= 0.0 {
            return SimDuration::INFINITE;
        }
        SimDuration::from_secs(self.service.secs_at(headroom))
    }

    /// Least allocation achieving mean response time ≤ `rt`.
    ///
    /// Returns `None` for a non-positive target (unreachable under PS).
    pub fn cpu_for_response_time(&self, rt: SimDuration) -> Option<CpuMhz> {
        if rt.as_secs() <= 0.0 {
            return None;
        }
        if rt.is_infinite() {
            return Some(CpuMhz::ZERO);
        }
        Some(self.offered_load() + self.service.power_for_secs(rt.as_secs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(lambda: f64, service_mhz_s: f64) -> PsQueue {
        PsQueue::new(lambda, Work::new(service_mhz_s)).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PsQueue::new(-1.0, Work::new(100.0)).is_none());
        assert!(PsQueue::new(1.0, Work::ZERO).is_none());
        assert!(PsQueue::new(f64::NAN, Work::new(1.0)).is_none());
        assert!(PsQueue::new(0.0, Work::new(1.0)).is_some());
    }

    #[test]
    fn offered_load_is_lambda_times_service() {
        let queue = q(50.0, 2000.0);
        assert_eq!(queue.offered_load(), CpuMhz::new(100_000.0));
    }

    #[test]
    fn response_time_closed_form() {
        // λ=50 req/s, c=2000 MHz·s, ω=108 000 ⇒ RT = 2000/8000 = 0.25 s.
        let queue = q(50.0, 2000.0);
        let rt = queue.response_time(CpuMhz::new(108_000.0));
        assert!((rt.as_secs() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instability_below_offered_load() {
        let queue = q(50.0, 2000.0);
        assert!(!queue.is_stable(CpuMhz::new(100_000.0)));
        assert!(queue.response_time(CpuMhz::new(100_000.0)).is_infinite());
        assert!(queue.response_time(CpuMhz::new(50_000.0)).is_infinite());
        assert!(queue.response_time(CpuMhz::ZERO).is_infinite());
        assert!(queue.is_stable(CpuMhz::new(100_001.0)));
    }

    #[test]
    fn idle_app_has_pure_service_latency() {
        let queue = q(0.0, 3000.0);
        assert_eq!(queue.offered_load(), CpuMhz::ZERO);
        // A lone request on a 3000 MHz slice finishes in 1 s.
        assert!((queue.response_time(CpuMhz::new(3000.0)).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_allocation_with_traffic_is_saturated() {
        let queue = q(10.0, 100.0);
        assert!(queue.response_time(CpuMhz::ZERO).is_infinite());
        assert!(!queue.is_stable(CpuMhz::ZERO));
    }

    #[test]
    fn cpu_for_response_time_inverts() {
        let queue = q(50.0, 2000.0);
        let alloc = queue
            .cpu_for_response_time(SimDuration::from_secs(0.25))
            .unwrap();
        assert!(alloc.approx_eq(CpuMhz::new(108_000.0), 1e-6));
        assert!(queue.cpu_for_response_time(SimDuration::ZERO).is_none());
        assert_eq!(
            queue.cpu_for_response_time(SimDuration::INFINITE),
            Some(CpuMhz::ZERO)
        );
    }

    proptest! {
        #[test]
        fn prop_rt_decreases_with_allocation(
            lambda in 0.0..200.0f64,
            service in 10.0..5000.0f64,
            a1 in 1.0..1e6f64,
            extra in 0.0..1e6f64,
        ) {
            let queue = q(lambda, service);
            let r1 = queue.response_time(CpuMhz::new(a1));
            let r2 = queue.response_time(CpuMhz::new(a1 + extra));
            prop_assert!(r2.as_secs() <= r1.as_secs() + 1e-9);
        }

        #[test]
        fn prop_inverse_roundtrip(
            lambda in 0.0..200.0f64,
            service in 10.0..5000.0f64,
            rt in 0.001..100.0f64,
        ) {
            let queue = q(lambda, service);
            let alloc = queue.cpu_for_response_time(SimDuration::from_secs(rt)).unwrap();
            let rt_back = queue.response_time(alloc);
            prop_assert!((rt_back.as_secs() - rt).abs() < 1e-6 * rt.max(1.0));
        }

        #[test]
        fn prop_stability_boundary(
            lambda in 0.1..200.0f64,
            service in 10.0..5000.0f64,
            eps in 0.01..1e3f64,
        ) {
            let queue = q(lambda, service);
            let load = queue.offered_load();
            prop_assert!(!queue.is_stable(load));
            prop_assert!(queue.is_stable(load + CpuMhz::new(eps)));
            prop_assert!(queue.response_time(load + CpuMhz::new(eps)).as_secs().is_finite());
        }
    }
}
