//! Transactional application runtime: intensity source, measured response
//! times, and online demand estimation.

use slaq_perfmodel::TransactionalSpec;
use slaq_perfmodel::{DemandEstimator, PsQueue};
use slaq_types::{AppId, CpuMhz, NodeId, SimDuration, SimTime, Work};

/// What the controller gets to see about a transactional application each
/// cycle: the spec and the *estimated* arrival rate (not the ground-truth
/// trace — the estimator path is part of the system under test).
#[derive(Debug, Clone, PartialEq)]
pub struct AppObservation {
    /// Application identity.
    pub id: AppId,
    /// Static spec (service demand, RT goal, memory, scaling limits).
    pub spec: TransactionalSpec,
    /// Estimated request arrival rate (req/s), already scaled by the
    /// routing tier's effective-work discount when routing is active —
    /// routed load *is* the demand signal the controller optimizes.
    pub lambda: f64,
    /// Per-node warmth scores from the routing tier's warmth table
    /// (id-sorted), surfaced to the controller as a placement-affinity
    /// hint. Empty when routing is off or the tier routes uniformly.
    pub affinity: Vec<(NodeId, f64)>,
}

/// Simulator-side state of one transactional application.
pub struct TransactionalRuntime {
    /// Application identity.
    pub id: AppId,
    /// Static spec.
    pub spec: TransactionalSpec,
    /// Ground-truth intensity λ(t) — a closure so any trace works.
    lambda_fn: Box<dyn Fn(SimTime) -> f64 + Send>,
    estimator: DemandEstimator,
    /// Response-time · seconds accumulated since the last flush (for the
    /// cycle-mean measurement).
    rt_weighted: f64,
    /// Utility · seconds accumulated since the last flush.
    util_weighted: f64,
    accum_secs: f64,
    /// Effective-work multiplier from the routing tier: warm (cache/data
    /// local) instances serve each request with `route_discount` of the
    /// nominal work. `1.0` — the exact multiplicative identity — when no
    /// router is installed, so routing-off runs are bit-identical.
    route_discount: f64,
}

impl TransactionalRuntime {
    /// Create a runtime with the given ground-truth intensity and an EWMA
    /// estimator (`alpha` smoothing).
    pub fn new(
        id: AppId,
        spec: TransactionalSpec,
        lambda_fn: Box<dyn Fn(SimTime) -> f64 + Send>,
        alpha: f64,
    ) -> Option<Self> {
        spec.validate().ok()?;
        Some(TransactionalRuntime {
            id,
            spec,
            lambda_fn,
            estimator: DemandEstimator::new(alpha)?,
            rt_weighted: 0.0,
            util_weighted: 0.0,
            accum_secs: 0.0,
            route_discount: 1.0,
        })
    }

    /// Install the routing tier's effective-work multiplier for the
    /// coming cycle (clamped into `(0, 1]`). The discount routed at
    /// cycle *k* shapes the load observed during `[k, k+1)` — a
    /// one-cycle actuation lag, like every other control signal here.
    pub fn set_route_discount(&mut self, discount: f64) {
        self.route_discount = if discount > 0.0 && discount <= 1.0 {
            discount
        } else {
            1.0
        };
    }

    /// The effective-work multiplier in force (`1.0` without routing).
    pub fn route_discount(&self) -> f64 {
        self.route_discount
    }

    /// Ground-truth arrival rate at `t`.
    pub fn true_lambda(&self, t: SimTime) -> f64 {
        (self.lambda_fn)(t)
    }

    /// The cycle's request count over `[at, at + window)`: the rate at
    /// `at` times the window, rounded — millions of requests folded into
    /// one number, never evented individually. This is what the routing
    /// tier apportions. Zero for a non-positive rate or window.
    pub fn requests(&self, at: SimTime, window: SimDuration) -> u64 {
        let (rate, secs) = (self.true_lambda(at), window.as_secs());
        if secs <= 0.0 || rate <= 0.0 {
            return 0;
        }
        (rate * secs).round() as u64
    }

    /// What the controller observes. The estimated intensity is scaled
    /// by the routing discount — routed (warmth-concentrated) load is
    /// the demand signal the controller optimizes, so warm apps ask for
    /// less CPU and release capacity to the rest of the cluster.
    pub fn observation(&self, t: SimTime) -> AppObservation {
        AppObservation {
            id: self.id,
            spec: self.spec.clone(),
            // Cold start: trust the instantaneous truth (first cycle has
            // no history; the real system would bootstrap from config).
            lambda: self.estimator.lambda_or(self.true_lambda(t)) * self.route_discount,
            affinity: Vec::new(),
        }
    }

    /// Integrate one interval `[from, from+dt)` during which the
    /// application's *effective* allocation was `alloc`. Updates the
    /// estimator and accumulates measured response time and utility.
    pub fn observe_interval(&mut self, from: SimTime, dt: SimDuration, alloc: CpuMhz) {
        if dt.is_zero() {
            return;
        }
        let lam = self.true_lambda(from);
        let served = lam * dt.as_secs();
        // Warm routing shrinks the *work* each request costs, not the
        // request count: the estimator sees true arrivals with
        // discounted work, and the queue sees the discounted work rate.
        // `route_discount == 1.0` makes both multiplications exact
        // no-ops (bit-identical to the routing-free simulator).
        let work = Work::new(served * self.spec.service_per_request.as_f64() * self.route_discount);
        self.estimator.observe(served.round() as u64, work, dt);

        let rt = match PsQueue::new(lam * self.route_discount, self.spec.service_per_request) {
            Some(q) => q.response_time(alloc),
            None => SimDuration::ZERO,
        };
        let u = self.spec.rt_goal.utility_of_rt(rt);
        // Saturated cycles have unbounded RT; accumulate a capped value so
        // the mean stays plottable (utility already bottoms at −1).
        let rt_capped = rt.as_secs().min(4.0 * self.spec.rt_goal.target.as_secs());
        self.rt_weighted += rt_capped * dt.as_secs();
        self.util_weighted += u * dt.as_secs();
        self.accum_secs += dt.as_secs();
    }

    /// Flush the accumulated cycle measurements: returns
    /// `(mean_rt, mean_utility)` since the previous flush, or `None` if
    /// nothing accumulated.
    pub fn flush_cycle(&mut self) -> Option<(SimDuration, f64)> {
        if self.accum_secs <= 0.0 {
            return None;
        }
        let rt = SimDuration::from_secs(self.rt_weighted / self.accum_secs);
        let u = self.util_weighted / self.accum_secs;
        self.rt_weighted = 0.0;
        self.util_weighted = 0.0;
        self.accum_secs = 0.0;
        Some((rt, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::MemMb;
    use slaq_utility::ResponseTimeGoal;

    fn spec() -> TransactionalSpec {
        TransactionalSpec {
            name: "trade".into(),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
            mem_per_instance: MemMb::new(1024),
            max_instances: 25,
            min_instances: 1,
            u_cap: 0.9,
        }
    }

    fn rt(lambda: f64) -> TransactionalRuntime {
        TransactionalRuntime::new(AppId::new(0), spec(), Box::new(move |_| lambda), 0.3).unwrap()
    }

    #[test]
    fn cold_start_observation_uses_truth() {
        let r = rt(50.0);
        let obs = r.observation(SimTime::ZERO);
        assert_eq!(obs.lambda, 50.0);
        assert_eq!(obs.id, AppId::new(0));
    }

    #[test]
    fn estimator_converges_to_truth() {
        let mut r = rt(50.0);
        for i in 0..20 {
            r.observe_interval(
                SimTime::from_secs(i as f64 * 600.0),
                SimDuration::from_secs(600.0),
                CpuMhz::new(140_000.0),
            );
        }
        let obs = r.observation(SimTime::from_secs(12_000.0));
        assert!((obs.lambda - 50.0).abs() < 0.5, "{}", obs.lambda);
    }

    #[test]
    fn well_provisioned_interval_scores_high_utility() {
        let mut r = rt(50.0);
        // Demand for u=0.9 is 140 000 (see perfmodel tests).
        r.observe_interval(
            SimTime::ZERO,
            SimDuration::from_secs(600.0),
            CpuMhz::new(140_000.0),
        );
        let (rt_mean, u) = r.flush_cycle().unwrap();
        assert!((u - 0.9).abs() < 1e-9, "{u}");
        assert!((rt_mean.as_secs() - 0.05).abs() < 1e-9);
        // Flush resets.
        assert!(r.flush_cycle().is_none());
    }

    #[test]
    fn starved_interval_bottoms_out() {
        let mut r = rt(50.0);
        // Below offered load (100 000): unstable.
        r.observe_interval(
            SimTime::ZERO,
            SimDuration::from_secs(600.0),
            CpuMhz::new(90_000.0),
        );
        let (rt_mean, u) = r.flush_cycle().unwrap();
        assert_eq!(u, -1.0);
        assert_eq!(rt_mean.as_secs(), 2.0); // capped at 4×τ
    }

    #[test]
    fn mixed_intervals_average_time_weighted() {
        let mut r = rt(50.0);
        r.observe_interval(
            SimTime::ZERO,
            SimDuration::from_secs(300.0),
            CpuMhz::new(140_000.0),
        );
        r.observe_interval(
            SimTime::from_secs(300.0),
            SimDuration::from_secs(100.0),
            CpuMhz::new(104_000.0), // u = 0 point
        );
        let (_, u) = r.flush_cycle().unwrap();
        let expect = (0.9 * 300.0 + 0.0 * 100.0) / 400.0;
        assert!((u - expect).abs() < 1e-9, "{u} vs {expect}");
    }

    #[test]
    fn from_rate_rounds_to_a_single_bucket() {
        let window = SimDuration::from_secs(600.0);
        assert_eq!(rt(26.0).requests(SimTime::ZERO, window), 15_600);
        // Halves round away from zero.
        assert_eq!(
            rt(2.5).requests(SimTime::ZERO, SimDuration::from_secs(1.0)),
            3
        );
    }

    #[test]
    fn degenerate_windows_yield_empty_batches() {
        assert_eq!(rt(26.0).requests(SimTime::ZERO, SimDuration::ZERO), 0);
        let window = SimDuration::from_secs(600.0);
        for lambda in [0.0, -4.0, f64::NAN] {
            assert_eq!(rt(lambda).requests(SimTime::ZERO, window), 0, "λ {lambda}");
        }
    }

    #[test]
    fn zero_length_interval_is_ignored() {
        let mut r = rt(10.0);
        r.observe_interval(SimTime::ZERO, SimDuration::ZERO, CpuMhz::new(1000.0));
        assert!(r.flush_cycle().is_none());
    }
}
