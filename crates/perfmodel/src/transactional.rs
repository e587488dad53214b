//! The transactional application model: spec + live state, and its
//! monotone utility-of-CPU curve for the equalizer.

use crate::queueing::PsQueue;
use serde::{Deserialize, Serialize};
use slaq_types::{CpuMhz, MemMb, Work};
use slaq_utility::{ResponseTimeGoal, UtilityOfCpu, U_MIN};

/// Static description of a transactional (clustered web) application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionalSpec {
    /// Human-readable name (experiment reports).
    pub name: String,
    /// Mean CPU work per request.
    pub service_per_request: Work,
    /// Response-time SLA.
    pub rt_goal: ResponseTimeGoal,
    /// Memory footprint of one application instance (one VM).
    pub mem_per_instance: MemMb,
    /// Maximum number of instances the application may scale to (its
    /// cluster size limit).
    pub max_instances: u32,
    /// Minimum number of instances kept running even when idle.
    pub min_instances: u32,
    /// Utility level regarded as "maximum" for demand purposes. Under
    /// processor sharing utility approaches 1 only as allocation → ∞, so
    /// the *demand for maximum utility* (the quantity Figure 2 plots) is
    /// defined as the allocation reaching this level. Must be < 1.
    pub u_cap: f64,
}

impl TransactionalSpec {
    /// Validate the spec, normalizing silly combinations.
    pub fn validate(&self) -> Result<(), String> {
        if self.service_per_request.as_f64() <= 0.0 {
            return Err("service_per_request must be positive".into());
        }
        if !(self.u_cap > 0.0 && self.u_cap < 1.0) {
            return Err("u_cap must lie in (0, 1)".into());
        }
        if self.max_instances == 0 {
            return Err("max_instances must be at least 1".into());
        }
        if self.min_instances > self.max_instances {
            return Err("min_instances exceeds max_instances".into());
        }
        Ok(())
    }
}

/// A transactional application at a specific observed intensity: the spec
/// plus the current request arrival rate λ. Implements [`UtilityOfCpu`]
/// with exact closed forms from the M/G/1-PS model:
///
/// * `utility(ω)   = clamp((τ − RT(ω))/τ, −1, u_cap)`
/// * `cpu(u)       = λ·c + c / (τ·(1 − u))` for `u ∈ (−1, u_cap]`
/// * `max_useful_cpu = cpu(u_cap)` — the Figure-2 "transactional demand"
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionalModel {
    /// The static spec.
    pub spec: TransactionalSpec,
    /// Observed (or estimated) arrival rate, req/s.
    pub lambda: f64,
}

impl TransactionalModel {
    /// Bind a spec to an observed arrival rate.
    pub fn new(spec: TransactionalSpec, lambda: f64) -> Option<Self> {
        (lambda >= 0.0 && lambda.is_finite() && spec.validate().is_ok())
            .then_some(TransactionalModel { spec, lambda })
    }

    /// The underlying queue at the current intensity.
    pub fn queue(&self) -> PsQueue {
        PsQueue::new(self.lambda, self.spec.service_per_request)
            .expect("spec validated at construction")
    }

    /// Predicted mean response time at allocation `alloc`.
    pub fn response_time(&self, alloc: CpuMhz) -> slaq_types::SimDuration {
        self.queue().response_time(alloc)
    }

    /// The work arrival rate λ·c: minimum stable allocation.
    pub fn offered_load(&self) -> CpuMhz {
        self.queue().offered_load()
    }
}

impl UtilityOfCpu for TransactionalModel {
    fn utility(&self, cpu: CpuMhz) -> f64 {
        if self.lambda == 0.0 {
            // No traffic: response time is vacuous; an idle application
            // is fully satisfied at any allocation (flat curve). This
            // must hold at *every* point — a flat `utility_at_zero` with
            // a positive `max_useful_cpu` would let the equalizer park
            // CPU on an application that serves nobody.
            return self.spec.u_cap;
        }
        let rt = self.queue().response_time(cpu);
        self.spec.rt_goal.utility_of_rt(rt).min(self.spec.u_cap)
    }

    fn cpu_for_utility(&self, u: f64) -> Option<CpuMhz> {
        if u > self.spec.u_cap + 1e-12 {
            return None;
        }
        if self.lambda == 0.0 || u <= U_MIN {
            return Some(CpuMhz::ZERO);
        }
        let u = u.min(self.spec.u_cap);
        // RT achieving utility u, then the allocation achieving that RT.
        let rt = self.spec.rt_goal.rt_for_utility(u);
        self.queue().cpu_for_response_time(rt)
    }

    fn max_useful_cpu(&self) -> CpuMhz {
        if self.lambda == 0.0 {
            return CpuMhz::ZERO;
        }
        self.cpu_for_utility(self.spec.u_cap)
            .expect("u_cap is reachable by construction")
    }

    fn max_utility(&self) -> f64 {
        self.spec.u_cap
    }

    fn utility_at_zero(&self) -> f64 {
        if self.lambda == 0.0 {
            self.spec.u_cap
        } else {
            U_MIN
        }
    }

    /// A validated spec's inverse is the offered load plus the service
    /// over a response time that falls with the level: each step is
    /// monotone, and so is their IEEE composition.
    fn is_monotone(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_types::SimDuration;

    /// The experiment-scale app: λ=50 req/s, c=2000 MHz·s, τ=0.5 s.
    fn model(lambda: f64) -> TransactionalModel {
        TransactionalModel::new(
            TransactionalSpec {
                name: "trade".into(),
                service_per_request: Work::new(2000.0),
                rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
                mem_per_instance: MemMb::new(1024),
                max_instances: 25,
                min_instances: 1,
                u_cap: 0.9,
            },
            lambda,
        )
        .unwrap()
    }

    #[test]
    fn spec_validation_catches_errors() {
        let mut spec = model(1.0).spec;
        spec.u_cap = 1.0;
        assert!(spec.validate().is_err());
        spec.u_cap = 0.9;
        spec.service_per_request = Work::ZERO;
        assert!(spec.validate().is_err());
        spec.service_per_request = Work::new(1.0);
        spec.min_instances = 9;
        spec.max_instances = 3;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn demand_for_max_utility_matches_closed_form() {
        let m = model(50.0);
        // λc = 100 000; headroom for u_cap=0.9: c/(τ·0.1) = 2000/0.05 = 40 000.
        let demand = m.max_useful_cpu();
        assert!(demand.approx_eq(CpuMhz::new(140_000.0), 1e-6), "{demand}");
        assert!((m.utility(demand) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn utility_curve_key_points() {
        let m = model(50.0);
        // u = 0 at ω = λc + c/τ = 104 000.
        assert!(m.utility(CpuMhz::new(104_000.0)).abs() < 1e-9);
        // u = 0.5 at ω = λc + 2c/τ = 108 000.
        assert!((m.utility(CpuMhz::new(108_000.0)) - 0.5).abs() < 1e-9);
        // Unstable allocations bottom out at −1.
        assert_eq!(m.utility(CpuMhz::new(90_000.0)), -1.0);
        assert_eq!(m.utility(CpuMhz::ZERO), -1.0);
        // Above demand the cap binds.
        assert_eq!(m.utility(CpuMhz::new(500_000.0)), 0.9);
    }

    #[test]
    fn inverse_demand_roundtrip() {
        let m = model(50.0);
        for u in [-0.9, -0.5, 0.0, 0.25, 0.5, 0.75, 0.9] {
            let cpu = m.cpu_for_utility(u).unwrap();
            assert!(
                (m.utility(cpu) - u).abs() < 1e-9,
                "u={u}: got {}",
                m.utility(cpu)
            );
        }
        assert!(m.cpu_for_utility(0.95).is_none());
        assert_eq!(m.cpu_for_utility(-1.0), Some(CpuMhz::ZERO));
    }

    #[test]
    fn idle_app_is_flat_and_demands_nothing() {
        let m = model(0.0);
        assert_eq!(m.max_useful_cpu(), CpuMhz::ZERO);
        assert_eq!(m.utility_at_zero(), 0.9);
        assert_eq!(m.utility(CpuMhz::new(1000.0)), 0.9);
        assert_eq!(m.cpu_for_utility(0.9), Some(CpuMhz::ZERO));
        // An *almost* idle app still wants latency headroom — the
        // discontinuity at exactly zero traffic is intentional.
        let barely = model(0.001);
        assert!(barely.max_useful_cpu().as_f64() > 39_000.0);
    }

    #[test]
    fn higher_traffic_shifts_demand_up() {
        let lo = model(25.0);
        let hi = model(75.0);
        assert!(hi.max_useful_cpu() > lo.max_useful_cpu());
        // Same allocation yields lower utility under more load.
        let alloc = CpuMhz::new(120_000.0);
        assert!(hi.utility(alloc) < lo.utility(alloc));
    }

    proptest! {
        #[test]
        fn prop_utility_monotone_in_cpu(
            lambda in 0.0..100.0f64,
            a in 0.0..3e5f64,
            extra in 0.0..3e5f64,
        ) {
            let m = model(lambda);
            prop_assert!(
                m.utility(CpuMhz::new(a + extra)) >= m.utility(CpuMhz::new(a)) - 1e-12
            );
        }

        #[test]
        fn prop_utility_bounded(lambda in 0.0..100.0f64, a in 0.0..1e6f64) {
            let m = model(lambda);
            let u = m.utility(CpuMhz::new(a));
            prop_assert!((-1.0..=0.9).contains(&u));
        }

        #[test]
        fn prop_cpu_for_utility_is_least(
            lambda in 1.0..100.0f64,
            u in -0.99..0.89f64,
        ) {
            let m = model(lambda);
            let cpu = m.cpu_for_utility(u).unwrap();
            prop_assert!(m.utility(cpu) >= u - 1e-9);
            // 1% less CPU must fall short (strictly increasing region).
            if cpu.as_f64() > 1.0 {
                prop_assert!(m.utility(cpu * 0.99) < u + 1e-9);
            }
        }
    }
}
