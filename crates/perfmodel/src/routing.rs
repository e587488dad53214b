//! Request routing across application instances — the flow-controller
//! fragment of the authors' middleware.
//!
//! A clustered transactional application runs instances on several nodes,
//! each with its own CPU allocation. The router splits incoming traffic
//! proportionally to the per-instance allocations, which equalizes
//! per-instance utilization and hence (under processor sharing) makes
//! every instance exhibit the same response time — the cluster behaves
//! like one pooled server of the aggregate capacity.

use slaq_types::{CpuMhz, SimDuration, Work};

/// Mean response time of a clustered application under proportional
/// routing: arrival rate `lambda` split across instances with allocations
/// `allocs`, with per-request demand `service`.
///
/// We adopt the **app-level pooled-capacity abstraction** the authors'
/// flow controller uses: proportional splitting keeps per-instance
/// utilization equal, request concurrency spans the whole cluster, and the
/// controller reasons about the application's *aggregate* allocation — so
/// the cluster is modelled as one PS server of capacity `Σ allocs`. (A
/// strictly per-instance PS mixture would add an instance-count factor to
/// the latency term; the controller's demand estimates and the simulator's
/// measurements must simply agree on one model, and the pooled form is the
/// one the paper's demand figures correspond to.)
pub fn aggregate_response_time(lambda: f64, service: Work, allocs: &[CpuMhz]) -> SimDuration {
    let total: CpuMhz = allocs.iter().map(|a| a.max_zero()).sum();
    if total.is_zero() {
        return if lambda > 0.0 {
            SimDuration::INFINITE
        } else {
            SimDuration::ZERO
        };
    }
    if lambda <= 0.0 {
        // No traffic: a lone request runs on the pooled capacity.
        return SimDuration::from_secs(service.secs_at(total));
    }
    let offered = CpuMhz::new(lambda * service.as_f64());
    let headroom = total - offered;
    if headroom.as_f64() <= 0.0 {
        return SimDuration::INFINITE;
    }
    SimDuration::from_secs(service.secs_at(headroom))
}

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
    use crate::queueing::PsQueue;
    use proptest::prelude::*;

    #[test]
    fn cluster_equals_pooled_server_under_proportional_routing() {
        let lambda = 50.0;
        let service = Work::new(2000.0);
        let allocs = [
            CpuMhz::new(40_000.0),
            CpuMhz::new(60_000.0),
            CpuMhz::new(20_000.0),
        ];
        let total: CpuMhz = allocs.iter().sum();
        let pooled = PsQueue::new(lambda, service).unwrap().response_time(total);
        let clustered = aggregate_response_time(lambda, service, &allocs);
        assert!(
            (clustered.as_secs() - pooled.as_secs()).abs() < 1e-9,
            "clustered {clustered} vs pooled {pooled}"
        );
    }

    #[test]
    fn saturated_cluster_reports_infinite_rt() {
        // Offered load 100 000 > total capacity 90 000.
        let rt = aggregate_response_time(
            50.0,
            Work::new(2000.0),
            &[CpuMhz::new(45_000.0), CpuMhz::new(45_000.0)],
        );
        assert!(rt.is_infinite());
    }

    #[test]
    fn no_instances_with_traffic_is_infinite() {
        assert!(aggregate_response_time(10.0, Work::new(1.0), &[]).is_infinite());
        assert_eq!(
            aggregate_response_time(0.0, Work::new(1.0), &[]),
            SimDuration::ZERO
        );
    }

    #[test]
    fn idle_cluster_reports_pooled_latency() {
        let rt = aggregate_response_time(
            0.0,
            Work::new(3000.0),
            &[CpuMhz::new(1000.0), CpuMhz::new(2000.0)],
        );
        assert!((rt.as_secs() - 1.0).abs() < 1e-12);
    }

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

        #[test]
        fn prop_proportional_matches_pooled(
            lambda in 0.1..100.0f64,
            service in 10.0..5000.0f64,
            allocs in proptest::collection::vec(1.0..1e5f64, 1..8),
        ) {
            let cpus: Vec<CpuMhz> = allocs.iter().map(|&a| CpuMhz::new(a)).collect();
            let total: CpuMhz = cpus.iter().sum();
            let q = PsQueue::new(lambda, Work::new(service)).unwrap();
            let pooled = q.response_time(total);
            let clustered = aggregate_response_time(lambda, Work::new(service), &cpus);
            if pooled.is_infinite() {
                prop_assert!(clustered.is_infinite());
            } else {
                prop_assert!((clustered.as_secs() - pooled.as_secs()).abs()
                    < 1e-6 * pooled.as_secs().max(1.0));
            }
        }
    }
}
