//! The assembled routing tier: router + aggregator + interned metric
//! keys, as one object the simulator owns and drives once per control
//! cycle (the *route* stage, ahead of sensing — simulator-side, so the
//! router series never depend on how the controller is wrapped).

use crate::aggregator::{Aggregator, InstanceReport};
use crate::router::{RouteOutcome, Router, RouterConfig};
use slaq_obs::Recorder;
use slaq_types::{AppId, NodeId};
use std::collections::BTreeMap;

/// Interned per-app metric-series names. Built once per app on first
/// routing (mirroring the controller's interned prediction keys) so the
/// per-cycle hot loop never formats strings.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSeriesKeys {
    /// Share-weighted warmth series, `route_warm_{app}`.
    pub warm: String,
    /// Effective-work discount series, `route_disc_{app}`.
    pub discount: String,
}

/// Publisher → aggregator → router, bundled.
#[derive(Debug, Clone)]
pub struct RoutingTier {
    router: Router,
    agg: Aggregator,
    keys: BTreeMap<AppId, AppSeriesKeys>,
    /// Scratch reused across `route_app` calls.
    live: Vec<NodeId>,
    warmth: Vec<f64>,
    reports: Vec<InstanceReport>,
    /// Observability handle (counters only — routing is far too hot
    /// for per-request events; requests are batched per cycle anyway).
    recorder: Recorder,
    k_requests: slaq_obs::Key,
    k_apps: slaq_obs::Key,
}

impl RoutingTier {
    /// Assemble a tier from one config (the aggregator takes its EWMA
    /// factor from `cfg.warm_alpha`, clamped into `(0, 1]`).
    pub fn new(cfg: RouterConfig) -> Self {
        let alpha = if cfg.warm_alpha > 0.0 && cfg.warm_alpha <= 1.0 {
            cfg.warm_alpha
        } else {
            0.3
        };
        let recorder = Recorder::off();
        let k_requests = recorder.key("route.requests");
        let k_apps = recorder.key("route.app_cycles");
        RoutingTier {
            router: Router::new(cfg),
            agg: Aggregator::new(alpha).expect("clamped alpha"),
            keys: BTreeMap::new(),
            live: Vec::new(),
            warmth: Vec::new(),
            reports: Vec::new(),
            recorder,
            k_requests,
            k_apps,
        }
    }

    /// Install an observability [`Recorder`]: the tier counts routed
    /// requests (`route.requests`) and per-app route invocations
    /// (`route.app_cycles`). Observes only — routing decisions never
    /// read the recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.k_requests = recorder.key("route.requests");
        self.k_apps = recorder.key("route.app_cycles");
        self.recorder = recorder;
    }

    /// The router config in force.
    pub fn config(&self) -> &RouterConfig {
        self.router.config()
    }

    /// `true` when the tier's warmth scores should surface as placement
    /// affinity (the uniform baseline routes blindly and publishes
    /// none).
    pub fn publishes_affinity(&self) -> bool {
        !self.config().uniform
    }

    /// Route one application's cycle: reconcile the live instance set,
    /// score and apportion the batch, then publish the resulting shares
    /// back into the aggregator (the publisher half of the loop — in the
    /// fluid simulation the routed share *is* the share served).
    ///
    /// `instances` are the app's live `(node, cpu-allocation)` pairs in
    /// node-id order.
    pub fn route_app(
        &mut self,
        app: AppId,
        requests: u64,
        instances: &[(NodeId, f64)],
    ) -> RouteOutcome {
        self.recorder.count(self.k_requests, requests);
        self.recorder.count(self.k_apps, 1);
        self.live.clear();
        self.live.extend(instances.iter().map(|&(n, _)| n));
        self.agg.sync_instances(app, &self.live);
        if instances.is_empty() {
            return RouteOutcome::idle();
        }
        // After the sync the aggregator's state is index-aligned with
        // `instances`, so the warmth read is one contiguous copy.
        self.agg.warmth_into(app, &mut self.warmth);
        let out = self.router.route(requests, instances, &self.warmth);
        if requests > 0 {
            let total_cap: f64 = instances.iter().map(|&(_, c)| c.max(0.0)).sum();
            self.reports.clear();
            // `out.shares` preserves instance order — zip, don't search.
            for (&(node, share), &(_, capw)) in out.shares.iter().zip(instances) {
                let capw = capw.max(0.0);
                // Utilization proxy: routed share relative to capacity
                // share (1 = loaded exactly to capacity).
                let util = if total_cap > 0.0 && capw > 0.0 {
                    share * total_cap / capw
                } else {
                    share * instances.len() as f64
                };
                self.reports.push(InstanceReport {
                    app,
                    node,
                    share,
                    util,
                });
            }
            self.agg.publish(&self.reports);
        }
        out
    }

    /// Warmth snapshot for one app (id-sorted), for the solver's
    /// affinity term.
    pub fn affinity(&self, app: AppId) -> Vec<(NodeId, f64)> {
        self.agg.affinity(app)
    }

    /// The aggregator (read access for tests/experiments).
    pub fn aggregator(&self) -> &Aggregator {
        &self.agg
    }

    /// Interned metric keys for one app, formatted on first use only.
    pub fn series_keys(&mut self, app: AppId) -> &AppSeriesKeys {
        self.keys.entry(app).or_insert_with(|| AppSeriesKeys {
            warm: format!("route_warm_{app}"),
            discount: format!("route_disc_{app}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(pairs: &[(u32, f64)]) -> Vec<(NodeId, f64)> {
        pairs.iter().map(|&(n, c)| (NodeId::new(n), c)).collect()
    }

    #[test]
    fn repeated_cycles_concentrate_warmth_and_lower_the_discount() {
        let cfg = RouterConfig {
            warm_gain: 0.5,
            warm_alpha: 0.5,
            load_penalty: 0.2,
            ..RouterConfig::default()
        };
        let mut tier = RoutingTier::new(cfg);
        let app = AppId::new(0);
        let nodes = inst(&[(0, 1000.0), (1, 1000.0), (2, 1000.0)]);
        let first = tier.route_app(app, 100_000, &nodes);
        let mut last = first.clone();
        for _ in 0..12 {
            last = tier.route_app(app, 100_000, &nodes);
        }
        assert!(
            last.discount < first.discount,
            "warmth feedback must lower the discount: {} -> {}",
            first.discount,
            last.discount
        );
        assert!(last.warm_hit > first.warm_hit);
    }

    #[test]
    fn instance_loss_resets_warmth() {
        let mut tier = RoutingTier::new(RouterConfig {
            warm_alpha: 1.0,
            ..RouterConfig::default()
        });
        let app = AppId::new(1);
        tier.route_app(app, 1000, &inst(&[(0, 1.0), (1, 1.0)]));
        assert!(tier.aggregator().tracked() > 0);
        // Node 0 vanishes; node 2 appears cold.
        tier.route_app(app, 1000, &inst(&[(1, 1.0), (2, 1.0)]));
        assert_eq!(tier.affinity(app).len(), 2);
        assert_eq!(tier.aggregator().warmth(app, NodeId::new(0)), 0.0);
    }

    #[test]
    fn series_keys_are_interned_once() {
        let mut tier = RoutingTier::new(RouterConfig::default());
        let k1 = tier.series_keys(AppId::new(7)).warm.clone();
        let k2 = tier.series_keys(AppId::new(7)).warm.clone();
        assert_eq!(k1, "route_warm_app7");
        assert_eq!(k1, k2);
        assert_eq!(tier.series_keys(AppId::new(7)).discount, "route_disc_app7");
    }

    #[test]
    fn uniform_tier_publishes_no_affinity_flag() {
        let tier = RoutingTier::new(RouterConfig {
            uniform: true,
            ..RouterConfig::default()
        });
        assert!(!tier.publishes_affinity());
        assert!(RoutingTier::new(RouterConfig::default()).publishes_affinity());
    }
}
