//! The assembled routing tier: the router plus one warmth table, as one
//! object the simulator owns and drives once per control cycle (the
//! *route* stage, ahead of sensing — simulator-side, so the router
//! series never depend on how the controller is wrapped).
//!
//! Warmth is an EWMA of the share of an application's traffic an
//! instance was routed — a fluid proxy for cache/data locality: an
//! instance that keeps receiving an app's requests converges to warmth
//! 1, one that stops receiving traffic cools toward 0, and a freshly
//! started instance begins cold.

use crate::router::{RouteOutcome, Router, RouterConfig};
use slaq_obs::Recorder;
use slaq_types::{AppId, NodeId};
use std::collections::BTreeMap;

/// Router + warmth table, bundled.
#[derive(Debug, Clone)]
pub struct RoutingTier {
    router: Router,
    /// EWMA smoothing factor in `(0, 1]` for warmth updates.
    alpha: f64,
    /// Per-app warmth, node-id-sorted. Not a tree per app: the tier
    /// syncs, reads and updates a whole app's instances every cycle, so
    /// after the sync the vec is index-aligned with the live instances
    /// and every pass is a sequential walk.
    warmth: BTreeMap<AppId, Vec<(NodeId, f64)>>,
    /// Scratch reused across `route_app` calls: the routed app's
    /// warmth, aligned with its instances.
    scratch: Vec<f64>,
    /// Observability handle (counters only — routing is far too hot
    /// for per-request events; requests are batched per cycle anyway).
    recorder: Recorder,
    k_requests: slaq_obs::Key,
    k_apps: slaq_obs::Key,
}

impl RoutingTier {
    /// Assemble a tier from one config (the warmth EWMA takes its factor
    /// from `cfg.warm_alpha`, falling back to 0.3 outside `(0, 1]`).
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
            alpha,
            warmth: BTreeMap::new(),
            scratch: Vec::new(),
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

    /// Route one application's cycle: sync the warmth table with the
    /// live instance set, score and apportion the `requests`, then move
    /// each instance's warmth toward the share it was routed.
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
        if instances.is_empty() {
            self.warmth.remove(&app);
            return RouteOutcome::idle();
        }
        let table = self.warmth.entry(app).or_default();
        sync(table, instances);
        self.scratch.clear();
        self.scratch.extend(table.iter().map(|&(_, w)| w));
        let out = self.router.route(requests, instances, &self.scratch);
        if requests > 0 {
            // `out.shares` preserves instance order — zip, don't search.
            for (slot, &(_, share)) in table.iter_mut().zip(&out.shares) {
                slot.1 += self.alpha * (share - slot.1);
            }
        }
        out
    }

    /// Warmth snapshot for one app (id-sorted), for the solver's
    /// affinity term.
    pub fn affinity(&self, app: AppId) -> Vec<(NodeId, f64)> {
        self.warmth.get(&app).cloned().unwrap_or_default()
    }
}

/// Reconcile one app's warmth with its live instances in one sorted
/// merge: vanished instances are dropped (their warmth dies with them —
/// a restarted instance begins cold), new instances appear cold, and the
/// table ends index-aligned with `live`.
fn sync(table: &mut Vec<(NodeId, f64)>, live: &[(NodeId, f64)]) {
    debug_assert!(
        live.windows(2).all(|w| w[0].0 < w[1].0),
        "live set unsorted"
    );
    let mut merged = Vec::with_capacity(live.len());
    let mut old = 0usize;
    for &(n, _) in live {
        while old < table.len() && table[old].0 < n {
            old += 1;
        }
        let warmth = if old < table.len() && table[old].0 == n {
            old += 1;
            table[old - 1].1
        } else {
            0.0
        };
        merged.push((n, warmth));
    }
    *table = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(pairs: &[(u32, f64)]) -> Vec<(NodeId, f64)> {
        pairs.iter().map(|&(n, c)| (NodeId::new(n), c)).collect()
    }

    /// A default tier at `warm_alpha`.
    fn tier_at(warm_alpha: f64) -> RoutingTier {
        RoutingTier::new(RouterConfig {
            warm_alpha,
            ..RouterConfig::default()
        })
    }

    fn warmth_of(tier: &RoutingTier, app: u32, node: u32) -> f64 {
        tier.affinity(AppId::new(app))
            .iter()
            .find(|&&(n, _)| n == NodeId::new(node))
            .map_or(0.0, |&(_, w)| w)
    }

    #[test]
    fn rejects_bad_alpha() {
        // Outside (0, 1] the tier falls back to 0.3: one fully routed
        // cycle warms a cold instance to exactly alpha.
        for (alpha, want) in [(0.0, 0.3), (1.1, 0.3), (f64::NAN, 0.3), (1.0, 1.0)] {
            let mut t = tier_at(alpha);
            t.route_app(AppId::new(0), 100, &inst(&[(0, 1.0)]));
            assert_eq!(warmth_of(&t, 0, 0), want, "alpha {alpha}");
        }
    }

    #[test]
    fn warmth_converges_to_the_routed_share() {
        // Zero warm gain and capacities 4 : 1 route 0.8 / 0.2 every cycle.
        let mut t = RoutingTier::new(RouterConfig {
            warm_gain: 0.0,
            warm_alpha: 0.5,
            chunks: 5,
            ..RouterConfig::default()
        });
        let nodes = inst(&[(1, 4.0), (2, 1.0)]);
        for _ in 0..20 {
            let out = t.route_app(AppId::new(0), 1000, &nodes);
            assert_eq!(out.shares[0].1, 0.8);
        }
        assert!((warmth_of(&t, 0, 1) - 0.8).abs() < 1e-4);
        assert!((warmth_of(&t, 0, 2) - 0.2).abs() < 1e-4);
        assert_eq!(warmth_of(&t, 0, 9), 0.0);
    }

    #[test]
    fn starved_instances_cool_down() {
        let mut t = RoutingTier::new(RouterConfig {
            warm_gain: 0.0,
            warm_alpha: 0.5,
            ..RouterConfig::default()
        });
        let app = AppId::new(0);
        t.route_app(app, 1000, &inst(&[(1, 1.0), (2, 0.0)]));
        let hot = warmth_of(&t, 0, 1);
        assert!(hot > 0.0);
        // All capacity moves to node 2: node 1 is routed nothing.
        t.route_app(app, 1000, &inst(&[(1, 0.0), (2, 1.0)]));
        assert!(warmth_of(&t, 0, 1) < hot);
    }

    #[test]
    fn sync_drops_vanished_and_seeds_new_cold() {
        let mut t = tier_at(0.5);
        let app = AppId::new(0);
        t.route_app(app, 1000, &inst(&[(1, 1.0)]));
        assert!(warmth_of(&t, 0, 1) > 0.0);
        // No requests: the sync alone runs. Node 1 vanished: warmth
        // gone; node 2 new: cold.
        t.route_app(app, 0, &inst(&[(2, 1.0)]));
        assert_eq!(t.affinity(app), vec![(NodeId::new(2), 0.0)]);
        // An empty live set removes the app entirely.
        t.route_app(app, 1000, &[]);
        assert!(t.affinity(app).is_empty());
        assert!(t.warmth.is_empty());
    }

    #[test]
    fn affinity_is_id_sorted() {
        let mut t = RoutingTier::new(RouterConfig {
            warm_gain: 0.0,
            warm_alpha: 1.0,
            chunks: 5,
            ..RouterConfig::default()
        });
        t.route_app(AppId::new(3), 1000, &inst(&[(1, 3.0), (5, 2.0)]));
        let aff = t.affinity(AppId::new(3));
        assert_eq!(aff, vec![(NodeId::new(1), 0.6), (NodeId::new(5), 0.4)]);
        assert!(t.affinity(AppId::new(9)).is_empty());
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
        let mut tier = tier_at(1.0);
        let app = AppId::new(1);
        tier.route_app(app, 1000, &inst(&[(0, 1.0), (1, 1.0)]));
        assert!(tier.affinity(app).iter().any(|&(_, w)| w > 0.0));
        // Node 0 vanishes; node 2 appears cold.
        tier.route_app(app, 1000, &inst(&[(1, 1.0), (2, 1.0)]));
        let aff = tier.affinity(app);
        assert_eq!(aff.len(), 2);
        assert!(aff.iter().all(|&(n, _)| n != NodeId::new(0)));
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
