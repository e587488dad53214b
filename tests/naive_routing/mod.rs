//! The route stage as it stood before it became a request count, one
//! warmth table and the router: `RequestBatch::from_rate`, the
//! `Aggregator` (the "metrics plane" each instance published an
//! `InstanceReport` into, binary-searched per report) and
//! `RoutingTier::route_app` / `affinity` — kept verbatim, counters and
//! interned series names left out, as the oracle of
//! `tests/routing_oracle.rs`. One switch is added: `by_position` makes
//! the aggregator's sync keep warmth by position instead of by node id,
//! the mutation the oracle must catch.

#![allow(dead_code)]

use serde::{Deserialize, Serialize};
use slaq::routing::{RouteOutcome, Router, RouterConfig};
use slaq::types::{AppId, NodeId, SimDuration};
use std::collections::BTreeMap;

/// Aggregated request load of one application over one control cycle.
///
/// `count == buckets.iter().sum()`: the histogram partitions the window
/// into equal sub-windows and the batch total is exactly the sum of the
/// per-sub-window counts (each rounded from the trace's midpoint rate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestBatch {
    /// Total requests in the window.
    pub count: u64,
    /// Mean arrival rate over the window (requests/s).
    pub mean_rate: f64,
    /// Highest sub-window arrival rate sampled (requests/s).
    pub peak_rate: f64,
    /// Requests per equal sub-window, in time order.
    pub buckets: Vec<u64>,
}

impl RequestBatch {
    /// An empty batch (zero-length window or zero rate).
    pub fn empty() -> Self {
        RequestBatch {
            count: 0,
            mean_rate: 0.0,
            peak_rate: 0.0,
            buckets: Vec::new(),
        }
    }

    /// Batch for a constant arrival rate over `window` — the single-bucket
    /// fast path the simulator uses when only the instantaneous rate is
    /// known.
    pub fn from_rate(rate: f64, window: SimDuration) -> Self {
        let secs = window.as_secs();
        if secs <= 0.0 || rate <= 0.0 {
            return RequestBatch::empty();
        }
        let count = (rate * secs).round() as u64;
        RequestBatch {
            count,
            mean_rate: count as f64 / secs,
            peak_rate: count as f64 / secs,
            buckets: vec![count],
        }
    }
}

/// One instance's per-cycle publication into the metrics plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Application the instance belongs to.
    pub app: AppId,
    /// Node hosting the instance.
    pub node: NodeId,
    /// Fraction of the app's requests this instance served this cycle
    /// (`[0, 1]`, shares of one app sum to ≤ 1).
    pub share: f64,
    /// Instance utilization this cycle (`[0, 1]`-ish; informational).
    pub util: f64,
}

/// Per-instance aggregated state.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct InstanceState {
    /// EWMA of routed share — the warm-state (locality) score.
    warmth: f64,
    /// Last published utilization.
    load: f64,
}

/// The indexer half of the metrics plane: folds instance reports into
/// warmth/load scores, keyed `(app, node)` in deterministic order.
///
/// Per-app state is a node-id-sorted vec, not a tree: the router syncs,
/// reads, and publishes a whole app's instances every cycle, so the hot
/// path is sequential merges over contiguous memory (with binary
/// searches only for point reads), not per-node tree descents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregator {
    /// EWMA smoothing factor in `(0, 1]` for warmth updates.
    alpha: f64,
    state: BTreeMap<AppId, Vec<(NodeId, InstanceState)>>,
    /// The mutation switch (see [`Aggregator::sync_instances`]).
    pub by_position: bool,
}

impl Aggregator {
    /// Create with warmth smoothing factor `alpha ∈ (0, 1]`.
    pub fn new(alpha: f64) -> Option<Self> {
        (alpha > 0.0 && alpha <= 1.0).then_some(Aggregator {
            alpha,
            state: BTreeMap::new(),
            by_position: false,
        })
    }

    /// Reconcile `app`'s instance set with the live placement: vanished
    /// instances are dropped (their warmth dies with them — a restarted
    /// instance begins cold), new instances appear with zero state.
    /// `live` must be id-sorted (placements iterate in id order); the
    /// reconciled state then aligns index-for-index with `live`.
    pub fn sync_instances(&mut self, app: AppId, live: &[NodeId]) {
        if live.is_empty() {
            self.state.remove(&app);
            return;
        }
        debug_assert!(live.windows(2).all(|w| w[0] < w[1]), "live set unsorted");
        let entry = self.state.entry(app).or_default();
        if self.by_position {
            // The mutation: the i-th live instance inherits the i-th
            // tracked state, whatever node it was.
            let merged = live
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, entry.get(i).map_or(InstanceState::default(), |s| s.1)))
                .collect();
            *entry = merged;
            return;
        }
        // One sorted merge: keep surviving state, seed new nodes cold.
        let mut merged = Vec::with_capacity(live.len());
        let mut old = 0usize;
        for &n in live {
            while old < entry.len() && entry[old].0 < n {
                old += 1;
            }
            let state = if old < entry.len() && entry[old].0 == n {
                old += 1;
                entry[old - 1].1
            } else {
                InstanceState::default()
            };
            merged.push((n, state));
        }
        *entry = merged;
    }

    /// Fold one cycle's instance publications in: each report moves its
    /// instance's warmth EWMA toward the served share and overwrites the
    /// load reading. Unknown instances are created on first publish.
    pub fn publish(&mut self, reports: &[InstanceReport]) {
        for r in reports {
            let entry = self.state.entry(r.app).or_default();
            let slot = match entry.binary_search_by_key(&r.node, |&(n, _)| n) {
                Ok(i) => &mut entry[i].1,
                Err(i) => {
                    entry.insert(i, (r.node, InstanceState::default()));
                    &mut entry[i].1
                }
            };
            slot.warmth += self.alpha * (r.share.clamp(0.0, 1.0) - slot.warmth);
            slot.load = r.util;
        }
    }

    /// Current warmth score of one instance (0 when unknown).
    pub fn warmth(&self, app: AppId, node: NodeId) -> f64 {
        self.get(app, node).map_or(0.0, |s| s.warmth)
    }

    /// Last published load of one instance (0 when unknown).
    pub fn load(&self, app: AppId, node: NodeId) -> f64 {
        self.get(app, node).map_or(0.0, |s| s.load)
    }

    fn get(&self, app: AppId, node: NodeId) -> Option<&InstanceState> {
        let entry = self.state.get(&app)?;
        entry
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| &entry[i].1)
    }

    /// Warmth snapshot of one app's instances, id-sorted — the affinity
    /// vector handed to the placement solver.
    pub fn affinity(&self, app: AppId) -> Vec<(NodeId, f64)> {
        self.state
            .get(&app)
            .map(|m| m.iter().map(|&(n, s)| (n, s.warmth)).collect())
            .unwrap_or_default()
    }

    /// Copy one app's warmth scores into `out`, aligned index-for-index
    /// with the id-sorted live set last passed to [`Self::sync_instances`]
    /// — the router's zero-lookup read path.
    pub fn warmth_into(&self, app: AppId, out: &mut Vec<f64>) {
        out.clear();
        if let Some(entry) = self.state.get(&app) {
            out.extend(entry.iter().map(|&(_, s)| s.warmth));
        }
    }

    /// Number of `(app, node)` instances currently tracked.
    pub fn tracked(&self) -> usize {
        self.state.values().map(Vec::len).sum()
    }
}

/// Publisher → aggregator → router, bundled.
#[derive(Debug, Clone)]
pub struct RoutingTier {
    router: Router,
    agg: Aggregator,
    /// Scratch reused across `route_app` calls.
    live: Vec<NodeId>,
    warmth: Vec<f64>,
    reports: Vec<InstanceReport>,
}

impl RoutingTier {
    /// Assemble a tier from one config (the aggregator takes its EWMA
    /// factor from `cfg.warm_alpha`, clamped into `(0, 1]`); `by_position`
    /// selects the mutated sync.
    pub fn new(cfg: RouterConfig, by_position: bool) -> Self {
        let alpha = if cfg.warm_alpha > 0.0 && cfg.warm_alpha <= 1.0 {
            cfg.warm_alpha
        } else {
            0.3
        };
        let mut agg = Aggregator::new(alpha).expect("clamped alpha");
        agg.by_position = by_position;
        RoutingTier {
            router: Router::new(cfg),
            agg,
            live: Vec::new(),
            warmth: Vec::new(),
            reports: Vec::new(),
        }
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
}
