//! The router: apportions one cycle's aggregated requests across an
//! app's live instances by score, in fixed-size chunks.
//!
//! Requests are never evented individually — the cycle's batch (easily
//! millions of requests) is split into [`RouterConfig::chunks`] equal
//! chunks, and each chunk is routed greedily to the instance with the
//! best score
//!
//! ```text
//! score_i = warm_gain · warmth_i − load_penalty · (routed_i − cap_i)
//! ```
//!
//! where `routed_i` is the share already assigned this cycle and `cap_i`
//! the instance's capacity share — so warmth attracts traffic while the
//! load penalty pushes the split back toward proportional-to-capacity.
//! At `temperature = 0` each chunk takes the argmax (ties: lowest node
//! id) — computed in closed form as a waterline projection rather than
//! chunk by chunk, since each pick drains only the picked score by a
//! fixed step; at `temperature > 0` a chunk samples the softmax of the
//! scores from the router's seeded ChaCha12 stream. Both paths are
//! bit-deterministic per (config, seed, input).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use slaq_types::NodeId;

/// Router tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Softmax temperature; `0` = deterministic argmax.
    pub temperature: f64,
    /// Fraction of per-request work a fully-warm instance saves
    /// (`[0, 1)`); also the warmth weight in the chunk score.
    pub warm_gain: f64,
    /// Warmth EWMA smoothing factor in `(0, 1]`.
    pub warm_alpha: f64,
    /// Weight of the overload term in the chunk score.
    pub load_penalty: f64,
    /// Chunks one cycle's batch is split into (≥ 1). More chunks =
    /// smoother splits; scoring work grows with the count only at
    /// `temperature > 0` (the argmax path is closed-form).
    pub chunks: u32,
    /// Seed of the router's ChaCha12 stream (used only at
    /// `temperature > 0`).
    pub seed: u64,
    /// `true` routes every chunk round-robin regardless of score — the
    /// uniform-routing baseline the affinity policy is measured against.
    pub uniform: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            temperature: 0.0,
            warm_gain: 0.5,
            warm_alpha: 0.3,
            load_penalty: 1.0,
            chunks: 128,
            seed: 0x51a9_0707,
            uniform: false,
        }
    }
}

/// How one cycle's batch was apportioned for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteOutcome {
    /// Per-instance share of the batch, id-sorted, summing to 1 when any
    /// instance exists.
    pub shares: Vec<(NodeId, f64)>,
    /// Share-weighted warmth of the routed cycle (`[0, 1]`).
    pub warm_hit: f64,
    /// Effective-work multiplier for the routed load, `1 − warm_gain ·
    /// warm_hit` (in `(0, 1]`); exactly `1.0` when nothing was warm.
    pub discount: f64,
}

impl RouteOutcome {
    /// The no-instances / no-requests outcome: nothing routed, identity
    /// discount.
    pub fn idle() -> Self {
        RouteOutcome {
            shares: Vec::new(),
            warm_hit: 0.0,
            discount: 1.0,
        }
    }
}

/// Chunk-greedy request router with a seeded softmax exploration knob.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    rng: ChaCha12Rng,
    /// Scratch reused across calls (scores per instance).
    scores: Vec<f64>,
    assigned: Vec<u64>,
    order: Vec<usize>,
    fracs: Vec<f64>,
}

impl Router {
    /// Build from config; the RNG is seeded from `cfg.seed`.
    pub fn new(cfg: RouterConfig) -> Self {
        Router {
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            cfg,
            scores: Vec::new(),
            assigned: Vec::new(),
            order: Vec::new(),
            fracs: Vec::new(),
        }
    }

    /// The config in force.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Route one application's cycle batch of `requests` across
    /// `instances` (id-sorted `(node, capacity-weight)` pairs; weights
    /// need not be normalized — non-positive totals fall back to equal
    /// capacity) given each instance's `warmth` (aligned with
    /// `instances`).
    pub fn route(
        &mut self,
        requests: u64,
        instances: &[(NodeId, f64)],
        warmth: &[f64],
    ) -> RouteOutcome {
        let k = instances.len();
        debug_assert_eq!(k, warmth.len());
        if k == 0 || requests == 0 {
            return RouteOutcome::idle();
        }
        let chunks = self.cfg.chunks.max(1) as usize;

        // Capacity shares (fallback: equal when no instance has weight).
        let total_cap: f64 = instances.iter().map(|&(_, c)| c.max(0.0)).sum();
        let cap = |i: usize| -> f64 {
            if total_cap > 0.0 {
                instances[i].1.max(0.0) / total_cap
            } else {
                1.0 / k as f64
            }
        };

        self.assigned.clear();
        self.assigned.resize(k, 0);
        if self.cfg.uniform {
            // Round-robin baseline: chunk c → instance c mod k.
            for c in 0..chunks {
                self.assigned[c % k] += 1;
            }
        } else if self.cfg.temperature > 0.0 {
            // Softmax exploration needs the whole score distribution per
            // draw, so each chunk recomputes and samples it.
            for _ in 0..chunks {
                self.scores.clear();
                for (i, &w) in warmth.iter().enumerate() {
                    let routed = self.assigned[i] as f64 / chunks as f64;
                    self.scores
                        .push(self.cfg.warm_gain * w - self.cfg.load_penalty * (routed - cap(i)));
                }
                let pick = softmax_draw(&self.scores, self.cfg.temperature, &mut self.rng);
                self.assigned[pick] += 1;
            }
        } else {
            // Zero temperature: the chunk-greedy argmax has a closed
            // form. Taking a chunk moves only the taker's score, and by
            // the fixed step `load_penalty / chunks`, so the greedy
            // drains scores down onto a common waterline θ: the active
            // instances end at `base_i − x_i·step = θ` with
            // `Σ x_i = chunks`. Project onto that simplex directly
            // (sort by base, walk the waterline down) and round the
            // fractional chunk counts by largest remainder, ties to the
            // lowest index — O(k log k), independent of the chunk count.
            self.scores.clear();
            for (i, &w) in warmth.iter().enumerate() {
                self.scores
                    .push(self.cfg.warm_gain * w + self.cfg.load_penalty * cap(i));
            }
            let step = self.cfg.load_penalty / chunks as f64;
            let mut theta = 0.0;
            let mut active = 0usize;
            if step > 0.0 {
                self.order.clear();
                self.order.extend(0..k);
                let scores = &self.scores;
                self.order
                    .sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
                // Walk the waterline down while it still sits below the
                // next base (i.e. the next instance takes a positive
                // share). `budget` is the total score drained.
                let budget = chunks as f64 * step;
                let mut prefix = 0.0;
                for (j, &i) in self.order.iter().enumerate() {
                    let base = self.scores[i];
                    prefix += base;
                    let t = (prefix - budget) / (j + 1) as f64;
                    if t < base {
                        theta = t;
                        active = j + 1;
                    } else {
                        break;
                    }
                }
            }
            if active == 0 {
                // No load penalty, or one too small to move a score
                // (`prefix − budget == prefix`): nothing drains, every
                // chunk goes to the best base score (ties: lowest index).
                let mut best = 0;
                for i in 1..k {
                    if self.scores[i] > self.scores[best] {
                        best = i;
                    }
                }
                self.assigned[best] = chunks as u64;
            } else {
                // Integer chunks: floors first, then the remainder by
                // largest fractional part (ties: lowest index).
                self.fracs.clear();
                self.fracs.resize(k, 0.0);
                let mut handed = 0u64;
                for &i in &self.order[..active] {
                    let x = ((self.scores[i] - theta) / step).min(chunks as f64);
                    let n = x.floor();
                    self.assigned[i] = n as u64;
                    self.fracs[i] = x - n;
                    handed += n as u64;
                }
                let rem = (chunks as u64).saturating_sub(handed) as usize;
                if rem > 0 {
                    let fracs = &self.fracs;
                    self.order[..active]
                        .sort_unstable_by(|&a, &b| fracs[b].total_cmp(&fracs[a]).then(a.cmp(&b)));
                    for r in 0..rem {
                        self.assigned[self.order[r % active]] += 1;
                    }
                }
            }
        }

        let mut shares = Vec::with_capacity(k);
        let mut warm_hit = 0.0;
        for i in 0..k {
            let share = self.assigned[i] as f64 / chunks as f64;
            warm_hit += share * warmth[i];
            shares.push((instances[i].0, share));
        }
        RouteOutcome {
            shares,
            warm_hit,
            discount: warm_work_discount(self.cfg.warm_gain, warm_hit),
        }
    }
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
fn warm_work_discount(warm_gain: f64, warm_hit: f64) -> f64 {
    let gain = warm_gain.clamp(0.0, 0.99);
    let hit = warm_hit.clamp(0.0, 1.0);
    1.0 - gain * hit
}

/// Sample an index from the softmax of `scores / temperature` using one
/// uniform draw from `rng` (max-subtracted for numeric stability).
fn softmax_draw<R: rand::RngCore>(scores: &[f64], temperature: f64, rng: &mut R) -> usize {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = scores
        .iter()
        .map(|&s| ((s - max) / temperature).exp())
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen_range(0.0..1.0) * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(k: usize) -> Vec<(NodeId, f64)> {
        (0..k).map(|i| (NodeId::new(i as u32), 1.0)).collect()
    }

    #[test]
    fn idle_cases() {
        let mut r = Router::new(RouterConfig::default());
        assert_eq!(r.route(0, &nodes(3), &[0.0; 3]), RouteOutcome::idle());
        assert_eq!(r.route(100, &[], &[]), RouteOutcome::idle());
    }

    #[test]
    fn zero_temperature_with_no_warmth_balances_to_capacity() {
        let mut r = Router::new(RouterConfig::default());
        let out = r.route(1_000_000, &nodes(4), &[0.0; 4]);
        for &(_, s) in &out.shares {
            assert!((s - 0.25).abs() <= 1.0 / 128.0, "share {s}");
        }
        assert_eq!(out.discount, 1.0);
        assert_eq!(out.warm_hit, 0.0);
        let total: f64 = out.shares.iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn warm_instances_attract_traffic() {
        let cfg = RouterConfig {
            warm_gain: 0.8,
            load_penalty: 0.5,
            ..RouterConfig::default()
        };
        let mut r = Router::new(cfg);
        let out = r.route(1_000_000, &nodes(3), &[0.9, 0.1, 0.1]);
        assert!(out.shares[0].1 > out.shares[1].1);
        assert!(out.warm_hit > 0.3);
        assert!(out.discount < 1.0);
    }

    #[test]
    fn uniform_policy_round_robins() {
        let cfg = RouterConfig {
            uniform: true,
            chunks: 128,
            ..RouterConfig::default()
        };
        let mut r = Router::new(cfg);
        // Warmth must not matter.
        let out = r.route(1_000_000, &nodes(4), &[1.0, 0.0, 0.0, 0.0]);
        for &(_, s) in &out.shares {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn ties_break_to_lowest_id() {
        // Equal scores, one chunk: lowest node id wins.
        let mut r = Router::new(RouterConfig {
            chunks: 1,
            ..RouterConfig::default()
        });
        let out = r.route(1000, &nodes(3), &[0.4; 3]);
        assert_eq!(
            out.shares,
            vec![
                (NodeId::new(0), 1.0),
                (NodeId::new(1), 0.0),
                (NodeId::new(2), 0.0),
            ]
        );
        // No load penalty, or one too small to move a score: everything
        // rides the single warmest (ties: lowest id again).
        for load_penalty in [0.0, 1e-308] {
            let mut r = Router::new(RouterConfig {
                load_penalty,
                ..RouterConfig::default()
            });
            let out = r.route(1000, &nodes(3), &[0.2, 0.9, 0.9]);
            assert_eq!(out.shares[1], (NodeId::new(1), 1.0));
            assert_eq!(out.warm_hit, 0.9);
        }
    }

    #[test]
    fn softmax_runs_are_reproducible_per_seed() {
        let cfg = RouterConfig {
            temperature: 0.7,
            seed: 99,
            ..RouterConfig::default()
        };
        let mut a = Router::new(cfg);
        let mut b = Router::new(cfg);
        let w = [0.5, 0.2, 0.0];
        for _ in 0..5 {
            assert_eq!(
                a.route(10_000, &nodes(3), &w),
                b.route(10_000, &nodes(3), &w)
            );
        }
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
    }
}
