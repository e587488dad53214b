//! Adversarial workloads and the correctness harness that rides them.
//!
//! This module supplies three things the friendly corpus presets never
//! exercise:
//!
//! 1. **Chaos plans** — a seeded [`ChaosSpec`] describing correlated
//!    zone-outage storms, flapping nodes, mid-run capacity degradation,
//!    flash-crowd demand spikes, and antagonist batch floods. A spec is
//!    *lowered* onto the machinery the simulator already has: its
//!    windows into the run's [`Faults`] as node outages and capacity
//!    dips ([`ChaosSpec::lower_into`]), its demand into an extra
//!    intensity trace ([`ChaosSpec::spike`]) and a synthesized job
//!    stream — so chaos composes with every controller unchanged.
//! 2. **Overbooking and elasticity models** — [`OvercommitSpec`]
//!    advertises inflated node capacities to the controller while a
//!    seeded true-usage model occasionally claws the real capacity back
//!    ([`bite_factor`]); [`ElasticitySpec`] resizes running jobs mid-run
//!    so the delta tracker sees genuine vertical elasticity.
//! 3. **An [`InvariantChecker`]** — a [`Controller`] wrapper that
//!    re-checks every placement a controller emits against the safety
//!    properties no amount of chaos may break: no assignments on dead
//!    nodes, per-node allocations within advertised capacity, the change
//!    budget held, and per-job grants conserved within `max_speed`.
//!
//! Everything here is deterministic: all randomness flows from the
//! scenario seed through counter-keyed [`ChaCha12Rng`] streams, so a
//! chaos run is exactly as replayable as a friendly one.

use std::collections::BTreeMap;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use slaq_placement::Placement;
use slaq_types::{NodeId, SimTime, ZoneId};
use slaq_workloads::IntensityTrace;

use crate::faults::{Faults, NodeOutage};
use crate::metrics::MetricsSink;
use crate::simulator::{ControlInputs, Controller};
use slaq_obs::Recorder;

/// Draw a uniform `f64` in `[0, 1)` from an RNG (53-bit mantissa path,
/// matching the workspace `rand` conventions).
fn unit_f64(rng: &mut ChaCha12Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draw a uniform index in `[0, n)`. `n` must be non-zero.
fn index(rng: &mut ChaCha12Rng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

// ---------------------------------------------------------------------------
// Chaos spec
// ---------------------------------------------------------------------------

/// Correlated zone-outage storms: every `period_secs`, starting at
/// `first_secs`, a storm takes a seeded fraction of the nodes in
/// `zones_per_storm` randomly chosen zones down for `duration_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZoneStormSpec {
    /// First storm instant (seconds).
    pub first_secs: f64,
    /// Storm recurrence period (seconds).
    pub period_secs: f64,
    /// How long each storm's outages last (seconds); must be shorter
    /// than the period so the cluster recovers between storms.
    pub duration_secs: f64,
    /// Distinct zones struck per storm (capped at the zone count).
    pub zones_per_storm: u32,
    /// Fraction of each struck zone's nodes taken down, in `(0, 1]`
    /// (at least one node per struck zone).
    pub node_fraction: f64,
}

/// Flapping nodes: a seeded subset of nodes goes down and comes back
/// periodically, each with its own seeded phase so the flaps interleave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlapSpec {
    /// How many distinct nodes flap (capped at the node count).
    pub nodes: u32,
    /// Earliest flap onset (seconds); each flapper adds a seeded phase
    /// in `[0, period_secs)`.
    pub first_secs: f64,
    /// Flap recurrence period per node (seconds).
    pub period_secs: f64,
    /// Down time per flap (seconds); must be shorter than the period.
    pub down_secs: f64,
}

/// Mid-run capacity degradation: a seeded subset of nodes runs at a
/// fraction of its CPU during a window (thermal throttling, a noisy
/// co-tenant) without going fully down — memory is unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationSpec {
    /// How many distinct nodes degrade (capped at the node count).
    pub nodes: u32,
    /// Degradation onset (seconds).
    pub from_secs: f64,
    /// Degradation end (seconds); must exceed the onset.
    pub to_secs: f64,
    /// CPU multiplier during the window, in `(0, 1)`.
    pub cpu_factor: f64,
}

/// Flash-crowd demand spikes: a rectangular surge added on top of every
/// transactional application's intensity trace, recurring with a fixed
/// period. Deterministic (no sampling) so demand is identical across
/// controller variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdSpec {
    /// Extra request rate during a spike (req/s).
    pub surge: f64,
    /// First spike onset (seconds).
    pub first_secs: f64,
    /// Spike recurrence period (seconds).
    pub period_secs: f64,
    /// Spike duration (seconds); must be shorter than the period.
    pub spike_secs: f64,
}

/// Antagonist batch floods: periodic drops of identical short jobs
/// designed to contend with the resident workload for spare CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloodSpec {
    /// First drop instant (seconds).
    pub first_secs: f64,
    /// Drop recurrence period (seconds).
    pub period_secs: f64,
    /// Jobs per drop.
    pub batch_size: u32,
    /// Total flood jobs across the run (truncates the last drops).
    pub max_jobs: u32,
    /// CPU work per flood job, expressed as seconds at the job's
    /// maximum speed.
    pub work_secs: f64,
    /// Memory footprint per flood job (MB).
    pub mem_mb: u64,
}

/// The adversarial-workload block of a scenario spec. Every field is
/// optional and independent; an all-`None` spec is a no-op, and specs
/// written before this block existed keep parsing (the key is simply
/// absent).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// Correlated zone-outage storms.
    pub zone_storms: Option<ZoneStormSpec>,
    /// Flapping nodes.
    pub flaps: Option<FlapSpec>,
    /// Mid-run capacity degradation.
    pub degradation: Option<DegradationSpec>,
    /// Flash-crowd demand spikes.
    pub flash_crowds: Option<FlashCrowdSpec>,
    /// Antagonist batch floods.
    pub batch_floods: Option<FloodSpec>,
}

fn require(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

impl ChaosSpec {
    /// `true` when no chaos dimension is configured.
    pub fn is_empty(&self) -> bool {
        *self == ChaosSpec::default()
    }

    /// Structural sanity of every configured dimension; returns a
    /// message naming the offending field on failure. `node_count` is
    /// the cluster size the plan will be lowered against.
    pub fn validate(&self, node_count: usize) -> Result<(), String> {
        if let Some(s) = &self.zone_storms {
            require(
                s.first_secs.is_finite() && s.first_secs >= 0.0,
                "zone_storms.first_secs must be finite and non-negative",
            )?;
            require(
                s.period_secs.is_finite() && s.period_secs > 0.0,
                "zone_storms.period_secs must be positive",
            )?;
            require(
                s.duration_secs > 0.0 && s.duration_secs < s.period_secs,
                "zone_storms.duration_secs must be in (0, period_secs)",
            )?;
            require(
                s.zones_per_storm >= 1,
                "zone_storms.zones_per_storm must be at least 1",
            )?;
            require(
                s.node_fraction > 0.0 && s.node_fraction <= 1.0,
                "zone_storms.node_fraction must be in (0, 1]",
            )?;
        }
        if let Some(f) = &self.flaps {
            require(f.nodes >= 1, "flaps.nodes must be at least 1")?;
            require(
                (f.nodes as usize) <= node_count,
                "flaps.nodes exceeds the cluster size",
            )?;
            require(
                f.first_secs.is_finite() && f.first_secs >= 0.0,
                "flaps.first_secs must be finite and non-negative",
            )?;
            require(
                f.period_secs.is_finite() && f.period_secs > 0.0,
                "flaps.period_secs must be positive",
            )?;
            require(
                f.down_secs > 0.0 && f.down_secs < f.period_secs,
                "flaps.down_secs must be in (0, period_secs)",
            )?;
        }
        if let Some(d) = &self.degradation {
            require(d.nodes >= 1, "degradation.nodes must be at least 1")?;
            require(
                (d.nodes as usize) <= node_count,
                "degradation.nodes exceeds the cluster size",
            )?;
            require(
                d.from_secs.is_finite() && d.from_secs >= 0.0,
                "degradation.from_secs must be finite and non-negative",
            )?;
            require(
                d.to_secs.is_finite() && d.to_secs > d.from_secs,
                "degradation.to_secs must exceed from_secs",
            )?;
            require(
                d.cpu_factor > 0.0 && d.cpu_factor < 1.0,
                "degradation.cpu_factor must be in (0, 1)",
            )?;
        }
        if let Some(fc) = &self.flash_crowds {
            require(
                fc.surge.is_finite() && fc.surge > 0.0,
                "flash_crowds.surge must be positive",
            )?;
            require(
                fc.first_secs.is_finite() && fc.first_secs >= 0.0,
                "flash_crowds.first_secs must be finite and non-negative",
            )?;
            require(
                fc.period_secs.is_finite() && fc.period_secs > 0.0,
                "flash_crowds.period_secs must be positive",
            )?;
            require(
                fc.spike_secs > 0.0 && fc.spike_secs < fc.period_secs,
                "flash_crowds.spike_secs must be in (0, period_secs)",
            )?;
        }
        if let Some(fl) = &self.batch_floods {
            require(
                fl.first_secs.is_finite() && fl.first_secs >= 0.0,
                "batch_floods.first_secs must be finite and non-negative",
            )?;
            require(
                fl.period_secs.is_finite() && fl.period_secs > 0.0,
                "batch_floods.period_secs must be positive",
            )?;
            require(
                fl.batch_size >= 1,
                "batch_floods.batch_size must be at least 1",
            )?;
            require(fl.max_jobs >= 1, "batch_floods.max_jobs must be at least 1")?;
            require(
                fl.work_secs.is_finite() && fl.work_secs > 0.0,
                "batch_floods.work_secs must be positive",
            )?;
            require(fl.mem_mb >= 1, "batch_floods.mem_mb must be at least 1")?;
        }
        Ok(())
    }

    /// Lower the outage and capacity dimensions into `faults` against a
    /// cluster: the storm and flap windows, merged per node, are appended
    /// to `faults.outages` and the degraded nodes' windows to
    /// `faults.dips`. The flash crowds and floods reach the workload
    /// instead ([`ChaosSpec::spike`], `batch_floods`).
    ///
    /// `zone_table[i]` is the zone of node `i` (one entry per node —
    /// for an unzoned cluster pass the same zone for every node).
    /// All sampling is seeded from `seed` through per-dimension
    /// domain-separated streams, so what is appended is a pure function
    /// of `(spec, seed, horizon, zone_table)`.
    pub fn lower_into(
        &self,
        seed: u64,
        horizon_secs: f64,
        zone_table: &[ZoneId],
        faults: &mut Faults,
    ) {
        faults
            .outages
            .extend(merge_outages(self.outages(seed, horizon_secs, zone_table)));
        if let Some(d) = &self.degradation {
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4465_6772_6164_6531); // "Degrade1"
            let mut pool: Vec<u32> = (0..zone_table.len() as u32).collect();
            let first = faults.dips.len();
            for _ in 0..(d.nodes as usize).min(pool.len()) {
                let node = pool.swap_remove(index(&mut rng, pool.len()));
                faults.dips.push(CapacityDip {
                    node: NodeId::new(node),
                    from: SimTime::from_secs(d.from_secs),
                    to: SimTime::from_secs(d.to_secs),
                    cpu_factor: d.cpu_factor,
                });
            }
            faults.dips[first..].sort_by_key(|d| d.node);
        }
    }

    /// The flash-crowd surge to sum onto every transactional app's trace.
    pub fn spike(&self) -> Option<IntensityTrace> {
        self.flash_crowds.map(|fc| IntensityTrace::Spiky {
            base: 0.0,
            surge: fc.surge,
            period_secs: fc.period_secs,
            spike_secs: fc.spike_secs,
            phase_secs: fc.first_secs,
        })
    }

    /// The storm windows, then the flap windows, before merging.
    fn outages(&self, seed: u64, horizon_secs: f64, zone_table: &[ZoneId]) -> Vec<NodeOutage> {
        let mut outages = Vec::new();

        if let Some(s) = &self.zone_storms {
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5a6f_6e65_5374_6f72); // "ZoneStor"
            let mut zones: Vec<ZoneId> = zone_table.to_vec();
            zones.sort_unstable();
            zones.dedup();
            if !zones.is_empty() {
                let mut t = s.first_secs;
                while t < horizon_secs {
                    let mut pool = zones.clone();
                    for _ in 0..(s.zones_per_storm as usize).min(zones.len()) {
                        let zone = pool.swap_remove(index(&mut rng, pool.len()));
                        let mut members: Vec<u32> = zone_table
                            .iter()
                            .enumerate()
                            .filter(|&(_, z)| *z == zone)
                            .map(|(i, _)| i as u32)
                            .collect();
                        let strike = ((members.len() as f64 * s.node_fraction).ceil() as usize)
                            .clamp(1, members.len());
                        for _ in 0..strike {
                            let node = members.swap_remove(index(&mut rng, members.len()));
                            outages.push(NodeOutage {
                                node: NodeId::new(node),
                                from: SimTime::from_secs(t),
                                to: SimTime::from_secs(t + s.duration_secs),
                            });
                        }
                    }
                    t += s.period_secs;
                }
            }
        }

        if let Some(f) = &self.flaps {
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x466c_6170_4e6f_6465); // "FlapNode"
            let mut pool: Vec<u32> = (0..zone_table.len() as u32).collect();
            for _ in 0..(f.nodes as usize).min(pool.len()) {
                let node = pool.swap_remove(index(&mut rng, pool.len()));
                let phase = unit_f64(&mut rng) * f.period_secs;
                let mut t = f.first_secs + phase;
                while t < horizon_secs {
                    outages.push(NodeOutage {
                        node: NodeId::new(node),
                        from: SimTime::from_secs(t),
                        to: SimTime::from_secs(t + f.down_secs),
                    });
                    t += f.period_secs;
                }
            }
        }

        outages
    }
}

/// Merge overlapping or touching outage windows per node so the lowered
/// windows are disjoint — storms and flaps may strike the same node.
fn merge_outages(mut v: Vec<NodeOutage>) -> Vec<NodeOutage> {
    v.sort_by(|a, b| a.node.cmp(&b.node).then(a.from.total_cmp(b.from)));
    let mut out: Vec<NodeOutage> = Vec::new();
    for o in v {
        match out.last_mut() {
            Some(last) if last.node == o.node && o.from <= last.to => {
                if o.to > last.to {
                    last.to = o.to;
                }
            }
            _ => out.push(o),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Capacity dips
// ---------------------------------------------------------------------------

/// A partial-capacity window: the node's CPU is scaled by `cpu_factor`
/// during `[from, to)` while its memory stays intact. Unlike an outage
/// the node stays alive, so placed work keeps running — slower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityDip {
    /// The degraded node.
    pub node: NodeId,
    /// Degradation onset.
    pub from: SimTime,
    /// Recovery instant.
    pub to: SimTime,
    /// CPU multiplier during the window, in `(0, 1)`.
    pub cpu_factor: f64,
}

// ---------------------------------------------------------------------------
// Overbooking
// ---------------------------------------------------------------------------

/// Overbooking knobs: the controller is shown node capacities inflated
/// by the overcommit ratios, while a seeded true-usage model decides,
/// per node per control cycle, whether the physical capacity "bites" —
/// drops below what was promised — forcing proportional clipping of
/// everything granted on that node. The penalty surfaces in satisfied
/// CPU and as the `overcommit` attribution cause.
///
/// The model assumes transactional allocations are capped at their
/// solver slices (`timing.cap_transactional`, the corpus default), so
/// per-node grants are exactly the enacted placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OvercommitSpec {
    /// Advertised-CPU multiplier, `>= 1`.
    pub cpu_ratio: f64,
    /// Advertised-memory multiplier, `>= 1`.
    pub mem_ratio: f64,
    /// Per-node per-cycle probability that true usage bites, in `[0, 1]`.
    pub bite_prob: f64,
    /// Fraction of physical CPU lost when a bite lands, in `(0, 1]`:
    /// true capacity becomes `physical * (1 - bite_depth)`.
    pub bite_depth: f64,
}

impl OvercommitSpec {
    /// Structural sanity; returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        require(
            self.cpu_ratio.is_finite() && self.cpu_ratio >= 1.0,
            "overcommit.cpu_ratio must be >= 1",
        )?;
        require(
            self.mem_ratio.is_finite() && self.mem_ratio >= 1.0,
            "overcommit.mem_ratio must be >= 1",
        )?;
        require(
            (0.0..=1.0).contains(&self.bite_prob),
            "overcommit.bite_prob must be in [0, 1]",
        )?;
        require(
            self.bite_depth > 0.0 && self.bite_depth <= 1.0,
            "overcommit.bite_depth must be in (0, 1]",
        )?;
        Ok(())
    }
}

/// The true-usage model: the fraction of a node's *physical* CPU
/// actually available during one control cycle. Keyed on
/// `(seed, cycle, node)` through a domain-separated [`ChaCha12Rng`]
/// stream — a pure function, identical across controller variants, so
/// bit-identity oracles (delta vs batch, observed vs not) hold under
/// overbooking too.
pub fn bite_factor(seed: u64, cycle: u64, node: NodeId, spec: &OvercommitSpec) -> f64 {
    let key = seed
        ^ 0x4f76_6572_636f_6d31 // "Overcom1"
        ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (node.raw() as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let mut rng = ChaCha12Rng::seed_from_u64(key);
    if unit_f64(&mut rng) < spec.bite_prob {
        1.0 - spec.bite_depth
    } else {
        1.0
    }
}

// ---------------------------------------------------------------------------
// Elasticity
// ---------------------------------------------------------------------------

/// Vertical elasticity: at seeded instants a random active job's
/// remaining work grows or shrinks (a resize request mid-run). The
/// resize flows through the snapshot differ as a `resized_jobs` entry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticitySpec {
    /// First resize instant (seconds).
    pub first_secs: f64,
    /// Resize recurrence period (seconds).
    pub period_secs: f64,
    /// Remaining-work multiplier on grow events, `> 1`.
    pub grow_factor: f64,
    /// Remaining-work multiplier on shrink events, in `(0, 1)`.
    pub shrink_factor: f64,
    /// Total resize events across the run.
    pub max_events: u32,
}

impl ElasticitySpec {
    /// Structural sanity; returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        require(
            self.first_secs.is_finite() && self.first_secs >= 0.0,
            "elasticity.first_secs must be finite and non-negative",
        )?;
        require(
            self.period_secs.is_finite() && self.period_secs > 0.0,
            "elasticity.period_secs must be positive",
        )?;
        require(
            self.grow_factor.is_finite() && self.grow_factor > 1.0,
            "elasticity.grow_factor must exceed 1",
        )?;
        require(
            self.shrink_factor > 0.0 && self.shrink_factor < 1.0,
            "elasticity.shrink_factor must be in (0, 1)",
        )?;
        require(
            self.max_events >= 1,
            "elasticity.max_events must be at least 1",
        )?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant checker
// ---------------------------------------------------------------------------

/// A [`Controller`] wrapper that re-checks every placement the inner
/// controller emits against cycle-level safety invariants:
///
/// 1. **No dead-node assignments** — no job and no positive app slice
///    lands on a zero-CPU (down) or unknown node.
/// 2. **Allocations within capacity** — per node, the sum of job grants
///    and app slices fits the advertised CPU, and placed memory
///    (job VMs + app instances) fits the advertised memory.
/// 3. **Change budget held** — the diff against the in-force placement
///    stays within `max_changes` when a budget is configured.
/// 4. **Conservation of job CPU** — every placed job is active and its
///    grant is finite, non-negative, and within the job's `max_speed`.
///
/// A NaN, infinite or negative grant or slice is reported and left out
/// of its node's total, so it cannot hide another entity's overdraw.
///
/// The companion attribution invariant (per-cause deficit parts sum to
/// the deficit they explain) lives on the SLO board and is asserted by
/// the adversarial test gate rather than here, since it is a property
/// of the observation plane, not of a single placement.
///
/// Violations are collected as human-readable strings (capped at
/// [`InvariantChecker::MAX_VIOLATIONS`]) instead of panicking, so a
/// harness can run a whole scenario and report everything at once.
pub struct InvariantChecker {
    inner: Box<dyn Controller>,
    max_changes: Option<usize>,
    violations: Vec<String>,
    cycles_checked: usize,
}

impl InvariantChecker {
    /// Cap on collected violation messages.
    pub const MAX_VIOLATIONS: usize = 64;

    /// Wrap a controller; `max_changes` is the per-cycle change budget
    /// to enforce, if the scenario configures one.
    pub fn new(inner: Box<dyn Controller>, max_changes: Option<usize>) -> Self {
        InvariantChecker {
            inner,
            max_changes,
            violations: Vec::new(),
            cycles_checked: 0,
        }
    }

    /// Violations collected so far (empty means every cycle was clean).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of control cycles checked.
    pub fn cycles_checked(&self) -> usize {
        self.cycles_checked
    }

    fn record(&mut self, msg: String) {
        if self.violations.len() < Self::MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    fn check(&mut self, inputs: &ControlInputs<'_>, next: &Placement) {
        let cycle = self.cycles_checked;
        self.cycles_checked += 1;

        let nodes: BTreeMap<NodeId, (f64, u64)> = inputs
            .nodes
            .iter()
            .map(|n| (n.id, (n.cpu.as_f64(), n.mem.as_u64())))
            .collect();
        let mut cpu_used: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut mem_used: BTreeMap<NodeId, u64> = BTreeMap::new();

        // Jobs: liveness, conservation, per-node accumulation.
        for (&job, &(node, grant)) in &next.jobs {
            let g = grant.as_f64();
            match nodes.get(&node) {
                None => self.record(format!("cycle {cycle}: {job} placed on unknown {node}")),
                Some(&(cpu, _)) if cpu <= 0.0 => {
                    self.record(format!("cycle {cycle}: {job} placed on dead {node}"))
                }
                Some(_) => {}
            }
            match inputs.jobs.job(job) {
                Ok(j) => {
                    if !j.is_active() {
                        self.record(format!("cycle {cycle}: completed {job} still placed"));
                    }
                    let max = j.spec.max_speed.as_f64();
                    if !is_quantity(g) || g > max * (1.0 + 1e-9) + 1e-9 {
                        self.record(format!(
                            "cycle {cycle}: {job} grant {g} MHz outside [0, max_speed {max}]"
                        ));
                    }
                    *mem_used.entry(node).or_insert(0) += j.spec.mem.as_u64();
                }
                Err(_) => self.record(format!("cycle {cycle}: unknown {job} in placement")),
            }
            if is_quantity(g) {
                *cpu_used.entry(node).or_insert(0.0) += g;
            }
        }

        // Apps: liveness and per-node accumulation.
        for (&app, slices) in &next.apps {
            let mem_per = inputs
                .apps
                .iter()
                .find(|a| a.id == app)
                .map(|a| a.spec.mem_per_instance.as_u64());
            if mem_per.is_none() {
                self.record(format!("cycle {cycle}: unknown {app} in placement"));
            }
            for (&node, &slice) in slices {
                let s = slice.as_f64();
                match nodes.get(&node) {
                    None => self.record(format!("cycle {cycle}: {app} instance on unknown {node}")),
                    Some(&(cpu, _)) if cpu <= 0.0 && s > 0.0 => self.record(format!(
                        "cycle {cycle}: {app} has a {s} MHz slice on dead {node}"
                    )),
                    Some(_) => {}
                }
                if is_quantity(s) {
                    *cpu_used.entry(node).or_insert(0.0) += s;
                } else {
                    self.record(format!(
                        "cycle {cycle}: {app} slice {s} MHz on {node} not finite/non-negative"
                    ));
                }
                *mem_used.entry(node).or_insert(0) += mem_per.unwrap_or(0);
            }
        }

        // Per-node capacity.
        for (&node, &used) in &cpu_used {
            if let Some(&(cpu, _)) = nodes.get(&node) {
                if used > cpu * (1.0 + 1e-9) + 1e-6 {
                    self.record(format!(
                        "cycle {cycle}: {node} CPU oversubscribed: {used:.3} > {cpu:.3} MHz"
                    ));
                }
            }
        }
        for (&node, &used) in &mem_used {
            if let Some(&(_, mem)) = nodes.get(&node) {
                if used > mem {
                    self.record(format!(
                        "cycle {cycle}: {node} memory oversubscribed: {used} > {mem} MB"
                    ));
                }
            }
        }

        // Change budget.
        if let Some(budget) = self.max_changes {
            let changes = next.diff(inputs.current).len();
            if changes > budget {
                self.record(format!(
                    "cycle {cycle}: {changes} changes exceed the budget of {budget}"
                ));
            }
        }
    }
}

/// Whether a grant or slice may join its node's CPU total: a NaN there
/// turns every capacity comparison false, a negative value cancels
/// another entity's overdraw.
fn is_quantity(mhz: f64) -> bool {
    mhz.is_finite() && mhz >= 0.0
}

impl Controller for InvariantChecker {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        let next = self.inner.control(inputs, metrics);
        self.check(inputs, &next);
        next
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_spec() -> ChaosSpec {
        ChaosSpec {
            zone_storms: Some(ZoneStormSpec {
                first_secs: 1000.0,
                period_secs: 4000.0,
                duration_secs: 900.0,
                zones_per_storm: 1,
                node_fraction: 0.5,
            }),
            ..ChaosSpec::default()
        }
    }

    fn zones(table: &[u32]) -> Vec<ZoneId> {
        table.iter().map(|&z| ZoneId::new(z)).collect()
    }

    fn lowered(spec: &ChaosSpec, seed: u64, horizon_secs: f64, table: &[ZoneId]) -> Faults {
        let mut faults = Faults::default();
        spec.lower_into(seed, horizon_secs, table, &mut faults);
        faults
    }

    #[test]
    fn lowering_is_deterministic_in_the_seed() {
        let spec = ChaosSpec {
            flaps: Some(FlapSpec {
                nodes: 2,
                first_secs: 500.0,
                period_secs: 3000.0,
                down_secs: 600.0,
            }),
            ..storm_spec()
        };
        let table = zones(&[0, 0, 0, 1, 1, 1]);
        let a = lowered(&spec, 42, 20_000.0, &table);
        let b = lowered(&spec, 42, 20_000.0, &table);
        assert_eq!(a, b);
        let c = lowered(&spec, 43, 20_000.0, &table);
        assert_ne!(a, c, "a different seed should draw a different plan");
    }

    #[test]
    fn storms_strike_within_single_zones() {
        let table = zones(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let plan = lowered(&storm_spec(), 7, 30_000.0, &table);
        assert!(!plan.outages.is_empty());
        // Each storm window's nodes all belong to one zone.
        let mut by_from: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for o in &plan.outages {
            by_from
                .entry(o.from.as_secs() as u64)
                .or_default()
                .push(o.node.raw());
        }
        for (from, nodes) in by_from {
            let zs: Vec<u32> = nodes.iter().map(|&n| table[n as usize].raw()).collect();
            assert!(
                zs.windows(2).all(|w| w[0] == w[1]),
                "storm at {from}s spans zones: nodes {nodes:?}"
            );
            assert_eq!(nodes.len(), 2, "half of a 4-node zone rounds up to 2");
        }
    }

    #[test]
    fn merged_outage_windows_are_disjoint_per_node() {
        let spec = ChaosSpec {
            flaps: Some(FlapSpec {
                nodes: 4,
                first_secs: 0.0,
                period_secs: 1000.0,
                down_secs: 900.0,
            }),
            ..storm_spec()
        };
        let table = zones(&[0; 4]);
        let plan = lowered(&spec, 11, 25_000.0, &table);
        let mut per_node: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
        for o in &plan.outages {
            assert!(o.to > o.from);
            per_node
                .entry(o.node.raw())
                .or_default()
                .push((o.from.as_secs(), o.to.as_secs()));
        }
        for (node, mut windows) in per_node {
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in windows.windows(2) {
                assert!(
                    w[0].1 < w[1].0,
                    "node {node}: windows {:?} and {:?} overlap after merging",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn bite_factor_is_deterministic_and_respects_probability_bounds() {
        let spec = OvercommitSpec {
            cpu_ratio: 1.5,
            mem_ratio: 1.0,
            bite_prob: 0.5,
            bite_depth: 0.25,
        };
        let mut bites = 0;
        for cycle in 0..200u64 {
            let f = bite_factor(9, cycle, NodeId::new(3), &spec);
            assert_eq!(f, bite_factor(9, cycle, NodeId::new(3), &spec));
            assert!(f == 1.0 || (f - 0.75).abs() < 1e-12);
            if f < 1.0 {
                bites += 1;
            }
        }
        assert!(
            (50..150).contains(&bites),
            "p=0.5 should bite ~half: {bites}"
        );
        let never = OvercommitSpec {
            bite_prob: 0.0,
            ..spec
        };
        assert_eq!(bite_factor(9, 0, NodeId::new(0), &never), 1.0);
        let always = OvercommitSpec {
            bite_prob: 1.0,
            ..spec
        };
        assert!((bite_factor(9, 0, NodeId::new(0), &always) - 0.75).abs() < 1e-12);
    }

    /// Hands the checker one fixed placement.
    struct Scripted(Placement);

    impl Controller for Scripted {
        fn control(&mut self, _: &ControlInputs<'_>, _: &mut MetricsSink) -> Placement {
            self.0.clone()
        }
    }

    #[test]
    fn hostile_grants_are_reported_without_hiding_an_overdraw() {
        use crate::AppObservation;
        use slaq_jobs::{JobManager, JobSpec};
        use slaq_perfmodel::TransactionalSpec;
        use slaq_placement::problem::NodeCapacity;
        use slaq_types::{AppId, CpuMhz, JobId, MemMb, SimDuration, Work};
        use slaq_utility::{CompletionGoal, ResponseTimeGoal};

        let (node0, dead) = (NodeId::new(0), NodeId::new(1));
        let nodes = [
            NodeCapacity {
                id: node0,
                cpu: CpuMhz::new(12_000.0),
                mem: MemMb::new(65_536),
            },
            NodeCapacity {
                id: dead,
                cpu: CpuMhz::ZERO,
                mem: MemMb::new(65_536),
            },
        ];
        let mut jobs = JobManager::new();
        for i in 0..3 {
            let spec = JobSpec {
                name: format!("j{i}"),
                total_work: Work::from_power_secs(CpuMhz::new(30_000.0), 600.0),
                max_speed: CpuMhz::new(30_000.0),
                mem: MemMb::new(1280),
                goal: CompletionGoal::relative(
                    SimTime::ZERO,
                    SimDuration::from_secs(600.0),
                    1.25,
                    2.0,
                )
                .unwrap(),
                importance: 1.0,
            };
            jobs.submit(spec, SimTime::ZERO).unwrap();
        }
        let app = AppId::new(0);
        let apps = [AppObservation {
            id: app,
            spec: TransactionalSpec {
                name: "front".into(),
                service_per_request: Work::new(720.0),
                rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
                mem_per_instance: MemMb::new(1024),
                max_instances: 4,
                min_instances: 1,
                u_cap: 0.9,
            },
            lambda: 1.0,
            affinity: Vec::new(),
        }];
        // On node 0: an in-range 20 000 MHz grant that overdraws the
        // 12 000 MHz node, beside a NaN grant, a -10 000 grant and an
        // infinite slice that could each mask it. An instance on the dead
        // node besides. (The raw constructor: `CpuMhz::new` asserts
        // finiteness in debug builds, a hostile controller need not.)
        let mut plan = Placement::empty();
        for (j, grant) in [(0, 20_000.0), (1, f64::NAN), (2, -10_000.0)] {
            plan.jobs.insert(JobId::new(j), (node0, CpuMhz(grant)));
        }
        let slices = plan.apps.entry(app).or_default();
        slices.insert(node0, CpuMhz(f64::INFINITY));
        slices.insert(dead, CpuMhz(500.0));

        let current = Placement::empty();
        let inputs = ControlInputs {
            now: SimTime::ZERO,
            nodes: &nodes,
            current: &current,
            jobs: &jobs,
            apps: &apps,
        };
        let mut checker = InvariantChecker::new(Box::new(Scripted(plan)), None);
        checker.control(&inputs, &mut MetricsSink::new());
        let violations = checker.violations();
        let reported = |needle: String| {
            assert!(
                violations.iter().any(|v| v.contains(&needle)),
                "{needle:?} not in {violations:#?}"
            )
        };
        reported(format!("{} grant NaN MHz", JobId::new(1)));
        reported(format!("{} grant -10000 MHz", JobId::new(2)));
        reported(format!("{app} slice inf MHz on {node0}"));
        reported(format!("{app} has a 500 MHz slice on dead {dead}"));
        reported(format!(
            "{node0} CPU oversubscribed: 20000.000 > 12000.000 MHz"
        ));
    }

    #[test]
    fn validation_names_the_offending_field() {
        let mut spec = storm_spec();
        spec.zone_storms.as_mut().unwrap().node_fraction = 0.0;
        let err = spec.validate(6).unwrap_err();
        assert!(err.contains("node_fraction"), "got {err}");

        let bad = OvercommitSpec {
            cpu_ratio: 0.5,
            mem_ratio: 1.0,
            bite_prob: 0.1,
            bite_depth: 0.2,
        };
        assert!(bad.validate().unwrap_err().contains("cpu_ratio"));

        let bad = ElasticitySpec {
            first_secs: 0.0,
            period_secs: 100.0,
            grow_factor: 0.9,
            shrink_factor: 0.5,
            max_events: 1,
        };
        assert!(bad.validate().unwrap_err().contains("grow_factor"));

        let flaps = ChaosSpec {
            flaps: Some(FlapSpec {
                nodes: 9,
                first_secs: 0.0,
                period_secs: 100.0,
                down_secs: 10.0,
            }),
            ..ChaosSpec::default()
        };
        assert!(flaps.validate(6).unwrap_err().contains("cluster size"));
    }

    // `ChaosSpec::lower` and the `FaultPlan` it returned, from before the
    // windows were lowered straight into `Faults`, kept verbatim: the
    // oracle of `lower_into_appends_what_the_plan_lowering_returned`.
    impl ChaosSpec {
        /// Lower the spec into a concrete [`FaultPlan`] against a cluster.
        ///
        /// `zone_table[i]` is the zone of node `i` (one entry per node —
        /// for an unzoned cluster pass the same zone for every node).
        /// All sampling is seeded from `seed` through per-dimension
        /// domain-separated streams, so the plan is a pure function of
        /// `(spec, seed, horizon, zone_table)`.
        pub fn lower(&self, seed: u64, horizon_secs: f64, zone_table: &[ZoneId]) -> FaultPlan {
            let mut outages = Vec::new();
            let mut dips = Vec::new();

            if let Some(s) = &self.zone_storms {
                let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5a6f_6e65_5374_6f72); // "ZoneStor"
                let mut zones: Vec<ZoneId> = zone_table.to_vec();
                zones.sort_unstable();
                zones.dedup();
                if !zones.is_empty() {
                    let mut t = s.first_secs;
                    while t < horizon_secs {
                        let mut pool = zones.clone();
                        for _ in 0..(s.zones_per_storm as usize).min(zones.len()) {
                            let zone = pool.swap_remove(index(&mut rng, pool.len()));
                            let mut members: Vec<u32> = zone_table
                                .iter()
                                .enumerate()
                                .filter(|&(_, z)| *z == zone)
                                .map(|(i, _)| i as u32)
                                .collect();
                            let strike = ((members.len() as f64 * s.node_fraction).ceil() as usize)
                                .clamp(1, members.len());
                            for _ in 0..strike {
                                let node = members.swap_remove(index(&mut rng, members.len()));
                                outages.push(NodeOutage {
                                    node: NodeId::new(node),
                                    from: SimTime::from_secs(t),
                                    to: SimTime::from_secs(t + s.duration_secs),
                                });
                            }
                        }
                        t += s.period_secs;
                    }
                }
            }

            if let Some(f) = &self.flaps {
                let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x466c_6170_4e6f_6465); // "FlapNode"
                let mut pool: Vec<u32> = (0..zone_table.len() as u32).collect();
                for _ in 0..(f.nodes as usize).min(pool.len()) {
                    let node = pool.swap_remove(index(&mut rng, pool.len()));
                    let phase = unit_f64(&mut rng) * f.period_secs;
                    let mut t = f.first_secs + phase;
                    while t < horizon_secs {
                        outages.push(NodeOutage {
                            node: NodeId::new(node),
                            from: SimTime::from_secs(t),
                            to: SimTime::from_secs(t + f.down_secs),
                        });
                        t += f.period_secs;
                    }
                }
            }

            if let Some(d) = &self.degradation {
                let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4465_6772_6164_6531); // "Degrade1"
                let mut pool: Vec<u32> = (0..zone_table.len() as u32).collect();
                for _ in 0..(d.nodes as usize).min(pool.len()) {
                    let node = pool.swap_remove(index(&mut rng, pool.len()));
                    dips.push(CapacityDip {
                        node: NodeId::new(node),
                        from: SimTime::from_secs(d.from_secs),
                        to: SimTime::from_secs(d.to_secs),
                        cpu_factor: d.cpu_factor,
                    });
                }
                dips.sort_by_key(|d| d.node);
            }

            let spike = self.flash_crowds.map(|fc| IntensityTrace::Spiky {
                base: 0.0,
                surge: fc.surge,
                period_secs: fc.period_secs,
                spike_secs: fc.spike_secs,
                phase_secs: fc.first_secs,
            });

            FaultPlan {
                outages: merge_outages(outages),
                dips,
                spike,
                flood: self.batch_floods,
            }
        }
    }

    /// A lowered chaos plan: plain simulator inputs, ready to install.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultPlan {
        /// Node outages (per-node windows merged and disjoint).
        pub outages: Vec<NodeOutage>,
        /// Partial-capacity windows.
        pub dips: Vec<CapacityDip>,
        /// Extra demand to sum onto every transactional app's trace.
        pub spike: Option<IntensityTrace>,
        /// Antagonist batch flood to synthesize as an extra job stream.
        pub flood: Option<FloodSpec>,
    }

    /// Seeded worlds: every chaos dimension on or off at random (windows
    /// that outlast their period included, so the merge joins some),
    /// zone tables of 0–24 nodes over up to five zone ids, horizons
    /// before and after the first onsets, and `Faults` that already hold
    /// a spec's outages and dips. `lower_into` must append exactly the
    /// plan's outages and dips, bit for bit, after what was there, and
    /// `spike` must equal the plan's spike. The same windows appended
    /// without `merge_outages` must differ from the plan's, so a skipped
    /// merge fails here.
    #[test]
    fn lower_into_appends_what_the_plan_lowering_returned() {
        fn bits(faults: &[NodeOutage]) -> Vec<(u32, u64, u64)> {
            faults
                .iter()
                .map(|o| {
                    (
                        o.node.raw(),
                        o.from.as_secs().to_bits(),
                        o.to.as_secs().to_bits(),
                    )
                })
                .collect()
        }
        fn dip_bits(dips: &[CapacityDip]) -> Vec<(u32, u64, u64, u64)> {
            dips.iter()
                .map(|d| {
                    let (from, to) = (d.from.as_secs(), d.to.as_secs());
                    (
                        d.node.raw(),
                        from.to_bits(),
                        to.to_bits(),
                        d.cpu_factor.to_bits(),
                    )
                })
                .collect()
        }
        // worlds, with storms, with flaps, with degradation, with a
        // spike, outages compared, dips compared, windows the merge
        // joined, worlds where a skipped merge differs
        let mut tally = [0usize; 9];
        for seed in 0..2_000u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x4c6f_7765_7249_6e74); // "LowerInt"
            let mut draw = |lo: f64, hi: f64| lo + unit_f64(&mut rng) * (hi - lo);
            let nodes = (draw(0.0, 25.0) as usize).min(24);
            let zone_ids = 1 + draw(0.0, 5.0) as u32;
            let table: Vec<ZoneId> = (0..nodes)
                .map(|_| ZoneId::new(draw(0.0, f64::from(zone_ids)) as u32))
                .collect();
            let horizon = draw(0.0, 40_000.0);
            let on = |p: f64, x: f64| x < p;
            let period = draw(300.0, 9_000.0);
            let spec = ChaosSpec {
                zone_storms: on(0.6, draw(0.0, 1.0)).then(|| ZoneStormSpec {
                    first_secs: draw(0.0, 8_000.0),
                    period_secs: period,
                    duration_secs: draw(50.0, 1.5 * period),
                    zones_per_storm: draw(0.0, 4.0) as u32,
                    node_fraction: draw(0.01, 1.0),
                }),
                flaps: on(0.6, draw(0.0, 1.0)).then(|| {
                    let period = draw(300.0, 6_000.0);
                    FlapSpec {
                        nodes: draw(0.0, 30.0) as u32,
                        first_secs: draw(0.0, 5_000.0),
                        period_secs: period,
                        down_secs: draw(50.0, 1.5 * period),
                    }
                }),
                degradation: on(0.5, draw(0.0, 1.0)).then(|| DegradationSpec {
                    nodes: draw(0.0, 30.0) as u32,
                    from_secs: draw(0.0, 10_000.0),
                    to_secs: draw(10_000.0, 30_000.0),
                    cpu_factor: draw(0.05, 0.95),
                }),
                flash_crowds: on(0.5, draw(0.0, 1.0)).then(|| FlashCrowdSpec {
                    surge: draw(1.0, 40.0),
                    first_secs: draw(0.0, 5_000.0),
                    period_secs: period,
                    spike_secs: draw(1.0, period),
                }),
                batch_floods: None,
            };
            // What a spec's own outages and an earlier lowering left.
            let mut faults = Faults::default();
            for _ in 0..draw(0.0, 4.0) as usize {
                let from = draw(0.0, 20_000.0);
                faults.outages.push(NodeOutage {
                    node: NodeId::new(draw(0.0, 24.0) as u32),
                    from: SimTime::from_secs(from),
                    to: SimTime::from_secs(from + draw(1.0, 5_000.0)),
                });
            }
            if on(0.3, draw(0.0, 1.0)) {
                faults.dips.push(CapacityDip {
                    node: NodeId::new(draw(0.0, 24.0) as u32),
                    from: SimTime::from_secs(100.0),
                    to: SimTime::from_secs(900.0),
                    cpu_factor: 0.5,
                });
            }
            let (before_outages, before_dips) = (faults.outages.clone(), faults.dips.clone());

            let plan = spec.lower(seed, horizon, &table);
            spec.lower_into(seed, horizon, &table, &mut faults);

            let mut want = before_outages.clone();
            want.extend(plan.outages.iter().copied());
            assert_eq!(bits(&faults.outages), bits(&want), "seed {seed}: outages");
            let mut want = before_dips;
            want.extend(plan.dips.iter().copied());
            assert_eq!(dip_bits(&faults.dips), dip_bits(&want), "seed {seed}: dips");
            assert_eq!(
                format!("{:?}", spec.spike()),
                format!("{:?}", plan.spike),
                "seed {seed}: spike"
            );

            let unmerged = spec.outages(seed, horizon, &table);
            tally[0] += 1;
            tally[1] += usize::from(spec.zone_storms.is_some());
            tally[2] += usize::from(spec.flaps.is_some());
            tally[3] += usize::from(spec.degradation.is_some());
            tally[4] += usize::from(plan.spike.is_some());
            tally[5] += plan.outages.len();
            tally[6] += plan.dips.len();
            tally[7] += unmerged.len() - plan.outages.len();
            tally[8] += usize::from(bits(&unmerged) != bits(&plan.outages));
        }
        println!(
            "chaos lowering sweep: {} worlds ({} with storms, {} with flaps, \
             {} with degradation, {} with a spike), {} outages and {} dips compared, \
             {} windows joined by the merge, a skipped merge caught in {} worlds",
            tally[0],
            tally[1],
            tally[2],
            tally[3],
            tally[4],
            tally[5],
            tally[6],
            tally[7],
            tally[8]
        );
        let floors = [2_000, 1_000, 1_000, 800, 800, 50_000, 6_000, 40_000, 1_000];
        for (seen, floor) in tally.iter().zip(floors) {
            assert!(*seen >= floor, "{tally:?} under {floors:?}");
        }
    }
}
