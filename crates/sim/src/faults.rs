//! The fault model: the [`Faults`] a run is given once, and the stage the
//! event loop asks what they leave of the fleet now ([`FaultModel`]).
//!
//! Outage and dip windows lower a node's *physical* capacity; the
//! overbooking ratios inflate it into the *advertised* capacity the
//! controller senses and placements are validated against. Both only
//! change when the clock crosses a window boundary, so they are kept as
//! state: a sorted boundary list with a cursor says when to re-derive,
//! and every reader between two boundaries borrows the same two slices.
//! A boundary only moves the node whose window it opens or closes, so
//! each one is kept with that node's position: a refresh that crosses
//! boundaries re-derives those nodes alone and hands the boundaries back
//! for the caller to mark. The whole fleet is derived once, at instant
//! zero. Beside the capacities the stage keeps this control cycle's
//! overbooking bites and the elasticity resize schedule.

use crate::chaos::{bite_factor, CapacityDip, ElasticitySpec, OvercommitSpec};
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use slaq_placement::problem::NodeCapacity;
use slaq_types::{CpuMhz, JobId, MemMb, SimTime};

/// A planned node outage (failure injection): the node contributes no
/// CPU or memory during `[from, to)`; running jobs on it are suspended
/// when it goes down and the controller sees a zero-capacity node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeOutage {
    /// The failing node.
    pub node: slaq_types::NodeId,
    /// Failure instant.
    pub from: SimTime,
    /// Recovery instant.
    pub to: SimTime,
}

/// Everything that perturbs a run's fleet, given to
/// [`Simulator::new`](crate::Simulator::new) once. The default perturbs
/// nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Faults {
    /// Outage windows; several may name one node.
    pub outages: Vec<NodeOutage>,
    /// Partial-capacity windows: CPU scaled, the node alive.
    pub dips: Vec<CapacityDip>,
    /// Overbooking: inflated advertised capacities, and per control cycle
    /// and node a seeded [`bite_factor`] of the physical CPU.
    pub overcommit: Option<OvercommitSpec>,
    /// Vertical elasticity: seeded resizes of active jobs' remaining work.
    pub elasticity: Option<ElasticitySpec>,
    /// Seed of the bites and the resize draws.
    pub seed: u64,
}

/// One window edge: the instant and the position, in the fleet handed
/// to [`FaultModel::refresh`], of the node it moves (`None`: a node the
/// fleet does not list, which moves nothing).
#[derive(Debug)]
pub(crate) struct Boundary {
    at: SimTime,
    pub(crate) node: Option<u32>,
}

/// The fault stage: the [`Faults`] and what they yield at the instant of
/// the last [`FaultModel::refresh`].
#[derive(Debug)]
pub(crate) struct FaultModel {
    faults: Faults,
    physical: Vec<NodeCapacity>,
    /// Empty while overbooking is off.
    advertised: Vec<NodeCapacity>,
    /// Every window start and end, ascending by instant.
    boundaries: Vec<Boundary>,
    /// First boundary after the instant of the last refresh.
    cursor: usize,
    /// This cycle's [`bite_factor`] per node position; empty while
    /// overbooking is off.
    bites: Vec<f64>,
    /// Resizes taken so far: the next one's draw index.
    resizes: u32,
    /// Seconds of the next resize: `first_secs` plus `period_secs` once
    /// per resize taken, added up in that order.
    next_resize: f64,
    /// Seconds of the horizon; no resize falls at or after it.
    horizon: f64,
}

/// *Physical* capacity of `n` at instant `t`: zero CPU and memory inside
/// an outage window, scaled CPU inside a dip window.
fn physical_at(
    outages: &[NodeOutage],
    dips: &[CapacityDip],
    n: &NodeCapacity,
    t: SimTime,
) -> NodeCapacity {
    let down = outages
        .iter()
        .any(|o| o.node == n.id && o.from <= t && t < o.to);
    if down {
        return NodeCapacity {
            id: n.id,
            cpu: CpuMhz::ZERO,
            mem: MemMb::ZERO,
        };
    }
    let dip = dips
        .iter()
        .filter(|d| d.node == n.id && d.from <= t && t < d.to)
        .map(|d| d.cpu_factor)
        .fold(1.0, f64::min);
    if dip < 1.0 {
        NodeCapacity {
            id: n.id,
            cpu: n.cpu * dip,
            mem: n.mem,
        }
    } else {
        *n
    }
}

/// *Advertised* capacity for a physical one under overbooking `oc`.
fn advertise(mut n: NodeCapacity, oc: &OvercommitSpec) -> NodeCapacity {
    n.cpu = n.cpu * oc.cpu_ratio;
    n.mem = MemMb::new((n.mem.as_u64() as f64 * oc.mem_ratio) as u64);
    n
}

impl FaultModel {
    /// The stage at instant zero over `base`, the fleet at full health,
    /// for a run ending at `horizon`: capacities derived, cycle 0's bites
    /// drawn.
    pub(crate) fn new(base: &[NodeCapacity], faults: Faults, horizon: SimTime) -> Self {
        let position = |node| base.iter().position(|n| n.id == node).map(|pos| pos as u32);
        let mut boundaries: Vec<Boundary> = faults
            .outages
            .iter()
            .flat_map(|o| {
                let node = position(o.node);
                [o.from, o.to].map(|at| Boundary { at, node })
            })
            .chain(faults.dips.iter().flat_map(|d| {
                let node = position(d.node);
                [d.from, d.to].map(|at| Boundary { at, node })
            }))
            .collect();
        boundaries.sort_unstable_by(|a, b| a.at.total_cmp(b.at));
        let physical: Vec<NodeCapacity> = base
            .iter()
            .map(|n| physical_at(&faults.outages, &faults.dips, n, SimTime::ZERO))
            .collect();
        let advertised = match &faults.overcommit {
            Some(oc) => physical.iter().map(|&n| advertise(n, oc)).collect(),
            None => Vec::new(),
        };
        let mut model = FaultModel {
            cursor: boundaries.partition_point(|b| b.at <= SimTime::ZERO),
            next_resize: faults.elasticity.map_or(0.0, |el| el.first_secs),
            faults,
            physical,
            advertised,
            boundaries,
            bites: Vec::new(),
            resizes: 0,
            horizon: horizon.as_secs(),
        };
        model.draw_bites(base, 0, |_| {});
        model
    }

    /// Bring the capacities of `base` up to instant `now` and hand back
    /// the boundaries crossed: only their nodes moved (one may repeat),
    /// and an empty slice means nothing did. The clock only moves
    /// forward, and `base` is the fleet given to [`FaultModel::new`]
    /// (boundaries keep positions into it).
    pub(crate) fn refresh(&mut self, base: &[NodeCapacity], now: SimTime) -> &[Boundary] {
        let from = self.cursor;
        self.cursor += self.boundaries[from..].partition_point(|b| b.at <= now);
        let Faults { outages, dips, .. } = &self.faults;
        for b in &self.boundaries[from..self.cursor] {
            let Some(pos) = b.node.map(|pos| pos as usize) else {
                continue;
            };
            self.physical[pos] = physical_at(outages, dips, &base[pos], now);
            if let Some(oc) = &self.faults.overcommit {
                self.advertised[pos] = advertise(self.physical[pos], oc);
            }
        }
        &self.boundaries[from..self.cursor]
    }

    /// Physical capacities as of the last refresh.
    pub(crate) fn physical(&self) -> &[NodeCapacity] {
        &self.physical
    }

    /// Advertised capacities as of the last refresh.
    pub(crate) fn advertised(&self) -> &[NodeCapacity] {
        if self.overbooked() {
            &self.advertised
        } else {
            &self.physical
        }
    }

    /// Earliest window boundary after the instant of the last refresh
    /// (`NEVER` if none).
    pub(crate) fn next_boundary(&self) -> SimTime {
        self.boundaries
            .get(self.cursor)
            .map_or(SimTime::NEVER, |b| b.at)
    }

    /// Whether the capacities equal a from-scratch derivation at `now`.
    pub(crate) fn is_current(&self, base: &[NodeCapacity], now: SimTime) -> bool {
        let Faults { outages, dips, .. } = &self.faults;
        let fresh = base.iter().map(|n| physical_at(outages, dips, n, now));
        self.physical.iter().copied().eq(fresh.clone())
            && match &self.faults.overcommit {
                Some(oc) => self
                    .advertised
                    .iter()
                    .copied()
                    .eq(fresh.map(|n| advertise(n, oc))),
                None => self.advertised.is_empty(),
            }
    }

    /// Whether overbooking is on.
    pub(crate) fn overbooked(&self) -> bool {
        self.faults.overcommit.is_some()
    }

    /// Draw the overbooking bite factor of every node of `base` for
    /// control cycle `cycle`, handing `moved` the position of every node
    /// whose factor changed bits (every node at the first draw).
    pub(crate) fn draw_bites(
        &mut self,
        base: &[NodeCapacity],
        cycle: u64,
        mut moved: impl FnMut(usize),
    ) {
        if let Some(oc) = &self.faults.overcommit {
            let seed = self.faults.seed;
            self.bites.resize(base.len(), f64::NAN);
            for (pos, (n, bite)) in base.iter().zip(&mut self.bites).enumerate() {
                let drawn = bite_factor(seed, cycle, n.id, oc);
                if drawn.to_bits() != bite.to_bits() {
                    *bite = drawn;
                    moved(pos);
                }
            }
        }
    }

    /// This cycle's bite factor per node position.
    pub(crate) fn bites(&self) -> &[f64] {
        &self.bites
    }

    /// Whether the bites are cycle `cycle`'s draw over `base`: the debug
    /// cross-check of every read of them.
    pub(crate) fn bites_are_current(&self, base: &[NodeCapacity], cycle: u64) -> bool {
        let Some(oc) = &self.faults.overcommit else {
            return self.bites.is_empty();
        };
        let drawn = base
            .iter()
            .map(|n| bite_factor(self.faults.seed, cycle, n.id, oc));
        self.bites
            .iter()
            .map(|b| b.to_bits())
            .eq(drawn.map(f64::to_bits))
    }

    /// The overbooking model handed to the speed kernel: the true CPU of
    /// the node at a position is its physical capacity scaled by this
    /// cycle's bite (`None` while overbooking is off).
    pub(crate) fn truth(&self) -> impl Fn(usize) -> Option<f64> + '_ {
        move |pos| {
            let bite = self.bites.get(pos)?;
            Some(self.physical[pos].cpu.as_f64() * bite)
        }
    }

    /// Instant of the next resize: `NEVER` without elasticity, once
    /// `max_events` were taken, or once the schedule reached the horizon.
    pub(crate) fn next_resize(&self) -> SimTime {
        match &self.faults.elasticity {
            Some(el) if self.resizes < el.max_events && self.next_resize < self.horizon => {
                SimTime::from_secs(self.next_resize)
            }
            _ => SimTime::NEVER,
        }
    }

    /// Take the next resize if it is due at or before `now`: its draw
    /// index.
    pub(crate) fn take_resize(&mut self, now: SimTime) -> Option<u64> {
        let due = self.next_resize();
        let el = self.faults.elasticity.as_ref()?;
        if due.is_never() || due > now {
            return None;
        }
        self.resizes += 1;
        self.next_resize += el.period_secs;
        Some(u64::from(self.resizes - 1))
    }

    /// The seeded draw of resize `k` over the `active` jobs (not empty):
    /// the job it picks and the factor its remaining work is scaled by.
    pub(crate) fn resize_draw(&self, k: u64, active: &[JobId]) -> (JobId, f64) {
        let el = self.faults.elasticity.as_ref().expect("a resize was taken");
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(
            self.faults.seed ^ 0x5265_7369_7a65_4a6f ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15), // "ResizeJo"
        );
        let target = active[(rng.next_u64() % active.len() as u64) as usize];
        let factor = if rng.next_u64() & 1 == 0 {
            el.grow_factor
        } else {
            el.shrink_factor
        };
        (target, factor)
    }
}

/// The setter-era fault bodies, kept verbatim as the oracle of the sweep
/// below: `Capacities` with its setters and its derive on the first
/// refresh, the overbooking truth and bite draw, and the resize list the
/// elasticity setter precomputed with the draw that consumed it.
#[cfg(test)]
mod setters {
    use crate::chaos::{bite_factor, CapacityDip, ElasticitySpec, OvercommitSpec};
    use crate::faults::NodeOutage;
    use rand::{RngCore, SeedableRng};
    use slaq_types::JobId;

    use slaq_placement::problem::NodeCapacity;
    use slaq_types::{CpuMhz, MemMb, SimTime};

    /// One window edge: the instant and the position, in the fleet handed
    /// to [`Capacities::refresh`], of the node it moves (`None`: a node the
    /// fleet does not list, which moves nothing).
    #[derive(Debug)]
    pub(crate) struct Boundary {
        at: SimTime,
        pub(crate) node: Option<u32>,
    }

    /// What a [`Capacities::refresh`] re-derived.
    #[must_use = "re-derived capacities put those nodes' speeds out of date"]
    pub(crate) enum Refreshed<'a> {
        /// No boundary crossed, no window or ratio added: nothing moved.
        Nothing,
        /// Every node (the first derive, or the first after an addition).
        All,
        /// The boundaries crossed; only their nodes moved (one may repeat).
        Nodes(&'a [Boundary]),
    }

    /// The fault windows, the overbooking ratios, and the capacities they
    /// yield at the instant of the last [`Capacities::refresh`].
    #[derive(Debug, Default)]
    pub(crate) struct Capacities {
        outages: Vec<NodeOutage>,
        dips: Vec<CapacityDip>,
        /// Overbooking `(cpu, mem)` ratios; `None` advertises the physical
        /// capacities themselves.
        ratios: Option<(f64, f64)>,
        physical: Vec<NodeCapacity>,
        /// Empty while overbooking is off.
        advertised: Vec<NodeCapacity>,
        /// Every window start and end, ascending by instant.
        boundaries: Vec<Boundary>,
        /// First boundary after the instant of the last refresh.
        cursor: usize,
        /// Whether the cache was derived from the current windows and ratios.
        derived: bool,
    }

    /// *Physical* capacity of `n` at instant `t`: zero CPU and memory inside
    /// an outage window, scaled CPU inside a dip window.
    fn physical_at(
        outages: &[NodeOutage],
        dips: &[CapacityDip],
        n: &NodeCapacity,
        t: SimTime,
    ) -> NodeCapacity {
        let down = outages
            .iter()
            .any(|o| o.node == n.id && o.from <= t && t < o.to);
        if down {
            return NodeCapacity {
                id: n.id,
                cpu: CpuMhz::ZERO,
                mem: MemMb::ZERO,
            };
        }
        let dip = dips
            .iter()
            .filter(|d| d.node == n.id && d.from <= t && t < d.to)
            .map(|d| d.cpu_factor)
            .fold(1.0, f64::min);
        if dip < 1.0 {
            NodeCapacity {
                id: n.id,
                cpu: n.cpu * dip,
                mem: n.mem,
            }
        } else {
            *n
        }
    }

    /// *Advertised* capacity for a physical one under overbooking `ratios`.
    fn advertise(mut n: NodeCapacity, (cpu_ratio, mem_ratio): (f64, f64)) -> NodeCapacity {
        n.cpu = n.cpu * cpu_ratio;
        n.mem = MemMb::new((n.mem.as_u64() as f64 * mem_ratio) as u64);
        n
    }

    impl Capacities {
        /// Schedule an outage window.
        pub(crate) fn add_outage(&mut self, outage: NodeOutage) {
            self.outages.push(outage);
            self.derived = false;
        }

        /// Schedule a partial-capacity window.
        pub(crate) fn add_dip(&mut self, dip: CapacityDip) {
            self.dips.push(dip);
            self.derived = false;
        }

        /// Advertise capacities inflated by these ratios.
        pub(crate) fn set_overcommit(&mut self, cpu_ratio: f64, mem_ratio: f64) {
            self.ratios = Some((cpu_ratio, mem_ratio));
            self.derived = false;
        }

        /// Bring the capacities of `base` (the fleet at full health) up to
        /// instant `now`, and say what moved. The clock only moves forward,
        /// and `base` is the same fleet at every call (boundaries keep
        /// positions into it); a refresh that crossed boundaries re-derives
        /// only their nodes, one after a window or ratio was added every
        /// node.
        pub(crate) fn refresh(&mut self, base: &[NodeCapacity], now: SimTime) -> Refreshed<'_> {
            if !self.derived {
                let position = |node| base.iter().position(|n| n.id == node).map(|pos| pos as u32);
                self.boundaries.clear();
                self.boundaries.extend(self.outages.iter().flat_map(|o| {
                    let node = position(o.node);
                    [o.from, o.to].map(|at| Boundary { at, node })
                }));
                self.boundaries.extend(self.dips.iter().flat_map(|d| {
                    let node = position(d.node);
                    [d.from, d.to].map(|at| Boundary { at, node })
                }));
                self.boundaries
                    .sort_unstable_by(|a, b| a.at.total_cmp(b.at));
                self.cursor = self.boundaries.partition_point(|b| b.at <= now);
                self.physical.clear();
                self.physical.extend(
                    base.iter()
                        .map(|n| physical_at(&self.outages, &self.dips, n, now)),
                );
                self.advertised.clear();
                if let Some(ratios) = self.ratios {
                    self.advertised
                        .extend(self.physical.iter().map(|&n| advertise(n, ratios)));
                }
                self.derived = true;
                return Refreshed::All;
            }
            let from = self.cursor;
            self.cursor += self.boundaries[from..].partition_point(|b| b.at <= now);
            if self.cursor == from {
                return Refreshed::Nothing;
            }
            for b in &self.boundaries[from..self.cursor] {
                let Some(pos) = b.node.map(|pos| pos as usize) else {
                    continue;
                };
                self.physical[pos] = physical_at(&self.outages, &self.dips, &base[pos], now);
                if let Some(ratios) = self.ratios {
                    self.advertised[pos] = advertise(self.physical[pos], ratios);
                }
            }
            Refreshed::Nodes(&self.boundaries[from..self.cursor])
        }

        /// Physical capacities as of the last refresh.
        pub(crate) fn physical(&self) -> &[NodeCapacity] {
            &self.physical
        }

        /// Advertised capacities as of the last refresh.
        pub(crate) fn advertised(&self) -> &[NodeCapacity] {
            if self.ratios.is_some() {
                &self.advertised
            } else {
                &self.physical
            }
        }

        /// Earliest window boundary after the instant of the last refresh
        /// (`NEVER` if none).
        pub(crate) fn next_boundary(&self) -> SimTime {
            self.boundaries
                .get(self.cursor)
                .map_or(SimTime::NEVER, |b| b.at)
        }
    }

    /// The overbooking model handed to the speed kernel: the true CPU of the
    /// node at a position is its physical capacity scaled by this cycle's
    /// bite (`None` while overbooking is off and `bites` is empty).
    pub(super) fn truth_of<'a>(
        physical: &'a [NodeCapacity],
        bites: &'a [f64],
    ) -> impl Fn(usize) -> Option<f64> + 'a {
        |pos| bites.get(pos).map(|bite| physical[pos].cpu.as_f64() * bite)
    }

    /// `Simulator::draw_bites`: the bite factor of every node for `cycle`.
    pub(super) fn draw_bites(
        bites: &mut Vec<f64>,
        nodes: &[NodeCapacity],
        cycle: u64,
        (seed, oc): (u64, &OvercommitSpec),
    ) {
        bites.clear();
        bites.extend(nodes.iter().map(|n| bite_factor(seed, cycle, n.id, oc)));
    }

    /// `Simulator::set_elasticity`'s precompute: every resize instant,
    /// ascending.
    pub(super) fn resize_events(spec: ElasticitySpec, horizon: SimTime) -> Vec<SimTime> {
        let mut events = Vec::new();
        let mut t = spec.first_secs;
        while (events.len() as u32) < spec.max_events && t < horizon.as_secs() {
            events.push(SimTime::from_secs(t));
            t += spec.period_secs;
        }
        events
    }

    /// `Simulator::apply_resizes`' draw of resize `k` over `active`.
    pub(super) fn resize_draw(
        (seed, el): (u64, ElasticitySpec),
        k: u64,
        active: &[JobId],
    ) -> (JobId, f64) {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(
            seed ^ 0x5265_7369_7a65_4a6f ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15), // "ResizeJo"
        );
        let target = active[(rng.next_u64() % active.len() as u64) as usize];
        let factor = if rng.next_u64() & 1 == 0 {
            el.grow_factor
        } else {
            el.shrink_factor
        };
        (target, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::NodeId;

    /// Capacities as bit patterns, for comparing two caches exactly.
    fn bits(caps: &[NodeCapacity]) -> Vec<(NodeId, u64, u64)> {
        caps.iter()
            .map(|n| (n.id, n.cpu.as_f64().to_bits(), n.mem.as_u64()))
            .collect()
    }

    fn positions(boundaries: &[Boundary]) -> Vec<Option<u32>> {
        boundaries.iter().map(|b| b.node).collect()
    }

    /// The mutation the sweep must catch: every resize instant computed
    /// as `first + k·period` instead of by repeated addition.
    fn multiplicative(spec: ElasticitySpec, horizon: SimTime) -> Vec<SimTime> {
        (0..spec.max_events)
            .map(|k| spec.first_secs + f64::from(k) * spec.period_secs)
            .take_while(|&t| t < horizon.as_secs())
            .map(SimTime::from_secs)
            .collect()
    }

    /// Seeded fault plans over fleets whose ids are not their positions:
    /// outage and dip windows that overlap, share instants, have zero
    /// length or name a node the fleet does not list; overbooking on and
    /// off with bites that land and that do not; elasticity with
    /// non-integral first instants and periods, bound by `max_events` in
    /// some worlds and by the horizon in others. The stage built from the
    /// `Faults` and the setter-era bodies fed the same plan through their
    /// setters walk the same clock (random steps, exact boundaries, exact
    /// resize instants, repeats, then the horizon), drawing bites at
    /// random control cycles. Bit for bit, after the construction and
    /// after every refresh: the physical and advertised capacities, the
    /// nodes handed back, the next boundary, the next resize instant and
    /// every resize taken with its draw, and the bites and truths against
    /// `bite_factor`. A multiplicative resize schedule differs from the
    /// setter's on the tallied instants, so it fails here.
    #[test]
    fn the_fault_stage_equals_the_setters_over_seeded_plans() {
        // worlds, refreshes, boundaries handed back, zero-length windows,
        // windows on unlisted nodes, overbooked worlds, bites compared,
        // bites that landed, resizes compared, worlds bound by
        // max_events, worlds bound by the horizon, instants where
        // first + k·period differs from repeated addition, worlds that
        // schedule catches.
        let mut tally = [0usize; 13];
        for seed in 0..2000u64 {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let mut below = |bound: u64| (rng.next_u64() % bound) as usize;
            let n = 1 + below(8);
            let mut ids: Vec<u32> = (0..n as u32).map(|k| 3 * k + 1).collect();
            for i in (1..n).rev() {
                ids.swap(i, below(i as u64 + 1));
            }
            let base: Vec<NodeCapacity> = ids
                .iter()
                .map(|&id| NodeCapacity {
                    id: NodeId::new(id),
                    cpu: CpuMhz::new(1000.0 * (1 + below(12)) as f64),
                    mem: MemMb::new(512 * (1 + below(8)) as u64),
                })
                .collect();
            let horizon = SimTime::from_secs(20.0 * (1 + below(15)) as f64 + [0.0, 0.37][below(2)]);
            let mut faults = Faults {
                seed,
                ..Faults::default()
            };
            for _ in 0..below(9) {
                let node = match below(8) {
                    0 => NodeId::new(999),
                    _ => base[below(n as u64)].id,
                };
                tally[4] += usize::from(node == NodeId::new(999));
                let from = 10.0 * below(20) as f64 + [0.0, 2.5][below(2)];
                let to = from + [0.0, 10.0, 20.0, 40.0, 7.5][below(5)];
                tally[3] += usize::from(from == to);
                let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
                if below(2) == 0 {
                    faults.outages.push(NodeOutage { node, from, to });
                } else {
                    let cpu_factor = [0.25, 0.5, 0.75][below(3)];
                    faults.dips.push(CapacityDip {
                        node,
                        from,
                        to,
                        cpu_factor,
                    });
                }
            }
            if below(2) == 0 {
                faults.overcommit = Some(OvercommitSpec {
                    cpu_ratio: [1.0, 1.2, 1.5][below(3)],
                    mem_ratio: [1.0, 1.25][below(2)],
                    bite_prob: [0.0, 0.3, 1.0][below(3)],
                    bite_depth: [0.25, 0.5, 1.0][below(3)],
                });
            }
            if below(4) != 0 {
                faults.elasticity = Some(ElasticitySpec {
                    first_secs: 0.7 * below(40) as f64 + [0.0, 0.1, 1.0 / 3.0][below(3)],
                    period_secs: [0.1, 0.3, 0.7, 2.5, 7.3, 600.0 / 7.0, 33.3][below(7)],
                    grow_factor: 1.5,
                    shrink_factor: 0.5,
                    max_events: [1, 3, 10, 40, 200, 100_000][below(6)],
                });
            }

            // The setter-era run start: windows and ratios added, the
            // first refresh at zero derives every node.
            let mut old = setters::Capacities::default();
            for &o in &faults.outages {
                old.add_outage(o);
            }
            for &d in &faults.dips {
                old.add_dip(d);
            }
            if let Some(oc) = faults.overcommit {
                old.set_overcommit(oc.cpu_ratio, oc.mem_ratio);
            }
            assert!(matches!(
                old.refresh(&base, SimTime::ZERO),
                setters::Refreshed::All
            ));
            let mut old_bites = Vec::new();
            let old_seed = faults.seed;
            let old_oc = faults.overcommit;
            if let Some(oc) = &old_oc {
                setters::draw_bites(&mut old_bites, &base, 0, (old_seed, oc));
            }
            let old_el = faults.elasticity;
            let events = old_el.map_or_else(Vec::new, |el| setters::resize_events(el, horizon));
            let mut resize_at = 0;
            if let Some(el) = old_el {
                if events.len() == el.max_events as usize {
                    tally[9] += 1;
                } else {
                    tally[10] += 1;
                }
                let product = multiplicative(el, horizon);
                let differ = events
                    .iter()
                    .zip(&product)
                    .filter(|(a, b)| a.as_secs().to_bits() != b.as_secs().to_bits())
                    .count();
                tally[11] += differ;
                tally[12] += usize::from(differ > 0 || product.len() != events.len());
            }
            tally[0] += 1;
            tally[5] += usize::from(old_oc.is_some());

            let edges: Vec<f64> = faults
                .outages
                .iter()
                .flat_map(|o| [o.from, o.to])
                .chain(faults.dips.iter().flat_map(|d| [d.from, d.to]))
                .map(SimTime::as_secs)
                .collect();
            let mut model = FaultModel::new(&base, faults, horizon);
            let mut now = SimTime::ZERO;
            let mut cycle = 0u64;
            for step in 0..=16 {
                if step > 0 {
                    now = match below(5) {
                        _ if step == 16 => horizon,
                        0 => now,
                        1 => now + slaq_types::SimDuration::from_secs([0.05, 2.5, 10.0][below(3)]),
                        2 => {
                            let ahead: Vec<f64> = edges
                                .iter()
                                .copied()
                                .filter(|&e| e > now.as_secs())
                                .collect();
                            if ahead.is_empty() {
                                now
                            } else {
                                SimTime::from_secs(ahead[below(ahead.len() as u64)])
                            }
                        }
                        _ => events[resize_at..].get(below(4)).copied().unwrap_or(now),
                    };
                    let handed = positions(model.refresh(&base, now));
                    let expected = match old.refresh(&base, now) {
                        setters::Refreshed::Nothing => Vec::new(),
                        setters::Refreshed::All => panic!("seed {seed}: whole refresh at {now}"),
                        setters::Refreshed::Nodes(b) => b.iter().map(|b| b.node).collect(),
                    };
                    assert_eq!(handed, expected, "seed {seed}: handed back at {now}");
                    tally[1] += 1;
                    tally[2] += handed.len();
                }
                assert_eq!(
                    bits(model.physical()),
                    bits(old.physical()),
                    "seed {seed}: physical at {now}"
                );
                assert_eq!(
                    bits(model.advertised()),
                    bits(old.advertised()),
                    "seed {seed}: advertised at {now}"
                );
                assert_eq!(
                    model.next_boundary().as_secs().to_bits(),
                    old.next_boundary().as_secs().to_bits(),
                    "seed {seed}: next boundary at {now}"
                );

                // The resizes due now, with their draws over a random
                // active set.
                loop {
                    let at = model.next_resize();
                    let old_at = events.get(resize_at).copied().unwrap_or(SimTime::NEVER);
                    assert_eq!(
                        at.as_secs().to_bits(),
                        old_at.as_secs().to_bits(),
                        "seed {seed}: resize {resize_at} at {now}"
                    );
                    let taken = model.take_resize(now);
                    assert_eq!(
                        taken.is_some(),
                        resize_at < events.len() && events[resize_at] <= now,
                        "seed {seed}: resize {resize_at} due at {now}"
                    );
                    let Some(k) = taken else {
                        break;
                    };
                    assert_eq!(k, resize_at as u64);
                    let active: Vec<JobId> = (0..1 + below(9))
                        .map(|_| JobId::new(below(50) as u32))
                        .collect();
                    let (job, factor) = model.resize_draw(k, &active);
                    let (old_job, old_factor) = setters::resize_draw(
                        (old_seed, old_el.expect("resizes only with elasticity")),
                        resize_at as u64,
                        &active,
                    );
                    assert_eq!((job, factor.to_bits()), (old_job, old_factor.to_bits()));
                    resize_at += 1;
                    tally[8] += 1;
                }

                // A control cycle now and then: both draw the next bites.
                if step > 0 && below(2) == 0 {
                    cycle += 1;
                    let mut moved = Vec::new();
                    model.draw_bites(&base, cycle, |pos| moved.push(pos));
                    let before = old_bites.clone();
                    if let Some(oc) = &old_oc {
                        setters::draw_bites(&mut old_bites, &base, cycle, (old_seed, oc));
                    }
                    let differ = (0..before.len())
                        .filter(|&pos| before[pos].to_bits() != old_bites[pos].to_bits());
                    assert!(
                        moved.iter().copied().eq(differ),
                        "seed {seed}: bites moved on {moved:?}"
                    );
                }
                assert!(model.bites_are_current(&base, cycle), "seed {seed}");
                let bites: Vec<u64> = model.bites().iter().map(|b| b.to_bits()).collect();
                let old_bit: Vec<u64> = old_bites.iter().map(|b| b.to_bits()).collect();
                assert_eq!(bites, old_bit, "seed {seed}: bites of cycle {cycle}");
                let truth = model.truth();
                let old_truth = setters::truth_of(old.physical(), &old_bites);
                for pos in 0..n {
                    assert_eq!(
                        truth(pos).map(f64::to_bits),
                        old_truth(pos).map(f64::to_bits),
                        "seed {seed}: truth of {pos} at {now}"
                    );
                }
                tally[6] += old_bites.len();
                tally[7] += old_bites.iter().filter(|&&b| b < 1.0).count();
            }
            assert_eq!(resize_at, events.len(), "seed {seed}: resizes left");
            assert!(model.next_resize().is_never(), "seed {seed}");
        }
        println!(
            "fault-stage sweep: {} worlds, {} refreshes handing back {} boundaries, \
             {} zero-length windows, {} on unlisted nodes, {} overbooked worlds, \
             {} bites compared ({} landed), {} resizes compared, \
             {} schedules bound by max_events and {} by the horizon, \
             {} instants where first + k·period differs, caught in {} worlds",
            tally[0],
            tally[1],
            tally[2],
            tally[3],
            tally[4],
            tally[5],
            tally[6],
            tally[7],
            tally[8],
            tally[9],
            tally[10],
            tally[11],
            tally[12]
        );
        let floors = [
            2_000, 25_000, 12_000, 1_200, 800, 800, 60_000, 24_000, 100_000, 650, 550, 90_000, 550,
        ];
        for (seen, floor) in tally.iter().zip(floors) {
            assert!(*seen >= floor, "{tally:?} under {floors:?}");
        }
    }
}
