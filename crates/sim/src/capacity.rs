//! Node capacities over time.
//!
//! Outage and dip windows lower a node's *physical* capacity; the
//! overbooking ratios inflate it into the *advertised* capacity the
//! controller senses and placements are validated against. Both only
//! change when the clock crosses a window boundary, so [`Capacities`]
//! keeps them as state: a sorted boundary list with a cursor says when
//! to re-derive, and every reader between two boundaries borrows the
//! same two slices.
//!
//! A boundary only moves the node whose window it opens or closes, so
//! each one is kept with that node's position: a refresh that crosses
//! boundaries re-derives those nodes alone and hands them back
//! ([`Refreshed::Nodes`]) for the caller to mark. The first derive, and
//! the first after a window or the ratios were added, re-derives the
//! whole fleet ([`Refreshed::All`]).

use crate::chaos::CapacityDip;
use crate::simulator::NodeOutage;
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

    /// Whether the cache equals a from-scratch derivation at `now`.
    pub(crate) fn is_current(&self, base: &[NodeCapacity], now: SimTime) -> bool {
        let fresh = base
            .iter()
            .map(|n| physical_at(&self.outages, &self.dips, n, now));
        self.derived
            && self.physical.iter().copied().eq(fresh.clone())
            && match self.ratios {
                Some(ratios) => self
                    .advertised
                    .iter()
                    .copied()
                    .eq(fresh.map(|n| advertise(n, ratios))),
                None => self.advertised.is_empty(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_types::NodeId;

    /// Whether a refresh re-derived anything.
    fn moved(refreshed: Refreshed) -> bool {
        !matches!(refreshed, Refreshed::Nothing)
    }

    fn fleet() -> Vec<NodeCapacity> {
        (0..3)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(12_000.0),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    fn outage(node: u32, from: f64, to: f64) -> NodeOutage {
        NodeOutage {
            node: NodeId::new(node),
            from: SimTime::from_secs(from),
            to: SimTime::from_secs(to),
        }
    }

    fn dip(node: u32, from: f64, to: f64, cpu_factor: f64) -> CapacityDip {
        CapacityDip {
            node: NodeId::new(node),
            from: SimTime::from_secs(from),
            to: SimTime::from_secs(to),
            cpu_factor,
        }
    }

    /// Step the clock of a never-refreshed `caps` through `instants`,
    /// checking the cache against a from-scratch derivation at each, and
    /// the returned flag against the window lists: re-derived at the
    /// first instant and wherever a window edge lies in `(previous, t]`.
    /// Returns node 1's physical CPU.
    fn walk(caps: &mut Capacities, instants: &[f64]) -> Vec<f64> {
        let base = fleet();
        let mut previous: Option<f64> = None;
        instants
            .iter()
            .map(|&t| {
                let now = SimTime::from_secs(t);
                let crossed = previous.is_none_or(|p| {
                    let outages = caps.outages.iter().flat_map(|o| [o.from, o.to]);
                    let dips = caps.dips.iter().flat_map(|d| [d.from, d.to]);
                    outages
                        .chain(dips)
                        .any(|edge| p < edge.as_secs() && edge.as_secs() <= t)
                });
                assert_eq!(moved(caps.refresh(&base, now)), crossed, "flag at {t}");
                assert!(caps.is_current(&base, now), "stale at {t}");
                previous = Some(t);
                caps.physical()[1].cpu.as_f64()
            })
            .collect()
    }

    #[test]
    fn overlapping_outage_and_dip_windows_on_one_node() {
        let mut caps = Capacities::default();
        caps.add_dip(dip(1, 100.0, 900.0, 0.5));
        caps.add_outage(outage(1, 300.0, 600.0));
        caps.add_dip(dip(1, 500.0, 700.0, 0.25));
        let cpu = walk(
            &mut caps,
            &[0.0, 100.0, 299.0, 300.0, 599.0, 600.0, 650.0, 700.0, 900.0],
        );
        assert_eq!(
            cpu,
            [12_000.0, 6000.0, 6000.0, 0.0, 0.0, 3000.0, 3000.0, 6000.0, 12_000.0]
        );
        // The outage also takes the memory; the dips never do.
        let base = fleet();
        // The last edge was crossed at 900: nothing left to re-derive.
        assert!(!moved(caps.refresh(&base, SimTime::from_secs(1000.0))));
        assert_eq!(caps.physical(), &base[..]);
        assert_eq!(caps.next_boundary(), SimTime::NEVER);
    }

    #[test]
    fn a_boundary_exactly_at_a_control_instant_takes_effect_there() {
        let mut caps = Capacities::default();
        caps.add_outage(outage(1, 600.0, 1200.0));
        let base = fleet();
        assert!(moved(caps.refresh(&base, SimTime::ZERO)));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(600.0));
        assert!(!moved(caps.refresh(&base, SimTime::from_secs(599.0))));
        // Windows are half-open: down at 600, back at 1200.
        assert!(moved(caps.refresh(&base, SimTime::from_secs(600.0))));
        assert!(caps.physical()[1].cpu.is_zero());
        assert_eq!(caps.physical()[1].mem, MemMb::ZERO);
        assert_eq!(caps.next_boundary(), SimTime::from_secs(1200.0));
        assert!(!moved(caps.refresh(&base, SimTime::from_secs(600.0))));
        assert!(moved(caps.refresh(&base, SimTime::from_secs(1200.0))));
        assert_eq!(caps.physical()[1], base[1]);
    }

    #[test]
    fn several_boundaries_crossed_in_one_step() {
        let mut caps = Capacities::default();
        caps.add_outage(outage(0, 10.0, 20.0));
        caps.add_outage(outage(1, 15.0, 40.0));
        caps.add_dip(dip(2, 30.0, 50.0, 0.5));
        assert_eq!(
            walk(&mut caps, &[0.0, 35.0, 60.0]),
            [12_000.0, 0.0, 12_000.0]
        );
    }

    #[test]
    fn windows_added_after_the_run_started_invalidate_the_cache() {
        let mut caps = Capacities::default();
        let base = fleet();
        let now = SimTime::from_secs(700.0);
        assert!(moved(caps.refresh(&base, now)));
        assert_eq!(caps.next_boundary(), SimTime::NEVER);

        // One that is already in force, with a start in the past.
        caps.add_outage(outage(1, 650.0, 800.0));
        assert!(!caps.is_current(&base, now));
        assert!(moved(caps.refresh(&base, now)));
        assert!(caps.physical()[1].cpu.is_zero());
        assert_eq!(caps.next_boundary(), SimTime::from_secs(800.0));

        caps.add_dip(dip(2, 700.0, 750.0, 0.5));
        assert!(!caps.is_current(&base, now));
        assert!(moved(caps.refresh(&base, now)));
        assert_eq!(caps.physical()[2].cpu, CpuMhz::new(6000.0));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(750.0));
        // Nothing added, no edge crossed.
        assert!(!moved(caps.refresh(&base, now)));
    }

    #[test]
    fn overbooking_inflates_what_is_advertised_not_what_is_there() {
        let mut caps = Capacities::default();
        let base = fleet();
        assert!(moved(caps.refresh(&base, SimTime::ZERO)));
        assert_eq!(caps.advertised(), caps.physical());
        // A ratio alone invalidates the cache, as a window does.
        caps.set_overcommit(1.5, 1.25);
        assert!(moved(caps.refresh(&base, SimTime::ZERO)));
        assert!(!moved(caps.refresh(&base, SimTime::ZERO)));
        caps.add_outage(outage(0, 0.0, 10.0));
        assert!(moved(caps.refresh(&base, SimTime::ZERO)));
        assert_eq!(caps.physical()[1], base[1]);
        assert_eq!(caps.advertised()[1].cpu, CpuMhz::new(18_000.0));
        assert_eq!(caps.advertised()[1].mem, MemMb::new(5120));
        assert!(caps.advertised()[0].cpu.is_zero());
        assert!(caps.is_current(&base, SimTime::ZERO));
    }

    /// Outage and dip windows that overlap, share instants, sit on one
    /// node or have zero length, over fleets whose ids are not their
    /// positions (and windows on a node the fleet does not list), with
    /// overbooking on and off. The clock steps through random instants,
    /// exact boundaries and repeats, and now and then a window is added
    /// mid-walk. After every refresh the cache must equal the
    /// from-scratch `physical_at` / `advertise` derivation on every node,
    /// the refresh must be whole exactly when it was the first or a
    /// window was added, and every node whose physical or advertised
    /// capacity moved must be among those it handed back. A refresh that
    /// forgot the windows ending at a boundary leaves those nodes stale.
    #[test]
    fn refresh_equals_a_from_scratch_derivation_over_seeded_windows() {
        use rand::{RngCore, SeedableRng};
        // refreshes, whole, partial, nothing, nodes moved, boundaries
        // crossed, partial refreshes crossing a shared instant, zero-length
        // windows crossed, overbooked refreshes.
        let mut tally = [0usize; 9];
        for seed in 0..1500u64 {
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
            let overbooked = below(2) == 0;
            let one_node = below(3) == 0;
            let mut caps = Capacities::default();
            if overbooked {
                caps.set_overcommit(1.5, 1.25);
            }
            let add_window = |caps: &mut Capacities, below: &mut dyn FnMut(u64) -> usize| {
                let node = match below(10) {
                    _ if one_node => base[0].id,
                    0 => NodeId::new(999),
                    _ => base[below(n as u64)].id,
                };
                let from = 10.0 * below(20) as f64 + [0.0, 2.5][below(2)];
                let to = from + [0.0, 10.0, 20.0, 40.0, 7.5][below(5)];
                let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
                if below(2) == 0 {
                    caps.add_outage(NodeOutage { node, from, to });
                } else {
                    let cpu_factor = [0.25, 0.5, 0.75][below(3)];
                    caps.add_dip(CapacityDip {
                        node,
                        from,
                        to,
                        cpu_factor,
                    });
                }
            };
            for _ in 0..below(7) {
                add_window(&mut caps, &mut below);
            }
            let mut now = 0.0;
            let mut previous: Option<f64> = None;
            let mut added = true;
            let (mut physical, mut advertised) = (Vec::new(), Vec::new());
            for _ in 0..14 {
                let edges: Vec<f64> = caps
                    .outages
                    .iter()
                    .flat_map(|o| [o.from, o.to])
                    .chain(caps.dips.iter().flat_map(|d| [d.from, d.to]))
                    .map(SimTime::as_secs)
                    .collect();
                match below(4) {
                    0 => {}
                    1 => now += [2.5, 5.0, 10.0, 30.0][below(4)],
                    _ => {
                        let ahead: Vec<f64> = edges.iter().copied().filter(|&e| e > now).collect();
                        if !ahead.is_empty() {
                            now = ahead[below(ahead.len() as u64)];
                        }
                    }
                }
                let crossed: Vec<f64> = edges
                    .iter()
                    .copied()
                    .filter(|&e| previous.is_none_or(|p| p < e) && e <= now)
                    .collect();
                let at = SimTime::from_secs(now);
                let refreshed = caps.refresh(&base, at);
                let marked: Vec<usize> = match refreshed {
                    Refreshed::Nothing => Vec::new(),
                    Refreshed::All => (0..n).collect(),
                    Refreshed::Nodes(b) => b
                        .iter()
                        .filter_map(|b| b.node)
                        .map(|pos| pos as usize)
                        .collect(),
                };
                let kind = match refreshed {
                    Refreshed::All => 1,
                    Refreshed::Nodes(_) => 2,
                    Refreshed::Nothing => 3,
                };
                assert_eq!(
                    kind,
                    if added {
                        1
                    } else if crossed.is_empty() {
                        3
                    } else {
                        2
                    },
                    "seed {seed} at {now}: crossed {crossed:?}"
                );
                assert!(caps.is_current(&base, at), "seed {seed}: stale at {now}");
                let moved_nodes: Vec<usize> = (0..n)
                    .filter(|&pos| {
                        physical.get(pos) != Some(&caps.physical()[pos])
                            || advertised.get(pos) != Some(&caps.advertised()[pos])
                    })
                    .collect();
                for pos in &moved_nodes {
                    assert!(
                        marked.contains(pos),
                        "seed {seed} at {now}: node {pos} moved unmarked"
                    );
                }
                tally[0] += 1;
                tally[kind] += 1;
                if kind == 2 {
                    tally[4] += moved_nodes.len();
                    tally[5] += crossed.len();
                    let mut instants = crossed.clone();
                    instants.dedup();
                    tally[6] += usize::from(instants.len() < crossed.len());
                    let zero_length = caps
                        .outages
                        .iter()
                        .map(|o| (o.from, o.to))
                        .chain(caps.dips.iter().map(|d| (d.from, d.to)))
                        .filter(|&(from, to)| from == to && crossed.contains(&from.as_secs()))
                        .count();
                    tally[7] += zero_length;
                }
                tally[8] += usize::from(overbooked);
                physical = caps.physical().to_vec();
                advertised = caps.advertised().to_vec();
                previous = Some(now);
                added = below(12) == 0;
                if added {
                    add_window(&mut caps, &mut below);
                }
            }
        }
        println!(
            "capacity sweep: {} refreshes ({} whole, {} partial, {} nothing), \
             {} nodes moved across {} boundaries crossed, {} shared instants, \
             {} zero-length windows, {} overbooked",
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
        let floors = [21_000, 2_600, 2_000, 12_000, 1_400, 5_000, 500, 480, 8_500];
        for (seen, floor) in tally.iter().zip(floors) {
            assert!(*seen >= floor, "{tally:?} under {floors:?}");
        }
    }
}
