//! Node capacities over time.
//!
//! Outage and dip windows lower a node's *physical* capacity; the
//! overbooking ratios inflate it into the *advertised* capacity the
//! controller senses and placements are validated against. Both only
//! change when the clock crosses a window boundary, so [`Capacities`]
//! keeps them as state: a sorted boundary list with a cursor says when
//! to re-derive, and every reader between two boundaries borrows the
//! same two slices.

use crate::chaos::CapacityDip;
use crate::simulator::NodeOutage;
use slaq_placement::problem::NodeCapacity;
use slaq_types::{CpuMhz, MemMb, SimTime};

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
    /// Every window start and end, ascending.
    boundaries: Vec<SimTime>,
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
    /// instant `now`. The clock only moves forward; work is done only
    /// when it crossed a boundary or a window or ratio was added since,
    /// and the return value says whether it was.
    #[must_use = "capacities were re-derived: every node's speeds are out of date"]
    pub(crate) fn refresh(&mut self, base: &[NodeCapacity], now: SimTime) -> bool {
        if !self.derived {
            self.boundaries.clear();
            self.boundaries
                .extend(self.outages.iter().flat_map(|o| [o.from, o.to]));
            self.boundaries
                .extend(self.dips.iter().flat_map(|d| [d.from, d.to]));
            self.boundaries.sort_unstable_by(|a, b| a.total_cmp(*b));
            self.cursor = 0;
        } else if self.boundaries.get(self.cursor).is_none_or(|&b| b > now) {
            return false;
        }
        self.cursor += self.boundaries[self.cursor..].partition_point(|&b| b <= now);
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
        true
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
            .copied()
            .unwrap_or(SimTime::NEVER)
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
                assert_eq!(caps.refresh(&base, now), crossed, "flag at {t}");
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
        assert!(!caps.refresh(&base, SimTime::from_secs(1000.0)));
        assert_eq!(caps.physical(), &base[..]);
        assert_eq!(caps.next_boundary(), SimTime::NEVER);
    }

    #[test]
    fn a_boundary_exactly_at_a_control_instant_takes_effect_there() {
        let mut caps = Capacities::default();
        caps.add_outage(outage(1, 600.0, 1200.0));
        let base = fleet();
        assert!(caps.refresh(&base, SimTime::ZERO));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(600.0));
        assert!(!caps.refresh(&base, SimTime::from_secs(599.0)));
        // Windows are half-open: down at 600, back at 1200.
        assert!(caps.refresh(&base, SimTime::from_secs(600.0)));
        assert!(caps.physical()[1].cpu.is_zero());
        assert_eq!(caps.physical()[1].mem, MemMb::ZERO);
        assert_eq!(caps.next_boundary(), SimTime::from_secs(1200.0));
        assert!(!caps.refresh(&base, SimTime::from_secs(600.0)));
        assert!(caps.refresh(&base, SimTime::from_secs(1200.0)));
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
        assert!(caps.refresh(&base, now));
        assert_eq!(caps.next_boundary(), SimTime::NEVER);

        // One that is already in force, with a start in the past.
        caps.add_outage(outage(1, 650.0, 800.0));
        assert!(!caps.is_current(&base, now));
        assert!(caps.refresh(&base, now));
        assert!(caps.physical()[1].cpu.is_zero());
        assert_eq!(caps.next_boundary(), SimTime::from_secs(800.0));

        caps.add_dip(dip(2, 700.0, 750.0, 0.5));
        assert!(!caps.is_current(&base, now));
        assert!(caps.refresh(&base, now));
        assert_eq!(caps.physical()[2].cpu, CpuMhz::new(6000.0));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(750.0));
        // Nothing added, no edge crossed.
        assert!(!caps.refresh(&base, now));
    }

    #[test]
    fn overbooking_inflates_what_is_advertised_not_what_is_there() {
        let mut caps = Capacities::default();
        let base = fleet();
        assert!(caps.refresh(&base, SimTime::ZERO));
        assert_eq!(caps.advertised(), caps.physical());
        // A ratio alone invalidates the cache, as a window does.
        caps.set_overcommit(1.5, 1.25);
        assert!(caps.refresh(&base, SimTime::ZERO));
        assert!(!caps.refresh(&base, SimTime::ZERO));
        caps.add_outage(outage(0, 0.0, 10.0));
        assert!(caps.refresh(&base, SimTime::ZERO));
        assert_eq!(caps.physical()[1], base[1]);
        assert_eq!(caps.advertised()[1].cpu, CpuMhz::new(18_000.0));
        assert_eq!(caps.advertised()[1].mem, MemMb::new(5120));
        assert!(caps.advertised()[0].cpu.is_zero());
        assert!(caps.is_current(&base, SimTime::ZERO));
    }
}
