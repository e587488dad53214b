//! Unit tests of the fault stage's capacity cache
//! ([`FaultModel`](crate::faults::FaultModel)): window boundaries,
//! overbooked advertising, and the incremental refresh against a
//! from-scratch derivation over seeded windows.

#[cfg(test)]
mod tests {
    use crate::chaos::{CapacityDip, OvercommitSpec};
    use crate::faults::{FaultModel, Faults, NodeOutage};
    use slaq_placement::problem::NodeCapacity;
    use slaq_types::{CpuMhz, MemMb, NodeId, SimTime};

    /// The stage over `base` with these windows and overbooking `ratios`
    /// (whose bites never land), without elasticity.
    fn stage(
        base: &[NodeCapacity],
        outages: Vec<NodeOutage>,
        dips: Vec<CapacityDip>,
        ratios: Option<(f64, f64)>,
    ) -> FaultModel {
        let overcommit = ratios.map(|(cpu_ratio, mem_ratio)| OvercommitSpec {
            cpu_ratio,
            mem_ratio,
            bite_prob: 0.0,
            bite_depth: 0.5,
        });
        let faults = Faults {
            outages,
            dips,
            overcommit,
            ..Faults::default()
        };
        FaultModel::new(base, faults, SimTime::NEVER)
    }

    /// Every window start and end, in seconds.
    fn edges(outages: &[NodeOutage], dips: &[CapacityDip]) -> Vec<f64> {
        let outages = outages.iter().flat_map(|o| [o.from, o.to]);
        let dips = dips.iter().flat_map(|d| [d.from, d.to]);
        outages.chain(dips).map(SimTime::as_secs).collect()
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

    /// Step the clock of the stage over `fleet()` with these windows
    /// (derived at zero) through `instants`, checking the cache against a
    /// from-scratch derivation at each, and what the refresh handed back
    /// against the windows: something exactly where a window edge lies
    /// in `(previous, t]`. Returns node 1's physical CPU and the stage.
    fn walk(
        outages: Vec<NodeOutage>,
        dips: Vec<CapacityDip>,
        instants: &[f64],
    ) -> (Vec<f64>, FaultModel) {
        let base = fleet();
        let edges = edges(&outages, &dips);
        let mut caps = stage(&base, outages, dips, None);
        let mut previous = 0.0;
        let cpu = instants
            .iter()
            .map(|&t| {
                let now = SimTime::from_secs(t);
                let crossed = edges.iter().any(|&e| previous < e && e <= t);
                assert_eq!(!caps.refresh(&base, now).is_empty(), crossed, "at {t}");
                assert!(caps.is_current(&base, now), "stale at {t}");
                previous = t;
                caps.physical()[1].cpu.as_f64()
            })
            .collect();
        (cpu, caps)
    }

    #[test]
    fn overlapping_outage_and_dip_windows_on_one_node() {
        let (cpu, mut caps) = walk(
            vec![outage(1, 300.0, 600.0)],
            vec![dip(1, 100.0, 900.0, 0.5), dip(1, 500.0, 700.0, 0.25)],
            &[0.0, 100.0, 299.0, 300.0, 599.0, 600.0, 650.0, 700.0, 900.0],
        );
        assert_eq!(
            cpu,
            [12_000.0, 6000.0, 6000.0, 0.0, 0.0, 3000.0, 3000.0, 6000.0, 12_000.0]
        );
        // The outage also takes the memory; the dips never do.
        let base = fleet();
        // The last edge was crossed at 900: nothing left to re-derive.
        assert!(caps.refresh(&base, SimTime::from_secs(1000.0)).is_empty());
        assert_eq!(caps.physical(), &base[..]);
        assert_eq!(caps.next_boundary(), SimTime::NEVER);
    }

    #[test]
    fn a_boundary_exactly_at_a_control_instant_takes_effect_there() {
        let base = fleet();
        let mut caps = stage(&base, vec![outage(1, 600.0, 1200.0)], Vec::new(), None);
        assert!(caps.is_current(&base, SimTime::ZERO));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(600.0));
        assert!(caps.refresh(&base, SimTime::from_secs(599.0)).is_empty());
        // Windows are half-open: down at 600, back at 1200.
        assert!(!caps.refresh(&base, SimTime::from_secs(600.0)).is_empty());
        assert!(caps.physical()[1].cpu.is_zero());
        assert_eq!(caps.physical()[1].mem, MemMb::ZERO);
        assert_eq!(caps.next_boundary(), SimTime::from_secs(1200.0));
        assert!(caps.refresh(&base, SimTime::from_secs(600.0)).is_empty());
        assert!(!caps.refresh(&base, SimTime::from_secs(1200.0)).is_empty());
        assert_eq!(caps.physical()[1], base[1]);
    }

    #[test]
    fn several_boundaries_crossed_in_one_step() {
        let (cpu, _) = walk(
            vec![outage(0, 10.0, 20.0), outage(1, 15.0, 40.0)],
            vec![dip(2, 30.0, 50.0, 0.5)],
            &[0.0, 35.0, 60.0],
        );
        assert_eq!(cpu, [12_000.0, 0.0, 12_000.0]);
    }

    #[test]
    fn overbooking_inflates_what_is_advertised_not_what_is_there() {
        let base = fleet();
        let honest = stage(&base, Vec::new(), Vec::new(), None);
        assert_eq!(honest.advertised(), honest.physical());
        // A window that opens at zero is in force from the start.
        let mut caps = stage(
            &base,
            vec![outage(0, 0.0, 10.0)],
            Vec::new(),
            Some((1.5, 1.25)),
        );
        assert!(caps.refresh(&base, SimTime::ZERO).is_empty());
        assert_eq!(caps.physical()[1], base[1]);
        assert_eq!(caps.advertised()[1].cpu, CpuMhz::new(18_000.0));
        assert_eq!(caps.advertised()[1].mem, MemMb::new(5120));
        assert!(caps.advertised()[0].cpu.is_zero());
        assert!(caps.is_current(&base, SimTime::ZERO));
        assert_eq!(caps.next_boundary(), SimTime::from_secs(10.0));
    }

    /// Outage and dip windows that overlap, share instants, sit on one
    /// node or have zero length, over fleets whose ids are not their
    /// positions (and windows on a node the fleet does not list), with
    /// overbooking on and off, all given up front. The clock steps
    /// through random instants, exact boundaries and repeats. The
    /// derive at zero and every refresh after it must leave the cache
    /// equal to the from-scratch `physical_at` / `advertise` derivation
    /// on every node, a refresh must hand back something exactly when it
    /// crossed a window edge, and every node whose physical or advertised
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
            let (mut outages, mut dips) = (Vec::new(), Vec::new());
            for _ in 0..below(9) {
                let node = match below(10) {
                    _ if one_node => base[0].id,
                    0 => NodeId::new(999),
                    _ => base[below(n as u64)].id,
                };
                let from = 10.0 * below(20) as f64 + [0.0, 2.5][below(2)];
                let to = from + [0.0, 10.0, 20.0, 40.0, 7.5][below(5)];
                let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
                if below(2) == 0 {
                    outages.push(NodeOutage { node, from, to });
                } else {
                    let cpu_factor = [0.25, 0.5, 0.75][below(3)];
                    dips.push(CapacityDip {
                        node,
                        from,
                        to,
                        cpu_factor,
                    });
                }
            }
            let ratios = overbooked.then_some((1.5, 1.25));
            let edges = edges(&outages, &dips);
            let windows: Vec<(SimTime, SimTime)> = outages
                .iter()
                .map(|o| (o.from, o.to))
                .chain(dips.iter().map(|d| (d.from, d.to)))
                .collect();
            let mut caps = stage(&base, outages, dips, ratios);
            assert!(
                caps.is_current(&base, SimTime::ZERO),
                "seed {seed}: stale at zero"
            );
            tally[0] += 1;
            tally[1] += 1;
            tally[8] += usize::from(overbooked);
            let mut now = 0.0;
            let mut previous = 0.0;
            let mut physical = caps.physical().to_vec();
            let mut advertised = caps.advertised().to_vec();
            for _ in 0..14 {
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
                    .filter(|&e| previous < e && e <= now)
                    .collect();
                let at = SimTime::from_secs(now);
                let handed = caps.refresh(&base, at);
                assert_eq!(
                    handed.len(),
                    crossed.len(),
                    "seed {seed} at {now}: crossed {crossed:?}"
                );
                let marked: Vec<usize> = handed
                    .iter()
                    .filter_map(|b| b.node)
                    .map(|pos| pos as usize)
                    .collect();
                assert!(caps.is_current(&base, at), "seed {seed}: stale at {now}");
                let moved_nodes: Vec<usize> = (0..n)
                    .filter(|&pos| {
                        physical[pos] != caps.physical()[pos]
                            || advertised[pos] != caps.advertised()[pos]
                    })
                    .collect();
                for pos in &moved_nodes {
                    assert!(
                        marked.contains(pos),
                        "seed {seed} at {now}: node {pos} moved unmarked"
                    );
                }
                tally[0] += 1;
                if crossed.is_empty() {
                    tally[3] += 1;
                } else {
                    tally[2] += 1;
                    tally[4] += moved_nodes.len();
                    tally[5] += crossed.len();
                    let mut instants = crossed.clone();
                    instants.dedup();
                    tally[6] += usize::from(instants.len() < crossed.len());
                    let zero_length = windows
                        .iter()
                        .filter(|&(from, to)| from == to && crossed.contains(&from.as_secs()))
                        .count();
                    tally[7] += zero_length;
                }
                tally[8] += usize::from(overbooked);
                physical = caps.physical().to_vec();
                advertised = caps.advertised().to_vec();
                previous = now;
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
        let floors = [21_000, 1_500, 2_000, 12_000, 1_400, 5_000, 500, 480, 8_500];
        for (seen, floor) in tally.iter().zip(floors) {
            assert!(*seen >= floor, "{tally:?} under {floors:?}");
        }
    }
}
