//! The candidate heap's oracle.
//!
//! `CandidateHeap::bubble` stops at the first ancestor whose
//! `(cpu bits, mem, smask)` a pull leaves unchanged: the tree is a pure
//! function of its leaves, so the slots above already hold their pulls.
//! That may move no answer and no visit count.
//!
//! The heap before the early exit is kept verbatim in
//! `naive_heap/mod.rs`: every update, removal and restoration re-pulls
//! every ancestor of its leaf. One seeded sweep drives both through the
//! same `assign` / `update` / `remove` / `restore` / query sequence over
//! 2 000 worlds — sizes 1 to 2 100; all-equal, two-valued and random
//! trackers; shard labels, some past the mask's 63 bits — and compares
//! every answer and every `take_visits()` count. A descent reads the
//! slots it visits and prunes on them, so equal counts after equal
//! answers pin equal trees along every path; `tree_is_fresh` holds after
//! every step besides. The sweep prints a tally held to floors and
//! ends on the mutation it must catch: the naive heap with
//! `cpu_only_exit`, a `bubble` that compares only the CPU bits and so
//! leaves a moved memory maximum or shard mask behind.

mod naive_heap;

use naive_heap::CandidateHeap as NaiveHeap;
use proptest::TestRng;
use slaq::placement::CandidateHeap;
use slaq::types::{fcmp, MemMb, NodeId};

/// How a world draws its trackers.
#[derive(Clone, Copy)]
enum Shape {
    /// Every node `4000 MHz / 2048 MB`: only removals move the tree.
    AllEqual,
    /// Two values per component.
    TwoValued,
    /// Quantized CPU beside raw floats, memory in 256 MB steps.
    Random,
}

impl Shape {
    fn cpu(self, rng: &mut TestRng) -> f64 {
        match self {
            Shape::AllEqual => 4000.0,
            Shape::TwoValued => [4000.0, 2500.0][rng.below(2) as usize],
            Shape::Random if rng.below(2) == 0 => 500.0 * rng.below(9) as f64,
            Shape::Random => 8000.0 * rng.unit_f64(),
        }
    }

    fn mem(self, rng: &mut TestRng) -> u64 {
        match self {
            Shape::AllEqual => 2048,
            Shape::TwoValued => 1024 << rng.below(2),
            Shape::Random => 256 * rng.below(17),
        }
    }
}

/// One step of a world, applied to every heap alike.
#[derive(Clone, Copy, Debug)]
enum Step {
    Update(usize, f64, u64),
    Remove(usize),
    Restore(usize, f64, u64),
    Residual(u64, f64, Option<usize>),
    Saturating(f64, u64, f64, Option<u32>),
    Pop,
    Reassign,
}

/// What one step answered: the query's leaf and the slots it visited.
type Answer = (Option<usize>, u64);

/// One node as `assign` takes it: id, shard label, CPU, memory.
type Node = (NodeId, u32, f64, u64);

/// The tally the sweep prints and holds to floors.
#[derive(Default, Debug)]
struct Tally {
    worlds: u64,
    big: u64,
    all_equal: u64,
    two_valued: u64,
    random: u64,
    sharded: u64,
    wide_labels: u64,
    updates: u64,
    cpu_kept: u64,
    removes: u64,
    restores: u64,
    reassigns: u64,
    queries: u64,
    answered: u64,
    visits: u64,
    caught: u64,
}

/// The heaps a world drives in lockstep.
trait Heap {
    fn assign_nodes(&mut self, nodes: &[Node]);
    fn step(&mut self, step: Step, nodes: &[Node]) -> Answer;
}

macro_rules! impl_heap {
    ($ty:ty) => {
        impl Heap for $ty {
            fn assign_nodes(&mut self, nodes: &[Node]) {
                self.assign(
                    nodes
                        .iter()
                        .map(|&(id, shard, cpu, mem)| (id, shard, cpu, MemMb::new(mem))),
                );
            }

            fn step(&mut self, step: Step, nodes: &[Node]) -> Answer {
                let leaf = match step {
                    Step::Update(leaf, cpu, mem) => {
                        self.update(leaf, cpu, MemMb::new(mem));
                        None
                    }
                    Step::Remove(leaf) => {
                        self.remove(leaf);
                        None
                    }
                    Step::Restore(leaf, cpu, mem) => {
                        self.restore(leaf, cpu, MemMb::new(mem));
                        None
                    }
                    Step::Residual(mem, floor, exclude) => {
                        self.best_residual(MemMb::new(mem), floor, exclude)
                    }
                    Step::Saturating(demand, mem, floor, shard) => {
                        self.best_saturating(demand, MemMb::new(mem), floor, shard)
                    }
                    Step::Pop => self.pop(),
                    Step::Reassign => {
                        self.assign_nodes(nodes);
                        None
                    }
                };
                (leaf, self.take_visits())
            }
        }
    };
}

impl_heap!(CandidateHeap);
impl_heap!(NaiveHeap);

/// Draw world `seed`: its nodes and its step sequence, mirrored on a
/// leaf table so every step keeps the API's preconditions (`update` of
/// a live leaf, `restore` of a removed one).
fn world(seed: u64, tally: &mut Tally) -> (Vec<Node>, Vec<Step>) {
    let rng = &mut TestRng::new(seed);
    let n = match seed {
        0..=99 => seed as usize + 1,
        _ if seed.is_multiple_of(8) => 1000 + rng.below(1101) as usize,
        _ => 1 + rng.below(300) as usize,
    };
    tally.big += u64::from(n >= 1000);
    let shape = [Shape::AllEqual, Shape::TwoValued, Shape::Random][rng.below(3) as usize];
    match shape {
        Shape::AllEqual => tally.all_equal += 1,
        Shape::TwoValued => tally.two_valued += 1,
        Shape::Random => tally.random += 1,
    }
    let labels: &[u32] = match rng.below(3) {
        0 => &[0],
        1 => &[0, 1, 2, 3, 4],
        _ => &[1, 63, 64, 90],
    };
    tally.sharded += u64::from(labels.len() > 1);
    tally.wide_labels += u64::from(labels.contains(&64));
    let base = rng.below(50) as u32;
    let nodes: Vec<Node> = (0..n as u32)
        .map(|k| {
            let shard = labels[rng.below(labels.len() as u64) as usize];
            (NodeId::new(base + k), shard, shape.cpu(rng), shape.mem(rng))
        })
        .collect();

    let mut leaves: Vec<(f64, u64, bool)> =
        nodes.iter().map(|&(_, _, c, m)| (c, m, true)).collect();
    let mut steps = Vec::new();
    for _ in 0..40 {
        let leaf = rng.below(n as u64) as usize;
        let (cpu, _, alive) = leaves[leaf];
        let step = match rng.below(16) {
            0..=4 if alive => {
                // Half the updates keep the CPU and move only the memory,
                // which is where a CPU-only exit goes stale.
                let cpu = if rng.below(2) == 0 {
                    cpu
                } else {
                    shape.cpu(rng)
                };
                tally.cpu_kept += u64::from(cpu.to_bits() == leaves[leaf].0.to_bits());
                let mem = shape.mem(rng);
                leaves[leaf] = (cpu, mem, true);
                tally.updates += 1;
                Step::Update(leaf, cpu, mem)
            }
            5..=6 if alive => {
                leaves[leaf].2 = false;
                tally.removes += 1;
                Step::Remove(leaf)
            }
            0..=7 if !alive => {
                let (cpu, mem) = (shape.cpu(rng), shape.mem(rng));
                leaves[leaf] = (cpu, mem, true);
                tally.restores += 1;
                Step::Restore(leaf, cpu, mem)
            }
            8..=10 => {
                let mem = [0, 1024, 2048, 3000][rng.below(4) as usize];
                let floor = [f64::NEG_INFINITY, 1e-9, 2500.0][rng.below(3) as usize];
                let exclude = (rng.below(2) == 0).then_some(leaf);
                Step::Residual(mem, floor, exclude)
            }
            11..=13 => {
                let demand = [1000.0, 2500.0, 4000.0, 5000.0][rng.below(4) as usize];
                let mem = [0, 1024, 2048, 3000][rng.below(4) as usize];
                let floor = [f64::NEG_INFINITY, 1e-9][rng.below(2) as usize];
                let shard =
                    (rng.below(2) == 0).then(|| labels[rng.below(labels.len() as u64) as usize]);
                Step::Saturating(demand, mem, floor, shard)
            }
            14 => Step::Pop,
            15 if rng.below(4) == 0 => {
                tally.reassigns += 1;
                leaves = nodes.iter().map(|&(_, _, c, m)| (c, m, true)).collect();
                Step::Reassign
            }
            _ => continue,
        };
        if let Step::Pop = step {
            // The residual front-runner leaves candidacy: mirror it by
            // the scan the pop answers.
            let front = (0..n)
                .filter(|&i| leaves[i].2)
                .max_by(|&a, &b| fcmp(leaves[a].0, leaves[b].0).then(nodes[b].0.cmp(&nodes[a].0)));
            if let Some(i) = front {
                leaves[i].2 = false;
            }
        }
        steps.push(step);
    }
    (nodes, steps)
}

/// Drive `heap` through a world; every step's answer in order.
fn drive(heap: &mut impl Heap, nodes: &[Node], steps: &[Step]) -> Vec<Answer> {
    heap.assign_nodes(nodes);
    steps.iter().map(|&step| heap.step(step, nodes)).collect()
}

#[test]
fn early_exit_bubbling_matches_the_full_walk() {
    const WORLDS: u64 = 2_000;
    let mut tally = Tally::default();
    // One shipped heap across the worlds, as a solver keeps it warm.
    let mut shipped = CandidateHeap::default();
    for seed in 0..WORLDS {
        let (nodes, steps) = world(seed, &mut tally);
        tally.worlds += 1;
        let mut naive = NaiveHeap::default();
        let want = drive(&mut naive, &nodes, &steps);

        shipped.assign_nodes(&nodes);
        assert!(shipped.tree_is_fresh(), "seed {seed}: stale after assign");
        for (k, &step) in steps.iter().enumerate() {
            let got = shipped.step(step, &nodes);
            assert_eq!(got, want[k], "seed {seed}, step {k}: {step:?}");
            assert!(
                shipped.tree_is_fresh(),
                "seed {seed}, step {k}: stale after {step:?}"
            );
            if matches!(step, Step::Residual(..) | Step::Saturating(..) | Step::Pop) {
                tally.queries += 1;
                tally.answered += u64::from(got.0.is_some());
                tally.visits += got.1;
            }
        }
        assert_eq!(shipped.len(), naive.len(), "seed {seed}");

        let mut mutant = NaiveHeap::default();
        mutant.cpu_only_exit = true;
        tally.caught += u64::from(drive(&mut mutant, &nodes, &steps) != want);
    }
    println!("candidate heap oracle: {tally:?}");
    assert!(tally.worlds >= 2_000, "{tally:?}");
    assert!(tally.big >= 200, "{tally:?}");
    assert!(
        tally.all_equal >= 500 && tally.two_valued >= 500 && tally.random >= 500,
        "{tally:?}"
    );
    assert!(
        tally.sharded >= 500 && tally.wide_labels >= 500,
        "{tally:?}"
    );
    assert!(
        tally.updates >= 15_000 && tally.cpu_kept >= 8_000,
        "{tally:?}"
    );
    assert!(
        tally.removes >= 6_000 && tally.restores >= 1_000,
        "{tally:?}"
    );
    assert!(tally.reassigns >= 200, "{tally:?}");
    assert!(
        tally.queries >= 25_000 && tally.answered >= 15_000,
        "{tally:?}"
    );
    assert!(
        tally.caught >= 100,
        "the CPU-only exit went uncaught: {tally:?}"
    );
}
