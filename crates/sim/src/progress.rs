//! Running jobs' progress, integrated node by node.
//!
//! Between two events every running job progresses at its effective
//! speed, and a speed changes only on a node an event touched: a
//! completion or an unblock frees or claims one node's CPU, a capacity
//! boundary moves the nodes it crosses, an enactment the nodes whose jobs
//! or instances it changed.
//! An arrival moves nothing (a pending job draws no CPU). [`Progress`]
//! keeps, per node position, an **epoch** — the instant up to which the
//! `remaining` of every live job on the node is exact — and a **key**,
//! the node's earliest completion under the speeds in force, measured
//! from its epoch. The keys sit in a min tournament tree, so the next
//! completion is the root.
//!
//! An event integrates and re-keys only the nodes whose speeds it
//! moves: the marked nodes at the top of the next event, at the speeds
//! they ran at, before the flush recomputes them; the nodes whose key is
//! due, at a completion; the target's node, at a resize. A whole-fleet
//! pass — one walk of the live view ([`JobManager::active`]) in id order
//! — happens only where every `remaining` is read or every speed is lost:
//! at a control instant, at the horizon and before an outage strip
//! updates the index; so does the re-key that follows, since every epoch
//! moved. No pass walks the job
//! table, so a pass costs the live jobs, not every job ever submitted.
//! The whole-fleet passes stay in id order rather than node order: by
//! node, each `Job` is a random access into the table, and on
//! `fleet-still` (≈ 4 800 live jobs) that made a control cycle ≈ 3–5 %
//! slower.
//!
//! Each job's `speed · dt` splits only where its own node's speeds moved,
//! so `remaining` and completion instants move in their last bits: an
//! exact-metric move, held to the per-event body and to the global-epoch
//! body by `tests/lazy_progress.rs` within 1 ns per completion and 1e-12
//! of each job's total work per `remaining`.

use crate::cluster::NodeSpeeds;
use slaq_jobs::JobManager;
use slaq_types::{JobId, SimDuration, SimTime};

/// `Job::advance` completes a job whose work runs out within this many
/// seconds past the interval; a node whose key is within it of the
/// instant integrated to is due.
const DUE_SLACK: f64 = 1e-9;

/// Per node: where the live jobs' `remaining` is exact, and the earliest
/// completion it implies under the speeds in force.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Node position → the instant its live jobs' `remaining` is exact at.
    epoch: Vec<SimTime>,
    /// Min tournament tree: slot `width + pos` holds the key of the node
    /// at `pos` (`NEVER` past the last node), an internal slot the
    /// smaller of its two children's; slot 0 is unused.
    tree: Vec<SimTime>,
    width: usize,
    /// Positions whose key is out of date, re-keyed by
    /// [`Progress::rekey`] …
    stale: Vec<u32>,
    /// … and whether a position is among them.
    is_stale: Vec<bool>,
    /// Scratch of the due-node descent.
    visit: Vec<u32>,
    /// Nodes integrated and calls to `Job::advance` since the last
    /// [`Progress::take_work`].
    nodes_advanced: u64,
    jobs_advanced: u64,
}

impl Progress {
    /// `nodes` positions at epoch zero, nothing running.
    pub fn new(nodes: usize) -> Self {
        let width = nodes.next_power_of_two();
        Progress {
            epoch: vec![SimTime::ZERO; nodes],
            tree: vec![SimTime::NEVER; 2 * width],
            width,
            stale: Vec::new(),
            is_stale: vec![false; nodes],
            visit: Vec::new(),
            nodes_advanced: 0,
            jobs_advanced: 0,
        }
    }

    /// The instant the live jobs on the node at `pos` are exact at.
    pub fn epoch(&self, pos: usize) -> SimTime {
        self.epoch[pos]
    }

    /// Whether every node's epoch is `t`.
    pub fn all_at(&self, t: SimTime) -> bool {
        self.epoch.iter().all(|&e| e == t)
    }

    /// The earliest completion over every node (`NEVER` if none): the
    /// root of the tree.
    pub fn next_completion(&self) -> SimTime {
        self.tree[1]
    }

    /// The kept key of the node at `pos`.
    pub fn key(&self, pos: usize) -> SimTime {
        self.tree[self.width + pos]
    }

    /// The earliest completion on the node at `pos` under the speeds in
    /// `speeds`, measured from the node's epoch, whatever is kept: what
    /// [`Progress::key`] must equal, bit for bit, once re-keyed.
    fn fresh_key(&self, pos: usize, jobs: &JobManager, speeds: &NodeSpeeds) -> SimTime {
        let from = self.epoch[pos];
        speeds
            .jobs_at(pos)
            .filter(|(_, speed)| !speed.is_zero())
            .filter_map(|(id, speed)| {
                let job = jobs.job(id).ok()?;
                Some(from + SimDuration::from_secs(job.remaining.secs_at(speed)))
            })
            .fold(SimTime::NEVER, SimTime::min)
    }

    /// Whether nothing awaits a re-key, every key equals a fresh
    /// derivation and every internal slot the smaller of its children,
    /// bit for bit: the event loop's debug cross-check.
    pub fn keys_are_fresh(&self, jobs: &JobManager, speeds: &NodeSpeeds) -> bool {
        let bits = |t: SimTime| t.as_secs().to_bits();
        self.stale.is_empty()
            && (0..self.epoch.len())
                .all(|pos| bits(self.key(pos)) == bits(self.fresh_key(pos, jobs, speeds)))
            && (1..self.width)
                .all(|i| bits(self.tree[i]) == bits(self.tree[2 * i].min(self.tree[2 * i + 1])))
    }

    /// Queue the node at `pos` for the next [`Progress::rekey`].
    fn queue(&mut self, pos: usize) {
        if !self.is_stale[pos] {
            self.is_stale[pos] = true;
            self.stale.push(pos as u32);
        }
    }

    /// Integrate the live jobs of the node at `pos` from its epoch to `to`
    /// at their speeds in `speeds`, even over a zero-length interval
    /// (sub-nanosecond remainders complete through the tolerance in
    /// `Job::advance`), collecting the completions into `done`.
    fn advance_node(
        &mut self,
        jobs: &mut JobManager,
        speeds: &NodeSpeeds,
        pos: usize,
        to: SimTime,
        done: &mut Vec<(JobId, SimTime)>,
    ) {
        let from = self.epoch[pos];
        for (id, speed) in speeds.jobs_at(pos) {
            self.jobs_advanced += 1;
            if let Ok(job) = jobs.job_mut(id) {
                if let Some(at) = job.advance(speed, from, to - from) {
                    done.push((id, at));
                }
            }
        }
        self.epoch[pos] = to;
        self.nodes_advanced += 1;
    }

    /// The top of an event, before the flush: queue every node `speeds`
    /// has marked for a re-key, and integrate each queued node whose
    /// epoch is behind `now` at the speeds it ran at. Returns the
    /// completions, as [`JobManager::advance_running`] does.
    pub fn catch_up(
        &mut self,
        jobs: &mut JobManager,
        speeds: &NodeSpeeds,
        now: SimTime,
    ) -> Vec<(JobId, SimTime)> {
        for &pos in speeds.marked() {
            self.queue(pos as usize);
        }
        let mut done = Vec::new();
        for at in 0..self.stale.len() {
            let pos = self.stale[at] as usize;
            if self.epoch[pos] < now {
                self.advance_node(jobs, speeds, pos, now, &mut done);
            }
        }
        done
    }

    /// After the flush: re-key every queued node under the speeds in
    /// `speeds`. With every node queued (after a whole-fleet integration),
    /// one walk of the live view in id order fills the leaves and the tree
    /// is built bottom up.
    pub fn rekey(&mut self, jobs: &JobManager, speeds: &NodeSpeeds) {
        if !self.epoch.is_empty() && self.stale.len() == self.epoch.len() {
            let leaves = &mut self.tree[self.width..];
            leaves.fill(SimTime::NEVER);
            for job in jobs.active().filter(|j| j.is_running()) {
                let Some((pos, speed)) = speeds.placed(job.id) else {
                    continue;
                };
                if !speed.is_zero() {
                    let t = self.epoch[pos] + SimDuration::from_secs(job.remaining.secs_at(speed));
                    leaves[pos] = leaves[pos].min(t);
                }
            }
            for i in (1..self.width).rev() {
                self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
            }
        } else {
            for at in 0..self.stale.len() {
                let pos = self.stale[at] as usize;
                self.set_key(pos, self.fresh_key(pos, jobs, speeds));
            }
        }
        for &pos in &self.stale {
            self.is_stale[pos as usize] = false;
        }
        self.stale.clear();
    }

    /// Put `key` at the leaf of `pos` and carry it up as far as it moves
    /// a slot.
    fn set_key(&mut self, pos: usize, key: SimTime) {
        let mut i = self.width + pos;
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let min = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if min.as_secs().to_bits() == self.tree[i].as_secs().to_bits() {
                break;
            }
            self.tree[i] = min;
        }
    }

    /// Re-key the node at `pos` now, under the speeds in `speeds`: its
    /// speeds did not move, its jobs' `remaining` did.
    pub fn rekey_node(&mut self, pos: usize, jobs: &JobManager, speeds: &NodeSpeeds) {
        self.set_key(pos, self.fresh_key(pos, jobs, speeds));
    }

    /// A completion is due at `to`: integrate every node whose key is
    /// within `Job::advance`'s tolerance of `to` and queue it for a
    /// re-key. Returns the completions, node by node.
    pub fn integrate_due(
        &mut self,
        jobs: &mut JobManager,
        speeds: &NodeSpeeds,
        to: SimTime,
    ) -> Vec<(JobId, SimTime)> {
        let limit = to.as_secs() + DUE_SLACK;
        let mut done = Vec::new();
        if self.tree[1].as_secs() > limit {
            return done;
        }
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        visit.push(1);
        while let Some(i) = visit.pop() {
            let i = i as usize;
            if self.tree[i].as_secs() > limit {
                continue;
            }
            if i >= self.width {
                let pos = i - self.width;
                self.advance_node(jobs, speeds, pos, to, &mut done);
                self.queue(pos);
            } else {
                visit.push(2 * i as u32 + 1);
                visit.push(2 * i as u32);
            }
        }
        self.visit = visit;
        done
    }

    /// Bring the node at `pos` up to `to` if it is behind, without a
    /// re-key. Returns the completions.
    pub fn catch_up_node(
        &mut self,
        jobs: &mut JobManager,
        speeds: &NodeSpeeds,
        pos: usize,
        to: SimTime,
    ) -> Vec<(JobId, SimTime)> {
        let mut done = Vec::new();
        if self.epoch[pos] < to {
            self.advance_node(jobs, speeds, pos, to, &mut done);
        }
        done
    }

    /// Integrate every running job from its node's epoch to `to`, in one
    /// walk of the live view in id order, and queue every node for the
    /// next [`Progress::rekey`]: every epoch moved, so every key is
    /// measured from a new instant. Returns the completions in id order.
    pub fn integrate_all(
        &mut self,
        jobs: &mut JobManager,
        speeds: &NodeSpeeds,
        to: SimTime,
    ) -> Vec<(JobId, SimTime)> {
        let mut done = Vec::new();
        for job in jobs.active_mut().filter(|j| j.is_running()) {
            let Some((pos, speed)) = speeds.placed(job.id) else {
                continue;
            };
            self.jobs_advanced += 1;
            let from = self.epoch[pos];
            if let Some(at) = job.advance(speed, from, to - from) {
                done.push((job.id, at));
            }
        }
        self.nodes_advanced += self.epoch.len() as u64;
        self.epoch.fill(to);
        for pos in 0..self.epoch.len() {
            self.queue(pos);
        }
        done
    }

    /// The nodes integrated and the calls to `Job::advance` since the
    /// last call.
    pub fn take_work(&mut self) -> (u64, u64) {
        let work = (self.nodes_advanced, self.jobs_advanced);
        self.nodes_advanced = 0;
        self.jobs_advanced = 0;
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use slaq_jobs::JobSpec;
    use slaq_placement::problem::NodeCapacity;
    use slaq_placement::Placement;
    use slaq_types::{CpuMhz, MemMb, NodeId, Work};
    use slaq_utility::CompletionGoal;

    /// `JobManager::advance_running_to`, the id-order walk of the whole
    /// job table `integrate_all` called before it walked the live view,
    /// kept verbatim but for the table's iterator, which is `job_mut`
    /// over the dense ids outside the manager.
    fn advance_running_to(
        jobs: &mut JobManager,
        to: SimTime,
        mut from_of: impl FnMut(JobId) -> Option<(SimTime, CpuMhz)>,
    ) -> Vec<(JobId, SimTime)> {
        let mut done = Vec::new();
        for id in (0..jobs.len() as u32).map(JobId::new) {
            let job = jobs.job_mut(id).expect("dense ids");
            if !job.is_running() {
                continue;
            }
            if let Some((from, alloc)) = from_of(job.id) {
                if let Some(at) = job.advance(alloc, from, to - from) {
                    done.push((job.id, at));
                }
            }
        }
        done
    }

    /// `integrate_all` over the live view against the walk of the whole
    /// table it replaced, over seeded worlds: nodes at their own epochs
    /// (some at the target instant already), pending, running and
    /// blocked jobs, completed ones retired or not, remainders that run out inside the interval or
    /// within the completion tolerance past it. Both sides must complete
    /// the same jobs at the same instants in the same order, leave every
    /// `remaining` and state the same, bit for bit, and count the same
    /// jobs advanced (the `sim.progress.jobs_advanced` pin).
    #[test]
    fn integrate_all_equals_the_table_walk() {
        // worlds, jobs advanced, completions, nodes already at the
        // target, blocked jobs, completions over a zero-length interval
        // (through the tolerance), jobs completed before the walk.
        let mut tally = [0u64; 7];
        for seed in 0..2000u64 {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let mut below = |bound: u64| rng.next_u64() % bound;
            let nodes: Vec<NodeCapacity> = (0..1 + below(8))
                .map(|k| NodeCapacity {
                    id: NodeId::new(2 * k as u32),
                    cpu: CpuMhz::new(1000.0 * (1 + below(12)) as f64),
                    mem: MemMb::new(4096),
                })
                .collect();
            let to = SimTime::from_secs(600.0 * (1 + below(4)) as f64);
            let mut jobs = JobManager::new();
            let mut placement = Placement::empty();
            let mut blocked = Vec::new();
            for i in 0..below(40) {
                let work = 3000.0 * (1 + below(900)) as f64;
                let spec = JobSpec {
                    name: format!("job{i}"),
                    total_work: Work::new(work),
                    max_speed: CpuMhz::new([3000.0, 1500.0][below(2) as usize]),
                    mem: MemMb::new(512),
                    goal: CompletionGoal::relative(
                        SimTime::ZERO,
                        SimDuration::from_secs(work / 3000.0),
                        1.5,
                        3.0,
                    )
                    .expect("valid goal"),
                    importance: 1.0,
                };
                let id = jobs.submit(spec, SimTime::ZERO).expect("valid spec");
                let node = nodes[below(nodes.len() as u64) as usize].id;
                match below(6) {
                    0 => continue,
                    1 => {
                        let job = jobs.job_mut(id).expect("submitted");
                        job.start(node, SimTime::ZERO).expect("pending");
                        job.advance(
                            job.spec.max_speed,
                            SimTime::ZERO,
                            SimDuration::from_secs(1e6),
                        );
                        // Retired or not: the view skips it either way.
                        if below(2) == 0 {
                            jobs.retire(id);
                        }
                        tally[6] += 1;
                        continue;
                    }
                    2 => {
                        blocked.push(id);
                        tally[4] += 1;
                    }
                    3 => jobs.job_mut(id).expect("submitted").remaining = Work::new(1e-7),
                    _ => {}
                }
                jobs.job_mut(id)
                    .expect("submitted")
                    .start(node, SimTime::ZERO)
                    .expect("pending");
                let guarantee = CpuMhz::new(500.0 * below(7) as f64);
                placement.jobs.insert(id, (node, guarantee));
            }
            let mut speeds = NodeSpeeds::new(&nodes);
            speeds.update(
                &Placement::empty(),
                &placement,
                |id| match jobs.job(id) {
                    Ok(job) if job.is_running() => Some(job.spec.max_speed),
                    _ => None,
                },
                |id| blocked.contains(&id),
            );
            speeds.flush(&nodes, false, |_| None);
            let mut progress = Progress::new(nodes.len());
            for epoch in &mut progress.epoch {
                *epoch =
                    [to, SimTime::from_secs(below(to.as_secs() as u64) as f64)][below(2) as usize];
                tally[3] += u64::from(*epoch == to);
            }
            let (mut naive_jobs, naive_epoch) = (jobs.clone(), progress.epoch.clone());

            let done = progress.integrate_all(&mut jobs, &speeds, to);
            let (_, advanced) = progress.take_work();
            let mut naive_advanced = 0;
            let naive_done = advance_running_to(&mut naive_jobs, to, |id| {
                let (pos, speed) = speeds.placed(id)?;
                naive_advanced += 1;
                Some((naive_epoch[pos], speed))
            });

            let bits = |done: &[(JobId, SimTime)]| {
                done.iter()
                    .map(|&(id, at)| (id, at.as_secs().to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&done), bits(&naive_done), "seed {seed}: completions");
            assert_eq!(advanced, naive_advanced, "seed {seed}: jobs advanced");
            assert!(progress.all_at(to), "seed {seed}: epochs");
            for (job, naive) in jobs.jobs().iter().zip(naive_jobs.jobs()) {
                assert_eq!(job.state, naive.state, "seed {seed}: {}", job.id);
                assert_eq!(
                    job.remaining.as_f64().to_bits(),
                    naive.remaining.as_f64().to_bits(),
                    "seed {seed}: {} remaining",
                    job.id
                );
            }
            tally[0] += 1;
            tally[1] += advanced;
            tally[2] += done.len() as u64;
            tally[5] += done
                .iter()
                .filter(|&&(id, _)| {
                    speeds
                        .placed(id)
                        .is_some_and(|(pos, _)| naive_epoch[pos] == to)
                })
                .count() as u64;
        }
        println!(
            "integrate_all: {} worlds, {} jobs advanced, {} completions, {} nodes at the target, \
             {} blocked jobs, {} completions over a zero-length interval, \
             {} jobs completed before",
            tally[0], tally[1], tally[2], tally[3], tally[4], tally[5], tally[6]
        );
        for (what, floor) in tally
            .iter()
            .zip([2000, 20_000, 6000, 3000, 5000, 2000, 5000])
        {
            assert!(*what >= floor, "tally {tally:?} under its floors");
        }
    }
}
