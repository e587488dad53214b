//! Work-conserving per-node CPU sharing.
//!
//! The controller's placement carries *guarantees* (hypervisor minimum
//! shares). Real hypervisors are work-conserving: capacity a VM leaves
//! idle flows to its node-mates. This module computes the **effective
//! speeds** that result, one node at a time:
//!
//! 1. every placed entity receives its guarantee;
//! 2. node spare capacity (including guarantees of blocked VMs) is
//!    water-filled across *running jobs* first, each capped at its
//!    maximum speed — this is what lets SLA-hopeless jobs (zero demand,
//!    zero guarantee) still drain to completion;
//! 3. whatever remains goes to the node's transactional instances
//!    (proportional to their guarantees, evenly when all are zero).
//!
//! Under overbooking a fourth step follows: a node whose grant exceeds
//! its *true* capacity has everything on it scaled down to fit.
//!
//! A node's outcome depends on that node alone, so the simulator keeps
//! one [`NodeSpeeds`] alive — the placement grouped by node, dense speed
//! tables and a set of out-of-date nodes. A new plan is applied as a
//! delta ([`NodeSpeeds::update`]: only the nodes whose jobs or instances
//! it changed are refilled and marked), [`NodeSpeeds::flush`] re-runs
//! the kernel only on the nodes an event marked, and the event loop reads
//! the tables directly ([`NodeSpeeds::job_speed`],
//! [`NodeSpeeds::app_speed`]). A what-if about the same placement is the
//! same kernel with other switches: the speeds with nobody blocked and no
//! clip are kept beside the tables and re-run on the nodes marked since
//! the last call ([`NodeSpeeds::project_outlook`]); the clip factors
//! before the flush that will compute them are a pass over every node
//! into a [`Projection`] ([`NodeSpeeds::project`]), the index untouched.
//! The one-shot [`effective_speeds`] is the same kernel run on every
//! node of a freshly built index, kept as the oracle of all three; there
//! is no second implementation.

use slaq_placement::problem::NodeCapacity;
use slaq_placement::Placement;
use slaq_types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// "No entry" in the dense `u32` tables.
const NONE: u32 = u32::MAX;

/// One job of the placement, as its node sees it.
#[derive(Debug, Clone, Copy)]
struct PlacedJob {
    id: JobId,
    guarantee: CpuMhz,
    /// Maximum speed (the guarantee itself for a job without a cap).
    cap: CpuMhz,
    /// Position of its node in the node list.
    node: u32,
    /// `false` once the job completed.
    alive: bool,
    /// Paying a start/resume/migration latency: runs at zero speed and
    /// its guarantee joins the node's spare pool.
    blocked: bool,
}

/// One application instance of the placement.
#[derive(Debug, Clone, Copy)]
struct Slice {
    guarantee: CpuMhz,
    /// What the instance receives: the guarantee plus its share of the
    /// node's leftover spare (none when allocations are limits).
    delivered: CpuMhz,
    /// Position of its node in the node list.
    node: u32,
    /// Position of its application in `app_ids`.
    app: u32,
}

/// The entry of a dense table at `index`, if it has one.
fn entry(table: &[u32], index: usize) -> Option<usize> {
    match table.get(index) {
        Some(&at) if at != NONE => Some(at as usize),
        _ => None,
    }
}

/// Make `v` exactly `len` copies of `value`, growing its buffer to fit
/// and no further: these tables live as long as the simulator and are
/// refilled every control cycle, so amortised doubling would only hold
/// memory.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.reserve_exact(len);
    v.resize(len, value);
}

/// Turn per-node counts (`starts[pos + 1]`, `starts[0] == 0`) into range
/// starts and copy them into `cursor`, the counting sort's fill cursor.
fn prefix_sums(starts: &mut [u32], cursor: &mut Vec<u32>) {
    for pos in 1..starts.len() {
        starts[pos] += starts[pos - 1];
    }
    cursor.clear();
    cursor.extend_from_slice(&starts[..starts.len() - 1]);
}

/// The per-node kernel's water-fill scratch, reused from node to node.
#[derive(Debug, Default)]
struct Kernel {
    /// `(index among the node's jobs, speed, cap)` of the node's runnable
    /// jobs …
    runnable: Vec<(usize, CpuMhz, CpuMhz)>,
    /// … and the positions in `runnable` still below their cap.
    open: Vec<usize>,
}

impl Kernel {
    /// Share one node's `cpu` among `jobs` (its range of the index) and
    /// its instances' `guarantees` (application order), then clip the
    /// node to `truth`: the speed of every live job goes into `speeds`
    /// (parallel to `jobs`), and the node's clip factor and the spare left
    /// for its instances come back. A blocked job runs at zero and its
    /// guarantee is spare while `honour_blocked`; otherwise it runs like
    /// any other.
    fn share(
        &mut self,
        jobs: &[PlacedJob],
        speeds: &mut [CpuMhz],
        guarantees: impl Iterator<Item = CpuMhz> + Clone,
        cpu: CpuMhz,
        honour_blocked: bool,
        truth: Option<f64>,
    ) -> (f64, CpuMhz) {
        let mut used = CpuMhz::ZERO;
        // Guarantees (blocked jobs run at zero; their share is spare).
        self.runnable.clear();
        for (i, pj) in jobs.iter().enumerate() {
            if !pj.alive {
                continue;
            }
            if pj.blocked && honour_blocked {
                speeds[i] = CpuMhz::ZERO;
                continue;
            }
            let g = pj.guarantee.min(pj.cap);
            used += g;
            self.runnable.push((i, g, pj.cap));
        }
        for g in guarantees.clone() {
            used += g;
        }
        let mut spare = cpu.saturating_sub(used);

        // Water-fill spare across runnable jobs up to their caps.
        loop {
            self.open.clear();
            self.open.extend(
                self.runnable
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s, cap))| cap.as_f64() - s.as_f64() > 1e-9)
                    .map(|(i, _)| i),
            );
            if self.open.is_empty() || spare.as_f64() <= 1e-9 {
                break;
            }
            let share = spare / self.open.len() as f64;
            let mut granted_any = false;
            for &i in &self.open {
                let (_, s, cap) = self.runnable[i];
                let grant = (cap - s).min(share).max_zero();
                if grant.as_f64() > 0.0 {
                    self.runnable[i].1 += grant;
                    spare -= grant;
                    granted_any = true;
                }
            }
            if !granted_any {
                break;
            }
        }

        // Overbooking: when the node's grant — its job speeds in id order
        // (a blocked job's zero adds nothing), then its instances'
        // guarantees in application order — exceeds its true capacity,
        // everything on it is scaled to fit.
        let mut factor = 1.0;
        if let Some(truth) = truth {
            let mut grant = 0.0;
            for &(_, s, _) in &self.runnable {
                grant += s.as_f64();
            }
            for g in guarantees {
                grant += g.as_f64();
            }
            if grant > 0.0 && grant > truth {
                factor = (truth / grant).max(0.0);
            }
        }
        for &(i, s, _) in &self.runnable {
            speeds[i] = s * factor;
        }
        (factor, spare)
    }
}

/// What a [`NodeSpeeds::flush`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flushed {
    /// Nodes recomputed.
    pub recomputed: usize,
    /// Of those, nodes whose grant exceeded their true capacity.
    pub clipped: usize,
}

/// One placement grouped by node: what [`NodeSpeeds::update`] writes
/// for every plan, reading the outgoing plan's beside it, into the
/// buffers of the plan before that.
#[derive(Debug, Default)]
struct Layout {
    /// Placed jobs, grouped by node position, id order within a node.
    jobs: Vec<PlacedJob>,
    /// Node position → start of its range in `jobs` (`len + 1` entries).
    job_start: Vec<u32>,
    /// Node position → how many of its jobs are alive.
    live: Vec<u32>,
    /// Effective speeds, parallel to `jobs`.
    job_speed: Vec<CpuMhz>,
    /// The outlook: speeds with nobody blocked and nothing clipped,
    /// parallel to `jobs`, as of the last [`NodeSpeeds::project_outlook`].
    outlook: Vec<CpuMhz>,
    /// Applications with at least one instance on a listed node,
    /// ascending.
    app_ids: Vec<AppId>,
    /// Instances, grouped by application, node-position order within
    /// one: the order a node-by-node sweep adds them to the total in.
    slices: Vec<Slice>,
    /// Application position → start of its range in `slices`.
    app_start: Vec<u32>,
    /// Indices into `slices`, grouped by node position, application
    /// order within a node.
    node_slices: Vec<u32>,
    /// Node position → start of its range in `node_slices`.
    slice_start: Vec<u32>,
}

impl Layout {
    /// An empty layout over `nodes` positions.
    fn new(nodes: usize) -> Self {
        Layout {
            job_start: vec![0; nodes + 1],
            live: vec![0; nodes],
            app_start: vec![0],
            slice_start: vec![0; nodes + 1],
            ..Layout::default()
        }
    }

    /// The range in `jobs` of the node at `pos`.
    fn jobs_on(&self, pos: usize) -> std::ops::Range<usize> {
        self.job_start[pos] as usize..self.job_start[pos + 1] as usize
    }

    /// The indices into `slices` of the instances on the node at `pos`.
    fn slices_on(&self, pos: usize) -> &[u32] {
        &self.node_slices[self.slice_start[pos] as usize..self.slice_start[pos + 1] as usize]
    }

    /// Group the instances of `placement` on listed nodes (`node_pos`) over
    /// `nodes` positions: by application (the map's order), each group in
    /// node-position order, and per node in application order (a counting
    /// sort with `cursor`).
    fn group_instances(
        &mut self,
        placement: &Placement,
        node_pos: &[u32],
        nodes: usize,
        cursor: &mut Vec<u32>,
    ) {
        self.app_ids.clear();
        self.app_ids.reserve_exact(placement.apps.len());
        self.app_start.clear();
        self.app_start.reserve_exact(placement.apps.len() + 1);
        self.slices.clear();
        self.slices
            .reserve_exact(placement.apps.values().map(|m| m.len()).sum());
        for (&app, per_node) in &placement.apps {
            let begin = self.slices.len();
            for (&node, &guarantee) in per_node {
                if let Some(pos) = entry(node_pos, node.index()) {
                    self.slices.push(Slice {
                        guarantee,
                        delivered: guarantee,
                        node: pos as u32,
                        app: self.app_ids.len() as u32,
                    });
                }
            }
            if self.slices.len() > begin {
                self.slices[begin..].sort_unstable_by_key(|s| s.node);
                self.app_ids.push(app);
                self.app_start.push(begin as u32);
            }
        }
        self.app_start.push(self.slices.len() as u32);
        refill(&mut self.slice_start, nodes + 1, 0);
        for s in &self.slices {
            self.slice_start[s.node as usize + 1] += 1;
        }
        prefix_sums(&mut self.slice_start, cursor);
        refill(&mut self.node_slices, self.slices.len(), 0);
        for (i, s) in self.slices.iter().enumerate() {
            let at = &mut cursor[s.node as usize];
            self.node_slices[*at as usize] = i as u32;
            *at += 1;
        }
    }

    /// Whether the node at `pos` holds the same instances (applications
    /// and grants, compared by `same`) here as in `prev`.
    fn same_instances(
        &self,
        prev: &Layout,
        pos: usize,
        same: &impl Fn(CpuMhz, CpuMhz) -> bool,
    ) -> bool {
        let (slices, was) = (self.slices_on(pos), prev.slices_on(pos));
        slices.len() == was.len()
            && slices.iter().zip(was).all(|(&i, &k)| {
                let (s, t) = (&self.slices[i as usize], &prev.slices[k as usize]);
                self.app_ids[s.app as usize] == prev.app_ids[t.app as usize]
                    && same(s.guarantee, t.guarantee)
            })
    }

    /// Append `prev`'s jobs at `run` — whole ranges of nodes, all alive —
    /// with their speeds and outlook, and point their slots here (where
    /// the run moved).
    fn copy_run(&mut self, prev: &Layout, run: std::ops::Range<usize>, job_slot: &mut [u32]) {
        let at = self.jobs.len();
        let moved = at != run.start;
        self.jobs.extend_from_slice(&prev.jobs[run.clone()]);
        self.job_speed
            .extend_from_slice(&prev.job_speed[run.clone()]);
        self.outlook.extend_from_slice(&prev.outlook[run]);
        if moved {
            for (slot, job) in self.jobs.iter().enumerate().skip(at) {
                job_slot[job.id.index()] = slot as u32;
            }
        }
    }

    /// Append one job with its speed and outlook, and point its slot here.
    fn push(&mut self, job: PlacedJob, speed: CpuMhz, outlook: CpuMhz, job_slot: &mut [u32]) {
        job_slot[job.id.index()] = self.jobs.len() as u32;
        self.jobs.push(job);
        self.job_speed.push(speed);
        self.outlook.push(outlook);
    }
}

/// Whether two grants are the same float, bit for bit.
fn same_bits(a: CpuMhz, b: CpuMhz) -> bool {
    a.as_f64().to_bits() == b.as_f64().to_bits()
}

/// The placement grouped by node, the effective speeds it yields, and
/// the set of nodes whose speeds are out of date.
///
/// Every enacted placement is applied as a delta ([`NodeSpeeds::update`]):
/// a node that holds the same live jobs and instances at the same grants
/// keeps its speeds, and only the nodes the plan changed are marked.
/// Every later change — a completion, an unblock instant, a capacity
/// boundary, a re-drawn bite — marks only the nodes it touched, and
/// [`NodeSpeeds::flush`] re-runs the per-node kernel on exactly those.
/// An application's cluster-wide total is never adjusted by a
/// difference (float addition does not associate): whenever one of its
/// instances' delivered share changed bits, the total is re-summed over
/// all its instances in node order, so every float is the one a
/// from-scratch [`effective_speeds`] call computes. The same holds for
/// the overbooking clip: a node's factor is recomputed with the node, and
/// when it changed bits every application with an instance there is
/// re-summed.
///
/// Nodes are addressed by their *position* in the node list given to
/// [`NodeSpeeds::new`]. The id → position and id → slot tables are dense
/// by [`NodeId::index`] / [`JobId::index`] (the cluster spec and the job
/// manager number from zero).
#[derive(Debug)]
pub struct NodeSpeeds {
    /// The node list's ids, in order.
    node_ids: Vec<NodeId>,
    /// [`NodeId::index`] → position in the node list.
    node_pos: Vec<u32>,
    /// The placement in force, grouped by node.
    plan: Layout,
    /// [`JobId::index`] → index into `jobs` of a placed, uncompleted job.
    job_slot: Vec<u32>,
    /// Cluster-wide delivered CPU, parallel to `app_ids`.
    app_speed: Vec<CpuMhz>,
    /// Node position → its overbooking clip factor as of the last flush:
    /// `1.0` while the node's grant fits its true capacity, else the
    /// quotient of a truth below the grant, so in `[0, 1)`.
    clip: Vec<f64>,
    /// Node positions whose speeds are out of date …
    dirty: Vec<u32>,
    /// … and whether a position is among them.
    is_dirty: Vec<bool>,
    /// Node positions marked since the last
    /// [`NodeSpeeds::project_outlook`], likewise.
    unprojected: Vec<u32>,
    is_unprojected: Vec<bool>,
    /// Application positions whose total must be re-summed, likewise.
    stale_apps: Vec<u32>,
    app_is_stale: Vec<bool>,
    /// The per-node kernel's scratch.
    kernel: Kernel,
    /// Counting-sort fill cursor, reused by `update`.
    cursor: Vec<u32>,
    /// `update`'s scratch: node position → whether the plan changed it …
    changed: Vec<bool>,
    /// … and the nodes laid out one by one: changed, or holding a dead
    /// job.
    special: Vec<u32>,
    /// The per-node tables of the plan before the outgoing one, for the
    /// next `update` to refill; the per-entity columns are allocated per
    /// plan at their exact size rather than held twice.
    spare: Layout,
}

impl NodeSpeeds {
    /// An empty index over `nodes`, nothing out of date. Only the ids
    /// and their order are kept: capacities are passed to
    /// [`NodeSpeeds::flush`], so they may change between flushes while
    /// positions never move. The ids must be distinct; that is a
    /// `debug_assert!`, not an error — a release build given duplicates
    /// files everything under the later position.
    pub fn new(nodes: &[NodeCapacity]) -> Self {
        let n = nodes.len();
        let table = nodes.iter().map(|n| n.id.index() + 1).max().unwrap_or(0);
        let mut node_pos = vec![NONE; table];
        for (pos, node) in nodes.iter().enumerate() {
            debug_assert_eq!(node_pos[node.id.index()], NONE, "duplicate {}", node.id);
            node_pos[node.id.index()] = pos as u32;
        }
        NodeSpeeds {
            node_ids: nodes.iter().map(|n| n.id).collect(),
            node_pos,
            plan: Layout::new(n),
            job_slot: Vec::new(),
            app_speed: Vec::new(),
            clip: vec![1.0; n],
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            unprojected: Vec::new(),
            is_unprojected: vec![false; n],
            stale_apps: Vec::new(),
            app_is_stale: Vec::new(),
            kernel: Kernel::default(),
            cursor: Vec::new(),
            changed: vec![false; n],
            special: Vec::new(),
            spare: Layout::default(),
        }
    }

    /// Position of `node` in the node list, if it is listed.
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        entry(&self.node_pos, node.index())
    }

    /// Slot in `jobs` of a placed, uncompleted job.
    fn slot_of(&self, job: JobId) -> Option<usize> {
        entry(&self.job_slot, job.index())
    }

    /// Mark the node at `pos` out of date, for the next flush and the
    /// next outlook alike.
    pub fn mark(&mut self, pos: usize) {
        self.mark_flush(pos);
        if !self.is_unprojected[pos] {
            self.is_unprojected[pos] = true;
            self.unprojected.push(pos as u32);
        }
    }

    /// Mark the node at `pos` out of date for the flush only: what moved
    /// — a blocked flag, a true capacity — does not enter the outlook.
    pub fn mark_flush(&mut self, pos: usize) {
        if !self.is_dirty[pos] {
            self.is_dirty[pos] = true;
            self.dirty.push(pos as u32);
        }
    }

    /// The positions of the nodes marked out of date since the last
    /// flush: what the next [`NodeSpeeds::flush`] recomputes.
    pub fn marked(&self) -> &[u32] {
        &self.dirty
    }

    /// Mark every node out of date (the capacities were re-derived).
    pub fn mark_all_dirty(&mut self) {
        for pos in 0..self.node_ids.len() {
            self.mark(pos);
        }
    }

    /// Apply the plan `to`, which replaced `from`, as a delta. `from` is
    /// what the index holds: the plan it was last brought to, less the
    /// jobs completed since. A node whose live jobs (ids and grants) and
    /// instances (applications and grants) are the same under both, bit
    /// for bit, carries over its speeds, outlook, blocked flags, clip
    /// factor and delivered shares; only the other nodes are refilled and
    /// marked. `cap_of` is a job's maximum speed (`None`: its guarantee is
    /// its cap), `is_blocked` whether it is paying a placement latency
    /// right now; both are asked only for the jobs that entered a node or
    /// changed their grant, so a job kept at the same node and grant must
    /// keep its cap and its blocked flag: a cap is its spec's, only a
    /// start or a migration (both move the job) blocks it, and
    /// [`NodeSpeeds::unblock`] must have been called for every latency
    /// that ran out. Both requirements are `debug_assert!`s. Every
    /// application's total is re-summed by the next flush. Entities on
    /// nodes outside the node list have no speed and are left out.
    /// Returns how many nodes changed.
    pub fn update(
        &mut self,
        from: &Placement,
        to: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
    ) -> usize {
        debug_assert!(
            self.holds(from),
            "the index does not hold the plan it is updated from"
        );
        let changed = self.update_with(from, to, &cap_of, &is_blocked, same_bits);
        debug_assert!(
            self.plan.jobs.iter().filter(|job| job.alive).all(|job| {
                same_bits(job.cap, cap_of(job.id).unwrap_or(job.guarantee))
                    && job.blocked == is_blocked(job.id)
            }),
            "a job kept at its node and grant changed its cap or blocked flag"
        );
        changed
    }

    /// [`NodeSpeeds::update`] with the grant comparison `same` (bit
    /// equality in every caller but a mutation check).
    fn update_with(
        &mut self,
        from: &Placement,
        to: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
        same: impl Fn(CpuMhz, CpuMhz) -> bool,
    ) -> usize {
        let n = self.node_ids.len();
        let node_pos = &self.node_pos;
        let changed = &mut self.changed;
        changed.fill(false);
        let mut change = |node: NodeId| {
            if let Some(pos) = entry(node_pos, node.index()) {
                changed[pos] = true;
            }
        };

        // Jobs: both plans in id order, side by side. A job `to` keeps at
        // its node and grant is kept; any other difference changes the
        // node it left and the node it entered, and the job leaves the
        // outgoing layout as a completed one does. A job that entered a
        // listed node is filled from the plan.
        let (held, job_slot) = (&mut self.plan.jobs, &mut self.job_slot);
        let mut retire = |id: JobId| {
            if let Some(slot) = entry(job_slot, id.index()) {
                held[slot].alive = false;
                job_slot[id.index()] = NONE;
            }
        };
        let mut incoming = Vec::new();
        let mut was = from.jobs.iter().peekable();
        for (&id, &(node, guarantee)) in &to.jobs {
            while let Some((&left, &(on, _))) = was.next_if(|&(&old, _)| old < id) {
                change(on);
                retire(left);
            }
            if let Some((_, &(old, g))) = was.next_if(|&(&old, _)| old == id) {
                if old == node && same(g, guarantee) {
                    continue;
                }
                change(old);
                retire(id);
            }
            if let Some(pos) = entry(node_pos, node.index()) {
                change(node);
                incoming.push(PlacedJob {
                    id,
                    guarantee,
                    cap: cap_of(id).unwrap_or(guarantee),
                    node: pos as u32,
                    alive: true,
                    blocked: is_blocked(id),
                });
            }
        }
        for (&left, &(on, _)) in was {
            change(on);
            retire(left);
        }
        if let Some(last) = to.jobs.keys().next_back() {
            if self.job_slot.len() <= last.index() {
                self.job_slot.resize(last.index() + 1, NONE);
            }
        }
        // Grouped by node, id order within one (the pair is unique).
        incoming.sort_unstable_by_key(|job| (job.node, job.id));

        // Instances: grouped afresh and compared node by node; an
        // unchanged node's delivered shares carry over.
        let prev = std::mem::take(&mut self.plan);
        let mut plan = std::mem::take(&mut self.spare);
        plan.group_instances(to, node_pos, n, &mut self.cursor);
        for pos in 0..n {
            if plan.slices_on(pos).is_empty() && prev.slices_on(pos).is_empty() {
                continue;
            }
            if !plan.same_instances(&prev, pos, &same) {
                self.changed[pos] = true;
            } else if !self.changed[pos] {
                let here = plan.slice_start[pos] as usize..plan.slice_start[pos + 1] as usize;
                for (at, &k) in here.zip(prev.slices_on(pos)) {
                    let i = plan.node_slices[at] as usize;
                    plan.slices[i].delivered = prev.slices[k as usize].delivered;
                }
            }
        }

        // The nodes laid out one by one: the changed ones, and those that
        // hold a dead job, which drops out.
        self.special.clear();
        for pos in 0..n {
            if self.changed[pos] || prev.live[pos] as usize != prev.jobs_on(pos).len() {
                self.special.push(pos as u32);
            }
        }

        // The new ranges. Between two of those nodes, the unchanged ones
        // are copied over in one block with their speeds and outlook. Each
        // of those nodes keeps its live jobs (cap and blocked flag carried
        // over), merged by id with the ones that entered it; an unchanged
        // one keeps their speeds and outlook too.
        refill(&mut plan.job_start, n + 1, 0);
        refill(&mut plan.live, n, 0);
        let placed = prev.jobs.len() + incoming.len();
        plan.jobs.reserve_exact(placed);
        plan.job_speed.reserve_exact(placed);
        plan.outlook.reserve_exact(placed);
        let mut incoming = incoming.into_iter().peekable();
        let mut from_pos = 0;
        for &until in self.special.iter().chain([&(n as u32)]) {
            let until = until as usize;
            let (a, b) = (
                prev.job_start[from_pos] as usize,
                prev.job_start[until] as usize,
            );
            let base = plan.jobs.len();
            for pos in from_pos..until {
                plan.job_start[pos] = (prev.job_start[pos] as usize - a + base) as u32;
            }
            plan.live[from_pos..until].copy_from_slice(&prev.live[from_pos..until]);
            plan.copy_run(&prev, a..b, &mut self.job_slot);
            if until == n {
                break;
            }
            let pos = until;
            let carry = !self.changed[pos];
            plan.job_start[pos] = plan.jobs.len() as u32;
            let mut kept = prev.jobs_on(pos).filter(|&k| prev.jobs[k].alive).peekable();
            loop {
                let next_in = incoming.peek().filter(|job| job.node as usize == pos);
                let entered = match (kept.peek(), next_in) {
                    (Some(&k), Some(job)) => job.id < prev.jobs[k].id,
                    (Some(_), None) => false,
                    (None, Some(_)) => true,
                    (None, None) => break,
                };
                if entered {
                    let job = incoming.next().expect("peeked");
                    plan.push(job, CpuMhz::ZERO, CpuMhz::ZERO, &mut self.job_slot);
                } else {
                    let k = kept.next().expect("peeked");
                    let (speed, outlook) = match carry {
                        true => (prev.job_speed[k], prev.outlook[k]),
                        false => (CpuMhz::ZERO, CpuMhz::ZERO),
                    };
                    plan.push(prev.jobs[k], speed, outlook, &mut self.job_slot);
                }
            }
            plan.live[pos] = plan.jobs.len() as u32 - plan.job_start[pos];
            from_pos = pos + 1;
        }
        plan.job_start[n] = plan.jobs.len() as u32;
        self.plan = plan;
        self.spare = Layout {
            job_start: prev.job_start,
            live: prev.live,
            slice_start: prev.slice_start,
            ..Layout::default()
        };

        let mut changed = 0;
        for at in 0..self.special.len() {
            let pos = self.special[at] as usize;
            if self.changed[pos] {
                self.mark(pos);
                changed += 1;
            }
        }
        // Every total is summed afresh by the next flush.
        refill(&mut self.app_speed, self.plan.app_ids.len(), CpuMhz::ZERO);
        refill(&mut self.app_is_stale, self.plan.app_ids.len(), true);
        self.stale_apps.clear();
        self.stale_apps.extend(0..self.plan.app_ids.len() as u32);
        changed
    }

    /// Whether the live jobs and the instances on listed nodes are the
    /// ones `placement` lists there: what [`NodeSpeeds::update`] requires
    /// of the plan it updates from.
    fn holds(&self, placement: &Placement) -> bool {
        let listed = |node: NodeId| entry(&self.node_pos, node.index());
        let jobs = placement.jobs.iter().filter_map(|(&id, &(node, g))| {
            listed(node).map(|pos| (id, pos as u32, g.as_f64().to_bits()))
        });
        let mut held: Vec<_> = self
            .plan
            .jobs
            .iter()
            .filter(|job| job.alive)
            .map(|job| (job.id, job.node, job.guarantee.as_f64().to_bits()))
            .collect();
        held.sort_unstable();
        let slices = placement.apps.iter().flat_map(|(&app, per_node)| {
            per_node.iter().filter_map(move |(&node, &g)| {
                listed(node).map(|pos| (app, pos as u32, g.as_f64().to_bits()))
            })
        });
        let mut instances: Vec<_> = slices.collect();
        instances.sort_unstable();
        let mut kept: Vec<_> = self
            .plan
            .slices
            .iter()
            .map(|s| {
                (
                    self.plan.app_ids[s.app as usize],
                    s.node,
                    s.guarantee.as_f64().to_bits(),
                )
            })
            .collect();
        kept.sort_unstable();
        jobs.eq(held) && instances == kept
    }

    /// `job` completed: it leaves its node, whose speeds are now out of
    /// date. A job the index does not hold marks nothing.
    pub fn complete_job(&mut self, job: JobId) {
        if let Some(slot) = self.slot_of(job) {
            let pos = self.plan.jobs[slot].node as usize;
            self.plan.jobs[slot].alive = false;
            self.plan.live[pos] -= 1;
            self.job_slot[job.index()] = NONE;
            self.mark(pos);
        }
    }

    /// `job`'s placement latency ran out: it starts drawing CPU. A job
    /// that was not blocked marks nothing.
    pub fn unblock(&mut self, job: JobId) {
        if let Some(slot) = self.slot_of(job) {
            if self.plan.jobs[slot].blocked {
                self.plan.jobs[slot].blocked = false;
                self.mark_flush(self.plan.jobs[slot].node as usize);
            }
        }
    }

    /// Bring every out-of-date node up to date under the capacities
    /// `nodes` and re-sum the applications whose delivered CPU moved.
    /// `nodes` must carry the ids given to [`NodeSpeeds::new`], in the
    /// same order (a `debug_assert_eq!` per recomputed node). `cap_apps`
    /// limits transactional instances to their guarantees; otherwise a
    /// node's leftover spare flows to them.
    ///
    /// `truth_of` is the overbooking model: the *true* CPU capacity of
    /// the node at a position (`None`: the advertised capacity is the
    /// truth). A recomputed node whose grant — the speeds of its live
    /// jobs in id order, then the guarantees of its instances in
    /// application order — exceeds its truth has its job speeds scaled by
    /// `truth / grant`, and an application with an instance on such a node
    /// delivers `Σ guarantee × factor` over its instances in node order
    /// (factor `1.0` on an unclipped node). Whoever changes a node's truth
    /// marks the node.
    pub fn flush(
        &mut self,
        nodes: &[NodeCapacity],
        cap_apps: bool,
        truth_of: impl Fn(usize) -> Option<f64>,
    ) -> Flushed {
        debug_assert_eq!(nodes.len(), self.node_ids.len());
        let mut flushed = Flushed {
            recomputed: self.dirty.len(),
            clipped: 0,
        };
        for at in 0..flushed.recomputed {
            let pos = self.dirty[at] as usize;
            debug_assert_eq!(nodes[pos].id, self.node_ids[pos]);
            self.is_dirty[pos] = false;
            self.recompute_node(pos, nodes[pos].cpu, cap_apps, truth_of(pos));
            flushed.clipped += (self.clip[pos] != 1.0) as usize;
        }
        self.dirty.clear();

        let plan = &self.plan;
        for &app in &self.stale_apps {
            let app = app as usize;
            self.app_is_stale[app] = false;
            let slices =
                &plan.slices[plan.app_start[app] as usize..plan.app_start[app + 1] as usize];
            let clip_of = |s: &Slice| self.clip[s.node as usize];
            self.app_speed[app] = if slices.iter().any(|s| clip_of(s) != 1.0) {
                CpuMhz::new(
                    slices
                        .iter()
                        .map(|s| s.guarantee.as_f64() * clip_of(s))
                        .sum(),
                )
            } else {
                let mut total = CpuMhz::ZERO;
                for s in slices {
                    total += s.delivered;
                }
                total
            };
        }
        self.stale_apps.clear();
        flushed
    }

    /// Share the CPU of the node at `pos` among what sits on it, then clip
    /// the node to `truth`.
    fn recompute_node(&mut self, pos: usize, cpu: CpuMhz, cap_apps: bool, truth: Option<f64>) {
        let plan = &mut self.plan;
        let on_node = plan.jobs_on(pos);
        let apps_here =
            &plan.node_slices[plan.slice_start[pos] as usize..plan.slice_start[pos + 1] as usize];
        let slices = &plan.slices;
        let (factor, spare) = self.kernel.share(
            &plan.jobs[on_node.clone()],
            &mut plan.job_speed[on_node],
            apps_here.iter().map(|&i| slices[i as usize].guarantee),
            cpu,
            true,
            truth,
        );
        let clip_moved = factor.to_bits() != self.clip[pos].to_bits();
        self.clip[pos] = factor;

        // Remaining spare flows to transactional instances (unless the
        // controller's allocations are enforced as limits).
        let share_spare = !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9;
        let g_total: f64 = if share_spare {
            apps_here
                .iter()
                .map(|&i| plan.slices[i as usize].guarantee.as_f64())
                .sum()
        } else {
            0.0
        };
        for &i in apps_here {
            let s = &mut plan.slices[i as usize];
            let delivered = if !share_spare {
                s.guarantee
            } else if g_total > 1e-9 {
                s.guarantee + spare * (s.guarantee.as_f64() / g_total)
            } else {
                s.guarantee + spare / apps_here.len() as f64
            };
            let moved = delivered.as_f64().to_bits() != s.delivered.as_f64().to_bits();
            s.delivered = delivered;
            if (moved || clip_moved) && !self.app_is_stale[s.app as usize] {
                self.app_is_stale[s.app as usize] = true;
                self.stale_apps.push(s.app);
            }
        }
    }

    /// Effective speed of `job` as of the last flush; zero for a job that
    /// is not placed on a listed node or has completed.
    pub fn job_speed(&self, job: JobId) -> CpuMhz {
        self.slot_of(job)
            .map_or(CpuMhz::ZERO, |slot| self.plan.job_speed[slot])
    }

    /// The position of `job`'s node and the job's speed as of the last
    /// flush, for a placed, uncompleted job on a listed node.
    pub fn placed(&self, job: JobId) -> Option<(usize, CpuMhz)> {
        self.slot_of(job).map(|slot| {
            (
                self.plan.jobs[slot].node as usize,
                self.plan.job_speed[slot],
            )
        })
    }

    /// The live jobs on the node at `pos`, in id order, with their speeds
    /// as of the last flush.
    pub fn jobs_at(&self, pos: usize) -> impl Iterator<Item = (JobId, CpuMhz)> + '_ {
        let on_node = self.plan.jobs_on(pos);
        self.plan.jobs[on_node.clone()]
            .iter()
            .zip(&self.plan.job_speed[on_node])
            .filter(|(job, _)| job.alive)
            .map(|(job, &speed)| (job.id, speed))
    }

    /// Cluster-wide delivered CPU of `app` as of the last flush; zero for
    /// an application without an instance on a listed node.
    pub fn app_speed(&self, app: AppId) -> CpuMhz {
        self.plan
            .app_ids
            .binary_search(&app)
            .map_or(CpuMhz::ZERO, |at| self.app_speed[at])
    }

    /// Whether a live job or an instance is placed on the node at `pos`:
    /// read off the index as [`NodeSpeeds::update`] and
    /// [`NodeSpeeds::complete_job`] left it, flushed or not.
    pub fn hosts_anything(&self, pos: usize) -> bool {
        !self.plan.slices_on(pos).is_empty()
            || self.plan.jobs[self.plan.jobs_on(pos)]
                .iter()
                .any(|job| job.alive)
    }

    /// Bring the outlook — every placed job's speed with nobody blocked
    /// and nothing clipped — up to date under the capacities `nodes`: the
    /// kernel re-runs on the nodes marked since the last call only, and
    /// nothing else of the index moves. Returns how many it re-ran on.
    /// `nodes` must be the capacities the flush is given: a node whose
    /// capacity moved is marked.
    pub fn project_outlook(&mut self, nodes: &[NodeCapacity]) -> usize {
        debug_assert_eq!(nodes.len(), self.node_ids.len());
        let plan = &mut self.plan;
        for &pos in &self.unprojected {
            let pos = pos as usize;
            debug_assert_eq!(nodes[pos].id, self.node_ids[pos]);
            self.is_unprojected[pos] = false;
            let on_node = plan.jobs_on(pos);
            let apps_here = &plan.node_slices
                [plan.slice_start[pos] as usize..plan.slice_start[pos + 1] as usize];
            let slices = &plan.slices;
            self.kernel.share(
                &plan.jobs[on_node.clone()],
                &mut plan.outlook[on_node],
                apps_here.iter().map(|&i| slices[i as usize].guarantee),
                nodes[pos].cpu,
                false,
                None,
            );
        }
        let projected = self.unprojected.len();
        self.unprojected.clear();
        projected
    }

    /// The outlook speed of `job` as of the last
    /// [`NodeSpeeds::project_outlook`]; zero for a job that is not placed
    /// on a listed node or has completed.
    pub fn outlook_speed(&self, job: JobId) -> CpuMhz {
        self.slot_of(job)
            .map_or(CpuMhz::ZERO, |slot| self.plan.outlook[slot])
    }

    /// Run the per-node kernel over *every* node under the capacities
    /// `nodes` into `into`, whatever is marked out of date here, and
    /// change nothing here: a what-if beside the tables. With
    /// `honour_blocked` off every placed job runs as if its placement
    /// latency were over; `truth_of` is the overbooking model as in
    /// [`NodeSpeeds::flush`] (`|_| None`: no clip). With `honour_blocked`
    /// on and the flush's `truth_of`, `into` holds the job speeds and clip
    /// factors a flush of every node would leave in the tables; with both
    /// off, the speeds [`NodeSpeeds::project_outlook`] keeps.
    pub fn project(
        &self,
        nodes: &[NodeCapacity],
        honour_blocked: bool,
        truth_of: impl Fn(usize) -> Option<f64>,
        into: &mut Projection,
    ) {
        debug_assert_eq!(nodes.len(), self.node_ids.len());
        let plan = &self.plan;
        refill(&mut into.job_speed, plan.jobs.len(), CpuMhz::ZERO);
        into.clip.clear();
        into.clip.reserve_exact(nodes.len());
        for (pos, node) in nodes.iter().enumerate() {
            debug_assert_eq!(node.id, self.node_ids[pos]);
            let on_node = plan.jobs_on(pos);
            let (factor, _) = into.kernel.share(
                &plan.jobs[on_node.clone()],
                &mut into.job_speed[on_node],
                plan.slices_on(pos)
                    .iter()
                    .map(|&i| plan.slices[i as usize].guarantee),
                node.cpu,
                honour_blocked,
                truth_of(pos),
            );
            into.clip.push(factor);
        }
    }

    /// The speeds as of the last flush, as maps: one entry per placed,
    /// uncompleted job and per application with at least one instance,
    /// on listed nodes.
    pub fn to_maps(&self) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>) {
        let jobs = self
            .job_slot
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NONE)
            .map(|(index, &slot)| (JobId::new(index as u32), self.plan.job_speed[slot as usize]))
            .collect();
        let apps = self
            .plan
            .app_ids
            .iter()
            .copied()
            .zip(self.app_speed.iter().copied())
            .collect();
        (jobs, apps)
    }
}

/// What [`NodeSpeeds::project`] writes: one speed per placed job and one
/// clip factor per node, nothing else of the index. Kept alive by its
/// owner and refilled by every projection; read against the index it was
/// taken from, before that index is next updated.
#[derive(Debug, Default)]
pub struct Projection {
    /// Projected speeds, parallel to the index's `jobs`.
    job_speed: Vec<CpuMhz>,
    /// Node position → projected clip factor (`1.0`: unclipped).
    clip: Vec<f64>,
    kernel: Kernel,
}

impl Projection {
    /// Projected speed of `job`; zero for a job `index` does not hold
    /// (not placed on a listed node, or completed).
    pub fn job_speed(&self, index: &NodeSpeeds, job: JobId) -> CpuMhz {
        debug_assert_eq!(self.job_speed.len(), index.plan.jobs.len(), "another index");
        index
            .slot_of(job)
            .map_or(CpuMhz::ZERO, |slot| self.job_speed[slot])
    }

    /// Projected clip factor of `node`; `1.0` for an unlisted node.
    pub fn node_clip(&self, index: &NodeSpeeds, node: NodeId) -> f64 {
        debug_assert_eq!(self.clip.len(), index.node_ids.len(), "another index");
        index.position(node).map_or(1.0, |pos| self.clip[pos])
    }

    /// How many nodes the projection clipped.
    pub fn clipped(&self) -> usize {
        self.clip.iter().filter(|&&factor| factor != 1.0).count()
    }
}

/// Compute effective speeds for every running job and every application
/// (cluster-wide aggregate over its instances) from scratch: index the
/// placement over `nodes`, whose ids must be distinct, and run the
/// per-node kernel on every node.
///
/// * `job_caps` — per-job maximum speed;
/// * `blocked` — jobs currently paying a start/resume/migration latency:
///   they run at zero speed and their guarantee joins the spare pool;
/// * `cap_apps` — when `true`, transactional instances are *limited* to
///   their guarantees (the paper's middleware enforces the computed
///   fine-grained allocations as hypervisor limits, so the transactional
///   tier's delivered power equals the controller's decision exactly);
///   when `false` leftover spare flows to the instances (fully
///   work-conserving hypervisor). Jobs are always work-conserving up to
///   their speed caps — that is what drains SLA-hopeless jobs.
pub fn effective_speeds(
    nodes: &[NodeCapacity],
    placement: &Placement,
    job_caps: &BTreeMap<JobId, CpuMhz>,
    blocked: &BTreeSet<JobId>,
    cap_apps: bool,
) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>) {
    let mut speeds = NodeSpeeds::new(nodes);
    speeds.update(
        &Placement::empty(),
        placement,
        |j| job_caps.get(&j).copied(),
        |j| blocked.contains(&j),
    );
    speeds.flush(nodes, cap_apps, |_| None);
    speeds.to_maps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use slaq_types::MemMb;

    fn nodes(n: u32, cpu: f64) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(cpu),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    fn caps(ids: &[u32], cap: f64) -> BTreeMap<JobId, CpuMhz> {
        ids.iter()
            .map(|&i| (JobId::new(i), CpuMhz::new(cap)))
            .collect()
    }

    #[test]
    fn guarantees_are_enforced() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(2000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(10_000.0));
        let (js, asp) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0], 3000.0),
            &BTreeSet::new(),
            false,
        );
        // No spare: 2000 + 10 000 = 12 000 exactly.
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(2000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(10_000.0));
    }

    #[test]
    fn spare_goes_to_jobs_first_capped_at_max_speed() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(2000.0));
        // Node 12 000: guarantees 4000, spare 8000. Jobs can absorb
        // 2000 each (cap 3000), leaving 4000 for the app.
        let (js, asp) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0, 1], 3000.0),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(3000.0));
        assert_eq!(js[&JobId::new(1)], CpuMhz::new(3000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(6000.0));
    }

    #[test]
    fn zero_guarantee_job_still_drains_via_spare() {
        // The "hopeless job" path: guarantee 0 but node has spare.
        let mut p = Placement::empty();
        p.jobs.insert(JobId::new(0), (NodeId::new(0), CpuMhz::ZERO));
        let (js, _) = effective_speeds(
            &nodes(1, 12_000.0),
            &p,
            &caps(&[0], 3000.0),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(3000.0));
    }

    #[test]
    fn blocked_jobs_run_at_zero_and_donate_their_guarantee() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(3000.0)));
        let blocked: BTreeSet<JobId> = [JobId::new(0)].into();
        let (js, _) = effective_speeds(
            &nodes(1, 4000.0),
            &p,
            &caps(&[0, 1], 3000.0),
            &blocked,
            false,
        );
        assert_eq!(js[&JobId::new(0)], CpuMhz::ZERO);
        // Job1: guarantee 3000 (already at cap).
        assert_eq!(js[&JobId::new(1)], CpuMhz::new(3000.0));
    }

    #[test]
    fn water_fill_respects_unequal_headroom() {
        // Three jobs, guarantees 0, caps 1000/2000/3000; node 4500.
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs.insert(JobId::new(i), (NodeId::new(0), CpuMhz::ZERO));
        }
        let mut caps_map = BTreeMap::new();
        caps_map.insert(JobId::new(0), CpuMhz::new(1000.0));
        caps_map.insert(JobId::new(1), CpuMhz::new(2000.0));
        caps_map.insert(JobId::new(2), CpuMhz::new(3000.0));
        let (js, _) = effective_speeds(&nodes(1, 4500.0), &p, &caps_map, &BTreeSet::new(), false);
        // Equal-share rounds: 1500 each → job0 capped at 1000, its 500
        // splits 250/250 → job1 1750, job2 1750.
        assert_eq!(js[&JobId::new(0)], CpuMhz::new(1000.0));
        assert!(js[&JobId::new(1)].approx_eq(CpuMhz::new(1750.0), 1e-6));
        assert!(js[&JobId::new(2)].approx_eq(CpuMhz::new(1750.0), 1e-6));
    }

    #[test]
    fn app_spans_nodes_and_aggregates() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(4000.0));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(1), CpuMhz::new(6000.0));
        let (_, asp) = effective_speeds(
            &nodes(2, 12_000.0),
            &p,
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        // Each node's full spare flows to the only instance there.
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(24_000.0));
    }

    #[test]
    fn zero_guarantee_instances_split_spare_evenly() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        p.apps
            .entry(AppId::new(1))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        let (_, asp) = effective_speeds(
            &nodes(1, 8000.0),
            &p,
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(4000.0));
        assert_eq!(asp[&AppId::new(1)], CpuMhz::new(4000.0));
    }

    #[test]
    fn empty_placement_produces_empty_maps() {
        let (js, asp) = effective_speeds(
            &nodes(3, 12_000.0),
            &Placement::empty(),
            &BTreeMap::new(),
            &BTreeSet::new(),
            false,
        );
        assert!(js.is_empty());
        assert!(asp.is_empty());
    }

    #[test]
    fn total_never_exceeds_node_capacity() {
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs
                .insert(JobId::new(i), (NodeId::new(0), CpuMhz::new(1000.0)));
        }
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(500.0));
        let (js, asp) = effective_speeds(
            &nodes(1, 6000.0),
            &p,
            &caps(&[0, 1, 2], 3000.0),
            &BTreeSet::new(),
            false,
        );
        let total: f64 = js.values().map(|c| c.as_f64()).sum::<f64>()
            + asp.values().map(|c| c.as_f64()).sum::<f64>();
        assert!(total <= 6000.0 + 1e-6, "{total}");
        assert!(total >= 6000.0 - 1e-6, "work-conserving: {total}");
    }

    impl NodeSpeeds {
        /// The re-index every enactment ran before a plan was applied as a
        /// delta, kept verbatim but for the field paths into the layout:
        /// the oracle of [`NodeSpeeds::update`].
        fn rebuild(
            &mut self,
            placement: &Placement,
            cap_of: impl Fn(JobId) -> Option<CpuMhz>,
            is_blocked: impl Fn(JobId) -> bool,
        ) {
            // Jobs: a counting sort by node position. The placement map
            // iterates in id order, so each node's range comes out id-sorted.
            self.plan.job_start.fill(0);
            for &(node, _) in placement.jobs.values() {
                if let Some(pos) = self.position(node) {
                    self.plan.job_start[pos + 1] += 1;
                }
            }
            prefix_sums(&mut self.plan.job_start, &mut self.cursor);
            let placed = self.plan.job_start[self.plan.job_start.len() - 1] as usize;
            let vacant = PlacedJob {
                id: JobId::new(u32::MAX),
                guarantee: CpuMhz::ZERO,
                cap: CpuMhz::ZERO,
                node: NONE,
                alive: false,
                blocked: false,
            };
            refill(&mut self.plan.jobs, placed, vacant);
            refill(&mut self.plan.job_speed, placed, CpuMhz::ZERO);
            let ids = placement.jobs.keys().next_back();
            refill(&mut self.job_slot, ids.map_or(0, |j| j.index() + 1), NONE);
            for (&id, &(node, guarantee)) in &placement.jobs {
                let Some(pos) = self.position(node) else {
                    continue;
                };
                let slot = self.cursor[pos];
                self.cursor[pos] += 1;
                self.plan.jobs[slot as usize] = PlacedJob {
                    id,
                    guarantee,
                    cap: cap_of(id).unwrap_or(guarantee),
                    node: pos as u32,
                    alive: true,
                    blocked: is_blocked(id),
                };
                self.job_slot[id.index()] = slot;
            }

            // Instances: grouped by application (the map's order), each
            // group put in node-position order.
            self.plan.app_ids.clear();
            self.plan.app_ids.reserve_exact(placement.apps.len());
            self.plan.app_start.clear();
            self.plan.app_start.reserve_exact(placement.apps.len() + 1);
            self.plan.slices.clear();
            self.plan
                .slices
                .reserve_exact(placement.apps.values().map(|m| m.len()).sum());
            for (&app, per_node) in &placement.apps {
                let begin = self.plan.slices.len();
                for (&node, &guarantee) in per_node {
                    if let Some(pos) = self.position(node) {
                        self.plan.slices.push(Slice {
                            guarantee,
                            delivered: guarantee,
                            node: pos as u32,
                            app: self.plan.app_ids.len() as u32,
                        });
                    }
                }
                if self.plan.slices.len() > begin {
                    self.plan.slices[begin..].sort_unstable_by_key(|s| s.node);
                    self.plan.app_ids.push(app);
                    self.plan.app_start.push(begin as u32);
                }
            }
            self.plan.app_start.push(self.plan.slices.len() as u32);

            // Per node, the indices of its instances: the same counting
            // sort. `slices` is in application order, so is a node's range.
            self.plan.slice_start.fill(0);
            for s in &self.plan.slices {
                self.plan.slice_start[s.node as usize + 1] += 1;
            }
            prefix_sums(&mut self.plan.slice_start, &mut self.cursor);
            refill(&mut self.plan.node_slices, self.plan.slices.len(), 0);
            for (i, s) in self.plan.slices.iter().enumerate() {
                let at = &mut self.cursor[s.node as usize];
                self.plan.node_slices[*at as usize] = i as u32;
                *at += 1;
            }

            // Every total is summed afresh by the next flush.
            refill(&mut self.app_speed, self.plan.app_ids.len(), CpuMhz::ZERO);
            refill(&mut self.app_is_stale, self.plan.app_ids.len(), true);
            self.stale_apps.clear();
            self.stale_apps.extend(0..self.plan.app_ids.len() as u32);
            self.mark_all_dirty();
        }
    }

    /// A job's maximum speed in the sweep: fixed by its id, as a spec's
    /// is (`None` now and then: the guarantee is the cap).
    fn sweep_cap(job: JobId) -> Option<CpuMhz> {
        [None, Some(1500.0), Some(3000.0), Some(6000.0)][job.index() % 4].map(CpuMhz::new)
    }

    /// Whether two maps hold the same keys and the same floats, bit for
    /// bit.
    fn same_map<K: Ord>(a: &BTreeMap<K, CpuMhz>, b: &BTreeMap<K, CpuMhz>) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.0 == y.0 && same_bits(*x.1, *y.1))
    }

    /// A grant one bit above or below `g`, never negative.
    fn last_bit(g: CpuMhz, up: bool) -> CpuMhz {
        let bits = g.as_f64().to_bits();
        if up || bits == 0 {
            CpuMhz::new(f64::from_bits(bits + 1))
        } else {
            CpuMhz::new(f64::from_bits(bits - 1))
        }
    }

    /// What sits on each listed node, as a set of `(job or application,
    /// grant bits)`: the mirror of what `update` compares.
    fn contents(nodes: &[NodeCapacity], placement: &Placement) -> Vec<Vec<(bool, u32, u64)>> {
        let mut on = vec![Vec::new(); nodes.len()];
        let pos = |node: NodeId| nodes.iter().position(|n| n.id == node);
        for (&job, &(node, g)) in &placement.jobs {
            if let Some(p) = pos(node) {
                on[p].push((true, job.index() as u32, g.as_f64().to_bits()));
            }
        }
        for (&app, per_node) in &placement.apps {
            for (&node, &g) in per_node {
                if let Some(p) = pos(node) {
                    on[p].push((false, app.index() as u32, g.as_f64().to_bits()));
                }
            }
        }
        on.iter_mut().for_each(|node| node.sort_unstable());
        on
    }

    /// Drive one patched index through the plan sequence seeded by
    /// `seed`, holding it after every flush to the verbatim `rebuild` and
    /// a flush of every node on a fresh index: job speeds, application
    /// totals and clip factors bit for bit, and after every outlook
    /// refresh the outlook to a full projection. Unless `mutant`, the
    /// nodes an update marks must be exactly the ones whose contents
    /// changed (plus those marked before); with `mutant`, a grant within
    /// a relative 1e-9 counts as unchanged, and only the floats can tell.
    fn patch_sweep(
        seed: u64,
        mutant: bool,
        tally: &mut BTreeMap<&'static str, u64>,
    ) -> Result<(), String> {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        let mut below = move |bound: u64| rng.next_u64() % bound;
        let mut count = |what: &'static str, n: u64| *tally.entry(what).or_default() += n;
        let n = 1 + below(9) as u32;
        let sparse = below(2) == 0;
        let mut nodes: Vec<NodeCapacity> = (0..n)
            .map(|k| NodeCapacity {
                id: NodeId::new(if sparse { 2 * k } else { k }),
                cpu: CpuMhz::new(2000.0 * (1 + below(8)) as f64),
                mem: MemMb::new(4096),
            })
            .collect();
        if below(2) == 0 {
            nodes.reverse();
        }
        // An id no list holds: entities there have no speed.
        let unlisted = NodeId::new(2 * n + 1);
        let ids: Vec<NodeId> = nodes.iter().map(|node| node.id).collect();
        let node_of = |roll: u64| match roll as usize % (n as usize + 1) {
            k if k < n as usize => ids[k],
            _ => unlisted,
        };
        let overbooked = below(2) == 0;
        let cap_apps = below(3) == 0;
        let draw_truth = |roll: u64| match roll % 4 {
            0 => 0.0,
            1 => 1e9,
            r => 1000.0 * (r * 3 + roll % 7) as f64,
        };
        let mut truths: Vec<f64> = (0..n).map(|_| draw_truth(below(1000))).collect();
        let grant = |roll: u64| CpuMhz::new(250.0 * (roll % 13) as f64 + (roll % 3) as f64 / 3.0);

        let mut placement = Placement::empty();
        let mut blocked: BTreeSet<JobId> = BTreeSet::new();
        let mut next_job = 0u32;
        let mut index = NodeSpeeds::new(&nodes);
        let update = |index: &mut NodeSpeeds,
                      from: &Placement,
                      to: &Placement,
                      blocked: &BTreeSet<JobId>| {
            let is_blocked = |j: JobId| blocked.contains(&j);
            if mutant {
                let near = |a: CpuMhz, b: CpuMhz| {
                    (a.as_f64() - b.as_f64()).abs() <= 1e-9 * a.as_f64().abs().max(1.0)
                };
                index.update_with(from, to, sweep_cap, is_blocked, near)
            } else {
                index.update(from, to, sweep_cap, is_blocked)
            }
        };
        let mut projected_after = 0u32;
        for step in 0..8 + below(16) {
            let before = contents(&nodes, &placement);
            let mut marked_before: BTreeSet<u32> = index.marked().iter().copied().collect();
            let mut refilled = 0;
            let what = match if step == 0 { 0 } else { below(8) } {
                // A new plan: most jobs and instances stay where they are.
                0..=2 => {
                    let mut next = placement.clone();
                    if below(6) > 0 {
                        for (&job, &(node, g)) in &placement.jobs {
                            match below(12) {
                                0 => {
                                    next.jobs.remove(&job);
                                    blocked.remove(&job);
                                    count("jobs left", 1);
                                }
                                1 => {
                                    // A migration pays a latency; a job
                                    // that stays on its node pays none.
                                    let to = node_of(below(64));
                                    next.jobs.insert(job, (to, grant(below(64))));
                                    if to != node && below(2) == 0 {
                                        blocked.insert(job);
                                    }
                                    count("jobs moved", 1);
                                }
                                2 => {
                                    next.jobs.insert(job, (node, last_bit(g, below(2) == 0)));
                                    count("job grants moved a last bit", 1);
                                }
                                3 => {
                                    next.jobs.insert(job, (node, grant(below(64))));
                                    count("job grants moved", 1);
                                }
                                _ => {}
                            }
                        }
                        for _ in 0..below(4) {
                            let job = JobId::new(next_job);
                            next_job += 1;
                            next.jobs
                                .insert(job, (node_of(below(64)), grant(below(64))));
                            if below(2) == 0 {
                                blocked.insert(job);
                            }
                            count("jobs arrived", 1);
                        }
                        // Now and then the instances stay on their nodes
                        // and only grants move.
                        let grants_only = below(3) == 0;
                        count(
                            "plans that kept every instance's node",
                            u64::from(grants_only),
                        );
                        for app in (0..3).map(AppId::new) {
                            let slices = next.apps.entry(app).or_default();
                            for node in (0..=n as u64).map(node_of) {
                                let held = slices.get(&node).copied();
                                let roll = match below(10) {
                                    0 if grants_only => 1 + below(2),
                                    r => r,
                                };
                                match (held, roll) {
                                    (Some(_), 0) => {
                                        slices.remove(&node);
                                        count("instances left", 1);
                                    }
                                    (Some(g), 1) => {
                                        slices.insert(node, last_bit(g, below(2) == 0));
                                        count("instance grants moved a last bit", 1);
                                    }
                                    (Some(_), 2) => {
                                        slices.insert(node, grant(below(64)));
                                        count("instance grants moved", 1);
                                    }
                                    (None, 0..=1) if !grants_only => {
                                        slices.insert(node, grant(below(64)));
                                        count("instances arrived", 1);
                                    }
                                    _ => {}
                                }
                            }
                        }
                        next.apps.retain(|_, slices| !slices.is_empty());
                    } else {
                        count("plans that changed nothing", 1);
                    }
                    let from = std::mem::replace(&mut placement, next);
                    refilled = update(&mut index, &from, &placement, &blocked);
                    "plan"
                }
                3 => {
                    let placed: Vec<JobId> = placement.jobs.keys().copied().collect();
                    let job = match placed.len() as u64 {
                        0 => JobId::new(next_job + 7),
                        k => placed[below(k) as usize],
                    };
                    placement.jobs.remove(&job);
                    blocked.remove(&job);
                    index.complete_job(job);
                    "completion"
                }
                4 => {
                    let pool: Vec<JobId> = blocked.iter().copied().collect();
                    if !pool.is_empty() {
                        let job = pool[below(pool.len() as u64) as usize];
                        blocked.remove(&job);
                        index.unblock(job);
                    }
                    "unblock"
                }
                5 if overbooked => {
                    for (pos, truth) in truths.iter_mut().enumerate() {
                        if below(2) == 0 {
                            let drawn = draw_truth(below(1000));
                            if drawn.to_bits() != truth.to_bits() {
                                *truth = drawn;
                                index.mark_flush(pos);
                            }
                        }
                    }
                    "bite re-draw"
                }
                6 => {
                    for (pos, node) in nodes.iter_mut().enumerate() {
                        if below(3) == 0 {
                            node.cpu = CpuMhz::new(2000.0 * below(9) as f64);
                            index.mark(pos);
                        }
                    }
                    "capacity boundary"
                }
                7 => {
                    // An outage: the node goes down and is stripped.
                    let pos = below(n as u64) as usize;
                    let down = nodes[pos].id;
                    nodes[pos].cpu = CpuMhz::ZERO;
                    index.mark(pos);
                    marked_before.insert(pos as u32);
                    let from = placement.clone();
                    let victims: Vec<JobId> = placement
                        .jobs
                        .iter()
                        .filter(|&(_, &(node, _))| node == down)
                        .map(|(&job, _)| job)
                        .collect();
                    for job in victims {
                        placement.jobs.remove(&job);
                        blocked.remove(&job);
                    }
                    for slices in placement.apps.values_mut() {
                        slices.remove(&down);
                    }
                    placement.apps.retain(|_, slices| !slices.is_empty());
                    refilled = update(&mut index, &from, &placement, &blocked);
                    "outage strip"
                }
                _ => "nothing",
            };
            count(what, 1);

            if !mutant && (what == "plan" || what == "outage strip") {
                let after = contents(&nodes, &placement);
                let changed: BTreeSet<u32> = (0..n)
                    .filter(|&p| before[p as usize] != after[p as usize])
                    .collect();
                let marked: BTreeSet<u32> = index.marked().iter().copied().collect();
                let expected: BTreeSet<u32> = changed.union(&marked_before).copied().collect();
                if marked != expected || refilled != changed.len() {
                    return Err(format!(
                        "step {step} ({what}): marked {marked:?}, {refilled} refilled, changed \
                         {changed:?}, before {marked_before:?}"
                    ));
                }
                count("nodes carried over", u64::from(n) - changed.len() as u64);
                count("nodes refilled", changed.len() as u64);
            }

            let truth_of = |pos: usize| overbooked.then(|| truths[pos]);
            let mut oracle = NodeSpeeds::new(&nodes);
            oracle.rebuild(&placement, sweep_cap, |j| blocked.contains(&j));
            projected_after += 1;
            if what == "plan" || below(4) == 0 {
                let mut full = Projection::default();
                oracle.project(&nodes, false, |_| None, &mut full);
                index.project_outlook(&nodes);
                for job in (0..next_job + 8).map(JobId::new) {
                    let (kept, want) = (index.outlook_speed(job), full.job_speed(&oracle, job));
                    if !same_bits(kept, want) {
                        return Err(format!(
                            "step {step} ({what}): outlook of {job} {kept:?}, projected {want:?}"
                        ));
                    }
                }
                count("outlook refreshes", 1);
                if projected_after > 1 {
                    count("outlook refreshes over several flushes", 1);
                }
                projected_after = 0;
            }

            index.flush(&nodes, cap_apps, truth_of);
            oracle.flush(&nodes, cap_apps, truth_of);
            let (kept, want) = (index.to_maps(), oracle.to_maps());
            if !same_map(&kept.0, &want.0) || !same_map(&kept.1, &want.1) {
                return Err(format!(
                    "step {step} ({what}): kept {kept:?}, rebuilt {want:?}"
                ));
            }
            if !index
                .clip
                .iter()
                .zip(&oracle.clip)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                return Err(format!(
                    "step {step} ({what}): clip {:?}, rebuilt {:?}",
                    index.clip, oracle.clip
                ));
            }
            count("flushes compared", 1);
            count(
                "clipped nodes compared",
                oracle.clip.iter().filter(|&&f| f != 1.0).count() as u64,
            );
            count("jobs compared", want.0.len() as u64);
        }
        count("worlds", 1);
        Ok(())
    }

    /// `update` against the verbatim `rebuild` + a flush of every node
    /// over 2 000 seeded plan sequences, bit for bit, with a printed tally
    /// under floors; then the mutation that leaves a node whose only
    /// change is a grant's last bit unmarked, which the floats must catch.
    #[test]
    fn patching_equals_a_rebuild_over_seeded_plans() {
        let mut tally = BTreeMap::new();
        for seed in 0..2000 {
            if let Err(caught) = patch_sweep(seed, false, &mut tally) {
                panic!("seed {seed}: {caught}");
            }
        }
        let caught = (0..2000)
            .filter(|&seed| patch_sweep(seed, true, &mut BTreeMap::new()).is_err())
            .count() as u64;
        tally.insert("worlds that catch a last-bit grant left unmarked", caught);
        println!("patching ≡ rebuild: {tally:?}");
        for (what, floor) in [
            ("worlds", 2000),
            ("plan", 8000),
            ("plans that changed nothing", 1400),
            ("plans that kept every instance's node", 2300),
            ("jobs arrived", 10_000),
            ("jobs left", 1500),
            ("jobs moved", 1500),
            ("job grants moved a last bit", 1500),
            ("job grants moved", 1500),
            ("instances arrived", 17_000),
            ("instances left", 2000),
            ("instance grants moved a last bit", 3500),
            ("instance grants moved", 3500),
            ("completion", 2400),
            ("unblock", 2400),
            ("bite re-draw", 1200),
            ("capacity boundary", 2400),
            ("outage strip", 2400),
            ("nodes carried over", 28_000),
            ("nodes refilled", 25_000),
            ("outlook refreshes", 11_000),
            ("outlook refreshes over several flushes", 4400),
            ("flushes compared", 20_000),
            ("jobs compared", 50_000),
            ("clipped nodes compared", 9000),
            ("worlds that catch a last-bit grant left unmarked", 350),
        ] {
            let seen = tally.get(what).copied().unwrap_or(0);
            assert!(seen >= floor, "{what}: {seen} under {floor}");
        }
    }
}
