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
//! one [`NodeSpeeds`] alive — the placement grouped by node (each node's
//! jobs, with their speeds, and its instances in `Vec`s of its own), the
//! application totals and a set of out-of-date nodes. A new plan is
//! applied as a delta: one merge of the outgoing plan and the new one
//! (`NodeSpeeds::merge`) finds the change list, the entries that
//! entered and the nodes that changed, and `NodeSpeeds::apply`
//! rebuilds and marks those nodes only ([`NodeSpeeds::update`] is the
//! two in one). [`NodeSpeeds::flush`] re-runs the kernel only on the
//! nodes an event marked, and the event loop reads the tables directly
//! ([`NodeSpeeds::job_speed`], [`NodeSpeeds::app_speed`]). A what-if
//! about the same placement is the same kernel with other switches: the
//! speeds with nobody blocked and no clip are kept beside the tables and
//! re-run on the nodes marked since the last call
//! ([`NodeSpeeds::project_outlook`]); the clip factors before the flush
//! that will compute them are a pass over every node into a
//! [`Projection`] ([`NodeSpeeds::project`]), the index untouched. The
//! one-shot [`effective_speeds`] is the same kernel run on every node of
//! a freshly built index, kept as the oracle of all three; there is no
//! second implementation.

use slaq_placement::problem::NodeCapacity;
use slaq_placement::{Placement, PlacementChange};
use slaq_types::{AppId, CpuMhz, JobId, MemMb, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// "No entry" in the dense `u32` tables …
const NONE: u32 = u32::MAX;
/// … and in the job slot table.
const VACANT: (u32, u32) = (NONE, 0);

/// One job of the placement, as its node sees it.
#[derive(Debug, Clone, Copy)]
struct PlacedJob {
    id: JobId,
    guarantee: CpuMhz,
    /// Maximum speed (the guarantee itself for a job without a cap).
    cap: CpuMhz,
    /// Paying a start/resume/migration latency: runs at zero speed and
    /// its guarantee joins the node's spare pool.
    blocked: bool,
    /// Its effective speed as of the last flush.
    speed: CpuMhz,
    /// Its outlook: the speed with nobody blocked and nothing clipped, as
    /// of the last [`NodeSpeeds::project_outlook`].
    outlook: CpuMhz,
}

/// One application instance of the placement, as its node sees it.
#[derive(Debug, Clone, Copy)]
struct Slice {
    app: AppId,
    guarantee: CpuMhz,
    /// What the instance receives: the guarantee plus its share of the
    /// node's leftover spare (none when allocations are limits).
    delivered: CpuMhz,
}

/// The entry of a dense table at `index`, if it has one.
fn entry(table: &[u32], index: usize) -> Option<usize> {
    match table.get(index) {
        Some(&at) if at != NONE => Some(at as usize),
        _ => None,
    }
}

/// Make `v` a copy of `from`, growing its buffer to fit and no further:
/// every node keeps its own few entries, so amortised doubling would
/// only hold memory.
fn refill<T: Copy>(v: &mut Vec<T>, from: &[T]) {
    v.clear();
    v.reserve_exact(from.len());
    v.extend_from_slice(from);
}

/// The per-node kernel's water-fill scratch, reused from node to node,
/// and the speeds of its last node.
#[derive(Debug, Default)]
struct Kernel {
    /// `(index among the node's jobs, speed, cap)` of the node's runnable
    /// jobs …
    runnable: Vec<(usize, CpuMhz, CpuMhz)>,
    /// … and the positions in `runnable` still below their cap.
    open: Vec<usize>,
    /// The speeds of the last node's jobs, in their order.
    speeds: Vec<CpuMhz>,
}
impl Kernel {
    /// Share one node's `cpu` among its `jobs` (id order) and its
    /// instances' `guarantees` (application order), then clip the node to
    /// `truth`: the speed of every job goes into `self.speeds` (parallel
    /// to `jobs`), and the node's clip factor and the spare left for its
    /// instances come back. A blocked job runs at zero and its guarantee
    /// is spare while `honour_blocked`; otherwise it runs like any other.
    fn share(
        &mut self,
        jobs: &[PlacedJob],
        guarantees: impl Iterator<Item = CpuMhz> + Clone,
        cpu: CpuMhz,
        honour_blocked: bool,
        truth: Option<f64>,
    ) -> (f64, CpuMhz) {
        let mut used = CpuMhz::ZERO;
        // Guarantees (blocked jobs run at zero; their share is spare).
        self.runnable.clear();
        self.speeds.clear();
        self.speeds.resize(jobs.len(), CpuMhz::ZERO);
        for (i, pj) in jobs.iter().enumerate() {
            if pj.blocked && honour_blocked {
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
            self.speeds[i] = s * factor;
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

/// What one node holds of the placement in force, each in its own
/// `Vec`: its live jobs in id order, each with its speed and outlook, and
/// its instances in application order.
#[derive(Debug, Default)]
struct OnNode {
    jobs: Vec<PlacedJob>,
    slices: Vec<Slice>,
}

/// The placement in force grouped by node, and per application the nodes
/// that host it.
#[derive(Debug)]
struct Layout {
    /// Node position → what it holds.
    nodes: Vec<OnNode>,
    /// [`AppId::index`] → the positions of the nodes hosting it,
    /// ascending: the order its total is summed in.
    hosts: Vec<Vec<u32>>,
}

impl Layout {
    /// An empty layout over `nodes` positions.
    fn new(nodes: usize) -> Self {
        Layout {
            nodes: std::iter::repeat_with(OnNode::default)
                .take(nodes)
                .collect(),
            hosts: Vec::new(),
        }
    }

    /// The instance of `app` on the node at `pos`, which hosts it.
    fn instance(&self, app: AppId, pos: u32) -> &Slice {
        let on_node = &self.nodes[pos as usize].slices;
        on_node
            .iter()
            .find(|s| s.app == app)
            .expect("a host holds its instance")
    }
}

/// What a plan does to one entry (a job or an instance) on one listed
/// node.
#[derive(Debug, Clone, Copy)]
enum Edit {
    /// It leaves the node (stopped, suspended or moved away).
    Leaves,
    /// It stays at another grant.
    Regrants(CpuMhz),
    /// It arrives (started, resumed or moved here).
    Enters(CpuMhz),
}

/// One [`Edit`] of the entry `key` on a node, in 16 bytes: the node's
/// position and the kind of edit share a word (the kind in the low two
/// bits, so a node list holds fewer than 2³⁰ nodes).
#[derive(Debug, Clone, Copy)]
struct NodeEdit<K> {
    word: u32,
    key: K,
    grant: CpuMhz,
}

impl<K> NodeEdit<K> {
    fn new(pos: usize, key: K, edit: Edit) -> Self {
        let (kind, grant) = match edit {
            Edit::Leaves => (0, CpuMhz::ZERO),
            Edit::Regrants(g) => (1, g),
            Edit::Enters(g) => (2, g),
        };
        NodeEdit {
            word: (pos as u32) << 2 | kind,
            key,
            grant,
        }
    }

    /// The position of the node.
    fn pos(&self) -> u32 {
        self.word >> 2
    }

    /// What the edit does.
    fn edit(&self) -> Edit {
        match self.word & 3 {
            0 => Edit::Leaves,
            1 => Edit::Regrants(self.grant),
            _ => Edit::Enters(self.grant),
        }
    }
}

/// A node the merge found changed.
#[derive(Debug, Clone, Copy)]
struct Changed {
    pos: u32,
    /// How many job and instance edits it has.
    jobs: u32,
    slices: u32,
}

impl Changed {
    /// The entry of the node at `pos` in `nodes`, added when `node_at`
    /// (position → index in `nodes`) has none yet.
    fn at<'a>(node_at: &mut [u32], nodes: &'a mut Vec<Changed>, pos: u32) -> &'a mut Changed {
        let at = &mut node_at[pos as usize];
        if *at == NONE {
            *at = nodes.len() as u32;
            nodes.push(Changed {
                pos,
                jobs: 0,
                slices: 0,
            });
        }
        &mut nodes[*at as usize]
    }
}

/// What one merge of the outgoing plan and the new one found: read by
/// the enactment between [`NodeSpeeds::merge`] and [`NodeSpeeds::apply`],
/// kept from plan to plan so its buffers are reused: they stay at the
/// size of the largest plan merged.
#[derive(Debug, Default)]
struct Merge {
    /// [`Placement::diff`]'s change list, in its order.
    changes: Vec<PlacementChange>,
    /// The instance stops and job suspends, held back until the starts
    /// are listed.
    held_back: Vec<PlacementChange>,
    /// The job edits on listed nodes, by node position, then id.
    jobs: Vec<NodeEdit<JobId>>,
    /// The instance edits on listed nodes, by node position, then
    /// application.
    slices: Vec<NodeEdit<AppId>>,
    /// Whether an entry entered or was re-granted on an unlisted node.
    unlisted: bool,
    /// The nodes with an edit, by position.
    nodes: Vec<Changed>,
    /// The merge's scratch: node position → index in `nodes` (`NONE`
    /// between merges), each node's next job and instance edit, and the
    /// edits before they are grouped.
    node_at: Vec<u32>,
    cursors: Vec<(u32, u32)>,
    held_jobs: Vec<NodeEdit<JobId>>,
    held_slices: Vec<NodeEdit<AppId>>,
}

impl Merge {
    /// Each changed node's position with its job and instance edits, in
    /// position order.
    fn per_node(
        &self,
    ) -> impl Iterator<Item = (Changed, &[NodeEdit<JobId>], &[NodeEdit<AppId>])> + '_ {
        let (mut jobs, mut slices) = (&self.jobs[..], &self.slices[..]);
        self.nodes.iter().map(move |&node| {
            let (here, rest) = jobs.split_at(node.jobs as usize);
            jobs = rest;
            let (apps, rest) = slices.split_at(node.slices as usize);
            slices = rest;
            (node, here, apps)
        })
    }
}

/// Visit what a changed node holds under the new plan, in key order:
/// each entry of `held` (ascending by key) that no edit touches as `Ok`,
/// and as `Err((key, grant))` each entry an edit re-grants or brings in.
/// `edits` are the node's own, ascending by key.
fn merge_node<T, K: Ord + Copy>(
    held: &[T],
    key_of: impl Fn(&T) -> K,
    edits: &[NodeEdit<K>],
    mut visit: impl FnMut(Result<&T, (K, CpuMhz)>),
) {
    let mut edits = edits.iter().peekable();
    let granted = |e: &NodeEdit<K>| match e.edit() {
        Edit::Leaves => None,
        Edit::Regrants(g) | Edit::Enters(g) => Some((e.key, g)),
    };
    for entry in held {
        let key = key_of(entry);
        while let Some(e) = edits.next_if(|e| e.key < key) {
            if let Some(x) = granted(e) {
                visit(Err(x));
            }
        }
        match edits.next_if(|e| e.key == key) {
            Some(e) => {
                if let Some(x) = granted(e) {
                    visit(Err(x));
                }
            }
            None => visit(Ok(entry)),
        }
    }
    for e in edits {
        if let Some(x) = granted(e) {
            visit(Err(x));
        }
    }
}

/// Group `edits` by node, each node's in their order: `node_at` maps a
/// position to its node's index in `cursors`, and `cursor` picks the
/// node's next free place for this kind of edit. `held` is scratch.
fn scatter<K: Copy>(
    edits: &mut [NodeEdit<K>],
    held: &mut Vec<NodeEdit<K>>,
    node_at: &[u32],
    cursors: &mut [(u32, u32)],
    cursor: impl Fn(&mut (u32, u32)) -> &mut u32,
) {
    held.clear();
    held.extend_from_slice(edits);
    for e in held.iter() {
        let next = cursor(&mut cursors[node_at[e.pos() as usize] as usize]);
        edits[*next as usize] = *e;
        *next += 1;
    }
}

/// Whether two grants are the same float, bit for bit.
fn same_bits(a: CpuMhz, b: CpuMhz) -> bool {
    a.as_f64().to_bits() == b.as_f64().to_bits()
}

/// Note `edit` of `key` on the node at `pos`; one that brings an entry
/// to an unlisted node (`None`) has no speed, and is noted for the
/// enactment's checks.
fn note<K>(
    edits: &mut Vec<NodeEdit<K>>,
    unlisted: &mut bool,
    pos: Option<usize>,
    key: K,
    edit: Edit,
) {
    match pos {
        Some(pos) => edits.push(NodeEdit::new(pos, key, edit)),
        None => *unlisted |= !matches!(edit, Edit::Leaves),
    }
}

/// The placement grouped by node, the effective speeds it yields, and
/// the set of nodes whose speeds are out of date.
///
/// Every enacted placement is applied as a delta: one merge of the
/// outgoing plan and the new one (`NodeSpeeds::merge`) lists what the
/// plan changed, and `NodeSpeeds::apply` re-lays out and marks only the
/// nodes whose jobs or instances it changed. Every node keeps its jobs
/// and its instances in `Vec`s of its own: a node that holds the same
/// live jobs and instances at the same grants keeps them, their speeds
/// and their outlook, a changed node has its `Vec`s rebuilt in place, and
/// nothing else moves. Every later change — a completion, an unblock
/// instant, a capacity boundary, a re-drawn bite — marks only the nodes
/// it touched, and [`NodeSpeeds::flush`] re-runs the per-node kernel on
/// exactly those. An application's cluster-wide total is never adjusted
/// by a difference (float addition does not associate): whenever one of
/// its instances changed or its delivered share changed bits, the total
/// is re-summed over all its instances in node order, so every float is
/// the one a from-scratch [`effective_speeds`] call computes. The same
/// holds for the overbooking clip: a node's factor is recomputed with the
/// node, and when it changed bits every application with an instance
/// there is re-summed.
///
/// Nodes are addressed by their *position* in the node list given to
/// [`NodeSpeeds::new`]. The id → position, id → slot and per-application
/// tables are dense by [`NodeId::index`] / [`JobId::index`] /
/// [`AppId::index`] (the cluster spec, the job manager and the scenario
/// number from zero).
#[derive(Debug)]
pub struct NodeSpeeds {
    /// The node list's ids, in order.
    node_ids: Vec<NodeId>,
    /// [`NodeId::index`] → position in the node list.
    node_pos: Vec<u32>,
    /// The placement in force, grouped by node.
    plan: Layout,
    /// [`JobId::index`] → a placed, uncompleted job's slot: its node's
    /// position and its index among that node's jobs ([`VACANT`]: none).
    job_slot: Vec<(u32, u32)>,
    /// [`AppId::index`] → cluster-wide delivered CPU, for an application
    /// with an instance on a listed node.
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
    /// Node positions marked since the last
    /// [`NodeSpeeds::clear_unchecked`], likewise.
    unchecked: Vec<u32>,
    is_unchecked: Vec<bool>,
    /// [`AppId::index`]es whose total must be re-summed, likewise.
    stale_apps: Vec<u32>,
    app_is_stale: Vec<bool>,
    /// The per-node kernel's scratch.
    kernel: Kernel,
    /// What the last merge found.
    merge: Merge,
    /// `apply`'s scratch: one changed node's entries as the new plan has
    /// them, before they replace its own, and the applications whose hosts
    /// changed.
    next_jobs: Vec<PlacedJob>,
    next_slices: Vec<Slice>,
    moved_apps: Vec<AppId>,
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
            debug_assert!(pos < 1 << 30, "a node list of 2³⁰ nodes");
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
            unchecked: Vec::new(),
            is_unchecked: vec![false; n],
            stale_apps: Vec::new(),
            app_is_stale: Vec::new(),
            kernel: Kernel::default(),
            merge: Merge {
                node_at: vec![NONE; n],
                ..Merge::default()
            },
            next_jobs: Vec::new(),
            next_slices: Vec::new(),
            moved_apps: Vec::new(),
        }
    }

    /// Position of `node` in the node list, if it is listed.
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        entry(&self.node_pos, node.index())
    }

    /// The position of a placed, uncompleted job's node and the job's
    /// index among the node's jobs.
    fn find(&self, job: JobId) -> Option<(usize, usize)> {
        match self.job_slot.get(job.index()) {
            Some(&(pos, at)) if pos != NONE => Some((pos as usize, at as usize)),
            _ => None,
        }
    }

    /// The placed, uncompleted `job`.
    fn job(&self, job: JobId) -> Option<&PlacedJob> {
        self.find(job)
            .map(|(pos, at)| &self.plan.nodes[pos].jobs[at])
    }

    /// Point the slots of the jobs on the node at `pos`, from index
    /// `from` on, at where they now sit.
    fn point_slots(&mut self, pos: usize, from: usize) {
        for (at, job) in self.plan.nodes[pos].jobs.iter().enumerate().skip(from) {
            self.job_slot[job.id.index()] = (pos as u32, at as u32);
        }
    }

    /// Mark the node at `pos` out of date, for the next flush, the next
    /// outlook and the next enactment's checks alike.
    pub fn mark(&mut self, pos: usize) {
        self.mark_flush(pos);
        if !self.is_unprojected[pos] {
            self.is_unprojected[pos] = true;
            self.unprojected.push(pos as u32);
        }
        if !self.is_unchecked[pos] {
            self.is_unchecked[pos] = true;
            self.unchecked.push(pos as u32);
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

    /// The positions of the nodes marked ([`NodeSpeeds::mark`]) since the
    /// last [`NodeSpeeds::clear_unchecked`]: a node whose contents (a
    /// plan or a strip changed them, a job completed there) or
    /// advertised capacity moved since. The enactment re-checks their
    /// totals and clears the list once a plan is in force.
    pub(crate) fn unchecked(&self) -> &[u32] {
        &self.unchecked
    }

    /// Empty [`NodeSpeeds::unchecked`].
    pub(crate) fn clear_unchecked(&mut self) {
        for &pos in &self.unchecked {
            self.is_unchecked[pos as usize] = false;
        }
        self.unchecked.clear();
    }

    /// Apply the plan `to`, which replaced `from`, as a delta:
    /// `NodeSpeeds::merge` then `NodeSpeeds::apply`. Returns how many
    /// nodes changed.
    pub fn update(
        &mut self,
        from: &Placement,
        to: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
    ) -> usize {
        self.merge(from, to);
        self.apply(to, cap_of, is_blocked).0
    }

    /// Merge `from`, what the index holds (the plan it was last brought
    /// to, less the jobs completed since), with `to`, the plan that
    /// replaces it: both plans' applications and jobs in id order, side
    /// by side, in one pass. What it finds is kept until the next merge
    /// and nothing else of the index moves: [`Placement::diff`]'s change
    /// list ([`NodeSpeeds::changes`]); each entry on a listed node that
    /// leaves it, enters it or stays at another grant (bit for bit); and
    /// so the nodes whose live jobs (ids and grants) or instances
    /// (applications and grants) differ. Entities on nodes outside the
    /// node list have no speed and are left out, but one that enters
    /// there is noted ([`NodeSpeeds::entered_pass`]).
    pub(crate) fn merge(&mut self, from: &Placement, to: &Placement) {
        debug_assert!(
            self.holds(from),
            "the index does not hold the plan it is merged from"
        );
        self.merge_with(from, to, same_bits);
    }

    /// [`NodeSpeeds::merge`] with the grant comparison `same` (bit
    /// equality in every caller but a mutation check).
    fn merge_with(
        &mut self,
        from: &Placement,
        to: &Placement,
        same: impl Fn(CpuMhz, CpuMhz) -> bool,
    ) {
        let node_pos = &self.node_pos;
        let listed = |node: NodeId| entry(node_pos, node.index());
        let Merge {
            changes,
            held_back,
            jobs,
            slices,
            unlisted,
            nodes,
            node_at,
            cursors,
            held_jobs,
            held_slices,
        } = &mut self.merge;
        changes.clear();
        held_back.clear();
        jobs.clear();
        slices.clear();
        *unlisted = false;

        // Instances: each application's two node maps side by side. A
        // start is listed as it is met, a stop held back: `diff` lists
        // every start before the first stop.
        let mut stop = |app: AppId, node: NodeId, slices: &mut Vec<_>, unlisted: &mut bool| {
            held_back.push(PlacementChange::StopInstance { app, node });
            note(slices, unlisted, listed(node), app, Edit::Leaves);
        };
        let mut was = from.apps.iter().peekable();
        for (&app, per_node) in &to.apps {
            while let Some((&gone, old)) = was.next_if(|&(&a, _)| a < app) {
                for &node in old.keys() {
                    stop(gone, node, slices, unlisted);
                }
            }
            let old = was.next_if(|&(&a, _)| a == app).map(|(_, old)| old);
            let mut prev = old.into_iter().flat_map(|old| old.iter()).peekable();
            for (&node, &g) in per_node {
                while let Some((&gone, _)) = prev.next_if(|&(&n, _)| n < node) {
                    stop(app, gone, slices, unlisted);
                }
                let edit = match prev.next_if(|&(&n, _)| n == node) {
                    Some((_, &g0)) if same(g0, g) => continue,
                    Some(_) => Edit::Regrants(g),
                    None => {
                        changes.push(PlacementChange::StartInstance { app, node });
                        Edit::Enters(g)
                    }
                };
                note(slices, unlisted, listed(node), app, edit);
            }
            for (&gone, _) in prev {
                stop(app, gone, slices, unlisted);
            }
        }
        for (&gone, old) in was {
            for &node in old.keys() {
                stop(gone, node, slices, unlisted);
            }
        }
        changes.append(held_back);

        // Jobs: a start or a migration is listed as it is met, a suspend
        // held back. A job kept at its node and grant is not edited; a
        // migration leaves one node and enters another.
        let mut was = from.jobs.iter().peekable();
        for (&id, &(node, g)) in &to.jobs {
            while let Some((&gone, &(on, _))) = was.next_if(|&(&old, _)| old < id) {
                held_back.push(PlacementChange::SuspendJob {
                    job: gone,
                    node: on,
                });
                note(jobs, unlisted, listed(on), gone, Edit::Leaves);
            }
            match was.next_if(|&(&old, _)| old == id) {
                Some((_, &(on, g0))) if on == node => {
                    if !same(g0, g) {
                        note(jobs, unlisted, listed(node), id, Edit::Regrants(g));
                    }
                }
                Some((_, &(on, _))) => {
                    changes.push(PlacementChange::MigrateJob {
                        job: id,
                        from: on,
                        to: node,
                    });
                    note(jobs, unlisted, listed(on), id, Edit::Leaves);
                    note(jobs, unlisted, listed(node), id, Edit::Enters(g));
                }
                None => {
                    changes.push(PlacementChange::StartJob { job: id, node });
                    note(jobs, unlisted, listed(node), id, Edit::Enters(g));
                }
            }
        }
        for (&gone, &(on, _)) in was {
            held_back.push(PlacementChange::SuspendJob {
                job: gone,
                node: on,
            });
            note(jobs, unlisted, listed(on), gone, Edit::Leaves);
        }
        changes.append(held_back);

        // The edits by node: the nodes by position, each node's edits in
        // the order noted — jobs by id, instances by application.
        nodes.clear();
        for e in jobs.iter() {
            Changed::at(node_at, nodes, e.pos()).jobs += 1;
        }
        for e in slices.iter() {
            Changed::at(node_at, nodes, e.pos()).slices += 1;
        }
        nodes.sort_unstable_by_key(|node| node.pos);
        cursors.clear();
        let (mut j, mut s) = (0, 0);
        for (at, node) in nodes.iter().enumerate() {
            node_at[node.pos as usize] = at as u32;
            cursors.push((j, s));
            (j, s) = (j + node.jobs, s + node.slices);
        }
        scatter(jobs, held_jobs, node_at, cursors, |c| &mut c.0);
        scatter(slices, held_slices, node_at, cursors, |c| &mut c.1);
        for node in nodes.iter() {
            node_at[node.pos as usize] = NONE;
        }
    }

    /// How many nodes the last merge found changed.
    pub(crate) fn nodes_changed(&self) -> usize {
        self.merge.nodes.len()
    }

    /// The last merge's change list: [`Placement::diff`]'s, in its order.
    pub(crate) fn changes(&self) -> &[PlacementChange] {
        &self.merge.changes
    }

    /// Whether every entry the last merge found entering a node or
    /// re-granted there sits on a listed node at a grant of at least
    /// −1e-9, and `job_ok` holds for each such job: the per-entry checks
    /// of [`Placement::validate_with`] and of the enactment's liveness
    /// loop, asked only of what the plan changed.
    pub(crate) fn entered_pass(&self, job_ok: impl Fn(JobId) -> bool) -> bool {
        let granted = |edit: Edit| match edit {
            Edit::Leaves => None,
            Edit::Regrants(g) | Edit::Enters(g) => Some(g.as_f64() >= -1e-9),
        };
        !self.merge.unlisted
            && self
                .merge
                .slices
                .iter()
                .all(|e| granted(e.edit()) != Some(false))
            && self
                .merge
                .jobs
                .iter()
                .all(|e| granted(e.edit()).is_none_or(|fine| fine && job_ok(e.key)))
    }

    /// Whether each node the last merge changed, and each node at
    /// `recheck`, passes `fits(pos, cpu, mem)` with the CPU and memory the
    /// merged plan puts there, summed as [`Placement::validate_with`]
    /// sums them — from zero, the instances in application order, then
    /// the jobs in id order — so each float is the one it compares. A
    /// node nothing sits on is not asked, as there.
    pub(crate) fn loads_fit(
        &self,
        recheck: &[u32],
        app_mem: impl Fn(AppId) -> MemMb,
        job_mem: impl Fn(JobId) -> MemMb,
        fits: impl Fn(usize, CpuMhz, MemMb) -> bool,
    ) -> bool {
        let load = |pos: usize, jobs: &[NodeEdit<JobId>], slices: &[NodeEdit<AppId>]| {
            let (mut cpu, mut mem, mut any) = (CpuMhz::ZERO, MemMb::ZERO, false);
            let on_node = &self.plan.nodes[pos];
            merge_node(
                &on_node.slices,
                |s| s.app,
                slices,
                |s| {
                    let (app, g) = s.map_or_else(|entered| entered, |s| (s.app, s.guarantee));
                    cpu += g;
                    mem += app_mem(app);
                    any = true;
                },
            );
            merge_node(
                &on_node.jobs,
                |j| j.id,
                jobs,
                |j| {
                    let (id, g) = j.map_or_else(|entered| entered, |j| (j.id, j.guarantee));
                    cpu += g;
                    mem += job_mem(id);
                    any = true;
                },
            );
            !any || fits(pos, cpu, mem)
        };
        self.merge
            .per_node()
            .all(|(node, jobs, slices)| load(node.pos as usize, jobs, slices))
            && recheck.iter().all(|&pos| {
                let changed = self.merge.nodes.binary_search_by_key(&pos, |node| node.pos);
                changed.is_ok() || load(pos as usize, &[], &[])
            })
    }

    /// Re-lay out the nodes the last merge changed as `to`, the plan it
    /// merged into, has them, and mark them. A job that entered a node or
    /// changed its grant there is filled from `to` with `cap_of` (its
    /// maximum speed; `None`: its guarantee is its cap) and `is_blocked`
    /// (whether it is paying a placement latency right now), asked at
    /// this call, after the enactment moved the job's state. Every other
    /// job keeps its cap and its blocked flag, so a job kept at the same
    /// node and grant must keep them: a cap is its spec's, only a start
    /// or a migration (both move the job) blocks it, and
    /// [`NodeSpeeds::unblock`] must have been called for every latency
    /// that ran out — a `debug_assert!`. A node's jobs `Vec` is rebuilt
    /// in place when it has a job edit, its instances `Vec` when it has an
    /// instance edit; no other node's entries move. Each application with
    /// an instance edit is re-summed by the next flush. Returns how many
    /// nodes changed and how many jobs were written into the index: those
    /// of the nodes with a job edit.
    pub(crate) fn apply(
        &mut self,
        to: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
    ) -> (usize, usize) {
        let merge = std::mem::take(&mut self.merge);
        for e in &merge.jobs {
            if matches!(e.edit(), Edit::Leaves) {
                self.job_slot[e.key.index()] = VACANT;
            }
        }
        if let Some(last) = to.jobs.keys().next_back() {
            if self.job_slot.len() <= last.index() {
                self.job_slot.resize(last.index() + 1, VACANT);
            }
        }
        let apps = to.apps.keys().next_back().map_or(0, |app| app.index() + 1);
        if self.plan.hosts.len() < apps {
            self.plan.hosts.resize_with(apps, Vec::new);
            self.app_speed.resize(apps, CpuMhz::ZERO);
            self.app_is_stale.resize(apps, false);
        }

        // Jobs: each node with a job edit is laid out afresh from its jobs
        // and its edits, every speed zero until the next flush.
        let mut laid = 0;
        for (node, jobs, _) in merge.per_node().filter(|(_, jobs, _)| !jobs.is_empty()) {
            let pos = node.pos as usize;
            let on_node = &mut self.plan.nodes[pos];
            let next = &mut self.next_jobs;
            next.clear();
            merge_node(
                &on_node.jobs,
                |j| j.id,
                jobs,
                |j| {
                    next.push(match j {
                        Ok(&job) => PlacedJob {
                            speed: CpuMhz::ZERO,
                            outlook: CpuMhz::ZERO,
                            ..job
                        },
                        Err((id, guarantee)) => PlacedJob {
                            id,
                            guarantee,
                            cap: cap_of(id).unwrap_or(guarantee),
                            blocked: is_blocked(id),
                            speed: CpuMhz::ZERO,
                            outlook: CpuMhz::ZERO,
                        },
                    })
                },
            );
            refill(&mut on_node.jobs, next);
            laid += next.len();
            self.point_slots(pos, 0);
        }

        // Instances, likewise; every application with an edit is re-summed
        // by the next flush.
        self.moved_apps.clear();
        for (node, _, slices) in merge.per_node().filter(|(_, _, slices)| !slices.is_empty()) {
            for e in slices {
                let app = e.key.index();
                if !self.app_is_stale[app] {
                    self.app_is_stale[app] = true;
                    self.stale_apps.push(app as u32);
                }
                if !matches!(e.edit(), Edit::Regrants(_)) && !self.moved_apps.contains(&e.key) {
                    self.moved_apps.push(e.key);
                }
            }
            let on_node = &mut self.plan.nodes[node.pos as usize];
            let next = &mut self.next_slices;
            next.clear();
            merge_node(
                &on_node.slices,
                |s| s.app,
                slices,
                |s| {
                    next.push(match s {
                        Ok(&s) => s,
                        Err((app, g)) => Slice {
                            app,
                            guarantee: g,
                            delivered: g,
                        },
                    })
                },
            );
            refill(&mut on_node.slices, next);
        }
        // An application that gained or lost a host lists them afresh.
        for &app in &self.moved_apps {
            let hosts = &mut self.plan.hosts[app.index()];
            hosts.clear();
            if let Some(per_node) = to.apps.get(&app) {
                let node_pos = &self.node_pos;
                hosts.extend(
                    per_node
                        .keys()
                        .filter_map(|node| entry(node_pos, node.index()).map(|pos| pos as u32)),
                );
                hosts.sort_unstable();
            }
        }

        for node in &merge.nodes {
            self.mark(node.pos as usize);
        }
        debug_assert!(
            self.placed_jobs().all(|job| {
                same_bits(job.cap, cap_of(job.id).unwrap_or(job.guarantee))
                    && job.blocked == is_blocked(job.id)
            }),
            "a job kept at its node and grant changed its cap or blocked flag"
        );
        let changed = merge.nodes.len();
        self.merge = merge;
        (changed, laid)
    }

    /// The live jobs of the index, node by node.
    fn placed_jobs(&self) -> impl Iterator<Item = &PlacedJob> + '_ {
        self.plan.nodes.iter().flat_map(|on_node| &on_node.jobs)
    }

    /// Whether the jobs and the instances on listed nodes are the ones
    /// `placement` lists there, each node's in key order, each job's slot
    /// names where it sits, and each application's hosts are the listed
    /// nodes it has an instance on: what [`NodeSpeeds::merge`] requires of
    /// the plan it merges from.
    fn holds(&self, placement: &Placement) -> bool {
        let listed = |node: NodeId| self.position(node);
        let jobs = placement.jobs.iter().filter_map(|(&id, &(node, g))| {
            listed(node).map(|pos| (id, pos as u32, g.as_f64().to_bits()))
        });
        let nodes = || (0u32..).zip(&self.plan.nodes);
        let mut held: Vec<_> = nodes()
            .flat_map(|(pos, on_node)| {
                let bits = |job: &PlacedJob| job.guarantee.as_f64().to_bits();
                on_node.jobs.iter().map(move |job| (job.id, pos, bits(job)))
            })
            .collect();
        let ordered = nodes().all(|(pos, on_node)| {
            on_node.jobs.windows(2).all(|w| w[0].id < w[1].id)
                && on_node.slices.windows(2).all(|w| w[0].app < w[1].app)
                && (on_node.jobs.iter())
                    .enumerate()
                    .all(|(at, job)| self.find(job.id) == Some((pos as usize, at)))
        });
        let slots = self.job_slot.iter().filter(|&&slot| slot != VACANT).count() == held.len();
        held.sort_unstable();
        let slices = placement.apps.iter().flat_map(|(&app, per_node)| {
            per_node.iter().filter_map(move |(&node, &g)| {
                listed(node).map(|pos| (app, pos as u32, g.as_f64().to_bits()))
            })
        });
        let mut instances: Vec<_> = slices.collect();
        instances.sort_unstable();
        let mut kept: Vec<_> = nodes()
            .flat_map(|(pos, on_node)| {
                (on_node.slices.iter()).map(move |s| (s.app, pos, s.guarantee.as_f64().to_bits()))
            })
            .collect();
        kept.sort_unstable();
        let apps = placement
            .apps
            .keys()
            .next_back()
            .map_or(0, |app| app.index() + 1);
        let hosts = (0..apps.max(self.plan.hosts.len())).all(|at| {
            let mut want: Vec<u32> = instances
                .iter()
                .filter(|(app, ..)| app.index() == at)
                .map(|&(_, pos, _)| pos)
                .collect();
            want.sort_unstable();
            self.plan.hosts.get(at).map_or(&[][..], |h| &h[..]) == &want[..]
        });
        jobs.eq(held) && ordered && slots && instances == kept && hosts
    }

    /// `job` completed: it leaves its node, whose speeds are now out of
    /// date. A job the index does not hold marks nothing.
    pub fn complete_job(&mut self, job: JobId) {
        if let Some((pos, at)) = self.find(job) {
            self.plan.nodes[pos].jobs.remove(at);
            self.job_slot[job.index()] = VACANT;
            self.point_slots(pos, at);
            self.mark(pos);
        }
    }

    /// `job`'s placement latency ran out: it starts drawing CPU. A job
    /// that was not blocked marks nothing.
    pub fn unblock(&mut self, job: JobId) {
        if let Some((pos, at)) = self.find(job) {
            let placed = &mut self.plan.nodes[pos].jobs[at];
            if placed.blocked {
                placed.blocked = false;
                self.mark_flush(pos);
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
            let at = app as usize;
            self.app_is_stale[at] = false;
            let (app, hosts) = (AppId::new(app), &plan.hosts[at]);
            let clip_of = |pos: u32| self.clip[pos as usize];
            self.app_speed[at] = if hosts.iter().any(|&pos| clip_of(pos) != 1.0) {
                CpuMhz::new(
                    hosts
                        .iter()
                        .map(|&pos| plan.instance(app, pos).guarantee.as_f64() * clip_of(pos))
                        .sum(),
                )
            } else {
                let mut total = CpuMhz::ZERO;
                for &pos in hosts {
                    total += plan.instance(app, pos).delivered;
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
        let on_node = &mut self.plan.nodes[pos];
        let guarantees = on_node.slices.iter().map(|s| s.guarantee);
        let (factor, spare) = self
            .kernel
            .share(&on_node.jobs, guarantees, cpu, true, truth);
        for (job, &speed) in on_node.jobs.iter_mut().zip(&self.kernel.speeds) {
            job.speed = speed;
        }
        let clip_moved = factor.to_bits() != self.clip[pos].to_bits();
        self.clip[pos] = factor;

        // Remaining spare flows to transactional instances (unless the
        // controller's allocations are enforced as limits).
        let apps_here = &mut on_node.slices;
        let share_spare = !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9;
        let g_total: f64 = if share_spare {
            apps_here.iter().map(|s| s.guarantee.as_f64()).sum()
        } else {
            0.0
        };
        let count = apps_here.len();
        for s in apps_here {
            let delivered = if !share_spare {
                s.guarantee
            } else if g_total > 1e-9 {
                s.guarantee + spare * (s.guarantee.as_f64() / g_total)
            } else {
                s.guarantee + spare / count as f64
            };
            let moved = delivered.as_f64().to_bits() != s.delivered.as_f64().to_bits();
            s.delivered = delivered;
            let app = s.app.index();
            if (moved || clip_moved) && !self.app_is_stale[app] {
                self.app_is_stale[app] = true;
                self.stale_apps.push(app as u32);
            }
        }
    }

    /// Effective speed of `job` as of the last flush; zero for a job that
    /// is not placed on a listed node or has completed.
    pub fn job_speed(&self, job: JobId) -> CpuMhz {
        self.job(job).map_or(CpuMhz::ZERO, |job| job.speed)
    }

    /// The position of `job`'s node and the job's speed as of the last
    /// flush, for a placed, uncompleted job on a listed node.
    pub fn placed(&self, job: JobId) -> Option<(usize, CpuMhz)> {
        let (pos, at) = self.find(job)?;
        Some((pos, self.plan.nodes[pos].jobs[at].speed))
    }

    /// The live jobs on the node at `pos`, in id order, with their speeds
    /// as of the last flush.
    pub fn jobs_at(&self, pos: usize) -> impl Iterator<Item = (JobId, CpuMhz)> + '_ {
        let jobs = &self.plan.nodes[pos].jobs;
        jobs.iter().map(|job| (job.id, job.speed))
    }

    /// Cluster-wide delivered CPU of `app` as of the last flush; zero for
    /// an application without an instance on a listed node.
    pub fn app_speed(&self, app: AppId) -> CpuMhz {
        match self.plan.hosts.get(app.index()) {
            Some(hosts) if !hosts.is_empty() => self.app_speed[app.index()],
            _ => CpuMhz::ZERO,
        }
    }

    /// Whether a live job or an instance is placed on the node at `pos`:
    /// read off the index as `NodeSpeeds::apply` and
    /// [`NodeSpeeds::complete_job`] left it, flushed or not.
    pub fn hosts_anything(&self, pos: usize) -> bool {
        let on_node = &self.plan.nodes[pos];
        !on_node.jobs.is_empty() || !on_node.slices.is_empty()
    }

    /// Bring the outlook — every placed job's speed with nobody blocked
    /// and nothing clipped — up to date under the capacities `nodes`: the
    /// kernel re-runs on the nodes marked since the last call only, and
    /// nothing else of the index moves. Returns how many it re-ran on.
    /// `nodes` must be the capacities the flush is given: a node whose
    /// capacity moved is marked.
    pub fn project_outlook(&mut self, nodes: &[NodeCapacity]) -> usize {
        debug_assert_eq!(nodes.len(), self.node_ids.len());
        for &pos in &self.unprojected {
            let pos = pos as usize;
            debug_assert_eq!(nodes[pos].id, self.node_ids[pos]);
            self.is_unprojected[pos] = false;
            let on_node = &mut self.plan.nodes[pos];
            let guarantees = on_node.slices.iter().map(|s| s.guarantee);
            (self.kernel).share(&on_node.jobs, guarantees, nodes[pos].cpu, false, None);
            for (job, &speed) in on_node.jobs.iter_mut().zip(&self.kernel.speeds) {
                job.outlook = speed;
            }
        }
        let projected = self.unprojected.len();
        self.unprojected.clear();
        projected
    }

    /// The outlook speed of `job` as of the last
    /// [`NodeSpeeds::project_outlook`]; zero for a job that is not placed
    /// on a listed node or has completed.
    pub fn outlook_speed(&self, job: JobId) -> CpuMhz {
        self.job(job).map_or(CpuMhz::ZERO, |job| job.outlook)
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
        into.job_speed.clear();
        into.start.clear();
        into.start.reserve_exact(nodes.len());
        into.clip.clear();
        into.clip.reserve_exact(nodes.len());
        for (pos, (node, on_node)) in nodes.iter().zip(&self.plan.nodes).enumerate() {
            debug_assert_eq!(node.id, self.node_ids[pos]);
            let (factor, _) = into.kernel.share(
                &on_node.jobs,
                on_node.slices.iter().map(|s| s.guarantee),
                node.cpu,
                honour_blocked,
                truth_of(pos),
            );
            into.start.push(into.job_speed.len() as u32);
            into.job_speed.extend_from_slice(&into.kernel.speeds);
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
            .filter(|&(_, &slot)| slot != VACANT)
            .map(|(index, _)| JobId::new(index as u32))
            .map(|job| (job, self.job_speed(job)))
            .collect();
        let apps = (self.plan.hosts.iter().enumerate())
            .filter(|(_, hosts)| !hosts.is_empty())
            .map(|(at, _)| (AppId::new(at as u32), self.app_speed[at]))
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
    /// Projected speeds, node by node, each node's jobs in id order …
    job_speed: Vec<CpuMhz>,
    /// … and node position → where its speeds start.
    start: Vec<u32>,
    /// Node position → projected clip factor (`1.0`: unclipped).
    clip: Vec<f64>,
    kernel: Kernel,
}

impl Projection {
    /// Projected speed of `job`; zero for a job `index` does not hold
    /// (not placed on a listed node, or completed).
    pub fn job_speed(&self, index: &NodeSpeeds, job: JobId) -> CpuMhz {
        debug_assert_eq!(self.start.len(), index.node_ids.len(), "another index");
        index.find(job).map_or(CpuMhz::ZERO, |(pos, at)| {
            self.job_speed[self.start[pos] as usize + at]
        })
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

    /// An index holding `placement`, written from scratch without the
    /// merge, the edits or `apply`: each job and instance on a listed node
    /// pushed straight into its node's `Vec`s (the maps iterate by id, so
    /// a node's jobs come out in id order and its instances in application
    /// order), the slot table and each application's hosts, every node
    /// marked and every application with a host due for a re-sum. The
    /// oracle of the sweep.
    fn build(
        nodes: &[NodeCapacity],
        placement: &Placement,
        blocked: &BTreeSet<JobId>,
    ) -> NodeSpeeds {
        let mut index = NodeSpeeds::new(nodes);
        let ids = placement.jobs.keys().next_back();
        index.job_slot = vec![VACANT; ids.map_or(0, |j| j.index() + 1)];
        for (&id, &(node, guarantee)) in &placement.jobs {
            let Some(pos) = index.position(node) else {
                continue;
            };
            let on_node = &mut index.plan.nodes[pos].jobs;
            index.job_slot[id.index()] = (pos as u32, on_node.len() as u32);
            on_node.push(PlacedJob {
                id,
                guarantee,
                cap: sweep_cap(id).unwrap_or(guarantee),
                blocked: blocked.contains(&id),
                speed: CpuMhz::ZERO,
                outlook: CpuMhz::ZERO,
            });
        }

        let apps = placement
            .apps
            .keys()
            .next_back()
            .map_or(0, |a| a.index() + 1);
        index.plan.hosts = vec![Vec::new(); apps];
        for (&app, per_node) in &placement.apps {
            for (&node, &guarantee) in per_node {
                let Some(pos) = index.position(node) else {
                    continue;
                };
                index.plan.nodes[pos].slices.push(Slice {
                    app,
                    guarantee,
                    delivered: guarantee,
                });
                index.plan.hosts[app.index()].push(pos as u32);
            }
            index.plan.hosts[app.index()].sort_unstable();
        }
        index.app_speed = vec![CpuMhz::ZERO; apps];
        index.app_is_stale = vec![false; apps];
        for at in 0..apps {
            if !index.plan.hosts[at].is_empty() {
                index.app_is_stale[at] = true;
                index.stale_apps.push(at as u32);
            }
        }
        index.mark_all_dirty();
        index
    }

    /// What `index` holds node by node, for comparing two indexes: each
    /// node's live jobs in their order (id, grant bits, cap bits,
    /// blocked) and its instances in theirs (application, grant bits),
    /// then each application's hosts.
    #[allow(clippy::type_complexity)]
    fn held(
        index: &NodeSpeeds,
    ) -> (
        Vec<Vec<(JobId, u64, u64, bool)>>,
        Vec<Vec<(AppId, u64)>>,
        Vec<Vec<u32>>,
    ) {
        let bits = |g: CpuMhz| g.as_f64().to_bits();
        let plan = &index.plan;
        let jobs = (plan.nodes.iter())
            .map(|on_node| {
                (on_node.jobs.iter())
                    .map(|j| (j.id, bits(j.guarantee), bits(j.cap), j.blocked))
                    .collect()
            })
            .collect();
        let slices = (plan.nodes.iter())
            .map(|on_node| {
                (on_node.slices.iter())
                    .map(|s| (s.app, bits(s.guarantee)))
                    .collect()
            })
            .collect();
        let mut hosts: Vec<Vec<u32>> = plan.hosts.clone();
        while hosts.last().is_some_and(|h| h.is_empty()) {
            hosts.pop();
        }
        (jobs, slices, hosts)
    }

    /// A fresh index holding `placement`, every node marked: an update
    /// from the empty plan, which lays every node out once from empty
    /// where the patched index rebuilds the `Vec`s of the nodes a plan
    /// changed. Held to [`build`] beside the patched index.
    fn fresh(
        nodes: &[NodeCapacity],
        placement: &Placement,
        blocked: &BTreeSet<JobId>,
    ) -> NodeSpeeds {
        let mut index = NodeSpeeds::new(nodes);
        index.update(&Placement::empty(), placement, sweep_cap, |j| {
            blocked.contains(&j)
        });
        index.mark_all_dirty();
        index
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
    /// `seed`, holding it and a [`fresh`] index at every step to one
    /// [`build`] wrote: what each node holds, in order, and each
    /// application's hosts; after every flush of every node on the two
    /// oracles, job speeds, application totals and clip factors bit for
    /// bit; and after every outlook refresh the outlook to a full
    /// projection. Unless `mutant`, the nodes an update marks must be
    /// exactly the ones whose contents changed (plus those marked
    /// before); with `mutant`, a grant within a relative 1e-9 counts as
    /// unchanged, which the layout and the floats must catch.
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
                index.merge_with(from, to, near);
                index.apply(to, sweep_cap, is_blocked).0
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
            let mut oracle = build(&nodes, &placement, &blocked);
            let mut second = fresh(&nodes, &placement, &blocked);
            let want = held(&oracle);
            if held(&index) != want || held(&second) != want {
                return Err(format!(
                    "step {step} ({what}): patched {:?}, fresh {:?}, built {want:?}",
                    held(&index),
                    held(&second)
                ));
            }
            count("layouts compared", 1);
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
            second.flush(&nodes, cap_apps, truth_of);
            let want = oracle.to_maps();
            for (side, other) in [("kept", &index), ("fresh", &second)] {
                let got = other.to_maps();
                if !same_map(&got.0, &want.0) || !same_map(&got.1, &want.1) {
                    return Err(format!(
                        "step {step} ({what}): {side} {got:?}, built {want:?}"
                    ));
                }
                if !other
                    .clip
                    .iter()
                    .zip(&oracle.clip)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    return Err(format!(
                        "step {step} ({what}): {side} clip {:?}, built {:?}",
                        other.clip, oracle.clip
                    ));
                }
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

    /// `update`, and an update from the empty plan, against an index
    /// written from scratch ([`build`]) + a flush of every node over 2 000
    /// seeded plan sequences, layout and floats bit for bit, with a
    /// printed tally under floors; then the mutation that leaves a node
    /// whose only change is a grant's last bit unmarked, which must be
    /// caught.
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
            ("layouts compared", 20_000),
            ("jobs compared", 50_000),
            ("clipped nodes compared", 9000),
            ("worlds that catch a last-bit grant left unmarked", 1200),
        ] {
            let seen = tally.get(what).copied().unwrap_or(0);
            assert!(seen >= floor, "{what}: {seen} under {floor}");
        }
    }
}
