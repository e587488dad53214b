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
//! tables and a set of out-of-date nodes — [`NodeSpeeds::flush`] re-runs
//! the kernel only on the nodes an event marked, and the event loop reads
//! the tables directly ([`NodeSpeeds::job_speed`],
//! [`NodeSpeeds::app_speed`]). A what-if about the same placement — the
//! speeds with nobody blocked, the clip factors before the flush that
//! will compute them — is [`NodeSpeeds::project`]: the kernel run over
//! every node into a [`Projection`], the index untouched. The one-shot
//! [`effective_speeds`] is the same kernel run on every node of a freshly
//! built index, kept as the oracle of both; there is no second
//! implementation.

use slaq_placement::problem::NodeCapacity;
use slaq_placement::Placement;
use slaq_types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// "No entry" in the dense `u32` tables.
const NONE: u32 = u32::MAX;

/// One job of the placement, as its node sees it.
#[derive(Debug, Clone, Copy)]
struct PlacedJob {
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

/// The placement grouped by node, the effective speeds it yields, and
/// the set of nodes whose speeds are out of date.
///
/// Re-indexed once per enacted placement ([`NodeSpeeds::rebuild`]);
/// every later change — a completion, an unblock instant, a capacity
/// boundary — marks only the nodes it touched, and
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
    /// Placed jobs, grouped by node position, id order within a node.
    jobs: Vec<PlacedJob>,
    /// Node position → start of its range in `jobs` (`len + 1` entries).
    job_start: Vec<u32>,
    /// Effective speeds, parallel to `jobs`.
    job_speed: Vec<CpuMhz>,
    /// [`JobId::index`] → index into `jobs` of a placed, uncompleted job.
    job_slot: Vec<u32>,
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
    /// Application positions whose total must be re-summed, likewise.
    stale_apps: Vec<u32>,
    app_is_stale: Vec<bool>,
    /// The per-node kernel's scratch.
    kernel: Kernel,
    /// Counting-sort fill cursor, reused by `rebuild`.
    cursor: Vec<u32>,
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
            jobs: Vec::new(),
            job_start: vec![0; n + 1],
            job_speed: Vec::new(),
            job_slot: Vec::new(),
            app_ids: Vec::new(),
            slices: Vec::new(),
            app_start: vec![0],
            node_slices: Vec::new(),
            slice_start: vec![0; n + 1],
            app_speed: Vec::new(),
            clip: vec![1.0; n],
            dirty: Vec::new(),
            is_dirty: vec![false; n],
            stale_apps: Vec::new(),
            app_is_stale: Vec::new(),
            kernel: Kernel::default(),
            cursor: Vec::new(),
        }
    }

    /// Position of `node` in the node list, if it is listed.
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        entry(&self.node_pos, node.index())
    }

    /// The range in `jobs` of the node at `pos`.
    fn jobs_on(&self, pos: usize) -> std::ops::Range<usize> {
        self.job_start[pos] as usize..self.job_start[pos + 1] as usize
    }

    /// Slot in `jobs` of a placed, uncompleted job.
    fn slot_of(&self, job: JobId) -> Option<usize> {
        entry(&self.job_slot, job.index())
    }

    /// Mark the node at `pos` out of date.
    fn mark(&mut self, pos: usize) {
        if !self.is_dirty[pos] {
            self.is_dirty[pos] = true;
            self.dirty.push(pos as u32);
        }
    }

    /// Mark every node out of date (the capacities were re-derived).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.clear();
        self.dirty.extend(0..self.is_dirty.len() as u32);
        self.is_dirty.fill(true);
    }

    /// Re-index after `placement` replaced the previous one and mark
    /// every node out of date. `cap_of` is a job's maximum speed
    /// (`None`: its guarantee is its cap), `is_blocked` whether it is
    /// paying a placement latency right now. Entities on nodes outside
    /// the node list have no speed and are left out.
    pub fn rebuild(
        &mut self,
        placement: &Placement,
        cap_of: impl Fn(JobId) -> Option<CpuMhz>,
        is_blocked: impl Fn(JobId) -> bool,
    ) {
        // Jobs: a counting sort by node position. The placement map
        // iterates in id order, so each node's range comes out id-sorted.
        self.job_start.fill(0);
        for &(node, _) in placement.jobs.values() {
            if let Some(pos) = self.position(node) {
                self.job_start[pos + 1] += 1;
            }
        }
        prefix_sums(&mut self.job_start, &mut self.cursor);
        let placed = self.job_start[self.job_start.len() - 1] as usize;
        let vacant = PlacedJob {
            guarantee: CpuMhz::ZERO,
            cap: CpuMhz::ZERO,
            node: NONE,
            alive: false,
            blocked: false,
        };
        refill(&mut self.jobs, placed, vacant);
        refill(&mut self.job_speed, placed, CpuMhz::ZERO);
        let ids = placement.jobs.keys().next_back();
        refill(&mut self.job_slot, ids.map_or(0, |j| j.index() + 1), NONE);
        for (&id, &(node, guarantee)) in &placement.jobs {
            let Some(pos) = self.position(node) else {
                continue;
            };
            let slot = self.cursor[pos];
            self.cursor[pos] += 1;
            self.jobs[slot as usize] = PlacedJob {
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
                if let Some(pos) = self.position(node) {
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

        // Per node, the indices of its instances: the same counting
        // sort. `slices` is in application order, so is a node's range.
        self.slice_start.fill(0);
        for s in &self.slices {
            self.slice_start[s.node as usize + 1] += 1;
        }
        prefix_sums(&mut self.slice_start, &mut self.cursor);
        refill(&mut self.node_slices, self.slices.len(), 0);
        for (i, s) in self.slices.iter().enumerate() {
            let at = &mut self.cursor[s.node as usize];
            self.node_slices[*at as usize] = i as u32;
            *at += 1;
        }

        // Every total is summed afresh by the next flush.
        refill(&mut self.app_speed, self.app_ids.len(), CpuMhz::ZERO);
        refill(&mut self.app_is_stale, self.app_ids.len(), true);
        self.stale_apps.clear();
        self.stale_apps.extend(0..self.app_ids.len() as u32);
        self.mark_all_dirty();
    }

    /// `job` completed: it leaves its node, whose speeds are now out of
    /// date. A job the index does not hold marks nothing.
    pub fn complete_job(&mut self, job: JobId) {
        if let Some(slot) = self.slot_of(job) {
            self.jobs[slot].alive = false;
            self.job_slot[job.index()] = NONE;
            self.mark(self.jobs[slot].node as usize);
        }
    }

    /// `job`'s placement latency ran out: it starts drawing CPU. A job
    /// that was not blocked marks nothing.
    pub fn unblock(&mut self, job: JobId) {
        if let Some(slot) = self.slot_of(job) {
            if self.jobs[slot].blocked {
                self.jobs[slot].blocked = false;
                self.mark(self.jobs[slot].node as usize);
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

        for &app in &self.stale_apps {
            let app = app as usize;
            self.app_is_stale[app] = false;
            let slices =
                &self.slices[self.app_start[app] as usize..self.app_start[app + 1] as usize];
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
        let on_node = self.jobs_on(pos);
        let apps_here =
            &self.node_slices[self.slice_start[pos] as usize..self.slice_start[pos + 1] as usize];
        let slices = &self.slices;
        let (factor, spare) = self.kernel.share(
            &self.jobs[on_node.clone()],
            &mut self.job_speed[on_node],
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
                .map(|&i| self.slices[i as usize].guarantee.as_f64())
                .sum()
        } else {
            0.0
        };
        for &i in apps_here {
            let s = &mut self.slices[i as usize];
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
            .map_or(CpuMhz::ZERO, |slot| self.job_speed[slot])
    }

    /// Cluster-wide delivered CPU of `app` as of the last flush; zero for
    /// an application without an instance on a listed node.
    pub fn app_speed(&self, app: AppId) -> CpuMhz {
        self.app_ids
            .binary_search(&app)
            .map_or(CpuMhz::ZERO, |at| self.app_speed[at])
    }

    /// Whether a live job or an instance is placed on the node at `pos`:
    /// read off the index as [`NodeSpeeds::rebuild`] and
    /// [`NodeSpeeds::complete_job`] left it, flushed or not.
    pub fn hosts_anything(&self, pos: usize) -> bool {
        self.slice_start[pos] < self.slice_start[pos + 1]
            || self.jobs[self.jobs_on(pos)].iter().any(|job| job.alive)
    }

    /// Run the per-node kernel over *every* node under the capacities
    /// `nodes` into `into`, whatever is marked out of date here, and
    /// change nothing here: a what-if beside the tables. With
    /// `honour_blocked` off every placed job runs as if its placement
    /// latency were over; `truth_of` is the overbooking model as in
    /// [`NodeSpeeds::flush`] (`|_| None`: no clip). With `honour_blocked`
    /// on and the flush's `truth_of`, `into` holds the job speeds and clip
    /// factors a flush of every node would leave in the tables.
    pub fn project(
        &self,
        nodes: &[NodeCapacity],
        honour_blocked: bool,
        truth_of: impl Fn(usize) -> Option<f64>,
        into: &mut Projection,
    ) {
        debug_assert_eq!(nodes.len(), self.node_ids.len());
        refill(&mut into.job_speed, self.jobs.len(), CpuMhz::ZERO);
        into.clip.clear();
        into.clip.reserve_exact(nodes.len());
        for (pos, node) in nodes.iter().enumerate() {
            debug_assert_eq!(node.id, self.node_ids[pos]);
            let on_node = self.jobs_on(pos);
            let apps_here = &self.node_slices
                [self.slice_start[pos] as usize..self.slice_start[pos + 1] as usize];
            let (factor, _) = into.kernel.share(
                &self.jobs[on_node.clone()],
                &mut into.job_speed[on_node],
                apps_here.iter().map(|&i| self.slices[i as usize].guarantee),
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
            .map(|(index, &slot)| (JobId::new(index as u32), self.job_speed[slot as usize]))
            .collect();
        let apps = self
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
/// taken from, before that index is next re-indexed.
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
        debug_assert_eq!(self.job_speed.len(), index.jobs.len(), "another index");
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
    speeds.rebuild(
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
}
