//! The observation stage of a control cycle: the mechanical per-cycle
//! series and the SLO pass, both run after actuation. What either needs
//! of the speeds it projects from the simulator's index: the outlook
//! series reads the outlook the index keeps
//! ([`NodeSpeeds::project_outlook`](crate::cluster::NodeSpeeds::project_outlook)),
//! the SLO pass a kernel pass of its own
//! ([`NodeSpeeds::project`](crate::cluster::NodeSpeeds::project)); the
//! from-scratch [`effective_speeds`](crate::cluster::effective_speeds)
//! and the map-based overbooking clip, which lives on here, are the debug
//! oracles of those projections and of the clip inside
//! [`NodeSpeeds::flush`](crate::cluster::NodeSpeeds::flush).

use super::Simulator;
use slaq_jobs::JobState;
use slaq_types::{CpuMhz, JobId};
use std::collections::{BTreeMap, BTreeSet};

impl Simulator {
    /// Record the mechanical per-cycle series after actuation.
    pub(super) fn record_cycle_series(&mut self, n_changes: usize) {
        let t = self.now;
        // Controller-neutral job satisfaction: expected utility of every
        // active job at its *current* effective speed (pending and
        // suspended jobs project at zero speed, i.e. the SLA floor).
        // Unlike the controller's hypothetical utility this makes no
        // fluid-divisibility assumption, so it is recorded for baselines
        // too and lets experiment E3 compare worst-off-workload
        // protection across controllers. The same walk of the live view
        // counts the jobs by state.
        let (mut pending, mut running, mut suspended) = (0usize, 0usize, 0usize);
        {
            // Blocking (start/resume/migration latency) and this cycle's
            // overbooking bite are transients of the sampling instant, not
            // statements about a job's future: project against the
            // advertised capacities with nobody blocked and no clip, on
            // purpose, though the tables beside it carry both. `enact`
            // just marked the nodes it changed, so their tables are out of
            // date until the next event's flush (which must stay where it
            // is: a run that ends here never pays it); the outlook does
            // not read them, and re-runs the kernel on the nodes marked
            // since the last cycle only.
            self.speeds.project_outlook(self.faults.advertised());
            debug_assert!(self.outlook_projection_is_exact(), "outlook at {t}");
            let mut sum = 0.0;
            let mut min = f64::INFINITY;
            let mut n = 0usize;
            for job in self.job_mgr.active() {
                match job.state {
                    JobState::Pending => pending += 1,
                    JobState::Running { .. } => running += 1,
                    JobState::Suspended { .. } => suspended += 1,
                    JobState::Completed { .. } => unreachable!("{} in the live view", job.id),
                }
                let speed = self.speeds.outlook_speed(job.id);
                let u = slaq_jobs::JobUtility::of(job, t).projected_completion(speed);
                let u = job.spec.goal.utility_at(u);
                sum += u;
                min = min.min(u);
                n += 1;
            }
            if n > 0 {
                self.metrics
                    .record_key(self.keys.jobs_outlook, t, sum / n as f64);
                self.metrics.record_key(self.keys.jobs_outlook_min, t, min);
            }
        }
        self.metrics.record_key(
            self.keys.trans_alloc,
            t,
            self.placement.total_app_alloc().as_f64(),
        );
        self.metrics.record_key(
            self.keys.jobs_alloc,
            t,
            self.placement.total_job_alloc().as_f64(),
        );
        self.metrics
            .record_key(self.keys.changes, t, n_changes as f64);
        let active = pending + running + suspended;
        self.metrics
            .record_key(self.keys.jobs_active, t, active as f64);
        self.metrics
            .record_key(self.keys.jobs_running, t, running as f64);
        self.metrics
            .record_key(self.keys.jobs_pending, t, pending as f64);
        self.metrics
            .record_key(self.keys.jobs_suspended, t, suspended as f64);
        let completed = self.job_mgr.len() - active;
        self.metrics
            .record_key(self.keys.jobs_completed, t, completed as f64);
    }

    /// The SLO pass, run after actuation on observed runs only: measure
    /// each registered app's satisfied-CPU fraction against the work it
    /// offered this cycle, decompose any deficit into named causes, and
    /// feed the recorder's SLO board. Reads simulation state and writes
    /// only into the recorder — observes, never steers.
    ///
    /// Attribution is a sequential min-chain per app, in documented
    /// order — outage loss, routing-discount mismatch, pipeline
    /// staleness, change-budget exhaustion, overbooking clip — with the
    /// cluster-capacity cause taking the exact remainder, so the parts
    /// always sum to the deficit (`tests/slo_audit.rs` pins this on
    /// every preset).
    pub(super) fn observe_slos(&mut self, n_changes: usize) {
        let t = self.now;
        let live_nodes = self.faults.advertised();
        // Cluster-level context shared by every app's chain.
        let offline_cpu: f64 = self
            .nodes
            .iter()
            .zip(live_nodes)
            .map(|(full, live)| (full.cpu.as_f64() - live.cpu.as_f64()).max(0.0))
            .sum();
        let online_cpu: f64 = live_nodes.iter().map(|n| n.cpu.as_f64()).sum();
        let total_alloc =
            self.placement.total_app_alloc().as_f64() + self.placement.total_job_alloc().as_f64();
        let spare = (online_cpu - total_alloc).max(0.0);
        // A pipelined controller stamps the enacted plan's staleness at
        // the enactment instant; any other cycle reads 0.
        let staleness = match self.metrics.series("pipeline_staleness_cycles").last() {
            Some(&(ts, v)) if ts == t.as_secs() => v,
            _ => 0.0,
        };
        let budget_hit = self.change_budget.is_some_and(|b| b > 0 && n_changes >= b);

        // When overbooking bites this cycle, apps deliver less than
        // their placed slices; the shortfall becomes the `overcommit`
        // cause. The projected clip factors are the ones the next event's
        // flush computes for the upcoming interval (same placement, same
        // blocked jobs, same cycle's bites), and nothing is clipped —
        // changing no float — whenever overbooking is off or nothing
        // bites.
        let clipped = self.faults.overbooked() && {
            self.speeds.project(
                live_nodes,
                true,
                self.faults.truth(),
                &mut self.slo_projection,
            );
            debug_assert!(self.clip_projection_is_exact(), "clip factors at {t}");
            self.slo_projection.clipped() > 0
        };
        let clip_of = |node| self.slo_projection.node_clip(&self.speeds, node);

        // First pass: offered work and deficit per app, plus the total
        // deficit that proportions the shared causes.
        // Rows are (app ix, raw, offered, deficit, delivered).
        let mut rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
        let mut total_deficit = 0.0;
        for (i, app) in self.apps.iter().enumerate() {
            if !self.slo_ids.contains_key(&app.id) {
                continue;
            }
            let raw = app.true_lambda(t) * app.spec.service_per_request.as_f64();
            let offered = raw * app.route_discount();
            let alloc = self.placement.app_alloc(app.id).as_f64();
            let delivered = if !clipped {
                alloc
            } else {
                self.placement.apps.get(&app.id).map_or(0.0, |slices| {
                    slices.iter().map(|(&n, g)| g.as_f64() * clip_of(n)).sum()
                })
            };
            let deficit = (offered - delivered).max(0.0);
            total_deficit += deficit;
            rows.push((i, raw, offered, deficit, delivered));
        }

        for (i, raw, offered, deficit, delivered) in rows {
            let app = &self.apps[i];
            let Some(&slo_id) = self.slo_ids.get(&app.id) else {
                continue;
            };
            let alloc = self.placement.app_alloc(app.id).as_f64();
            let satisfied = if offered <= 0.0 {
                1.0
            } else {
                (delivered / offered).clamp(0.0, 1.0)
            };
            let (rt_secs, utility) = match self.last_app_flush[i] {
                Some((rt, u)) => (Some(rt), Some(u)),
                None => (None, None),
            };
            let sample = slaq_obs::SloSample {
                satisfied,
                deficit_mhz: deficit,
                rt_secs,
                utility,
            };
            let share = if total_deficit > 0.0 {
                deficit / total_deficit
            } else {
                0.0
            };
            let mut rem = deficit;
            let outage_mhz = rem.min(offline_cpu * share);
            rem -= outage_mhz;
            let routing_mhz = rem.min((raw - offered).max(0.0));
            rem -= routing_mhz;
            let staleness_mhz = if staleness >= 1.0 {
                rem * (staleness / (staleness + 1.0))
            } else {
                0.0
            };
            rem -= staleness_mhz;
            let budget_mhz = if budget_hit {
                rem.min(spare * share)
            } else {
                0.0
            };
            rem -= budget_mhz;
            let overcommit_mhz = if !clipped {
                0.0
            } else {
                rem.min((alloc - delivered).max(0.0))
            };
            rem -= overcommit_mhz;
            let attr = slaq_obs::Attribution {
                outage_mhz,
                routing_mhz,
                staleness_mhz,
                budget_mhz,
                overcommit_mhz,
                capacity_mhz: rem,
            };
            self.recorder.slo_observe(slo_id, &sample, &attr);
        }
    }

    /// Whether the outlook `record_cycle_series` just brought up to date
    /// holds, bit for bit, the job speeds of a from-scratch derivation
    /// with an empty blocked set and no clip: its debug cross-check.
    fn outlook_projection_is_exact(&self) -> bool {
        let (job_speeds, _) = self.speeds_from_scratch(&BTreeSet::new());
        self.job_mgr.jobs().iter().all(|job| {
            let projected = self.speeds.outlook_speed(job.id);
            let scratch = job_speeds.get(&job.id).copied().unwrap_or(CpuMhz::ZERO);
            projected.as_f64().to_bits() == scratch.as_f64().to_bits()
        })
    }

    /// Whether the projection `observe_slos` just took holds, bit for
    /// bit, the map clip's factors over the blocked-aware from-scratch
    /// speeds — a node the map leaves out reading `1.0`: its debug
    /// cross-check.
    fn clip_projection_is_exact(&self) -> bool {
        let (job_speeds, _) = self.speeds_from_scratch(&self.blocked_set());
        let clip = self.overcommit_node_clip(&job_speeds);
        clip.len() == self.slo_projection.clipped()
            && self.nodes.iter().all(|node| {
                let projected = self.slo_projection.node_clip(&self.speeds, node.id);
                projected.to_bits() == clip.get(&node.id).copied().unwrap_or(1.0).to_bits()
            })
    }

    /// Per-node clip factors (all `< 1`) for nodes whose granted CPU
    /// exceeds this cycle's *true* capacity under the overbooking
    /// model. Empty when overbooking is off or nothing bites — the
    /// common case, so callers can skip all clipping work.
    fn overcommit_node_clip(
        &self,
        job_speeds: &BTreeMap<JobId, CpuMhz>,
    ) -> BTreeMap<slaq_types::NodeId, f64> {
        let mut clip = BTreeMap::new();
        if !self.faults.overbooked() {
            return clip;
        }
        let mut granted: BTreeMap<slaq_types::NodeId, f64> = BTreeMap::new();
        for (j, &(n, _)) in &self.placement.jobs {
            *granted.entry(n).or_insert(0.0) += job_speeds.get(j).map_or(0.0, |s| s.as_f64());
        }
        for slices in self.placement.apps.values() {
            for (&n, g) in slices {
                *granted.entry(n).or_insert(0.0) += g.as_f64();
            }
        }
        debug_assert!(
            self.faults
                .bites_are_current(&self.nodes, self.cycles as u64),
            "stale bite factors in cycle {}",
            self.cycles
        );
        for (node, &bite) in self.faults.physical().iter().zip(self.faults.bites()) {
            let g = granted.get(&node.id).copied().unwrap_or(0.0);
            if g <= 0.0 {
                continue;
            }
            let truth = node.cpu.as_f64() * bite;
            if g > truth {
                clip.insert(node.id, (truth / g).max(0.0));
            }
        }
        clip
    }

    /// Clip granted speeds to true per-node capacity when overbooking
    /// bites: every job grant and app slice on a bitten node is scaled
    /// by that node's clip factor. A no-op when nothing bites. The
    /// oracle of the clip inside [`NodeSpeeds::flush`].
    pub(super) fn apply_overcommit(
        &self,
        job_speeds: &mut BTreeMap<JobId, CpuMhz>,
        app_speeds: &mut BTreeMap<slaq_types::AppId, CpuMhz>,
    ) {
        let clip = self.overcommit_node_clip(job_speeds);
        if clip.is_empty() {
            return;
        }
        for (j, &(n, _)) in &self.placement.jobs {
            if let Some(&f) = clip.get(&n) {
                if let Some(s) = job_speeds.get_mut(j) {
                    *s = *s * f;
                }
            }
        }
        for (a, slices) in &self.placement.apps {
            if slices.keys().any(|n| clip.contains_key(n)) {
                let delivered: f64 = slices
                    .iter()
                    .map(|(n, g)| g.as_f64() * clip.get(n).copied().unwrap_or(1.0))
                    .sum();
                app_speeds.insert(*a, CpuMhz::new(delivered));
            }
        }
    }
}
