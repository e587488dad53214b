//! An owned, `Send` capture of everything a controller may observe at a
//! control cycle, and the tracker that diffs consecutive cycles.
//!
//! [`ControlInputs`] is a bundle of borrows into the live simulator,
//! valid only inside the control cycle it was sensed in.
//! [`SensingSnapshot`] is the owned counterpart: node capacities, the
//! placement in force, the whole job manager (states, remaining work,
//! SLAs) and the per-application observations, cloned once. No control
//! path takes one — every controller, the pipelined one included, solves
//! against the live inputs. It is the capture the benchmark replays
//! solves from and tests keep as an oracle's frozen world;
//! [`SensingSnapshot::inputs`] lends it back out as `ControlInputs` so
//! any [`Controller`](crate::Controller) can solve against it exactly as
//! it would against the live one.

use crate::apps::AppObservation;
use crate::simulator::ControlInputs;
use slaq_jobs::{Job, JobManager, JobState};
use slaq_placement::problem::NodeCapacity;
use slaq_placement::{Placement, SolveDelta};
use slaq_types::{AppId, JobId, NodeId, SimTime};

/// An owned, detached capture of one control cycle's observations.
#[derive(Debug, Clone)]
pub struct SensingSnapshot {
    /// Instant the snapshot was taken (the sensing cycle's `now`).
    pub now: SimTime,
    /// Node capacities as sensed (outage-affected nodes read zero).
    pub nodes: Vec<NodeCapacity>,
    /// Placement in force at sensing time.
    pub current: Placement,
    /// The job population, frozen: states, remaining work, SLAs.
    pub jobs: JobManager,
    /// Per-application observations (spec + estimated intensity).
    pub apps: Vec<AppObservation>,
}

impl SensingSnapshot {
    /// Capture the live inputs into an owned snapshot.
    pub fn capture(inputs: &ControlInputs<'_>) -> Self {
        SensingSnapshot {
            now: inputs.now,
            nodes: inputs.nodes.to_vec(),
            current: inputs.current.clone(),
            jobs: inputs.jobs.clone(),
            apps: inputs.apps.to_vec(),
        }
    }

    /// Lend the snapshot back out as controller inputs: any
    /// [`Controller`](crate::Controller) can solve against the frozen
    /// world exactly as it would against the live one.
    pub fn inputs(&self) -> ControlInputs<'_> {
        ControlInputs {
            now: self.now,
            nodes: &self.nodes,
            current: &self.current,
            jobs: &self.jobs,
            apps: &self.apps,
        }
    }
}

// A snapshot must be able to cross a thread boundary.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SensingSnapshot>();
};

/// Compact placement-relevant fingerprint of one active job: where its VM
/// sits, a lifecycle tag, and how much work is left.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobPrint {
    node: Option<NodeId>,
    /// 0 = pending, 1 = running, 2 = suspended.
    tag: u8,
    remaining: f64,
}

impl JobPrint {
    /// `None` for a completed job: it leaves the placement problem
    /// entirely, so it carries no fingerprint.
    fn of(job: &Job) -> Option<JobPrint> {
        let tag = match job.state {
            JobState::Pending => 0u8,
            JobState::Running { .. } => 1,
            JobState::Suspended { .. } => 2,
            JobState::Completed { .. } => return None,
        };
        Some(JobPrint {
            node: job.state.node(),
            tag,
            remaining: job.remaining.as_f64(),
        })
    }
}

/// Diffs consecutive control cycles' sensed inputs into a [`SolveDelta`]
/// — the dirty counts whose total the simulator exports as the
/// `delta.dirty` histogram. No controller is handed them.
///
/// The tracker keeps **fingerprints**, not clones of the sensed world
/// and not maps: per node `(id, cpu, mem)` and per app `(id, λ)`, each at
/// the position its entity holds in the sensed slice, and per active job
/// a `(node, lifecycle, remaining)` triple, in id order. The simulator
/// senses nodes and apps in the same order every cycle, so one zip per
/// slice is their whole diff; a node or app slice whose ids moved is
/// reported wholesale (every old node dead, every new one recovered;
/// every old and new app drifted). The jobs are one merge of the live
/// view ([`JobManager::active`], id order) with the ids printed last
/// time, so a diff costs the live jobs, not every job ever submitted.
#[derive(Debug, Clone, Default)]
pub struct DeltaTracker {
    primed: bool,
    nodes: Vec<NodeCapacity>,
    apps: Vec<(AppId, f64)>,
    /// The active jobs of the last observation, in id order …
    jobs: Vec<(JobId, JobPrint)>,
    /// … and the buffer the next one is printed into.
    printed: Vec<(JobId, JobPrint)>,
}

impl DeltaTracker {
    /// Diff the sensed inputs against the previous cycle's fingerprints,
    /// then adopt the new fingerprints. Any change counts (there is no
    /// tolerance). The first observation (nothing to diff against)
    /// reports every job as arrived — a structural delta.
    pub fn observe(&mut self, inputs: &ControlInputs<'_>) -> SolveDelta {
        let mut delta = SolveDelta::default();

        // --- nodes: outages read as zero capacity, so "dead" means the
        // sensed CPU collapsed to zero (or the id left its position). ---
        if self.primed {
            let old_ids = self.nodes.iter().map(|n| n.id);
            if old_ids.eq(inputs.nodes.iter().map(|n| n.id)) {
                for (old, new) in self.nodes.iter().zip(inputs.nodes) {
                    let (old_cpu, cpu) = (old.cpu.as_f64(), new.cpu.as_f64());
                    if old_cpu == 0.0 && cpu > 0.0 {
                        delta.recovered_nodes += 1;
                    } else if old_cpu > 0.0 && cpu == 0.0 {
                        delta.dead_nodes += 1;
                    } else if (old_cpu, old.mem) != (cpu, new.mem) {
                        delta.capacity_changed_nodes += 1;
                    }
                }
            } else {
                delta.dead_nodes = self.nodes.len();
                delta.recovered_nodes = inputs.nodes.len();
            }
        }
        self.nodes.clear();
        self.nodes.extend_from_slice(inputs.nodes);

        // --- apps: any change of the observed intensity. ---
        if self.primed {
            let old_ids = self.apps.iter().map(|a| a.0);
            delta.drifted_apps = if old_ids.eq(inputs.apps.iter().map(|a| a.id)) {
                let pairs = self.apps.iter().zip(inputs.apps);
                pairs.filter(|(old, new)| old.1 != new.lambda).count()
            } else {
                self.apps.len() + inputs.apps.len()
            };
        }
        self.apps.clear();
        self.apps
            .extend(inputs.apps.iter().map(|a| (a.id, a.lambda)));

        // --- jobs: arrivals, completions, lifecycle/node moves, work
        // drift. A job that arrives *and* completes between two
        // observations never held a fingerprint and is never reported;
        // one printed last time that left the live view completed. ---
        self.printed.clear();
        let mut old = self.jobs.iter().peekable();
        for job in inputs.jobs.active() {
            let Some(print) = JobPrint::of(job) else {
                continue;
            };
            while old.next_if(|&&(id, _)| id < job.id).is_some() {
                delta.completed_jobs += 1;
            }
            match old.next_if(|&&(id, _)| id == job.id) {
                Some((_, was)) if *was != print => delta.resized_jobs += 1,
                Some(_) => {}
                None => delta.arrived_jobs += 1,
            }
            self.printed.push((job.id, print));
        }
        delta.completed_jobs += old.count();
        std::mem::swap(&mut self.jobs, &mut self.printed);

        self.primed = true;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slaq_jobs::JobSpec;
    use slaq_types::{CpuMhz, JobId, MemMb, NodeId, SimDuration, Work};
    use slaq_utility::CompletionGoal;

    fn job_spec(work_secs: f64) -> JobSpec {
        JobSpec {
            name: "snap".into(),
            total_work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::ZERO,
                SimDuration::from_secs(work_secs),
                1.25,
                2.0,
            )
            .unwrap(),
            importance: 1.0,
        }
    }

    #[test]
    fn capture_is_detached_from_the_live_world() {
        let nodes = vec![NodeCapacity {
            id: NodeId::new(0),
            cpu: CpuMhz::new(12_000.0),
            mem: MemMb::new(4096),
        }];
        let mut jobs = JobManager::new();
        jobs.submit(job_spec(1000.0), SimTime::ZERO).unwrap();
        let mut placement = Placement::empty();
        placement
            .jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        let inputs = ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        };
        let snap = SensingSnapshot::capture(&inputs);

        // The live world moves on; the snapshot does not.
        jobs.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::from_secs(600.0))
            .unwrap();
        placement.jobs.clear();

        assert_eq!(snap.now, SimTime::from_secs(600.0));
        assert_eq!(snap.jobs.len(), 1);
        assert!(matches!(
            snap.jobs.job(JobId::new(0)).unwrap().state,
            slaq_jobs::JobState::Pending
        ));
        assert_eq!(snap.current.jobs.len(), 1);

        // And it lends itself back out as equivalent inputs.
        let lent = snap.inputs();
        assert_eq!(lent.now, snap.now);
        assert_eq!(lent.current.job_node(JobId::new(0)), Some(NodeId::new(0)));
        assert_eq!(lent.nodes.len(), 1);
    }

    #[test]
    fn delta_tracker_diffs_consecutive_cycles() {
        let node = |cpu: f64| NodeCapacity {
            id: NodeId::new(0),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(4096),
        };
        let placement = Placement::empty();
        let mut jobs = JobManager::new();
        jobs.submit(job_spec(1000.0), SimTime::ZERO).unwrap();
        let mut tracker = DeltaTracker::default();

        // First observation: unprimed — everything reads as arrived, so
        // the hint is structural and the solver takes the full path.
        let nodes = vec![node(12_000.0)];
        let first = tracker.observe(&ControlInputs {
            now: SimTime::ZERO,
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(first.arrived_jobs, 1);
        assert!(first.is_structural());

        // Quiet cycle: nothing changed, nothing reported.
        let quiet = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert!(quiet.is_empty(), "{quiet:?}");

        // A job starts (lifecycle + node change), another arrives, and
        // the node's sensed capacity collapses to zero (outage).
        jobs.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::from_secs(600.0))
            .unwrap();
        jobs.submit(job_spec(500.0), SimTime::from_secs(900.0))
            .unwrap();
        let dead = vec![node(0.0)];
        let churn = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &dead,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(churn.resized_jobs, 1);
        assert_eq!(churn.arrived_jobs, 1);
        assert_eq!(churn.dead_nodes, 1);
        assert_eq!(churn.len(), 3);
        assert!(churn.is_structural());

        // Recovery is reported symmetrically.
        let back = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(1800.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(back.recovered_nodes, 1);
        assert_eq!(back.len(), 1);
    }
}
