//! The churn count between two control cycles.
//!
//! [`SolveDelta`] records how much of the fleet moved between two
//! sensing snapshots — a few jobs arrive or complete, a node dies or
//! comes back, some demands drift. The simulator's snapshot differ
//! (`slaq_sim::DeltaTracker`) produces it; it is **observed, not acted
//! on**: its size is exported as the `delta.dirty` histogram and it goes
//! no further — the simulator hands no controller a hint (the
//! incremental re-flow it once steered is deleted — every cycle of every
//! fleet was structural). It goes once the ROADMAP's benchmark surface
//! diet stops the bench spelling it.

/// What changed between two consecutive sensing snapshots, as one count
/// per category. Nothing downstream needs to know *which* entities
/// moved: the `delta.dirty` histogram reads [`SolveDelta::len`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveDelta {
    /// Jobs present now that were absent (or not yet active) last cycle.
    pub arrived_jobs: usize,
    /// Jobs active last cycle that are gone (completed or cancelled).
    pub completed_jobs: usize,
    /// Jobs whose placement-relevant state moved: lifecycle transition,
    /// node change, or a different amount of work left.
    pub resized_jobs: usize,
    /// Nodes sensed last cycle but missing now (outage began).
    pub dead_nodes: usize,
    /// Nodes missing last cycle but sensed now (outage ended).
    pub recovered_nodes: usize,
    /// Nodes present both cycles whose capacity changed.
    pub capacity_changed_nodes: usize,
    /// Apps whose observed intensity changed.
    pub drifted_apps: usize,
}

impl SolveDelta {
    /// `true` when nothing at all changed between the snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of dirty entries across all categories.
    pub fn len(&self) -> usize {
        self.arrived_jobs
            + self.completed_jobs
            + self.resized_jobs
            + self.dead_nodes
            + self.recovered_nodes
            + self.capacity_changed_nodes
            + self.drifted_apps
    }

    /// `true` when the problem *shape* changed — the job set or the node
    /// set. No release path reads it: its callers are tests, among them
    /// `tests/delta_tracker.rs`'s tally of in-place-only churn cycles.
    pub fn is_structural(&self) -> bool {
        self.arrived_jobs > 0
            || self.completed_jobs > 0
            || self.dead_nodes > 0
            || self.recovered_nodes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_flags_follow_the_shape_changing_fields() {
        let mut d = SolveDelta::default();
        assert!(d.is_empty());
        assert!(!d.is_structural());
        d.resized_jobs = 1;
        d.drifted_apps = 1;
        d.capacity_changed_nodes = 1;
        assert!(!d.is_structural(), "in-place churn is not structural");
        assert_eq!(d.len(), 3);
        d.arrived_jobs = 1;
        assert!(d.is_structural());
        assert_eq!(d.len(), 4);
    }
}
