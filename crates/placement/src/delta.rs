//! Dirty-count plumbing for the delta solve.
//!
//! Between consecutive control cycles only a small fraction of the fleet
//! usually changes: a few jobs arrive or complete, a node dies or comes
//! back, some demands drift. [`SolveDelta`] is the compact record of that
//! churn, produced by the simulator's snapshot differ
//! (`slaq_sim::DeltaTracker`) and threaded through the controller into
//! the solver.
//!
//! The delta is **advisory** and read at one site: step 7 of a
//! `Delta`-mode solve skips the incremental re-flow attempt when the
//! hint says the cycle is structural. The re-flow re-verifies every
//! reuse precondition against the actual problem (topology signatures,
//! unit-granular demand fingerprints — see
//! [`crate::allocation::Allocator::try_allocate_delta`]), so a stale,
//! missing or lying hint can cost a wasted audit (or a skipped re-flow)
//! but never a wrong placement.

/// What changed between two consecutive sensing snapshots, as one count
/// per category. Nothing downstream needs to know *which* entities
/// moved: the solver reads [`SolveDelta::is_structural`] and the
/// `delta.dirty` histogram reads [`SolveDelta::len`].
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
    /// set — so the allocator's topology signature cannot possibly match
    /// and an incremental re-flow attempt would be a guaranteed miss.
    pub fn is_structural(&self) -> bool {
        self.arrived_jobs > 0
            || self.completed_jobs > 0
            || self.dead_nodes > 0
            || self.recovered_nodes > 0
    }
}

/// Fast-path diagnostics of a `Delta`-mode solver: how many solves took
/// the incremental re-flow versus falling back to the full path. Exposed
/// through an accessor (not the metrics sink) so a delta run's recorded
/// metric series stay bit-identical to a batch run's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Solves answered by the incremental allocation re-flow.
    pub hits: usize,
    /// Delta-mode solves that ran the full allocation path.
    pub fallbacks: usize,
}

impl DeltaStats {
    /// Merge another counter pair in (shard lanes aggregate this way).
    pub fn absorb(&mut self, other: DeltaStats) {
        self.hits += other.hits;
        self.fallbacks += other.fallbacks;
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
