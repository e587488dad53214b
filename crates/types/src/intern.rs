//! Dense interning of sparse identifiers.
//!
//! The placement solver runs every control cycle over hundreds of nodes
//! and thousands of entities. Keying its hot state by [`crate::NodeId`] /
//! [`crate::AppId`] / [`crate::JobId`] forces tree lookups or `O(n)`
//! position scans inside inner loops; an [`Interner`] instead assigns each
//! id a contiguous `usize` *dense index* once, at problem-build time, so
//! all per-entity state lives in flat `Vec`s indexed by plain integers.
//!
//! Lookups from id → dense index happen only at the problem boundary
//! (translating the previous cycle's placement). When the ids form one
//! contiguous run — `ids[k] == base + k` for every `k`, as a cluster's
//! node ids do — a lookup is an offset: one subtraction and one compare.
//! Any other list is answered by binary search over a sorted table,
//! with no hashing and no per-lookup allocation. Dense → id is an array
//! read.

/// Maps a set of ids to dense indices `0..len` (in first-seen order) and
/// back.
///
/// Duplicate ids keep their **first** occurrence's dense index; later
/// occurrences still consume an index (so dense indices always mirror the
/// source collection's positions) but are unreachable via [`Interner::dense`].
/// Placement problems never contain duplicates — the tolerance just keeps
/// the boundary total. (A run cannot hold a duplicate, so the rule only
/// concerns the sorted table.)
#[derive(Debug, Clone)]
pub struct Interner<I> {
    /// Dense index → id (source order).
    ids: Vec<I>,
    /// `Some(base)` when `ids[k] == base + k` (wrapping) for every `k`:
    /// lookups by offset, and `sorted` stays empty.
    run: Option<u32>,
    /// Sorted `(id, dense)` table for binary-search lookups.
    sorted: Vec<(I, u32)>,
}

// Manual impl: an empty interner needs no `I: Default`, unlike the
// derive's over-constrained bound.
impl<I> Default for Interner<I> {
    fn default() -> Self {
        Interner {
            ids: Vec::new(),
            run: None,
            sorted: Vec::new(),
        }
    }
}

impl<I: Copy + Ord + Into<u32>> Interner<I> {
    /// Intern the given ids in iteration order.
    pub fn new(ids: impl IntoIterator<Item = I>) -> Self {
        let ids: Vec<I> = ids.into_iter().collect();
        assert!(ids.len() <= u32::MAX as usize, "interner overflow");
        let run = ids.first().map(|&id| id.into()).filter(|&base: &u32| {
            ids.iter()
                .zip(0u32..)
                .all(|(&id, k)| id.into() == base.wrapping_add(k))
        });
        if run.is_some() {
            return Interner {
                ids,
                run,
                sorted: Vec::new(),
            };
        }
        let mut sorted: Vec<(I, u32)> = ids
            .iter()
            .enumerate()
            .map(|(dense, &id)| (id, dense as u32))
            .collect();
        // Stable order: by id, then by dense index, so duplicates resolve
        // to their first occurrence.
        sorted.sort_unstable();
        Interner { ids, run, sorted }
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id at a dense index. Panics on out-of-range indices (caller
    /// bugs: dense indices only come from this interner).
    #[inline]
    pub fn id(&self, dense: usize) -> I {
        self.ids[dense]
    }

    /// The dense index of an id, if interned.
    #[inline]
    pub fn dense(&self, id: I) -> Option<usize> {
        if let Some(base) = self.run {
            let offset = id.into().wrapping_sub(base) as usize;
            return (offset < self.ids.len()).then_some(offset);
        }
        let at = self.sorted.partition_point(|&(k, _)| k < id);
        match self.sorted.get(at) {
            Some(&(k, dense)) if k == id => Some(dense as usize),
            _ => None,
        }
    }

    /// Iterate ids in dense order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn dense_indices_follow_source_order() {
        let ix = Interner::new([NodeId::new(9), NodeId::new(2), NodeId::new(5)]);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.id(0), NodeId::new(9));
        assert_eq!(ix.id(2), NodeId::new(5));
        assert_eq!(ix.dense(NodeId::new(9)), Some(0));
        assert_eq!(ix.dense(NodeId::new(2)), Some(1));
        assert_eq!(ix.dense(NodeId::new(5)), Some(2));
        assert_eq!(ix.dense(NodeId::new(7)), None);
        assert_eq!(ix.iter().collect::<Vec<_>>().len(), 3);
    }

    #[test]
    fn empty_interner() {
        let ix: Interner<NodeId> = Interner::new([]);
        assert!(ix.is_empty());
        assert_eq!(ix.dense(NodeId::new(0)), None);
        assert_eq!(ix.dense(NodeId::new(u32::MAX)), None);
        assert!(Interner::<NodeId>::default()
            .dense(NodeId::new(0))
            .is_none());
    }

    fn nodes(raw: impl IntoIterator<Item = u32>) -> Interner<NodeId> {
        Interner::new(raw.into_iter().map(NodeId::new))
    }

    #[test]
    fn a_run_above_zero_is_answered_by_offset() {
        let ix = nodes(100..110);
        assert_eq!(ix.run, Some(100));
        assert!(ix.sorted.is_empty());
        assert_eq!(ix.dense(NodeId::new(100)), Some(0));
        assert_eq!(ix.dense(NodeId::new(109)), Some(9));
        assert_eq!(ix.dense(NodeId::new(110)), None);
        // Below the base: the wrapped offset is huge, not a hit.
        assert_eq!(ix.dense(NodeId::new(99)), None);
        assert_eq!(ix.dense(NodeId::new(0)), None);
    }

    #[test]
    fn a_run_may_wrap_past_u32_max() {
        let ix = nodes([u32::MAX - 1, u32::MAX, 0, 1]);
        assert_eq!(ix.run, Some(u32::MAX - 1));
        assert_eq!(ix.dense(NodeId::new(u32::MAX - 1)), Some(0));
        assert_eq!(ix.dense(NodeId::new(u32::MAX)), Some(1));
        assert_eq!(ix.dense(NodeId::new(0)), Some(2));
        assert_eq!(ix.dense(NodeId::new(1)), Some(3));
        assert_eq!(ix.dense(NodeId::new(2)), None);
        assert_eq!(ix.dense(NodeId::new(u32::MAX - 2)), None);
    }

    #[test]
    fn one_gap_swap_or_duplicate_breaks_the_run() {
        let gap = nodes([5, 6, 8, 9]);
        let swap = nodes([5, 7, 6, 8]);
        let duplicate = nodes([5, 6, 6, 7]);
        for ix in [&gap, &swap, &duplicate] {
            assert_eq!(ix.run, None);
            assert_eq!(ix.sorted.len(), 4);
        }
        assert_eq!(gap.dense(NodeId::new(7)), None);
        assert_eq!(gap.dense(NodeId::new(8)), Some(2));
        assert_eq!(swap.dense(NodeId::new(7)), Some(1));
        assert_eq!(swap.dense(NodeId::new(6)), Some(2));
        assert_eq!(duplicate.dense(NodeId::new(6)), Some(1));
        assert_eq!(duplicate.dense(NodeId::new(7)), Some(3));
        assert_eq!(duplicate.dense(NodeId::new(8)), None);
    }

    /// Reference: the first position of `id`, by linear scan.
    fn position(ids: &[NodeId], id: NodeId) -> Option<usize> {
        ids.iter().position(|&k| k == id)
    }

    /// Contiguous, shuffled, sparse and duplicated id lists, each probed
    /// at every member and around it: `dense` ≡ `position`. Run
    /// detection that accepted any permutation of `base..base + n` would
    /// answer a shuffled list by offset and fail here.
    #[test]
    fn dense_equals_a_linear_scan_over_seeded_lists() {
        use proptest::TestRng;
        let mut tally = [0usize; 4];
        for seed in 0..2000u64 {
            let rng = &mut TestRng::new(seed);
            let n = rng.below(40) as u32;
            let base = match rng.below(3) {
                0 => 0,
                1 => u32::MAX - rng.below(40) as u32,
                _ => rng.below(1_000_000) as u32,
            };
            let shape = rng.below(4) as usize;
            let mut raw: Vec<u32> = (0..n).map(|k| base.wrapping_add(k)).collect();
            match shape {
                0 => {}
                1 => {
                    for i in (1..raw.len()).rev() {
                        raw.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                2 => {
                    let mut at = base;
                    for id in &mut raw {
                        at = at.wrapping_add(1 + rng.below(3) as u32);
                        *id = at;
                    }
                }
                _ => {
                    for _ in 0..=rng.below(3) {
                        if !raw.is_empty() {
                            let from = raw[rng.below(raw.len() as u64) as usize];
                            let to = rng.below(raw.len() as u64) as usize;
                            raw[to] = from;
                        }
                    }
                }
            }
            let ids: Vec<NodeId> = raw.iter().copied().map(NodeId::new).collect();
            let ix = Interner::new(ids.iter().copied());
            tally[shape] += usize::from(n > 1);
            let probes = raw
                .iter()
                .flat_map(|&r| [r.wrapping_sub(1), r, r.wrapping_add(1)]);
            for probe in probes.chain([base, base.wrapping_add(n), 0, u32::MAX]) {
                let id = NodeId::new(probe);
                assert_eq!(ix.dense(id), position(&ids, id), "seed {seed}: {raw:?}");
            }
        }
        assert!(tally.iter().all(|&seen| seen >= 300), "{tally:?}");
    }

    #[test]
    fn duplicates_resolve_to_first_occurrence() {
        let ix = Interner::new([NodeId::new(3), NodeId::new(3), NodeId::new(1)]);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.dense(NodeId::new(3)), Some(0));
        assert_eq!(ix.dense(NodeId::new(1)), Some(2));
    }

    #[test]
    fn scales_to_large_sparse_id_spaces() {
        let ids: Vec<NodeId> = (0..10_000u32).map(|i| NodeId::new(i * 17 + 3)).collect();
        let ix = Interner::new(ids.iter().copied());
        for (dense, &id) in ids.iter().enumerate() {
            assert_eq!(ix.dense(id), Some(dense));
            assert_eq!(ix.id(dense), id);
        }
        assert_eq!(ix.dense(NodeId::new(1)), None);
    }
}
