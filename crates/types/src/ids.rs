//! Identifiers for nodes, transactional applications, long-running jobs,
//! and the unified *entity* abstraction used by the utility equalizer.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub fn new(raw: u32) -> Self {
                $name(raw)
            }

            /// Raw index.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }

            /// Raw index widened for slice indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                $name(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_newtype!(
    /// A physical node (machine) in the cluster.
    NodeId,
    "node"
);
id_newtype!(
    /// A transactional (clustered web) application.
    AppId,
    "app"
);
id_newtype!(
    /// A long-running job.
    JobId,
    "job"
);
id_newtype!(
    /// A failure/locality zone (rack, availability zone, edge site). Nodes
    /// sharing a zone are solved together by the sharded placement engine.
    ZoneId,
    "zone"
);
id_newtype!(
    /// One shard of a partitioned placement problem. Shard ids are dense
    /// (`0..shard_count`), assigned per solve from zone labels or a fixed
    /// shard count by the sharded placement engine.
    ShardId,
    "shard"
);

/// An *entity* competing for CPU power in the utility equalizer.
///
/// The paper's algorithm "operates by continuously stealing resources from
/// the more satisfied applications to later be given to the less satisfied
/// applications", where "applications" spans both workload classes: each
/// transactional application and each long-running job is one entity with a
/// monotone utility-of-CPU curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EntityId {
    /// A transactional application.
    App(AppId),
    /// A long-running job.
    Job(JobId),
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityId::App(a) => write!(f, "{a}"),
            EntityId::Job(j) => write!(f, "{j}"),
        }
    }
}

impl From<AppId> for EntityId {
    fn from(a: AppId) -> Self {
        EntityId::App(a)
    }
}

impl From<JobId> for EntityId {
    fn from(j: JobId) -> Self {
        EntityId::Job(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_prefixes() {
        assert_eq!(NodeId::new(3).to_string(), "node3");
        assert_eq!(AppId::new(0).to_string(), "app0");
        assert_eq!(JobId::new(17).to_string(), "job17");
    }

    #[test]
    fn ids_index_widen() {
        assert_eq!(NodeId::new(25).index(), 25usize);
        assert_eq!(JobId::from(7u32).raw(), 7);
    }

    #[test]
    fn entity_classification() {
        let e: EntityId = AppId::new(1).into();
        assert_eq!(e, EntityId::App(AppId::new(1)));
        assert_eq!(e.to_string(), "app1");

        let e: EntityId = JobId::new(2).into();
        assert_eq!(e, EntityId::Job(JobId::new(2)));
        assert_eq!(e.to_string(), "job2");
    }

    #[test]
    fn entities_hash_and_order() {
        let mut set = HashSet::new();
        set.insert(EntityId::App(AppId::new(1)));
        set.insert(EntityId::Job(JobId::new(1)));
        set.insert(EntityId::App(AppId::new(1)));
        assert_eq!(set.len(), 2);

        // Apps order before jobs (enum declaration order); same-kind by id.
        let mut v = vec![
            EntityId::Job(JobId::new(0)),
            EntityId::App(AppId::new(5)),
            EntityId::App(AppId::new(2)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                EntityId::App(AppId::new(2)),
                EntityId::App(AppId::new(5)),
                EntityId::Job(JobId::new(0)),
            ]
        );
    }

    #[test]
    fn serde_roundtrip() {
        let e = EntityId::Job(JobId::new(9));
        let s = serde_json::to_string(&e).unwrap();
        let back: EntityId = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
        let n = NodeId::new(4);
        assert_eq!(serde_json::to_string(&n).unwrap(), "4");
    }
}
