//! [`IdMap`]: the id-keyed map a [`Placement`](crate::Placement) is made
//! of, kept as one vector of `(key, value)` pairs with strictly ascending
//! keys.
//!
//! A plan is rebuilt, copied, merged, diffed and walked every control
//! cycle, and its keys are ids that arrive in order almost always: the
//! allocator reads back applications and jobs in problem order, a shard
//! merge appends lanes, an insert lands past the last key. A sorted
//! vector does each of those over contiguous memory in one allocation,
//! where a B-tree pays a node per few entries and a pointer chase per
//! step. It keeps the contract of `std::collections::BTreeMap` for the
//! part of that API the workspace calls: ascending iteration, `insert` that
//! replaces and returns the old value, `FromIterator` and serde input
//! where the last of a repeated key wins, `append` where the other map's
//! value wins, `{k: v, …}` as `Debug` and the same JSON object in serde.
//! A key that is not past the last one costs a binary search, and an
//! insert or removal there shifts the tail.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An ordered map over a vector of `(key, value)` pairs whose keys are
/// strictly ascending.
#[derive(Clone, PartialEq)]
pub struct IdMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }
}

impl<K, V> IdMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.entries.iter())
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable values in ascending key order.
    pub fn values_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut V> + ExactSizeIterator {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keep only the entries `keep` says yes to, visiting them in
    /// ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> IdMap<K, V> {
    /// Position of `key`, or where it would be inserted.
    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.entries[at].1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Put `value` under `key`, returning the value it replaces. A key
    /// past the last one is pushed without a search.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Take the entry under `key` out, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|at| self.entries.remove(at).1)
    }

    /// The slot of `key`, to read or fill in place.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let at = self.find(&key);
        Entry { map: self, key, at }
    }

    /// Move every entry of `other` into this map, leaving `other` empty;
    /// on a key both hold, `other`'s value wins (it sorts after this
    /// map's, and the last of a repeated key is kept).
    pub fn append(&mut self, other: &mut Self) {
        let mut entries = std::mem::take(&mut self.entries);
        entries.append(&mut other.entries);
        *self = Self::from_entries(entries);
    }

    /// `entries` as a map: taken as they are when their keys strictly
    /// ascend (one pass checks it), else sorted stably by key with the
    /// last value of a repeated key kept, as `BTreeMap::from_iter` does.
    fn from_entries(mut entries: Vec<(K, V)>) -> Self {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // `dedup_by` keeps the first of a run: hand it each later
            // value, so the last one is what stays.
            entries.dedup_by(|later, kept| {
                let repeat = later.0 == kept.0;
                if repeat {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                repeat
            });
        }
        IdMap { entries }
    }
}

/// One key's slot in an [`IdMap`], from [`IdMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut IdMap<K, V>,
    key: K,
    at: Result<usize, usize>,
}

impl<'a, K, V: Default> Entry<'a, K, V> {
    /// The value in the slot, after filling an empty one with
    /// `V::default()`.
    pub fn or_default(self) -> &'a mut V {
        let at = match self.at {
            Ok(at) => at,
            Err(at) => {
                self.map.entries.insert(at, (self.key, V::default()));
                at
            }
        };
        &mut self.map.entries[at].1
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

impl<K: Ord, V> std::ops::Index<&K> for IdMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The JSON object a `BTreeMap` of the same entries writes.
impl<K: Serialize + Ord, V: Serialize> Serialize for IdMap<K, V> {
    fn to_value(&self) -> serde::Value {
        self.iter().collect::<BTreeMap<_, _>>().to_value()
    }
}

/// Read as a `BTreeMap` reads: the last of a repeated key wins.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for IdMap<K, V> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        BTreeMap::<K, V>::from_value(v).map(|map| map.into_iter().collect())
    }
}

impl<K, V> IntoIterator for IdMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a IdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Entries of an [`IdMap`] in ascending key order.
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> DoubleEndedIterator for Iter<'_, K, V> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, v)| (k, v))
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}
