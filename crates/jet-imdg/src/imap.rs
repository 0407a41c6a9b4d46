//! The typed `IMap` handle and the per-partition event journal.
//!
//! `IMap` is the data structure the paper leans on everywhere: Jet stores
//! snapshots in it (§2.4), reads reference data from it (Listing 2's hash
//! join build side), and users maintain materialized views over its change
//! stream (§6 "View Maintenance"). The handle routes every operation to the
//! partition owning the key (via the shared stable hash), applies it on the
//! primary replica and synchronously on every backup replica.
//!
//! The **event journal** is a bounded per-partition ring of entry events
//! (put/update/remove). It makes the map a *replayable source* in the §4.5
//! sense: a reader can poll events from any retained sequence number, which
//! is exactly what exactly-once recovery needs.

use crate::grid::{AnyMapSlice, Grid};
use crate::types::{partition_for_key, GridError, PartitionId};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::marker::PhantomData;

/// Kind of change recorded in the event journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryEventKind {
    Added,
    Updated,
    Removed,
}

/// One event-journal record.
#[derive(Debug, Clone)]
pub struct EntryEvent<K, V> {
    pub seq: u64,
    pub kind: EntryEventKind,
    pub key: K,
    /// New value for Added/Updated; the removed value for Removed.
    pub value: V,
}

/// Bounded per-partition journal. Oldest events fall off when full; a reader
/// that asks for an expired sequence is told the earliest retained one.
#[derive(Debug, Clone)]
pub struct Journal<K, V> {
    events: VecDeque<EntryEvent<K, V>>,
    next_seq: u64,
    capacity: usize,
}

impl<K: Clone, V: Clone> Journal<K, V> {
    fn new(capacity: usize) -> Self {
        Journal {
            events: VecDeque::new(),
            next_seq: 0,
            capacity,
        }
    }

    /// Record one change. Key and value are cloned only when the journal
    /// retains events: a map opened with capacity 0 pays for a counter.
    fn append(&mut self, kind: EntryEventKind, key: &K, value: &V) {
        if self.capacity == 0 {
            self.next_seq += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(EntryEvent {
            seq: self.next_seq,
            kind,
            key: key.clone(),
            value: value.clone(),
        });
        self.next_seq += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Earliest retained sequence (== next_seq when empty).
    pub fn head_seq(&self) -> u64 {
        self.events.front().map(|e| e.seq).unwrap_or(self.next_seq)
    }

    /// Sequence the next event will get.
    pub fn tail_seq(&self) -> u64 {
        self.next_seq
    }

    /// Read up to `max` events starting at `from_seq`; returns the events
    /// and the sequence to continue from.
    // jet-analyze: allow(alloc) — read materializes the requested batch for the caller
    pub fn read(&self, from_seq: u64, max: usize) -> (Vec<EntryEvent<K, V>>, u64) {
        let start = from_seq.max(self.head_seq());
        let mut out = Vec::new();
        for e in &self.events {
            if e.seq >= start {
                out.push(e.clone());
                if out.len() == max {
                    break;
                }
            }
        }
        let next = out.last().map(|e| e.seq + 1).unwrap_or(start);
        (out, next)
    }
}

/// Per-partition slice of a typed map: the entries plus the journal.
pub struct MapSlice<K, V> {
    pub entries: HashMap<K, V>,
    pub journal: Journal<K, V>,
}

impl<K, V> MapSlice<K, V>
where
    K: Clone + Eq + Hash + Send + 'static,
    V: Clone + Send + 'static,
{
    fn new(journal_capacity: usize) -> Self {
        MapSlice {
            entries: HashMap::new(),
            journal: Journal::new(journal_capacity),
        }
    }

    /// Insert or replace on this replica, journaling the change; returns the
    /// previous value.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entries.entry(key) {
            Entry::Occupied(mut e) => {
                self.journal
                    .append(EntryEventKind::Updated, e.key(), &value);
                Some(e.insert(value))
            }
            Entry::Vacant(e) => {
                self.journal.append(EntryEventKind::Added, e.key(), &value);
                e.insert(value);
                None
            }
        }
    }
}

impl<K, V> AnyMapSlice for MapSlice<K, V>
where
    K: Clone + Eq + Hash + Send + 'static,
    V: Clone + Send + 'static,
{
    fn clone_box(&self) -> Box<dyn AnyMapSlice> {
        Box::new(MapSlice {
            entries: self.entries.clone(),
            journal: self.journal.clone(),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn entry_count(&self) -> usize {
        self.entries.len()
    }

    fn journal_len(&self) -> usize {
        self.journal.len()
    }

    fn absorb(&mut self, other: &dyn AnyMapSlice) {
        let other = other
            .as_any()
            .downcast_ref::<MapSlice<K, V>>()
            .expect("absorb called with mismatched map slice type");
        for (k, v) in &other.entries {
            self.entries.insert(k.clone(), v.clone());
        }
        // Adopt the longer journal so replay can continue after migration.
        if other.journal.tail_seq() > self.journal.tail_seq() {
            self.journal = other.journal.clone();
        }
    }
}

/// Default journal capacity per partition.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 14;

/// Typed, partitioned, replicated map handle. Cheap to clone.
pub struct IMap<K, V> {
    grid: Grid,
    name: String,
    journal_capacity: usize,
    _types: PhantomData<fn(K, V)>,
}

impl<K, V> Clone for IMap<K, V> {
    fn clone(&self) -> Self {
        IMap {
            grid: self.grid.clone(),
            name: self.name.clone(),
            journal_capacity: self.journal_capacity,
            _types: PhantomData,
        }
    }
}

impl<K, V> IMap<K, V>
where
    K: Clone + Eq + Hash + Send + 'static,
    V: Clone + Send + 'static,
{
    /// Open (or create) the named map on `grid`.
    pub fn new(grid: &Grid, name: &str) -> Self {
        Self::with_journal_capacity(grid, name, DEFAULT_JOURNAL_CAPACITY)
    }

    /// Open with an explicit per-partition journal capacity (0 disables the
    /// journal).
    pub fn with_journal_capacity(grid: &Grid, name: &str, journal_capacity: usize) -> Self {
        IMap {
            grid: grid.clone(),
            name: name.to_string(),
            journal_capacity,
            _types: PhantomData,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Partition the key routes to.
    pub fn partition_of(&self, key: &K) -> PartitionId {
        partition_for_key(key, self.grid.partition_count())
    }

    // jet-analyze: allow(alloc, panic) — IMDG stand-in: boxed partition closure per operation; member-side in the real system
    fn with_slice_mut<R>(
        &self,
        node: &crate::grid::MemberNode,
        p: PartitionId,
        f: impl FnOnce(&mut MapSlice<K, V>) -> R,
    ) -> R {
        let cap = self.journal_capacity;
        let mut store = node.partition(p);
        let slice = store.slice_mut(&self.name, || Box::new(MapSlice::<K, V>::new(cap)));
        let typed = slice
            .as_any_mut()
            .downcast_mut::<MapSlice<K, V>>()
            .expect("map opened with mismatched types");
        f(typed)
    }

    /// Insert or replace; returns the previous value. Applied to the primary
    /// and synchronously to every backup replica; the last replica takes
    /// ownership of `key` and `value`, so a single-replica put clones nothing.
    // jet-analyze: allow(alloc) — owned key/value storage clones on insert by design (the map owns its entries)
    pub fn put(&self, key: K, value: V) -> Option<V> {
        let p = self.partition_of(&key);
        let replicas = self.grid.replica_nodes(p);
        let (last, rest) = replicas.split_last()?;
        let mut prev = None;
        for (i, node) in rest.iter().enumerate() {
            let old = self.with_slice_mut(node, p, |s| s.insert(key.clone(), value.clone()));
            if i == 0 {
                prev = old;
            }
        }
        let old = self.with_slice_mut(last, p, |s| s.insert(key, value));
        if rest.is_empty() {
            prev = old;
        }
        prev
    }

    /// Read from the primary replica.
    pub fn get(&self, key: &K) -> Option<V> {
        let p = self.partition_of(key);
        let node = self.grid.primary_node(p).ok()?;
        let mut store = node.partition(p);
        let slice = store.slice_mut(&self.name, || {
            Box::new(MapSlice::<K, V>::new(self.journal_capacity))
        });
        slice
            .as_any()
            .downcast_ref::<MapSlice<K, V>>()
            .expect("map opened with mismatched types")
            .entries
            .get(key)
            .cloned()
    }

    /// Remove; returns the removed value (from the primary).
    pub fn remove(&self, key: &K) -> Option<V> {
        let p = self.partition_of(key);
        let replicas = self.grid.replica_nodes(p);
        let mut prev = None;
        for (i, node) in replicas.iter().enumerate() {
            let old = self.with_slice_mut(node, p, |s| {
                let old = s.entries.remove(key);
                if let Some(v) = &old {
                    s.journal.append(EntryEventKind::Removed, key, v);
                }
                old
            });
            if i == 0 {
                prev = old;
            }
        }
        prev
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Logical entry count (sum over primary replicas).
    pub fn len(&self) -> usize {
        self.grid.map_size(&self.name)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all entries (on every replica).
    pub fn clear(&self) {
        for p in 0..self.grid.partition_count() {
            let pid = PartitionId(p);
            for node in self.grid.replica_nodes(pid) {
                self.with_slice_mut(&node, pid, |s| s.entries.clear());
            }
        }
    }

    /// Visit every `(key, value)` pair on the primary replicas by reference,
    /// one partition lock at a time. A point-in-time scan, not a consistent
    /// snapshot (AP semantics, §1). `f` must not touch this map.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for p in 0..self.grid.partition_count() {
            let pid = PartitionId(p);
            if let Ok(node) = self.grid.primary_node(pid) {
                let store = node.partition(pid);
                if let Some(slice) = store.slice(&self.name) {
                    let typed = slice
                        .as_any()
                        .downcast_ref::<MapSlice<K, V>>()
                        .expect("map opened with mismatched types");
                    typed.entries.iter().for_each(|(k, v)| f(k, v));
                }
            }
        }
    }

    /// Materialize all `(key, value)` pairs from primary replicas.
    pub fn entries(&self) -> Vec<(K, V)> {
        self.values_where(|_, _| true)
    }

    /// Predicate scan over primary replicas ("queryable" map, §4.2): the
    /// predicate runs by reference under the partition lock and only the
    /// matching pairs are cloned out.
    pub fn values_where(&self, mut pred: impl FnMut(&K, &V) -> bool) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.for_each(|k, v| {
            if pred(k, v) {
                out.push((k.clone(), v.clone()));
            }
        });
        out
    }

    /// Remove every entry matching `pred`, in place on every replica under
    /// its partition lock; returns how many the primaries dropped. Cost is
    /// one pass over the map, and nothing is cloned unless the map keeps a
    /// journal (each removal is then an event like any other).
    pub fn remove_where(&self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        let mut removed = 0;
        for p in 0..self.grid.partition_count() {
            let pid = PartitionId(p);
            let mut primary = true;
            self.grid.for_each_replica(pid, |node| {
                let mut store = node.partition(pid);
                if let Some(slice) = store.existing_slice_mut(&self.name) {
                    let s = slice
                        .as_any_mut()
                        .downcast_mut::<MapSlice<K, V>>()
                        .expect("map opened with mismatched types");
                    let before = s.entries.len();
                    let journal = &mut s.journal;
                    s.entries.retain(|k, v| {
                        let hit = pred(k, v);
                        if hit {
                            journal.append(EntryEventKind::Removed, k, v);
                        }
                        !hit
                    });
                    if primary {
                        removed += before - s.entries.len();
                    }
                }
                primary = false;
            });
        }
        removed
    }

    /// Atomically update the value under `key` on the primary (then
    /// replicate), returning the new value. Used for counters/aggregates.
    pub fn compute(&self, key: K, f: impl FnOnce(Option<&V>) -> Option<V>) -> Option<V> {
        let p = self.partition_of(&key);
        let replicas = self.grid.replica_nodes(p);
        if replicas.is_empty() {
            return None;
        }
        // Decide on the primary, then propagate the decision to backups.
        let decided: Option<V> = self.with_slice_mut(&replicas[0], p, |s| {
            let new = f(s.entries.get(&key));
            match &new {
                Some(v) => {
                    let kind = if s.entries.contains_key(&key) {
                        EntryEventKind::Updated
                    } else {
                        EntryEventKind::Added
                    };
                    s.entries.insert(key.clone(), v.clone());
                    s.journal.append(kind, &key, v);
                }
                None => {
                    if let Some(old) = s.entries.remove(&key) {
                        s.journal.append(EntryEventKind::Removed, &key, &old);
                    }
                }
            }
            new
        });
        for node in &replicas[1..] {
            self.with_slice_mut(node, p, |s| match &decided {
                Some(v) => {
                    s.entries.insert(key.clone(), v.clone());
                }
                None => {
                    s.entries.remove(&key);
                }
            });
        }
        decided
    }

    /// Poll the event journal of partition `p` starting at `from_seq`.
    /// Returns the events and the sequence to resume from.
    // jet-analyze: allow(panic) — journal bounds are checked against the caller-provided sequence
    pub fn read_journal(
        &self,
        p: PartitionId,
        from_seq: u64,
        max: usize,
    ) -> Result<(Vec<EntryEvent<K, V>>, u64), GridError> {
        let node = self.grid.primary_node(p)?;
        let store = node.partition(p);
        match store.slice(&self.name) {
            Some(slice) => {
                let typed = slice
                    .as_any()
                    .downcast_ref::<MapSlice<K, V>>()
                    .expect("map opened with mismatched types");
                Ok(typed.journal.read(from_seq, max))
            }
            None => Ok((Vec::new(), from_seq)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MemberId;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn grid() -> Grid {
        Grid::with_partition_count(3, 1, 31)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let g = grid();
        let m: IMap<String, u64> = IMap::new(&g, "m");
        assert_eq!(m.put("a".into(), 1), None);
        assert_eq!(m.put("a".into(), 2), Some(1));
        assert_eq!(m.get(&"a".into()), Some(2));
        assert!(m.contains_key(&"a".into()));
        assert_eq!(m.remove(&"a".into()), Some(2));
        assert_eq!(m.get(&"a".into()), None);
        assert!(m.is_empty());
    }

    #[test]
    fn len_counts_across_partitions() {
        let g = grid();
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..200 {
            m.put(i, i);
        }
        assert_eq!(m.len(), 200);
        m.clear();
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn entries_and_predicate_scan() {
        let g = grid();
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..100 {
            m.put(i, i * 10);
        }
        let mut all = m.entries();
        all.sort_unstable();
        assert_eq!(all.len(), 100);
        assert_eq!(all[5], (5, 50));
        let evens = m.values_where(|k, _| k.is_multiple_of(2));
        assert_eq!(evens.len(), 50);
    }

    /// A value that counts how often it is cloned.
    struct Counted(u64, Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, Ordering::Relaxed);
            Counted(self.0, self.1.clone())
        }
    }

    #[test]
    fn scans_and_unjournaled_writes_clone_only_what_they_return() {
        let g = Grid::with_partition_count(1, 0, 31);
        let m: IMap<u64, Counted> = IMap::with_journal_capacity(&g, "m", 0);
        let clones = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            m.put(i, Counted(i, clones.clone()));
        }
        assert_eq!(
            clones.load(Ordering::Relaxed),
            0,
            "the only replica takes ownership; no journal, no copy"
        );
        let mut sum = 0;
        m.for_each(|_, v| sum += v.0);
        assert_eq!(sum, 4950);
        assert_eq!(m.values_where(|k, _| *k < 3).len(), 3);
        assert_eq!(clones.load(Ordering::Relaxed), 3, "only matches are cloned");
        assert_eq!(m.remove_where(|k, _| *k >= 3), 97);
        assert_eq!(clones.load(Ordering::Relaxed), 3, "removal clones nothing");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn remove_where_applies_to_every_replica_and_journals_like_remove() {
        let g = Grid::with_partition_count(3, 1, 8);
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..100 {
            m.put(i, i);
        }
        assert_eq!(m.remove_where(|k, _| k.is_multiple_of(2)), 50);
        assert_eq!(m.len(), 50);
        let removed: usize = (0..8)
            .map(|p| m.read_journal(PartitionId(p), 0, 1000).unwrap().0)
            .map(|events| {
                events
                    .iter()
                    .filter(|e| e.kind == EntryEventKind::Removed)
                    .count()
            })
            .sum();
        assert_eq!(removed, 50);
        // Backups dropped the same entries: promotion resurrects nothing.
        g.kill_member(MemberId(0)).unwrap();
        assert_eq!(m.len(), 50);
        assert!(m.entries().iter().all(|(k, _)| !k.is_multiple_of(2)));
        // A partition that never held the map is left without a slice.
        let empty: IMap<u64, u64> = IMap::new(&g, "never-written");
        assert_eq!(empty.remove_where(|_, _| true), 0);
        assert!(g.members().iter().all(|&id| g
            .node(id)
            .unwrap()
            .partition(PartitionId(0))
            .slice("never-written")
            .is_none()));
    }

    #[test]
    fn compute_inserts_updates_and_removes() {
        let g = grid();
        let m: IMap<&'static str, u64> = IMap::new(&g, "m");
        assert_eq!(
            m.compute("k", |old| Some(old.copied().unwrap_or(0) + 1)),
            Some(1)
        );
        assert_eq!(
            m.compute("k", |old| Some(old.copied().unwrap_or(0) + 1)),
            Some(2)
        );
        assert_eq!(m.get(&"k"), Some(2));
        assert_eq!(m.compute("k", |_| None), None);
        assert_eq!(m.get(&"k"), None);
    }

    #[test]
    fn compute_survives_failover() {
        let g = grid();
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..100 {
            m.compute(i, |old| Some(old.copied().unwrap_or(0) + i));
        }
        g.kill_member(MemberId(0)).unwrap();
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(i), "key {i} lost or stale after failover");
        }
    }

    #[test]
    fn journal_records_changes_in_order() {
        let g = Grid::with_partition_count(1, 0, 1); // single partition
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        m.put(1, 10);
        m.put(1, 11);
        m.remove(&1);
        let (events, next) = m.read_journal(PartitionId(0), 0, 100).unwrap();
        assert_eq!(next, 3);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EntryEventKind::Added);
        assert_eq!(events[1].kind, EntryEventKind::Updated);
        assert_eq!(events[1].value, 11);
        assert_eq!(events[2].kind, EntryEventKind::Removed);
    }

    #[test]
    fn journal_read_is_resumable_and_bounded() {
        let g = Grid::with_partition_count(1, 0, 1);
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..10 {
            m.put(i, i);
        }
        let (batch1, next) = m.read_journal(PartitionId(0), 0, 4).unwrap();
        assert_eq!(batch1.len(), 4);
        let (batch2, next2) = m.read_journal(PartitionId(0), next, 100).unwrap();
        assert_eq!(batch2.len(), 6);
        assert_eq!(next2, 10);
        let (empty, next3) = m.read_journal(PartitionId(0), next2, 100).unwrap();
        assert!(empty.is_empty());
        assert_eq!(next3, 10);
    }

    #[test]
    fn journal_overflow_drops_oldest() {
        let g = Grid::with_partition_count(1, 0, 1);
        let m: IMap<u64, u64> = IMap::with_journal_capacity(&g, "m", 4);
        for i in 0..10 {
            m.put(i, i);
        }
        let (events, _) = m.read_journal(PartitionId(0), 0, 100).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].seq, 6, "expected oldest retained seq 6");
    }

    #[test]
    fn journal_survives_member_kill() {
        let g = Grid::with_partition_count(3, 1, 8);
        let m: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..50 {
            m.put(i, i);
        }
        let before: usize = (0..8)
            .map(|p| m.read_journal(PartitionId(p), 0, 1000).unwrap().0.len())
            .sum();
        assert_eq!(before, 50);
        g.kill_member(MemberId(2)).unwrap();
        let after: usize = (0..8)
            .map(|p| m.read_journal(PartitionId(p), 0, 1000).unwrap().0.len())
            .sum();
        assert_eq!(after, 50, "journal entries lost on failover");
    }

    #[test]
    fn two_maps_same_grid_are_independent() {
        let g = grid();
        let a: IMap<u64, u64> = IMap::new(&g, "a");
        let b: IMap<u64, u64> = IMap::new(&g, "b");
        a.put(1, 100);
        b.put(1, 200);
        assert_eq!(a.get(&1), Some(100));
        assert_eq!(b.get(&1), Some(200));
        assert_eq!(g.map_size("a"), 1);
        assert_eq!(g.map_size("b"), 1);
    }
}
