//! The grid: a cluster of in-process member nodes holding partitioned,
//! replicated data (paper Fig. 5/6).
//!
//! Storage layout: every member node has one `PartitionStore` per partition
//! id; a store holds the per-partition slice of every named map. Whether a
//! member's copy of partition P is the *primary* or a *backup* is decided
//! solely by the [`PartitionTable`] — promotion is a metadata change, which
//! is why recovery is fast (the paper's Fig. 6 argument).
//!
//! Writes go to the primary and are replicated synchronously to all backup
//! replicas. Reads are served by the primary. When a member is killed its
//! data vanishes with it; the table promotes backups and the grid re-copies
//! data to restore redundancy. Graceful shutdown rebalances *first*, so no
//! data is lost even with zero backups.

use crate::partition_table::{Migration, PartitionTable};
use crate::types::{GridError, MemberId, PartitionId, DEFAULT_PARTITION_COUNT};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Type-erased per-partition slice of a named map. The grid migrates and
/// replicates through this trait without knowing key/value types.
pub trait AnyMapSlice: Send {
    fn clone_box(&self) -> Box<dyn AnyMapSlice>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn entry_count(&self) -> usize;
    /// Events the slice's journal currently retains (0 for a structure
    /// without one).
    fn journal_len(&self) -> usize {
        0
    }
    /// Merge `other` (same concrete type) into self, overwriting keys.
    fn absorb(&mut self, other: &dyn AnyMapSlice);
}

/// The per-partition container: map name → type-erased slice.
#[derive(Default)]
pub struct PartitionStore {
    maps: HashMap<String, Box<dyn AnyMapSlice>>,
}

impl PartitionStore {
    // jet-analyze: allow(alloc) — IMDG stand-in: named-slice tables are keyed by owned strings
    pub fn slice_mut<F>(&mut self, name: &str, create: F) -> &mut Box<dyn AnyMapSlice>
    where
        F: FnOnce() -> Box<dyn AnyMapSlice>,
    {
        self.maps.entry(name.to_string()).or_insert_with(create)
    }

    pub fn slice(&self, name: &str) -> Option<&dyn AnyMapSlice> {
        self.maps.get(name).map(|b| b.as_ref())
    }

    /// The named slice if this partition already holds one: bulk operations
    /// that only ever shrink a map must not create empty slices on the way.
    pub fn existing_slice_mut(&mut self, name: &str) -> Option<&mut (dyn AnyMapSlice + 'static)> {
        self.maps.get_mut(name).map(|b| &mut **b)
    }

    pub fn entry_count(&self) -> usize {
        self.maps.values().map(|m| m.entry_count()).sum()
    }

    pub fn journal_len(&self) -> usize {
        self.maps.values().map(|m| m.journal_len()).sum()
    }

    fn clone_all(&self) -> PartitionStore {
        PartitionStore {
            maps: self
                .maps
                .iter()
                .map(|(k, v)| (k.clone(), v.clone_box()))
                .collect(),
        }
    }

    fn absorb(&mut self, other: &PartitionStore) {
        for (name, slice) in &other.maps {
            match self.maps.get_mut(name) {
                Some(mine) => mine.absorb(slice.as_ref()),
                None => {
                    self.maps.insert(name.clone(), slice.clone_box());
                }
            }
        }
    }
}

/// One cluster member's storage.
pub struct MemberNode {
    pub id: MemberId,
    partitions: Vec<Mutex<PartitionStore>>,
}

impl MemberNode {
    fn new(id: MemberId, partition_count: u32) -> Self {
        MemberNode {
            id,
            partitions: (0..partition_count)
                .map(|_| Mutex::new(PartitionStore::default()))
                .collect(),
        }
    }

    /// Lock the store of one partition.
    // jet-analyze: allow(block) — IMDG stand-in: partition tables under short locks model the member boundary
    pub fn partition(&self, p: PartitionId) -> parking_lot::MutexGuard<'_, PartitionStore> {
        self.partitions[p.0 as usize].lock()
    }

    /// Total entries across all partitions and maps on this member.
    pub fn entry_count(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().entry_count()).sum()
    }

    /// Total journal events retained across all partitions and maps on this
    /// member — with `entry_count`, what the member's memory grows by.
    pub fn journal_len(&self) -> usize {
        self.partitions.iter().map(|p| p.lock().journal_len()).sum()
    }
}

struct ClusterState {
    next_member: u32,
    table: PartitionTable,
    nodes: HashMap<MemberId, Arc<MemberNode>>,
}

struct GridInner {
    partition_count: u32,
    backup_count: usize,
    state: RwLock<ClusterState>,
}

/// Handle to the in-memory data grid. Cheap to clone; all clones address the
/// same cluster.
#[derive(Clone)]
pub struct Grid {
    inner: Arc<GridInner>,
}

impl Grid {
    /// Start a grid with `members` initial members, the default 271
    /// partitions, and `backup_count` backup replicas per partition.
    pub fn new(members: usize, backup_count: usize) -> Self {
        Self::with_partition_count(members, backup_count, DEFAULT_PARTITION_COUNT)
    }

    /// As [`Grid::new`] with an explicit partition count (tests use small
    /// counts to make exhaustive checks cheap).
    pub fn with_partition_count(members: usize, backup_count: usize, partition_count: u32) -> Self {
        assert!(members > 0, "grid needs at least one member");
        let ids: Vec<MemberId> = (0..members as u32).map(MemberId).collect();
        let table = PartitionTable::assign(&ids, partition_count, backup_count);
        let nodes = ids
            .iter()
            .map(|&id| (id, Arc::new(MemberNode::new(id, partition_count))))
            .collect();
        Grid {
            inner: Arc::new(GridInner {
                partition_count,
                backup_count,
                state: RwLock::new(ClusterState {
                    next_member: members as u32,
                    table,
                    nodes,
                }),
            }),
        }
    }

    pub fn partition_count(&self) -> u32 {
        self.inner.partition_count
    }

    pub fn backup_count(&self) -> usize {
        self.inner.backup_count
    }

    /// Live member ids, ascending.
    pub fn members(&self) -> Vec<MemberId> {
        let mut ms: Vec<MemberId> = self.inner.state.read().nodes.keys().copied().collect();
        ms.sort_unstable();
        ms
    }

    /// Snapshot of the current partition table.
    pub fn table(&self) -> PartitionTable {
        self.inner.state.read().table.clone()
    }

    /// The node storing `m`'s data, if alive.
    pub fn node(&self, m: MemberId) -> Result<Arc<MemberNode>, GridError> {
        self.inner
            .state
            .read()
            .nodes
            .get(&m)
            .cloned()
            .ok_or(GridError::MemberDown(m))
    }

    /// Primary owner node of partition `p`.
    // jet-analyze: allow(block) — IMDG stand-in: partition tables under short locks model the member boundary
    pub fn primary_node(&self, p: PartitionId) -> Result<Arc<MemberNode>, GridError> {
        let st = self.inner.state.read();
        let m = st.table.primary(p).ok_or(GridError::NoMembers)?;
        st.nodes.get(&m).cloned().ok_or(GridError::MemberDown(m))
    }

    /// All replica nodes (primary first) of partition `p` that are alive.
    // jet-analyze: allow(alloc, block) — IMDG stand-in: partition tables under short locks model the member boundary
    pub fn replica_nodes(&self, p: PartitionId) -> Vec<Arc<MemberNode>> {
        let st = self.inner.state.read();
        st.table
            .replicas(p)
            .iter()
            .filter_map(|m| st.nodes.get(m).cloned())
            .collect()
    }

    /// Visit every live replica of partition `p`, primary first, without
    /// materializing the chain. The membership is read-locked for the
    /// duration: `f` may lock the partition, never call back into the grid.
    pub fn for_each_replica(&self, p: PartitionId, mut f: impl FnMut(&MemberNode)) {
        let st = self.inner.state.read();
        for m in st.table.replicas(p) {
            if let Some(node) = st.nodes.get(m) {
                f(node);
            }
        }
    }

    /// Add a new member and rebalance, copying migrated partition data.
    /// Returns the new member's id.
    pub fn add_member(&self) -> MemberId {
        let mut st = self.inner.state.write();
        let id = MemberId(st.next_member);
        st.next_member += 1;
        let node = Arc::new(MemberNode::new(id, self.inner.partition_count));
        st.nodes.insert(id, node);
        let mut members: Vec<MemberId> = st.nodes.keys().copied().collect();
        members.sort_unstable();
        let (next_table, migrations) = st.table.rebalance(&members);
        Self::apply_migrations(&st.nodes, &migrations);
        Self::drop_stale_replicas(&st.nodes, &st.table, &next_table);
        st.table = next_table;
        id
    }

    /// Kill a member abruptly: its data is lost, backups are promoted, and
    /// redundancy is restored by copying from the new primaries (Fig. 6).
    pub fn kill_member(&self, m: MemberId) -> Result<(), GridError> {
        let mut st = self.inner.state.write();
        if st.nodes.remove(&m).is_none() {
            return Err(GridError::MemberDown(m));
        }
        if st.nodes.is_empty() {
            return Ok(()); // cluster is gone; table left as-is
        }
        let (next_table, migrations) = st.table.promote_on_failure(m);
        Self::apply_migrations(&st.nodes, &migrations);
        st.table = next_table;
        Ok(())
    }

    /// Gracefully shut down a member: migrate its data away first, then
    /// remove it. No data is lost even with `backup_count == 0`.
    pub fn shutdown_member(&self, m: MemberId) -> Result<(), GridError> {
        let mut st = self.inner.state.write();
        if !st.nodes.contains_key(&m) {
            return Err(GridError::MemberDown(m));
        }
        let members: Vec<MemberId> = st.nodes.keys().copied().filter(|&x| x != m).collect();
        if members.is_empty() {
            st.nodes.remove(&m);
            return Ok(());
        }
        let mut sorted = members.clone();
        sorted.sort_unstable();
        let (next_table, migrations) = st.table.rebalance(&sorted);
        Self::apply_migrations(&st.nodes, &migrations);
        st.nodes.remove(&m);
        st.table = next_table;
        Ok(())
    }

    fn apply_migrations(nodes: &HashMap<MemberId, Arc<MemberNode>>, migrations: &[Migration]) {
        for mig in migrations {
            let (Some(src), Some(dst)) = (nodes.get(&mig.from), nodes.get(&mig.to)) else {
                continue;
            };
            let copied = src.partition(mig.partition).clone_all();
            dst.partition(mig.partition).absorb(&copied);
        }
    }

    /// Remove partition copies from members that no longer appear in the
    /// new table's replica chain (post-rebalance cleanup).
    fn drop_stale_replicas(
        nodes: &HashMap<MemberId, Arc<MemberNode>>,
        old: &PartitionTable,
        new: &PartitionTable,
    ) {
        for p in 0..old.partition_count() {
            let pid = PartitionId(p);
            for m in old.replicas(pid) {
                if !new.replicas(pid).contains(m) {
                    if let Some(node) = nodes.get(m) {
                        *node.partition(pid) = PartitionStore::default();
                    }
                }
            }
        }
    }

    /// Sum of entries over primary replicas of a named map — the logical
    /// size of the map.
    pub fn map_size(&self, name: &str) -> usize {
        let st = self.inner.state.read();
        let mut total = 0;
        for p in 0..self.inner.partition_count {
            let pid = PartitionId(p);
            if let Some(m) = st.table.primary(pid) {
                if let Some(node) = st.nodes.get(&m) {
                    if let Some(slice) = node.partition(pid).slice(name) {
                        total += slice.entry_count();
                    }
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imap::IMap;

    #[test]
    fn new_grid_has_members_and_full_table() {
        let g = Grid::with_partition_count(3, 1, 31);
        assert_eq!(g.members(), vec![MemberId(0), MemberId(1), MemberId(2)]);
        g.table().check_invariants().unwrap();
        assert_eq!(g.partition_count(), 31);
    }

    #[test]
    fn add_member_grows_cluster_and_keeps_invariants() {
        let g = Grid::with_partition_count(2, 1, 31);
        let id = g.add_member();
        assert_eq!(id, MemberId(2));
        assert_eq!(g.members().len(), 3);
        g.table().check_invariants().unwrap();
    }

    #[test]
    fn kill_member_promotes_and_data_survives() {
        let g = Grid::with_partition_count(3, 1, 31);
        let map: IMap<u64, String> = IMap::new(&g, "test");
        for i in 0..500u64 {
            map.put(i, format!("v{i}"));
        }
        assert_eq!(map.len(), 500);
        g.kill_member(MemberId(0)).unwrap();
        assert_eq!(g.members().len(), 2);
        assert_eq!(map.len(), 500, "entries lost after kill");
        for i in 0..500u64 {
            assert_eq!(map.get(&i).as_deref(), Some(format!("v{i}").as_str()));
        }
        g.table().check_invariants().unwrap();
    }

    #[test]
    fn double_failure_with_one_backup_loses_nothing_if_sequential() {
        // Sequential failures allow re-replication in between, so a single
        // backup still protects the data.
        let g = Grid::with_partition_count(4, 1, 31);
        let map: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..300 {
            map.put(i, i * 2);
        }
        g.kill_member(MemberId(1)).unwrap();
        g.kill_member(MemberId(2)).unwrap();
        assert_eq!(map.len(), 300);
    }

    #[test]
    fn graceful_shutdown_preserves_data_with_zero_backups() {
        let g = Grid::with_partition_count(3, 0, 31);
        let map: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..300 {
            map.put(i, i);
        }
        g.shutdown_member(MemberId(0)).unwrap();
        assert_eq!(map.len(), 300, "graceful shutdown lost data");
    }

    #[test]
    fn kill_with_zero_backups_loses_that_members_partitions_only() {
        let g = Grid::with_partition_count(3, 0, 31);
        let map: IMap<u64, u64> = IMap::new(&g, "m");
        for i in 0..300 {
            map.put(i, i);
        }
        let owned = g.table().owned_primaries(MemberId(0)).len();
        assert!(owned > 0);
        g.kill_member(MemberId(0)).unwrap();
        let remaining = map.len();
        assert!(remaining < 300, "no data lost despite zero backups?");
        assert!(remaining > 0);
    }

    #[test]
    fn killing_unknown_member_errors() {
        let g = Grid::with_partition_count(1, 0, 7);
        assert_eq!(
            g.kill_member(MemberId(9)),
            Err(GridError::MemberDown(MemberId(9)))
        );
    }

    #[test]
    fn node_lookup_fails_for_dead_member() {
        let g = Grid::with_partition_count(2, 1, 7);
        g.kill_member(MemberId(1)).unwrap();
        assert!(g.node(MemberId(1)).is_err());
        assert!(g.node(MemberId(0)).is_ok());
    }

    #[test]
    fn replica_nodes_lists_live_chain() {
        let g = Grid::with_partition_count(3, 1, 7);
        let nodes = g.replica_nodes(PartitionId(0));
        assert_eq!(nodes.len(), 2);
    }
}
