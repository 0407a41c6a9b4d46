//! Job snapshot storage over the grid (paper §2.4, §4.4).
//!
//! "Unlike most streaming systems that store their snapshots in stable
//! object storage like Amazon's S3, Jet uses IMDG for storing snapshots in a
//! partitioned and replicated manner."
//!
//! A snapshot generation is a bag of `(vertex, state-key) → state-bytes`
//! records plus a completion marker. Like Jet's own snapshot writer, the
//! store does not hold one map entry per record: a tasklet hands over what
//! it staged in one `save_snapshot` quantum as one **chunk**, and a chunk is
//! one `IMap` entry.
//!
//! * **Key** — `(snapshot_id, vertex, writer, seq)`: `writer` is the global
//!   index of the writing tasklet among the vertex's instances, `seq` counts
//!   the chunks that tasklet wrote for that snapshot. Nothing in the key is
//!   local to a store handle, so two handles over one grid (a recovery's
//!   fresh registry, the members of a cluster) can never overwrite each
//!   other's chunks.
//! * **Value** — one blob in `jet_util::codec` format: a varint record count,
//!   then per record the key and the value as length-prefixed byte strings.
//!   The count is what lets a reader tell a blob cut short at a record
//!   boundary from a whole one.
//! * **Read** — the chunks of a vertex are decoded in `(writer, seq)` order,
//!   records in staging order, and a later record replaces an earlier one
//!   with the same key: the last write wins, as it did when every record was
//!   a map entry of its own. (The engine's processors embed the writing
//!   instance in their record keys or own disjoint key sets; should two
//!   writers stage the same key, the higher writer index wins.)
//! * **Retire** — after `mark_complete(id)` exactly the generations `id - 1`
//!   and `id` remain. Older chunks are dropped in place, partition by
//!   partition, so completing a snapshot costs one pass over a few dozen
//!   chunk entries however many records they hold. A snapshot only counts
//!   once its completion marker — written after every processor acked — is
//!   present.
//!
//! Both maps are opened without an event journal: nothing replays snapshot
//! writes, and a journal would retain every chunk a second time.

use crate::grid::Grid;
use crate::imap::IMap;
use crate::types::MemberId;
use jet_util::codec::{ByteReader, ByteWriter, DecodeError};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Injectable snapshot-store failure switches (fault testing, §4.4).
///
/// The switches model an unavailable backing store: writes fail (the
/// snapshot being taken can never become a recovery point) or reads fail
/// (recovery cannot load state and must retry). Counters record every
/// rejected operation — and every read that met a corrupt chunk, which fails
/// like one — for the metrics registry.
#[derive(Debug, Default)]
pub struct StoreFaults {
    fail_writes: AtomicBool,
    fail_reads: AtomicBool,
    write_failures: AtomicU64,
    read_failures: AtomicU64,
}

impl StoreFaults {
    pub fn set_fail_writes(&self, fail: bool) {
        self.fail_writes.store(fail, Ordering::Release);
    }

    pub fn set_fail_reads(&self, fail: bool) {
        self.fail_reads.store(fail, Ordering::Release);
    }

    pub fn writes_failing(&self) -> bool {
        self.fail_writes.load(Ordering::Acquire)
    }

    pub fn reads_failing(&self) -> bool {
        self.fail_reads.load(Ordering::Acquire)
    }

    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }

    pub fn read_failures(&self) -> u64 {
        self.read_failures.load(Ordering::Relaxed)
    }
}

/// State records as recovery hands them to a processor: `(key, value)`.
pub type Records = Vec<(Vec<u8>, Vec<u8>)>;

/// Key of one snapshot chunk; see the module docs. Ordered the way a
/// generation is read: by vertex, then writer, then chunk sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ChunkKey {
    snapshot_id: u64,
    vertex: String,
    writer: u32,
    seq: u32,
}

/// Hand every `(key, value)` record of one chunk blob to `f`, in staging
/// order. A blob that ends inside a record, holds fewer or more records
/// than its header counts, or carries bytes past the last one is an error.
fn decode_chunk<'a>(
    blob: &'a [u8],
    mut f: impl FnMut(&'a [u8], &'a [u8]),
) -> Result<(), DecodeError> {
    let mut r = ByteReader::new(blob);
    for _ in 0..r.get_varint()? {
        let key = r.get_bytes()?;
        f(key, r.get_bytes()?);
    }
    if !r.is_exhausted() {
        return Err(DecodeError("bytes after the last snapshot record"));
    }
    Ok(())
}

/// Snapshot storage for one job.
#[derive(Clone)]
pub struct SnapshotStore {
    chunks: IMap<ChunkKey, Vec<u8>>,
    /// snapshot id → (completion marker, source offsets blob)
    markers: IMap<u64, Vec<u8>>,
    /// Shared failure switches; all clones see the same state.
    faults: Arc<StoreFaults>,
}

impl SnapshotStore {
    pub fn new(grid: &Grid, job_id: u64) -> Self {
        let open = |what: &str| format!("__jet.snapshot.{job_id}.{what}");
        SnapshotStore {
            chunks: IMap::with_journal_capacity(grid, &open("chunks"), 0),
            markers: IMap::with_journal_capacity(grid, &open("markers"), 0),
            faults: Arc::new(StoreFaults::default()),
        }
    }

    /// The store's injectable failure switches.
    pub fn faults(&self) -> Arc<StoreFaults> {
        self.faults.clone()
    }

    /// Write chunk `seq` of `writer` into snapshot `snapshot_id`: `body` is
    /// `records` length-prefixed `(key, value)` pairs, as `Outbox` stages
    /// them. One map entry per replica, whatever `records` is. Returns false
    /// if the store rejected the write (injected outage) — the caller must
    /// treat the whole snapshot as unusable.
    #[must_use]
    pub fn write_chunk(
        &self,
        snapshot_id: u64,
        vertex: &str,
        writer: u32,
        seq: u32,
        records: u32,
        body: &[u8],
    ) -> bool {
        if self.faults.writes_failing() {
            self.faults.write_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut blob = ByteWriter::with_capacity(body.len() + 5);
        blob.put_varint(u64::from(records));
        blob.put_raw(body);
        self.chunks.put(
            ChunkKey {
                snapshot_id,
                vertex: vertex.to_string(),
                writer,
                seq,
            },
            blob.into_bytes(),
        );
        true
    }

    /// Mark `snapshot_id` complete, storing the serialized source offsets
    /// alongside (they are what recovery replays from, §4.5), and retire
    /// every generation older than the previous one: Jet keeps the current
    /// and one prior generation.
    pub fn mark_complete(&self, snapshot_id: u64, offsets: Vec<u8>) {
        self.markers.put(snapshot_id, offsets);
        let keep_from = snapshot_id.saturating_sub(1);
        self.chunks.remove_where(|k, _| k.snapshot_id < keep_from);
        self.markers.remove_where(|&id, _| id < keep_from);
    }

    /// Are reads currently served? Under an injected read outage this
    /// returns false and records one failed read attempt — recovery calls
    /// it before loading state and retries with backoff on failure.
    pub fn read_available(&self) -> bool {
        if self.faults.reads_failing() {
            self.faults.read_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Highest complete snapshot id, if any.
    pub fn latest_complete(&self) -> Option<u64> {
        let mut latest = None;
        self.markers
            .for_each(|&id, _| latest = latest.max(Some(id)));
        latest
    }

    /// The source-offsets blob stored with a complete snapshot.
    pub fn offsets_of(&self, snapshot_id: u64) -> Option<Vec<u8>> {
        self.markers.get(&snapshot_id)
    }

    /// The chunks of one generation (of one vertex, if given) in read order.
    fn chunks_of(&self, snapshot_id: u64, vertex: Option<&str>) -> Vec<(ChunkKey, Vec<u8>)> {
        let mut chunks = self.chunks.values_where(|k, _| {
            k.snapshot_id == snapshot_id && vertex.is_none_or(|v| k.vertex == v)
        });
        chunks.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        chunks
    }

    /// All state records of `vertex` in snapshot `snapshot_id`, the last
    /// write of a key winning, in a deterministic order. A truncated or
    /// corrupt chunk fails the whole read, counted as a read failure: a
    /// restore must never run on a silently shortened record set.
    pub fn read_vertex(&self, snapshot_id: u64, vertex: &str) -> Result<Records, DecodeError> {
        let chunks = self.chunks_of(snapshot_id, Some(vertex));
        let mut records: Vec<(&[u8], &[u8])> = Vec::new();
        let mut slot_of: HashMap<&[u8], usize> = HashMap::new();
        for (_, blob) in &chunks {
            let decoded = decode_chunk(blob, |k, v| match slot_of.entry(k) {
                Entry::Occupied(e) => records[*e.get()].1 = v,
                Entry::Vacant(e) => {
                    e.insert(records.len());
                    records.push((k, v));
                }
            });
            if let Err(e) = decoded {
                self.faults.read_failures.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        Ok(records
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect())
    }

    /// Number of distinct records in one snapshot generation — records, not
    /// chunks (diagnostics/tests). Of a corrupt chunk, the records before
    /// the damage count.
    pub fn record_count(&self, snapshot_id: u64) -> usize {
        let chunks = self.chunks_of(snapshot_id, None);
        let mut distinct: HashSet<(&str, &[u8])> = HashSet::new();
        for (key, blob) in &chunks {
            let _ = decode_chunk(blob, |k, _| {
                distinct.insert((&key.vertex, k));
            });
        }
        distinct.len()
    }

    /// Remove every chunk and marker newer than `snapshot_id`. Recovery
    /// calls this when rebuilding: the dead execution may have written
    /// chunks for snapshots that never completed, and the new execution
    /// reuses those ids and chunk sequence numbers — a stale chunk the new
    /// attempt does not overwrite would otherwise merge into it and
    /// resurrect state on a later restore.
    pub fn purge_newer_than(&self, snapshot_id: u64) {
        self.chunks.remove_where(|k, _| k.snapshot_id > snapshot_id);
        self.markers.remove_where(|&id, _| id > snapshot_id);
    }

    /// Recovery's answer to a generation that does not decode: retrying
    /// cannot heal it, so drop its chunks and its completion marker, after
    /// which [`Self::latest_complete`] names the older retained generation
    /// (or none: cold restart). Returns whether the generation was corrupt;
    /// a sound one is left alone.
    pub fn discard_if_corrupt(&self, snapshot_id: u64) -> bool {
        let sound = self
            .chunks_of(snapshot_id, None)
            .iter()
            .all(|(_, blob)| decode_chunk(blob, |_, _| {}).is_ok());
        if !sound {
            self.chunks
                .remove_where(|k, _| k.snapshot_id == snapshot_id);
            self.markers.remove(&snapshot_id);
        }
        !sound
    }

    /// Fault injection: cut one stored chunk of `snapshot_id` short on every
    /// replica, as a torn write would leave it. Returns false if the
    /// generation holds no chunk.
    pub fn corrupt_one_chunk(&self, snapshot_id: u64) -> bool {
        let Some((key, mut blob)) = self.chunks_of(snapshot_id, None).into_iter().next() else {
            return false;
        };
        blob.truncate(blob.len() / 2);
        self.chunks.put(key, blob);
        true
    }

    /// Drop all snapshot data for the job.
    pub fn clear(&self) {
        self.chunks.clear();
        self.markers.clear();
    }

    /// Verify the store survives the loss of `member` (used by recovery
    /// tests): data must be readable after a kill.
    pub fn survives_kill_of(&self, grid: &Grid, member: MemberId) -> bool {
        let before = self.chunks.len();
        let _ = grid.kill_member(member);
        self.chunks.len() == before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (Grid, SnapshotStore) {
        let g = Grid::with_partition_count(3, 1, 31);
        let s = SnapshotStore::new(&g, 7);
        (g, s)
    }

    type Rec<'a> = (&'a [u8], &'a [u8]);

    /// Write `records` as chunk `seq` of `writer`, staged the way `Outbox`
    /// stages them.
    fn write(
        s: &SnapshotStore,
        id: u64,
        vertex: &str,
        (writer, seq): (u32, u32),
        records: &[Rec],
    ) -> bool {
        let mut body = ByteWriter::new();
        for (k, v) in records {
            body.put_bytes(k);
            body.put_bytes(v);
        }
        s.write_chunk(
            id,
            vertex,
            writer,
            seq,
            records.len() as u32,
            body.as_bytes(),
        )
    }

    fn sorted(mut recs: Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
        recs.sort();
        recs
    }

    #[test]
    fn write_and_read_back_by_vertex() {
        let (_g, s) = store();
        assert!(write(
            &s,
            1,
            "agg",
            (0, 0),
            &[(b"k1", b"v1"), (b"k2", b"v2")]
        ));
        assert!(write(&s, 1, "other", (0, 0), &[(b"k1", b"x")]));
        let recs = sorted(s.read_vertex(1, "agg").unwrap());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (b"k1".to_vec(), b"v1".to_vec()));
        assert_eq!(s.read_vertex(1, "other").unwrap().len(), 1);
        assert_eq!(s.read_vertex(2, "agg").unwrap().len(), 0);
        assert_eq!(s.record_count(1), 3, "records, not chunks");
    }

    #[test]
    fn the_last_write_of_a_record_key_wins() {
        let (_g, s) = store();
        // Within a chunk, across the chunks of a writer, and — by writer
        // index — across writers.
        assert!(write(&s, 1, "v", (0, 0), &[(b"a", b"1"), (b"a", b"2")]));
        assert!(write(&s, 1, "v", (0, 1), &[(b"b", b"1")]));
        assert!(write(&s, 1, "v", (0, 2), &[(b"b", b"2")]));
        assert!(write(&s, 1, "v", (1, 0), &[(b"c", b"2")]));
        assert!(write(&s, 1, "v", (0, 3), &[(b"c", b"1")]));
        let expected: Vec<(Vec<u8>, Vec<u8>)> = [b"a", b"b", b"c"]
            .iter()
            .map(|k| (k.to_vec(), b"2".to_vec()))
            .collect();
        assert_eq!(s.read_vertex(1, "v").unwrap(), expected);
        assert_eq!(s.record_count(1), 3);
    }

    #[test]
    fn two_handles_on_one_grid_never_overwrite_each_others_chunks() {
        let (g, a) = store();
        let b = SnapshotStore::new(&g, 7);
        // Chunk keys carry no handle-local state: what identifies a chunk
        // is the tasklet that wrote it and its position in that tasklet's
        // snapshot, whichever handle it went through.
        assert!(write(&a, 1, "v", (0, 0), &[(b"k0", b"a")]));
        assert!(write(&b, 1, "v", (1, 0), &[(b"k1", b"b")]));
        assert!(write(&b, 1, "v", (0, 1), &[(b"k2", b"b")]));
        assert_eq!(a.record_count(1), 3);
        assert_eq!(
            sorted(b.read_vertex(1, "v").unwrap()),
            sorted(a.read_vertex(1, "v").unwrap())
        );
        b.mark_complete(1, vec![]);
        assert_eq!(a.latest_complete(), Some(1));
    }

    #[test]
    fn injected_write_outage_rejects_and_counts() {
        let (_g, s) = store();
        let faults = s.faults();
        faults.set_fail_writes(true);
        assert!(!write(&s, 1, "agg", (0, 0), &[(b"k", b"v")]));
        assert_eq!(faults.write_failures(), 1);
        assert_eq!(s.record_count(1), 0, "rejected write must not land");
        faults.set_fail_writes(false);
        assert!(write(&s, 1, "agg", (0, 0), &[(b"k", b"v")]));
        // Clones share the same switches.
        let s2 = s.clone();
        s2.faults().set_fail_writes(true);
        assert!(!write(&s, 1, "agg", (0, 1), &[(b"k2", b"v")]));
    }

    #[test]
    fn injected_read_outage_gates_read_availability() {
        let (_g, s) = store();
        assert!(s.read_available());
        s.faults().set_fail_reads(true);
        assert!(!s.read_available());
        assert!(!s.read_available());
        assert_eq!(s.faults().read_failures(), 2);
        s.faults().set_fail_reads(false);
        assert!(s.read_available());
    }

    #[test]
    fn completion_markers_and_latest() {
        let (_g, s) = store();
        assert_eq!(s.latest_complete(), None);
        s.mark_complete(1, b"off1".to_vec());
        s.mark_complete(2, b"off2".to_vec());
        assert_eq!(s.latest_complete(), Some(2));
        assert_eq!(s.offsets_of(2), Some(b"off2".to_vec()));
    }

    #[test]
    fn old_generations_are_garbage_collected() {
        let (_g, s) = store();
        for id in 1..=4u64 {
            assert!(write(&s, id, "v", (0, 0), &[(b"k", &[id as u8])]));
            s.mark_complete(id, vec![]);
        }
        // After snapshot 4 completes, snapshots < 3 are gone.
        assert_eq!(s.record_count(1), 0);
        assert_eq!(s.record_count(2), 0);
        assert_eq!(s.record_count(3), 1);
        assert_eq!(s.record_count(4), 1);
        assert_eq!(s.latest_complete(), Some(4));
        assert_eq!(s.offsets_of(2), None, "markers retire with their chunks");
    }

    #[test]
    fn snapshot_survives_member_failure() {
        let (g, s) = store();
        for i in 0..100u32 {
            assert!(write(
                &s,
                1,
                "agg",
                (i % 4, i / 4),
                &[(&i.to_le_bytes(), &[1])]
            ));
        }
        s.mark_complete(1, b"offs".to_vec());
        assert!(s.survives_kill_of(&g, MemberId(1)));
        assert_eq!(s.latest_complete(), Some(1));
        assert_eq!(s.read_vertex(1, "agg").unwrap().len(), 100);
    }

    #[test]
    fn purge_drops_torn_records_but_keeps_complete_generations() {
        let (_g, s) = store();
        assert!(write(&s, 3, "v", (0, 0), &[(b"k", b"v3")]));
        s.mark_complete(3, b"off3".to_vec());
        // A torn attempt at id 4: records but no completion marker.
        assert!(write(&s, 4, "v", (0, 0), &[(b"k", b"v4")]));
        assert!(write(&s, 4, "v", (0, 1), &[(b"stale", b"v4")]));
        s.purge_newer_than(3);
        assert_eq!(s.latest_complete(), Some(3));
        assert_eq!(s.record_count(3), 1);
        assert_eq!(s.record_count(4), 0, "torn records must be purged");
        // The reused id starts from a clean slate.
        assert!(write(&s, 4, "v", (0, 0), &[(b"k", b"v4b")]));
        assert_eq!(
            s.read_vertex(4, "v").unwrap(),
            vec![(b"k".to_vec(), b"v4b".to_vec())]
        );
    }

    #[test]
    fn a_truncated_chunk_fails_the_read_instead_of_shortening_it() {
        let (_g, s) = store();
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..50u32)
            .map(|i| (i.to_le_bytes().to_vec(), vec![i as u8; 3]))
            .collect();
        let borrowed: Vec<Rec> = records.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert!(write(&s, 1, "v", (0, 0), &borrowed));
        assert!(write(&s, 1, "w", (0, 0), &[(b"k", b"v")]));
        s.mark_complete(1, vec![]);
        assert!(write(&s, 2, "v", (0, 0), &borrowed));
        s.mark_complete(2, vec![]);
        assert!(!s.discard_if_corrupt(2), "a sound generation is kept");

        assert!(s.corrupt_one_chunk(2));
        assert!(s.read_vertex(2, "v").is_err());
        assert_eq!(s.faults().read_failures(), 1);
        assert!(s.record_count(2) < 50);
        // Other vertices and generations are untouched.
        assert_eq!(s.read_vertex(1, "v").unwrap().len(), 50);
        assert_eq!(s.read_vertex(1, "w").unwrap().len(), 1);
        // Recovery falls back to the older retained generation.
        assert!(s.discard_if_corrupt(2));
        assert_eq!(s.latest_complete(), Some(1));
        assert_eq!(s.record_count(2), 0);
        assert!(!s.corrupt_one_chunk(2), "nothing left to corrupt");
    }

    #[test]
    fn every_cut_and_every_flipped_count_of_a_blob_is_an_error() {
        let mut blob = ByteWriter::new();
        blob.put_varint(3);
        for (k, v) in [(&b"key-a"[..], &b"1"[..]), (b"key-b", b""), (b"", b"33")] {
            blob.put_bytes(k);
            blob.put_bytes(v);
        }
        let blob = blob.into_bytes();
        let count = |b: &[u8]| {
            let mut n = 0;
            decode_chunk(b, |_, _| n += 1).map(|()| n)
        };
        assert_eq!(count(&blob), Ok(3));
        for cut in 0..blob.len() {
            assert!(count(&blob[..cut]).is_err(), "blob cut to {cut} bytes");
        }
        // Cut at a record boundary, the pairs alone still parse: only the
        // header count gives the loss away.
        for claimed in [0u8, 1, 2, 4, 200] {
            let mut wrong = blob.clone();
            wrong[0] = claimed;
            assert!(count(&wrong).is_err(), "header claims {claimed} records");
        }
    }

    #[test]
    fn a_hundred_snapshots_leave_the_member_no_larger_than_three() {
        // The default 271 partitions on one member, as a local job opens it.
        let g = Grid::new(1, 0);
        let s = SnapshotStore::new(&g, 1);
        let node = g.node(MemberId(0)).unwrap();
        let record = [(&b"key"[..], &b"value"[..])];
        let mut after_three = None;
        for id in 1..=100u64 {
            for chunk in 0..12u32 {
                assert!(write(&s, id, "window", (chunk % 2, chunk / 2), &record));
            }
            s.mark_complete(id, vec![]);
            let size = (node.entry_count(), node.journal_len());
            match after_three {
                None if id == 3 => after_three = Some(size),
                None => {}
                Some(steady) => assert_eq!(size, steady, "store grew by snapshot {id}"),
            }
        }
        // Two generations of 12 chunks and their markers; no journal.
        assert_eq!(after_three, Some((2 * 12 + 2, 0)));
    }

    #[test]
    fn clear_removes_everything() {
        let (_g, s) = store();
        assert!(write(&s, 1, "v", (0, 0), &[(b"k", b"v")]));
        s.mark_complete(1, vec![]);
        s.clear();
        assert_eq!(s.latest_complete(), None);
        assert_eq!(s.record_count(1), 0);
    }
}
