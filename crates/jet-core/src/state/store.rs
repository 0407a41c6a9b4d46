//! Sharded open-addressing keyed store for millions-of-keys windowed state.
//!
//! The paper's keyed hot path (§2.3, §7) must neither allocate per event nor
//! stall for O(keys) at a window close. [`KeyTable`] is the storage layer
//! that makes both hold at 10M+ keys:
//!
//! * **Open addressing, linear probing, backward-shift deletion.** Slots are
//!   flat `(fingerprint, key, value)` triples in one allocation per shard;
//!   an empty slot is marked by fingerprint 0 (occupied fingerprints are
//!   normalized non-zero), so a slot costs exactly
//!   `size_of::<(u64, K, V)>()` — no `Option` discriminant, no per-entry
//!   boxes. Inserting into a table with spare capacity touches one probe
//!   run and never allocates; growth doubles a single shard and is the only
//!   allocating operation (marked `#[cold]`).
//! * **Per-worker shards in morton (Z-order) layout.** Keys are pre-hashed
//!   to a 64-bit fingerprint; the fingerprint's partition (the same
//!   `bucket_of` assignment partitioned edges route by) is ranked on a
//!   space-filling curve over the `(stripe, row)` projection of the
//!   partition space — `stripe = p % 16` is the low nibble that striped
//!   edge assignment deals out to workers, `row = p / 16`. Contiguous
//!   morton ranks land in the same shard, so one worker's partitions
//!   cluster into whole shards and cursor walks (snapshot, eviction) touch
//!   per-worker runs instead of interleaving every worker's cache lines.
//! * **Cursor-resumable scans and drains.** [`Cursor`] is a plain
//!   `(shard, slot)` position: emission, amortized eviction and chunked
//!   snapshots all walk the table a bounded number of slots per tasklet
//!   quantum and resume exactly where they stopped. `drain_next` leaves
//!   tombstone-free holes, so it is only for tables being emptied
//!   wholesale (detached frames); `scan_next` never mutates.
//!
//! [`StateProbe`] is the tiny atomic bundle a keyed processor exports to
//! the metrics layer (`jet_state_resident_bytes`,
//! `jet_window_late_events_total`, and for a two-stage window's stage 1
//! its [`BypassProbe`]) without any lock on the hot path.

use jet_util::seq;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the shard count per table.
pub const SHARD_BITS: u32 = 4;
/// Shards per table. 16 shards × 8-slot minimum keeps empty tables tiny
/// while letting 10M-key tables grow one shard (one allocation) at a time.
pub const SHARD_COUNT: usize = 1 << SHARD_BITS;

/// Width of the stripe (low-nibble) axis of the morton projection.
const STRIPE_BITS: u32 = 4;

/// Normalize a raw key hash into an occupied-slot fingerprint (non-zero).
#[inline]
pub fn fingerprint(hash: u64) -> u64 {
    if hash == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        hash
    }
}

/// Morton (Z-order) rank of partition `p` in the `(stripe, row)` projection
/// of the partition space: `stripe = p % 16` (the axis striped edge
/// assignment deals to workers), `row = p / 16`. Interleaving the two axes
/// makes partitions that share a stripe and sit in nearby rows adjacent in
/// rank order — the locality shards are carved from.
#[inline]
pub fn morton_rank(p: u32) -> u64 {
    let stripe = (p & ((1 << STRIPE_BITS) - 1)) as u64;
    let row = (p >> STRIPE_BITS) as u64;
    spread_bits(stripe) | (spread_bits(row) << 1)
}

/// Spread the low 32 bits of `v` to the even bit positions of a u64.
#[inline]
fn spread_bits(mut v: u64) -> u64 {
    v &= 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Partition → shard map: the partition space sorted by morton rank and
/// carved into `SHARD_COUNT` equal contiguous runs. Contiguity in rank
/// order is what gives shards their locality (partitions that neighbour on
/// the curve share a shard); equal runs give exact balance.
fn shard_map(partition_count: u32) -> Box<[u8]> {
    let n = partition_count.max(1) as usize;
    let mut by_rank: Vec<u32> = (0..n as u32).collect();
    by_rank.sort_by_key(|&p| morton_rank(p));
    let mut map = vec![0u8; n].into_boxed_slice();
    for (pos, &p) in by_rank.iter().enumerate() {
        map[p as usize] = (pos * SHARD_COUNT / n) as u8;
    }
    map
}

/// One storage slot: fingerprint 0 ⇒ empty.
#[derive(Clone, Default)]
struct Slot<K, V> {
    fp: u64,
    key: K,
    value: V,
}

struct Shard<K, V> {
    slots: Box<[Slot<K, V>]>,
    /// `slots.len() - 1`; slots.len() is a power of two (or zero).
    mask: usize,
    len: usize,
    /// Grow when `len` would exceed this (7/8 of capacity).
    grow_at: usize,
}

impl<K: Copy + Eq + Default, V: Clone + Default> Shard<K, V> {
    fn empty() -> Self {
        Shard {
            slots: Box::default(),
            mask: 0,
            len: 0,
            grow_at: 0,
        }
    }

    /// Double the shard and rehash. The only allocating operation on the
    /// insert path; amortized O(1) per insert and absent entirely once a
    /// recycled table has reached its working-set capacity.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap].into());
        self.mask = new_cap - 1;
        self.grow_at = new_cap - new_cap / 8;
        for s in old.iter() {
            if s.fp == 0 {
                continue;
            }
            let mut i = (s.fp as usize) & self.mask;
            while self.slots[i].fp != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s.clone();
        }
    }
}

/// Resumable position in a [`KeyTable`] walk. `Default` is the start.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Cursor {
    shard: u32,
    slot: u32,
}

/// Sharded open-addressing keyed table; see the module docs.
pub struct KeyTable<K, V> {
    shards: Box<[Shard<K, V>]>,
    len: usize,
    partition_count: u32,
    /// Partition id → shard index (morton-rank run assignment).
    shard_map: Box<[u8]>,
}

impl<K: Copy + Eq + Default, V: Clone + Default> KeyTable<K, V> {
    /// An empty table whose shard layout follows `partition_count`
    /// partitions (the partitioned-edge assignment space). Cold:
    /// construction happens at init/rescale, never per event — steady
    /// state recycles emptied tables instead.
    #[cold]
    pub fn new(partition_count: u32) -> Self {
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for _ in 0..SHARD_COUNT {
            shards.push(Shard::empty());
        }
        KeyTable {
            shards: shards.into(),
            len: 0,
            partition_count: partition_count.max(1),
            shard_map: shard_map(partition_count),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total allocated slots across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Bytes resident in slot storage (capacity accounting, not live-entry
    /// accounting: open addressing pays for its empty slots).
    pub fn resident_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.shards.len() * std::mem::size_of::<Shard<K, V>>()
    }

    /// Shard index for a fingerprint: partition → morton-rank run.
    #[inline]
    fn shard_of(&self, fp: u64) -> usize {
        let p = seq::bucket_of(fp, self.partition_count);
        self.shard_map[p as usize] as usize
    }

    /// Find-or-create the entry for `(fp, key)`. Returns the value and
    /// whether the entry was newly created. Allocation-free unless the
    /// target shard must grow.
    #[inline]
    pub fn upsert(&mut self, fp: u64, key: K, create: impl FnOnce() -> V) -> (&mut V, bool) {
        debug_assert!(fp != 0, "fingerprints must be normalized non-zero");
        let si = self.shard_of(fp);
        let shard = &mut self.shards[si];
        if shard.len + 1 > shard.grow_at {
            shard.grow();
        }
        let mask = shard.mask;
        let mut i = (fp as usize) & mask;
        let newly = loop {
            let s = &shard.slots[i];
            if s.fp == 0 {
                break true;
            }
            if s.fp == fp && s.key == key {
                break false;
            }
            i = (i + 1) & mask;
        };
        if newly {
            shard.slots[i] = Slot {
                fp,
                key,
                value: create(),
            };
            shard.len += 1;
            self.len += 1;
        }
        (&mut shard.slots[i].value, newly)
    }

    /// Mutable lookup without insertion.
    #[inline]
    pub fn get_mut(&mut self, fp: u64, key: &K) -> Option<&mut V> {
        let si = self.shard_of(fp);
        let shard = &mut self.shards[si];
        if shard.slots.is_empty() {
            return None;
        }
        let mask = shard.mask;
        let mut i = (fp as usize) & mask;
        loop {
            let s = &shard.slots[i];
            if s.fp == 0 {
                return None;
            }
            if s.fp == fp && s.key == *key {
                return Some(&mut shard.slots[i].value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Immutable lookup.
    #[inline]
    pub fn get(&self, fp: u64, key: &K) -> Option<&V> {
        let si = self.shard_of(fp);
        let shard = &self.shards[si];
        if shard.slots.is_empty() {
            return None;
        }
        let mask = shard.mask;
        let mut i = (fp as usize) & mask;
        loop {
            let s = &shard.slots[i];
            if s.fp == 0 {
                return None;
            }
            if s.fp == fp && s.key == *key {
                return Some(&s.value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Remove an entry, restoring probe-chain invariants by backward-shift
    /// (no tombstones, so long-lived tables never degrade). Allocation-free.
    pub fn remove(&mut self, fp: u64, key: &K) -> Option<V> {
        let si = self.shard_of(fp);
        let shard = &mut self.shards[si];
        if shard.slots.is_empty() {
            return None;
        }
        let mask = shard.mask;
        let mut i = (fp as usize) & mask;
        loop {
            let s = &shard.slots[i];
            if s.fp == 0 {
                return None;
            }
            if s.fp == fp && s.key == *key {
                break;
            }
            i = (i + 1) & mask;
        }
        let taken = std::mem::take(&mut shard.slots[i]);
        shard.len -= 1;
        self.len -= 1;
        // Backward shift: pull forward any displaced slot whose probe run
        // crosses the hole.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            if shard.slots[j].fp == 0 {
                break;
            }
            let ideal = (shard.slots[j].fp as usize) & mask;
            // `j` may move into `hole` iff `hole` lies in [ideal, j]
            // cyclically — i.e. the displacement of `j` from its ideal slot
            // spans the hole.
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                shard.slots[hole] = std::mem::take(&mut shard.slots[j]);
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(taken.value)
    }

    /// Next occupied entry at or after `cur`; the returned cursor resumes
    /// *after* the entry. Stable as long as the table is not mutated.
    #[inline]
    pub fn scan_next(&self, mut cur: Cursor) -> (Cursor, Option<(u64, &K, &V)>) {
        while (cur.shard as usize) < self.shards.len() {
            let shard = &self.shards[cur.shard as usize];
            while (cur.slot as usize) < shard.slots.len() {
                let s = &shard.slots[cur.slot as usize];
                cur.slot += 1;
                if s.fp != 0 {
                    return (cur, Some((s.fp, &s.key, &s.value)));
                }
            }
            cur.shard += 1;
            cur.slot = 0;
        }
        (cur, None)
    }

    /// Remove and return the next occupied entry at or after `cur`. Leaves
    /// holes without backward-shift: only valid on a table that is being
    /// drained to empty (probe lookups are undefined after a partial
    /// drain). Capacity is retained for recycling.
    #[inline]
    pub fn drain_next(&mut self, mut cur: Cursor) -> (Cursor, Option<(u64, K, V)>) {
        while (cur.shard as usize) < self.shards.len() {
            let shard = &mut self.shards[cur.shard as usize];
            while (cur.slot as usize) < shard.slots.len() {
                let i = cur.slot as usize;
                cur.slot += 1;
                if shard.slots[i].fp != 0 {
                    let s = std::mem::take(&mut shard.slots[i]);
                    shard.len -= 1;
                    self.len -= 1;
                    return (cur, Some((s.fp, s.key, s.value)));
                }
            }
            cur.shard += 1;
            cur.slot = 0;
        }
        (cur, None)
    }

    /// Empty the table, retaining capacity.
    pub fn clear(&mut self) {
        for shard in self.shards.iter_mut() {
            if shard.len == 0 {
                continue;
            }
            for s in shard.slots.iter_mut() {
                if s.fp != 0 {
                    *s = Slot::default();
                }
            }
            shard.len = 0;
        }
        self.len = 0;
    }
}

/// Lock-free bundle of keyed-state health numbers a processor exports to
/// the metrics registry (sampled by the telemetry timeline).
#[derive(Default)]
pub struct StateProbe {
    /// Capacity-accounted bytes resident in keyed state
    /// (`jet_state_resident_bytes`).
    pub resident_bytes: AtomicU64,
    /// Live keyed entries across all tables (`jet_state_keys_records`).
    pub resident_keys: AtomicU64,
    /// Events dropped as late by the window floor
    /// (`jet_window_late_events_total`).
    pub late_events: AtomicU64,
    /// How a two-stage window's stage 1 chose between holding and
    /// forwarding each frame; `None` on every other keyed processor.
    pub bypass: Option<Arc<BypassProbe>>,
}

/// Stage-1 numbers of two-stage window aggregation: which path each frame
/// took and the measurement that chose it.
#[derive(Default)]
pub struct BypassProbe {
    /// Frames whose events were forwarded one by one instead of held
    /// (`jet_window_bypassed_frames_total`).
    pub frames: AtomicU64,
    /// Events per distinct key of the last measured frame, in thousandths
    /// (`jet_window_events_per_key_milli_ratio`).
    pub events_per_key_milli: AtomicU64,
}

impl StateProbe {
    pub fn set_resident(&self, bytes: u64, keys: u64) {
        self.resident_bytes.store(bytes, Ordering::Relaxed);
        self.resident_keys.store(keys, Ordering::Relaxed);
    }

    pub fn set_late_events(&self, n: u64) {
        self.late_events.store(n, Ordering::Relaxed);
    }

    /// A probe that also carries the stage-1 [`BypassProbe`].
    pub(crate) fn with_bypass() -> Self {
        StateProbe {
            bypass: Some(Arc::default()),
            ..StateProbe::default()
        }
    }

    /// Publish the stage-1 decision numbers (no-op without a bypass probe).
    pub(crate) fn set_bypass(&self, frames: u64, events_per_key_milli: u64) {
        if let Some(b) = &self.bypass {
            b.frames.store(frames, Ordering::Relaxed);
            b.events_per_key_milli
                .store(events_per_key_milli, Ordering::Relaxed);
        }
    }
}

/// Fixed-capacity inline string: a `Copy` grouping key for textual keys
/// (the window frame store requires `Copy + Default` keys so slots stay
/// flat and insertion never allocates). Holds up to `N` bytes of UTF-8;
/// construction truncates at the last complete character that fits. Two
/// `InlineStr`s are equal iff their retained bytes are equal, so keys
/// longer than `N` collide on a shared prefix — size `N` for the domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct InlineStr<const N: usize> {
    len: u8,
    buf: [u8; N],
}

impl<const N: usize> Default for InlineStr<N> {
    fn default() -> Self {
        InlineStr {
            len: 0,
            buf: [0; N],
        }
    }
}

impl<const N: usize> InlineStr<N> {
    pub fn as_str(&self) -> &str {
        // Retained bytes are always a valid UTF-8 prefix by construction.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<const N: usize> From<&str> for InlineStr<N> {
    fn from(s: &str) -> Self {
        let mut end = s.len().min(N).min(u8::MAX as usize);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; N];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        InlineStr {
            len: end as u8,
            buf,
        }
    }
}

impl<const N: usize> std::fmt::Display for InlineStr<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl<const N: usize> std::fmt::Debug for InlineStr<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl<const N: usize> crate::state::Snap for InlineStr<N> {
    fn save(&self, w: &mut jet_util::codec::ByteWriter) {
        w.put_str(self.as_str());
    }

    fn load(r: &mut jet_util::codec::ByteReader<'_>) -> Result<Self, jet_util::codec::DecodeError> {
        let s = r.get_str()?;
        if s.len() > N {
            return Err(jet_util::codec::DecodeError("inline string over capacity"));
        }
        Ok(InlineStr::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn upsert_get_remove_roundtrip() {
        let mut t: KeyTable<u64, u64> = KeyTable::new(271);
        for k in 0..1000u64 {
            let fp = fingerprint(seq::hash_of(&k));
            let (v, newly) = t.upsert(fp, k, || 0);
            assert!(newly);
            *v = k * 3;
        }
        assert_eq!(t.len(), 1000);
        for k in 0..1000u64 {
            let fp = fingerprint(seq::hash_of(&k));
            assert_eq!(t.get(fp, &k), Some(&(k * 3)));
            let (v, newly) = t.upsert(fp, k, || 0);
            assert!(!newly);
            assert_eq!(*v, k * 3);
        }
        for k in (0..1000u64).step_by(2) {
            let fp = fingerprint(seq::hash_of(&k));
            assert_eq!(t.remove(fp, &k), Some(k * 3));
            assert_eq!(t.remove(fp, &k), None);
        }
        assert_eq!(t.len(), 500);
        for k in 0..1000u64 {
            let fp = fingerprint(seq::hash_of(&k));
            assert_eq!(t.get(fp, &k), (k % 2 == 1).then_some(&(k * 3)));
        }
    }

    #[test]
    fn scan_and_drain_visit_every_entry_once() {
        let mut t: KeyTable<u64, u64> = KeyTable::new(271);
        for k in 0..257u64 {
            let fp = fingerprint(seq::hash_of(&k));
            t.upsert(fp, k, || k + 7);
        }
        let mut seen = HashMap::new();
        let mut cur = Cursor::default();
        loop {
            let (next, item) = t.scan_next(cur);
            cur = next;
            match item {
                Some((_, k, v)) => {
                    assert!(seen.insert(*k, *v).is_none());
                }
                None => break,
            }
        }
        assert_eq!(seen.len(), 257);
        // Resumable scan in chunks of 10 sees the same set.
        let mut chunked = 0usize;
        let mut cur = Cursor::default();
        'outer: loop {
            for _ in 0..10 {
                let (next, item) = t.scan_next(cur);
                cur = next;
                match item {
                    Some(_) => chunked += 1,
                    None => break 'outer,
                }
            }
        }
        assert_eq!(chunked, 257);
        let mut cur = Cursor::default();
        let mut drained = 0usize;
        loop {
            let (next, item) = t.drain_next(cur);
            cur = next;
            match item {
                Some((_, k, v)) => {
                    assert_eq!(seen.get(&k), Some(&v));
                    drained += 1;
                }
                None => break,
            }
        }
        assert_eq!(drained, 257);
        assert!(t.is_empty());
        assert!(t.capacity() > 0, "drain retains capacity for recycling");
    }

    #[test]
    fn backward_shift_preserves_probe_chains_vs_reference() {
        // Deterministic mixed workload compared against HashMap.
        let mut t: KeyTable<u64, u64> = KeyTable::new(271);
        let mut m: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x1234_5678_u64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (x >> 33) % 512; // small key space forces collisions
            let fp = fingerprint(seq::hash_of(&k));
            if x.is_multiple_of(3) {
                let removed = t.remove(fp, &k);
                assert_eq!(removed, m.remove(&k), "step {step} key {k}");
            } else {
                let (v, newly) = t.upsert(fp, k, || 0);
                *v += step;
                assert_eq!(newly, !m.contains_key(&k), "step {step} key {k}");
                let e = m.entry(k).or_insert(0);
                *e += step;
                assert_eq!(*v, *e);
            }
            assert_eq!(t.len(), m.len());
        }
        for (k, v) in &m {
            let fp = fingerprint(seq::hash_of(k));
            assert_eq!(t.get(fp, k), Some(v));
        }
    }

    #[test]
    fn morton_rank_orders_stripe_neighbours_adjacently() {
        // Same stripe, consecutive rows: ranks differ only in row bits.
        assert!(morton_rank(0) < morton_rank(16));
        assert!(morton_rank(16) < morton_rank(32));
        // Rank is injective over a partition space.
        let mut seen = std::collections::HashSet::new();
        for p in 0..271u32 {
            assert!(seen.insert(morton_rank(p)));
        }
    }

    #[test]
    fn shards_cover_partition_space_evenly() {
        let t: KeyTable<u64, u64> = KeyTable::new(271);
        let mut counts = [0usize; SHARD_COUNT];
        for i in 0..100_000u64 {
            let fp = fingerprint(seq::hash_of(&i));
            counts[t.shard_of(fp)] += 1;
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(used >= SHARD_COUNT / 2, "shards used: {used} ({counts:?})");
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < min.max(1) * 8,
            "shard skew too high: min {min} max {max}"
        );
    }

    #[test]
    fn resident_bytes_tracks_capacity() {
        let mut t: KeyTable<u64, u64> = KeyTable::new(271);
        let empty = t.resident_bytes();
        for k in 0..10_000u64 {
            t.upsert(fingerprint(seq::hash_of(&k)), k, || 0);
        }
        let full = t.resident_bytes();
        assert!(full > empty);
        // Slot is sentinel-packed: 24 bytes for (u64 fp, u64 key, u64 val).
        assert_eq!(std::mem::size_of::<Slot<u64, u64>>(), 24);
        assert!(full >= t.capacity() * 24);
        // Load factor stays above 7/16 after any doubling.
        assert!(t.capacity() <= 10_000 * 16 / 7 + 8 * SHARD_COUNT);
    }
}
