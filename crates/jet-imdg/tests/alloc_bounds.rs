//! Bounded cost of the snapshot store's hot operations, counted in heap
//! allocations: what a tasklet pays inside `call()` to write a chunk or to
//! complete a snapshot depends on the number of chunks and replicas, never on
//! the number of records. (A store that kept one map entry per record cloned
//! 60 000 keys and values to complete a snapshot over this state.)

use jet_imdg::{Grid, SnapshotStore};
use jet_util::codec::ByteWriter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the wrapper only bumps a thread-local counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const CHUNK_RECORDS: u32 = 2048;
const CHUNKS: u32 = 10;

/// The body of one full chunk, as `Outbox` stages it.
fn chunk_body(chunk: u32) -> Vec<u8> {
    let mut body = ByteWriter::new();
    for i in 0..CHUNK_RECORDS {
        body.put_bytes(&(chunk * CHUNK_RECORDS + i).to_le_bytes());
        body.put_bytes(&[7; 8]);
    }
    body.into_bytes()
}

/// Write one generation of `CHUNKS` full chunks (20 480 records).
fn write_generation(store: &SnapshotStore, id: u64, bodies: &[Vec<u8>]) {
    for (chunk, body) in bodies.iter().enumerate() {
        let (writer, seq) = (chunk as u32 % 2, chunk as u32 / 2);
        assert!(store.write_chunk(id, "window", writer, seq, CHUNK_RECORDS, body));
    }
}

#[test]
fn completing_a_snapshot_allocates_per_chunk_not_per_record() {
    for (members, backups) in [(1, 0), (3, 1)] {
        let grid = Grid::new(members, backups);
        let store = SnapshotStore::new(&grid, 1);
        let bodies: Vec<Vec<u8>> = (0..CHUNKS).map(chunk_body).collect();
        for id in 1..=2 {
            write_generation(&store, id, &bodies);
            store.mark_complete(id, Vec::new());
        }
        write_generation(&store, 3, &bodies);
        assert_eq!(store.record_count(1), (CHUNKS * CHUNK_RECORDS) as usize);
        // Three generations of 20 480 records are live; this retires one.
        let n = allocs_during(|| store.mark_complete(3, Vec::new()));
        assert_eq!(store.record_count(1), 0);
        assert_eq!(store.record_count(2), (CHUNKS * CHUNK_RECORDS) as usize);
        assert!(
            n <= u64::from(CHUNKS),
            "mark_complete allocated {n} times retiring {CHUNKS} chunks ({members} members)"
        );
    }
}

#[test]
fn writing_a_chunk_allocates_a_constant_per_replica() {
    for (members, backups) in [(1usize, 0usize), (3, 1), (3, 2)] {
        let grid = Grid::new(members, backups);
        let store = SnapshotStore::new(&grid, 1);
        let body = chunk_body(0);
        // Every partition's slice of the map exists after the first few
        // hundred chunks; count a write into a warm store.
        for seq in 0..600 {
            assert!(store.write_chunk(1, "window", 0, seq, CHUNK_RECORDS, &body));
        }
        let n = allocs_during(|| {
            assert!(store.write_chunk(1, "window", 1, 0, CHUNK_RECORDS, &body));
        });
        let replicas = backups as u64 + 1;
        assert!(
            n <= 2 + 4 * replicas,
            "a {CHUNK_RECORDS}-record chunk took {n} allocations on {replicas} replicas"
        );
    }
}
