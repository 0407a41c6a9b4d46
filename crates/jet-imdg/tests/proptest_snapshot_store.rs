//! Model-based test of the chunk-keyed snapshot store.
//!
//! Random sequences of what an execution and its recoveries do to the store
//! — chunk writes from several vertices and writers with duplicate record
//! keys, write outages, completions, abandoned ids, recovery purges through
//! a second store handle, member kills and joins under one backup — run
//! against a plain map of records. After every step the store and the model
//! must agree on every generation's records, on the record counts, on the
//! latest complete snapshot and on which generations are retained at all.

use jet_imdg::{Grid, SnapshotStore};
use jet_util::codec::ByteWriter;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const VERTICES: [&str; 3] = ["source", "window", "sink"];

#[derive(Debug, Clone)]
enum Op {
    /// One `save_snapshot` quantum of `writer` of `vertex`: `(key, value)`
    /// records, keys from a space small enough to repeat.
    Write {
        vertex: usize,
        writer: u32,
        records: Vec<(u8, u8)>,
    },
    /// Every participant acked: mark the snapshot complete unless a rejected
    /// write poisoned it, and move on to the next id.
    Finish,
    /// The in-flight snapshot is abandoned without a marker.
    Abandon,
    ToggleWriteOutage,
    /// The execution dies: a rebuilt one purges what is newer than the
    /// latest complete snapshot and reuses those ids — and their chunk
    /// sequence numbers — through the other store handle.
    Recover,
    Kill(usize),
    Join,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let records = proptest::collection::vec((0u8..6, any::<u8>()), 1..8);
    prop_oneof![
        10 => (0usize..3, 0u32..3, records).prop_map(|(vertex, writer, records)| Op::Write {
            vertex,
            writer,
            records
        }),
        4 => Just(Op::Finish),
        1 => Just(Op::Abandon),
        1 => Just(Op::ToggleWriteOutage),
        2 => Just(Op::Recover),
        1 => (0usize..8).prop_map(Op::Kill),
        1 => Just(Op::Join),
    ]
}

/// What the store must hold, record by record.
#[derive(Default)]
struct Model {
    /// `(snapshot id, vertex, record key)` → `(writer, value)`. The writer is
    /// kept because it decides between two writers staging one key: the
    /// higher index wins, whichever wrote later.
    records: HashMap<(u64, usize, u8), (u32, u8)>,
    complete: BTreeSet<u64>,
}

impl Model {
    fn write(&mut self, id: u64, vertex: usize, writer: u32, records: &[(u8, u8)]) {
        for &(k, v) in records {
            let slot = self.records.entry((id, vertex, k)).or_insert((writer, v));
            if writer >= slot.0 {
                *slot = (writer, v);
            }
        }
    }

    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        self.records.retain(|&(id, _, _), _| keep(id));
        self.complete.retain(|&id| keep(id));
    }

    fn vertex_records(&self, id: u64, vertex: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
        self.records
            .iter()
            .filter(|(&(i, v, _), _)| i == id && v == vertex)
            .map(|(&(_, _, k), &(_, v))| (vec![k], vec![v]))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_agrees_with_a_plain_map_after_every_step(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let grid = Grid::with_partition_count(3, 1, 31);
        let handles = [SnapshotStore::new(&grid, 9), SnapshotStore::new(&grid, 9)];
        let mut active = 0;
        let mut model = Model::default();
        // The execution's view: the snapshot in flight, whether a rejected
        // write poisoned it, and every tasklet's chunk counter for it.
        let mut id = 1u64;
        let mut highest_id = id;
        let mut poisoned = false;
        let mut outage = false;
        let mut next_seq: HashMap<(usize, u32), u32> = HashMap::new();

        for op in ops {
            let store = &handles[active];
            match op {
                Op::Write { vertex, writer, records } => {
                    let mut body = ByteWriter::new();
                    for &(k, v) in &records {
                        body.put_bytes(&[k]);
                        body.put_bytes(&[v]);
                    }
                    let seq = next_seq.entry((vertex, writer)).or_insert(0);
                    let written = store.write_chunk(
                        id,
                        VERTICES[vertex],
                        writer,
                        *seq,
                        records.len() as u32,
                        body.as_bytes(),
                    );
                    prop_assert_eq!(written, !outage);
                    if written {
                        *seq += 1;
                        model.write(id, vertex, writer, &records);
                    } else {
                        poisoned = true;
                    }
                }
                Op::Finish | Op::Abandon => {
                    if matches!(op, Op::Finish) && !poisoned {
                        store.mark_complete(id, id.to_le_bytes().to_vec());
                        model.complete.insert(id);
                        model.retain(|g| g + 1 >= id);
                    }
                    id += 1;
                    poisoned = false;
                    next_seq.clear();
                }
                Op::ToggleWriteOutage => {
                    outage = !outage;
                    handles.iter().for_each(|h| h.faults().set_fail_writes(outage));
                }
                Op::Recover => {
                    active = 1 - active;
                    let store = &handles[active];
                    let restored = store.latest_complete().unwrap_or(0);
                    store.purge_newer_than(restored);
                    model.retain(|g| g <= restored);
                    id = restored + 1;
                    poisoned = false;
                    next_seq.clear();
                }
                Op::Kill(i) => {
                    // One backup protects against one failure at a time.
                    let members = grid.members();
                    if members.len() >= 3 {
                        grid.kill_member(members[i % members.len()]).unwrap();
                    }
                }
                Op::Join => {
                    grid.add_member();
                }
            }

            highest_id = highest_id.max(id);
            for store in &handles {
                prop_assert_eq!(store.latest_complete(), model.complete.last().copied());
                // Every id that was ever in flight, and one past the newest.
                for g in 0..=highest_id + 1 {
                    let mut count = 0;
                    for (v, name) in VERTICES.iter().enumerate() {
                        let read: BTreeMap<_, _> =
                            store.read_vertex(g, name).unwrap().into_iter().collect();
                        count += read.len();
                        prop_assert_eq!(read, model.vertex_records(g, v), "snapshot {} {}", g, name);
                    }
                    prop_assert_eq!(store.record_count(g), count, "snapshot {}", g);
                    prop_assert_eq!(
                        store.offsets_of(g),
                        model.complete.contains(&g).then(|| g.to_le_bytes().to_vec()),
                        "marker of snapshot {}", g
                    );
                }
            }
        }
    }
}
