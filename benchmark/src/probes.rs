//! Isolated probes of single layers through their `pub` functions, in the
//! style of `crates/jet-bench/benches/micro.rs` but timed with `Instant` and
//! reported as ns per item. They run in every traced run, are the same for
//! every workload, and tell a later change which layer cost moved without a
//! whole job around it.

use jet_core::dag::Routing;
use jet_core::item::Item;
use jet_core::outbound::OutboundCollector;
use jet_core::state::{fingerprint, Cursor, KeyTable};
use jet_queue::{spsc_channel, Consumer, Conveyor};
use jet_util::seq;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::estimator::median;

const REPEATS: usize = 5;

/// Median over [`REPEATS`] of `ns per op`, where one call of `body` performs
/// `ops` operations.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    body(); // warm caches and grow buffers to steady capacity
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `(fingerprint, key)` of `n` distinct keys, in a scattered order.
fn keys(n: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = (0..n).map(|k| (fingerprint(seq::hash_of(&k)), k)).collect();
    v.sort_by_key(|&(_, k)| seq::mix64(k));
    v
}

/// `KeyTable::upsert` on a key that is already present, `n` resident keys —
/// the per-bid cost of window accumulation.
pub fn state_upsert_ns(n: u64) -> f64 {
    let keys = keys(n);
    let mut table: KeyTable<u64, u64> = KeyTable::new(jet_imdg::DEFAULT_PARTITION_COUNT);
    for &(fp, k) in &keys {
        table.upsert(fp, k, || 0);
    }
    let passes = (2_000_000 / n).max(1);
    ns_per_op(passes * n, || {
        for _ in 0..passes {
            for &(fp, k) in &keys {
                *table.upsert(fp, k, || 0).0 += 1;
            }
        }
        black_box(table.len());
    })
}

/// `KeyTable::scan_next` per resident record of a 10 000-key table — the
/// per-record walk a snapshot or a window emission pays.
pub fn state_scan_ns_per_record() -> f64 {
    let keys = keys(10_000);
    let mut table: KeyTable<u64, u64> = KeyTable::new(jet_imdg::DEFAULT_PARTITION_COUNT);
    for &(fp, k) in &keys {
        table.upsert(fp, k, || k);
    }
    let passes = 100;
    ns_per_op(passes * 10_000, || {
        let mut sum = 0u64;
        for _ in 0..passes {
            let mut cur = Cursor::default();
            loop {
                let (next, item) = table.scan_next(cur);
                let Some((_, _, v)) = item else { break };
                sum = sum.wrapping_add(*v);
                cur = next;
            }
        }
        black_box(sum);
    })
}

const RUN: usize = 256;

/// One `OutboundCollector::offer_event_run` of a 256-event outbox run into
/// two consumer queues (filling the run and draining the queues included),
/// per item.
fn outbound_ns(routing: Routing) -> f64 {
    let partitions = jet_imdg::DEFAULT_PARTITION_COUNT;
    let (p0, mut c0) = spsc_channel::<Item>(1024);
    let (p1, mut c1) = spsc_channel::<Item>(1024);
    let to_target: Vec<u16> = match routing {
        Routing::Partitioned(_) => (0..partitions).map(|p| (p % 2) as u16).collect(),
        _ => Vec::new(),
    };
    let mut collector = OutboundCollector::new(routing, vec![p0, p1], to_target, partitions, 0);
    let mut buf: VecDeque<Item> = VecDeque::with_capacity(RUN);
    let rounds = 2_000;
    let mut next = 0u64;
    ns_per_op(rounds * RUN as u64, || {
        for _ in 0..rounds {
            for _ in 0..RUN {
                next += 1;
                buf.push_back(Item::event(next as i64, jet_core::boxed(next)));
            }
            let moved = collector.offer_event_run(&mut buf, usize::MAX);
            assert_eq!(moved, RUN, "both queues were empty");
            let mut sink = |item: Item| {
                black_box(&item);
            };
            c0.drain_batch(RUN, &mut sink);
            c1.drain_batch(RUN, &mut sink);
        }
    })
}

pub fn outbound_unicast_ns() -> f64 {
    outbound_ns(Routing::Unicast)
}

pub fn outbound_partitioned_ns() -> f64 {
    outbound_ns(Routing::Partitioned(Arc::new(|obj| {
        seq::hash_of(jet_core::downcast_ref::<u64>(obj))
    })))
}

/// SPSC `offer` + `poll`, one item at a time, same thread: the hop cost when
/// batches are near-empty (paced, low rate).
pub fn spsc_batch1_ns() -> f64 {
    let (mut p, mut c) = spsc_channel::<u64>(1024);
    let ops = 2_000_000u64;
    ns_per_op(ops, || {
        for i in 0..ops {
            p.offer(black_box(i)).expect("queue drained every item");
            black_box(c.poll());
        }
    })
}

/// SPSC `offer_batch` + `drain_batch` of 64 items, same thread: the hop cost
/// when batches are full (replay).
pub fn spsc_batch64_ns() -> f64 {
    let (mut p, mut c) = spsc_channel::<u64>(1024);
    let rounds = 50_000u64;
    ns_per_op(rounds * 64, || {
        let mut sum = 0u64;
        for r in 0..rounds {
            let mut it = r..r + 64;
            assert_eq!(p.offer_batch(&mut it), 64);
            c.drain_batch(64, |v| sum = sum.wrapping_add(v));
        }
        black_box(sum);
    })
}

fn drain_exactly(c: &mut Consumer<u64>, items: u64) -> u64 {
    let mut sum = 0u64;
    let mut got = 0u64;
    while got < items {
        let n = c.drain_batch(64, |v| sum = sum.wrapping_add(v));
        if n == 0 {
            std::hint::spin_loop();
        }
        got += n as u64;
    }
    sum
}

/// The same 64-item batches with producer and consumer on two threads: adds
/// the cache-line transfer a cross-worker edge pays.
pub fn spsc_xthread_batch64_ns() -> f64 {
    let items = 4_000_000u64;
    ns_per_op(items, || {
        let (mut p, mut c) = spsc_channel::<u64>(1024);
        std::thread::scope(|s| {
            s.spawn(move || {
                let mut it = 0..items;
                while it.start < it.end {
                    let mut batch = it.by_ref().take(64).peekable();
                    while batch.peek().is_some() {
                        if p.offer_batch(&mut batch) == 0 {
                            std::hint::spin_loop();
                        }
                    }
                }
            });
            let sum = drain_exactly(&mut c, items);
            assert_eq!(sum, items * (items - 1) / 2, "every item arrived once");
        });
    })
}

/// Four producers offering 16 items each, one `Conveyor::drain_lanes_batch`
/// of 64: the fan-in a tasklet's inbox fill pays.
pub fn conveyor_batch64_ns() -> f64 {
    let (mut conveyor, mut producers) = Conveyor::<u64>::new(4, 256);
    let rounds = 50_000u64;
    ns_per_op(rounds * 64, || {
        let mut sum = 0u64;
        for r in 0..rounds {
            for p in &mut producers {
                let mut it = r..r + 16;
                p.offer_batch(&mut it);
            }
            while conveyor.drain_lanes_batch(64, |_, v| sum = sum.wrapping_add(v)) > 0 {}
        }
        black_box(sum);
    })
}

/// `boxed` + `take` of a payload stored inline in the object.
pub fn object_inline_ns() -> f64 {
    let ops = 2_000_000u64;
    ns_per_op(ops, || {
        for i in 0..ops {
            let obj = jet_core::boxed(black_box(i));
            black_box(jet_core::object::take::<u64>(obj));
        }
    })
}

/// `boxed` + `take` of a 64-byte payload, past the inline capacity.
pub fn object_heap_ns() -> f64 {
    let ops = 2_000_000u64;
    ns_per_op(ops, || {
        for i in 0..ops {
            let obj = jet_core::boxed([black_box(i); 8]);
            black_box(jet_core::object::take::<[u64; 8]>(obj));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_with_nonzero_fingerprints() {
        let k = keys(1000);
        let mut ids: Vec<u64> = k.iter().map(|&(_, key)| key).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000);
        assert!(k.iter().all(|&(fp, _)| fp != 0));
    }

    #[test]
    fn cross_thread_probe_moves_every_item() {
        // The probe asserts the checksum of what the consumer saw.
        assert!(spsc_xthread_batch64_ns() > 0.0);
    }
}
