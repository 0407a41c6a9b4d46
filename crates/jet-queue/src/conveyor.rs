//! Jet's `ConcurrentConveyor`: N producers → 1 consumer via N SPSC queues.
//!
//! Each upstream tasklet gets its own SPSC queue into the consumer, so the
//! whole structure stays wait-free — there is no multi-producer contention
//! point. The consumer drains the queues round-robin, and can mark individual
//! queues *muted*: a muted queue is skipped by `drain`, which is the
//! primitive the exactly-once barrier alignment builds on (paper §4.4 — an
//! input channel that already delivered the current checkpoint barrier must
//! block until the rest catch up).
//!
//! Lanes whose producer has called [`Producer::done`] (or dropped) and that
//! have been drained are *finished*; [`Conveyor::all_finished`] is the
//! livelock-free termination signal for the consumer loop.

use crate::spsc::{spsc_channel, Consumer, DepthProbe, Producer};

/// Consumer-side view over the per-producer queues.
pub struct Conveyor<T> {
    queues: Vec<Consumer<T>>,
    muted: Vec<bool>,
    /// Round-robin start position so one busy queue cannot starve the rest.
    next: usize,
}

impl<T> Conveyor<T> {
    /// Build a conveyor with `producers` input lanes of `capacity` each.
    /// Returns the conveyor and one [`Producer`] handle per lane.
    pub fn new(producers: usize, capacity: usize) -> (Self, Vec<Producer<T>>) {
        assert!(producers > 0, "conveyor needs at least one lane");
        let mut queues = Vec::with_capacity(producers);
        let mut handles = Vec::with_capacity(producers);
        for _ in 0..producers {
            let (p, c) = spsc_channel(capacity);
            queues.push(c);
            handles.push(p);
        }
        let muted = vec![false; producers];
        (
            Conveyor {
                queues,
                muted,
                next: 0,
            },
            handles,
        )
    }

    /// Number of input lanes.
    pub fn lane_count(&self) -> usize {
        self.queues.len()
    }

    /// Mute a lane: `drain` and `poll_any` will skip it until unmuted.
    pub fn mute(&mut self, lane: usize) {
        self.muted[lane] = true;
    }

    pub fn unmute(&mut self, lane: usize) {
        self.muted[lane] = false;
    }

    pub fn unmute_all(&mut self) {
        self.muted.iter_mut().for_each(|m| *m = false);
    }

    pub fn is_muted(&self, lane: usize) -> bool {
        self.muted[lane]
    }

    /// Are all lanes muted? (During barrier alignment this means the barrier
    /// has arrived on every input and the snapshot can proceed.)
    pub fn all_muted(&self) -> bool {
        self.muted.iter().all(|&m| m)
    }

    /// Poll one item from lane `lane` regardless of mute state.
    pub fn poll_lane(&mut self, lane: usize) -> Option<T> {
        self.queues[lane].poll()
    }

    /// Peek lane `lane`'s head item.
    pub fn peek_lane(&mut self, lane: usize) -> Option<&T> {
        self.queues[lane].peek()
    }

    /// Has lane `lane`'s producer finished (done/dropped) with its queue
    /// fully drained? A `true` result is final for that lane.
    pub fn lane_finished(&mut self, lane: usize) -> bool {
        self.queues[lane].is_finished()
    }

    /// Have *all* producers finished and all queues drained? This is the
    /// termination condition for a consumer loop: once true, no item can
    /// ever arrive again, so the loop can exit without polling further —
    /// finished producers are skipped without livelock.
    pub fn all_finished(&mut self) -> bool {
        self.queues.iter_mut().all(Consumer::is_finished)
    }

    /// Poll the next item from any unmuted lane, fair round-robin. Returns
    /// `(lane, item)`.
    pub fn poll_any(&mut self) -> Option<(usize, T)> {
        let n = self.queues.len();
        for off in 0..n {
            let lane = (self.next + off) % n;
            if self.muted[lane] {
                continue;
            }
            if let Some(item) = self.queues[lane].poll() {
                self.next = (lane + 1) % n;
                return Some((lane, item));
            }
        }
        None
    }

    /// Bulk-drain lane `lane` (regardless of mute state, like `poll_lane`):
    /// up to `max` items, stopping without consuming at the first item
    /// `accept` rejects. One head publish per call — see
    /// [`Consumer::drain_batch_while`].
    pub fn drain_lane_batch_while(
        &mut self,
        lane: usize,
        max: usize,
        accept: impl FnMut(&T) -> bool,
        sink: impl FnMut(T),
    ) -> usize {
        self.queues[lane].drain_batch_while(max, accept, sink)
    }

    /// Bulk-drain up to `max` items across unmuted lanes, round-robin at
    /// *batch* granularity: each lane contributes its whole available run
    /// (bounded by the remaining budget) before the next lane is visited,
    /// and the starting lane rotates per call. Items arrive in `sink` tagged
    /// with their lane; per-lane FIFO order is preserved. Each visited lane
    /// costs one tail read and at most one head publish.
    pub fn drain_lanes_batch(&mut self, max: usize, mut sink: impl FnMut(usize, T)) -> usize {
        let n = self.queues.len();
        let mut moved = 0;
        for off in 0..n {
            if moved >= max {
                break;
            }
            let lane = (self.next + off) % n;
            if self.muted[lane] {
                continue;
            }
            moved += self.queues[lane].drain_batch(max - moved, |item| sink(lane, item));
        }
        self.next = (self.next + 1) % n;
        moved
    }

    /// Total queued items across all lanes (approximate).
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Queued items on one lane.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.queues[lane].len()
    }
}

impl<T: Send + 'static> Conveyor<T> {
    /// One thread-safe occupancy probe per lane, for registering queue-depth
    /// gauges without handing the (thread-affine) conveyor to the metrics
    /// layer.
    pub fn probes(&self) -> Vec<DepthProbe> {
        self.queues.iter().map(Consumer::probe).collect()
    }
}

/// Loom models of the conveyor's multi-producer drain and termination
/// protocol. Run with `RUSTFLAGS="--cfg loom" cargo test -p jet-queue`.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::thread;

    /// Two concurrent producers, per-lane FIFO checked on every schedule,
    /// `all_finished` as the exit condition — the model terminates on every
    /// interleaving, proving done-lanes are skipped without livelock.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn two_producers_drain_fifo_until_finished() {
        loom::model(|| {
            let (mut conv, producers) = Conveyor::<u64>::new(2, 2);
            let handles: Vec<_> = producers
                .into_iter()
                .enumerate()
                .map(|(lane, mut p)| {
                    thread::spawn(move || {
                        for i in 0..2u64 {
                            let mut v = (lane as u64) * 10 + i;
                            loop {
                                match p.offer(v) {
                                    Ok(()) => break,
                                    Err(back) => {
                                        v = back;
                                        thread::yield_now();
                                    }
                                }
                            }
                        }
                        p.done();
                    })
                })
                .collect();
            let mut last = [None::<u64>; 2];
            let mut got = 0;
            loop {
                if let Some((lane, v)) = conv.poll_any() {
                    if let Some(prev) = last[lane] {
                        assert!(v > prev, "lane {lane} reordered: {v} after {prev}");
                    }
                    last[lane] = Some(v);
                    got += 1;
                } else if conv.all_finished() {
                    break;
                } else {
                    thread::yield_now();
                }
            }
            assert_eq!(got, 4, "termination before all items were delivered");
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    /// A lane whose producer finishes immediately (here: is dropped without
    /// offering) must not stall the drain of the remaining lanes.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn idle_done_lane_does_not_block_termination() {
        loom::model(|| {
            let (mut conv, mut producers) = Conveyor::<u64>::new(2, 2);
            let idle = producers.pop().unwrap();
            let mut active = producers.pop().unwrap();
            drop(idle); // dropped producer counts as done
            let t = thread::spawn(move || {
                active.offer(7).unwrap();
                active.done();
            });
            let mut sum = 0;
            loop {
                if let Some((_lane, v)) = conv.poll_any() {
                    sum += v;
                } else if conv.all_finished() {
                    break;
                } else {
                    thread::yield_now();
                }
            }
            assert_eq!(sum, 7);
            t.join().unwrap();
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_across_lanes() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(3, 8);
        for (lane, p) in producers.iter_mut().enumerate() {
            for i in 0..3 {
                p.offer((lane as u32) * 10 + i).unwrap();
            }
        }
        // A budget of one item per call: the start lane rotates each call.
        let mut sink = Vec::new();
        for _ in 0..9 {
            conv.drain_lanes_batch(1, |lane, v| sink.push((lane, v)));
        }
        // First three drains must come from three distinct lanes.
        let first_lanes: Vec<usize> = sink.iter().take(3).map(|(l, _)| *l).collect();
        let mut sorted = first_lanes.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![0, 1, 2],
            "lanes not interleaved: {first_lanes:?}"
        );
        assert_eq!(sink.len(), 9);
    }

    #[test]
    fn muted_lane_is_skipped_until_unmuted() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(2, 8);
        producers[0].offer(100).unwrap();
        producers[1].offer(200).unwrap();
        conv.mute(0);
        assert_eq!(conv.poll_any(), Some((1, 200)));
        assert_eq!(conv.poll_any(), None);
        conv.unmute(0);
        assert_eq!(conv.poll_any(), Some((0, 100)));
    }

    #[test]
    fn all_muted_detection() {
        let (mut conv, _producers) = Conveyor::<u32>::new(2, 8);
        assert!(!conv.all_muted());
        conv.mute(0);
        assert!(!conv.all_muted());
        conv.mute(1);
        assert!(conv.all_muted());
        conv.unmute_all();
        assert!(!conv.all_muted());
    }

    #[test]
    fn poll_lane_ignores_mute() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(1, 8);
        producers[0].offer(7).unwrap();
        conv.mute(0);
        assert_eq!(conv.poll_lane(0), Some(7));
    }

    #[test]
    fn per_lane_order_is_preserved() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(2, 64);
        for i in 0..20 {
            producers[0].offer(i).unwrap();
            producers[1].offer(100 + i).unwrap();
        }
        let mut sink = Vec::new();
        conv.drain_lanes_batch(usize::MAX - 1, |lane, v| sink.push((lane, v)));
        let lane0: Vec<u32> = sink
            .iter()
            .filter(|(l, _)| *l == 0)
            .map(|(_, v)| *v)
            .collect();
        let lane1: Vec<u32> = sink
            .iter()
            .filter(|(l, _)| *l == 1)
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(lane0, (0..20).collect::<Vec<_>>());
        assert_eq!(lane1, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn drain_lanes_batch_rotates_start_lane_and_respects_mute() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(3, 8);
        for (lane, p) in producers.iter_mut().enumerate() {
            for i in 0..2 {
                p.offer((lane as u32) * 10 + i).unwrap();
            }
        }
        conv.mute(1);
        let mut out = Vec::new();
        assert_eq!(conv.drain_lanes_batch(16, |lane, v| out.push((lane, v))), 4);
        // Batch-granular round-robin: lane 0's full run, then lane 2's
        // (lane 1 is muted).
        assert_eq!(out, vec![(0, 0), (0, 1), (2, 20), (2, 21)]);
        // The start lane rotated, so after unmuting, lane 1 leads.
        conv.unmute(1);
        out.clear();
        assert_eq!(conv.drain_lanes_batch(16, |lane, v| out.push((lane, v))), 2);
        assert_eq!(out, vec![(1, 10), (1, 11)]);
    }

    #[test]
    fn drain_lanes_batch_respects_budget() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(2, 8);
        for i in 0..4 {
            producers[0].offer(i).unwrap();
            producers[1].offer(100 + i).unwrap();
        }
        let mut out = Vec::new();
        // Budget 6: all of lane 0's run, then only 2 from lane 1.
        assert_eq!(conv.drain_lanes_batch(6, |lane, v| out.push((lane, v))), 6);
        assert_eq!(
            out,
            vec![(0, 0), (0, 1), (0, 2), (0, 3), (1, 100), (1, 101)]
        );
        assert_eq!(conv.lane_len(1), 2);
    }

    #[test]
    fn drain_lane_batch_while_leaves_rejected_head_and_ignores_mute() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(1, 8);
        for v in [1, 2, 99, 3] {
            producers[0].offer(v).unwrap();
        }
        conv.mute(0);
        let mut out = Vec::new();
        let n = conv.drain_lane_batch_while(0, 16, |v| *v < 10, |v| out.push(v));
        assert_eq!(n, 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(conv.peek_lane(0), Some(&99));
    }

    #[test]
    fn len_sums_lanes() {
        let (conv, mut producers) = Conveyor::<u32>::new(3, 8);
        producers[0].offer(1).unwrap();
        producers[2].offer(2).unwrap();
        producers[2].offer(3).unwrap();
        assert_eq!(conv.len(), 3);
        assert_eq!(conv.lane_len(0), 1);
        assert_eq!(conv.lane_len(1), 0);
        assert_eq!(conv.lane_len(2), 2);
        assert!(!conv.is_empty());
    }

    #[test]
    fn probes_expose_per_lane_depth() {
        let (conv, mut producers) = Conveyor::<u32>::new(2, 8);
        let probes = conv.probes();
        assert_eq!(probes.len(), 2);
        producers[1].offer(1).unwrap();
        producers[1].offer(2).unwrap();
        assert_eq!(probes[0].depth(), 0);
        assert_eq!(probes[1].depth(), 2);
        assert!(probes.iter().all(|p| p.capacity() == 8));
    }

    #[test]
    fn finished_lanes_and_termination() {
        let (mut conv, mut producers) = Conveyor::<u32>::new(2, 8);
        producers[0].offer(1).unwrap();
        assert!(!conv.lane_finished(0));
        assert!(!conv.all_finished());
        producers[0].done();
        assert!(!conv.lane_finished(0), "finished with an item still queued");
        assert_eq!(conv.poll_any(), Some((0, 1)));
        assert!(conv.lane_finished(0));
        assert!(!conv.all_finished(), "lane 1's producer is still live");
        drop(producers); // dropping the rest finishes every lane
        assert!(conv.all_finished());
    }

    #[test]
    fn concurrent_producers_all_delivered() {
        let (mut conv, producers) = Conveyor::<u64>::new(4, 64);
        const PER_LANE: u64 = if cfg!(miri) { 200 } else { 50_000 };
        let joins: Vec<_> = producers
            .into_iter()
            .enumerate()
            .map(|(lane, mut p)| {
                std::thread::spawn(move || {
                    for i in 0..PER_LANE {
                        let mut v = (lane as u64) << 32 | i;
                        loop {
                            match p.offer(v) {
                                Ok(()) => break,
                                Err(b) => {
                                    v = b;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        let mut received = 0u64;
        let mut last_per_lane = [None::<u64>; 4];
        while received < PER_LANE * 4 {
            if let Some((lane, v)) = conv.poll_any() {
                let seq = v & 0xFFFF_FFFF;
                assert_eq!((v >> 32) as usize, lane);
                if let Some(prev) = last_per_lane[lane] {
                    assert_eq!(seq, prev + 1, "lane {lane} out of order");
                }
                last_per_lane[lane] = Some(seq);
                received += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(conv.is_empty());
    }

    /// Stress: concurrent producers that finish at different times; the
    /// consumer exits via `all_finished` (not an item count), per-producer
    /// FIFO holds across drain batches, and done lanes never cause livelock.
    #[test]
    fn stress_fifo_across_drains_with_staggered_done() {
        let (mut conv, producers) = Conveyor::<u64>::new(4, 32);
        // Lane `i` sends (i+1) * PER units, so lanes finish staggered.
        const PER: u64 = if cfg!(miri) { 100 } else { 10_000 };
        let joins: Vec<_> = producers
            .into_iter()
            .enumerate()
            .map(|(lane, mut p)| {
                std::thread::spawn(move || {
                    let count = (lane as u64 + 1) * PER;
                    for i in 0..count {
                        let mut v = (lane as u64) << 32 | i;
                        loop {
                            match p.offer(v) {
                                Ok(()) => break,
                                Err(b) => {
                                    v = b;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    p.done();
                })
            })
            .collect();
        let mut sink = Vec::new();
        let mut next_expected = [0u64; 4];
        let mut received = 0u64;
        loop {
            sink.clear();
            if conv.drain_lanes_batch(128, |lane, v| sink.push((lane, v))) == 0 {
                if conv.all_finished() {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            for &(lane, v) in &sink {
                assert_eq!((v >> 32) as usize, lane);
                let seq = v & 0xFFFF_FFFF;
                assert_eq!(
                    seq, next_expected[lane],
                    "lane {lane} FIFO violated across drain batches"
                );
                next_expected[lane] += 1;
                received += 1;
            }
        }
        assert_eq!(received, PER + 2 * PER + 3 * PER + 4 * PER);
        for j in joins {
            j.join().unwrap();
        }
        assert!(conv.all_finished(), "all_finished must be stable");
    }
}
