//! Reference results: plain single-threaded folds over the same
//! `NexmarkConfig::event(seq, ts)` stream the engine's source emits, and the
//! order-independent digest both sides are compared by.
//!
//! Nothing here touches the engine: no processors, no windows, no `KeyTable`.
//! Timed runs compare digests (result count, multiset hash, total weight);
//! the reduced-scale oracle compares the full multisets.

use jet_core::processors::window::WindowDef;
use jet_core::Ts;
use jet_nexmark::{Bid, Event, NexmarkConfig};
use jet_util::seq::mix64;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Scheduled occurrence time of event `seq` at `rate` events/second — the
/// formula `GeneratorSource` uses with its origin at clock zero.
pub fn schedule_of(seq: u64, rate: u64) -> Ts {
    (seq as u128 * 1_000_000_000 / rate as u128) as Ts
}

/// Multiset digest of a result stream: equal streams (in any order, from any
/// number of threads) give equal digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Number of results.
    pub count: u64,
    /// Wrapping sum of per-result hashes.
    pub hash_sum: u64,
    /// Input events accounted for: Q1 one per result, Q5 the window count.
    pub weight: u64,
}

impl Digest {
    pub fn add(&mut self, hash: u64, weight: u64) {
        self.count += 1;
        self.hash_sum = self.hash_sum.wrapping_add(hash);
        self.weight += weight;
    }
}

pub fn hash_bid(b: &Bid) -> u64 {
    let h = mix64(b.auction ^ 0x51_7C_C1_B7_27_22_0A_95);
    let h = mix64(h ^ b.bidder);
    let h = mix64(h ^ b.price as u64);
    mix64(h ^ b.ts as u64)
}

pub fn hash_window(key: u64, end: Ts, value: u64) -> u64 {
    let h = mix64(key ^ 0x2545_F491_4F6C_DD1D);
    let h = mix64(h ^ end as u64);
    mix64(h ^ value)
}

const STRIPES: usize = 16;

#[repr(align(128))]
#[derive(Default)]
struct Stripe {
    count: AtomicU64,
    hash_sum: AtomicU64,
    weight: AtomicU64,
}

/// The engine-side digest, fed from the `map` stage before the sink. Striped
/// by thread so parallel stage instances do not share a cache line.
#[derive(Default)]
pub struct Tally {
    stripes: [Stripe; STRIPES],
}

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

impl Tally {
    /// Account for one result: its hash and the input events it stands for.
    pub fn add(&self, hash: u64, weight: u64) {
        let i = STRIPE.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            s.get()
        });
        // Relaxed: pure statistics, read only after the workers are joined.
        let s = &self.stripes[i];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.hash_sum.fetch_add(hash, Ordering::Relaxed);
        s.weight.fetch_add(weight, Ordering::Relaxed);
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for s in &self.stripes {
            d.count += s.count.load(Ordering::Relaxed);
            d.hash_sum = d.hash_sum.wrapping_add(s.hash_sum.load(Ordering::Relaxed));
            d.weight += s.weight.load(Ordering::Relaxed);
        }
        d
    }
}

/// Every bid among events `0..events`, in sequence order.
fn bids(cfg: &NexmarkConfig, rate: u64, events: u64) -> impl Iterator<Item = Bid> + '_ {
    (0..events).filter_map(move |seq| match cfg.event(seq, schedule_of(seq, rate)) {
        Event::Bid(b) => Some(b),
        _ => None,
    })
}

/// Q1 reference: every bid with its price converted to euros.
pub fn q1(cfg: &NexmarkConfig, rate: u64, events: u64, mut sink: impl FnMut(Bid)) {
    for b in bids(cfg, rate, events) {
        sink(Bid {
            price: (b.price as f64 * 0.908) as i64,
            ..b
        });
    }
}

/// Q5 reference, the direct definition: every bid counts once in each of the
/// `size / slide` windows that contain it. Returns `(window end, auction,
/// bids)` of every non-empty window, ordered by end and auction.
pub fn q5_naive(
    cfg: &NexmarkConfig,
    rate: u64,
    events: u64,
    wdef: WindowDef,
) -> Vec<(Ts, u64, u64)> {
    // counts[w][auction]: bids in the window ending at `(w + 1) * slide`.
    let mut counts: Vec<Vec<u64>> = Vec::new();
    for b in bids(cfg, rate, events) {
        let first = b.ts.div_euclid(wdef.slide) as usize;
        let last = first + (wdef.size / wdef.slide) as usize;
        if counts.len() < last {
            counts.resize(last, vec![0; cfg.auctions as usize]);
        }
        for window in &mut counts[first..last] {
            window[b.auction as usize] += 1;
        }
    }
    let mut out = Vec::new();
    for (w, window) in counts.iter().enumerate() {
        for (auction, &n) in window.iter().enumerate() {
            if n > 0 {
                out.push(((w as Ts + 1) * wdef.slide, auction as u64, n));
            }
        }
    }
    out
}

/// Q5 reference in one pass and constant memory, for timed runs where the
/// direct definition would cost 100 map updates per bid: per-slide bid counts
/// in a ring of `size / slide` frames plus a running per-auction window count.
/// Calls `sink(auction, window_end, bids)` for every non-empty window.
pub fn q5_streaming(
    cfg: &NexmarkConfig,
    rate: u64,
    events: u64,
    wdef: WindowDef,
    mut sink: impl FnMut(u64, Ts, u64),
) {
    let n = (wdef.size / wdef.slide) as usize;
    let keys = cfg.auctions as usize;
    let mut ring = vec![vec![0u32; keys]; n];
    let mut running = vec![0u64; keys];
    // Closes frame `f` (emits the window ending with it), then expires the
    // frame that leaves the next window and hands its slot to frame `f + 1`.
    let mut close = |f: i64, ring: &mut Vec<Vec<u32>>, running: &mut Vec<u64>| {
        let end = (f + 1) * wdef.slide;
        for (key, &count) in running.iter().enumerate() {
            if count > 0 {
                sink(key as u64, end, count);
            }
        }
        let slot = &mut ring[(f + 1).rem_euclid(n as i64) as usize];
        for (key, old) in slot.iter_mut().enumerate() {
            running[key] -= *old as u64;
            *old = 0;
        }
    };
    let mut current: Option<i64> = None;
    for b in bids(cfg, rate, events) {
        let f = b.ts.div_euclid(wdef.slide);
        let mut cur = *current.get_or_insert(f);
        while cur < f {
            close(cur, &mut ring, &mut running);
            cur += 1;
        }
        current = Some(cur);
        ring[f.rem_euclid(n as i64) as usize][b.auction as usize] += 1;
        running[b.auction as usize] += 1;
    }
    if let Some(last) = current {
        for f in last..last + n as i64 {
            close(f, &mut ring, &mut running);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 events at 1000 ev/s: one event per millisecond, so event `seq`
    /// falls in 10 ms frame `seq / 10`. Slot 0 is a person, 1–3 auctions,
    /// 4–49 bids (of every 50), hence 184 bids.
    const EVENTS: u64 = 200;
    const RATE: u64 = 1000;

    fn cfg() -> NexmarkConfig {
        NexmarkConfig {
            auctions: 7,
            seed: 42,
            ..Default::default()
        }
    }

    fn small_window() -> WindowDef {
        WindowDef::sliding(40_000_000, 10_000_000) // 4 frames of 10 ms
    }

    #[test]
    fn schedule_is_one_millisecond_per_event() {
        assert_eq!(schedule_of(0, RATE), 0);
        assert_eq!(schedule_of(7, RATE), 7_000_000);
        assert_eq!(schedule_of(3, 800_000), 3750);
    }

    #[test]
    fn q1_converts_every_bid_and_nothing_else() {
        let mut out = Vec::new();
        q1(&cfg(), RATE, EVENTS, |b| out.push(b));
        assert_eq!(out.len(), 184);
        let originals: Vec<Bid> = bids(&cfg(), RATE, EVENTS).collect();
        for (conv, orig) in out.iter().zip(&originals) {
            assert_eq!(conv.price, (orig.price as f64 * 0.908) as i64);
            assert_eq!(
                (conv.auction, conv.bidder, conv.ts),
                (orig.auction, orig.bidder, orig.ts)
            );
        }
        // Hand-checked: seq 4 is the first bid, due at 4 ms.
        assert_eq!(originals[0].ts, 4_000_000);
    }

    #[test]
    fn q5_naive_counts_every_bid_in_exactly_four_windows() {
        let w = q5_naive(&cfg(), RATE, EVENTS, small_window());
        assert_eq!(w.iter().map(|&(_, _, n)| n).sum::<u64>(), 184 * 4);
        // Hand-checked window: the one ending at 10 ms holds frame 0 only,
        // i.e. events 0..10, of which seq 4..10 are bids.
        let bids_in = |end: Ts| -> u64 {
            w.iter()
                .filter(|&&(e, _, _)| e == end)
                .map(|&(_, _, n)| n)
                .sum()
        };
        let first = bids_in(10_000_000);
        assert_eq!(first, 6);
        // The window ending at 60 ms covers events 20..60: 40 events minus
        // one person and three auctions (seq 50..54).
        assert_eq!(bids_in(60_000_000), 36);
        // Last event (seq 199) is in frame 19 (end 200 ms): its last window
        // ends 30 ms later.
        assert_eq!(w.iter().map(|&(end, _, _)| end).max(), Some(230_000_000));
    }

    #[test]
    fn q5_streaming_equals_the_direct_definition() {
        for wdef in [
            small_window(),
            WindowDef::sliding(1_000_000_000, 10_000_000),
        ] {
            let naive = q5_naive(&cfg(), RATE, EVENTS, wdef);
            let mut streamed = Vec::new();
            q5_streaming(&cfg(), RATE, EVENTS, wdef, |key, end, count| {
                streamed.push((end, key, count));
            });
            assert_eq!(naive, streamed, "same windows, in the same order");
        }
    }

    #[test]
    fn tally_from_many_threads_equals_a_sequential_digest() {
        let tally = Tally::default();
        let mut expect = Digest::default();
        for i in 0..4000u64 {
            expect.add(hash_window(i % 10, i as Ts, i), i);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tally = &tally;
                s.spawn(move || {
                    for i in (t..4000).step_by(4) {
                        tally.add(hash_window(i % 10, i as Ts, i), i);
                    }
                });
            }
        });
        assert_eq!(tally.digest(), expect);
    }

    #[test]
    fn digest_detects_a_lost_a_duplicated_and_a_changed_result() {
        let mut full = Digest::default();
        let mut lost = Digest::default();
        let mut changed = Digest::default();
        for i in 0..100u64 {
            full.add(hash_window(i, 10, 3), 3);
            if i != 57 {
                lost.add(hash_window(i, 10, 3), 3);
            }
            changed.add(hash_window(i, 10, if i == 57 { 2 } else { 3 }), 3);
        }
        assert_ne!(full, lost);
        assert_ne!(full.hash_sum, changed.hash_sum);
        let mut dup = full;
        dup.add(hash_window(57, 10, 3), 3);
        assert_ne!(full, dup);
    }
}
