//! Distributed edges: exchange operators with adaptive receive-window flow
//! control (paper §3.3).
//!
//! "Jet uses a design very similar to the TCP/IP adaptive receive window:
//! the producer must wait for an acknowledgment from the consumer specifying
//! how many data items the producer can send. After processing item n, the
//! receiver sends a message that the sender can send up to item
//! n + receive_window. The consumer sends the acknowledgment message every
//! 100ms. [...] In stable state the receive_window contains roughly 300
//! milliseconds' worth of data."
//!
//! For every distributed edge and every (sender member, receiver member)
//! pair, the planner deploys a [`SenderTasklet`] on the sender and a
//! [`ReceiverTasklet`] on the receiver (the exchange-operator pattern of
//! Volcano [14]). The transport is in-process and clock-driven, so the same
//! code runs under the wall clock and under the simulator's virtual clock
//! with modeled link latency.

use crate::item::{Barrier, Item};
use crate::metrics::{tags, MetricsRegistry, SharedCounter, SharedGauge};
use crate::outbound::OutboundCollector;
use crate::processor::Guarantee;
use crate::tasklet::Tasklet;
use crate::trace::{TraceKind, TraceWriter};
use crate::watermark::WatermarkCoalescer;
use jet_queue::Conveyor;
use jet_util::clock::SharedClock;
use jet_util::progress::Progress;
use jet_util::rng::SimRng;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one direction of one distributed edge between two members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId {
    pub edge: u32,
    pub from: u32,
    pub to: u32,
}

/// What flows on a channel.
#[derive(Debug)]
pub enum Packet {
    /// A batch of in-band items.
    Data(Vec<Item>),
    /// Flow control: the sender may transmit up to `grant` items in total.
    Ack { grant: u64 },
}

/// Message transport between members. Deliveries are delayed by the modeled
/// link latency against the (possibly virtual) clock.
pub trait Transport: Send + Sync {
    fn send_data(&self, channel: ChannelId, items: Vec<Item>);
    fn send_ack(&self, channel: ChannelId, grant: u64);
    fn poll_data(&self, channel: ChannelId) -> Option<Vec<Item>>;
    fn poll_ack(&self, channel: ChannelId) -> Option<u64>;

    /// Lightweight liveness traffic: member `from` pings member `to`.
    /// Heartbeats are fire-and-forget — unlike data they are genuinely lost
    /// to partitions and chaos drops (no retransmission). Default: no-op,
    /// for transports that predate failure detection.
    fn send_heartbeat(&self, _from: u32, _to: u32) {}

    /// Drain heartbeats delivered to member `to` by now: `(from, sent_at)`
    /// pairs. Default: none.
    fn poll_heartbeats(&self, _to: u32) -> Vec<(u32, u64)> {
        Vec::new()
    }
}

/// Chaos parameters for one fault window (seeded drop/extra-delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelChaos {
    /// Per-message drop probability in millionths. Dropped *data* batches
    /// are re-sent by the modeled reliable transport — the drop surfaces as
    /// `retransmit_delay_nanos` of extra latency, never as loss (the engine
    /// above assumes TCP). Dropped *heartbeats* are really lost.
    pub drop_millionths: u32,
    /// Uniform extra delivery jitter in `[0, max_extra_delay_nanos]`.
    pub max_extra_delay_nanos: u64,
    /// Latency cost of one modeled retransmission.
    pub retransmit_delay_nanos: u64,
}

impl ChannelChaos {
    pub fn new(drop_millionths: u32, max_extra_delay_nanos: u64) -> Self {
        ChannelChaos {
            drop_millionths,
            max_extra_delay_nanos,
            // RTO-ish: one full extra round trip at typical modeled latency.
            retransmit_delay_nanos: 1_000_000,
        }
    }
}

/// Shared fault state consulted by a fault-aware transport. One instance
/// outlives executions (partitions persist across a recovery rebuild).
///
/// Fault-free fast path: two atomics are checked before any lock is taken,
/// so a transport with no active faults pays two relaxed loads per
/// operation — detector and chaos overhead stay off the data path.
pub struct NetworkFaults {
    partitions_active: AtomicBool,
    chaos_active: AtomicBool,
    inner: Mutex<FaultState>,
    /// Heartbeats genuinely lost to partitions or chaos.
    heartbeats_dropped: AtomicU64,
    /// Data batches that took a modeled retransmit penalty.
    batches_retransmitted: AtomicU64,
}

struct FaultState {
    /// Active partitions: id -> member set split away from the rest.
    partitions: HashMap<u32, HashSet<u32>>,
    chaos: Option<ChannelChaos>,
    rng: SimRng,
}

impl NetworkFaults {
    pub fn new(seed: u64) -> Self {
        NetworkFaults {
            partitions_active: AtomicBool::new(false),
            chaos_active: AtomicBool::new(false),
            inner: Mutex::new(FaultState {
                partitions: HashMap::new(),
                chaos: None,
                rng: SimRng::new(seed),
            }),
            heartbeats_dropped: AtomicU64::new(0),
            batches_retransmitted: AtomicU64::new(0),
        }
    }

    pub fn start_partition(&self, id: u32, side: Vec<u32>) {
        let mut st = self.inner.lock();
        st.partitions.insert(id, side.into_iter().collect());
        self.partitions_active.store(true, Ordering::Release);
    }

    pub fn end_partition(&self, id: u32) {
        let mut st = self.inner.lock();
        st.partitions.remove(&id);
        self.partitions_active
            .store(!st.partitions.is_empty(), Ordering::Release);
    }

    pub fn set_chaos(&self, chaos: ChannelChaos) {
        self.inner.lock().chaos = Some(chaos);
        self.chaos_active.store(true, Ordering::Release);
    }

    pub fn clear_chaos(&self) {
        self.inner.lock().chaos = None;
        self.chaos_active.store(false, Ordering::Release);
    }

    /// Is the link between members `a` and `b` currently cut?
    // jet-analyze: allow(block) — fault-injection table: short uncontended lock outside chaos runs
    pub fn partitioned(&self, a: u32, b: u32) -> bool {
        if !self.partitions_active.load(Ordering::Acquire) {
            return false;
        }
        let st = self.inner.lock();
        st.partitions
            .values()
            .any(|side| side.contains(&a) != side.contains(&b))
    }

    /// Extra delivery delay for a data batch under the current chaos window
    /// (jitter plus any modeled retransmission). 0 when chaos is off.
    // jet-analyze: allow(block) — fault-injection table: short uncontended lock outside chaos runs
    pub fn data_delay(&self) -> u64 {
        if !self.chaos_active.load(Ordering::Acquire) {
            return 0;
        }
        let mut st = self.inner.lock();
        let Some(chaos) = st.chaos else { return 0 };
        let mut extra = if chaos.max_extra_delay_nanos > 0 {
            st.rng.below(chaos.max_extra_delay_nanos + 1)
        } else {
            0
        };
        if chaos.drop_millionths > 0 && st.rng.chance(chaos.drop_millionths) {
            self.batches_retransmitted.fetch_add(1, Ordering::Relaxed);
            extra += chaos.retransmit_delay_nanos;
        }
        extra
    }

    /// Decide the fate of a heartbeat `from -> to`: `None` = dropped,
    /// `Some(extra_delay)` = delivered with that much added latency.
    pub fn heartbeat_fate(&self, from: u32, to: u32) -> Option<u64> {
        if self.partitioned(from, to) {
            self.heartbeats_dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if !self.chaos_active.load(Ordering::Acquire) {
            return Some(0);
        }
        let mut st = self.inner.lock();
        let Some(chaos) = st.chaos else {
            return Some(0);
        };
        if chaos.drop_millionths > 0 && st.rng.chance(chaos.drop_millionths) {
            drop(st);
            self.heartbeats_dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if chaos.max_extra_delay_nanos > 0 {
            Some(st.rng.below(chaos.max_extra_delay_nanos + 1))
        } else {
            Some(0)
        }
    }

    pub fn heartbeats_dropped(&self) -> u64 {
        self.heartbeats_dropped.load(Ordering::Relaxed)
    }

    pub fn batches_retransmitted(&self) -> u64 {
        self.batches_retransmitted.load(Ordering::Relaxed)
    }
}

/// Batches in flight on one channel: (delivery deadline, payload).
type InFlight = VecDeque<(u64, Vec<Item>)>;

/// Heartbeats in flight to one member: (deliver_at, sender, sent_at).
type HeartbeatsInFlight = VecDeque<(u64, u32, u64)>;

/// In-process transport with a fixed one-way latency. Optionally
/// fault-aware: with a [`NetworkFaults`] attached, partitions park traffic
/// (delivery blocked until heal — the modeled TCP connection retransmits,
/// so nothing is lost and FIFO order holds), chaos adds seeded jitter and
/// retransmit penalties to data, and heartbeats are genuinely dropped.
pub struct InMemoryTransport {
    clock: SharedClock,
    latency_nanos: u64,
    data: Mutex<HashMap<ChannelId, InFlight>>,
    acks: Mutex<HashMap<ChannelId, VecDeque<(u64, u64)>>>,
    /// receiver member -> heartbeats awaiting delivery
    heartbeats: Mutex<HashMap<u32, HeartbeatsInFlight>>,
    faults: Option<Arc<NetworkFaults>>,
}

impl InMemoryTransport {
    pub fn new(clock: SharedClock, latency_nanos: u64) -> Self {
        InMemoryTransport {
            clock,
            latency_nanos,
            data: Mutex::new(HashMap::new()),
            acks: Mutex::new(HashMap::new()),
            heartbeats: Mutex::new(HashMap::new()),
            faults: None,
        }
    }

    /// Attach shared fault state (see [`NetworkFaults`]). Without it the
    /// transport behaves exactly as before and pays no fault overhead.
    pub fn with_faults(mut self, faults: Arc<NetworkFaults>) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn latency_nanos(&self) -> u64 {
        self.latency_nanos
    }

    /// A channel crossing an active partition delivers nothing until heal.
    fn blocked(&self, from: u32, to: u32) -> bool {
        self.faults
            .as_ref()
            .map(|f| f.partitioned(from, to))
            .unwrap_or(false)
    }
}

impl Transport for InMemoryTransport {
    // jet-analyze: allow(alloc, block) — in-memory NIC stand-in: the lock models the network boundary; queues reach steady capacity
    fn send_data(&self, channel: ChannelId, items: Vec<Item>) {
        let extra = self.faults.as_ref().map(|f| f.data_delay()).unwrap_or(0);
        let at = self.clock.now_nanos() + self.latency_nanos + extra;
        let mut data = self.data.lock();
        let q = data.entry(channel).or_default();
        // Chaos jitter must not reorder a FIFO byte stream: delivery
        // deadlines are monotone per channel (a delayed batch delays its
        // successors, exactly like TCP head-of-line blocking).
        let at = q.back().map(|(prev, _)| at.max(*prev)).unwrap_or(at);
        q.push_back((at, items));
    }

    // jet-analyze: allow(alloc, block) — in-memory NIC stand-in: the lock models the network boundary; queues reach steady capacity
    fn send_ack(&self, channel: ChannelId, grant: u64) {
        let at = self.clock.now_nanos() + self.latency_nanos;
        self.acks
            .lock()
            .entry(channel)
            .or_default()
            .push_back((at, grant));
    }

    // jet-analyze: allow(block, panic) — in-memory NIC stand-in: the lock models the network boundary; front checked under the same lock
    fn poll_data(&self, channel: ChannelId) -> Option<Vec<Item>> {
        if self.blocked(channel.from, channel.to) {
            return None;
        }
        let now = self.clock.now_nanos();
        let mut data = self.data.lock();
        let q = data.get_mut(&channel)?;
        if q.front().map(|(at, _)| *at <= now).unwrap_or(false) {
            Some(q.pop_front().expect("front checked").1)
        } else {
            None
        }
    }

    // jet-analyze: allow(block, panic) — in-memory NIC stand-in: the lock models the network boundary; front checked under the same lock
    fn poll_ack(&self, channel: ChannelId) -> Option<u64> {
        // Acks flow receiver -> sender: the partition check must mirror
        // that direction (`to` is the data receiver originating the ack).
        if self.blocked(channel.to, channel.from) {
            return None;
        }
        let now = self.clock.now_nanos();
        let mut acks = self.acks.lock();
        let q = acks.get_mut(&channel)?;
        if q.front().map(|(at, _)| *at <= now).unwrap_or(false) {
            Some(q.pop_front().expect("front checked").1)
        } else {
            None
        }
    }

    fn send_heartbeat(&self, from: u32, to: u32) {
        let extra = match self.faults.as_ref() {
            Some(f) => match f.heartbeat_fate(from, to) {
                Some(extra) => extra,
                None => return, // lost
            },
            None => 0,
        };
        let now = self.clock.now_nanos();
        self.heartbeats.lock().entry(to).or_default().push_back((
            now + self.latency_nanos + extra,
            from,
            now,
        ));
    }

    fn poll_heartbeats(&self, to: u32) -> Vec<(u32, u64)> {
        let now = self.clock.now_nanos();
        let mut hb = self.heartbeats.lock();
        let Some(q) = hb.get_mut(&to) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Jitter can reorder heartbeats (they are independent datagrams),
        // so scan the whole queue instead of gating on the front.
        let mut i = 0;
        while i < q.len() {
            if q[i].0 <= now {
                let (_, from, sent) = q.remove(i).expect("index checked");
                out.push((from, sent));
            } else {
                i += 1;
            }
        }
        out
    }
}

/// Instruments for one direction of one distributed edge, tagged
/// `edge`/`from`/`to`. The sender side feeds `jet_channel_items_sent_total`
/// and `jet_channel_bytes_sent_total`; the receiver side feeds
/// `jet_channel_receive_window` (the grant size last advertised) and
/// `jet_channel_watermark_lag_nanos` (clock time minus the newest watermark
/// forwarded downstream; `-1` means the channel went idle or terminal, so a
/// stale lag is never reported for a channel that stopped flowing). Build one
/// per side against the owning member's registry — sender and receiver live
/// on different members.
#[derive(Clone)]
pub struct ChannelMetrics {
    items_sent: SharedCounter,
    bytes_sent: SharedCounter,
    receive_window: SharedGauge,
    watermark_lag: SharedGauge,
}

impl ChannelMetrics {
    fn channel_tags(channel: ChannelId) -> crate::metrics::Tags {
        tags(&[
            ("edge", &channel.edge.to_string()),
            ("from", &channel.from.to_string()),
            ("to", &channel.to.to_string()),
        ])
    }

    /// Register the sender-side instruments on `registry`; the receiver-side
    /// handles stay local (unregistered) no-ops.
    pub fn sender_side(registry: &MetricsRegistry, channel: ChannelId) -> Self {
        let t = Self::channel_tags(channel);
        ChannelMetrics {
            items_sent: registry.counter("jet_channel_items_sent_total", t.clone()),
            bytes_sent: registry.counter("jet_channel_bytes_sent_total", t),
            receive_window: SharedGauge::new(),
            watermark_lag: SharedGauge::new(),
        }
    }

    /// Register the receiver-side instruments on `registry`; the sender-side
    /// handles stay local (unregistered) no-ops.
    pub fn receiver_side(registry: &MetricsRegistry, channel: ChannelId) -> Self {
        let t = Self::channel_tags(channel);
        ChannelMetrics {
            items_sent: SharedCounter::new(),
            bytes_sent: SharedCounter::new(),
            receive_window: registry.gauge("jet_channel_receive_window", t.clone()),
            watermark_lag: registry.gauge("jet_channel_watermark_lag_nanos", t),
        }
    }

    pub fn items_sent(&self) -> u64 {
        self.items_sent.get()
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    pub fn receive_window(&self) -> i64 {
        self.receive_window.get()
    }

    pub fn watermark_lag_nanos(&self) -> i64 {
        self.watermark_lag.get()
    }
}

/// Gauge value marking a channel whose watermark stream went idle or
/// terminal — distinguishable from every real lag, which is >= 0.
pub const WATERMARK_LAG_IDLE: i64 = -1;

/// Flow-control constants (paper values).
pub const ACK_INTERVAL_NANOS: u64 = 100_000_000; // 100 ms
/// Window target as a multiple of the per-ack-interval throughput: 300 ms
/// of data = 3 ack intervals.
pub const WINDOW_INTERVALS: u64 = 3;
/// Floor so a cold stream can start flowing before the first rate estimate.
pub const MIN_WINDOW: u64 = 1024;

/// Sender side of one distributed-edge channel: merges the local producers'
/// lanes (coalescing watermarks, aligning barriers, joining done-flags) into
/// one ordered stream and ships it under the receive-window's grant.
pub struct SenderTasklet {
    name: String,
    channel: ChannelId,
    transport: Arc<dyn Transport>,
    input: Conveyor<Item>,
    guarantee: Guarantee,
    coalescer: WatermarkCoalescer,
    lane_done: Vec<bool>,
    done_count: usize,
    barrier_seen: Vec<bool>,
    current_barrier: Option<Barrier>,
    sent: u64,
    grant: u64,
    batch: Vec<Item>,
    max_batch: usize,
    finished: bool,
    metrics: Option<ChannelMetrics>,
    trace: TraceWriter,
    trace_name: u32,
    trace_clock: Option<SharedClock>,
}

impl SenderTasklet {
    pub fn new(
        channel: ChannelId,
        transport: Arc<dyn Transport>,
        input: Conveyor<Item>,
        guarantee: Guarantee,
    ) -> Self {
        let lanes = input.lane_count();
        SenderTasklet {
            name: format!(
                "sender-e{}-m{}->m{}",
                channel.edge, channel.from, channel.to
            ),
            channel,
            transport,
            input,
            guarantee,
            coalescer: WatermarkCoalescer::new(lanes),
            lane_done: vec![false; lanes],
            done_count: 0,
            barrier_seen: vec![false; lanes],
            current_barrier: None,
            sent: 0,
            grant: MIN_WINDOW,
            batch: Vec::new(),
            max_batch: 256,
            finished: false,
            metrics: None,
            trace: TraceWriter::disabled(),
            trace_name: 0,
            trace_clock: None,
        }
    }

    /// Attach channel instruments (built via [`ChannelMetrics::sender_side`]).
    pub fn with_metrics(mut self, metrics: ChannelMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attach an execution-trace writer; shipped batches record `net-send`
    /// instants carrying the payload bytes.
    pub fn with_trace(mut self, writer: TraceWriter, clock: SharedClock) -> Self {
        self.trace_name = writer.intern(&self.name);
        self.trace = writer;
        self.trace_clock = Some(clock);
        self
    }

    fn aligned(&self) -> bool {
        self.current_barrier.is_some()
            && (0..self.lane_done.len()).all(|l| self.barrier_seen[l] || self.lane_done[l])
    }

    // jet-analyze: allow(alloc) — sender frame buffer grows to steady capacity during warm-up
    fn push(&mut self, item: Item) {
        self.batch.push(item);
        self.sent += 1;
    }

    fn ship(&mut self) -> bool {
        if self.batch.is_empty() {
            return false;
        }
        let need_bytes = self.metrics.is_some() || self.trace.enabled();
        let bytes: u64 = if need_bytes {
            self.batch.iter().map(|i| i.wire_size() as u64).sum()
        } else {
            0
        };
        if let Some(m) = &self.metrics {
            m.items_sent.add(self.batch.len() as u64);
            m.bytes_sent.add(bytes);
        }
        if self.trace.enabled() {
            let ts = self
                .trace_clock
                .as_ref()
                .map(|c| c.now_nanos())
                .unwrap_or(0);
            self.trace
                .record(TraceKind::NetSend, ts, 0, self.trace_name, bytes as i64);
        }
        self.transport
            .send_data(self.channel, std::mem::take(&mut self.batch));
        true
    }
}

impl Tasklet for SenderTasklet {
    // jet-analyze: allow(alloc, panic) — sender frame buffer reaches steady capacity; the in-flight expect is guarded by the accounting above
    fn call(&mut self) -> Progress {
        if self.finished {
            return Progress::Done;
        }
        let mut worked = false;
        while let Some(grant) = self.transport.poll_ack(self.channel) {
            if grant > self.grant {
                self.grant = grant;
                worked = true;
            }
        }
        let exactly_once = self.guarantee == Guarantee::ExactlyOnce;
        let lanes = self.lane_done.len();
        'outer: for lane in 0..lanes {
            if self.lane_done[lane] {
                continue;
            }
            if exactly_once && self.current_barrier.is_some() && self.barrier_seen[lane] {
                continue; // aligned lane blocks until all lanes deliver
            }
            loop {
                if self.sent >= self.grant || self.batch.len() >= self.max_batch {
                    break 'outer; // window exhausted or batch full
                }
                // Fast path: move the whole run of queued events into the
                // outgoing frame with one bulk drain (single atomic publish
                // on the lane, one `sent` update for the run).
                let budget = (self.grant - self.sent)
                    .min((self.max_batch - self.batch.len()) as u64)
                    as usize;
                let batch = &mut self.batch;
                let moved =
                    self.input
                        .drain_lane_batch_while(lane, budget, Item::is_event, |item| {
                            batch.push(item)
                        });
                if moved > 0 {
                    self.sent += moved as u64;
                    worked = true;
                    continue;
                }
                // Control items carry per-item protocol state (coalescing,
                // alignment, done-counting), so they stay item-granular.
                // single-item: barriers/watermarks/done need individual handling
                let Some(item) = self.input.poll_lane(lane) else {
                    break;
                };
                worked = true;
                match item {
                    Item::Event { .. } => self.push(item),
                    Item::Watermark(w) => {
                        if let Some(coalesced) = self.coalescer.observe(lane, w) {
                            self.push(Item::Watermark(coalesced));
                        }
                    }
                    Item::Barrier(b) => {
                        if self.current_barrier.is_none() {
                            self.current_barrier = Some(b);
                        }
                        self.barrier_seen[lane] = true;
                        if self.aligned() {
                            self.push(Item::Barrier(b));
                            self.current_barrier = None;
                            self.barrier_seen.iter_mut().for_each(|s| *s = false);
                        }
                        if exactly_once {
                            break; // stop draining this lane
                        }
                    }
                    Item::Done => {
                        self.lane_done[lane] = true;
                        self.done_count += 1;
                        if let Some(coalesced) = self.coalescer.channel_done(lane) {
                            self.push(Item::Watermark(coalesced));
                        }
                        // A done lane counts as aligned.
                        if self.aligned() {
                            let b = self.current_barrier.take().expect("aligned with barrier");
                            self.push(Item::Barrier(b));
                            self.barrier_seen.iter_mut().for_each(|s| *s = false);
                        }
                        if self.done_count == lanes {
                            self.push(Item::Done);
                            self.ship();
                            self.finished = true;
                            return Progress::Done;
                        }
                        break;
                    }
                }
            }
        }
        worked |= self.ship();
        Progress::from_worked(worked)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Receiver side: unpacks arriving batches, routes them into the local
/// consumers' conveyor lanes, and grants window credit every 100 ms sized to
/// ~300 ms of the observed processing rate.
pub struct ReceiverTasklet {
    name: String,
    channel: ChannelId,
    transport: Arc<dyn Transport>,
    clock: SharedClock,
    output: OutboundCollector,
    /// Items delivered to local consumers (the "processed n" of the paper's
    /// protocol).
    processed: u64,
    /// Items buffered locally, not yet accepted by consumer queues.
    pending: VecDeque<Item>,
    last_ack_at: u64,
    processed_at_last_ack: u64,
    finished: bool,
    done_forwarded: bool,
    /// Fixed window override (ablation A4); None = adaptive.
    fixed_window: Option<u64>,
    metrics: Option<ChannelMetrics>,
    trace: TraceWriter,
    trace_name: u32,
}

impl ReceiverTasklet {
    pub fn new(
        channel: ChannelId,
        transport: Arc<dyn Transport>,
        clock: SharedClock,
        output: OutboundCollector,
    ) -> Self {
        ReceiverTasklet {
            name: format!(
                "receiver-e{}-m{}->m{}",
                channel.edge, channel.from, channel.to
            ),
            channel,
            transport,
            clock,
            output,
            processed: 0,
            pending: VecDeque::new(),
            last_ack_at: 0,
            processed_at_last_ack: 0,
            finished: false,
            done_forwarded: false,
            fixed_window: None,
            metrics: None,
            trace: TraceWriter::disabled(),
            trace_name: 0,
        }
    }

    /// Attach an execution-trace writer; arriving batches record `net-recv`
    /// instants carrying the item count.
    pub fn with_trace(mut self, writer: TraceWriter) -> Self {
        self.trace_name = writer.intern(&self.name);
        self.trace = writer;
        self
    }

    /// Disable adaptivity: always grant `processed + window` (ablation A4).
    pub fn with_fixed_window(mut self, window: u64) -> Self {
        self.fixed_window = Some(window);
        self
    }

    /// Attach channel instruments (built via [`ChannelMetrics::receiver_side`]).
    pub fn with_metrics(mut self, metrics: ChannelMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn flush_pending(&mut self) -> bool {
        let mut any = false;
        loop {
            // Fast path: hand the whole run of buffered events to the local
            // consumer queues in bulk — the routing policy batches them onto
            // its targets with one atomic publish per target.
            if self.pending.front().is_some_and(Item::is_event) {
                let moved = self.output.offer_event_run(&mut self.pending, usize::MAX);
                if moved > 0 {
                    self.processed += moved as u64;
                    any = true;
                }
                if self.pending.front().is_some_and(Item::is_event) {
                    break; // consumer queues full mid-run
                }
                continue;
            }
            let Some(item) = self.pending.front() else {
                break;
            };
            let was_done = matches!(item, Item::Done);
            // IDLE_CHANNEL (`Ts::MAX`) is a liveness marker, not an
            // event-time watermark — recording it as lag would swing the
            // gauge to roughly `i64::MIN`.
            let watermark = match item {
                Item::Watermark(w) if *w != crate::watermark::IDLE_CHANNEL => Some(*w),
                _ => None,
            };
            // Idle/terminal transition: park the lag gauge at the idle
            // marker instead of letting the last real lag linger forever.
            let went_quiet = was_done
                || matches!(item, Item::Watermark(w) if *w == crate::watermark::IDLE_CHANNEL);
            let delivered = if self.output.offer_to_all(item) {
                self.pending.pop_front();
                true
            } else {
                false
            };
            if delivered {
                self.processed += 1;
                any = true;
                if was_done {
                    self.done_forwarded = true;
                }
                if let Some(m) = &self.metrics {
                    if let Some(w) = watermark {
                        // Virtual time is aligned with event time in the
                        // simulator, so now - watermark is the event-time
                        // lag of this channel. Watermarks never run ahead of
                        // now; one that does is a near-`Ts::MAX`
                        // idle/terminal sentinel (possibly shifted by a
                        // policy's lag bound) and would poison the gauge
                        // with a huge negative value.
                        let now = self.clock.now_nanos() as i64;
                        if w <= now {
                            m.watermark_lag.set(now - w);
                        }
                    } else if went_quiet {
                        m.watermark_lag.set(WATERMARK_LAG_IDLE);
                    }
                }
            } else {
                break;
            }
        }
        any
    }

    fn maybe_ack(&mut self) -> bool {
        let now = self.clock.now_nanos();
        if now.saturating_sub(self.last_ack_at) < ACK_INTERVAL_NANOS && self.last_ack_at != 0 {
            return false;
        }
        let window = match self.fixed_window {
            Some(w) => w,
            None => {
                // Adaptive: ~300 ms of the rate observed in the last interval.
                let in_interval = self.processed - self.processed_at_last_ack;
                (in_interval * WINDOW_INTERVALS).max(MIN_WINDOW)
            }
        };
        if let Some(m) = &self.metrics {
            m.receive_window.set(window as i64);
        }
        self.transport
            .send_ack(self.channel, self.processed + window);
        self.last_ack_at = now;
        self.processed_at_last_ack = self.processed;
        true
    }
}

impl Tasklet for ReceiverTasklet {
    // jet-analyze: allow(alloc) — reassembled batch buffer reaches steady-state capacity
    fn call(&mut self) -> Progress {
        if self.finished {
            return Progress::Done;
        }
        let mut worked = self.flush_pending();
        if self.pending.len() < 4 * MIN_WINDOW as usize {
            while let Some(items) = self.transport.poll_data(self.channel) {
                worked = true;
                if self.trace.enabled() {
                    let ts = self.clock.now_nanos();
                    self.trace.record(
                        TraceKind::NetRecv,
                        ts,
                        0,
                        self.trace_name,
                        items.len() as i64,
                    );
                }
                self.pending.extend(items);
                if self.pending.len() >= 4 * MIN_WINDOW as usize {
                    break;
                }
            }
        }
        worked |= self.flush_pending();
        worked |= self.maybe_ack();
        // Done is always the last item a sender ships, so once it has been
        // forwarded this channel is finished.
        if self.done_forwarded {
            self.finished = true;
            return Progress::Done;
        }
        Progress::from_worked(worked)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Routing;
    use crate::object::boxed;
    use jet_queue::spsc_channel;
    use jet_util::clock::manual_clock;

    fn channel() -> ChannelId {
        ChannelId {
            edge: 0,
            from: 0,
            to: 1,
        }
    }

    #[test]
    fn transport_delays_delivery_by_latency() {
        let (manual, clock) = manual_clock();
        let t = InMemoryTransport::new(clock, 1_000);
        t.send_data(channel(), vec![Item::Watermark(1)]);
        assert!(
            t.poll_data(channel()).is_none(),
            "delivered before latency elapsed"
        );
        manual.advance(999);
        assert!(t.poll_data(channel()).is_none());
        manual.advance(1);
        assert!(t.poll_data(channel()).is_some());
        assert!(t.poll_data(channel()).is_none());
    }

    #[test]
    fn partition_parks_traffic_until_heal() {
        let (manual, clock) = manual_clock();
        let faults = Arc::new(NetworkFaults::new(1));
        let t = InMemoryTransport::new(clock, 100).with_faults(faults.clone());
        t.send_data(channel(), vec![Item::Watermark(1)]);
        faults.start_partition(9, vec![0]);
        manual.advance(10_000);
        assert!(t.poll_data(channel()).is_none(), "delivered across a cut");
        assert!(t.poll_ack(channel()).is_none());
        faults.end_partition(9);
        assert!(
            t.poll_data(channel()).is_some(),
            "parked batch must deliver after heal"
        );
    }

    #[test]
    fn chaos_delays_but_never_loses_or_reorders_data() {
        let (manual, clock) = manual_clock();
        let faults = Arc::new(NetworkFaults::new(7));
        let t = InMemoryTransport::new(clock, 100).with_faults(faults.clone());
        faults.set_chaos(ChannelChaos::new(300_000, 5_000));
        let n = 200;
        for i in 0..n {
            t.send_data(channel(), vec![Item::Watermark(i)]);
        }
        manual.advance(10_000_000);
        let mut got = Vec::new();
        while let Some(items) = t.poll_data(channel()) {
            for it in items {
                if let Item::Watermark(w) = it {
                    got.push(w);
                }
            }
        }
        assert_eq!(got.len(), n as usize, "chaos lost data");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "chaos reordered data");
        assert!(faults.batches_retransmitted() > 0, "no retransmit at 30%?");
    }

    #[test]
    fn heartbeats_deliver_with_latency_and_drop_under_partition() {
        let (manual, clock) = manual_clock();
        let faults = Arc::new(NetworkFaults::new(3));
        let t = InMemoryTransport::new(clock, 1_000).with_faults(faults.clone());
        t.send_heartbeat(0, 1);
        assert!(t.poll_heartbeats(1).is_empty(), "before latency");
        manual.advance(1_000);
        let hb = t.poll_heartbeats(1);
        assert_eq!(hb, vec![(0, 0)]);
        faults.start_partition(1, vec![0]);
        t.send_heartbeat(0, 1);
        manual.advance(10_000);
        assert!(t.poll_heartbeats(1).is_empty(), "heartbeat crossed the cut");
        assert_eq!(faults.heartbeats_dropped(), 1);
    }

    #[test]
    fn fault_free_transport_with_faults_attached_behaves_identically() {
        let (manual, clock) = manual_clock();
        let faults = Arc::new(NetworkFaults::new(0));
        let t = InMemoryTransport::new(clock, 500).with_faults(faults);
        t.send_data(channel(), vec![Item::Watermark(1)]);
        manual.advance(499);
        assert!(t.poll_data(channel()).is_none());
        manual.advance(1);
        assert!(t.poll_data(channel()).is_some());
    }

    #[test]
    fn transport_acks_are_independent_of_data() {
        let (manual, clock) = manual_clock();
        let t = InMemoryTransport::new(clock, 0);
        t.send_ack(channel(), 500);
        assert_eq!(t.poll_ack(channel()), Some(500));
        assert!(t.poll_data(channel()).is_none());
        manual.advance(1);
    }

    #[test]
    fn sender_respects_grant() {
        let (_manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock, 0));
        let (conv, mut producers) = Conveyor::<Item>::new(1, 1 << 14);
        let mut sender = SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::None);
        sender.grant = 10;
        for i in 0..100 {
            producers[0].offer(Item::event(i, boxed(i as u64))).unwrap();
        }
        sender.call();
        let mut received = 0;
        while let Some(items) = transport.poll_data(channel()) {
            received += items.len();
        }
        assert_eq!(received, 10, "sender exceeded its grant");
        // Grant more; sender resumes.
        transport.send_ack(channel(), 30);
        sender.call();
        let mut more = 0;
        while let Some(items) = transport.poll_data(channel()) {
            more += items.len();
        }
        assert_eq!(more, 20);
    }

    #[test]
    fn sender_coalesces_watermarks_across_lanes() {
        let (_manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock, 0));
        let (conv, mut producers) = Conveyor::<Item>::new(2, 64);
        let mut sender = SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::None);
        producers[0].offer(Item::Watermark(10)).unwrap();
        producers[1].offer(Item::Watermark(5)).unwrap();
        sender.call();
        let mut wms = Vec::new();
        while let Some(items) = transport.poll_data(channel()) {
            for it in items {
                if let Item::Watermark(w) = it {
                    wms.push(w);
                }
            }
        }
        assert_eq!(wms, vec![5], "expected single coalesced watermark");
    }

    #[test]
    fn sender_aligns_barriers_before_forwarding() {
        let (_manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock, 0));
        let (conv, mut producers) = Conveyor::<Item>::new(2, 64);
        let mut sender =
            SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::ExactlyOnce);
        let b = Barrier {
            snapshot_id: 1,
            terminal: false,
        };
        producers[0].offer(Item::Barrier(b)).unwrap();
        producers[0].offer(Item::event(1, boxed(1u64))).unwrap(); // post-barrier item
        sender.call();
        let mut got_barrier = false;
        while let Some(items) = transport.poll_data(channel()) {
            for it in items {
                assert!(
                    !matches!(it, Item::Event { .. }),
                    "post-barrier event leaked: {it:?}"
                );
                if matches!(it, Item::Barrier(_)) {
                    got_barrier = true;
                }
            }
        }
        assert!(!got_barrier, "barrier forwarded before alignment");
        producers[1].offer(Item::Barrier(b)).unwrap();
        sender.call();
        sender.call(); // next timeslice drains the previously blocked lane
        let mut seen = Vec::new();
        while let Some(items) = transport.poll_data(channel()) {
            seen.extend(items);
        }
        assert!(matches!(seen[0], Item::Barrier(bb) if bb.snapshot_id == 1));
        // The post-barrier event follows the barrier.
        assert!(seen[1..].iter().any(|i| i.is_event()));
    }

    #[test]
    fn sender_forwards_done_when_all_lanes_done() {
        let (_manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock, 0));
        let (conv, mut producers) = Conveyor::<Item>::new(2, 64);
        let mut sender = SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::None);
        producers[0].offer(Item::Done).unwrap();
        assert_eq!(sender.call(), Progress::MadeProgress);
        producers[1].offer(Item::Done).unwrap();
        assert_eq!(sender.call(), Progress::Done);
        let mut seen = Vec::new();
        while let Some(items) = transport.poll_data(channel()) {
            seen.extend(items);
        }
        assert!(matches!(seen.last(), Some(Item::Done)));
        assert_eq!(seen.iter().filter(|i| matches!(i, Item::Done)).count(), 1);
    }

    #[test]
    fn receiver_forwards_and_acks() {
        let (manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let (p, c) = spsc_channel::<Item>(1 << 12);
        let output = OutboundCollector::new(Routing::Unicast, vec![p], vec![], 271, 0);
        let mut receiver = ReceiverTasklet::new(channel(), transport.clone(), clock, output);
        transport.send_data(
            channel(),
            vec![Item::event(1, boxed(7u64)), Item::Watermark(2)],
        );
        manual.advance(1);
        receiver.call();
        assert_eq!(c.len(), 2);
        // First call acks immediately (cold start), second within interval does not.
        assert!(transport.poll_ack(channel()).is_some());
        receiver.call();
        assert!(transport.poll_ack(channel()).is_none());
        manual.advance(ACK_INTERVAL_NANOS);
        receiver.call();
        let grant = transport.poll_ack(channel()).unwrap();
        assert!(grant >= 2 + MIN_WINDOW);
    }

    #[test]
    fn channel_metrics_record_flow_on_both_sides() {
        let (manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let sender_reg = MetricsRegistry::new();
        let receiver_reg = MetricsRegistry::new();

        let (conv, mut producers) = Conveyor::<Item>::new(1, 64);
        let mut sender = SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::None)
            .with_metrics(ChannelMetrics::sender_side(&sender_reg, channel()));
        let (p, c) = spsc_channel::<Item>(64);
        let output = OutboundCollector::new(Routing::Unicast, vec![p], vec![], 271, 0);
        let mut receiver = ReceiverTasklet::new(channel(), transport.clone(), clock, output)
            .with_metrics(ChannelMetrics::receiver_side(&receiver_reg, channel()));

        producers[0].offer(Item::event(1, boxed(1u64))).unwrap();
        producers[0].offer(Item::event(2, boxed(2u64))).unwrap();
        producers[0].offer(Item::Watermark(2)).unwrap();
        sender.call();
        manual.advance(10);
        receiver.call();

        let snap = sender_reg.snapshot();
        let items = snap
            .find("jet_channel_items_sent_total", &[("edge", "0")])
            .unwrap();
        assert_eq!(items.as_counter(), Some(3));
        let bytes = snap
            .find(
                "jet_channel_bytes_sent_total",
                &[("from", "0"), ("to", "1")],
            )
            .unwrap();
        assert_eq!(
            bytes.as_counter(),
            Some(2 * (16 + 8) + 16),
            "2 u64 events + 1 watermark"
        );

        let rsnap = receiver_reg.snapshot();
        let window = rsnap
            .find("jet_channel_receive_window", &[("edge", "0")])
            .unwrap();
        assert_eq!(
            window.as_gauge(),
            Some(MIN_WINDOW as i64),
            "cold-start ack uses the floor"
        );
        let lag = rsnap
            .find("jet_channel_watermark_lag_nanos", &[("edge", "0")])
            .unwrap();
        assert_eq!(lag.as_gauge(), Some(10 - 2), "now=10, watermark=2");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn watermark_lag_gauge_resets_when_channel_goes_idle_or_terminal() {
        let (manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let reg = MetricsRegistry::new();
        let (p, _c) = spsc_channel::<Item>(64);
        let output = OutboundCollector::new(Routing::Unicast, vec![p], vec![], 271, 0);
        let mut receiver = ReceiverTasklet::new(channel(), transport.clone(), clock, output)
            .with_metrics(ChannelMetrics::receiver_side(&reg, channel()));

        manual.advance(100);
        transport.send_data(channel(), vec![Item::Watermark(40)]);
        receiver.call();
        let lag = |reg: &MetricsRegistry| {
            reg.snapshot()
                .find("jet_channel_watermark_lag_nanos", &[("edge", "0")])
                .unwrap()
                .as_gauge()
                .unwrap()
        };
        assert_eq!(lag(&reg), 60, "real lag recorded");

        // Channel goes idle: the stale 60 must not linger as phantom lag.
        transport.send_data(
            channel(),
            vec![Item::Watermark(crate::watermark::IDLE_CHANNEL)],
        );
        receiver.call();
        assert_eq!(lag(&reg), WATERMARK_LAG_IDLE, "idle marks the gauge");

        // Revival restores real lag reporting...
        manual.advance(100);
        transport.send_data(channel(), vec![Item::Watermark(150)]);
        receiver.call();
        assert_eq!(lag(&reg), 50);

        // ...and the terminal Done parks it at the idle marker again.
        transport.send_data(channel(), vec![Item::Done]);
        assert_eq!(receiver.call(), Progress::Done);
        assert_eq!(lag(&reg), WATERMARK_LAG_IDLE, "terminal marks the gauge");
    }

    #[test]
    fn traced_channel_records_send_and_receive() {
        use crate::flight::{Recorder, RecorderConfig};
        use crate::trace::TraceKind;
        let (manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let recorder = Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        });
        let tracer = recorder.tracer();
        let (conv, mut producers) = Conveyor::<Item>::new(1, 64);
        let mut sender = SenderTasklet::new(channel(), transport.clone(), conv, Guarantee::None)
            .with_trace(tracer.writer(0, "m0/sender"), clock.clone());
        let (p, _c) = spsc_channel::<Item>(64);
        let output = OutboundCollector::new(Routing::Unicast, vec![p], vec![], 271, 0);
        let mut receiver = ReceiverTasklet::new(channel(), transport.clone(), clock, output)
            .with_trace(tracer.writer(1, "m1/receiver"));

        producers[0].offer(Item::event(1, boxed(1u64))).unwrap();
        producers[0].offer(Item::Watermark(1)).unwrap();
        manual.advance(5);
        sender.call();
        manual.advance(5);
        receiver.call();

        recorder.drain_spans();
        let data = recorder.trace().expect("span ring armed");
        let sends: Vec<_> = data.of_kind(TraceKind::NetSend).collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].rec.ts, 5);
        assert_eq!(
            sends[0].rec.arg,
            (16 + 8) + 16,
            "1 u64 event + 1 watermark in bytes"
        );
        assert_eq!(data.name(sends[0].rec.name), "sender-e0-m0->m1");
        let recvs: Vec<_> = data.of_kind(TraceKind::NetRecv).collect();
        assert_eq!(recvs.len(), 1);
        assert_eq!(recvs[0].rec.ts, 10);
        assert_eq!(recvs[0].rec.arg, 2, "2 items in the batch");
    }

    #[test]
    fn receiver_finishes_on_done() {
        let (manual, clock) = manual_clock();
        let transport = Arc::new(InMemoryTransport::new(clock.clone(), 0));
        let (p, _c) = spsc_channel::<Item>(64);
        let output = OutboundCollector::new(Routing::Unicast, vec![p], vec![], 271, 0);
        let mut receiver = ReceiverTasklet::new(channel(), transport.clone(), clock, output);
        transport.send_data(channel(), vec![Item::Done]);
        manual.advance(1);
        assert_eq!(receiver.call(), Progress::Done);
    }
}
