//! Tasklets: the small cooperative computation units that share worker
//! threads (paper §3.2, Fig. 4).
//!
//! A [`ProcessorTasklet`] drives one processor instance through a
//! non-blocking state machine. Every `call` is one short timeslice: flush
//! the outbox, then make whatever progress the current phase allows, then
//! yield. The phases mirror Jet's `ProcessorTasklet`:
//!
//! ```text
//! Process --(barrier aligned / snapshot requested)--> SaveSnapshot
//!   |  \--(an input's lanes all done)--> CompleteEdge --> Process
//!   \--(all inputs done)--> Complete --> EmitDone --> Drain --> Done
//! SaveSnapshot --> EmitBarrier --> Process (or EmitDone if terminal)
//! ```
//!
//! Barrier handling implements both consistency modes of §4.4: with
//! `ExactlyOnce`, a lane that delivered the current barrier is not drained
//! again until every lane aligned (channel blocking); with `AtLeastOnce`,
//! draining continues and the snapshot is taken when the last lane's
//! barrier arrives.

use crate::dag::Kind;
use crate::item::{Barrier, Item, SnapshotId, Ts};
use crate::metrics::{SharedHistogram, TaskletCounters};
use crate::outbound::OutboundCollector;
use crate::processor::{Chain, Guarantee, Inbox, Outbox, Processor, ProcessorContext};
use crate::snapshot::SnapshotRegistry;
use crate::trace::{TraceKind, TraceWriter};
use crate::watermark::{WatermarkCoalescer, WatermarkProbe, IDLE_CHANNEL};
use jet_queue::{Conveyor, DepthProbe};
use jet_util::clock::SharedClock;
use jet_util::progress::Progress;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Anything schedulable on a cooperative worker.
pub trait Tasklet: Send {
    /// One timeslice. Must not block and should stay well under 1 ms.
    fn call(&mut self) -> Progress;

    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Cooperative tasklets share worker threads; non-cooperative ones get
    /// a dedicated thread (§3.1: blocking connectors).
    fn is_cooperative(&self) -> bool {
        true
    }

    /// Current execution state for diagnostics dumps (e.g. the processor
    /// phase). Infrastructure tasklets just report "running".
    fn state(&self) -> &'static str {
        "running"
    }

    /// Tenant job this tasklet belongs to for per-job scheduling quotas
    /// (§7.7). Job 0 is the shared pool: infrastructure tasklets and every
    /// vertex not put in a job live there. The pipeline compiler puts a
    /// vertex whose inputs all share one job in that job, so a tenant's
    /// pipeline is one job from its source to its sinks.
    fn job(&self) -> u32 {
        0
    }

    /// What this tasklet does; the simulator's cost model charges by it.
    fn kind(&self) -> Kind {
        Kind::Other
    }
}

/// One input ordinal's wiring: the conveyor whose lanes are the parallel
/// upstream producers of that edge.
pub struct InputConveyor {
    pub ordinal: usize,
    pub priority: i32,
    pub conveyor: Conveyor<Item>,
}

struct InputState {
    ordinal: usize,
    priority: i32,
    conveyor: Conveyor<Item>,
    lane_done: Vec<bool>,
    done_count: usize,
    barrier_seen: Vec<bool>,
    barrier_count: usize,
    /// Offset of this ordinal's lane 0 in the global coalescer numbering.
    lane_offset: usize,
    edge_completed: bool,
}

impl InputState {
    fn lanes(&self) -> usize {
        self.conveyor.lane_count()
    }

    fn all_done(&self) -> bool {
        self.done_count == self.lanes()
    }

    fn aligned(&self) -> bool {
        (0..self.lanes()).all(|l| self.barrier_seen[l] || self.lane_done[l])
    }

    fn clear_barriers(&mut self) {
        self.barrier_seen.iter_mut().for_each(|b| *b = false);
        self.barrier_count = 0;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Process,
    SaveSnapshot,
    EmitBarrier,
    CompleteEdge(usize),
    Complete,
    EmitDone,
    Drain,
    Done,
}

/// Default number of events moved into the inbox per lane visit.
pub const DEFAULT_BATCH: usize = 256;

/// Tasklet driving one processor instance.
pub struct ProcessorTasklet {
    vertex: String,
    kind: Kind,
    /// Tenant job of the vertex (0 = shared pool).
    job: u32,
    processor: Box<dyn Processor>,
    ctx: ProcessorContext,
    inputs: Vec<InputState>,
    outputs: Vec<OutboundCollector>,
    outbox: Outbox,
    inbox: Inbox,
    /// Set when `process` left items in the inbox (outbox was full).
    pending_ordinal: Option<usize>,
    coalescer: WatermarkCoalescer,
    pending_wm: Option<Ts>,
    guarantee: Guarantee,
    registry: Arc<SnapshotRegistry>,
    last_snapshot: SnapshotId,
    current_barrier: Option<Barrier>,
    /// Chunks written so far for the snapshot in flight. With the vertex
    /// name and this instance's global index it keys a chunk in the store,
    /// so it must not depend on which registry or store handle is in use.
    chunk_seq: u32,
    phase: Phase,
    batch: usize,
    rr_ordinal: usize,
    counters: Arc<TaskletCounters>,
    /// Outbox `events_queued_total` already credited to `counters`.
    events_out_synced: u64,
    /// Distribution of bulk-transfer sizes actually achieved on this
    /// tasklet's queue hops (inbox fills; outbox flush runs for sources) —
    /// exported as the `jet_edge_batch_size` histogram.
    batch_sizes: Option<SharedHistogram>,
    initialized: bool,
    retired: bool,
    is_source: bool,
    cooperative: bool,
    trace: TraceWriter,
    trace_name: u32,
    trace_clock: Option<SharedClock>,
    /// `(start_nanos, snapshot_id)` of the snapshot phase in flight.
    snapshot_started: Option<(u64, SnapshotId)>,
    wm_probe: Arc<WatermarkProbe>,
    /// Total queue-full stalls per output edge (shared with metric gauges).
    out_stalls: Arc<Vec<AtomicU64>>,
    /// Edges currently stalled — traces record the *transition* into a
    /// stall, not every fruitless retry, so rings aren't flooded.
    stalled_edges: Vec<bool>,
}

impl ProcessorTasklet {
    /// `chain` is the vertex's fused stages, run inside this tasklet's
    /// outbox (see [`crate::dag::Vertex::chain`]); `kind` and `job` are the
    /// vertex's.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        processor: Box<dyn Processor>,
        chain: Option<Chain>,
        kind: Kind,
        job: u32,
        ctx: ProcessorContext,
        inputs: Vec<InputConveyor>,
        outputs: Vec<OutboundCollector>,
        registry: Arc<SnapshotRegistry>,
        batch: usize,
    ) -> Self {
        let mut lane_offset = 0;
        let mut input_states = Vec::with_capacity(inputs.len());
        for ic in inputs {
            let lanes = ic.conveyor.lane_count();
            input_states.push(InputState {
                ordinal: ic.ordinal,
                priority: ic.priority,
                conveyor: ic.conveyor,
                lane_done: vec![false; lanes],
                done_count: 0,
                barrier_seen: vec![false; lanes],
                barrier_count: 0,
                lane_offset,
                edge_completed: false,
            });
            lane_offset += lanes;
        }
        let is_source = input_states.is_empty();
        let cooperative = processor.is_cooperative();
        let out_edges = outputs.len();
        let guarantee = ctx.guarantee;
        ProcessorTasklet {
            vertex: ctx.vertex.clone(),
            kind,
            job,
            processor,
            ctx,
            inputs: input_states,
            outputs,
            outbox: Outbox::new(out_edges, batch.max(1)).with_chain(chain),
            inbox: Inbox::new(),
            pending_ordinal: None,
            coalescer: WatermarkCoalescer::new(lane_offset),
            pending_wm: None,
            guarantee,
            registry,
            last_snapshot: 0,
            current_barrier: None,
            chunk_seq: 0,
            phase: if is_source {
                Phase::Complete
            } else {
                Phase::Process
            },
            batch: batch.max(1),
            rr_ordinal: 0,
            counters: TaskletCounters::shared(),
            events_out_synced: 0,
            batch_sizes: None,
            initialized: false,
            retired: false,
            is_source,
            cooperative,
            trace: TraceWriter::disabled(),
            trace_name: 0,
            trace_clock: None,
            snapshot_started: None,
            wm_probe: WatermarkProbe::shared(),
            out_stalls: Arc::new((0..out_edges).map(|_| AtomicU64::new(0)).collect()),
            stalled_edges: vec![false; out_edges],
        }
    }

    /// Attach an execution-trace writer. `clock` supplies span timestamps
    /// (the cluster's virtual clock in simulation, wall clock otherwise).
    pub fn with_trace(mut self, writer: TraceWriter, clock: SharedClock) -> Self {
        self.trace_name = writer.intern(&self.vertex);
        self.trace = writer;
        self.trace_clock = Some(clock);
        self
    }

    pub fn counters(&self) -> Arc<TaskletCounters> {
        self.counters.clone()
    }

    /// Attach a histogram recording the bulk-transfer sizes this tasklet
    /// achieves on its queue hops (`jet_edge_batch_size`).
    pub fn with_batch_histogram(mut self, h: SharedHistogram) -> Self {
        self.batch_sizes = Some(h);
        self
    }

    /// Each input ordinal with its lanes' depth probes, for queue gauges.
    pub fn input_probes(&self) -> impl Iterator<Item = (usize, Vec<DepthProbe>)> + '_ {
        self.inputs.iter().map(|s| (s.ordinal, s.conveyor.probes()))
    }

    /// Shared watermark position (seen vs. coalesced) for gauges and dumps.
    pub fn watermark_probe(&self) -> Arc<WatermarkProbe> {
        self.wm_probe.clone()
    }

    /// Per-output-edge queue-full stall totals, shared for metric export.
    pub fn stall_counters(&self) -> Arc<Vec<AtomicU64>> {
        self.out_stalls.clone()
    }

    #[inline]
    fn trace_now(&self) -> u64 {
        self.trace_clock
            .as_ref()
            .map(|c| c.now_nanos())
            .unwrap_or(0)
    }

    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Process => "process",
            Phase::SaveSnapshot => "save-snapshot",
            Phase::EmitBarrier => "emit-barrier",
            Phase::CompleteEdge(_) => "complete-edge",
            Phase::Complete => "complete",
            Phase::EmitDone => "emit-done",
            Phase::Drain => "drain",
            Phase::Done => "done",
        }
    }

    /// Deliver buffered outbox items into the outbound collectors, FIFO per
    /// edge, with control items broadcast to every target. A full downstream
    /// queue counts a backpressure stall for that edge; the transition into
    /// the stalled state is also recorded as a trace instant.
    fn flush_outbox(&mut self) -> bool {
        let mut any = false;
        let outbox = &mut self.outbox;
        let trace_ts = if self.trace.enabled() {
            self.trace_clock.as_ref().map(|c| c.now_nanos())
        } else {
            None
        };
        let is_source = self.is_source;
        for (i, col) in self.outputs.iter_mut().enumerate() {
            let buf = outbox.buf_mut(i);
            let mut stalled = false;
            while let Some(front) = buf.front() {
                if front.is_event() {
                    // Bulk-move the leading event run: one queue publish per
                    // target visited instead of one per item.
                    let moved = col.offer_event_run(buf, usize::MAX);
                    if moved > 0 {
                        any = true;
                        if is_source {
                            // Sources have no inbox fill; their queue-hop
                            // batches are the outbox flush runs.
                            self.counters.add_queue_batches(1);
                            if let Some(h) = &self.batch_sizes {
                                h.record(moved as u64);
                            }
                        }
                    }
                    if buf.front().is_some_and(Item::is_event) {
                        // Events remain: every viable target is full.
                        stalled = true;
                        break;
                    }
                } else if col.offer_to_all(front) {
                    buf.pop_front();
                    any = true;
                } else {
                    stalled = true;
                    break;
                }
            }
            if stalled {
                self.out_stalls[i].fetch_add(1, Ordering::Relaxed);
                if !self.stalled_edges[i] {
                    self.stalled_edges[i] = true;
                    if let Some(ts) = trace_ts {
                        self.trace
                            .record(TraceKind::Stall, ts, 0, self.trace_name, i as i64);
                    }
                }
            } else {
                self.stalled_edges[i] = false;
            }
        }
        any
    }

    fn all_aligned(&self) -> bool {
        self.current_barrier.is_some() && self.inputs.iter().all(|i| i.aligned())
    }

    /// Attempt to deliver a pending coalesced watermark to the processor.
    /// The all-idle marker bypasses the processor and is forwarded verbatim
    /// (it is a scheduling signal, not an event-time statement).
    fn settle_watermark(&mut self) -> bool {
        if let Some(wm) = self.pending_wm {
            let handled = if wm == crate::watermark::IDLE_CHANNEL {
                self.outbox
                    .broadcast(Item::Watermark(crate::watermark::IDLE_CHANNEL))
            } else {
                self.processor
                    .try_process_watermark(wm, &mut self.outbox, &self.ctx)
            };
            if handled {
                self.pending_wm = None;
                if wm != crate::watermark::IDLE_CHANNEL && self.trace.enabled() {
                    let ts = self.trace_now();
                    self.trace
                        .record(TraceKind::WmEmit, ts, 0, self.trace_name, wm);
                }
                return true;
            }
            return false;
        }
        true
    }

    fn note_coalesced(&mut self, advanced: Option<Ts>) {
        if let Some(wm) = advanced {
            debug_assert!(self.pending_wm.is_none());
            self.pending_wm = Some(wm);
            if wm != IDLE_CHANNEL {
                self.wm_probe.note_coalesced(wm);
                if self.trace.enabled() {
                    let ts = self.trace_now();
                    self.trace
                        .record(TraceKind::WmCoalesce, ts, 0, self.trace_name, wm);
                }
            }
        }
    }

    fn enter_snapshot(&mut self, barrier: Barrier) {
        self.current_barrier = Some(barrier);
        self.phase = Phase::SaveSnapshot;
    }

    /// The Process-phase drain over input conveyors. Returns `true` if any
    /// work was done.
    // jet-analyze: allow(panic) — phase-machine invariants: arms guarded by the preceding state checks
    fn drain_inputs(&mut self) -> bool {
        let mut worked = false;
        // Priority gating: only drain ordinals in the highest-priority
        // (numerically lowest) group that still has live lanes.
        let active_priority = self
            .inputs
            .iter()
            .filter(|i| !i.all_done())
            .map(|i| i.priority)
            .min();
        let Some(active_priority) = active_priority else {
            return worked;
        };
        let n = self.inputs.len();
        let exactly_once = self.guarantee == Guarantee::ExactlyOnce;
        for k in 0..n {
            let oi = (self.rr_ordinal + k) % n;
            if self.inputs[oi].all_done() || self.inputs[oi].priority != active_priority {
                continue;
            }
            let lanes = self.inputs[oi].lanes();
            for lane in 0..lanes {
                if self.inputs[oi].lane_done[lane] {
                    continue;
                }
                if exactly_once
                    && self.current_barrier.is_some()
                    && self.inputs[oi].barrier_seen[lane]
                {
                    continue; // §4.4: blocked until all channels align
                }
                // Fill the inbox with one bulk transfer per lane visit:
                // a single tail read and a single head publish move the
                // whole event run (up to the timeslice budget), stopping at
                // the first control item, which is handled one at a time
                // below.
                let budget = self.batch.saturating_sub(self.inbox.len());
                if budget > 0 {
                    let input = &mut self.inputs[oi];
                    let inbox = &mut self.inbox;
                    let moved =
                        input
                            .conveyor
                            .drain_lane_batch_while(lane, budget, Item::is_event, |it| {
                                let Item::Event { ts, obj } = it else {
                                    unreachable!("accept admits events only")
                                };
                                inbox.push(ts, obj);
                            });
                    if moved > 0 {
                        self.counters.add_queue_batches(1);
                        if let Some(h) = &self.batch_sizes {
                            h.record(moved as u64);
                        }
                    }
                }
                if !self.inbox.is_empty() {
                    let before = self.inbox.len();
                    let ordinal = self.inputs[oi].ordinal;
                    self.processor
                        .process(ordinal, &mut self.inbox, &mut self.outbox, &self.ctx);
                    let consumed = (before - self.inbox.len()) as u64;
                    self.counters.add_in(consumed);
                    if consumed > 0 {
                        worked = true;
                    }
                    if !self.inbox.is_empty() {
                        // Outbox full: remember and retry this ordinal first.
                        self.pending_ordinal = Some(ordinal);
                        self.rr_ordinal = oi;
                        return worked;
                    }
                }
                // Handle at most one control item at the head of this lane.
                let is_control = matches!(
                    self.inputs[oi].conveyor.peek_lane(lane),
                    Some(it) if it.is_control()
                );
                if !is_control {
                    continue;
                }
                // single-item: watermarks/barriers/done mutate coalescer and
                // alignment state per item, so they cannot be bulk-drained.
                let item = self.inputs[oi].conveyor.poll_lane(lane).expect("peeked");
                worked = true;
                let global_lane = self.inputs[oi].lane_offset + lane;
                match item {
                    Item::Watermark(w) => {
                        if w != IDLE_CHANNEL {
                            self.wm_probe.note_seen(w);
                        }
                        let adv = self.coalescer.observe(global_lane, w);
                        self.note_coalesced(adv);
                        if !self.settle_watermark() {
                            self.rr_ordinal = oi;
                            return worked;
                        }
                    }
                    Item::Barrier(b) => {
                        match self.current_barrier {
                            None => self.current_barrier = Some(b),
                            Some(cur) => debug_assert_eq!(
                                cur.snapshot_id, b.snapshot_id,
                                "overlapping snapshots in flight"
                            ),
                        }
                        self.inputs[oi].barrier_seen[lane] = true;
                        self.inputs[oi].barrier_count += 1;
                        if self.all_aligned() {
                            self.phase = Phase::SaveSnapshot;
                            self.rr_ordinal = oi;
                            return worked;
                        }
                    }
                    Item::Done => {
                        self.inputs[oi].lane_done[lane] = true;
                        self.inputs[oi].done_count += 1;
                        let adv = self.coalescer.channel_done(global_lane);
                        self.note_coalesced(adv);
                        if !self.settle_watermark() {
                            self.rr_ordinal = oi;
                            return worked;
                        }
                        // A done lane counts as aligned.
                        if self.all_aligned() {
                            self.phase = Phase::SaveSnapshot;
                            self.rr_ordinal = oi;
                            return worked;
                        }
                        if self.inputs[oi].all_done() {
                            self.phase = Phase::CompleteEdge(oi);
                            self.rr_ordinal = oi;
                            return worked;
                        }
                    }
                    Item::Event { .. } => unreachable!("peeked control"),
                }
            }
        }
        self.rr_ordinal = (self.rr_ordinal + 1) % n.max(1);
        worked
    }
}

impl ProcessorTasklet {
    /// One quantum of the SaveSnapshot phase: let the processor stage a
    /// bounded chunk of state and write it out. Streaming snapshots: each
    /// quantum's chunk goes to the store immediately (a partial set of
    /// chunks never becomes a recovery point because the barrier only
    /// commits after `done`). Kept out of line: it runs a few times per
    /// snapshot, and inlined into `call_phase` it cost `q1-stateless`, which
    /// never snapshots, 4 % of its replay throughput.
    #[inline(never)]
    fn save_snapshot_quantum(&mut self, b: Barrier) -> Progress {
        if self.trace.enabled() && self.snapshot_started.is_none() {
            self.snapshot_started = Some((self.trace_now(), b.snapshot_id));
        }
        let done = self
            .processor
            .save_snapshot(b.snapshot_id, &mut self.outbox, &self.ctx);
        let (records, body) = self.outbox.snapshot_chunk();
        if records > 0 {
            self.counters.add_snapshot_records(u64::from(records));
            self.counters.add_snapshot_chunks(1);
            self.registry.write_chunk(
                b.snapshot_id,
                &self.vertex,
                self.ctx.global_index as u32,
                self.chunk_seq,
                records,
                body,
            );
            self.chunk_seq += 1;
            self.outbox.clear_snapshot_chunk();
        }
        if done {
            self.phase = Phase::EmitBarrier;
        }
        Progress::MadeProgress
    }

    // jet-analyze: allow(panic) — phase-machine invariants: the expects are guarded by the state checks above
    fn call_phase(&mut self) -> Progress {
        if self.phase == Phase::Done {
            return Progress::Done;
        }
        if !self.initialized {
            self.processor.init(&self.ctx);
            self.initialized = true;
        }
        let mut worked = self.flush_outbox();

        match self.phase {
            Phase::Process => {
                // Settle any deferred watermark before touching new input.
                if !self.settle_watermark() {
                    return Progress::from_worked(worked);
                }
                // Bounded background quantum: amortized eviction, resumed
                // window emission, deferred watermark forwarding.
                worked |= self.processor.tick(&mut self.outbox, &self.ctx);
                // Finish a partially-processed inbox first.
                if let Some(ordinal) = self.pending_ordinal {
                    let before = self.inbox.len();
                    self.processor
                        .process(ordinal, &mut self.inbox, &mut self.outbox, &self.ctx);
                    let consumed = before - self.inbox.len();
                    self.counters.add_in(consumed as u64);
                    worked |= consumed > 0;
                    if !self.inbox.is_empty() {
                        return Progress::from_worked(worked);
                    }
                    self.pending_ordinal = None;
                }
                // Barrier alignment might already hold (e.g. after restore).
                if self.all_aligned() {
                    self.phase = Phase::SaveSnapshot;
                    return Progress::MadeProgress;
                }
                worked |= self.drain_inputs();
                // All inputs done and completed -> move to Complete.
                if self.phase == Phase::Process
                    && self.inputs.iter().all(|i| i.all_done() && i.edge_completed)
                {
                    self.phase = Phase::Complete;
                    worked = true;
                }
                Progress::from_worked(worked)
            }
            Phase::SaveSnapshot => {
                let b = self
                    .current_barrier
                    .expect("snapshot phase without barrier");
                self.save_snapshot_quantum(b)
            }
            Phase::EmitBarrier => {
                let b = self.current_barrier.expect("emit phase without barrier");
                if self.outbox.broadcast(Item::Barrier(b)) {
                    if let Some((start, sid)) = self.snapshot_started.take() {
                        let end = self.trace_now();
                        self.trace.record(
                            TraceKind::SnapshotPhase,
                            start,
                            end.saturating_sub(start).max(1),
                            self.trace_name,
                            sid as i64,
                        );
                    }
                    self.registry.ack(b.snapshot_id);
                    self.last_snapshot = b.snapshot_id;
                    self.current_barrier = None;
                    self.chunk_seq = 0;
                    for input in &mut self.inputs {
                        input.clear_barriers();
                    }
                    self.flush_outbox();
                    self.phase = if b.terminal {
                        Phase::EmitDone
                    } else if self.is_source {
                        Phase::Complete
                    } else {
                        Phase::Process
                    };
                }
                Progress::MadeProgress
            }
            Phase::CompleteEdge(oi) => {
                let ordinal = self.inputs[oi].ordinal;
                if self
                    .processor
                    .complete_edge(ordinal, &mut self.outbox, &self.ctx)
                {
                    self.inputs[oi].edge_completed = true;
                    self.phase = if self.inputs.iter().all(|i| i.all_done() && i.edge_completed) {
                        Phase::Complete
                    } else {
                        Phase::Process
                    };
                }
                Progress::MadeProgress
            }
            Phase::Complete => {
                // Sources participate in snapshots from here (§4.4: "Jet
                // instructs source vertices to take a state snapshot").
                if self.is_source && self.registry.enabled() {
                    let req = self.registry.requested();
                    if req > self.last_snapshot {
                        if !self.outbox.is_fully_flushed() {
                            // Keep barriers ordered after buffered events.
                            return Progress::from_worked(worked);
                        }
                        self.enter_snapshot(Barrier {
                            snapshot_id: req,
                            terminal: self.registry.is_terminal(req),
                        });
                        return Progress::MadeProgress;
                    }
                }
                let buffered = self.outbox.buffered();
                let emitted = self.outbox.events_emitted_total();
                let mut done = self.processor.complete(&mut self.outbox, &self.ctx);
                if self.is_source && self.ctx.is_cancelled() {
                    done = true;
                }
                // An event the chain filtered out was progress too.
                worked |= self.outbox.buffered() > buffered
                    || self.outbox.events_emitted_total() > emitted;
                if done {
                    self.phase = Phase::EmitDone;
                    worked = true;
                }
                Progress::from_worked(worked)
            }
            Phase::EmitDone => {
                if self.outbox.broadcast(Item::Done) || self.outputs.is_empty() {
                    self.phase = Phase::Drain;
                }
                Progress::MadeProgress
            }
            Phase::Drain => {
                if self.outbox.is_fully_flushed() {
                    self.phase = Phase::Done;
                    if !self.retired {
                        self.retired = true;
                        self.registry.retire_participant(self.last_snapshot);
                    }
                    return Progress::Done;
                }
                Progress::from_worked(worked)
            }
            Phase::Done => Progress::Done,
        }
    }
}

impl Tasklet for ProcessorTasklet {
    fn call(&mut self) -> Progress {
        let progress = self.call_phase();
        // Credit events_out from the outbox's monotone emission counter.
        // Counting at the outbox (not per phase) also credits transforms and
        // window operators, which emit from `process` — the old per-phase
        // accounting only saw sources emitting from `complete`.
        let queued = self.outbox.events_queued_total();
        if queued > self.events_out_synced {
            self.counters.add_out(queued - self.events_out_synced);
            self.events_out_synced = queued;
        }
        progress
    }

    fn name(&self) -> &str {
        &self.vertex
    }

    fn is_cooperative(&self) -> bool {
        self.cooperative
    }

    fn state(&self) -> &'static str {
        self.phase_name()
    }

    fn job(&self) -> u32 {
        self.job
    }

    fn kind(&self) -> Kind {
        self.kind
    }
}
