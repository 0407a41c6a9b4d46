//! Sliding/tumbling window aggregation via frame slicing (paper §2.3 cites
//! the stream-slicing line of work [32, 34]).
//!
//! Events are accumulated into *frames* — disjoint slide-sized slices keyed
//! by their end timestamp. A window ending at `E` is the combination of the
//! `size/slide` frames in `(E-size, E]`. When the aggregate op has a
//! `deduct`, we keep a running per-key accumulator and each slide costs
//! O(keys): add the newest frame, deduct the expired one. This is the
//! optimization that makes the paper's 10 ms slide viable ("triggering
//! every 10ms is something that no other scale-out stream processor can
//! perform").
//!
//! Keyed state lives in [`KeyTable`]s — sharded open-addressing tables
//! keyed by 64-bit fingerprints (`crate::state::store`) — and every
//! per-window obligation is amortized so no single tasklet quantum ever
//! does O(keys) work, which is what keeps p99.99 flat at millions of keys:
//!
//! * **Chunked emission.** A watermark is *accepted* immediately (the
//!   tasklet keeps draining input) while window results stream out a
//!   bounded chunk per quantum; the watermark itself is held and forwarded
//!   only after the last chunk, preserving the results-before-watermark
//!   order downstream relies on. The emission floor advances when a
//!   window's emission *starts*, so event classification is identical to
//!   the old atomic emission.
//! * **Spill discipline.** While a window is mid-emission, contributions
//!   targeting its frames are parked in a small fixed spill buffer (and
//!   applied right after the close) instead of mutating tables under an
//!   active cursor; a full spill pushes back on the inbox rather than
//!   allocating.
//! * **Amortized eviction.** An expired frame is detached whole and its
//!   slots retired (deducted from the running accumulators) a bounded
//!   number per quantum by [`Processor::tick`]; emptied tables recycle
//!   through a pool, so steady state allocates nothing.
//! * **Streaming snapshots.** `save_snapshot` serializes keyed state in
//!   bounded record chunks across quanta behind a resumable cursor; the
//!   exactly-once oracle is unchanged because a barrier only commits once
//!   the final chunk is written.
//! * **Fold ahead.** In deduct mode the newest frame of the next window is
//!   folded into the running accumulators in the background once the last
//!   window has closed and retired, and its later events are written
//!   through; the watermark that closes the window then starts emitting at
//!   once instead of behind an O(keys) fold.
//!
//! Results leave as typed values through [`Outbox::emit_value`] to every
//! out-edge: a fused chain takes each [`WindowResult`] unboxed.
//!
//! Three processors are built on the shared `WindowState`:
//!
//! * [`SlidingWindowP`] — single-stage keyed windowing (events in, window
//!   results out);
//! * [`AccumulateFrameP`] — stage 1 of the two-stage distributed aggregation
//!   (§3.1): where a frame's events share keys it accumulates them
//!   *locally* (no shuffle) and emits per-frame partial accumulators when
//!   the watermark closes the frame; where holding would not halve the
//!   partials it forwards each event at once as a one-event partial, so the
//!   frame close ships nothing;
//! * [`CombineFramesP`] — stage 2: receives partials on a partitioned edge,
//!   combines them, and emits window results.

use crate::item::{Item, Ts};
use crate::object::{boxed, downcast_ref};
use crate::processor::{Inbox, Outbox, Processor, ProcessorContext};
use crate::processors::agg::AggregateOp;
use crate::state::{fingerprint, Cursor, KeyTable, Snap, StateProbe};
use crate::watermark::NO_WATERMARK;
use jet_util::seq;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// Type-erased key extractor: downcasts the boxed event and hashes its key.
type ObjKeyFn<K> = Arc<dyn Fn(&dyn crate::object::Object) -> K + Send + Sync>;

/// Max emission/fold/gather steps per tasklet quantum.
const EMIT_CHUNK: usize = 1024;
/// Max retired (evicted) slots per tasklet quantum.
const RETIRE_CHUNK: usize = 1024;
/// Max snapshot records serialized per `save_snapshot` quantum.
const SNAPSHOT_CHUNK: usize = 2048;
/// Spill capacity: contributions parked while their window is mid-emission.
const SPILL_CAP: usize = 1024;
/// Watermark acceptance refuses once this many windows are due-unemitted.
const MAX_DUE_WINDOWS: i64 = 4;
/// Ticks between refreshes of the state probe gauges.
const PROBE_STRIDE: u32 = 64;
/// Stage 1 holds a frame only if its previous frame had at least this many
/// events per distinct key, i.e. only if holding at least halves what it
/// ships; below it, stage 1 forwards every event at once.
///
/// Holding a frame of `N` events over `d` keys ships `d` partials, all of
/// them after the watermark that closes the frame and before its first
/// window result can leave. On the wall clock (paced `q5-sliding`, one
/// worker on a 2-vCPU VM) each costs ~98 ns there (ship 37 ns, routing,
/// stage-2 ingest into a cold recycled table 68–95 ns, fold 32 ns), so the
/// close of a Q5 frame of ~3,300 partials delays its window by ~324 µs.
/// Forwarding ships all `N` events as one-event partials while the frame is
/// still open, where they delay no result; what it costs is the throughput
/// of the `N − d` extra partials against the stage-1 upsert each event
/// saves. From those per-layer costs, holding breaks even on the clock near
/// `N/d ≈ 3`. In the simulator, Fig. 7's 2M/core row (`N/d ≈ 2.2`, ~18k
/// bids per frame and instance over 10k keys) needs holding to keep stage 2
/// under capacity, and so does Q7's single-key fan-in. Forwarding only
/// below 2 is therefore conservative on the clock and holds every measured
/// row that needs it.
const HOLD_MIN_EVENTS_PER_KEY: f64 = 2.0;
/// Bits of the distinct-key sketch of a frame (1 KiB per stage-1 instance).
/// Linear counting over `m` bits estimates up to ~`m` distinct keys within
/// about 1 % (Whang et al., 1990); a saturated sketch reads `m·ln m` ≈ 74k
/// keys, so a frame with more keys than that is held unless it has fewer
/// than ~148k events, which is today's path. Q5's frames carry a few
/// thousand keys per instance and Fig. 7's up to ~8k, all in range.
const SKETCH_BITS: usize = 8192;

/// Window definition in event-time nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDef {
    pub size: Ts,
    pub slide: Ts,
}

impl WindowDef {
    pub fn sliding(size: Ts, slide: Ts) -> Self {
        assert!(size > 0 && slide > 0, "window size/slide must be positive");
        assert!(
            size % slide == 0,
            "window size must be a multiple of the slide"
        );
        WindowDef { size, slide }
    }

    pub fn tumbling(size: Ts) -> Self {
        Self::sliding(size, size)
    }

    /// End timestamp of the frame containing `ts` (frames are
    /// `(end-slide, end]`... we use half-open `[start, end)` convention:
    /// event at `ts` belongs to the frame ending at the next slide boundary
    /// strictly greater than `ts`).
    #[inline]
    pub fn frame_end(&self, ts: Ts) -> Ts {
        ts.div_euclid(self.slide) * self.slide + self.slide
    }

    /// Number of frames per window.
    pub fn frames_per_window(&self) -> i64 {
        self.size / self.slide
    }
}

/// One emitted window result.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult<K, R> {
    pub key: K,
    /// Window covers `[end - size, end)`.
    pub start: Ts,
    pub end: Ts,
    pub value: R,
}

/// Stage-1 → stage-2 partial: one key's accumulator for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameChunk<K, A> {
    pub key: K,
    pub frame_end: Ts,
    pub acc: A,
}

/// Key constraints for windowed state: routable, snapshottable, printable.
/// Keys must be `Copy + Default` because they live inline in the
/// open-addressing slots of the frame store (no per-key allocation); large
/// or heap-backed keys should be routed by a small derived key.
pub trait WindowKey: Copy + Default + Eq + Hash + Snap + Send + Debug + 'static {}
impl<T: Copy + Default + Eq + Hash + Snap + Send + Debug + 'static> WindowKey for T {}

/// Fingerprint of a window key: the routing hash, normalized non-zero for
/// the frame store's occupied-slot sentinel.
#[inline]
fn fp_of<K: Hash>(key: &K) -> u64 {
    fingerprint(seq::hash_of(key))
}

/// One slide-sized frame: keyed partial accumulators.
struct Frame<K, A> {
    end: Ts,
    table: KeyTable<K, A>,
}

/// Locate the frame ending at `end` in a sorted frame list, preferring the
/// last-hit index (in-order streams hit the same frame for a whole slide).
#[inline]
fn find_frame<K, A>(frames: &[Frame<K, A>], hint: usize, end: Ts) -> Option<usize> {
    if let Some(f) = frames.get(hint) {
        if f.end == end {
            return Some(hint);
        }
    }
    let i = frames.partition_point(|f| f.end < end);
    (i < frames.len() && frames[i].end == end).then_some(i)
}

/// Insert an empty frame (recycled from `pool` when possible) keeping the
/// list sorted by end. Cold: runs once per slide, not per event.
#[cold]
fn create_frame<K: WindowKey, A: Snap + Clone + Send + Default + 'static>(
    frames: &mut Vec<Frame<K, A>>,
    pool: &mut Vec<KeyTable<K, A>>,
    parts: u32,
    end: Ts,
) -> usize {
    let table = pool.pop().unwrap_or_else(|| KeyTable::new(parts));
    let i = frames.partition_point(|f| f.end < end);
    frames.insert(i, Frame { end, table });
    i
}

/// In-flight chunked emission of the window ending at `end`.
enum Pending {
    Idle,
    /// Deduct mode: folding frame `end` (at index `fi`) into `running`.
    Fold {
        end: Ts,
        fi: usize,
        cur: Cursor,
    },
    /// Recombine mode: merging the window's frames (next: index `fi`) into
    /// `scratch`.
    Gather {
        end: Ts,
        fi: usize,
        cur: Cursor,
    },
    /// Deduct mode: scanning `running`, one result per entry.
    EmitRunning {
        end: Ts,
        cur: Cursor,
    },
    /// Recombine mode: draining `scratch`, one result per entry.
    EmitScratch {
        end: Ts,
        cur: Cursor,
    },
    /// Tumbling fast path: draining the detached due frame directly.
    EmitFrame {
        end: Ts,
        cur: Cursor,
    },
}

impl Pending {
    fn emission_end(&self) -> Option<Ts> {
        match *self {
            Pending::Idle => None,
            Pending::Fold { end, .. }
            | Pending::Gather { end, .. }
            | Pending::EmitRunning { end, .. }
            | Pending::EmitScratch { end, .. }
            | Pending::EmitFrame { end, .. } => Some(end),
        }
    }
}

/// One spilled contribution: `(frame_end, fingerprint, key, accumulator)`,
/// held until the active emission's close so scan cursors stay valid.
type SpillSlot<K, A> = Option<(Ts, u64, K, A)>;

/// Shared frame store + chunked sliding emission logic.
struct WindowState<K, A> {
    wdef: WindowDef,
    /// Partition count the shard layout follows (the partitioned-edge
    /// assignment space).
    parts: u32,
    /// Live frames, ascending by end timestamp.
    frames: Vec<Frame<K, A>>,
    /// Last-hit frame index (in-order streams stay in one frame per slide).
    hint: usize,
    /// Running window accumulator per key + number of live frames holding
    /// the key (deduct mode only).
    running: KeyTable<K, (A, u32)>,
    /// Recombine-mode merge target, drained by emission; capacity persists.
    scratch: KeyTable<K, A>,
    /// Emptied frame tables kept for reuse (bounds steady-state allocation).
    pool: Vec<KeyTable<K, A>>,
    /// Chunked emission state machine.
    pending: Pending,
    /// Tumbling fast path: the detached frame being drained by emission.
    drain_table: Option<KeyTable<K, A>>,
    /// Expired frames detached at window close, retired (deducted) a
    /// bounded number of slots per quantum; each with its drain cursor.
    retire: Vec<(KeyTable<K, A>, Cursor)>,
    /// Contributions for frames of the actively-emitting window, applied
    /// after the close (mutating a scanned table would corrupt cursors and
    /// double-count the fold). Allocated on first use.
    spill: Option<Box<[SpillSlot<K, A>]>>,
    spill_len: usize,
    /// Next window end to emit; `NO_WATERMARK` while no frame is anchored.
    next_emit: Ts,
    /// Emission floor: every window with `end < floor` has been emitted (or
    /// was skipped as empty) and must never be emitted again. `NO_WATERMARK`
    /// until the first window is produced. Advances when a window's
    /// emission *starts* (the classification boundary).
    floor: Ts,
    /// Deduct mode: frame `floor` is already folded into `running` ahead
    /// of its window's watermark, so that window's emission starts at once.
    folded_ahead: bool,
    /// Highest accepted watermark; emission owes every window `<=` it.
    wm_target: Ts,
    /// Accepted watermark not yet forwarded downstream (`NO_WATERMARK`
    /// when none): results of due windows must precede it.
    held_wm: Ts,
    /// Snapshot streaming cursor: `(snapshot_id, frame index, position)`.
    snap_cursor: Option<(u64, usize, Cursor)>,
    late_events: u64,
}

impl<K: WindowKey, A: Snap + Clone + Send + Default + 'static> WindowState<K, A> {
    fn new(wdef: WindowDef) -> Self {
        let parts = jet_imdg::DEFAULT_PARTITION_COUNT;
        WindowState {
            wdef,
            parts,
            frames: Vec::new(),
            hint: 0,
            running: KeyTable::new(parts),
            scratch: KeyTable::new(parts),
            pool: Vec::new(),
            pending: Pending::Idle,
            drain_table: None,
            retire: Vec::new(),
            spill: None,
            spill_len: 0,
            next_emit: NO_WATERMARK,
            floor: NO_WATERMARK,
            folded_ahead: false,
            wm_target: NO_WATERMARK,
            held_wm: NO_WATERMARK,
            snap_cursor: None,
            late_events: 0,
        }
    }

    /// Align the shard layout with the job's partition space. Only takes
    /// effect while the store is empty (called from `init`/first restore).
    fn set_partitions(&mut self, parts: u32) {
        if parts != self.parts && self.frames.is_empty() && self.running.is_empty() {
            self.parts = parts;
            self.running = KeyTable::new(parts);
            self.scratch = KeyTable::new(parts);
            self.pool.clear();
        }
    }

    /// True (and counted) when an event/partial for `frame_end` can no
    /// longer contribute to any window at or above the emission floor.
    fn is_late(&mut self, frame_end: Ts) -> bool {
        let last_window_of_frame = frame_end + self.wdef.size - self.wdef.slide;
        if self.floor != NO_WATERMARK && last_window_of_frame < self.floor {
            self.late_events += 1;
            true
        } else {
            false
        }
    }

    /// (Re)anchor the next window to emit. Before anything was emitted the
    /// anchor floats down to the earliest frame seen (events may arrive out
    /// of order ahead of the watermark); once a floor exists it clamps the
    /// anchor so no window is ever emitted twice.
    fn note_first_frame(&mut self, frame_end: Ts) {
        let candidate = if self.floor == NO_WATERMARK {
            frame_end
        } else {
            frame_end.max(self.floor)
        };
        if self.next_emit == NO_WATERMARK || candidate < self.next_emit {
            self.next_emit = candidate;
        }
    }

    /// Frames with `end <= floor - slide` were already folded into the
    /// running accumulators by past emissions; a (valid, in-window) late
    /// arrival for such a frame must therefore update `running` directly as
    /// well, or the eventual frame expiry would deduct state that was never
    /// added (and intermediate windows would under-count). Frame `floor`
    /// joins them once it was folded ahead.
    fn frame_already_running(&self, frame_end: Ts) -> bool {
        self.floor != NO_WATERMARK
            && (frame_end <= self.floor - self.wdef.slide
                || (self.folded_ahead && frame_end == self.floor))
    }

    /// True when `frame_end` belongs to the actively-emitting window and
    /// the contribution must be parked in the spill.
    #[inline]
    fn must_spill(&self, frame_end: Ts) -> bool {
        matches!(self.pending.emission_end(), Some(end) if frame_end <= end)
    }

    /// True when an event for `frame_end` cannot currently be accepted:
    /// callers leave it queued in the inbox (backpressure) and retry after
    /// the emission in progress closes.
    #[inline]
    fn blocked(&self, frame_end: Ts) -> bool {
        self.must_spill(frame_end) && self.spill_len == SPILL_CAP
    }

    /// Route one in-window contribution into the store: the live frame,
    /// plus the running accumulators when the frame was already folded;
    /// contributions to the actively-emitting window go to the spill.
    /// Callers check [`blocked`] first. Allocation-free in steady state.
    #[inline]
    fn add<R>(
        &mut self,
        fp: u64,
        key: K,
        frame_end: Ts,
        op: &AggregateOp<A, R>,
        apply: impl Fn(&mut A),
    ) {
        if self.must_spill(frame_end) {
            self.spill_add(fp, key, frame_end, op, apply);
            return;
        }
        self.note_first_frame(frame_end);
        let fi = match find_frame(&self.frames, self.hint, frame_end) {
            Some(i) => i,
            None => create_frame(&mut self.frames, &mut self.pool, self.parts, frame_end),
        };
        self.hint = fi;
        let (acc, newly) = self.frames[fi].table.upsert(fp, key, || (op.create)());
        apply(acc);
        if self.frame_already_running(frame_end) {
            self.add_late_to_running(fp, key, newly, op, apply);
        }
    }

    /// Apply a late contribution for `key` to the running accumulator.
    /// `newly_in_frame` is true when this is the key's first item in that
    /// frame (the live-frame refcount must grow by one then).
    fn add_late_to_running<R>(
        &mut self,
        fp: u64,
        key: K,
        newly_in_frame: bool,
        op: &AggregateOp<A, R>,
        apply: impl Fn(&mut A),
    ) {
        if op.deduct.is_none() {
            return; // recombine fallback reads frames directly
        }
        let (entry, _) = self.running.upsert(fp, key, || ((op.create)(), 0));
        apply(&mut entry.0);
        if newly_in_frame {
            entry.1 += 1;
        }
    }

    /// Park a contribution for the actively-emitting window. Cold: only
    /// out-of-order stragglers (allowed-lag late arrivals) land here while
    /// their window is mid-emission.
    #[cold]
    fn spill_add<R>(
        &mut self,
        fp: u64,
        key: K,
        frame_end: Ts,
        op: &AggregateOp<A, R>,
        apply: impl Fn(&mut A),
    ) {
        let spill = self
            .spill
            .get_or_insert_with(|| (0..SPILL_CAP).map(|_| None).collect());
        debug_assert!(self.spill_len < SPILL_CAP, "caller checks blocked()");
        let mut acc = (op.create)();
        apply(&mut acc);
        spill[self.spill_len] = Some((frame_end, fp, key, acc));
        self.spill_len += 1;
    }

    /// Apply every parked contribution after a window close. Cold: bounded
    /// by `SPILL_CAP`, runs at most once per slide.
    #[cold]
    fn drain_spill<R>(&mut self, op: &AggregateOp<A, R>) {
        if self.spill_len == 0 {
            return;
        }
        for i in 0..self.spill_len {
            let Some(spill) = self.spill.as_mut() else {
                break;
            };
            let Some((frame_end, fp, key, acc)) = spill[i].take() else {
                continue;
            };
            // Entries were classified not-late against the already-advanced
            // floor when they were parked; apply unconditionally.
            self.note_first_frame(frame_end);
            let fi = match find_frame(&self.frames, self.hint, frame_end) {
                Some(i) => i,
                None => create_frame(&mut self.frames, &mut self.pool, self.parts, frame_end),
            };
            let (slot, newly) = self.frames[fi].table.upsert(fp, key, || (op.create)());
            (op.combine)(slot, &acc);
            if self.frame_already_running(frame_end) {
                self.add_late_to_running(fp, key, newly, op, |r| (op.combine)(r, &acc));
            }
        }
        self.spill_len = 0;
    }

    /// Accept (or refuse) a coalesced watermark. Accepting holds the
    /// watermark for forwarding after the due windows' results; refusal
    /// (due-window backlog at the bound) pushes back on the input while
    /// `pump` keeps making progress every quantum.
    fn try_accept_wm(&mut self, wm: Ts) -> bool {
        // Refuse while the *already accepted* backlog is at the bound:
        // refusal then always leaves due windows for `pump` to drain, so
        // the refused watermark is re-offered against a shrinking backlog
        // (an accept-side check on `wm` itself could refuse forever when a
        // final watermark jumps far ahead of an empty target).
        if self.next_emit != NO_WATERMARK
            && self.wm_target != NO_WATERMARK
            && self.wm_target >= self.next_emit
        {
            let backlog = (self.wm_target - self.next_emit) / self.wdef.slide + 1;
            if backlog > MAX_DUE_WINDOWS {
                return false;
            }
        }
        if self.wm_target == NO_WATERMARK || wm > self.wm_target {
            self.wm_target = wm;
        }
        if self.held_wm == NO_WATERMARK || wm > self.held_wm {
            self.held_wm = wm;
        }
        true
    }

    /// A window is due for emission.
    fn window_due(&self) -> bool {
        self.next_emit != NO_WATERMARK
            && self.wm_target != NO_WATERMARK
            && self.next_emit <= self.wm_target
    }

    /// Emission fully caught up and the held watermark forwarded: the
    /// store is stable enough to snapshot (outstanding retirement is pure
    /// in-memory transient — snapshots persist frames + floor only, and
    /// restore rebuilds `running` from those).
    fn quiesced(&self) -> bool {
        matches!(self.pending, Pending::Idle) && !self.window_due() && self.held_wm == NO_WATERMARK
    }

    /// Nothing left to emit, forward, or retire (end-of-stream condition).
    fn finished(&self) -> bool {
        self.quiesced() && self.retire.is_empty()
    }

    /// One bounded quantum of background progress: advance the emission
    /// state machine, start due windows, retire expired slots, and forward
    /// the held watermark once caught up. Returns true when work was done.
    fn pump<R>(&mut self, outbox: &mut Outbox, op: &AggregateOp<A, R>) -> bool
    where
        R: Clone + Send + Debug + 'static,
    {
        let mut worked = false;
        let mut budget = EMIT_CHUNK;
        loop {
            match self.pending {
                Pending::Idle => {
                    // Outstanding retirement must finish before the next
                    // window reads `running`: the expired frame's
                    // contributions have to be deducted first or the next
                    // emission over-counts (and `running` never drains).
                    if !self.retire.is_empty() {
                        worked |= self.step_retire(op, &mut budget);
                        if budget == 0 {
                            return true;
                        }
                        continue;
                    }
                    if self.window_due() {
                        self.begin_window(op);
                    } else {
                        // Caught up: forward the held watermark (results
                        // precede it), then fold the next window's newest
                        // frame ahead of the watermark that will close it.
                        if self.held_wm != NO_WATERMARK
                            && outbox.broadcast(Item::Watermark(self.held_wm))
                        {
                            self.held_wm = NO_WATERMARK;
                            worked = true;
                        }
                        if !self.begin_fold_ahead(op) {
                            return worked;
                        }
                    }
                    worked = true;
                }
                Pending::Fold { end, fi, cur } => {
                    worked |= self.step_fold(end, fi, cur, op, &mut budget);
                }
                Pending::Gather { end, fi, cur } => {
                    worked |= self.step_gather(end, fi, cur, op, &mut budget);
                }
                Pending::EmitRunning { end, cur } => {
                    if !self.step_emit_running(end, cur, op, outbox, &mut budget) {
                        return true; // outbox full: resume next quantum
                    }
                    worked = true;
                }
                Pending::EmitScratch { end, cur } => {
                    if !self.step_emit_scratch(end, cur, op, outbox, &mut budget) {
                        return true;
                    }
                    worked = true;
                }
                Pending::EmitFrame { end, cur } => {
                    if !self.step_emit_frame(end, cur, op, outbox, &mut budget) {
                        return true;
                    }
                    worked = true;
                }
            }
            if budget == 0 {
                return true;
            }
        }
    }

    /// Open the next due window's emission. Cold: once per slide; does O(1)
    /// structural work (the chunked steps do the O(keys) part).
    #[cold]
    fn begin_window<R>(&mut self, op: &AggregateOp<A, R>) {
        let end = self.next_emit;
        let folded_ahead = std::mem::take(&mut self.folded_ahead);
        if self.frames.is_empty() && self.running.is_empty() && self.retire.is_empty() {
            // No state at all: every remaining window is empty. Re-anchor on
            // the next frame that actually arrives (this is also what keeps
            // quiet key spaces free: gaps in the stream cost nothing). The
            // floor guarantees the new anchor never revisits an emitted
            // window.
            self.next_emit = NO_WATERMARK;
            return;
        }
        // The classification boundary advances at emission *start*: an
        // event that would have been late after the old atomic emission is
        // late for every chunk of this one.
        self.next_emit = end + self.wdef.slide;
        self.floor = self.next_emit;
        self.hint = 0;
        if self.wdef.frames_per_window() == 1 {
            // Tumbling fast path: the due frame *is* the window; detach and
            // drain it directly — `running` never participates.
            match find_frame(&self.frames, 0, end) {
                Some(i) => {
                    self.drain_table = Some(self.frames.remove(i).table);
                    self.pending = Pending::EmitFrame {
                        end,
                        cur: Cursor::default(),
                    };
                }
                None => self.close_window(end, op),
            }
            return;
        }
        if op.deduct.is_some() {
            match find_frame(&self.frames, 0, end).filter(|_| !folded_ahead) {
                Some(fi) => {
                    self.pending = Pending::Fold {
                        end,
                        fi,
                        cur: Cursor::default(),
                    }
                }
                None => {
                    self.pending = Pending::EmitRunning {
                        end,
                        cur: Cursor::default(),
                    }
                }
            }
        } else {
            let start = end - self.wdef.size;
            let fi = self.frames.partition_point(|f| f.end <= start);
            if fi < self.frames.len() && self.frames[fi].end <= end {
                self.pending = Pending::Gather {
                    end,
                    fi,
                    cur: Cursor::default(),
                };
            } else {
                self.pending = Pending::EmitScratch {
                    end,
                    cur: Cursor::default(),
                };
            }
        }
    }

    /// Deduct mode, between windows: start folding frame `floor` (the newest
    /// frame of the next window) into `running` before its watermark, so
    /// that window's first result does not wait for the fold. Returns false
    /// when there is nothing to fold ahead.
    fn begin_fold_ahead<R>(&mut self, op: &AggregateOp<A, R>) -> bool {
        if op.deduct.is_none()
            || self.wdef.frames_per_window() == 1
            || self.folded_ahead
            || self.floor == NO_WATERMARK
            || self.next_emit != self.floor
        {
            return false;
        }
        let Some(fi) = find_frame(&self.frames, self.hint, self.floor) else {
            return false;
        };
        self.pending = Pending::Fold {
            end: self.floor,
            fi,
            cur: Cursor::default(),
        };
        true
    }

    /// Fold a chunk of the newest frame into the running accumulators.
    fn step_fold<R>(
        &mut self,
        end: Ts,
        fi: usize,
        mut cur: Cursor,
        op: &AggregateOp<A, R>,
        budget: &mut usize,
    ) -> bool {
        let mut worked = false;
        while *budget > 0 {
            let (next, item) = self.frames[fi].table.scan_next(cur);
            match item {
                Some((fp, k, a)) => {
                    let (slot, _) = self.running.upsert(fp, *k, || ((op.create)(), 0));
                    (op.combine)(&mut slot.0, a);
                    slot.1 += 1;
                    cur = next;
                    *budget -= 1;
                    worked = true;
                }
                None if end == self.floor => {
                    // Folded ahead: frame `floor` now takes writes through.
                    self.folded_ahead = true;
                    self.pending = Pending::Idle;
                    self.drain_spill(op);
                    return true;
                }
                None => {
                    self.pending = Pending::EmitRunning {
                        end,
                        cur: Cursor::default(),
                    };
                    return true;
                }
            }
        }
        self.pending = Pending::Fold { end, fi, cur };
        worked
    }

    /// Merge a chunk of the window's frames into `scratch` (recombine).
    fn step_gather<R>(
        &mut self,
        end: Ts,
        mut fi: usize,
        mut cur: Cursor,
        op: &AggregateOp<A, R>,
        budget: &mut usize,
    ) -> bool {
        let mut worked = false;
        while *budget > 0 {
            if fi >= self.frames.len() || self.frames[fi].end > end {
                self.pending = Pending::EmitScratch {
                    end,
                    cur: Cursor::default(),
                };
                return true;
            }
            let (next, item) = self.frames[fi].table.scan_next(cur);
            match item {
                Some((fp, k, a)) => {
                    let (slot, _) = self.scratch.upsert(fp, *k, || (op.create)());
                    (op.combine)(slot, a);
                    cur = next;
                    *budget -= 1;
                    worked = true;
                }
                None => {
                    fi += 1;
                    cur = Cursor::default();
                }
            }
        }
        self.pending = Pending::Gather { end, fi, cur };
        worked
    }

    /// Emit a chunk of results from the running accumulators (deduct).
    /// Returns false when the outbox is full (resume next quantum).
    fn step_emit_running<R>(
        &mut self,
        end: Ts,
        mut cur: Cursor,
        op: &AggregateOp<A, R>,
        outbox: &mut Outbox,
        budget: &mut usize,
    ) -> bool
    where
        R: Clone + Send + Debug + 'static,
    {
        let start = end - self.wdef.size;
        while *budget > 0 {
            if !outbox.has_room() {
                self.pending = Pending::EmitRunning { end, cur };
                return false;
            }
            let (next, item) = self.running.scan_next(cur);
            match item {
                Some((_, k, v)) => {
                    let r = WindowResult {
                        key: *k,
                        start,
                        end,
                        value: (op.finish)(&v.0),
                    };
                    outbox.emit_value(end, r);
                    cur = next;
                    *budget -= 1;
                }
                None => {
                    self.close_window(end, op);
                    return true;
                }
            }
        }
        self.pending = Pending::EmitRunning { end, cur };
        true
    }

    /// Emit a chunk of results by draining `scratch` (recombine).
    fn step_emit_scratch<R>(
        &mut self,
        end: Ts,
        mut cur: Cursor,
        op: &AggregateOp<A, R>,
        outbox: &mut Outbox,
        budget: &mut usize,
    ) -> bool
    where
        R: Clone + Send + Debug + 'static,
    {
        let start = end - self.wdef.size;
        while *budget > 0 {
            if !outbox.has_room() {
                self.pending = Pending::EmitScratch { end, cur };
                return false;
            }
            let (next, item) = self.scratch.drain_next(cur);
            match item {
                Some((_, k, a)) => {
                    let r = WindowResult {
                        key: k,
                        start,
                        end,
                        value: (op.finish)(&a),
                    };
                    outbox.emit_value(end, r);
                    cur = next;
                    *budget -= 1;
                }
                None => {
                    self.close_window(end, op);
                    return true;
                }
            }
        }
        self.pending = Pending::EmitScratch { end, cur };
        true
    }

    /// Tumbling fast path: emit a chunk by draining the detached frame.
    fn step_emit_frame<R>(
        &mut self,
        end: Ts,
        mut cur: Cursor,
        op: &AggregateOp<A, R>,
        outbox: &mut Outbox,
        budget: &mut usize,
    ) -> bool
    where
        R: Clone + Send + Debug + 'static,
    {
        let start = end - self.wdef.size;
        while *budget > 0 {
            if !outbox.has_room() {
                self.pending = Pending::EmitFrame { end, cur };
                return false;
            }
            let Some(table) = self.drain_table.as_mut() else {
                self.close_window(end, op);
                return true;
            };
            let (next, item) = table.drain_next(cur);
            match item {
                Some((_, k, a)) => {
                    let r = WindowResult {
                        key: k,
                        start,
                        end,
                        value: (op.finish)(&a),
                    };
                    outbox.emit_value(end, r);
                    cur = next;
                    *budget -= 1;
                }
                None => {
                    if let Some(table) = self.drain_table.take() {
                        self.recycle(table);
                    }
                    self.close_window(end, op);
                    return true;
                }
            }
        }
        self.pending = Pending::EmitFrame { end, cur };
        true
    }

    /// Close out the emitted window: detach the expired frame into the
    /// retire queue and apply the spill. Cold: once per slide, O(spill).
    #[cold]
    fn close_window<R>(&mut self, end: Ts, op: &AggregateOp<A, R>) {
        let expired = end - self.wdef.size + self.wdef.slide;
        if self.wdef.frames_per_window() > 1 {
            if let Some(i) = find_frame(&self.frames, 0, expired) {
                // Deduct mode subtracts each retired slot from `running`;
                // recombine mode only needs the table emptied before reuse.
                // Both drain a bounded number of slots per quantum.
                let f = self.frames.remove(i);
                self.retire.push((f.table, Cursor::default()));
            }
        }
        self.pending = Pending::Idle;
        self.hint = 0;
        self.drain_spill(op);
    }

    /// Retire a bounded number of expired slots: deduct each from the
    /// running accumulators (deduct mode) and recycle emptied tables.
    fn step_retire<R>(&mut self, op: &AggregateOp<A, R>, budget: &mut usize) -> bool {
        let mut worked = false;
        let take = (*budget).min(RETIRE_CHUNK);
        let mut left = take;
        while left > 0 {
            let Some(li) = self.retire.len().checked_sub(1) else {
                break;
            };
            let (next, item) = {
                let (table, cur) = &mut self.retire[li];
                let r = table.drain_next(*cur);
                *cur = r.0;
                r
            };
            let _ = next;
            match item {
                Some((fp, k, a)) => {
                    if let Some(deduct) = &op.deduct {
                        if let Some(slot) = self.running.get_mut(fp, &k) {
                            deduct(&mut slot.0, &a);
                            slot.1 -= 1;
                            if slot.1 == 0 {
                                self.running.remove(fp, &k);
                            }
                        }
                    }
                    left -= 1;
                    worked = true;
                }
                None => {
                    if let Some((table, _)) = self.retire.pop() {
                        self.recycle(table);
                    }
                    worked = true;
                }
            }
        }
        *budget -= take - left;
        worked
    }

    /// Return an emptied table to the pool. Cold: once per frame lifetime.
    #[cold]
    fn recycle(&mut self, table: KeyTable<K, A>) {
        debug_assert!(table.is_empty());
        let cap = self.wdef.frames_per_window() as usize + 2;
        if self.pool.len() < cap {
            self.pool.push(table);
        }
    }

    /// Capacity-accounted resident bytes across every table of the store.
    fn resident_bytes(&self) -> usize {
        let mut bytes = self.running.resident_bytes() + self.scratch.resident_bytes();
        for f in &self.frames {
            bytes += f.table.resident_bytes();
        }
        for (t, _) in &self.retire {
            bytes += t.resident_bytes();
        }
        for t in &self.pool {
            bytes += t.resident_bytes();
        }
        if self.spill.is_some() {
            bytes += SPILL_CAP * std::mem::size_of::<Option<(Ts, u64, K, A)>>();
        }
        bytes
    }

    /// Live keyed entries (frames + running).
    fn resident_keys(&self) -> usize {
        let mut n = self.running.len();
        for f in &self.frames {
            n += f.table.len();
        }
        n
    }

    /// Serialize a bounded chunk of keyed state; resumable across quanta
    /// behind `snap_cursor`. Returns true when the final chunk (including
    /// the floor meta record) has been staged.
    fn stream_save(&mut self, id: u64, outbox: &mut Outbox, instance: usize) -> bool {
        // Record keys embed the writing instance: several parallel instances
        // may hold state for the same (key, frame) — most importantly the
        // non-partitioned stage-1 accumulator — and snapshot records must
        // not overwrite each other in the snapshot map.
        let (mut fi, mut cur) = match self.snap_cursor {
            Some((sid, fi, cur)) if sid == id => (fi, cur),
            _ => (0, Cursor::default()),
        };
        let mut budget = SNAPSHOT_CHUNK;
        while fi < self.frames.len() {
            if budget == 0 {
                self.snap_cursor = Some((id, fi, cur));
                return false;
            }
            let frame_end = self.frames[fi].end;
            let (next, item) = self.frames[fi].table.scan_next(cur);
            match item {
                Some((_, k, a)) => {
                    outbox.offer_snapshot(&(0u64, instance as u64, *k, frame_end), a);
                    cur = next;
                    budget -= 1;
                }
                None => {
                    fi += 1;
                    cur = Cursor::default();
                }
            }
        }
        // Meta record (tag 1): this instance's emission floor.
        outbox.offer_snapshot(&(1u64, instance as u64), &self.floor);
        self.snap_cursor = None;
        true
    }

    /// Restore one record, merging partials for the same (key, frame) with
    /// `op.combine` (records from distinct old instances must add up).
    fn restore<R>(
        &mut self,
        key: &[u8],
        value: &[u8],
        ctx: &ProcessorContext,
        op: &AggregateOp<A, R>,
    ) {
        self.set_partitions(ctx.partition_count);
        let mut r = jet_util::codec::ByteReader::new(key);
        let tag = u64::load(&mut r).expect("corrupt window snapshot key tag");
        let _instance = u64::load(&mut r).expect("corrupt window snapshot instance");
        if tag == 1 {
            let saved = Ts::from_bytes(value).expect("corrupt window meta record");
            // Take the minimum floor over instances: re-emitting a window
            // another old instance already emitted is impossible (the keys
            // were disjoint); missing one is not acceptable.
            if saved != NO_WATERMARK && (self.floor == NO_WATERMARK || saved < self.floor) {
                self.floor = saved;
            }
            return;
        }
        let k = K::load(&mut r).expect("corrupt window snapshot key");
        let frame_end = Ts::load(&mut r).expect("corrupt window snapshot frame");
        if !ctx.owns_key_hash(seq::hash_of(&k)) {
            return; // another instance's partition
        }
        let a = A::from_bytes(value).expect("corrupt window snapshot value");
        let fi = match find_frame(&self.frames, self.hint, frame_end) {
            Some(i) => i,
            None => create_frame(&mut self.frames, &mut self.pool, self.parts, frame_end),
        };
        self.hint = fi;
        let (slot, _) = self.frames[fi].table.upsert(fp_of(&k), k, || (op.create)());
        (op.combine)(slot, &a);
    }

    /// Rebuild the running accumulators from restored frames: everything in
    /// `(floor - size, floor - slide]` has already been "added". The anchor
    /// itself re-establishes from the restored frames.
    fn finish_restore<R>(&mut self, op: &AggregateOp<A, R>) {
        // Re-anchor on the restored frames (respecting the floor).
        self.next_emit = NO_WATERMARK;
        self.folded_ahead = false;
        let mut i = 0;
        while i < self.frames.len() {
            let end = self.frames[i].end;
            self.note_first_frame(end);
            i += 1;
        }
        if op.deduct.is_none() || self.floor == NO_WATERMARK {
            return;
        }
        self.running.clear();
        let lo = self.floor - self.wdef.size;
        let hi = self.floor - self.wdef.slide;
        if hi < lo + 1 {
            return; // tumbling window: nothing pre-added to `running`
        }
        for f in &self.frames {
            if f.end <= lo || f.end > hi {
                continue;
            }
            let mut cur = Cursor::default();
            loop {
                let (next, item) = f.table.scan_next(cur);
                cur = next;
                match item {
                    Some((fp, k, a)) => {
                        let (slot, _) = self.running.upsert(fp, *k, || ((op.create)(), 0));
                        (op.combine)(&mut slot.0, a);
                        slot.1 += 1;
                    }
                    None => break,
                }
            }
        }
    }

    /// Refresh the exported probe gauges.
    fn refresh_probe(&self, probe: &StateProbe) {
        probe.set_resident(self.resident_bytes() as u64, self.resident_keys() as u64);
        probe.set_late_events(self.late_events);
    }
}

/// Single-stage keyed sliding-window aggregation.
pub struct SlidingWindowP<K, A, R> {
    wdef: WindowDef,
    /// One key extractor per input ordinal (co-group inputs differ in type).
    key_fns: Vec<ObjKeyFn<K>>,
    op: AggregateOp<A, R>,
    state: WindowState<K, A>,
    probe: Arc<StateProbe>,
    ticks: u32,
}

impl<K, A, R> SlidingWindowP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + 'static,
    R: Clone + Send + Debug + 'static,
{
    pub fn new<I: 'static>(
        wdef: WindowDef,
        key_fn: impl Fn(&I) -> K + Send + Sync + 'static,
        op: AggregateOp<A, R>,
    ) -> Self {
        SlidingWindowP {
            wdef,
            key_fns: vec![Arc::new(move |obj| key_fn(downcast_ref::<I>(obj)))],
            op,
            state: WindowState::new(wdef),
            probe: Arc::new(StateProbe::default()),
            ticks: 0,
        }
    }

    /// Add a key extractor for a further input ordinal (windowed co-group).
    pub fn with_input<I: 'static>(
        mut self,
        key_fn: impl Fn(&I) -> K + Send + Sync + 'static,
    ) -> Self {
        self.key_fns
            .push(Arc::new(move |obj| key_fn(downcast_ref::<I>(obj))));
        self
    }

    pub fn late_events(&self) -> u64 {
        self.state.late_events
    }
}

impl<K, A, R> Processor for SlidingWindowP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + 'static,
    R: Clone + Send + Debug + 'static,
{
    fn init(&mut self, ctx: &ProcessorContext) {
        self.state.set_partitions(ctx.partition_count);
    }

    fn process(
        &mut self,
        ordinal: usize,
        inbox: &mut Inbox,
        _outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        let Self {
            wdef,
            key_fns,
            op,
            state,
            ..
        } = self;
        let key_fn = &key_fns[ordinal];
        let acc_fn = &op.accumulate[ordinal];
        while let Some((ts, _)) = inbox.peek() {
            let frame_end = wdef.frame_end(*ts);
            if state.blocked(frame_end) {
                // Spill full while this frame's window is mid-emission:
                // leave the event queued (inbox backpressure) and let the
                // tick-driven emission catch up.
                break;
            }
            let Some((_, obj)) = inbox.take() else {
                break;
            };
            if state.is_late(frame_end) {
                continue;
            }
            let key = key_fn(obj.as_ref());
            state.add(fp_of(&key), key, frame_end, op, |a| acc_fn(a, obj.as_ref()));
        }
    }

    fn try_process_watermark(
        &mut self,
        wm: Ts,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) -> bool {
        let Self { op, state, .. } = self;
        state.pump(outbox, op);
        state.try_accept_wm(wm)
    }

    fn tick(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        let Self { op, state, .. } = self;
        let worked = state.pump(outbox, op);
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(PROBE_STRIDE) {
            self.state.refresh_probe(&self.probe);
        }
        worked
    }

    fn state_probe(&self) -> Option<Arc<StateProbe>> {
        Some(self.probe.clone())
    }

    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        // Flush all remaining windows as if the watermark jumped to +inf.
        let _ = ctx;
        let Self {
            wdef,
            op,
            state,
            probe,
            ..
        } = self;
        let target = Ts::MAX - wdef.slide;
        if state.wm_target == NO_WATERMARK || target > state.wm_target {
            state.wm_target = target;
            state.held_wm = target;
        }
        state.pump(outbox, op);
        let done = state.finished();
        if done {
            // Leave the exported gauges exact at job end (the tick-driven
            // refresh is strided and may lag by up to PROBE_STRIDE calls).
            state.refresh_probe(probe);
        }
        done
    }

    fn save_snapshot(&mut self, id: u64, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        let Self { op, state, .. } = self;
        if !state.quiesced() {
            state.pump(outbox, op);
            if !state.quiesced() {
                return false;
            }
        }
        state.stream_save(id, outbox, ctx.global_index)
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        self.state.restore(key, value, ctx, &self.op);
    }

    fn finish_snapshot_restore(&mut self, _ctx: &ProcessorContext) {
        self.state.finish_restore(&self.op);
    }
}

/// Linear-counting sketch of the distinct keys of one frame: one bit per
/// fingerprint bucket, and the number of buckets still empty.
struct KeySketch {
    words: [u64; SKETCH_BITS / 64],
    zeros: u32,
}

impl KeySketch {
    fn new() -> Self {
        KeySketch {
            words: [0; SKETCH_BITS / 64],
            zeros: SKETCH_BITS as u32,
        }
    }

    #[inline]
    fn note(&mut self, fp: u64) {
        let bit = fp as usize % SKETCH_BITS;
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.words[word] & mask == 0 {
            self.words[word] |= mask;
            self.zeros -= 1;
        }
    }

    /// Estimated distinct keys: `m·ln(m / empty buckets)`.
    fn distinct(&self) -> f64 {
        let m = SKETCH_BITS as f64;
        m * ln_at_least_1(m / f64::from(self.zeros.max(1)))
    }

    fn clear(&mut self) {
        self.words = [0; SKETCH_BITS / 64];
        self.zeros = SKETCH_BITS as u32;
    }
}

/// `ln y` for `y ≥ 1`, computed here rather than by `f64::ln`, which links
/// the math library into every process (+0.3 MB resident even where no
/// window runs): `y = 2^k·f` with `f ∈ [1, 2)`, and
/// `ln f = 2·atanh((f − 1)/(f + 1))`, whose series converges to ~1e-9 in
/// eight terms since `(f − 1)/(f + 1) ≤ 1/3`.
fn ln_at_least_1(y: f64) -> f64 {
    let bits = y.to_bits();
    let k = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let f = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    let s = (f - 1.0) / (f + 1.0);
    let (mut term, mut sum) = (s, 0.0);
    for i in 0..8 {
        sum += term / f64::from(2 * i + 1);
        term *= s * s;
    }
    k as f64 * std::f64::consts::LN_2 + 2.0 * sum
}

/// Stage 1's measurement of its newest frame and the path it chose for it.
/// Only the newest frame is measured: events for older frames are not
/// counted. Not snapshotted: a fresh or restored instance holds until it
/// has measured a frame it saw whole.
struct FrameMeter {
    /// End of the newest frame seen, the one being measured.
    newest: Ts,
    /// Events of `newest` this instance took.
    events: u64,
    /// Distinct keys of `newest`.
    keys: KeySketch,
    /// `newest` is forwarded event by event instead of held.
    bypass: bool,
    /// Frames this instance forwarded.
    bypassed_frames: u64,
    /// Events per distinct key of the last measured frame, in thousandths.
    events_per_key_milli: u64,
    /// Restored from a snapshot: the first measured frame holds only the
    /// restore point's tail, so it chooses nothing and the next one holds.
    restored: bool,
}

impl FrameMeter {
    fn new() -> Self {
        FrameMeter {
            newest: NO_WATERMARK,
            events: 0,
            keys: KeySketch::new(),
            bypass: false,
            bypassed_frames: 0,
            events_per_key_milli: 0,
            restored: false,
        }
    }

    /// Note the frame of the next event: a newer frame ends the measurement
    /// of the current one and takes its path from it.
    #[inline]
    fn see(&mut self, frame_end: Ts) {
        if frame_end > self.newest {
            self.roll(frame_end);
        }
    }

    /// Count one taken event of frame `frame_end` with key fingerprint `fp`.
    #[inline]
    fn count(&mut self, frame_end: Ts, fp: u64) {
        if frame_end == self.newest {
            self.events += 1;
            self.keys.note(fp);
        }
    }

    /// Close the measured frame and choose the path of the new newest one.
    /// Cold: once per frame.
    #[cold]
    fn roll(&mut self, frame_end: Ts) {
        if self.newest != NO_WATERMARK && !std::mem::take(&mut self.restored) {
            let keys = self.keys.distinct();
            let events = self.events as f64;
            self.bypass = events < HOLD_MIN_EVENTS_PER_KEY * keys;
            self.bypassed_frames += u64::from(self.bypass);
            self.events_per_key_milli = if keys > 0.0 {
                (events * 1000.0 / keys) as u64
            } else {
                0
            };
        }
        self.newest = frame_end;
        self.events = 0;
        self.keys.clear();
    }
}

/// Stage 1 of two-stage windowed aggregation (§3.1). It chooses one of two
/// paths frame by frame, from how many events per distinct key its newest
/// frame had:
///
/// * **hold** — accumulate the frame's events per key locally and ship the
///   frame's partials when the watermark closes it, which pays when many
///   events share a key (Fig. 10's regime, Q7's single key);
/// * **bypass** — forward every event at once as a one-event
///   [`FrameChunk`] on the same partitioned edge, so stage 2 ingests the
///   frame while it is open and the watermark finds nothing left to ship.
///
/// The next frame is bypassed when the newest one had fewer than
/// `HOLD_MIN_EVENTS_PER_KEY` events per key. A frame still open when the
/// path flips ships at its close as usual, and an event whose frame was
/// already shipped is forwarded on either path, so stage 2 applies it or
/// counts it late exactly as single-stage windowing does. Partials from
/// both paths reach the outbox before the held watermark and any barrier.
pub struct AccumulateFrameP<K, A, R> {
    wdef: WindowDef,
    key_fn: ObjKeyFn<K>,
    op: AggregateOp<A, R>,
    parts: u32,
    /// Open frames, ascending by end timestamp.
    frames: Vec<Frame<K, A>>,
    hint: usize,
    pool: Vec<KeyTable<K, A>>,
    /// Frame being shipped: detached table + drain position.
    ship: Option<(Ts, KeyTable<K, A>, Cursor)>,
    emitted_through: Ts,
    wm_target: Ts,
    held_wm: Ts,
    snap_cursor: Option<(u64, usize, Cursor)>,
    meter: FrameMeter,
    probe: Arc<StateProbe>,
    ticks: u32,
}

impl<K, A, R> AccumulateFrameP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + Debug + 'static,
{
    pub fn new<I: 'static>(
        wdef: WindowDef,
        key_fn: impl Fn(&I) -> K + Send + Sync + 'static,
        op: AggregateOp<A, R>,
    ) -> Self {
        AccumulateFrameP {
            wdef,
            key_fn: Arc::new(move |obj| key_fn(downcast_ref::<I>(obj))),
            op,
            parts: jet_imdg::DEFAULT_PARTITION_COUNT,
            frames: Vec::new(),
            hint: 0,
            pool: Vec::new(),
            ship: None,
            emitted_through: NO_WATERMARK,
            wm_target: NO_WATERMARK,
            held_wm: NO_WATERMARK,
            snap_cursor: None,
            meter: FrameMeter::new(),
            probe: Arc::new(StateProbe::with_bypass()),
            ticks: 0,
        }
    }

    /// Ship a bounded chunk of closed-frame partials downstream; forward
    /// the held watermark once every closed frame is fully shipped.
    fn pump(&mut self, outbox: &mut Outbox) -> bool {
        let mut worked = false;
        let mut budget = EMIT_CHUNK;
        loop {
            if let Some((frame_end, table, cur)) = self.ship.as_mut() {
                let end = *frame_end;
                loop {
                    if budget == 0 {
                        return true;
                    }
                    if !outbox.has_room() {
                        return worked;
                    }
                    let (next, item) = table.drain_next(*cur);
                    *cur = next;
                    match item {
                        Some((_, key, acc)) => {
                            let c = FrameChunk {
                                key,
                                frame_end: end,
                                acc,
                            };
                            outbox.emit(end, boxed(c));
                            budget -= 1;
                            worked = true;
                        }
                        None => break,
                    }
                }
                if let Some((_, table, _)) = self.ship.take() {
                    self.recycle(table);
                }
                worked = true;
            }
            // Next closed frame (frames are sorted: the first one is due
            // first). Detaching advances `emitted_through` immediately so
            // stragglers for the shipping frame classify as late.
            let due = self
                .frames
                .first()
                .is_some_and(|f| self.wm_target != NO_WATERMARK && f.end <= self.wm_target);
            if !due {
                break;
            }
            let f = self.frames.remove(0);
            self.hint = 0;
            self.emitted_through = self.emitted_through.max(f.end);
            self.ship = Some((f.end, f.table, Cursor::default()));
            worked = true;
        }
        if self.held_wm != NO_WATERMARK && outbox.broadcast(Item::Watermark(self.held_wm)) {
            self.held_wm = NO_WATERMARK;
            worked = true;
        }
        worked
    }

    /// Nothing due and the watermark forwarded.
    fn quiesced(&self) -> bool {
        self.ship.is_none()
            && self.held_wm == NO_WATERMARK
            && !self
                .frames
                .first()
                .is_some_and(|f| self.wm_target != NO_WATERMARK && f.end <= self.wm_target)
    }

    #[cold]
    fn recycle(&mut self, table: KeyTable<K, A>) {
        debug_assert!(table.is_empty());
        if self.pool.len() < 4 {
            self.pool.push(table);
        }
    }

    fn refresh_probe(&self) {
        let mut bytes = 0usize;
        let mut keys = 0usize;
        for f in &self.frames {
            bytes += f.table.resident_bytes();
            keys += f.table.len();
        }
        if let Some((_, t, _)) = &self.ship {
            bytes += t.resident_bytes();
            keys += t.len();
        }
        for t in &self.pool {
            bytes += t.resident_bytes();
        }
        self.probe.set_resident(bytes as u64, keys as u64);
        self.probe
            .set_bypass(self.meter.bypassed_frames, self.meter.events_per_key_milli);
    }
}

impl<K, A, R> Processor for AccumulateFrameP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + Debug + 'static,
    R: 'static,
{
    fn init(&mut self, ctx: &ProcessorContext) {
        if self.frames.is_empty() {
            self.parts = ctx.partition_count;
            self.pool.clear();
        }
    }

    fn process(
        &mut self,
        ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        let Self {
            wdef,
            key_fn,
            op,
            parts,
            frames,
            hint,
            pool,
            emitted_through,
            meter,
            ..
        } = self;
        let acc_fn = &op.accumulate[ordinal];
        while let Some((ts, _)) = inbox.peek() {
            let frame_end = wdef.frame_end(*ts);
            meter.see(frame_end);
            // A shipped frame takes no more partials from this instance:
            // stage 2 applies the event or counts it late.
            let shipped = *emitted_through != NO_WATERMARK && frame_end <= *emitted_through;
            let forward = meter.bypass || shipped;
            if forward && !outbox.has_room() {
                break; // resume once the outbox drains
            }
            let Some((_, obj)) = inbox.take() else {
                break;
            };
            let key = (key_fn)(obj.as_ref());
            let fp = fp_of(&key);
            meter.count(frame_end, fp);
            if forward {
                let mut acc = (op.create)();
                acc_fn(&mut acc, obj.as_ref());
                let c = FrameChunk {
                    key,
                    frame_end,
                    acc,
                };
                outbox.emit(frame_end, boxed(c));
                continue;
            }
            let fi = match find_frame(frames, *hint, frame_end) {
                Some(i) => i,
                None => create_frame(frames, pool, *parts, frame_end),
            };
            *hint = fi;
            let (acc, _) = frames[fi].table.upsert(fp, key, || (op.create)());
            acc_fn(acc, obj.as_ref());
        }
    }

    fn try_process_watermark(
        &mut self,
        wm: Ts,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) -> bool {
        // Close all frames with end <= wm; partials stream out a bounded
        // chunk per quantum, and the outbox's FIFO guarantees every partial
        // precedes the (held) watermark, which is what lets stage 2
        // finalize on watermark alone.
        self.pump(outbox);
        if self.wm_target == NO_WATERMARK || wm > self.wm_target {
            self.wm_target = wm;
        }
        if self.held_wm == NO_WATERMARK || wm > self.held_wm {
            self.held_wm = wm;
        }
        true
    }

    fn tick(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        let worked = self.pump(outbox);
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(PROBE_STRIDE) {
            self.refresh_probe();
        }
        worked
    }

    fn state_probe(&self) -> Option<Arc<StateProbe>> {
        Some(self.probe.clone())
    }

    fn complete(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        let target = Ts::MAX - self.wdef.slide;
        if self.wm_target == NO_WATERMARK || target > self.wm_target {
            self.wm_target = target;
            self.held_wm = target;
        }
        self.pump(outbox);
        let done = self.quiesced();
        if done {
            self.refresh_probe();
        }
        done
    }

    fn save_snapshot(&mut self, id: u64, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        // Stage-1 state is *not* partitioned by key (it is node-local), so
        // records are keyed by (instance, key, frame) to avoid collisions;
        // on restore they are re-partitioned exactly like live chunks
        // would be.
        if !self.quiesced() {
            self.pump(outbox);
            if !self.quiesced() {
                return false;
            }
        }
        let (mut fi, mut cur) = match self.snap_cursor {
            Some((sid, fi, cur)) if sid == id => (fi, cur),
            _ => (0, Cursor::default()),
        };
        let mut budget = SNAPSHOT_CHUNK;
        while fi < self.frames.len() {
            if budget == 0 {
                self.snap_cursor = Some((id, fi, cur));
                return false;
            }
            let frame_end = self.frames[fi].end;
            let (next, item) = self.frames[fi].table.scan_next(cur);
            match item {
                Some((_, k, a)) => {
                    outbox.offer_snapshot(&(0u64, ctx.global_index as u64, *k, frame_end), a);
                    cur = next;
                    budget -= 1;
                }
                None => {
                    fi += 1;
                    cur = Cursor::default();
                }
            }
        }
        outbox.offer_snapshot(&(1u64, ctx.global_index as u64), &self.emitted_through);
        self.snap_cursor = None;
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        if self.frames.is_empty() && self.parts != ctx.partition_count {
            self.parts = ctx.partition_count;
            self.pool.clear();
        }
        let mut r = jet_util::codec::ByteReader::new(key);
        let tag = u64::load(&mut r).expect("corrupt frame snapshot key tag");
        let _instance = u64::load(&mut r).expect("corrupt frame snapshot instance");
        if tag == 1 {
            let saved = Ts::from_bytes(value).expect("corrupt frame meta record");
            if self.emitted_through == NO_WATERMARK || saved < self.emitted_through {
                self.emitted_through = saved;
            }
            return;
        }
        let k = K::load(&mut r).expect("corrupt frame snapshot key");
        let frame_end = Ts::load(&mut r).expect("corrupt frame snapshot frame");
        // Restore by key ownership so the partial lands where live events
        // for that key will be accumulated.
        if !ctx.owns_key_hash(seq::hash_of(&k)) {
            return;
        }
        let a = A::from_bytes(value).expect("corrupt frame snapshot value");
        let fi = match find_frame(&self.frames, self.hint, frame_end) {
            Some(i) => i,
            None => create_frame(&mut self.frames, &mut self.pool, self.parts, frame_end),
        };
        self.hint = fi;
        let (slot, _) = self.frames[fi]
            .table
            .upsert(fp_of(&k), k, || (self.op.create)());
        (self.op.combine)(slot, &a);
    }

    fn finish_snapshot_restore(&mut self, _ctx: &ProcessorContext) {
        self.meter.restored = true;
    }
}

/// Stage 2: combine [`FrameChunk`]s (partitioned by key) into frames and run
/// the sliding emission.
pub struct CombineFramesP<K, A, R> {
    op: AggregateOp<A, R>,
    state: WindowState<K, A>,
    probe: Arc<StateProbe>,
    ticks: u32,
}

impl<K, A, R> CombineFramesP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + Debug + 'static,
    R: Clone + Send + Debug + 'static,
{
    pub fn new(wdef: WindowDef, op: AggregateOp<A, R>) -> Self {
        CombineFramesP {
            op,
            state: WindowState::new(wdef),
            probe: Arc::new(StateProbe::default()),
            ticks: 0,
        }
    }

    pub fn late_chunks(&self) -> u64 {
        self.state.late_events
    }
}

impl<K, A, R> Processor for CombineFramesP<K, A, R>
where
    K: WindowKey,
    A: Snap + Clone + Send + Default + Debug + 'static,
    R: Clone + Send + Debug + 'static,
{
    fn init(&mut self, ctx: &ProcessorContext) {
        self.state.set_partitions(ctx.partition_count);
    }

    fn process(
        &mut self,
        _ordinal: usize,
        inbox: &mut Inbox,
        _outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) {
        let Self { op, state, .. } = self;
        while let Some((_, obj)) = inbox.peek() {
            let chunk = downcast_ref::<FrameChunk<K, A>>(obj.as_ref());
            let frame_end = chunk.frame_end;
            if state.blocked(frame_end) {
                break; // spill full: inbox backpressure until the close
            }
            let Some((_, obj)) = inbox.take() else {
                break;
            };
            let chunk = downcast_ref::<FrameChunk<K, A>>(obj.as_ref());
            if state.is_late(frame_end) {
                continue;
            }
            let key = chunk.key;
            state.add(fp_of(&key), key, frame_end, op, |a| {
                (op.combine)(a, &chunk.acc)
            });
        }
    }

    fn try_process_watermark(
        &mut self,
        wm: Ts,
        outbox: &mut Outbox,
        _ctx: &ProcessorContext,
    ) -> bool {
        let Self { op, state, .. } = self;
        state.pump(outbox, op);
        state.try_accept_wm(wm)
    }

    fn tick(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        let Self { op, state, .. } = self;
        let worked = state.pump(outbox, op);
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks.is_multiple_of(PROBE_STRIDE) {
            self.state.refresh_probe(&self.probe);
        }
        worked
    }

    fn state_probe(&self) -> Option<Arc<StateProbe>> {
        Some(self.probe.clone())
    }

    fn complete(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        let Self {
            op, state, probe, ..
        } = self;
        let target = Ts::MAX - state.wdef.slide;
        if state.wm_target == NO_WATERMARK || target > state.wm_target {
            state.wm_target = target;
            state.held_wm = target;
        }
        state.pump(outbox, op);
        let done = state.finished();
        if done {
            state.refresh_probe(probe);
        }
        done
    }

    fn save_snapshot(&mut self, id: u64, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        let Self { op, state, .. } = self;
        if !state.quiesced() {
            state.pump(outbox, op);
            if !state.quiesced() {
                return false;
            }
        }
        state.stream_save(id, outbox, ctx.global_index)
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        self.state.restore(key, value, ctx, &self.op);
    }

    fn finish_snapshot_restore(&mut self, _ctx: &ProcessorContext) {
        self.state.finish_restore(&self.op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::take;
    use crate::processor::Guarantee;
    use crate::processors::agg::counting;
    use std::collections::HashMap;
    use std::ops::Range;
    use std::sync::atomic::AtomicBool;

    /// Slide of every window under test, in event-time nanoseconds.
    const S: Ts = 1_000;
    /// Keys per frame: each fold and emission spans three `EMIT_CHUNK`
    /// quanta, so events can arrive in the middle of either.
    const KEYS: u64 = 2_500;

    /// Drives one `WindowState` by hand and checks every window result it
    /// emits against a brute-force fold of the events it accepted.
    struct Rig {
        wdef: WindowDef,
        op: AggregateOp<u64, u64>,
        state: WindowState<u64, u64>,
        outbox: Outbox,
        /// Accepted events: `(key, frame end, floor when accepted)`.
        accepted: Vec<(u64, Ts, Ts)>,
        got: HashMap<(u64, Ts), u64>,
        /// A background fold ran at some point.
        saw_fold_ahead: bool,
    }

    impl Rig {
        fn new(wdef: WindowDef, op: AggregateOp<u64, u64>) -> Self {
            Rig {
                wdef,
                op,
                state: WindowState::new(wdef),
                outbox: Outbox::new(1, usize::MAX),
                accepted: Vec::new(),
                got: HashMap::new(),
                saw_fold_ahead: false,
            }
        }

        fn sliding() -> Self {
            Self::new(WindowDef::sliding(4 * S, S), counting::<u64>())
        }

        /// One event, as `SlidingWindowP::process` takes it.
        fn event(&mut self, key: u64, frame_end: Ts) {
            assert!(!self.state.blocked(frame_end), "spill full");
            if self.state.is_late(frame_end) {
                return;
            }
            let floor = self.state.floor;
            self.state
                .add(fp_of(&key), key, frame_end, &self.op, |a| *a += 1);
            self.accepted.push((key, frame_end, floor));
        }

        fn frame(&mut self, keys: Range<u64>, frame_end: Ts) {
            for key in keys {
                self.event(key, frame_end);
            }
        }

        fn watermark(&mut self, wm: Ts) {
            assert!(self.state.try_accept_wm(wm));
        }

        /// Is frame `floor` being folded ahead of its watermark?
        fn folding_ahead(&self) -> bool {
            matches!(self.state.pending, Pending::Fold { end, .. } if end == self.state.floor)
        }

        fn emitting(&self) -> Option<Ts> {
            match self.state.pending {
                Pending::EmitRunning { end, .. } => Some(end),
                _ => None,
            }
        }

        /// One quantum of `pump`; collects what it emitted.
        fn pump(&mut self) {
            self.state.pump(&mut self.outbox, &self.op);
            self.saw_fold_ahead |= self.folding_ahead() || self.state.folded_ahead;
            for item in self.outbox.buf_mut(0).drain(..) {
                if let Item::Event { obj, .. } = item {
                    let r = take::<WindowResult<u64, u64>>(obj);
                    assert_eq!(r.start, r.end - self.wdef.size);
                    let dup = self.got.insert((r.key, r.end), r.value);
                    assert!(dup.is_none(), "window {r:?} emitted twice");
                }
            }
        }

        fn pump_until(&mut self, what: &str, done: impl Fn(&Self) -> bool) {
            for _ in 0..100 {
                if done(self) {
                    return;
                }
                self.pump();
            }
            panic!("never reached: {what}");
        }

        /// Snapshot the state and replace it by a restored copy.
        fn snapshot_and_restore(&mut self) {
            assert!(self.state.quiesced());
            while !self.state.stream_save(1, &mut self.outbox, 0) {}
            let parts = jet_imdg::DEFAULT_PARTITION_COUNT;
            let ctx = ProcessorContext {
                vertex: "window".into(),
                global_index: 0,
                total_parallelism: 1,
                member: 0,
                clock: jet_util::clock::system_clock(),
                guarantee: Guarantee::ExactlyOnce,
                cancelled: Arc::new(AtomicBool::new(false)),
                partition_count: parts,
                owned_partitions: Arc::new(vec![true; parts as usize]),
            };
            let mut restored = WindowState::new(self.wdef);
            let (records, bytes) = self.outbox.snapshot_chunk();
            let mut r = jet_util::codec::ByteReader::new(bytes);
            for _ in 0..records {
                let key = r.get_bytes().unwrap();
                let value = r.get_bytes().unwrap();
                restored.restore(key, value, &ctx, &self.op);
            }
            restored.finish_restore(&self.op);
            self.outbox.clear_snapshot_chunk();
            self.state = restored;
        }

        /// Flush every window, as `complete` does, and compare all results
        /// with the fold.
        fn finish(mut self) -> Self {
            let target = Ts::MAX - self.wdef.slide;
            self.state.wm_target = target;
            self.state.held_wm = target;
            self.pump_until("end of stream", |r| r.state.finished());
            let mut want: HashMap<(u64, Ts), u64> = HashMap::new();
            for &(key, frame_end, floor) in &self.accepted {
                for end in (frame_end..frame_end + self.wdef.size).step_by(S as usize) {
                    if floor == NO_WATERMARK || end >= floor {
                        *want.entry((key, end)).or_default() += 1;
                    }
                }
            }
            assert_eq!(self.got.len(), want.len(), "windows emitted");
            assert_eq!(self.got, want);
            self
        }
    }

    #[test]
    fn next_frame_events_during_emission_background_fold_and_after_match_a_fold() {
        let mut rig = Rig::sliding();
        for f in 1..=4 {
            rig.frame(f as u64 * 100..f as u64 * 100 + KEYS, f * S);
        }
        rig.watermark(S);
        rig.pump_until("window S emitting", |r| r.emitting() == Some(S));
        let next = rig.state.floor;
        assert_eq!(next, 2 * S);
        rig.frame(0..3, next);
        rig.pump_until("background fold", Rig::folding_ahead);
        assert!(!rig.state.folded_ahead);
        rig.frame(3..6, next);
        rig.event(7, S); // a late event for a frame already in `running`
        assert_eq!(rig.state.spill_len, 4, "the frame being folded spills");
        rig.pump_until("fold ahead done", |r| r.state.folded_ahead);
        assert_eq!(rig.state.spill_len, 0);
        assert!(rig.state.frame_already_running(next));
        rig.frame(6..9, next);
        rig.frame(KEYS + 1_000..KEYS + 1_003, next); // keys new to `running`
        rig.watermark(next);
        rig.pump();
        assert_eq!(rig.emitting(), Some(next), "the fold is skipped");
        assert!(!rig.state.folded_ahead);
        rig.finish();
    }

    #[test]
    fn late_events_for_frames_already_in_running_count_in_every_later_window() {
        let mut rig = Rig::sliding();
        for f in 1..=6 {
            rig.frame(0..KEYS, f * S);
        }
        rig.watermark(3 * S);
        rig.pump_until("frame 4S folded ahead", |r| r.state.folded_ahead);
        assert_eq!(rig.state.floor, 4 * S);
        // Frames S to 3S were folded by emissions, 4S ahead of its
        // watermark; frame 0 is late for every window still owed.
        for frame_end in [0, S, 2 * S, 3 * S, 4 * S] {
            rig.event(1, frame_end);
            rig.event(KEYS + frame_end as u64, frame_end);
        }
        assert_eq!(rig.state.late_events, 2);
        rig.finish();
    }

    #[test]
    fn a_snapshot_taken_after_a_fold_ahead_restores_without_it() {
        let mut rig = Rig::sliding();
        for f in 1..=5 {
            rig.frame(0..KEYS, f * S);
        }
        rig.watermark(2 * S);
        rig.pump_until("frame 3S folded ahead", |r| {
            r.state.folded_ahead && r.state.held_wm == NO_WATERMARK
        });
        rig.frame(0..10, 3 * S);
        rig.snapshot_and_restore();
        assert!(!rig.state.folded_ahead);
        assert_eq!(rig.state.next_emit, 3 * S);
        rig.frame(10..20, 3 * S);
        rig.watermark(4 * S);
        rig.finish();
    }

    #[test]
    fn a_gap_that_drains_the_state_re_anchors_and_folds_the_next_frame() {
        let mut rig = Rig::sliding();
        for f in 1..=3 {
            rig.frame(0..KEYS, f * S);
        }
        rig.watermark(S);
        rig.pump_until("frame 2S folded ahead", |r| r.state.folded_ahead);
        // The gap: every window over the frames so far closes, the state
        // drains empty and the anchor resets.
        rig.watermark(20 * S);
        rig.pump_until("state drained", |r| {
            r.state.next_emit == NO_WATERMARK && r.state.retire.is_empty()
        });
        assert!(rig.state.running.is_empty() && rig.state.frames.is_empty());
        assert!(!rig.state.folded_ahead);
        for f in 21..=23 {
            rig.frame(0..KEYS, f * S);
        }
        rig.watermark(21 * S);
        rig.pump_until("frame 22S folded ahead", |r| r.state.folded_ahead);
        rig.finish();
    }

    #[test]
    fn tumbling_and_deduct_free_windows_never_fold_ahead() {
        let mut op = counting::<u64>();
        op.deduct = None;
        for rig in [
            Rig::new(WindowDef::tumbling(S), counting::<u64>()),
            Rig::new(WindowDef::sliding(4 * S, S), op),
        ] {
            let mut rig = rig;
            for f in 1..=6 {
                rig.frame(0..KEYS, f * S);
                rig.watermark((f - 1) * S);
                for _ in 0..8 {
                    rig.pump();
                }
            }
            let rig = rig.finish();
            assert!(!rig.saw_fold_ahead);
        }
    }

    #[test]
    fn a_restored_stage_1_holds_past_its_first_measured_frame() {
        let sparse = |meter: &mut FrameMeter, frame_end: Ts| {
            meter.see(frame_end);
            for key in 0..100u64 {
                meter.count(frame_end, fp_of(&key));
            }
        };
        let mut fresh = FrameMeter::new();
        let mut restored = FrameMeter::new();
        restored.restored = true;
        for meter in [&mut fresh, &mut restored] {
            sparse(meter, S);
            meter.see(2 * S);
        }
        assert!(fresh.bypass, "one event per key forwards the next frame");
        assert!(
            !restored.bypass,
            "the first frame after a restore chooses nothing"
        );
        sparse(&mut restored, 2 * S);
        restored.see(3 * S);
        assert!(restored.bypass);
    }

    #[test]
    fn ln_matches_the_math_library_over_the_sketch_range() {
        for zeros in 1..=SKETCH_BITS {
            let y = SKETCH_BITS as f64 / zeros as f64;
            let (got, want) = (ln_at_least_1(y), y.ln());
            assert!((got - want).abs() < 1e-8, "ln {y}: {got} vs {want}");
        }
    }
}
