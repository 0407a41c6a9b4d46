//! Two-stage windowed aggregation gives the results of single-stage
//! windowing and of a plain fold, whichever path stage 1 takes.
//!
//! Stage 1 holds a frame's events per key where they share keys and
//! forwards each event at once where holding would not halve what it
//! ships; the key counts of the stream choose, so each case below steers
//! stage 1 by its keys alone: few keys hold, many keys forward, and
//! alternating phases flip the path mid-stream. Each stream arrives out of
//! order within an allowed lag, plus stragglers far behind it that every
//! plan must count late and leave out.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::processors::WatermarkPolicy;
use jet_core::{supplier, Inbox, Item, Outbox, Processor, ProcessorContext, Ts};
use jet_pipeline::{NodeFactory, Pipeline, WindowDef, WindowResult};
use jet_util::seq::mix64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const SEC: u64 = 1_000_000_000;
const MS: Ts = 1_000_000;
/// One event per microsecond of event time: 1,000 per frame.
const SPACING: Ts = 1_000;
const FRAMES: i64 = 40;
const LAG: Ts = MS / 2;
/// Every `STRAGGLE`-th event is stamped `STRAGGLER_AGE` behind its place:
/// two and a half windows, far past the allowed lag.
const STRAGGLE: u64 = 997;
const STRAGGLER_AGE: Ts = 10 * MS;

fn wdef() -> WindowDef {
    WindowDef::sliding(4 * MS, MS)
}

/// `(key, window end, count)` rows, sorted.
type Rows = Vec<(u64, Ts, u64)>;
/// Timestamped `(key, window end, count)` sink output.
type Collected = Arc<Mutex<Vec<(Ts, (u64, Ts, u64))>>>;

/// Emits a fixed `(ts, key)` script in order from one instance, with a
/// watermark `LAG` behind the highest timestamp so far every 100 µs, and
/// a final watermark past the last event.
struct ScriptSource {
    script: Arc<Vec<(Ts, u64)>>,
    next: usize,
    top: Ts,
    last_wm: Ts,
    due_wm: Option<Ts>,
}

impl Processor for ScriptSource {
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    fn complete(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        loop {
            if let Some(wm) = self.due_wm {
                if !outbox.broadcast(Item::Watermark(wm)) {
                    return false;
                }
                self.due_wm = None;
            }
            let Some(&(ts, key)) = self.script.get(self.next) else {
                return outbox.broadcast(Item::Watermark(self.top + 1));
            };
            if !outbox.has_room() {
                return false;
            }
            outbox.emit_value(ts, key);
            self.next += 1;
            self.top = self.top.max(ts);
            let wm = self.top - LAG;
            if wm >= self.last_wm + MS / 10 {
                self.last_wm = wm;
                self.due_wm = Some(wm);
            }
        }
    }
}

/// The script: `FRAMES` frames of in-lag disorder, keys from `keys(seq)`,
/// and the stragglers. Event `seq` has its place `LAG + seq·SPACING`, so no
/// timestamp is negative and the first frame is whole.
fn script(keys: impl Fn(u64) -> u64) -> Vec<(Ts, u64)> {
    let n = (FRAMES * MS / SPACING) as u64;
    (0..n)
        .map(|seq| {
            let place = LAG + seq as Ts * SPACING;
            let ts = if seq % STRAGGLE == STRAGGLE - 1 && place > STRAGGLER_AGE {
                place - STRAGGLER_AGE
            } else {
                // Up to LAG behind its place, never behind the watermark.
                place - (mix64(seq) % LAG as u64) as Ts
            };
            (ts, keys(seq))
        })
        .collect()
}

/// The results and late count a plain fold gives: stragglers are late,
/// everything else counts in each window that covers it.
fn fold(script: &[(Ts, u64)]) -> (Rows, u64) {
    let w = wdef();
    let mut counts: HashMap<(u64, Ts), u64> = HashMap::new();
    let mut late = 0;
    for (seq, &(ts, key)) in script.iter().enumerate() {
        let seq = seq as u64;
        if seq % STRAGGLE == STRAGGLE - 1 && LAG + seq as Ts * SPACING > STRAGGLER_AGE {
            late += 1;
            continue;
        }
        let first = w.frame_end(ts);
        for end in (first..first + w.size).step_by(w.slide as usize) {
            *counts.entry((key, end)).or_insert(0) += 1;
        }
    }
    let mut rows: Rows = counts.into_iter().map(|((k, e), c)| (k, e, c)).collect();
    rows.sort_unstable();
    (rows, late)
}

/// What one run of a windowed count gave.
struct Outcome {
    rows: Rows,
    late: u64,
    bypassed_frames: u64,
}

/// Count `script` per key and window on one simulated member with two
/// cores, two-stage or single-stage.
fn run(script: &Arc<Vec<(Ts, u64)>>, two_stage: bool) -> Outcome {
    let p = Pipeline::create();
    let out: Collected = Arc::new(Mutex::new(Vec::new()));
    let s = script.clone();
    let make: NodeFactory = Arc::new(move |_lp| {
        let s = s.clone();
        supplier(move |_| {
            Box::new(ScriptSource {
                script: s.clone(),
                next: 0,
                top: 0,
                last_wm: Ts::MIN / 2,
                due_wm: None,
            })
        })
    });
    let windowed = p
        .read_from_custom::<u64>("script", make)
        .local_parallelism(1)
        .grouping_key(|k: &u64| *k)
        .window(wdef());
    let results = if two_stage {
        windowed.aggregate(counting::<u64>())
    } else {
        windowed.aggregate_single_stage(counting::<u64>())
    };
    results
        .map(|r: &WindowResult<u64, u64>| (r.key, r.end, r.value))
        .write_to_collect(out.clone());
    let cfg = SimClusterConfig {
        members: 1,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(p.compile(2).unwrap(), cfg).unwrap();
    assert!(cluster.run_for(60 * SEC), "job did not complete");
    let metrics = cluster.job_metrics();
    let window = if two_stage {
        "window-combine"
    } else {
        "window-single"
    };
    let mut rows: Rows = out.lock().iter().map(|(_, row)| *row).collect();
    rows.sort_unstable();
    Outcome {
        rows,
        late: metrics.counter_total("jet_window_late_events_total", &[("vertex", window)]),
        bypassed_frames: metrics.counter_total(
            "jet_window_bypassed_frames_total",
            &[("vertex", "window-accumulate")],
        ),
    }
}

/// Two-stage, single-stage and the fold agree on `script`; returns the
/// frames stage 1 forwarded, summed over its two instances.
fn agree(script: Vec<(Ts, u64)>) -> u64 {
    let (want, want_late) = fold(&script);
    assert!(want_late > 10, "only {want_late} stragglers");
    let script = Arc::new(script);
    let two = run(&script, true);
    let single = run(&script, false);
    assert_eq!(single.rows, want, "single-stage differs from the fold");
    assert_eq!(single.late, want_late, "single-stage late count");
    assert_eq!(two.rows, want, "two-stage differs from the fold");
    assert_eq!(two.late, want_late, "two-stage late count");
    two.bypassed_frames
}

/// The key of event `seq` when phases of `phase` events alternate between
/// 7 keys and a million.
fn alternating_keys(seq: u64, phase: u64) -> u64 {
    let space = if (seq / phase).is_multiple_of(2) {
        7
    } else {
        1_000_000
    };
    mix64(seq) % space
}

#[test]
fn two_stage_holding_every_frame_matches_single_stage_and_a_fold() {
    // 500 events per instance and frame over 7 keys: stage 1 holds.
    assert_eq!(agree(script(|seq| mix64(seq) % 7)), 0);
}

#[test]
fn two_stage_forwarding_every_frame_matches_single_stage_and_a_fold() {
    // ~500 distinct keys per instance and frame: each instance forwards
    // every frame after its first.
    let bypassed = agree(script(|seq| mix64(seq) % 1_000_000));
    assert!(bypassed >= 2 * (FRAMES as u64 - 2), "{bypassed} frames");
}

#[test]
fn two_stage_flipping_paths_mid_stream_matches_single_stage_and_a_fold() {
    // Phases of five frames alternate between 7 and a million keys.
    let phase = (5 * MS / SPACING) as u64;
    let bypassed = agree(script(|seq| alternating_keys(seq, phase)));
    let frames = 2 * FRAMES as u64;
    assert!(
        bypassed >= frames / 4 && bypassed <= 3 * frames / 4,
        "{bypassed} of {frames} frames forwarded"
    );
}

/// Exactly-once across a path flip: a member dies mid-stream while stage 1
/// alternates between holding and forwarding, the job restores from its
/// last snapshot (where every instance starts over in hold), and every
/// window still counts each event once. Windows emitted between that
/// snapshot and the kill are emitted again, with the same counts.
#[test]
fn two_stage_restored_across_a_path_flip_counts_every_event_once() {
    const RATE: u64 = 1_000_000;
    const LIMIT: u64 = 60_000;
    // A phase is five frames of 1,000 events.
    const PHASE: u64 = 5_000;
    let keys = |seq| alternating_keys(seq, PHASE);
    let p = Pipeline::create();
    let out: Collected = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        RATE,
        Some(LIMIT),
        WatermarkPolicy {
            stride: MS / 10,
            ..WatermarkPolicy::default()
        },
        move |seq, _ts| keys(seq),
    )
    .grouping_key(|k: &u64| *k)
    .window(wdef())
    .aggregate(counting::<u64>())
    .map(|r: &WindowResult<u64, u64>| (r.key, r.end, r.value))
    .write_to_collect(out.clone());
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 3 * MS as u64,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(p.compile(2).unwrap(), cfg).unwrap();
    cluster.run_for(32 * MS as u64);
    assert!(cluster.registry().completed() >= 2, "too few snapshots");
    assert!(!out.lock().is_empty(), "no window out before the kill");
    let victim = cluster.grid().members()[1];
    let restored = cluster.kill_member_and_recover(victim).unwrap();
    assert!(restored.is_some(), "recovery had no snapshot");
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after recovery"
    );
    let bypassed = cluster.job_metrics().counter_total(
        "jet_window_bypassed_frames_total",
        &[("vertex", "window-accumulate")],
    );
    assert!(bypassed > 0, "the restored job never forwarded a frame");

    let w = wdef();
    let mut want: HashMap<(u64, Ts), u64> = HashMap::new();
    for seq in 0..LIMIT {
        let ts = (seq * SEC / RATE) as Ts;
        let first = w.frame_end(ts);
        for end in (first..first + w.size).step_by(w.slide as usize) {
            *want.entry((keys(seq), end)).or_insert(0) += 1;
        }
    }
    let mut got: HashMap<(u64, Ts), u64> = HashMap::new();
    for &(_, (key, end, count)) in out.lock().iter() {
        if let Some(before) = got.insert((key, end), count) {
            assert_eq!(
                before, count,
                "window ({key}, {end}) emitted twice, differently"
            );
        }
    }
    assert_eq!(got, want);
}
