//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, the traced run that yields the per-layer metrics, and the
//! reduced-scale output oracle.

use crate::estimator::{median, quantile_ns, quiet_epochs_quantile_ns, Epoch};
use crate::phases::{rss_kb, run_phase, Epochs, PhaseOutcome, PhasePlan};
use crate::probes;
use crate::reference::{self, hash_bid, hash_window, Digest};
use crate::report::{metrics_of, RunReport, END_TO_END, PER_LAYER};
use crate::timed::{write_spans, Layer};
use crate::workloads::{
    build, q1_row, q5_row, window, JobPlan, Query, Row, Workload, FULL_SECONDS,
};
use jet_core::Guarantee;
use jet_nexmark::NexmarkConfig;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 100;
/// Slack after the expected end of a phase before the watchdog cancels it.
const WATCHDOG_SLACK: Duration = Duration::from_secs(45);
/// Trailing input after the last measured epoch, so the end-of-input window
/// flush (which the sink sees with zero latency) lands in no epoch.
const TAIL_MILLIS: u64 = 500;
/// A paced phase is overloaded when even its quiet epochs' median latency at
/// the end is more than twice, and more than this much above, what it was at
/// the start. (At 110 % load the backlog grows by 100 ms every second.)
const BACKLOG_FLOOR_NS: f64 = 5_000_000.0;

/// State-snapshot trigger period of the exactly-once workload. A snapshot
/// cycle is that workload's latency epoch, and the stall it measures (~65 ms
/// of pointer chasing through the snapshot store) follows the state of the
/// host from cycle to cycle, so what steadies the estimate is the number of
/// cycles in a run: two a second, not ISSUE 11's one (README.md, *Epochs of
/// `q1-stateless` and `q5-snapshot`*).
const SNAPSHOT_INTERVAL: Duration = Duration::from_millis(500);
/// Replays per untraced run; `replay_events_per_s` is the fastest. A replay
/// is single-threaded work, so its wall time is its cost plus whatever the
/// host took away; the fastest of a few short ones is the least disturbed.
const REPLAYS: usize = 3;

fn warmup_seconds(seconds: u64) -> u64 {
    if seconds >= 10 {
        3
    } else {
        1
    }
}

fn replay_events(w: &Workload, seconds: u64) -> u64 {
    w.replay_events * seconds.min(FULL_SECONDS) / FULL_SECONDS
}

/// The reference digest of `w`'s first `events` events.
fn expected(w: &Workload, seed: u64, events: u64) -> Digest {
    let cfg = NexmarkConfig {
        seed,
        ..Default::default()
    };
    let mut d = Digest::default();
    match w.query {
        Query::Q1 => reference::q1(&cfg, w.rate, events, |b| d.add(hash_bid(&b), 1)),
        Query::Q5 => reference::q5_streaming(&cfg, w.rate, events, window(), |key, end, n| {
            d.add(hash_window(key, end, n), n)
        }),
    }
    d
}

/// Input events whose contribution is missing from, or extra in, the output.
fn failed_events(w: &Workload, expected: &Digest, got: &Digest) -> u64 {
    if expected == got {
        return 0;
    }
    let per_event = match w.query {
        Query::Q1 => 1,
        Query::Q5 => window().frames_per_window() as u64,
    };
    expected
        .weight
        .abs_diff(got.weight)
        .div_ceil(per_event)
        .max(1)
}

/// Failed events of each phase, folding the reference once per distinct
/// input length (the replays of a run all share one).
fn failed_by_phase(w: &Workload, seed: u64, phases: &[&PhaseOutcome]) -> Vec<u64> {
    let mut folded: Vec<(u64, Digest)> = Vec::new();
    phases
        .iter()
        .map(|phase| {
            let want = match folded.iter().find(|(events, _)| *events == phase.events) {
                Some((_, digest)) => *digest,
                None => {
                    let digest = expected(w, seed, phase.events);
                    folded.push((phase.events, digest));
                    digest
                }
            };
            failed_events(w, &want, &phase.digest)
        })
        .collect()
}

struct Paced {
    outcome: PhaseOutcome,
    epochs: Vec<Epoch>,
}

/// The paced phase: one worker, input at `w.rate`, `seconds` of epochs after
/// the warm-up. Applies the validity guards.
fn run_paced(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Paced, String> {
    let warmup = warmup_seconds(seconds);
    let events = w.rate * (warmup + seconds) + w.rate * TAIL_MILLIS / 1000;
    let plan = PhasePlan {
        job: JobPlan::paced(events, traced),
        epochs: Some(Epochs {
            from: Duration::from_secs(warmup),
            until: Duration::from_secs(warmup + seconds),
            len: Duration::from_millis(w.epoch_millis),
        }),
        traced,
        snapshot_interval: SNAPSHOT_INTERVAL,
        timeout: Duration::from_secs(warmup + seconds + 1) + WATCHDOG_SLACK,
    };
    let outcome = run_phase(w, seed, &plan)?;
    // A snapshot cycle runs a little over its interval, and two scheduled
    // epochs merge when the harness thread itself is preempted across a
    // boundary.
    let exactly_once = w.guarantee == Guarantee::ExactlyOnce;
    let min_epochs = if exactly_once {
        seconds * 1000 / SNAPSHOT_INTERVAL.as_millis() as u64 * 4 / 5
    } else {
        seconds * 1000 / w.epoch_millis * 9 / 10
    };
    let completed = outcome.snapshot_durations.len() as u64;
    if exactly_once && completed < min_epochs {
        return Err(format!(
            "{}: {completed} state snapshots completed, fewer than {min_epochs}",
            w.name
        ));
    }
    if (outcome.epochs.len() as u64) < min_epochs {
        return Err(format!(
            "{}: {} latency epochs, fewer than {min_epochs}",
            w.name,
            outcome.epochs.len()
        ));
    }
    // An epoch without a single result is the host holding the worker for
    // the whole of it, not the engine: leave it out, unless it is one of many.
    let mut epochs = outcome.epochs.clone();
    let scheduled = epochs.len();
    epochs.retain(|e| e.count > 0);
    if epochs.len() * 10 < scheduled * 9 {
        return Err(format!(
            "{}: {} of {scheduled} epochs have no results",
            w.name,
            scheduled - epochs.len()
        ));
    }
    if seconds >= 10 {
        let third = epochs.len() / 3;
        let p50 = |es: &[Epoch]| quiet_epochs_quantile_ns(es, 0.5);
        let (first, last) = (p50(&epochs[..third]), p50(&epochs[epochs.len() - third..]));
        if last > 2.0 * first && last > first + BACKLOG_FLOOR_NS {
            return Err(format!(
                "{}: backlog grows at {} ev/s: quiet-epoch p50 {:.0} us in the first third of the run, {:.0} us in the last",
                w.name,
                w.rate,
                first / 1e3,
                last / 1e3
            ));
        }
    }
    Ok(Paced { outcome, epochs })
}

/// The replay phase: the whole input due at start, run to `Done`.
fn run_replay(
    w: &Workload,
    seed: u64,
    events: u64,
    workers: usize,
    traced: bool,
) -> Result<PhaseOutcome, String> {
    let plan = PhasePlan {
        job: JobPlan::replay(w, events, workers),
        epochs: None,
        traced,
        snapshot_interval: SNAPSHOT_INTERVAL,
        timeout: WATCHDOG_SLACK,
    };
    run_phase(w, seed, &plan)
}

/// Time `SETUP_REPEATS` set-ups of the paced job (build + spawn), each torn
/// down again, in seconds.
fn setup_samples(w: &Workload, seed: u64, events: u64) -> Result<Vec<f64>, String> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut job = build(w, seed, &JobPlan::paced(events, false))?;
            let handles = job.spawn(None);
            let took = start.elapsed().as_secs_f64();
            handles.iter().for_each(|h| h.cancel());
            handles.into_iter().for_each(|h| h.join());
            Ok(took)
        })
        .collect()
}

/// Epochs a run lists one by one; of more it prints the quartiles.
const LISTED_EPOCHS: usize = 100;

/// Every epoch's `q`-quantile, in whole microseconds.
fn per_epoch(epochs: &[Epoch], label: &str, q: f64) -> String {
    let mut values: Vec<f64> = epochs.iter().map(|e| us(e.at(q))).collect();
    let mut what = "per epoch";
    if values.len() > LISTED_EPOCHS {
        values.sort_by(f64::total_cmp);
        let last = values.len() - 1;
        values = (0..=4).map(|i| values[last * i / 4]).collect();
        what = "min / quartiles / max over epochs";
    }
    let values: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
    format!("{label} {what} (us): {}", values.join(" "))
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Samples an epoch must hold beyond a percentile for it to be reported.
const SAMPLES_BEYOND: f64 = 10.0;

/// The tail percentile `latency_p9999_us` reports: p99.99 where the mean
/// epoch holds [`SAMPLES_BEYOND`] samples beyond it, else the highest of
/// p99.9 and p99 that does. With fewer, the "percentile" is the epoch's
/// largest sample or two, and over ten seeds its quartile spread on
/// `q1-stateless` (9 200 samples in 200 ms) was 0.19 to 0.29 whatever the
/// statistic over epochs.
fn tail_quantile(epochs: &[Epoch]) -> f64 {
    let per_epoch = epochs.iter().map(|e| e.count).sum::<u64>() as f64 / epochs.len() as f64;
    [0.9999, 0.999]
        .into_iter()
        .find(|q| per_epoch * (1.0 - q) >= SAMPLES_BEYOND)
        .unwrap_or(0.99)
}

/// Tracing off: set-up, paced latency, replay throughput, peak memory.
pub fn run_untraced(w: &Workload, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let paced = run_paced(w, seed, seconds, false)?;
    let replays = (0..REPLAYS)
        .map(|_| run_replay(w, seed, replay_events(w, seconds), 1, false))
        .collect::<Result<Vec<_>, _>>()?;
    // Read before the reference folds allocate anything.
    let peak_rss_mb = rss_kb("VmHWM") as f64 / 1024.0;
    // Timed last, when the process and the core are warm: the first
    // set-ups of a fresh process run up to twice as long as later ones. A
    // set-up is fixed single-threaded work, so like a replay the fastest one
    // is the least disturbed one.
    let mut setups = setup_samples(w, seed, w.rate)?;
    setups.push(paced.outcome.setup.as_secs_f64());

    let phases: Vec<&PhaseOutcome> = std::iter::once(&paced.outcome).chain(&replays).collect();
    let failed = failed_by_phase(w, seed, &phases).iter().sum();
    let speeds: Vec<f64> = replays.iter().map(PhaseOutcome::events_per_s).collect();
    let fastest_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let tail = tail_quantile(&paced.epochs);
    let samples: u64 = paced.epochs.iter().map(|e| e.count).sum();
    let values = [
        fastest_setup,
        us(quiet_epochs_quantile_ns(&paced.epochs, 0.5)),
        us(quiet_epochs_quantile_ns(&paced.epochs, 0.99)),
        us(quiet_epochs_quantile_ns(&paced.epochs, tail)),
        speeds.iter().copied().fold(0.0, f64::max),
        peak_rss_mb,
    ];
    Ok(RunReport {
        metrics: metrics_of(&END_TO_END, &values),
        attempted: paced.outcome.events + replays.iter().map(|r| r.events).sum::<u64>(),
        failed,
        notes: vec![
            format!(
                "paced: {} ev/s on 1 worker, {} epochs over {seconds} s after {} s warm-up, {} latency samples ({} per epoch)",
                w.rate,
                paced.epochs.len(),
                warmup_seconds(seconds),
                samples,
                samples / paced.epochs.len() as u64
            ),
            format!(
                "latency_p9999_us is p{} of an epoch: the highest of p99.99 / p99.9 / p99 with {SAMPLES_BEYOND} samples beyond it",
                tail * 100.0
            ),
            per_epoch(&paced.epochs, "p50", 0.5),
            per_epoch(&paced.epochs, "p99", 0.99),
            per_epoch(&paced.epochs, "p99.99", 0.9999),
            format!(
                "replay: {REPLAYS} times {} events on 1 worker, {} results each; ev/s: {}",
                replays[0].events,
                replays[0].digest.count,
                speeds
                    .iter()
                    .map(|s| format!("{s:.0}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            format!(
                "setup: {} set-ups, min {:.1} / median {:.1} / max {:.1} us; {} state snapshots completed while paced",
                setups.len(),
                fastest_setup * 1e6,
                median(&setups) * 1e6,
                setups.iter().copied().fold(0.0, f64::max) * 1e6,
                paced.outcome.snapshot_durations.len()
            ),
        ],
    })
}

fn per(total_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns as f64 / count as f64
    }
}

/// Tracing on: every tasklet timed, plus the isolated layer probes. Layers a
/// workload does not deploy report 0.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: u64,
    spans_path: &std::path::Path,
) -> Result<RunReport, String> {
    let paced = run_paced(w, seed, (2 * seconds).div_ceil(3), true)?;
    let events = replay_events(w, seconds);
    let traced = run_replay(w, seed, events, 2, true)?;
    let plain = run_replay(w, seed, events, 2, false)?;
    let single = run_replay(w, seed, events, 1, false)?;

    let paced_trace = paced
        .outcome
        .trace
        .as_ref()
        .expect("paced phase was traced");
    let trace = traced.trace.as_ref().expect("replay phase was traced");
    let error = trace.accounting_error();
    if error > 0.02 {
        return Err(format!(
            "{}: busy + overhead misses workers x wall by {:.1} %",
            w.name,
            error * 100.0
        ));
    }
    write_spans(
        spans_path,
        w.name,
        &[("paced", paced_trace), ("replay", trace)],
    )
    .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let results = traced.digest.count;
    let calls = paced_trace.call_histogram(None);
    let durations: Vec<f64> = paced
        .outcome
        .snapshot_durations
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let duration_p50_ms = if durations.is_empty() {
        0.0
    } else {
        median(&durations)
    };
    let records = paced.outcome.snapshot_records;
    let paced_secs = paced.outcome.wall.as_secs_f64();
    let rss_growth_bytes = paced
        .outcome
        .rss_peak_kb
        .saturating_sub(paced.outcome.rss_before_kb)
        * 1024;
    let values = [
        // exec
        per(trace.calls(), events),
        per(trace.no_progress_calls(), trace.calls()),
        per(trace.overhead_ns(), events),
        us(quantile_ns(&calls, 0.9999)),
        us(calls.max() as f64),
        plain.events_per_s() / single.events_per_s(),
        // source
        per(trace.busy_ns(Layer::Source), events),
        us(quantile_ns(&paced.outcome.emit_lag, 0.99)),
        // transform
        per(trace.busy_ns(Layer::Transform), events),
        // window + state
        per(trace.busy_ns(Layer::WindowAccumulate), events),
        per(trace.busy_ns(Layer::WindowCombine), results),
        us(paced_trace.call_histogram(Some(Layer::WindowCombine)).max() as f64),
        probes::state_upsert_ns(10_000),
        probes::state_upsert_ns(1_000_000),
        probes::state_scan_ns_per_record(),
        // sink
        per(trace.busy_ns(Layer::Sink), results),
        us(quantile_ns(&paced.outcome.measured, 0.9999)),
        // outbound / queue / object
        probes::outbound_unicast_ns(),
        probes::outbound_partitioned_ns(),
        probes::spsc_batch1_ns(),
        probes::spsc_batch64_ns(),
        probes::spsc_xthread_batch64_ns(),
        probes::conveyor_batch64_ns(),
        probes::object_inline_ns(),
        probes::object_heap_ns(),
        // network
        per(trace.busy_ns(Layer::Sender), traced.items_sent),
        per(trace.busy_ns(Layer::Receiver), traced.items_sent),
        traced.items_sent as f64,
        traced.bytes_sent as f64,
        per(traced.items_sent, trace.progress_calls(Layer::Sender)),
        traced.receive_window_min.unwrap_or(0) as f64,
        // snapshot
        duration_p50_ms,
        durations.iter().copied().fold(0.0, f64::max),
        records as f64,
        per((duration_p50_ms * 1e6) as u64, records),
        durations.len() as f64 / paced_secs,
        per(rss_growth_bytes, records),
        // trace
        1.0 - traced.events_per_s() / plain.events_per_s(),
    ];

    let failed_by_phase = failed_by_phase(w, seed, &[&paced.outcome, &traced, &plain, &single]);
    let failed = failed_by_phase.iter().sum();
    let mut notes: Vec<String> = trace
        .tasklets
        .iter()
        .map(|t| {
            format!(
                "replay tasklet {:<28} worker {} calls {:>9} no-progress {:>9} busy {:>8.1} ns/event, max call {:>7.0} us",
                t.name,
                t.worker,
                t.calls,
                t.no_progress_calls,
                per(t.busy_ns, events),
                us(t.call_ns.max() as f64)
            )
        })
        .collect();
    notes.sort();
    let spans: usize = [paced_trace, trace]
        .iter()
        .flat_map(|t| &t.tasklets)
        .map(|t| t.spans.len())
        .sum();
    Ok(RunReport {
        metrics: metrics_of(&PER_LAYER, &values),
        attempted: paced.outcome.events + 3 * events,
        failed,
        notes: [
            format!(
                "traced paced: {} epochs; traced replay: {} events, {} results, 2 workers, {:.3} s",
                paced.epochs.len(),
                events,
                results,
                traced.wall.as_secs_f64()
            ),
            format!(
                "replay budget: busy {:.1} + overhead {:.1} = {:.1} ns/event; workers x wall / events = {:.1} (error {:.3} %)",
                per(trace.busy_ns_total(), events),
                per(trace.overhead_ns(), events),
                per(trace.busy_ns_total() + trace.overhead_ns(), events),
                per(trace.workers as u64 * trace.wall_ns(), events),
                error * 100.0
            ),
            format!(
                "untraced replay: {:.0} ev/s on 2 workers, {:.0} ev/s on 1",
                plain.events_per_s(),
                single.events_per_s()
            ),
            format!("{spans} spans written to {}", spans_path.display()),
            format!(
                "events failed in paced / traced replay / untraced replay / 1-worker replay: {failed_by_phase:?}"
            ),
        ]
        .into_iter()
        .chain(notes)
        .collect(),
    })
}

/// Event-time span the oracle covers: past one full window, so frames
/// expire and running counts are deducted.
const ORACLE_EVENT_TIME_MILLIS: u64 = 1200;
/// State snapshots are taken this often while the oracle job runs, so the
/// exactly-once workload aligns several barriers in its short life.
const ORACLE_SNAPSHOT_INTERVAL: Duration = Duration::from_millis(20);

/// Reduced scale, rows collected: the sink output must equal, as a multiset,
/// the direct single-threaded fold over the same event stream.
pub fn run_oracle(w: &Workload, seed: u64) -> Result<String, String> {
    let events = w.rate * ORACLE_EVENT_TIME_MILLIS / 1000;
    assert!(events <= 2_000_000);
    let mut job = JobPlan::replay(w, events, 2);
    job.collect = true;
    let plan = PhasePlan {
        job,
        epochs: None,
        traced: false,
        snapshot_interval: ORACLE_SNAPSHOT_INTERVAL,
        timeout: WATCHDOG_SLACK,
    };
    let outcome = run_phase(w, seed, &plan)?;
    let mut got: Vec<Row> = outcome.collected.lock().iter().map(|&(_, r)| r).collect();
    got.sort_unstable();

    let cfg = NexmarkConfig {
        seed,
        ..Default::default()
    };
    let mut want: Vec<Row> = Vec::with_capacity(got.len());
    match w.query {
        Query::Q1 => reference::q1(&cfg, w.rate, events, |b| want.push(q1_row(&b))),
        Query::Q5 => {
            for (end, key, n) in reference::q5_naive(&cfg, w.rate, events, window()) {
                want.push(q5_row(key, end, n));
            }
        }
    }
    want.sort_unstable();
    if got != want {
        let first = got
            .iter()
            .zip(&want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        return Err(format!(
            "{}: oracle mismatch: {} rows from the engine, {} from the reference; first difference at sorted row {first}: {:?} vs {:?}",
            w.name,
            got.len(),
            want.len(),
            got.get(first),
            want.get(first)
        ));
    }
    if outcome.digest.count != got.len() as u64 {
        return Err(format!(
            "{}: the digest stage saw {} rows, the sink {}",
            w.name,
            outcome.digest.count,
            got.len()
        ));
    }
    Ok(format!(
        "oracle: {} events, {} rows equal the reference fold ({} state snapshots)",
        events,
        got.len(),
        outcome.snapshot_durations.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    #[test]
    fn failed_events_counts_missing_input() {
        let q1 = by_name("q1-stateless").unwrap();
        let q5 = by_name("q5-sliding").unwrap();
        let mut want = Digest::default();
        for i in 0..1000u64 {
            want.add(i, 100);
        }
        assert_eq!(failed_events(q5, &want, &want), 0);
        // Q5: three bids' worth of window counts missing.
        let mut short = want;
        short.weight -= 300;
        assert_eq!(failed_events(q5, &want, &short), 3);
        // Same totals, different rows: at least one event is wrong.
        let mut swapped = want;
        swapped.hash_sum ^= 1;
        assert_eq!(failed_events(q1, &want, &swapped), 1);
        // Q1: one result per event.
        let mut extra = want;
        extra.weight += 2;
        assert_eq!(failed_events(q1, &want, &extra), 2);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        let epoch_of = |samples: u64| {
            let mut h = jet_util::Histogram::latency();
            h.record_n(1000, samples);
            Epoch::of(&h)
        };
        assert_eq!(
            tail_quantile(&[epoch_of(200_000), epoch_of(100_000)]),
            0.9999
        );
        assert_eq!(tail_quantile(&[epoch_of(99_000)]), 0.999);
        assert_eq!(tail_quantile(&[epoch_of(1_150)]), 0.99);
        assert_eq!(tail_quantile(&[epoch_of(50)]), 0.99);
    }

    #[test]
    fn replay_backlog_scales_with_run_length() {
        let w = by_name("q5-sliding").unwrap();
        assert_eq!(replay_events(w, 20), 1_200_000);
        assert_eq!(replay_events(w, 60), 1_200_000);
        assert_eq!(replay_events(w, 5), 300_000);
    }
}
