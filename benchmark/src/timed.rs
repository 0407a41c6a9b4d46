//! Per-layer tracing from outside the engine: every `Box<dyn Tasklet>` the
//! wiring produced is wrapped in a [`TimedTasklet`] that times `call()` and
//! classifies the returned `Progress`.
//!
//! Aggregates (calls, busy time, wasted time, gaps between calls, a duration
//! histogram) are exact. One call in [`SPAN_STRIDE`] is also kept as a span
//! in a preallocated buffer and written out when the benchmark ends.

use jet_core::tasklet::Tasklet;
use jet_util::progress::Progress;
use jet_util::Histogram;
use parking_lot::Mutex;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One call in this many is kept as a span.
pub const SPAN_STRIDE: u64 = 1024;
/// Spans kept per tasklet; later samples are counted as dropped.
const SPAN_CAP: usize = 16_384;

/// Nanoseconds since the first call in this process: one timeline for all
/// worker threads and phases.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Engine layer a tasklet belongs to, from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Source,
    Transform,
    WindowAccumulate,
    WindowCombine,
    Sink,
    Sender,
    Receiver,
}

impl Layer {
    /// Classify by the vertex / channel names the pipeline compiler and the
    /// network layer assign. An unknown name is a benchmark bug: a silently
    /// unclassified tasklet would drop out of the per-layer sum.
    pub fn of(name: &str) -> Layer {
        match name {
            "nexmark" => Layer::Source,
            "flat-map" | "map" | "filter" => Layer::Transform,
            "window-accumulate" => Layer::WindowAccumulate,
            "window-combine" => Layer::WindowCombine,
            n if n.ends_with("-sink") => Layer::Sink,
            n if n.starts_with("sender-") => Layer::Sender,
            n if n.starts_with("receiver-") => Layer::Receiver,
            other => panic!("tasklet '{other}' belongs to no benchmarked layer"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    pub progress: Progress,
}

/// What one wrapped tasklet did over its lifetime.
pub struct TaskletStats {
    pub name: String,
    pub layer: Layer,
    pub worker: usize,
    pub calls: u64,
    pub no_progress_calls: u64,
    /// Time inside calls that returned `MadeProgress` or `Done`.
    pub busy_ns: u64,
    /// Time inside calls that returned `NoProgress`.
    pub wasted_ns: u64,
    /// Worker time between the previous call's end (any tasklet of the same
    /// worker) and this tasklet's call start: loop overhead and idling.
    pub gap_ns: u64,
    pub first_start_ns: u64,
    pub last_end_ns: u64,
    pub call_ns: Histogram,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

/// Where finished tasklets leave their stats (filled from `Drop`, so it is
/// complete once the workers are joined).
pub type StatsSink = Arc<Mutex<Vec<TaskletStats>>>;

/// A [`Tasklet`] that forwards everything to `inner` and measures `call()`.
pub struct TimedTasklet {
    inner: Box<dyn Tasklet>,
    /// End of the last call made by this tasklet's worker thread. Written and
    /// read by that one thread only; the atomic is there to share it between
    /// the worker's tasklets, so `Relaxed` suffices.
    worker_last_end: Arc<AtomicU64>,
    stats: Option<TaskletStats>,
    sink: StatsSink,
}

impl TimedTasklet {
    fn new(
        inner: Box<dyn Tasklet>,
        worker: usize,
        worker_last_end: Arc<AtomicU64>,
        sink: StatsSink,
    ) -> Self {
        let stats = TaskletStats {
            name: inner.name().to_string(),
            layer: Layer::of(inner.name()),
            worker,
            calls: 0,
            no_progress_calls: 0,
            busy_ns: 0,
            wasted_ns: 0,
            gap_ns: 0,
            first_start_ns: 0,
            last_end_ns: 0,
            call_ns: Histogram::latency(),
            spans: Vec::with_capacity(SPAN_CAP),
            spans_dropped: 0,
        };
        TimedTasklet {
            inner,
            worker_last_end,
            stats: Some(stats),
            sink,
        }
    }
}

impl Tasklet for TimedTasklet {
    fn call(&mut self) -> Progress {
        let start = now_ns();
        let progress = self.inner.call();
        let end = now_ns();
        let s = self.stats.as_mut().expect("stats live until drop");
        let prev_end = self.worker_last_end.swap(end, Ordering::Relaxed);
        if prev_end != 0 {
            s.gap_ns += start.saturating_sub(prev_end);
        }
        if s.calls == 0 {
            s.first_start_ns = start;
        }
        s.last_end_ns = end;
        let took = end - start;
        if progress == Progress::NoProgress {
            s.no_progress_calls += 1;
            s.wasted_ns += took;
        } else {
            s.busy_ns += took;
        }
        s.call_ns.record(took.max(1));
        if s.calls.is_multiple_of(SPAN_STRIDE) {
            if s.spans.len() < SPAN_CAP {
                s.spans.push(Span {
                    start_ns: start,
                    end_ns: end,
                    progress,
                });
            } else {
                s.spans_dropped += 1;
            }
        }
        s.calls += 1;
        progress
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_cooperative(&self) -> bool {
        self.inner.is_cooperative()
    }

    fn state(&self) -> &'static str {
        self.inner.state()
    }

    fn job(&self) -> u32 {
        self.inner.job()
    }
}

impl Drop for TimedTasklet {
    fn drop(&mut self) {
        if let Some(stats) = self.stats.take() {
            self.sink.lock().push(stats);
        }
    }
}

/// Wrap one `spawn_threaded(tasklets, threads, ..)` group. `first_worker`
/// numbers this group's workers within the phase (cluster members each get
/// their own group). Mirrors the executor's placement: cooperative tasklets
/// go round-robin over the workers in wiring order.
pub fn wrap_group(
    tasklets: Vec<Box<dyn Tasklet>>,
    threads: usize,
    first_worker: usize,
    sink: &StatsSink,
) -> Vec<Box<dyn Tasklet>> {
    let last_ends: Vec<Arc<AtomicU64>> = (0..threads).map(|_| Arc::default()).collect();
    let mut next = 0;
    tasklets
        .into_iter()
        .map(|t| {
            assert!(
                t.is_cooperative(),
                "benchmark workloads deploy cooperative tasklets only"
            );
            let w = next % threads;
            next += 1;
            Box::new(TimedTasklet::new(
                t,
                first_worker + w,
                last_ends[w].clone(),
                sink.clone(),
            )) as Box<dyn Tasklet>
        })
        .collect()
}

/// Per-layer and whole-executor totals of one traced phase.
pub struct PhaseTrace {
    pub tasklets: Vec<TaskletStats>,
    pub workers: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl PhaseTrace {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn sum(&self, f: impl Fn(&TaskletStats) -> u64) -> u64 {
        self.tasklets.iter().map(f).sum()
    }

    pub fn calls(&self) -> u64 {
        self.sum(|t| t.calls)
    }

    pub fn no_progress_calls(&self) -> u64 {
        self.sum(|t| t.no_progress_calls)
    }

    /// Calls of `layer` that did something (`MadeProgress` or `Done`).
    pub fn progress_calls(&self, layer: Layer) -> u64 {
        self.sum(|t| {
            if t.layer == layer {
                t.calls - t.no_progress_calls
            } else {
                0
            }
        })
    }

    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.sum(|t| if t.layer == layer { t.busy_ns } else { 0 })
    }

    pub fn busy_ns_total(&self) -> u64 {
        self.sum(|t| t.busy_ns)
    }

    /// Worker time not inside a progress-making call, measured directly:
    /// wasted polls, gaps between calls, and each worker's lead-in and
    /// tail-out against the phase boundaries. With `busy_ns_total` it must
    /// account for `workers * wall` — see [`Self::accounting_error`].
    pub fn overhead_ns(&self) -> u64 {
        let mut total = self.sum(|t| t.wasted_ns + t.gap_ns);
        for w in 0..self.workers {
            let mine = || {
                self.tasklets
                    .iter()
                    .filter(move |t| t.worker == w && t.calls > 0)
            };
            let first = mine().map(|t| t.first_start_ns).min();
            let last = mine().map(|t| t.last_end_ns).max();
            match (first, last) {
                (Some(first), Some(last)) => {
                    total += first.saturating_sub(self.start_ns);
                    total += self.end_ns.saturating_sub(last);
                }
                _ => total += self.wall_ns(),
            }
        }
        total
    }

    /// `|busy + overhead - workers * wall| / (workers * wall)`.
    pub fn accounting_error(&self) -> f64 {
        let expect = (self.workers as u64 * self.wall_ns()) as f64;
        let got = (self.busy_ns_total() + self.overhead_ns()) as f64;
        (got - expect).abs() / expect
    }

    /// All tasklets' call durations merged, optionally one layer only.
    pub fn call_histogram(&self, layer: Option<Layer>) -> Histogram {
        let mut h = Histogram::latency();
        for t in &self.tasklets {
            if layer.is_none_or(|l| l == t.layer) {
                h.merge(&t.call_ns);
            }
        }
        h
    }
}

fn progress_name(p: Progress) -> &'static str {
    match p {
        Progress::MadeProgress => "progress",
        Progress::NoProgress => "no-progress",
        Progress::Done => "done",
    }
}

/// Write the sampled spans of every phase as one JSON document:
/// `{"workload": .., "stride": .., "phases": [{"phase": .., "spans": [..]}]}`.
pub fn write_spans(
    path: &std::path::Path,
    workload: &str,
    phases: &[(&str, &PhaseTrace)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"stride\":{SPAN_STRIDE},\"phases\":["
    )?;
    for (pi, (phase, trace)) in phases.iter().enumerate() {
        if pi > 0 {
            write!(out, ",")?;
        }
        let dropped: u64 = trace.tasklets.iter().map(|t| t.spans_dropped).sum();
        write!(
            out,
            "\n{{\"phase\":\"{phase}\",\"start_ns\":{},\"end_ns\":{},\"spans_dropped\":{dropped},\"spans\":[",
            trace.start_ns, trace.end_ns
        )?;
        let mut first = true;
        for t in &trace.tasklets {
            for s in &t.spans {
                if !first {
                    write!(out, ",")?;
                }
                first = false;
                // Tasklet names are engine-assigned identifiers (letters,
                // digits, `-`, `>`): nothing in them needs JSON escaping.
                write!(
                    out,
                    "\n{{\"name\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{},\"progress\":\"{}\"}}",
                    t.name,
                    t.worker,
                    s.start_ns,
                    s.end_ns,
                    progress_name(s.progress)
                )?;
            }
        }
        write!(out, "]}}")?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Progresses twice, stalls once, then finishes.
    struct Scripted {
        step: usize,
    }

    impl Tasklet for Scripted {
        fn call(&mut self) -> Progress {
            self.step += 1;
            match self.step {
                1 | 2 => Progress::MadeProgress,
                3 => Progress::NoProgress,
                _ => Progress::Done,
            }
        }
        fn name(&self) -> &str {
            "window-combine"
        }
        fn state(&self) -> &'static str {
            "scripted"
        }
        fn job(&self) -> u32 {
            7
        }
    }

    #[test]
    fn forwards_identity_and_classifies_progress() {
        let sink = StatsSink::default();
        let mut wrapped = wrap_group(vec![Box::new(Scripted { step: 0 })], 1, 3, &sink);
        let t = &mut wrapped[0];
        assert_eq!(t.name(), "window-combine");
        assert_eq!(t.state(), "scripted");
        assert_eq!(t.job(), 7);
        assert!(t.is_cooperative());
        let seen: Vec<Progress> = (0..4).map(|_| t.call()).collect();
        assert_eq!(
            seen,
            [
                Progress::MadeProgress,
                Progress::MadeProgress,
                Progress::NoProgress,
                Progress::Done
            ]
        );
        assert!(sink.lock().is_empty(), "stats are handed over on drop");
        drop(wrapped);
        let stats = sink.lock();
        let s = &stats[0];
        assert_eq!((s.calls, s.no_progress_calls), (4, 1));
        assert_eq!(s.layer, Layer::WindowCombine);
        assert_eq!(s.worker, 3);
        assert_eq!(s.call_ns.count(), 4);
        assert_eq!(s.spans.len(), 1, "call 0 is the first sampled span");
        assert!(s.first_start_ns <= s.last_end_ns);
    }

    #[test]
    fn placement_mirrors_the_executor_round_robin() {
        let sink = StatsSink::default();
        let group: Vec<Box<dyn Tasklet>> = (0..5)
            .map(|_| Box::new(Scripted { step: 0 }) as _)
            .collect();
        drop(wrap_group(group, 2, 0, &sink));
        let workers: Vec<usize> = sink.lock().iter().map(|s| s.worker).collect();
        assert_eq!(workers, [0, 1, 0, 1, 0]);
    }

    #[test]
    fn busy_plus_overhead_accounts_for_the_whole_phase() {
        let sink = StatsSink::default();
        let start_ns = now_ns();
        let mut wrapped = wrap_group(
            vec![
                Box::new(Scripted { step: 0 }),
                Box::new(Scripted { step: 0 }),
            ],
            1,
            0,
            &sink,
        );
        for _ in 0..4 {
            for t in &mut wrapped {
                t.call();
            }
        }
        drop(wrapped);
        let end_ns = now_ns();
        let trace = PhaseTrace {
            tasklets: std::mem::take(&mut *sink.lock()),
            workers: 1,
            start_ns,
            end_ns,
        };
        assert_eq!(trace.calls(), 8);
        assert_eq!(trace.no_progress_calls(), 2);
        assert_eq!(
            trace.busy_ns_total() + trace.overhead_ns(),
            trace.wall_ns(),
            "every nanosecond of the phase is in exactly one bucket"
        );
        assert_eq!(trace.call_histogram(Some(Layer::WindowCombine)).count(), 8);
        assert_eq!(trace.call_histogram(Some(Layer::Sink)).count(), 0);
    }

    #[test]
    #[should_panic(expected = "belongs to no benchmarked layer")]
    fn unknown_tasklet_names_are_rejected() {
        Layer::of("mystery");
    }
}
