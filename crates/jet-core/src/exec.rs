//! Executors: cooperative worker threads (the paper's design, §3.2) plus a
//! deterministic sequential driver used by tests, plus the
//! thread-per-operator baseline executor used by the ablation benches.
//!
//! "Jet deploys as many JVM threads as there are CPU cores. [...] On each
//! thread, Jet runs a loop that executes its tasklets in a round-robin
//! fashion."
//!
//! # The scheduling contract
//!
//! Every executor — the workers here and the simulator's virtual cores —
//! polls its tasklets through [`Schedule`], so the contract is stated once:
//!
//! * **Order.** Weighted round-robin over job groups
//!   ([`Tasklet::job`], [`JobQuotas`]): each
//!   cycle gives every job `weight` turns, interleaved, and a turn polls the
//!   job's next tasklet in placement order. **No quotas** means all tasklets
//!   are one group of weight 1 and job ids are ignored: plain tasklet
//!   round-robin in placement order.
//! * **Round.** [`Schedule::round_len`] consecutive polls, enough to poll
//!   every live tasklet at least once (exactly once without quotas). A
//!   tasklet returning `Done` leaves the schedule on the spot and its
//!   successor is polled next.
//! * **Idling.** A round in which no tasklet progressed means nothing can
//!   run. A worker thread then engages the progressive backoff idle
//!   strategy, so idle jobs cost (almost) nothing — the property
//!   multi-tenancy (§7.7) relies on; a virtual core gives up the rest of its
//!   quantum. Only the clock differs between the two. Every thread that runs
//!   `worker_loop` first sets its own timer slack to the minimum
//!   ([`jet_util::idle::precise_parks`]), so a park ends when it asked to
//!   and not up to 50 µs later; the ladder's 15 µs first park is sized for
//!   that.

use crate::fairness::{JobQuotas, Round, Schedule};
use crate::log::RateLimitedLog;
use crate::metrics::{tags, MetricsRegistry, SharedCounter, SharedHistogram, TaskletCounters};
use crate::tasklet::Tasklet;
use crate::trace::{TraceKind, TraceWriter, Tracer};
use jet_util::idle::BackoffIdle;
use jet_util::progress::Progress;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Process-wide epoch for threaded-executor trace timestamps, so spans from
/// different worker threads land on one consistent timeline.
fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Default wall-clock budget for one cooperative `call()`. Jet's contract
/// (§3.2) is that cooperative tasklets return in microseconds; a call this
/// long means something inside is blocking or looping and the worker's other
/// tasklets are being starved.
pub const DEFAULT_HOG_BUDGET: Duration = Duration::from_millis(10);

/// Default minimum spacing between two emitted hog warnings.
pub const DEFAULT_HOG_LOG_INTERVAL: Duration = Duration::from_secs(5);

/// Observability wiring for the threaded executor: where to register worker
/// metrics, the per-call budget, and the rate-limited warning channel.
#[derive(Clone)]
pub struct ExecObservability {
    pub registry: Arc<MetricsRegistry>,
    pub hog_budget: Duration,
    pub hog_log: Arc<RateLimitedLog>,
    /// Execution tracing handle; [`Tracer::disabled`] (the default) keeps
    /// every per-call trace probe to a single branch.
    pub tracer: Tracer,
}

impl ExecObservability {
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        ExecObservability {
            registry,
            hog_budget: DEFAULT_HOG_BUDGET,
            hog_log: Arc::new(RateLimitedLog::new(DEFAULT_HOG_LOG_INTERVAL)),
            tracer: Tracer::disabled(),
        }
    }

    pub fn with_hog_budget(mut self, budget: Duration) -> Self {
        self.hog_budget = budget;
        self
    }

    pub fn with_hog_log(mut self, log: Arc<RateLimitedLog>) -> Self {
        self.hog_log = log;
        self
    }

    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Instruments for one worker thread: busy/idle round counters (the
    /// previously dead `TaskletCounters` fields), park count and measured
    /// parked time, a per-`call()` duration histogram, and a hog counter —
    /// all tagged `worker=<label>`.
    fn for_worker(&self, label: &str) -> WorkerObs {
        let counters = TaskletCounters::shared();
        let t = tags(&[("worker", label)]);
        let c = counters.clone();
        self.registry
            .counter_fn("jet_worker_busy_rounds_total", t.clone(), move || {
                c.busy_rounds.load(Ordering::Relaxed)
            });
        let c = counters.clone();
        self.registry
            .counter_fn("jet_worker_idle_rounds_total", t.clone(), move || {
                c.idle_rounds.load(Ordering::Relaxed)
            });
        let trace = self.tracer.writer(0, &format!("worker-{label}"));
        let idle_name = trace.intern("worker-idle");
        WorkerObs {
            counters,
            parks: self.registry.counter("jet_worker_parks_total", t.clone()),
            parked_nanos: self
                .registry
                .counter("jet_worker_parked_nanos_total", t.clone()),
            call_hist: self
                .registry
                .histogram("jet_worker_call_duration_nanos", t.clone()),
            hogs: self.registry.counter("jet_tasklet_hog_total", t),
            hog_budget_nanos: self.hog_budget.as_nanos() as u64,
            hog_log: self.hog_log.clone(),
            label: label.to_string(),
            trace,
            idle_name,
        }
    }
}

/// Per-worker observability state threaded into `worker_loop`.
struct WorkerObs {
    counters: Arc<TaskletCounters>,
    parks: SharedCounter,
    parked_nanos: SharedCounter,
    call_hist: SharedHistogram,
    hogs: SharedCounter,
    hog_budget_nanos: u64,
    hog_log: Arc<RateLimitedLog>,
    label: String,
    trace: TraceWriter,
    idle_name: u32,
}

/// Handle to a running threaded execution.
pub struct ExecutionHandle {
    cancelled: Arc<AtomicBool>,
    live_tasklets: Arc<AtomicUsize>,
    joins: Vec<JoinHandle<()>>,
}

impl ExecutionHandle {
    /// Request cooperative cancellation: sources stop, the pipeline drains.
    pub fn cancel(&self) {
        // ordering: SeqCst — cancellation is a rare control action; a total
        // order with the live-tasklet countdown keeps shutdown reasoning
        // simple and costs nothing off the hot path.
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Number of tasklets that have not finished yet.
    pub fn live_tasklets(&self) -> usize {
        // ordering: SeqCst — pairs with the worker's fetch_sub so a zero
        // here means every tasklet's effects are visible.
        self.live_tasklets.load(Ordering::SeqCst)
    }

    pub fn is_finished(&self) -> bool {
        self.live_tasklets() == 0
    }

    /// Block until all workers exit (all tasklets `Done`).
    pub fn join(self) {
        for j in self.joins {
            let _ = j.join();
        }
    }

    /// Cancel and wait for completion.
    pub fn cancel_and_join(self) {
        self.cancel();
        self.join();
    }
}

/// One observed tasklet call: per-call wall-clock histogram, trace span on
/// progress, and the rate-limited hog warning when a cooperative call
/// overruns its budget.
// jet-analyze: allow(panic, instant) — self-profiling timestamps; the hog-warning text is built inside the rate-limited log closure
fn observed_call(
    t: &mut dyn Tasklet,
    trace_name: u32,
    o: &mut WorkerObs,
    epoch: Instant,
) -> Progress {
    let start = Instant::now();
    let result = t.call();
    let nanos = start.elapsed().as_nanos() as u64;
    o.call_hist.record(nanos.max(1));
    if o.trace.enabled() && !matches!(result, Progress::NoProgress) {
        let end_ns = epoch.elapsed().as_nanos() as u64;
        o.trace
            .record_call(end_ns.saturating_sub(nanos), nanos, trace_name);
    }
    if nanos > o.hog_budget_nanos && t.is_cooperative() {
        o.hogs.add(1);
        o.hog_log.warn(|| {
            format!(
                "cooperative tasklet '{}' hogged worker {} for {:.3} ms \
                 (budget {:.3} ms); cooperative call()s must not block",
                t.name(),
                o.label,
                nanos as f64 / 1e6,
                o.hog_budget_nanos as f64 / 1e6,
            )
        });
    }
    result
}

/// One worker's loop (§3.2): poll the tasklets round after round in
/// [`Schedule`] order until all are done, backing off after every round in
/// which none progressed. With `obs`, rounds are counted busy or idle, every
/// `call()` is timed, and every park is timed, counted and traced with the
/// time it really took.
// jet-analyze: allow(instant) — with `obs` only, one clock read before and one after each park (≥ 15 µs)
fn worker_loop(
    tasklets: Vec<Box<dyn Tasklet>>,
    live_tasklets: &AtomicUsize,
    quotas: Option<JobQuotas>,
    mut obs: Option<WorkerObs>,
) {
    jet_util::idle::precise_parks();
    // Tasklet names are interned once here (cold); the hot loop only ever
    // touches the u32 ids.
    let mut schedule = Schedule::new(quotas);
    for t in tasklets {
        let trace_name = obs.as_ref().map_or(0, |o| o.trace.intern(t.name()));
        let job = t.job();
        schedule.push((t, trace_name), job);
    }
    let epoch = trace_epoch();
    let idle = BackoffIdle::jet_default();
    let mut idle_rounds = 0u64;
    while !schedule.is_empty() {
        let round = schedule.run_round(|(t, trace_name)| {
            let result = match &mut obs {
                Some(o) => observed_call(t.as_mut(), *trace_name, o, epoch),
                None => t.call(),
            };
            if result == Progress::Done {
                // ordering: SeqCst — pairs with `live_tasklets`: the
                // decrement must totally order after this tasklet's
                // final effects. Runs once per tasklet lifetime.
                live_tasklets.fetch_sub(1, Ordering::SeqCst);
            }
            ControlFlow::Continue(result)
        });
        if round == Round::Fruitless {
            idle_rounds += 1;
            match &mut obs {
                None => idle.idle(idle_rounds),
                Some(o) if idle.park_duration(idle_rounds).is_some() => {
                    o.counters.add_idle(1);
                    let start = Instant::now();
                    idle.idle(idle_rounds);
                    let nanos = start.elapsed().as_nanos() as u64;
                    o.parks.add(1);
                    o.parked_nanos.add(nanos);
                    if o.trace.enabled() {
                        o.trace.record(
                            TraceKind::IdlePark,
                            start.duration_since(epoch).as_nanos() as u64,
                            nanos,
                            o.idle_name,
                            idle_rounds as i64,
                        );
                    }
                }
                Some(o) => {
                    o.counters.add_idle(1);
                    idle.idle(idle_rounds);
                }
            }
        } else {
            idle_rounds = 0;
            if let Some(o) = &mut obs {
                o.counters.add_busy(1);
            }
        }
    }
}

/// Spawn `threads` cooperative workers sharing the cooperative tasklets
/// round-robin, plus one dedicated thread per non-cooperative tasklet
/// (§3.1: "Jet must start dedicated threads" for blocking connectors).
pub fn spawn_threaded(
    tasklets: Vec<Box<dyn Tasklet>>,
    threads: usize,
    cancelled: Arc<AtomicBool>,
) -> ExecutionHandle {
    spawn_threaded_with(tasklets, threads, cancelled, None, None)
}

/// [`spawn_threaded`] with the executor's two optional settings.
///
/// `obs` turns on scheduler self-profiling: every worker registers
/// busy/idle round counters and a per-`call()` duration histogram in
/// `obs.registry`, and cooperative calls overrunning `obs.hog_budget` emit a
/// rate-limited hog warning through `obs.hog_log`. Dedicated threads for
/// non-cooperative tasklets are profiled too (tagged `worker=dedicated-N`)
/// but never hog-warned — blocking is what they are for.
///
/// `quotas` are per-job fairness quotas (§7.7): each cooperative worker
/// polls weighted round-robin over job groups ([`Tasklet::job`]) instead of
/// tasklet round-robin, so a latency-critical tenant's share of every
/// worker is set by its weight, not by how many tasklets its neighbours
/// deploy. They mean nothing on a dedicated thread.
pub fn spawn_threaded_with(
    tasklets: Vec<Box<dyn Tasklet>>,
    threads: usize,
    cancelled: Arc<AtomicBool>,
    obs: Option<&ExecObservability>,
    quotas: Option<&JobQuotas>,
) -> ExecutionHandle {
    let threads = threads.max(1);
    let live_tasklets = Arc::new(AtomicUsize::new(tasklets.len()));
    let mut coop: Vec<Vec<Box<dyn Tasklet>>> = (0..threads).map(|_| Vec::new()).collect();
    let mut joins = Vec::new();
    let mut next = 0usize;
    let mut dedicated = 0usize;
    for t in tasklets {
        if t.is_cooperative() {
            coop[next % threads].push(t);
            next += 1;
        } else {
            let live_tasklets = live_tasklets.clone();
            let wo = obs.map(|o| o.for_worker(&format!("dedicated-{dedicated}")));
            dedicated += 1;
            joins.push(std::thread::spawn(move || {
                worker_loop(vec![t], &live_tasklets, None, wo)
            }));
        }
    }
    for (i, worker_tasklets) in coop.into_iter().enumerate() {
        if worker_tasklets.is_empty() {
            continue;
        }
        let live_tasklets = live_tasklets.clone();
        let wo = obs.map(|o| o.for_worker(&i.to_string()));
        let quotas = quotas.cloned();
        joins.push(std::thread::spawn(move || {
            worker_loop(worker_tasklets, &live_tasklets, quotas, wo)
        }));
    }
    ExecutionHandle {
        cancelled,
        live_tasklets,
        joins,
    }
}

/// Deterministic single-threaded driver: up to `max_rounds` rounds of the
/// same [`Schedule`] the workers poll, with no idling between them. Returns
/// `true` when everything completed; unfinished tasklets stay in `tasklets`.
pub fn run_sequential(tasklets: &mut Vec<Box<dyn Tasklet>>, max_rounds: usize) -> bool {
    let mut schedule = Schedule::new(None);
    for t in tasklets.drain(..) {
        schedule.push(t, 0);
    }
    for _ in 0..max_rounds {
        if schedule.is_empty() {
            break;
        }
        schedule.run_round(|t| ControlFlow::Continue(t.call()));
    }
    *tasklets = schedule.into_tasklets();
    tasklets.is_empty()
}

/// The **thread-per-operator baseline** (ablation A1): every tasklet gets its
/// own OS thread regardless of cooperativeness — the "typical
/// operator-per-core model" the paper contrasts Jet's tasklets with (§3.1).
/// With hundreds of operators this drowns in context switches, which is the
/// behaviour the ablation bench demonstrates.
pub fn spawn_thread_per_operator(
    tasklets: Vec<Box<dyn Tasklet>>,
    cancelled: Arc<AtomicBool>,
) -> ExecutionHandle {
    let live_tasklets = Arc::new(AtomicUsize::new(tasklets.len()));
    let joins: Vec<JoinHandle<()>> = tasklets
        .into_iter()
        .map(|t| {
            let live_tasklets = live_tasklets.clone();
            std::thread::spawn(move || worker_loop(vec![t], &live_tasklets, None, None))
        })
        .collect();
    ExecutionHandle {
        cancelled,
        live_tasklets,
        joins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{Recorder, RecorderConfig};
    use crate::trace::CALL_SAMPLE_SHIFT;

    struct CountDown {
        n: usize,
        name: String,
    }

    impl Tasklet for CountDown {
        fn call(&mut self) -> Progress {
            if self.n == 0 {
                return Progress::Done;
            }
            self.n -= 1;
            Progress::MadeProgress
        }
        fn name(&self) -> &str {
            &self.name
        }
    }

    fn countdown(n: usize) -> Box<dyn Tasklet> {
        Box::new(CountDown {
            n,
            name: format!("cd{n}"),
        })
    }

    #[test]
    fn sequential_runs_to_completion() {
        let mut ts = vec![countdown(3), countdown(7), countdown(1)];
        assert!(run_sequential(&mut ts, 100));
        assert!(ts.is_empty());
    }

    #[test]
    fn sequential_respects_round_budget() {
        let mut ts = vec![countdown(1000)];
        assert!(!run_sequential(&mut ts, 10));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn threaded_executor_drains_all_tasklets() {
        let tasklets: Vec<Box<dyn Tasklet>> = (0..20).map(|i| countdown(i * 3 + 1)).collect();
        let h = spawn_threaded(tasklets, 4, Arc::new(AtomicBool::new(false)));
        h.join();
    }

    #[test]
    fn thread_per_operator_also_completes() {
        let tasklets: Vec<Box<dyn Tasklet>> = (0..8).map(|_| countdown(5)).collect();
        let h = spawn_thread_per_operator(tasklets, Arc::new(AtomicBool::new(false)));
        h.join();
    }

    #[test]
    fn live_count_reaches_zero() {
        let h = spawn_threaded(vec![countdown(2)], 1, Arc::new(AtomicBool::new(false)));
        // joining implies finished
        h.join();
    }

    struct NonCoop;
    impl Tasklet for NonCoop {
        fn call(&mut self) -> Progress {
            Progress::Done
        }
        fn name(&self) -> &str {
            "noncoop"
        }
        fn is_cooperative(&self) -> bool {
            false
        }
    }

    #[test]
    fn non_cooperative_tasklets_get_their_own_thread() {
        let ts: Vec<Box<dyn Tasklet>> = vec![Box::new(NonCoop), countdown(3)];
        let h = spawn_threaded(ts, 1, Arc::new(AtomicBool::new(false)));
        h.join();
    }

    /// Progresses `busy` times, stalls for `stall` rounds, then finishes —
    /// exercises both branches of the round accounting.
    struct BusyThenStall {
        busy: usize,
        stall: usize,
    }

    impl Tasklet for BusyThenStall {
        fn call(&mut self) -> Progress {
            if self.busy > 0 {
                self.busy -= 1;
                Progress::MadeProgress
            } else if self.stall > 0 {
                self.stall -= 1;
                Progress::NoProgress
            } else {
                Progress::Done
            }
        }
        fn name(&self) -> &str {
            "busy-then-stall"
        }
    }

    #[test]
    fn observed_worker_wires_busy_and_idle_round_counters() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = ExecObservability::new(registry.clone());
        let ts: Vec<Box<dyn Tasklet>> = vec![Box::new(BusyThenStall {
            busy: 10,
            stall: 20,
        })];
        spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), Some(&obs), None).join();
        let snap = registry.snapshot();
        // 10 progressing rounds + the final Done round.
        assert_eq!(
            snap.counter_total("jet_worker_busy_rounds_total", &[("worker", "0")]),
            11
        );
        assert_eq!(
            snap.counter_total("jet_worker_idle_rounds_total", &[("worker", "0")]),
            20
        );
        // Idle rounds 16..=20 park: 15 spins and yields come first.
        let parks = snap.counter_total("jet_worker_parks_total", &[("worker", "0")]);
        assert_eq!(parks, 5);
        // A park sleeps at least what it asked, and every ask is ≥ 15 µs.
        let parked = snap.counter_total("jet_worker_parked_nanos_total", &[("worker", "0")]);
        assert!(parked >= parks * 15_000, "{parks} parks took {parked} ns");
        // Every call() landed in the duration histogram.
        let m = snap
            .find("jet_worker_call_duration_nanos", &[("worker", "0")])
            .unwrap();
        match &m.value {
            crate::metrics::MetricValue::Histogram(h) => assert_eq!(h.count, 31),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    struct SlowTasklet {
        calls: usize,
    }

    impl Tasklet for SlowTasklet {
        fn call(&mut self) -> Progress {
            if self.calls == 0 {
                return Progress::Done;
            }
            self.calls -= 1;
            std::thread::sleep(Duration::from_millis(2));
            Progress::MadeProgress
        }
        fn name(&self) -> &str {
            "deliberately-slow"
        }
    }

    #[test]
    fn hog_warning_fires_exactly_once_under_rate_limiting() {
        let registry = Arc::new(MetricsRegistry::new());
        let warnings = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
        let sink = warnings.clone();
        let hog_log = Arc::new(RateLimitedLog::new(Duration::from_secs(3600)));
        hog_log.set_sink(move |m| sink.lock().push(m.to_string()));
        let obs = ExecObservability::new(registry.clone())
            .with_hog_budget(Duration::from_micros(100))
            .with_hog_log(hog_log.clone());
        let ts: Vec<Box<dyn Tasklet>> = vec![Box::new(SlowTasklet { calls: 6 })];
        spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), Some(&obs), None).join();
        // All six slow calls overran the budget...
        assert_eq!(
            registry
                .snapshot()
                .counter_total("jet_tasklet_hog_total", &[]),
            6
        );
        // ...but rate limiting let exactly one warning through.
        assert_eq!(hog_log.emitted(), 1);
        assert_eq!(hog_log.suppressed(), 5);
        let seen = warnings.lock();
        assert_eq!(seen.len(), 1);
        assert!(
            seen[0].contains("deliberately-slow") && seen[0].contains("hogged worker"),
            "unexpected warning text: {}",
            seen[0]
        );
    }

    #[test]
    fn non_cooperative_tasklets_never_hog_warn() {
        struct SlowNonCoop {
            calls: usize,
        }
        impl Tasklet for SlowNonCoop {
            fn call(&mut self) -> Progress {
                if self.calls == 0 {
                    return Progress::Done;
                }
                self.calls -= 1;
                std::thread::sleep(Duration::from_millis(2));
                Progress::MadeProgress
            }
            fn name(&self) -> &str {
                "blocking-connector"
            }
            fn is_cooperative(&self) -> bool {
                false
            }
        }
        let registry = Arc::new(MetricsRegistry::new());
        let obs =
            ExecObservability::new(registry.clone()).with_hog_budget(Duration::from_micros(100));
        obs.hog_log.set_sink(|_| {});
        let ts: Vec<Box<dyn Tasklet>> = vec![Box::new(SlowNonCoop { calls: 3 })];
        spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), Some(&obs), None).join();
        assert_eq!(obs.hog_log.emitted(), 0);
        assert_eq!(
            registry
                .snapshot()
                .counter_total("jet_tasklet_hog_total", &[]),
            0
        );
        // The dedicated worker is still profiled.
        assert!(
            registry
                .snapshot()
                .counter_total("jet_worker_busy_rounds_total", &[("worker", "dedicated-0")])
                > 0
        );
    }

    /// Tagged tenant tasklet: logs its job id per call, progresses `left`
    /// times, then finishes.
    struct Tagged {
        job: u32,
        left: usize,
        log: Arc<parking_lot::Mutex<Vec<u32>>>,
    }

    impl Tasklet for Tagged {
        fn call(&mut self) -> Progress {
            self.log.lock().push(self.job);
            if self.left == 0 {
                return Progress::Done;
            }
            self.left -= 1;
            Progress::MadeProgress
        }
        fn name(&self) -> &str {
            "tagged"
        }
        fn job(&self) -> u32 {
            self.job
        }
    }

    #[test]
    fn fair_worker_interleaves_jobs_by_weight() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ts: Vec<Box<dyn Tasklet>> = vec![
            Box::new(Tagged {
                job: 1,
                left: 30,
                log: log.clone(),
            }),
            Box::new(Tagged {
                job: 2,
                left: 10,
                log: log.clone(),
            }),
        ];
        let quotas = JobQuotas::new().with_weight(1, 3);
        let h = spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), None, Some(&quotas));
        h.join();
        let seen = log.lock();
        // One cycle while both jobs live: [job1, job2, job1, job1].
        assert_eq!(&seen[..8], &[1, 2, 1, 1, 1, 2, 1, 1]);
    }

    #[test]
    fn fair_worker_protects_one_tenant_from_a_hundred_neighbours() {
        // Job 1 (weight 100, one tasklet) vs 100 single-tasklet jobs at
        // weight 1: flat round-robin would give job 1 less than 1% of the
        // polls; the quota holds it at half.
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut ts: Vec<Box<dyn Tasklet>> = vec![Box::new(Tagged {
            job: 1,
            left: 1_000,
            log: log.clone(),
        })];
        for j in 2..=101 {
            ts.push(Box::new(Tagged {
                job: j,
                left: 1_000,
                log: log.clone(),
            }));
        }
        let quotas = JobQuotas::new().with_weight(1, 100);
        let h = spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), None, Some(&quotas));
        h.join();
        let seen = log.lock();
        // While all jobs live, a cycle is 100 job-1 turns + 100 neighbour
        // turns: job 1 holds exactly half of the first two cycles.
        let head = &seen[..400];
        let job1 = head.iter().filter(|&&j| j == 1).count();
        assert_eq!(job1, 200);
    }

    #[test]
    fn fair_worker_drains_everything_with_observability() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = ExecObservability::new(registry.clone());
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let ts: Vec<Box<dyn Tasklet>> = (0..12)
            .map(|i| {
                Box::new(Tagged {
                    job: i % 3,
                    left: 5 + i as usize,
                    log: log.clone(),
                }) as Box<dyn Tasklet>
            })
            .collect();
        let quotas = JobQuotas::new().with_weight(2, 4);
        let h = spawn_threaded_with(
            ts,
            2,
            Arc::new(AtomicBool::new(false)),
            Some(&obs),
            Some(&quotas),
        );
        h.join();
        assert!(
            registry
                .snapshot()
                .counter_total("jet_worker_busy_rounds_total", &[])
                > 0
        );
    }

    #[test]
    fn traced_worker_records_call_spans_with_tasklet_names() {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        });
        let obs = ExecObservability::new(registry).with_tracer(recorder.tracer());
        let ts: Vec<Box<dyn Tasklet>> = vec![countdown(79), countdown(47)];
        spawn_threaded_with(ts, 1, Arc::new(AtomicBool::new(false)), Some(&obs), None).join();
        recorder.drain_spans();
        let data = recorder.trace().expect("span ring armed");
        let calls: Vec<_> = data.of_kind(TraceKind::Call).collect();
        // (79+1 done) + (47+1 done) progressing calls, one in 16 sampled.
        assert_eq!(calls.len(), 128 >> CALL_SAMPLE_SHIFT);
        let names: std::collections::HashSet<&str> =
            calls.iter().map(|e| data.name(e.rec.name)).collect();
        assert!(
            names.contains("cd79") && names.contains("cd47"),
            "{names:?}"
        );
        assert_eq!(data.tracks.len(), 1);
        assert!(data.tracks[0].label.starts_with("worker-"));
        assert_eq!(recorder.stats().ring_dropped, 0);
    }
}
