//! # jet-bench — the reproduction harness
//!
//! One binary per paper figure/table (see DESIGN.md §4 for the full index)
//! plus criterion micro-benches. This library holds the shared runner: build
//! a NEXMark query as a pipeline, execute it on the virtual-time cluster
//! simulator with the paper's measurement methodology (§7.1 — the latency
//! clock starts at each event's predetermined occurrence time; measurement
//! begins after warm-up), and report the percentile series the paper plots.
//!
//! Scale-down vs the paper (documented per experiment in EXPERIMENTS.md):
//! virtual cores per member, input rates, and measurement durations are
//! reduced so each figure reproduces in minutes on one physical CPU; the
//! *shapes* (who wins, where knees fall) are the reproduction target, not
//! absolute numbers.

use jet_cluster::{
    ClusterEvent, ControllerConfig, ControllerEvent, CoordinatorConfig, SimCluster,
    SimClusterConfig,
};
use jet_core::flight::{
    band_waterfalls, AttributionConfig, AttributionReport, FlightConfig, FlightRecorder,
    LatencyWatchdog, ProvenanceSampler, SpikeFidelity, SpikeReport, WatchdogConfig,
};
use jet_core::metrics::{
    json_escape, HistogramSummary, MetricsSnapshot, SharedCounter, SharedHistogram,
};
use jet_core::processor::Guarantee;
use jet_core::processors::WatermarkPolicy;
use jet_core::telemetry::{Timeline, TimelineConfig};
use jet_core::trace::{TraceData, Tracer};
use jet_core::{JobQuotas, Ts};
use jet_nexmark::{queries, NexmarkConfig};
use jet_pipeline::{Pipeline, WindowDef};
use jet_util::Histogram;
use std::fmt::Write as _;
use std::path::PathBuf;

pub const SEC: u64 = 1_000_000_000;
pub const MS: u64 = 1_000_000;

/// Traced runs capture the final stretch of the measurement window
/// (virtual nanos) rather than all of it — see [`run`].
pub const TRACE_TAIL_WINDOW: u64 = 250 * MS;

/// Which NEXMark query to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
    Q5SingleStage,
    Q6,
    Q7,
    Q8,
    Q13,
}

impl Query {
    pub fn name(&self) -> &'static str {
        match self {
            Query::Q1 => "Q1",
            Query::Q2 => "Q2",
            Query::Q3 => "Q3",
            Query::Q4 => "Q4",
            Query::Q5 => "Q5",
            Query::Q5SingleStage => "Q5-single",
            Query::Q6 => "Q6",
            Query::Q7 => "Q7",
            Query::Q8 => "Q8",
            Query::Q13 => "Q13",
        }
    }
}

/// One experiment run description.
#[derive(Clone)]
pub struct RunSpec {
    pub query: Query,
    pub members: usize,
    pub cores_per_member: usize,
    /// Total input rate, events/second (all members together).
    pub total_rate: u64,
    /// Window definition for windowed queries.
    pub window: WindowDef,
    /// Virtual time to run before measurement starts (windows must fill).
    pub warmup: u64,
    /// Virtual measurement duration.
    pub measure: u64,
    pub guarantee: Guarantee,
    /// 0 disables snapshots.
    pub snapshot_interval: u64,
    pub nexmark: NexmarkConfig,
    pub gc: Option<jet_sim::GcModel>,
    pub cost_model: jet_sim::CostModel,
    pub fixed_receive_window: Option<u64>,
    pub partition_count: u32,
    /// Deterministic fault schedule injected on the virtual timeline.
    pub fault_plan: Option<jet_sim::FaultPlan>,
    /// Heartbeat failure detector + self-healing recovery; required for a
    /// `fault_plan` crash to be detected rather than fatal.
    pub coordinator: Option<CoordinatorConfig>,
    /// Capture an execution trace of the measurement period (Chrome
    /// trace-event spans + diagnostics dump in the [`RunResult`]).
    pub trace: bool,
    /// Arm the tail-latency watchdog + flight recorder: spikes detected
    /// online on the virtual timeline freeze their span window and are
    /// root-cause attributed in [`RunResult::spike`]. Implies span
    /// collection (the tracer runs even when `trace` is false), but is
    /// invisible on the virtual timeline — percentiles are bit-identical
    /// with the watchdog on or off.
    pub spike: Option<WatchdogConfig>,
    /// Arm full-distribution latency attribution: the latency sink stamps
    /// sampled per-event provenance and the flight recorder's span ring
    /// runs (no watchdog required), so [`RunResult::attribution`] carries a
    /// per-percentile-band latency waterfall. Invisible on the virtual
    /// timeline — percentiles are bit-identical on or off.
    pub attribution: bool,
    /// Sample the job-wide metrics snapshot into delta-encoded rings at a
    /// fixed cadence ([`RunResult::timeline`], exported by
    /// [`write_timeline`]). Invisible on the virtual timeline.
    pub timeline: Option<TimelineConfig>,
    /// Arm the elastic autoscaling controller: the cluster watches windowed
    /// occupancy/stall telemetry on the controller's cadence and live
    /// rescales itself mid-run. Decisions land in
    /// [`RunResult::controller_events`] and the `"controller"` section of
    /// `BENCH_*.json`.
    pub controller: Option<ControllerConfig>,
    /// Per-job weighted round-robin scheduling quotas (multi-tenant
    /// fairness, §7.7). Vertices opt in by `job<N>-` name prefix.
    pub quotas: Option<JobQuotas>,
}

impl RunSpec {
    pub fn new(query: Query, total_rate: u64) -> RunSpec {
        RunSpec {
            query,
            members: 1,
            cores_per_member: 4,
            total_rate,
            window: WindowDef::sliding(SEC as Ts, (10 * MS) as Ts),
            warmup: 2 * SEC,
            measure: 3 * SEC,
            guarantee: Guarantee::None,
            snapshot_interval: 0,
            nexmark: NexmarkConfig::default(),
            gc: None,
            cost_model: jet_sim::CostModel::paper_calibrated(),
            fixed_receive_window: None,
            partition_count: jet_imdg::DEFAULT_PARTITION_COUNT,
            fault_plan: None,
            coordinator: None,
            trace: false,
            spike: None,
            attribution: false,
            timeline: None,
            controller: None,
            quotas: None,
        }
    }
}

/// Result of one run.
pub struct RunResult {
    /// Latency histogram over the measurement period (nanos).
    pub hist: Histogram,
    /// Output events observed in the measurement period.
    pub outputs: u64,
    /// Input events generated in the measurement period (approximate:
    /// rate × duration).
    pub inputs: u64,
    /// Virtual seconds simulated.
    pub virtual_secs: f64,
    /// Job-wide metrics snapshot taken at the end of the measurement
    /// period (all members merged).
    pub metrics: MetricsSnapshot,
    /// Execution trace of the measurement period ([`RunSpec::trace`]).
    pub trace: Option<TraceData>,
    /// Diagnostics dump rendered at the end of the run (always available
    /// when traced; trace sections fall back to `n/a` otherwise).
    pub diagnostics: Option<String>,
    /// Detector/recovery event log (empty unless a coordinator ran).
    pub cluster_events: Vec<ClusterEvent>,
    /// Spike forensics ([`RunSpec::spike`]): every detected excursion with
    /// its frozen window and critical-path attribution. `bench`/`run` are
    /// stamped by [`write_spike_report`].
    pub spike: Option<SpikeReport>,
    /// Full-distribution latency waterfall ([`RunSpec::attribution`]):
    /// p50/p99/p99.99 exemplar journeys decomposed into exact-sum cause
    /// slices; embedded in `BENCH_*.json` by [`BenchReport::add_run`].
    pub attribution: Option<AttributionReport>,
    /// The run's metrics timeline ([`RunSpec::timeline`]); export it with
    /// [`write_timeline`].
    pub timeline: Option<Timeline>,
    /// Autoscaling decision timeline ([`RunSpec::controller`]): `Some`
    /// (possibly empty) when a controller was armed; embedded in
    /// `BENCH_*.json` by [`BenchReport::add_run`].
    pub controller_events: Option<Vec<ControllerEvent>>,
    /// Cluster size when the run ended (equals the starting size unless the
    /// controller rescaled).
    pub members_final: usize,
}

impl RunResult {
    pub fn p(&self, pct: f64) -> f64 {
        self.hist.percentile(pct) as f64 / 1e6
    }
}

/// Build the query pipeline with a latency sink attached.
pub fn build_query(spec: &RunSpec, hist: &SharedHistogram, count: &SharedCounter) -> Pipeline {
    build_query_watched(spec, hist, count, LatencyWatchdog::disabled())
}

/// As [`build_query`], but the latency sink also feeds each sample to the
/// spike watchdog.
pub fn build_query_watched(
    spec: &RunSpec,
    hist: &SharedHistogram,
    count: &SharedCounter,
    watchdog: LatencyWatchdog,
) -> Pipeline {
    build_query_instrumented(spec, hist, count, watchdog, ProvenanceSampler::disabled())
}

/// As [`build_query_watched`], but the latency sink also stamps sampled
/// per-event provenance for full-distribution attribution.
pub fn build_query_instrumented(
    spec: &RunSpec,
    hist: &SharedHistogram,
    count: &SharedCounter,
    watchdog: LatencyWatchdog,
    sampler: ProvenanceSampler,
) -> Pipeline {
    let p = Pipeline::create();
    let src = queries::source(
        &p,
        &spec.nexmark,
        spec.total_rate,
        None,
        WatermarkPolicy::default(),
    );
    let h = hist.clone();
    let c = count.clone();
    let w = watchdog;
    let s = sampler;
    match spec.query {
        Query::Q1 => {
            queries::q1(&src).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q2 => {
            queries::q2(&src).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q3 => {
            queries::q3(&src).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q4 => {
            queries::q4(&src, spec.window.size).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q5 => {
            queries::q5(&src, spec.window).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q5SingleStage => {
            queries::q5_single_stage(&src, spec.window).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q6 => {
            queries::q6(&src, spec.window.size).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q7 => {
            queries::q7(&src, spec.window.size).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q8 => {
            queries::q8(&src, spec.window.size).write_to_latency_instrumented(h, c, w, s);
        }
        Query::Q13 => {
            let side: Vec<(u64, String)> = (0..spec.nexmark.auctions)
                .map(|a| (a, format!("auction-{a}")))
                .collect();
            queries::q13(&p, &src, side).write_to_latency_instrumented(h, c, w, s);
        }
    }
    p
}

/// Execute one run: warm up, clear the histogram, measure.
pub fn run(spec: &RunSpec) -> RunResult {
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    // Watchdog/flight-recorder observers live off the virtual timeline
    // (they never advance the clock), so arming them cannot move a single
    // percentile — the histogram is bit-identical with `spike` on or off.
    let watchdog = match &spec.spike {
        Some(wd) => LatencyWatchdog::with_config(wd.clone()),
        None => LatencyWatchdog::disabled(),
    };
    // Full-distribution attribution needs the span ring but not the
    // watchdog: a recorder with a disabled watchdog freezes no incident
    // windows and just keeps the rolling ring for `attribute_window`.
    let flight = if spec.spike.is_some() || spec.attribution {
        FlightRecorder::with_config(FlightConfig::default(), watchdog.clone())
    } else {
        FlightRecorder::disabled()
    };
    let sampler = if spec.attribution {
        ProvenanceSampler::enabled()
    } else {
        ProvenanceSampler::disabled()
    };
    let timeline = match &spec.timeline {
        Some(tc) => Timeline::with_config(tc.clone()),
        None => Timeline::disabled(),
    };
    let pipeline = build_query_instrumented(spec, &hist, &count, watchdog.clone(), sampler.clone());
    let dag = pipeline
        .compile(spec.cores_per_member)
        .expect("pipeline compiles");
    // Spike forensics needs the span stream even when no trace is kept.
    let collect_spans = spec.trace || flight.is_enabled();
    let tracer = if collect_spans {
        // Small rings (drained every ~10 ms of virtual time below) keep the
        // footprint bounded even at fig9 scale: 20 members × dozens of
        // writers each. Calls are sampled 1-in-16: they outnumber every
        // other span kind ~10:1 and the slowest ones still surface.
        Tracer::with_config(8192, 4)
    } else {
        Tracer::disabled()
    };
    let cfg = SimClusterConfig {
        members: spec.members,
        cores_per_member: spec.cores_per_member,
        partition_count: spec.partition_count,
        backup_count: 1,
        guarantee: spec.guarantee,
        snapshot_interval: spec.snapshot_interval,
        cost_model: spec.cost_model.clone(),
        gc: spec.gc.clone(),
        fixed_receive_window: spec.fixed_receive_window,
        tracer: tracer.clone(),
        fault_plan: spec.fault_plan.clone(),
        coordinator: spec.coordinator.clone(),
        flight: flight.clone(),
        timeline: timeline.clone(),
        controller: spec.controller.clone(),
        quotas: spec.quotas.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).expect("cluster starts");
    cluster.run_for(spec.warmup);
    hist.clear();
    // The trace covers the measurement period only: throw away whatever the
    // warm-up left in the rings, and forget warm-up excursions (the adaptive
    // baseline the warm-up established is kept).
    if collect_spans {
        tracer.drain();
    }
    watchdog.clear_incidents();
    sampler.clear();
    let out_before = count.get();
    let trace = if collect_spans {
        // A full-fidelity trace of the whole measurement at fig9 scale is
        // ~15M spans; capture the *tail* of the window instead — a steady
        // -state zoom that fits the collector with near-zero drops. The
        // latency histogram still covers the full measurement period, and
        // the flight recorder ingests every drain, so spikes anywhere in the
        // measurement freeze their window.
        let tail = if spec.trace {
            spec.measure.min(TRACE_TAIL_WINDOW)
        } else {
            0
        };
        let head = spec.measure - tail;
        let mut scratch = TraceData::new();
        let mut data = TraceData::new();
        data.capacity = 2_000_000;
        if head > 0 {
            let mut next_drain = 0u64;
            cluster.run_for_with(head, |now| {
                if now >= next_drain {
                    tracer.drain_into(&mut scratch);
                    flight.ingest(&scratch, 0);
                    scratch.events.clear();
                    next_drain = now + 10 * MS;
                }
            });
            tracer.drain_into(&mut scratch); // reset ring drop counters
            flight.ingest(&scratch, 0);
            scratch.events.clear();
        }
        if tail > 0 {
            let mut next_drain = 0u64;
            cluster.run_for_with(tail, |now| {
                if now >= next_drain {
                    tracer.drain_into(&mut scratch);
                    flight.ingest(&scratch, 0);
                    data.absorb(&mut scratch);
                    next_drain = now + 10 * MS;
                }
            });
            tracer.drain_into(&mut scratch);
            flight.ingest(&scratch, 0);
            data.absorb(&mut scratch);
        }
        spec.trace.then_some(data)
    } else {
        cluster.run_for(spec.measure);
        None
    };
    let outputs = count.get() - out_before;
    let metrics = cluster.job_metrics();
    let diagnostics =
        (spec.trace || flight.is_enabled()).then(|| cluster.diagnostics_dump(trace.as_ref()));
    let cluster_events = cluster.cluster_events();
    let spike = spec.spike.is_some().then(|| {
        let incidents = cluster.spike_forensics();
        let (observed, suppressed) = watchdog.stats();
        let (_ingested, evicted, spans_retained, snapshots_retained) = flight.stats();
        SpikeReport {
            bench: String::new(),
            run_label: String::new(),
            threshold_nanos: watchdog.threshold(),
            fidelity: SpikeFidelity {
                trace_ring_dropped: tracer.dropped_total(),
                collector_dropped: trace.as_ref().map_or(0, |d| d.dropped),
                recorder_evicted: evicted,
                sample_shift: tracer.sample_shift(),
                spans_retained,
                snapshots_retained,
                observed,
                suppressed,
            },
            incidents,
        }
    });
    let final_hist = hist.snapshot();
    let attribution = spec.attribution.then(|| {
        // Decompose the measured distribution at the paper's three
        // headline bands. The network hint matches the cluster's one-way
        // latency (the SimClusterConfig default — `run` does not override
        // it).
        let bands = [
            ("p50", 50.0, final_hist.percentile(50.0)),
            ("p99", 99.0, final_hist.percentile(99.0)),
            ("p99.99", 99.99, final_hist.percentile(99.99)),
        ];
        band_waterfalls(&sampler, &flight, &AttributionConfig::default(), &bands)
    });
    let controller_events = spec
        .controller
        .is_some()
        .then(|| cluster.controller_events());
    let members_final = cluster.grid().members().len();
    cluster.cancel();
    RunResult {
        hist: final_hist,
        outputs,
        inputs: spec.total_rate * spec.measure / SEC,
        virtual_secs: spec.measure as f64 / 1e9,
        metrics,
        trace,
        diagnostics,
        cluster_events,
        spike,
        attribution,
        timeline: spec.timeline.is_some().then_some(timeline),
        controller_events,
        members_final,
    }
}

/// Write the captured trace as `results/TRACE_<name>.json` (Chrome
/// trace-event format — load it in Perfetto or `chrome://tracing`) and the
/// diagnostics dump as `results/TRACE_<name>.txt`. Returns the JSON path,
/// or `None` when the run was not traced.
pub fn write_trace(name: &str, r: &RunResult) -> std::io::Result<Option<PathBuf>> {
    let Some(trace) = &r.trace else {
        return Ok(None);
    };
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("TRACE_{name}.json"));
    std::fs::write(&path, trace.to_chrome_json())?;
    if let Some(dump) = &r.diagnostics {
        std::fs::write(dir.join(format!("TRACE_{name}.txt")), dump)?;
    }
    eprintln!(
        "  [trace written to {} — {} spans, {} dropped]",
        path.display(),
        trace.events.len(),
        trace.dropped
    );
    Ok(Some(path))
}

/// Write the spike forensics as `results/SPIKE_<name>.json` (schema
/// `jet-spike-v1`, validated by the `schema-check` xtask) and print a
/// one-line verdict per incident. Returns the path, or `None` when the run
/// had no watchdog armed.
pub fn write_spike_report(
    name: &str,
    label: &str,
    r: &RunResult,
) -> std::io::Result<Option<PathBuf>> {
    let Some(spike) = &r.spike else {
        return Ok(None);
    };
    let mut report = spike.clone();
    report.bench = name.to_string();
    report.run_label = label.to_string();
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("SPIKE_{name}.json"));
    std::fs::write(&path, report.to_json())?;
    eprintln!(
        "  [spike report written to {} — {} incidents]",
        path.display(),
        report.incidents.len()
    );
    for inc in &report.incidents {
        let a = &inc.attribution;
        eprintln!(
            "    incident #{}: peak {:.3}ms -> {} ({}){}",
            inc.incident.id,
            inc.incident.peak_latency as f64 / 1e6,
            a.top_cause.name(),
            a.top_group,
            match &a.blamed_vertex {
                Some(v) => format!(", vertex {v}"),
                None => String::new(),
            }
        );
    }
    Ok(Some(path))
}

/// Write the run's metrics timeline as `results/TIMELINE_<name>.json`
/// (schema `jet-timeline-v1`, validated by the `schema-check` xtask).
/// Returns the path, or `None` when the run had no timeline armed.
pub fn write_timeline(name: &str, label: &str, r: &RunResult) -> std::io::Result<Option<PathBuf>> {
    let Some(timeline) = &r.timeline else {
        return Ok(None);
    };
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("TIMELINE_{name}.json"));
    std::fs::write(&path, timeline.to_json(name, label))?;
    let (samples, series, _, evicted) = timeline.stats();
    eprintln!(
        "  [timeline written to {} — {} samples, {} series, {} ticks evicted]",
        path.display(),
        samples,
        series,
        evicted
    );
    Ok(Some(path))
}

/// One controller event as a JSON object (schema
/// `runs[].controller.events[]`, validated by the `schema-check` xtask):
/// always `at`/`kind`/`label`, plus the variant's numeric fields.
fn controller_event_json(e: &ControllerEvent) -> String {
    let mut s = format!(
        "{{\"at\": {}, \"kind\": \"{}\", \"label\": \"{}\"",
        e.at(),
        e.kind(),
        json_escape(&e.label())
    );
    match e {
        ControllerEvent::Decided {
            direction,
            occupancy,
            stall_rate,
            members,
            ..
        } => {
            let _ = write!(
                s,
                ", \"direction\": \"{}\", \"occupancy\": {occupancy}, \
                 \"stall_rate\": {stall_rate}, \"members\": {members}",
                direction.name()
            );
        }
        ControllerEvent::RescaleCompleted {
            direction, members, ..
        } => {
            let _ = write!(
                s,
                ", \"direction\": \"{}\", \"members\": {members}",
                direction.name()
            );
        }
        ControllerEvent::RescaleFailed {
            direction,
            failures,
            cause,
            ..
        } => {
            let _ = write!(
                s,
                ", \"direction\": \"{}\", \"failures\": {failures}, \"cause\": \"{}\"",
                direction.name(),
                json_escape(cause)
            );
        }
        ControllerEvent::CooldownEntered { until, .. } => {
            let _ = write!(s, ", \"until\": {until}");
        }
        ControllerEvent::BackoffEntered {
            until, failures, ..
        } => {
            let _ = write!(s, ", \"until\": {until}, \"failures\": {failures}");
        }
        ControllerEvent::Degraded { failures, .. } => {
            let _ = write!(s, ", \"failures\": {failures}");
        }
    }
    s.push('}');
    s
}

/// Standard percentile row used by the figure binaries.
pub fn percentile_row(h: &Histogram) -> String {
    format!(
        "p50={:8.3}ms p90={:8.3}ms p99={:8.3}ms p99.9={:8.3}ms p99.99={:8.3}ms max={:8.3}ms n={}",
        h.percentile(50.0) as f64 / 1e6,
        h.percentile(90.0) as f64 / 1e6,
        h.percentile(99.0) as f64 / 1e6,
        h.percentile(99.9) as f64 / 1e6,
        h.percentile(99.99) as f64 / 1e6,
        h.max() as f64 / 1e6,
        h.count(),
    )
}

/// The percentile curve (Fig. 9/11/12 style).
pub fn percentile_curve(h: &Histogram) -> Vec<(f64, f64)> {
    [50.0, 70.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99, 100.0]
        .iter()
        .map(|&p| (p, h.percentile(p) as f64 / 1e6))
        .collect()
}

/// Machine-readable results file shared by every figure/ablation binary:
/// `results/BENCH_<name>.json` holds the bench-level parameters plus, per
/// run, its parameters, latency percentiles, throughput accounting, and the
/// job-wide metrics snapshot.
pub struct BenchReport {
    name: String,
    params: Vec<(String, String)>,
    runs: Vec<RunRecord>,
}

struct RunRecord {
    label: String,
    params: Vec<(String, String)>,
    values: Vec<(String, f64)>,
    latency: Option<HistogramSummary>,
    metrics: Option<MetricsSnapshot>,
    attribution: Option<AttributionReport>,
    /// Autoscaler decision timeline + final cluster size, when a
    /// controller was armed for the run.
    controller: Option<(Vec<ControllerEvent>, usize)>,
}

impl BenchReport {
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            params: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Record a bench-level parameter (applies to every run).
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.push((key.to_string(), value.to_string()));
        self
    }

    /// Record one measured run with its full [`RunResult`].
    pub fn add_run(&mut self, label: &str, params: &[(&str, String)], r: &RunResult) {
        self.runs.push(RunRecord {
            label: label.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            values: vec![
                ("outputs".into(), r.outputs as f64),
                ("inputs".into(), r.inputs as f64),
                ("virtual_secs".into(), r.virtual_secs),
            ],
            latency: Some(HistogramSummary::of(&r.hist)),
            metrics: Some(r.metrics.clone()),
            attribution: r.attribution.clone(),
            controller: r
                .controller_events
                .as_ref()
                .map(|ev| (ev.clone(), r.members_final)),
        });
    }

    /// Record a run that has no latency histogram (e.g. wall-clock
    /// throughput ablations) as a bag of named scalars.
    pub fn add_values(&mut self, label: &str, params: &[(&str, String)], values: &[(&str, f64)]) {
        self.runs.push(RunRecord {
            label: label.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            values: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            latency: None,
            metrics: None,
            attribution: None,
            controller: None,
        });
    }

    pub fn to_json(&self) -> String {
        fn obj(pairs: &[(String, String)]) -> String {
            let body = pairs
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{{{body}}}")
        }
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"bench\": \"{}\",\n  \"params\": {},\n  \"runs\": [",
            json_escape(&self.name),
            obj(&self.params)
        );
        for (i, r) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"label\": \"{}\", \"params\": {}",
                json_escape(&r.label),
                obj(&r.params)
            );
            for (k, v) in &r.values {
                let v = if v.is_finite() { *v } else { -1.0 };
                let _ = write!(s, ", \"{}\": {v}", json_escape(k));
            }
            if let Some(l) = &r.latency {
                let _ = write!(
                    s,
                    ", \"latency_nanos\": {{\"count\": {}, \"min\": {}, \"max\": {}, \
                     \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                     \"p999\": {}, \"p9999\": {}}}",
                    l.count, l.min, l.max, l.mean, l.p50, l.p90, l.p99, l.p999, l.p9999
                );
            }
            if let Some(m) = &r.metrics {
                let _ = write!(s, ", \"metrics\": {}", m.render_json());
            }
            if let Some(a) = &r.attribution {
                let _ = write!(s, ", \"attribution\": {}", a.to_json("    "));
            }
            if let Some((events, final_members)) = &r.controller {
                let _ = write!(
                    s,
                    ", \"controller\": {{\"final_members\": {final_members}, \"events\": ["
                );
                for (j, e) in events.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&controller_event_json(e));
                }
                s.push_str("]}");
            }
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Write `results/BENCH_<name>.json` next to the latency output and
    /// return its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        eprintln!("  [report written to {}]", path.display());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_json_has_the_shared_schema() {
        let mut hist = Histogram::latency();
        for v in [MS, 2 * MS, 5 * MS, 10 * MS] {
            hist.record(v);
        }
        let reg = jet_core::metrics::MetricsRegistry::new();
        reg.counter(
            "jet_events_in_total",
            jet_core::metrics::tags(&[("vertex", "v")]),
        )
        .add(4);
        let r = RunResult {
            hist,
            outputs: 4,
            inputs: 100,
            virtual_secs: 3.0,
            metrics: reg.snapshot(),
            trace: None,
            diagnostics: None,
            cluster_events: Vec::new(),
            spike: None,
            attribution: Some(AttributionReport {
                observed: 4,
                sampled: 4,
                sample_shift: 0,
                bands: Vec::new(),
            }),
            timeline: None,
            controller_events: Some(vec![
                ControllerEvent::Decided {
                    at: 15 * MS,
                    direction: jet_cluster::Direction::Up,
                    occupancy: 912_345,
                    stall_rate: 2_500,
                    members: 2,
                },
                ControllerEvent::RescaleCompleted {
                    at: 40 * MS,
                    direction: jet_cluster::Direction::Up,
                    members: 3,
                },
                ControllerEvent::CooldownEntered {
                    at: 40 * MS,
                    until: 90 * MS,
                },
            ]),
            members_final: 3,
        };
        let mut report = BenchReport::new("unit");
        report.param("query", "Q5").param("members", 2);
        report.add_run("case-a", &[("rate", "1000".to_string())], &r);
        report.add_values("case-b", &[], &[("speedup", 2.5)]);
        let json = report.to_json();
        for key in [
            "\"bench\": \"unit\"",
            "\"params\": {\"query\": \"Q5\", \"members\": \"2\"}",
            "\"label\": \"case-a\"",
            "\"latency_nanos\"",
            "\"p9999\"",
            "\"outputs\": 4",
            "\"metrics\": {\"metrics\":[",
            "jet_events_in_total",
            "\"speedup\": 2.5",
            "\"attribution\": {",
            "\"observed\": 4, \"sampled\": 4, \"sample_shift\": 0",
            "\"bands\": [",
            "\"controller\": {\"final_members\": 3, \"events\": [",
            "\"kind\": \"decided\"",
            "\"direction\": \"up\", \"occupancy\": 912345",
            "\"kind\": \"rescale-completed\"",
            "\"kind\": \"cooldown\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // Balanced braces/brackets — a cheap structural sanity check given
        // the writer emits JSON by hand.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close, "unbalanced JSON:\n{json}");
        // The committed artifacts are gated byte for byte, so the report
        // carries no wall-clock field and renders the same bytes every time.
        assert!(!json.contains("wall"), "wall-clock field in:\n{json}");
        assert_eq!(json, report.to_json());
    }
}
