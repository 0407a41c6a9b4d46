//! # jet-bench — the reproduction harness
//!
//! One binary per paper figure/table (see DESIGN.md §4 for the full index).
//! This library holds the shared runner: build a NEXMark query as a
//! pipeline, execute it on the virtual-time cluster simulator with the
//! paper's measurement methodology (§7.1 — the latency clock starts at each
//! event's predetermined occurrence time; measurement begins after warm-up),
//! and report the percentile series the paper plots.
//!
//! Scale-down vs the paper (documented per experiment in EXPERIMENTS.md):
//! virtual cores per member, input rates, and measurement durations are
//! reduced so each figure reproduces in minutes on one physical CPU; the
//! *shapes* (who wins, where knees fall) are the reproduction target, not
//! absolute numbers.

use jet_cluster::{ClusterEvent, CoordinatorConfig, SimCluster, SimClusterConfig};
use jet_core::flight::{AttributionReport, Recorder, RecorderConfig, SpikeReport, WatchdogConfig};
use jet_core::metrics::{HistogramSummary, SharedCounter, SharedHistogram};
use jet_core::processor::Guarantee;
use jet_core::processors::WatermarkPolicy;
use jet_core::{JobQuotas, Ts};
use jet_nexmark::{queries, NexmarkConfig};
use jet_pipeline::{Pipeline, WindowDef};
use jet_util::json::{self, ToJson, Writer};
use jet_util::Histogram;
use std::path::PathBuf;

pub const SEC: u64 = 1_000_000_000;
pub const MS: u64 = 1_000_000;

/// Which NEXMark query to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    Q1,
    Q2,
    Q3,
    Q4,
    Q5,
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
    /// Arm the flight recorder's tail-latency watchdog: spikes detected
    /// online on the virtual timeline freeze their span window and are
    /// root-cause attributed in [`RunResult::spike`]. Arms the recorder's
    /// span ring, but is invisible on the virtual timeline — percentiles
    /// are bit-identical with the watchdog on or off.
    pub spike: Option<WatchdogConfig>,
    /// Arm full-distribution latency attribution: the latency sink stamps
    /// sampled per-event provenance and the flight recorder's span ring
    /// runs (no watchdog required), so [`RunResult::attribution`] carries a
    /// per-percentile-band latency waterfall. Invisible on the virtual
    /// timeline — percentiles are bit-identical on or off.
    pub attribution: bool,
    /// Sample the job-wide metrics snapshot into delta-encoded rings at a
    /// fixed cadence (exported from [`RunResult::recorder`] by
    /// [`write_timeline`]). Invisible on the virtual timeline.
    pub timeline: bool,
    /// Per-job weighted round-robin scheduling quotas (multi-tenant
    /// fairness, §7.7). A pipeline opts in by putting its source in a job
    /// (`StreamStage::in_job`).
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
            spike: None,
            attribution: false,
            timeline: false,
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
    /// Diagnostics dump rendered at the end of the run, when the
    /// recorder's span ring was armed.
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
    /// The run's recorder: its retained spans of the measurement period
    /// ([`write_trace`]) and its metrics timeline ([`write_timeline`]).
    pub recorder: Recorder,
}

impl RunResult {
    pub fn p(&self, pct: f64) -> f64 {
        self.hist.percentile(pct) as f64 / 1e6
    }
}

/// Build the query pipeline with a latency sink attached that feeds every
/// sample to `recorder` as well.
pub fn build_query(
    spec: &RunSpec,
    hist: &SharedHistogram,
    count: &SharedCounter,
    recorder: &Recorder,
) -> Pipeline {
    let p = Pipeline::create();
    let src = queries::source(
        &p,
        &spec.nexmark,
        spec.total_rate,
        None,
        WatermarkPolicy::default(),
    );
    let (h, c, r) = (hist.clone(), count.clone(), recorder.clone());
    match spec.query {
        Query::Q1 => {
            queries::q1(&src).write_to_latency_recorded(h, c, r);
        }
        Query::Q2 => {
            queries::q2(&src).write_to_latency_recorded(h, c, r);
        }
        Query::Q3 => {
            queries::q3(&src).write_to_latency_recorded(h, c, r);
        }
        Query::Q4 => {
            queries::q4(&src, spec.window.size).write_to_latency_recorded(h, c, r);
        }
        Query::Q5 => {
            queries::q5(&src, spec.window).write_to_latency_recorded(h, c, r);
        }
        Query::Q6 => {
            queries::q6(&src, spec.window.size).write_to_latency_recorded(h, c, r);
        }
        Query::Q7 => {
            queries::q7(&src, spec.window.size).write_to_latency_recorded(h, c, r);
        }
        Query::Q8 => {
            queries::q8(&src, spec.window.size).write_to_latency_recorded(h, c, r);
        }
        Query::Q13 => {
            let side: Vec<(u64, String)> = (0..spec.nexmark.auctions)
                .map(|a| (a, format!("auction-{a}")))
                .collect();
            queries::q13(&p, &src, side).write_to_latency_recorded(h, c, r);
        }
    }
    p
}

/// Execute one run: warm up, clear the histogram, measure.
pub fn run(spec: &RunSpec) -> RunResult {
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    // The recorder observes off the virtual timeline (it never advances
    // the clock), so arming any part of it cannot move a single percentile
    // — the histogram is bit-identical with it on or off.
    let recorder = Recorder::new(RecorderConfig {
        watchdog: spec.spike,
        provenance: spec.attribution,
        timeline: spec.timeline,
    });
    let pipeline = build_query(spec, &hist, &count, &recorder);
    let dag = pipeline
        .compile(spec.cores_per_member)
        .expect("pipeline compiles");
    let cfg = SimClusterConfig {
        members: spec.members,
        cores_per_member: spec.cores_per_member,
        partition_count: spec.partition_count,
        backup_count: 1,
        guarantee: spec.guarantee,
        snapshot_interval: spec.snapshot_interval,
        cost_model: spec.cost_model,
        gc: spec.gc.clone(),
        fixed_receive_window: spec.fixed_receive_window,
        fault_plan: spec.fault_plan.clone(),
        coordinator: spec.coordinator.clone(),
        recorder: recorder.clone(),
        quotas: spec.quotas.clone(),
        ..Default::default()
    };
    let network_latency = cfg.network_latency;
    let mut cluster = SimCluster::start(dag, cfg).expect("cluster starts");
    cluster.run_for(spec.warmup);
    hist.clear();
    // The recorder covers the measurement period only: forget the warm-up's
    // spans and excursions (the adaptive baseline the warm-up established
    // is kept).
    recorder.clear();
    let out_before = count.get();
    cluster.run_for(spec.measure);
    let outputs = count.get() - out_before;
    let diagnostics = recorder.records_spans().then(|| cluster.diagnostics_dump());
    let cluster_events = cluster.cluster_events();
    let spike = spec.spike.is_some().then(|| SpikeReport {
        bench: String::new(),
        run_label: String::new(),
        incidents: cluster.spike_forensics(),
        fidelity: recorder.stats(),
    });
    let final_hist = hist.snapshot();
    let attribution = spec.attribution.then(|| {
        // Decompose the measured distribution at the paper's three
        // headline bands, with the cluster's one-way network latency.
        let bands = [
            ("p50", 50.0, final_hist.percentile(50.0)),
            ("p99", 99.0, final_hist.percentile(99.0)),
            ("p99.99", 99.99, final_hist.percentile(99.99)),
        ];
        recorder.waterfalls(network_latency, &bands)
    });
    cluster.cancel();
    RunResult {
        hist: final_hist,
        outputs,
        inputs: spec.total_rate * spec.measure / SEC,
        virtual_secs: spec.measure as f64 / 1e9,
        diagnostics,
        cluster_events,
        spike,
        attribution,
        recorder,
    }
}

/// Write `text` as `results/<file>` and return its path.
fn write_result(file: &str, text: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all("results")?;
    let path = PathBuf::from("results").join(file);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Write the recorder's retained spans as `results/TRACE_<name>.json`
/// (Chrome trace-event format — load it in Perfetto or `chrome://tracing`)
/// and the diagnostics dump as `results/TRACE_<name>.txt`. Returns the JSON
/// path, or `None` when the run's span ring was not armed.
pub fn write_trace(name: &str, r: &RunResult) -> std::io::Result<Option<PathBuf>> {
    let Some(trace) = r.recorder.trace() else {
        return Ok(None);
    };
    let path = write_result(&format!("TRACE_{name}.json"), &json::render(&trace))?;
    if let Some(dump) = &r.diagnostics {
        write_result(&format!("TRACE_{name}.txt"), dump)?;
    }
    eprintln!(
        "  [trace written to {} — {} spans, {} dropped]",
        path.display(),
        trace.events.len(),
        r.recorder.stats().ring_dropped
    );
    Ok(Some(path))
}

/// Write the spike forensics as `results/SPIKE_<name>.json` (schema
/// `jet-spike-v1`) and print a one-line verdict per incident. Returns the
/// path, or `None` when the run had no watchdog armed.
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
    let path = write_result(&format!("SPIKE_{name}.json"), &json::render(&report))?;
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
/// (schema `jet-timeline-v1`). Returns the path, or `None` when the run had
/// no timeline armed.
pub fn write_timeline(name: &str, label: &str, r: &RunResult) -> std::io::Result<Option<PathBuf>> {
    let Some(timeline) = r.recorder.timeline_json(name, label) else {
        return Ok(None);
    };
    let path = write_result(&format!("TIMELINE_{name}.json"), &timeline)?;
    let stats = r.recorder.stats();
    eprintln!(
        "  [timeline written to {} — {} samples, {} series, {} ticks evicted]",
        path.display(),
        stats.samples,
        stats.series,
        stats.ticks_evicted
    );
    Ok(Some(path))
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

/// The percentile curve (Fig. 9 style; `fig8_scaleout_latency` prints it per
/// query at 5 and 10 members for Figs. 11 and 12).
pub fn percentile_curve(h: &Histogram) -> Vec<(f64, f64)> {
    [50.0, 70.0, 80.0, 90.0, 95.0, 99.0, 99.9, 99.99, 100.0]
        .iter()
        .map(|&p| (p, h.percentile(p) as f64 / 1e6))
        .collect()
}

/// Machine-readable results file shared by every figure/ablation binary:
/// `results/BENCH_<name>.json` holds the bench-level parameters plus, per
/// run, its parameters, latency percentiles and throughput accounting.
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
    attribution: Option<AttributionReport>,
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
            attribution: r.attribution.clone(),
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
            attribution: None,
        });
    }

    /// Write `results/BENCH_<name>.json` next to the latency output and
    /// return its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = write_result(&format!("BENCH_{}.json", self.name), &json::render(self))?;
        eprintln!("  [report written to {}]", path.display());
        Ok(path)
    }
}

impl ToJson for BenchReport {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("bench", &self.name)
                .key("params")
                .pairs(&self.params)
                .field("runs", &self.runs);
        });
    }
}

impl ToJson for RunRecord {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("label", &self.label)
                .key("params")
                .pairs(&self.params);
            for (k, v) in &self.values {
                w.field(k, v);
            }
            if let Some(l) = &self.latency {
                w.field("latency_nanos", l);
            }
            if let Some(a) = &self.attribution {
                w.field("attribution", a);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunResult {
        let mut hist = Histogram::latency();
        for v in [MS, 2 * MS, 5 * MS, 10 * MS] {
            hist.record(v);
        }
        RunResult {
            hist,
            outputs: 4,
            inputs: 100,
            virtual_secs: 3.0,
            diagnostics: None,
            cluster_events: Vec::new(),
            spike: None,
            attribution: Some(AttributionReport {
                observed: 4,
                sampled: 4,
                sample_shift: 0,
                bands: Vec::new(),
            }),
            recorder: Recorder::disabled(),
        }
    }

    #[test]
    fn every_query_compiles_to_vertices_of_their_kind() {
        use jet_core::Kind::{Other, Sink, Source, WindowAccumulate, WindowCombine};
        let cases = [
            (Query::Q1, vec![Source, Sink]),
            (Query::Q2, vec![Source, Sink]),
            (Query::Q3, vec![Source, Other, Sink]),
            (
                Query::Q4,
                vec![
                    Source,
                    Other,
                    Other,
                    Other,
                    WindowAccumulate,
                    WindowCombine,
                    Sink,
                ],
            ),
            (
                Query::Q5,
                vec![Source, WindowAccumulate, WindowCombine, Sink],
            ),
            (Query::Q6, vec![Source, Other, Other, Other, Other, Sink]),
            (
                Query::Q7,
                vec![Source, WindowAccumulate, WindowCombine, Sink],
            ),
            (Query::Q8, vec![Source, Other, Other, Other, Sink]),
            // The side input is a source of its own.
            (Query::Q13, vec![Source, Source, Other, Sink]),
        ];
        for (query, kinds) in cases {
            let p = build_query(
                &RunSpec::new(query, 1_000),
                &SharedHistogram::new(),
                &SharedCounter::new(),
                &Recorder::disabled(),
            );
            let dag = p.compile(1).unwrap();
            let got: Vec<_> = dag.vertices().iter().map(|v| (&v.name, v.kind)).collect();
            assert_eq!(
                got.iter().map(|(_, k)| *k).collect::<Vec<_>>(),
                kinds,
                "{}: {got:?}",
                query.name()
            );
        }
    }

    #[test]
    fn bench_report_json_has_the_shared_schema() {
        let mut report = BenchReport::new("unit");
        report.param("query", "Q5").param("members", 2);
        report.add_run("case-a", &[("rate", "1000".to_string())], &sample_run());
        report.add_values("case-b", &[], &[("speedup", 2.5)]);
        let json = json::render(&report);
        let doc = json::parse(&json).expect("valid JSON");
        assert_eq!(doc["bench"].as_str(), Some("unit"));
        assert_eq!(doc["params"]["query"].as_str(), Some("Q5"));
        assert_eq!(doc["params"]["members"].as_str(), Some("2"));
        let run = &doc["runs"][0];
        assert_eq!(run["label"].as_str(), Some("case-a"));
        assert_eq!(run["params"]["rate"].as_str(), Some("1000"));
        assert_eq!(run["outputs"].as_u64(), Some(4));
        assert_eq!(run["virtual_secs"].as_u64(), Some(3));
        let latency = &run["latency_nanos"];
        assert_eq!(latency["count"].as_u64(), Some(4));
        assert!(latency["p9999"].as_u64() >= latency["p50"].as_u64());
        // Metrics live in TIMELINE_*/TRACE_* files, not in the report.
        assert!(!json.contains("\"metrics\""), "metrics key in:\n{json}");
        let a = &run["attribution"];
        assert_eq!(
            (
                a["observed"].as_u64(),
                a["sampled"].as_u64(),
                a["sample_shift"].as_u64()
            ),
            (Some(4), Some(4), Some(0))
        );
        assert_eq!(a["bands"], json::Json::Arr(Vec::new()));
        let values = &doc["runs"][1];
        assert_eq!(values["label"].as_str(), Some("case-b"));
        assert_eq!(values["speedup"].as_f64(), Some(2.5));
        assert_eq!(values["latency_nanos"], json::Json::Null);
        // The committed artifacts are gated byte for byte, so the report
        // carries no wall-clock field and renders the same bytes every time.
        assert!(!json.contains("wall"), "wall-clock field in:\n{json}");
        assert_eq!(json, json::render(&report));
    }

    #[test]
    fn a_non_finite_value_is_written_as_null() {
        let mut report = BenchReport::new("unit");
        report.add_values("empty-store", &[], &[("bytes_per_key", f64::NAN)]);
        let doc = json::parse(&json::render(&report)).expect("valid JSON");
        assert_eq!(doc["runs"][0]["bytes_per_key"], json::Json::Null);
    }
}
