//! End-to-end spike forensics: the watchdog → freeze → attribute pipeline
//! over real benchmark runs.
//!
//! Two properties are load-bearing for the reproduction:
//!
//! 1. **Invisibility** — the flight recorder observes off the virtual
//!    timeline, so arming it yields a bit-identical latency histogram
//!    (fig9's curves must not move when forensics are on).
//! 2. **Honest blame** — a spike caused by a member crash must attribute to
//!    the failure-detection/recovery phases, never to whichever innocent
//!    vertex happened to be running during the outage, and the per-cause
//!    decomposition must sum to the measured spike exactly.

use jet_bench::{run, Query, RunSpec, MS, SEC};
use jet_core::flight::{Cause, WatchdogConfig};
use jet_core::Ts;
use jet_pipeline::WindowDef;
use jet_util::json;

fn small_q5() -> RunSpec {
    let mut spec = RunSpec::new(Query::Q5, 50_000);
    spec.members = 2;
    spec.cores_per_member = 2;
    spec.window = WindowDef::sliding((500 * MS) as Ts, (10 * MS) as Ts);
    spec.warmup = SEC;
    spec.measure = SEC;
    spec
}

#[test]
fn the_fully_armed_recorder_is_invisible_and_waterfalls_sum_exactly() {
    let plain = run(&small_q5());
    let mut armed_spec = small_q5();
    // Everything at once, so the watchdog and the sampler share the
    // recorder's lock on every emission: an absurdly low SLO fires the
    // watchdog on ~every sample, provenance sampling on every sink event,
    // a metrics timeline at its 100 ms cadence (which chunks the run);
    // the watchdog and the sampler also arm the span ring.
    armed_spec.spike = Some(WatchdogConfig { slo_nanos: Some(1) });
    armed_spec.attribution = true;
    armed_spec.timeline = true;
    let armed = run(&armed_spec);
    assert!(plain.hist.count() > 0, "no samples measured");
    assert_eq!(
        plain.hist, armed.hist,
        "arming the recorder changed the latency histogram"
    );
    let spike = armed.spike.expect("spike report present when armed");
    assert!(spike.fidelity.observed > 0, "watchdog observed nothing");
    assert!(
        !spike.incidents.is_empty(),
        "a 1 ns SLO must open an incident"
    );

    // The waterfall decomposes each reported band's exemplar exactly: the
    // stamp is internally consistent and the cause slices partition the
    // measured end-to-end latency to the nanosecond.
    let report = armed.attribution.expect("attribution present when armed");
    assert!(report.observed > 0, "sampler observed nothing");
    assert!(report.sampled > 0, "sampler retained nothing");
    assert!(
        !report.bands.is_empty(),
        "no percentile band produced a waterfall (observed={})",
        report.observed
    );
    for band in &report.bands {
        let a = &band.attribution;
        assert_eq!(
            band.stamp.latency,
            band.stamp.emitted_at - band.stamp.event_ts,
            "band {}: stamp is inconsistent",
            band.band
        );
        assert_eq!(
            a.total_nanos, band.stamp.latency,
            "band {}: attribution window is not the exemplar's journey",
            band.band
        );
        let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(
            sum, a.total_nanos,
            "band {}: slices do not sum to the measured latency",
            band.band
        );
    }

    // The timeline actually sampled: multiple ticks, live series, and a
    // parseable jet-timeline-v1 document.
    let stats = armed.recorder.stats();
    assert!(
        stats.samples > 1,
        "timeline sampled {} time(s)",
        stats.samples
    );
    assert!(stats.series > 0, "timeline recorded no series");
    assert_eq!(
        stats.samples as usize, stats.ticks,
        "no eviction expected at this scale"
    );
    let timeline = armed.recorder.timeline_json("test", "q5");
    let doc = json::parse(&timeline.expect("timeline armed")).expect("valid JSON");
    assert_eq!(doc["schema"].as_str(), Some("jet-timeline-v1"));
    let ticks = doc["ticks_nanos"].as_arr().expect("ticks_nanos");
    assert_eq!(ticks.len(), stats.ticks);
    let series = doc["series"].as_arr().expect("series");
    assert_eq!(series.len(), stats.series);
    assert!(series
        .iter()
        .all(|s| s["deltas"].as_arr().map(<[_]>::len) == Some(ticks.len())));
    let trace = armed.recorder.trace().expect("span ring armed");
    assert!(!trace.events.is_empty(), "the recorder retained no spans");
    assert_eq!(trace.events.len(), stats.spans_retained);
    assert!(armed.diagnostics.is_some(), "no diagnostics dump");
}

#[test]
fn crash_spike_attributes_to_recovery_not_a_vertex() {
    // Scaled-down fig13 crash run: exactly-once checkpoints, a member crash
    // mid-measurement, heartbeat detection + self-healing recovery.
    let mut spec = RunSpec::new(Query::Q5, 100_000);
    spec.members = 2;
    spec.cores_per_member = 2;
    spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
    spec.warmup = SEC + 500 * MS;
    spec.measure = 6 * SEC;
    spec.guarantee = jet_core::Guarantee::ExactlyOnce;
    spec.snapshot_interval = SEC;
    let mut plan = jet_sim::FaultPlan::new(13);
    plan.crash(spec.warmup + 2 * SEC, 1);
    spec.fault_plan = Some(plan);
    spec.coordinator = Some(jet_cluster::CoordinatorConfig::default());
    spec.spike = Some(WatchdogConfig::default());
    let r = run(&spec);

    let report = r.spike.expect("spike report present when armed");
    assert!(
        !report.incidents.is_empty(),
        "a detected crash must register at least one spike incident \
         (observed={} threshold={}ns)",
        report.fidelity.observed,
        report.fidelity.threshold
    );
    // Incidents come worst-first; the outage spike dominates.
    let top = &report.incidents[0];
    let a = &top.attribution;
    assert_eq!(
        a.top_group, "recovery",
        "outage spike blamed {:?} ({}) instead of the recovery phases:\n{:#?}",
        a.top_cause, a.top_group, a.slices
    );
    assert!(
        matches!(
            a.top_cause,
            Cause::FaultDetection | Cause::Recovery | Cause::RecoveryCatchup
        ),
        "top cause {:?} is not a recovery-family phase",
        a.top_cause
    );
    assert!(
        a.blamed_vertex.is_none(),
        "an innocent vertex was blamed: {:?}",
        a.blamed_vertex
    );
    // Exact partition: the decomposition covers the measured spike latency
    // to the nanosecond (well inside the ≤1% reproduction criterion).
    let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
    assert_eq!(sum, a.total_nanos, "slices do not sum to the spike latency");
    assert_eq!(
        a.total_nanos, top.incident.peak_latency,
        "attribution window is not the peak event's journey"
    );
    // The frozen window actually holds forensic spans.
    assert!(top.window_events > 0, "frozen window is empty");
    // And the JSON report round-trips the verdict.
    let doc = json::parse(&json::render(&report)).expect("valid JSON");
    assert_eq!(doc["schema"].as_str(), Some("jet-spike-v1"));
    let attribution = &doc["incidents"][0]["attribution"];
    assert_eq!(attribution["top_group"].as_str(), Some("recovery"));
    assert_eq!(attribution["total_nanos"].as_u64(), Some(a.total_nanos));
}
