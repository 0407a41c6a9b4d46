//! **Keyed-state scale sweep** (`fig_keyscale`): p99.99 and resident
//! bytes-per-key as the keyspace grows 10k → 10M at a fixed event rate.
//!
//! The claim under test is the tentpole of the keyed frame store: tail
//! latency must not degrade with key count. Every per-window obligation
//! that used to be O(keys) in one quantum — emission, eviction,
//! checkpoint serialization — is amortized over bounded chunks, so the
//! p99.99 at 10M keys must stay within 3x of the p99.99 at 10k keys under
//! identical load, while open-addressing tables keep resident state at or
//! under 128 bytes per live key.
//!
//! Two branches share the workers:
//! * a keyed branch: `rate` events/s round-robin over `keys` distinct
//!   keys into a sliding counting window (8 s / 2 s), exactly-once with a
//!   1 s snapshot interval — the state-heavy job that used to produce
//!   O(keys) stalls;
//! * a probe branch: a light source straight into a latency sink. Its
//!   p99.99 is the clean interference signal: any stop-the-world work in
//!   the keyed job stalls the shared workers and shows up here.
//!
//! Resident bytes and live keys come from the `jet_state_resident_bytes` /
//! `jet_state_keys_records` gauges, read mid-stream (the generators are
//! unbounded; metrics are sampled before cancellation so the store is at
//! steady state, not drained).
//!
//! `--smoke` runs a scaled-down sweep for CI (small keyspaces, short
//! windows); the full sweep writes `results/BENCH_fig_keyscale.json`.

use jet_bench::{percentile_row, BenchReport, RunResult, MS, SEC};
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef};

struct Sweep {
    scales: &'static [u64],
    rate: u64,
    probe_rate: u64,
    window: Ts,
    slide: Ts,
    warmup: u64,
    measure: u64,
}

const FULL: Sweep = Sweep {
    scales: &[10_000, 100_000, 1_000_000, 10_000_000],
    rate: 400_000,
    probe_rate: 50_000,
    window: (8 * SEC) as Ts,
    slide: (2 * SEC) as Ts,
    warmup: 9 * SEC + 500 * MS,
    measure: 6 * SEC,
};

const SMOKE: Sweep = Sweep {
    scales: &[10_000, 50_000],
    rate: 100_000,
    probe_rate: 20_000,
    window: (2 * SEC) as Ts,
    slide: (500 * MS) as Ts,
    warmup: 2 * SEC + 500 * MS,
    measure: 2 * SEC,
};

struct ScaleResult {
    run: RunResult,
    window_hist: jet_util::Histogram,
    probe_p9999: f64,
    resident_bytes: f64,
    resident_keys: f64,
    bytes_per_key: f64,
}

fn run_scale(sweep: &Sweep, keys: u64) -> ScaleResult {
    let p = Pipeline::create();
    let probe_hist = SharedHistogram::new();
    let probe_count = SharedCounter::new();
    let window_hist = SharedHistogram::new();
    let window_count = SharedCounter::new();

    // Keyed branch: fixed rate, round-robin keyspace, sliding count.
    p.read_from_generator("keyed-src", sweep.rate, move |seq, _| (seq % keys, seq))
        .grouping_key(|(k, _): &(u64, u64)| *k)
        .window(WindowDef::sliding(sweep.window, sweep.slide))
        .aggregate(counting::<(u64, u64)>())
        .write_to_latency(window_hist.clone(), window_count.clone());

    // Probe branch: interference signal on the shared workers.
    p.read_from_generator("probe-src", sweep.probe_rate, |seq, _| seq)
        .write_to_latency(probe_hist.clone(), probe_count.clone());

    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 1,
        cores_per_member: 2,
        cost_model: jet_sim::CostModel::paper_calibrated(),
        guarantee: jet_core::processor::Guarantee::ExactlyOnce,
        snapshot_interval: SEC,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(sweep.warmup);
    probe_hist.clear();
    window_hist.clear();
    let before = probe_count.get();
    cluster.run_for(sweep.measure);
    let outputs = probe_count.get() - before;
    // Mid-stream gauges: the generators are unbounded, so the keyed store
    // is at steady state here — `resident_keys` reflects live keys, not a
    // drained end-of-job store.
    let metrics = cluster.job_metrics();
    let resident_bytes: f64 = metrics
        .get_all("jet_state_resident_bytes")
        .filter_map(jet_core::metrics::Metric::as_gauge)
        .sum::<i64>() as f64;
    let resident_keys: f64 = metrics
        .get_all("jet_state_keys_records")
        .filter_map(jet_core::metrics::Metric::as_gauge)
        .sum::<i64>() as f64;
    let members_final = cluster.grid().members().len();
    cluster.cancel();
    let run = RunResult {
        hist: probe_hist.snapshot(),
        outputs,
        inputs: sweep.probe_rate * sweep.measure / SEC,
        virtual_secs: sweep.measure as f64 / 1e9,
        metrics,
        trace: None,
        diagnostics: None,
        cluster_events: Vec::new(),
        spike: None,
        attribution: None,
        timeline: None,
        controller_events: None,
        members_final,
    };
    let probe_p9999 = run.hist.percentile(99.99) as f64;
    ScaleResult {
        probe_p9999,
        resident_bytes,
        resident_keys,
        bytes_per_key: resident_bytes / resident_keys.max(1.0),
        window_hist: window_hist.snapshot(),
        run,
    }
}

fn scale_label(keys: u64) -> String {
    match keys {
        k if k >= 1_000_000 => format!("keys-{}M", k / 1_000_000),
        k => format!("keys-{}k", k / 1_000),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let sweep = if smoke { &SMOKE } else { &FULL };
    println!(
        "# Keyed-state scale sweep{}: {}k ev/s over {:?} keys, window {}s/{}ms, \
         exactly-once @1s, probe {}k ev/s",
        if smoke { " (smoke)" } else { "" },
        sweep.rate / 1000,
        sweep.scales,
        sweep.window / SEC as Ts,
        sweep.slide / MS as Ts,
        sweep.probe_rate / 1000,
    );
    let mut report = BenchReport::new("fig_keyscale");
    report
        .param("rate", sweep.rate)
        .param("probe_rate", sweep.probe_rate)
        .param("window_ms", sweep.window / MS as Ts)
        .param("slide_ms", sweep.slide / MS as Ts)
        .param("snapshot_interval", "1s")
        .param("smoke", smoke)
        .param("measure_ms", sweep.measure / MS);

    let mut results: Vec<(u64, ScaleResult)> = Vec::new();
    for &keys in sweep.scales {
        let r = run_scale(sweep, keys);
        let label = scale_label(keys);
        println!("{label:10} probe  {}", percentile_row(&r.run.hist));
        println!("{label:10} window {}", percentile_row(&r.window_hist));
        println!(
            "{label:10} resident {:.1} MiB over {:.0} live keys = {:.1} B/key",
            r.resident_bytes / (1024.0 * 1024.0),
            r.resident_keys,
            r.bytes_per_key,
        );
        report.add_run(&label, &[("keys", keys.to_string())], &r.run);
        report.add_values(
            &format!("{label}-state"),
            &[("keys", keys.to_string())],
            &[
                ("keys", keys as f64),
                ("probe_p9999_ms", r.probe_p9999 / 1e6),
                (
                    "window_p9999_ms",
                    r.window_hist.percentile(99.99) as f64 / 1e6,
                ),
                ("resident_bytes", r.resident_bytes),
                ("resident_keys", r.resident_keys),
                ("bytes_per_key", r.bytes_per_key),
            ],
        );
        results.push((keys, r));
    }

    let (min_keys, first) = &results[0];
    let (max_keys, last) = &results[results.len() - 1];
    let ratio = last.probe_p9999 / first.probe_p9999.max(1.0);
    println!(
        "probe p99.99: {:.3}ms @{} -> {:.3}ms @{} ({ratio:.2}x); \
         {:.1} B/key @{}",
        first.probe_p9999 / 1e6,
        scale_label(*min_keys),
        last.probe_p9999 / 1e6,
        scale_label(*max_keys),
        last.bytes_per_key,
        scale_label(*max_keys),
    );
    report.add_values(
        "sweep",
        &[],
        &[
            ("p9999_ratio", ratio),
            ("max_scale_bytes_per_key", last.bytes_per_key),
        ],
    );
    report.write().expect("report");

    assert!(
        ratio <= 3.0,
        "probe p99.99 degraded {ratio:.2}x from {} to {} keys (bound: 3x)",
        min_keys,
        max_keys
    );
    assert!(
        last.bytes_per_key <= 128.0,
        "resident state {:.1} B/key at {} keys exceeds the 128 B/key budget",
        last.bytes_per_key,
        max_keys
    );
    println!(
        "ACCEPTANCE: p99.99 within 3x across the sweep, \
         <=128 B/key at the largest scale"
    );
}
