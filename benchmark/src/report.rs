//! Metric names, units and the output format: one `metric <name> <value>
//! <unit>` line per metric, then, as the last line, the JSON object the
//! driver reads. `BENCHMARK.json` lists exactly these names (pinned by
//! `tests/contract.rs`).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_p9999_us", "us"),
    ("replay_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order. Rows marked
/// `busy` in README.md's table are the replay-phase time budget: with
/// `exec.overhead_ns_per_event` they account for `workers x wall`.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("exec.calls_per_event", "count"),
    ("exec.no_progress_share", "ratio"),
    ("exec.overhead_ns_per_event", "ns"),
    ("exec.call_p9999_us", "us"),
    ("exec.call_max_us", "us"),
    ("exec.scaling_2w_over_1w", "ratio"),
    ("source.busy_ns_per_event", "ns"),
    ("source.emit_lag_p99_us", "us"),
    ("transform.busy_ns_per_event", "ns"),
    ("window_accumulate.busy_ns_per_event", "ns"),
    ("window_combine.busy_ns_per_result", "ns"),
    ("window_combine.call_max_us", "us"),
    ("state.upsert_ns_10k_keys", "ns"),
    ("state.upsert_ns_1m_keys", "ns"),
    ("state.scan_ns_per_record", "ns"),
    ("sink.busy_ns_per_result", "ns"),
    ("sink.latency_p9999_whole_us", "us"),
    ("outbound.unicast_ns_per_item", "ns"),
    ("outbound.partitioned_ns_per_item", "ns"),
    ("queue.spsc_ns_per_item_batch1", "ns"),
    ("queue.spsc_ns_per_item_batch64", "ns"),
    ("queue.spsc_xthread_ns_per_item_batch64", "ns"),
    ("queue.conveyor_ns_per_item_batch64", "ns"),
    ("object.inline_box_take_ns", "ns"),
    ("object.heap_box_take_ns", "ns"),
    ("sender.busy_ns_per_item", "ns"),
    ("receiver.busy_ns_per_item", "ns"),
    ("network.items_sent", "count"),
    ("network.bytes_sent", "B"),
    ("network.batch_items_mean", "count"),
    ("network.receive_window_min", "count"),
    ("snapshot.duration_p50_ms", "ms"),
    ("snapshot.duration_max_ms", "ms"),
    ("snapshot.records", "count"),
    ("snapshot.ns_per_record", "ns"),
    ("snapshot.completed_per_s", "1/s"),
    ("snapshot.rss_bytes_per_record", "B"),
    ("trace.overhead_share", "ratio"),
];

/// Pair `values` (in table order) with the names and units of `table`.
pub fn metrics_of(table: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(
        table.len(),
        values.len(),
        "one value per metric of the table"
    );
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| {
            assert!(value.is_finite(), "{name} is not a finite number: {value}");
            Metric { name, value, unit }
        })
        .collect()
}

/// What one run prints after its header.
pub struct RunReport {
    pub metrics: Vec<Metric>,
    /// Input events fed to the engine over all phases, and how many of them
    /// are missing from (or extra in) the output.
    pub attempted: u64,
    pub failed: u64,
    /// `# ...` lines printed before the metrics: sample counts, epochs.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric lines, the events line, and the final JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            writeln!(out, "# {n}").unwrap();
        }
        for m in &self.metrics {
            writeln!(out, "metric {} {} {}", m.name, m.value, m.unit).unwrap();
        }
        writeln!(
            out,
            "events attempted={} failed={}",
            self.attempted, self.failed
        )
        .unwrap();
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
        .unwrap();
        out
    }
}

/// `(name, value, unit)` of every metric a run printed.
pub type ParsedMetrics = Vec<(String, f64, String)>;

/// Parse the `metric` and `events` lines of a child run's output into the
/// metrics and the `(attempted, failed)` event counts.
pub fn parse(output: &str) -> Option<(ParsedMetrics, u64, u64)> {
    let mut metrics = Vec::new();
    let mut events = None;
    for line in output.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let name = words.next()?.to_string();
                let value = words.next()?.parse().ok()?;
                metrics.push((name, value, words.next()?.to_string()));
            }
            Some("events") => {
                let attempted = words.next()?.strip_prefix("attempted=")?.parse().ok()?;
                let failed = words.next()?.strip_prefix("failed=")?.parse().ok()?;
                events = Some((attempted, failed));
            }
            _ => {}
        }
    }
    let (attempted, failed) = events?;
    Some((metrics, attempted, failed))
}

/// Python's `statistics.quantiles(values, n=4)` (the default, exclusive
/// method) — the quartiles the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / crate::estimator::median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_round_trips() {
        let report = RunReport {
            metrics: metrics_of(&END_TO_END, &[0.5, 1.0, 2.0, 3.0, 4e6, 24.25]),
            attempted: 1000,
            failed: 0,
            notes: vec!["epochs 15".into()],
        };
        let text = report.render();
        let (metrics, attempted, failed) = parse(&text).unwrap();
        assert_eq!((attempted, failed), (1000, 0));
        assert_eq!(metrics.len(), 6);
        assert_eq!(
            metrics[4],
            ("replay_events_per_s".into(), 4e6, "1/s".into())
        );
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0"));
        assert!(last.contains("\"peak_rss_mb\": {\"value\": 24.25, \"unit\": \"MB\"}"));
    }

    #[test]
    fn a_failed_event_makes_the_run_incorrect() {
        let report = RunReport {
            metrics: Vec::new(),
            attempted: 10,
            failed: 1,
            notes: Vec::new(),
        };
        assert!(report.render().contains("\"correct\": false"));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(quartile_spread(&ten), 1.0);
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn non_finite_values_are_refused() {
        metrics_of(&END_TO_END, &[f64::NAN, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }
}
