//! Validates the machine-readable results files against their documented
//! schemas, so downstream tooling (plots, dashboards, regression diffs) can
//! trust every artifact CI uploads:
//!
//! - `results/BENCH_<name>.json` — shared bench-report schema emitted by
//!   `jet_bench::BenchReport::to_json` (bench params, per-run latency
//!   percentile summary, metrics snapshot).
//! - `results/SPIKE_<name>.json` — `jet-spike-v1` spike-forensics schema
//!   emitted by `jet_core::flight::SpikeReport::to_json` (watchdog
//!   fidelity, frozen windows, per-cause attribution).
//! - `results/TIMELINE_<name>.json` — `jet-timeline-v1` metrics-timeline
//!   schema emitted by `jet_core::telemetry::Timeline::to_json`
//!   (delta-encoded per-series samples on a fixed virtual-time cadence).
//!
//! Both writers emit JSON by hand (the workspace carries no serde), so the
//! checker parses with its own minimal recursive-descent parser rather than
//! trusting the producer's balancing. Beyond shape, it enforces the
//! semantic invariants the reproduction leans on: percentile summaries are
//! monotone, attribution slices partition the spike latency exactly, and
//! shares sum to one.

use std::fmt;

// ------------------------------------------------------------------ JSON

/// Minimal JSON document model — just enough to validate result files.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parse error with a byte offset, so a malformed artifact is locatable.
#[derive(Debug)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number token");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("malformed number '{text}'")))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never appear in these files
                            // (the writers escape only ASCII controls);
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(b) => {
                    // Decode exactly one multi-byte UTF-8 scalar. Validating
                    // only this scalar's bytes (never the whole remaining
                    // input) keeps string parsing linear in the file size.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let scalar = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(scalar);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

// ------------------------------------------------------------- validation

/// Collects dotted-path violations while walking a document.
struct Checker {
    errors: Vec<String>,
}

impl Checker {
    fn fail(&mut self, path: &str, message: impl fmt::Display) {
        self.errors.push(format!("{path}: {message}"));
    }

    fn str<'a>(&mut self, v: &'a Json, path: &str, key: &str) -> Option<&'a str> {
        match v.get(key) {
            Some(Json::Str(s)) => Some(s),
            Some(other) => {
                self.fail(
                    path,
                    format_args!("'{key}' is {}, want string", other.kind()),
                );
                None
            }
            None => {
                self.fail(path, format_args!("missing key '{key}'"));
                None
            }
        }
    }

    fn num(&mut self, v: &Json, path: &str, key: &str) -> Option<f64> {
        match v.get(key) {
            Some(Json::Num(n)) => Some(*n),
            Some(other) => {
                self.fail(
                    path,
                    format_args!("'{key}' is {}, want number", other.kind()),
                );
                None
            }
            None => {
                self.fail(path, format_args!("missing key '{key}'"));
                None
            }
        }
    }

    fn arr<'a>(&mut self, v: &'a Json, path: &str, key: &str) -> Option<&'a [Json]> {
        match v.get(key) {
            Some(Json::Arr(items)) => Some(items),
            Some(other) => {
                self.fail(
                    path,
                    format_args!("'{key}' is {}, want array", other.kind()),
                );
                None
            }
            None => {
                self.fail(path, format_args!("missing key '{key}'"));
                None
            }
        }
    }

    /// A `params`-style object: every value must be a string.
    fn string_map(&mut self, v: &Json, path: &str, key: &str) {
        match v.get(key) {
            Some(Json::Obj(pairs)) => {
                for (k, pv) in pairs {
                    if !matches!(pv, Json::Str(_)) {
                        self.fail(
                            path,
                            format_args!("'{key}.{k}' is {}, want string", pv.kind()),
                        );
                    }
                }
            }
            Some(other) => {
                self.fail(
                    path,
                    format_args!("'{key}' is {}, want object", other.kind()),
                );
            }
            None => self.fail(path, format_args!("missing key '{key}'")),
        }
    }

    /// A latency/histogram percentile summary: all keys numeric, and the
    /// quantiles monotone (`min <= p50 <= ... <= p9999 <= max`).
    fn percentile_summary(&mut self, v: &Json, path: &str) {
        let keys = [
            "count", "min", "max", "mean", "p50", "p90", "p99", "p999", "p9999",
        ];
        let mut got = [0f64; 9];
        let mut complete = true;
        for (i, key) in keys.iter().enumerate() {
            match self.num(v, path, key) {
                Some(n) => got[i] = n,
                None => complete = false,
            }
        }
        if !complete {
            return;
        }
        let [count, min, max, _mean, p50, p90, p99, p999, p9999] = got;
        if count > 0.0 {
            let ladder = [min, p50, p90, p99, p999, p9999, max];
            if ladder.windows(2).any(|w| w[0] > w[1]) {
                self.fail(
                    path,
                    format_args!("percentiles are not monotone: {ladder:?}"),
                );
            }
        }
    }
}

/// Validate a `results/BENCH_*.json` document. Returns violations, empty
/// when the file conforms.
pub fn validate_bench(doc: &Json) -> Vec<String> {
    let mut c = Checker { errors: Vec::new() };
    if !matches!(doc, Json::Obj(_)) {
        return vec![format!("root: is {}, want object", doc.kind())];
    }
    c.str(doc, "root", "bench");
    c.string_map(doc, "root", "params");
    if let Some(runs) = c.arr(doc, "root", "runs") {
        for (i, run) in runs.iter().enumerate() {
            let path = format!("runs[{i}]");
            if !matches!(run, Json::Obj(_)) {
                c.fail(&path, format_args!("is {}, want object", run.kind()));
                continue;
            }
            c.str(run, &path, "label");
            c.string_map(run, &path, "params");
            if let Some(lat) = run.get("latency_nanos") {
                c.percentile_summary(lat, &format!("{path}.latency_nanos"));
            }
            if let Some(metrics) = run.get("metrics") {
                validate_metrics_snapshot(&mut c, metrics, &format!("{path}.metrics"));
            }
            if let Some(a) = run.get("attribution") {
                validate_bench_attribution(&mut c, a, &format!("{path}.attribution"));
            }
            if let Some(ctl) = run.get("controller") {
                validate_bench_controller(&mut c, ctl, &format!("{path}.controller"));
            }
            validate_bench_keystate(&mut c, run, &path);
        }
    }
    c.errors
}

/// Validate the keyed-state scale fields (`fig_keyscale`): any run carrying
/// `bytes_per_key` must also report the `resident_bytes` / `resident_keys`
/// pair it was derived from, the three must be internally consistent, and a
/// sweep summary's `p9999_ratio` must be a positive degradation factor. A
/// negative value anywhere means the producer hit the non-finite sentinel
/// (`-1`), i.e. the gauges were read from an empty store.
fn validate_bench_keystate(c: &mut Checker, run: &Json, path: &str) {
    if run.get("bytes_per_key").is_some() {
        let bpk = c.num(run, path, "bytes_per_key");
        let bytes = c.num(run, path, "resident_bytes");
        let keys = c.num(run, path, "resident_keys");
        for (key, v) in [
            ("bytes_per_key", bpk),
            ("resident_bytes", bytes),
            ("resident_keys", keys),
        ] {
            if let Some(v) = v {
                if v < 0.0 {
                    c.fail(path, format_args!("'{key}' is {v}, want >= 0"));
                }
            }
        }
        if let (Some(bpk), Some(bytes), Some(keys)) = (bpk, bytes, keys) {
            let derived = bytes / keys.max(1.0);
            if bpk >= 0.0 && (bpk - derived).abs() > derived.abs() * 1e-6 + 1e-6 {
                c.fail(
                    path,
                    format_args!(
                        "'bytes_per_key' is {bpk}, want resident_bytes / \
                         resident_keys = {derived}"
                    ),
                );
            }
        }
    }
    if let Some(Json::Num(ratio)) = run.get("p9999_ratio") {
        if *ratio <= 0.0 {
            c.fail(path, format_args!("'p9999_ratio' is {ratio}, want > 0"));
        }
    }
}

/// Validate the optional per-run `controller` object: the autoscaling
/// controller's decision timeline (`runs[].controller`, emitted by
/// `jet_bench` when a run is driven with a `ControllerConfig`). Events must
/// carry a known `kind`, a virtual timestamp that never goes backwards, and
/// a member count of at least one wherever one is reported.
fn validate_bench_controller(c: &mut Checker, ctl: &Json, path: &str) {
    const KINDS: [&str; 6] = [
        "decided",
        "rescale-completed",
        "rescale-failed",
        "cooldown",
        "backoff",
        "degraded",
    ];
    if !matches!(ctl, Json::Obj(_)) {
        c.fail(path, format_args!("is {}, want object", ctl.kind()));
        return;
    }
    if let Some(m) = c.num(ctl, path, "final_members") {
        if m < 1.0 {
            c.fail(path, format_args!("'final_members' is {m}, want >= 1"));
        }
    }
    let Some(events) = c.arr(ctl, path, "events") else {
        return;
    };
    let mut prev_at = f64::NEG_INFINITY;
    for (i, e) in events.iter().enumerate() {
        let epath = format!("{path}.events[{i}]");
        if !matches!(e, Json::Obj(_)) {
            c.fail(&epath, format_args!("is {}, want object", e.kind()));
            continue;
        }
        if let Some(at) = c.num(e, &epath, "at") {
            // The controller appends events as virtual time advances; a
            // timeline that runs backwards would mean the run is lying
            // about decision ordering.
            if at < prev_at {
                c.fail(
                    &epath,
                    format_args!("'at' {at} precedes previous event at {prev_at}"),
                );
            }
            prev_at = prev_at.max(at);
        }
        c.str(e, &epath, "label");
        match c.str(e, &epath, "kind") {
            Some(kind) if !KINDS.contains(&kind) => {
                c.fail(&epath, format_args!("unknown event kind '{kind}'"));
            }
            _ => {}
        }
        match e.get("direction") {
            Some(Json::Str(d)) if d == "up" || d == "down" => {}
            Some(other) => c.fail(
                &epath,
                format_args!("'direction' is {other:?}, want \"up\" or \"down\""),
            ),
            None => {}
        }
        if let Some(Json::Num(m)) = e.get("members") {
            if *m < 1.0 {
                c.fail(&epath, format_args!("'members' is {m}, want >= 1"));
            }
        }
    }
}

/// Validate the optional per-run `attribution` object (`jet-bench-v1`): the
/// full-distribution latency waterfall. Every band's slices must sum exactly
/// to the exemplar's measured end-to-end latency.
fn validate_bench_attribution(c: &mut Checker, a: &Json, path: &str) {
    if !matches!(a, Json::Obj(_)) {
        c.fail(path, format_args!("is {}, want object", a.kind()));
        return;
    }
    for key in ["observed", "sampled", "sample_shift"] {
        c.num(a, path, key);
    }
    let Some(bands) = c.arr(a, path, "bands") else {
        return;
    };
    for (i, band) in bands.iter().enumerate() {
        let bpath = format!("{path}.bands[{i}]");
        if !matches!(band, Json::Obj(_)) {
            c.fail(&bpath, format_args!("is {}, want object", band.kind()));
            continue;
        }
        c.str(band, &bpath, "band");
        c.num(band, &bpath, "percentile");
        c.num(band, &bpath, "target_nanos");
        let event_ts = c.num(band, &bpath, "event_ts_nanos");
        let emitted_at = c.num(band, &bpath, "emitted_at_nanos");
        let latency = c.num(band, &bpath, "latency_nanos");
        if let (Some(ev), Some(em), Some(lat)) = (event_ts, emitted_at, latency) {
            // The sink computes latency = emitted_at - event_ts (saturating),
            // so the stamp must be internally consistent.
            if lat != (em - ev).max(0.0) {
                c.fail(
                    &bpath,
                    format_args!("latency_nanos {lat} != emitted_at - event_ts {}", em - ev),
                );
            }
        }
        // The band flattens the Attribution fields; reuse the spike validator
        // so the exact-sum and share-sum invariants are enforced, with the
        // band's own measured latency as the total the slices must hit.
        validate_attribution(c, band, &bpath, latency);
    }
}

fn validate_metrics_snapshot(c: &mut Checker, v: &Json, path: &str) {
    let Some(items) = c.arr(v, path, "metrics") else {
        return;
    };
    for (i, m) in items.iter().enumerate() {
        let mpath = format!("{path}.metrics[{i}]");
        let name = c.str(m, &mpath, "name").unwrap_or_default().to_string();
        if !name.is_empty() {
            let mpath = format!("{mpath} ({name})");
            c.string_map(m, &mpath, "tags");
            match c.str(m, &mpath, "type") {
                Some("counter") | Some("gauge") => {
                    c.num(m, &mpath, "value");
                }
                Some("histogram") => c.percentile_summary(m, &mpath),
                Some(other) => c.fail(&mpath, format_args!("unknown metric type '{other}'")),
                None => {}
            }
        }
    }
}

/// Validate a `results/SPIKE_*.json` document against `jet-spike-v1`.
pub fn validate_spike(doc: &Json) -> Vec<String> {
    let mut c = Checker { errors: Vec::new() };
    if !matches!(doc, Json::Obj(_)) {
        return vec![format!("root: is {}, want object", doc.kind())];
    }
    match c.str(doc, "root", "schema") {
        Some("jet-spike-v1") | None => {}
        Some(other) => c.fail("root", format_args!("unknown schema '{other}'")),
    }
    c.str(doc, "root", "bench");
    c.str(doc, "root", "run");
    c.num(doc, "root", "threshold_nanos");
    if let Some(f) = doc.get("fidelity") {
        for key in [
            "trace_ring_dropped",
            "collector_dropped",
            "recorder_evicted",
            "sample_shift",
            "spans_retained",
            "snapshots_retained",
            "observed",
            "suppressed",
        ] {
            c.num(f, "fidelity", key);
        }
    } else {
        c.fail("root", "missing key 'fidelity'");
    }
    let Some(incidents) = c.arr(doc, "root", "incidents") else {
        return c.errors;
    };
    for (i, inc) in incidents.iter().enumerate() {
        let path = format!("incidents[{i}]");
        if !matches!(inc, Json::Obj(_)) {
            c.fail(&path, format_args!("is {}, want object", inc.kind()));
            continue;
        }
        for key in [
            "id",
            "first_detected_nanos",
            "last_detected_nanos",
            "samples",
        ] {
            c.num(inc, &path, key);
        }
        let peak_latency = match inc.get("peak") {
            Some(peak) => {
                let ppath = format!("{path}.peak");
                c.num(peak, &ppath, "event_ts_nanos");
                c.num(peak, &ppath, "emitted_at_nanos");
                c.num(peak, &ppath, "latency_nanos")
            }
            None => {
                c.fail(&path, "missing key 'peak'");
                None
            }
        };
        match inc.get("window") {
            Some(w) => {
                let wpath = format!("{path}.window");
                for key in ["lo_nanos", "hi_nanos", "events", "truncated", "snapshots"] {
                    c.num(w, &wpath, key);
                }
            }
            None => c.fail(&path, "missing key 'window'"),
        }
        match inc.get("attribution") {
            Some(a) => {
                validate_attribution(&mut c, a, &format!("{path}.attribution"), peak_latency)
            }
            None => c.fail(&path, "missing key 'attribution'"),
        }
    }
    c.errors
}

fn validate_attribution(c: &mut Checker, a: &Json, path: &str, peak_latency: Option<f64>) {
    let total = c.num(a, path, "total_nanos");
    c.str(a, path, "top_cause");
    c.str(a, path, "top_group");
    match a.get("blamed_vertex") {
        Some(Json::Str(_)) | Some(Json::Null) => {}
        Some(other) => c.fail(
            path,
            format_args!("'blamed_vertex' is {}, want string or null", other.kind()),
        ),
        None => c.fail(path, "missing key 'blamed_vertex'"),
    }
    let Some(causes) = c.arr(a, path, "causes") else {
        return;
    };
    let mut nanos_sum = 0f64;
    let mut share_sum = 0f64;
    for (j, slice) in causes.iter().enumerate() {
        let spath = format!("{path}.causes[{j}]");
        c.str(slice, &spath, "cause");
        c.str(slice, &spath, "group");
        c.str(slice, &spath, "detail");
        nanos_sum += c.num(slice, &spath, "nanos").unwrap_or(0.0);
        share_sum += c.num(slice, &spath, "share").unwrap_or(0.0);
    }
    // The attribution engine partitions the spike window exactly; a report
    // whose slices don't sum to the spike latency would silently misstate
    // the blame. All values are integer nanos < 2^53, so f64 sums exactly.
    if let Some(total) = total {
        if nanos_sum != total {
            c.fail(
                path,
                format_args!("cause nanos sum to {nanos_sum}, total_nanos is {total}"),
            );
        }
        if let Some(peak) = peak_latency {
            if total != peak {
                c.fail(
                    path,
                    format_args!("total_nanos {total} != peak.latency_nanos {peak}"),
                );
            }
        }
        if total > 0.0 && (share_sum - 1.0).abs() > 1e-3 {
            c.fail(
                path,
                format_args!("cause shares sum to {share_sum}, want 1"),
            );
        }
    }
}

/// Validate a `results/TIMELINE_*.json` document against `jet-timeline-v1`.
///
/// Structural invariants beyond key presence: `ticks_nanos` is strictly
/// monotone (the sampler folds same-instant re-samples), and every series is
/// rectangular — exactly one delta per tick, because late-appearing series
/// are zero-padded at record time.
pub fn validate_timeline(doc: &Json) -> Vec<String> {
    let mut c = Checker { errors: Vec::new() };
    if !matches!(doc, Json::Obj(_)) {
        return vec![format!("root: is {}, want object", doc.kind())];
    }
    match c.str(doc, "root", "schema") {
        Some("jet-timeline-v1") | None => {}
        Some(other) => c.fail("root", format_args!("unknown schema '{other}'")),
    }
    c.str(doc, "root", "bench");
    c.str(doc, "root", "run");
    c.num(doc, "root", "cadence_nanos");
    c.num(doc, "root", "evicted_ticks");
    let mut tick_count = 0usize;
    if let Some(ticks) = c.arr(doc, "root", "ticks_nanos") {
        tick_count = ticks.len();
        let mut prev = f64::NEG_INFINITY;
        for (i, t) in ticks.iter().enumerate() {
            match t {
                Json::Num(n) => {
                    if *n <= prev {
                        c.fail(
                            "root.ticks_nanos",
                            format_args!("not strictly monotone at [{i}]: {prev} then {n}"),
                        );
                    }
                    prev = *n;
                }
                other => c.fail(
                    "root.ticks_nanos",
                    format_args!("[{i}] is {}, want number", other.kind()),
                ),
            }
        }
    }
    let Some(series) = c.arr(doc, "root", "series") else {
        return c.errors;
    };
    for (i, s) in series.iter().enumerate() {
        let spath = format!("series[{i}]");
        if !matches!(s, Json::Obj(_)) {
            c.fail(&spath, format_args!("is {}, want object", s.kind()));
            continue;
        }
        let name = c.str(s, &spath, "name").unwrap_or_default().to_string();
        let spath = if name.is_empty() {
            spath
        } else {
            format!("{spath} ({name})")
        };
        c.string_map(s, &spath, "tags");
        match c.str(s, &spath, "kind") {
            Some("counter") | Some("gauge") | Some("histogram_p99") | None => {}
            Some(other) => c.fail(&spath, format_args!("unknown series kind '{other}'")),
        }
        c.num(s, &spath, "base");
        if let Some(deltas) = c.arr(s, &spath, "deltas") {
            if deltas.len() != tick_count {
                c.fail(
                    &spath,
                    format_args!("has {} delta(s) for {} tick(s)", deltas.len(), tick_count),
                );
            }
            for (j, d) in deltas.iter().enumerate() {
                if !matches!(d, Json::Num(_)) {
                    c.fail(
                        &spath,
                        format_args!("deltas[{j}] is {}, want number", d.kind()),
                    );
                }
            }
        }
    }
    c.errors
}

// ------------------------------------------------------------------ files

/// Validate one results file by name: `BENCH_*`, `SPIKE_*`, and `TIMELINE_*`
/// files get their schema check, anything else is skipped (`Ok(None)`).
pub fn validate_file(file_name: &str, contents: &str) -> Option<Vec<String>> {
    let validator: fn(&Json) -> Vec<String> = if file_name.starts_with("BENCH_") {
        validate_bench
    } else if file_name.starts_with("SPIKE_") {
        validate_spike
    } else if file_name.starts_with("TIMELINE_") {
        validate_timeline
    } else {
        return None;
    };
    match parse(contents) {
        Ok(doc) => Some(validator(&doc)),
        Err(e) => Some(vec![format!("not valid JSON: {e}")]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jet_bench::{BenchReport, RunResult};
    use jet_cluster::{ControllerEvent, Direction};
    use jet_core::flight::{
        Attribution, AttributionReport, BandWaterfall, Cause, CauseSlice, IncidentReport,
        SpikeFidelity, SpikeIncident, SpikeReport, Stamp,
    };
    use jet_core::metrics::MetricsRegistry;
    use jet_core::telemetry::{Timeline, TimelineConfig};
    use jet_util::histogram::Histogram;

    const MS: u64 = 1_000_000;

    #[test]
    fn parser_round_trips_basic_documents() {
        let doc = parse(r#"{"a": [1, -2.5, 1e3], "b": "x\"\\\nA", "c": null, "d": true}"#)
            .expect("parse");
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(1000.0)
        );
        assert_eq!(doc.get("b").unwrap().as_str().unwrap(), "x\"\\\nA");
        assert_eq!(doc.get("c"), Some(&Json::Null));
        assert_eq!(doc.get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "{} trailing", "\"open"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn sample_run_result() -> RunResult {
        let mut hist = Histogram::latency();
        for v in [MS, 2 * MS, 5 * MS, 10 * MS] {
            hist.record(v);
        }
        let reg = MetricsRegistry::new();
        reg.counter(
            "jet_events_in_total",
            jet_core::metrics::tags(&[("vertex", "v")]),
        )
        .add(4);
        RunResult {
            hist,
            outputs: 4,
            inputs: 100,
            virtual_secs: 3.0,
            metrics: reg.snapshot(),
            trace: None,
            diagnostics: None,
            cluster_events: Vec::new(),
            spike: None,
            attribution: Some(sample_attribution_report()),
            timeline: None,
            controller_events: Some(vec![
                ControllerEvent::Decided {
                    at: 15 * MS,
                    direction: Direction::Up,
                    occupancy: 912_345,
                    stall_rate: 2_500,
                    members: 2,
                },
                ControllerEvent::RescaleCompleted {
                    at: 40 * MS,
                    direction: Direction::Up,
                    members: 3,
                },
                ControllerEvent::CooldownEntered {
                    at: 40 * MS,
                    until: 90 * MS,
                },
            ]),
            members_final: 3,
        }
    }

    fn sample_attribution_report() -> AttributionReport {
        AttributionReport {
            observed: 100,
            sampled: 50,
            sample_shift: 1,
            bands: vec![BandWaterfall {
                band: "p99".into(),
                percentile: 99.0,
                target_nanos: 5 * MS,
                stamp: Stamp {
                    event_ts: 100 * MS,
                    emitted_at: 105 * MS,
                    latency: 5 * MS,
                },
                attribution: Attribution {
                    t0: 100 * MS,
                    t1: 105 * MS,
                    total_nanos: 5 * MS,
                    slices: vec![
                        CauseSlice {
                            cause: Cause::TaskletExec,
                            nanos: 3 * MS,
                            share: 0.6,
                            detail: "window-agg".into(),
                        },
                        CauseSlice {
                            cause: Cause::QueueWait,
                            nanos: 2 * MS,
                            share: 0.4,
                            detail: String::new(),
                        },
                    ],
                    top_cause: Cause::TaskletExec,
                    top_group: "compute",
                    blamed_vertex: Some("window-agg".into()),
                },
            }],
        }
    }

    #[test]
    fn real_bench_report_output_conforms() {
        let mut report = BenchReport::new("unit");
        report.param("query", "Q5").param("members", 2);
        report.add_run(
            "case-a",
            &[("rate", "1000".to_string())],
            &sample_run_result(),
        );
        report.add_values("case-b", &[], &[("speedup", 2.5)]);
        let doc = parse(&report.to_json()).expect("producer emits valid JSON");
        let errors = validate_bench(&doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn keystate_fields_conform_when_consistent() {
        let mut report = BenchReport::new("fig_keyscale");
        report.add_values(
            "keys-10k-state",
            &[("keys", "10000".to_string())],
            &[
                ("keys", 10_000.0),
                ("resident_bytes", 480_000.0),
                ("resident_keys", 10_000.0),
                ("bytes_per_key", 48.0),
            ],
        );
        report.add_values("sweep", &[], &[("p9999_ratio", 1.4)]);
        let errors = validate_bench(&parse(&report.to_json()).expect("parse"));
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn keystate_validation_catches_a_lying_bytes_per_key() {
        let mut report = BenchReport::new("fig_keyscale");
        // bytes_per_key disagrees with resident_bytes / resident_keys.
        report.add_values(
            "keys-10k-state",
            &[],
            &[
                ("resident_bytes", 480_000.0),
                ("resident_keys", 10_000.0),
                ("bytes_per_key", 32.0),
            ],
        );
        let errors = validate_bench(&parse(&report.to_json()).expect("parse"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("bytes_per_key") && e.contains("resident_bytes")),
            "{errors:#?}"
        );
    }

    #[test]
    fn keystate_validation_catches_the_nonfinite_sentinel() {
        let mut report = BenchReport::new("fig_keyscale");
        // The producer writes -1 when a value was non-finite (empty store).
        report.add_values(
            "keys-10k-state",
            &[],
            &[("bytes_per_key", f64::NAN), ("resident_bytes", 0.0)],
        );
        let errors = validate_bench(&parse(&report.to_json()).expect("parse"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("'bytes_per_key' is -1, want >= 0")),
            "{errors:#?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing key 'resident_keys'")),
            "{errors:#?}"
        );
    }

    fn sample_spike_report() -> SpikeReport {
        SpikeReport {
            bench: "unit".into(),
            run_label: "crash".into(),
            threshold_nanos: 2 * MS,
            fidelity: SpikeFidelity {
                observed: 100,
                ..SpikeFidelity::default()
            },
            incidents: vec![IncidentReport {
                incident: SpikeIncident {
                    id: 0,
                    first_detected: 150 * MS,
                    last_detected: 150 * MS,
                    samples: 1,
                    peak_latency: 50 * MS,
                    peak_event_ts: 100 * MS,
                    peak_emitted_at: 150 * MS,
                    threshold: 2 * MS,
                },
                window_lo: 80 * MS,
                window_hi: 170 * MS,
                window_events: 4,
                window_truncated: 0,
                window_snapshots: 0,
                attribution: Attribution {
                    t0: 100 * MS,
                    t1: 150 * MS,
                    total_nanos: 50 * MS,
                    slices: vec![
                        CauseSlice {
                            cause: Cause::Recovery,
                            nanos: 30 * MS,
                            share: 0.6,
                            detail: "snapshot 3".into(),
                        },
                        CauseSlice {
                            cause: Cause::FaultDetection,
                            nanos: 20 * MS,
                            share: 0.4,
                            detail: "member \"1\"".into(),
                        },
                    ],
                    top_cause: Cause::Recovery,
                    top_group: "recovery",
                    blamed_vertex: None,
                },
            }],
        }
    }

    #[test]
    fn real_spike_report_output_conforms() {
        let report = sample_spike_report();
        let doc = parse(&report.to_json()).expect("producer emits valid JSON");
        let errors = validate_spike(&doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn spike_validation_catches_a_lying_decomposition() {
        let mut report = sample_spike_report();
        report.incidents[0].attribution.slices[0].nanos = 31 * MS; // no longer sums
        let doc = parse(&report.to_json()).expect("parse");
        let errors = validate_spike(&doc);
        assert!(
            errors.iter().any(|e| e.contains("cause nanos sum")),
            "{errors:#?}"
        );
    }

    #[test]
    fn bench_attribution_catches_a_lying_waterfall() {
        let mut result = sample_run_result();
        // Break the exact-sum invariant: slices no longer sum to the band's
        // measured latency.
        result.attribution.as_mut().unwrap().bands[0]
            .attribution
            .slices[0]
            .nanos = 4 * MS;
        let mut report = BenchReport::new("unit");
        report.add_run("case-a", &[], &result);
        let errors = validate_bench(&parse(&report.to_json()).expect("parse"));
        assert!(
            errors.iter().any(|e| e.contains("cause nanos sum")),
            "{errors:#?}"
        );
    }

    #[test]
    fn bench_attribution_catches_an_inconsistent_stamp() {
        let mut result = sample_run_result();
        let band = &mut result.attribution.as_mut().unwrap().bands[0];
        // latency no longer equals emitted_at - event_ts, and the slices no
        // longer sum to it either: both violations must surface.
        band.stamp.latency = 6 * MS;
        let mut report = BenchReport::new("unit");
        report.add_run("case-a", &[], &result);
        let errors = validate_bench(&parse(&report.to_json()).expect("parse"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("latency_nanos") && e.contains("emitted_at - event_ts")),
            "{errors:#?}"
        );
    }

    #[test]
    fn real_timeline_output_conforms() {
        let timeline = Timeline::with_config(TimelineConfig {
            cadence_nanos: 10 * MS,
            capacity: 8,
        });
        let reg = MetricsRegistry::new();
        let c = reg.counter("jet_events_in_total", jet_core::metrics::tags(&[]));
        for tick in 1..=3u64 {
            c.add(100);
            timeline.record_sample(tick * 10 * MS, &reg.snapshot());
        }
        let doc = parse(&timeline.to_json("unit", "case-a")).expect("producer emits valid JSON");
        let errors = validate_timeline(&doc);
        assert!(errors.is_empty(), "{errors:#?}");
    }

    #[test]
    fn timeline_validation_catches_non_monotone_ticks_and_ragged_series() {
        let json = r#"{
            "schema": "jet-timeline-v1", "bench": "x", "run": "y",
            "cadence_nanos": 1000, "evicted_ticks": 0,
            "ticks_nanos": [1000, 3000, 2000],
            "series": [
                {"name": "jet_a", "tags": {}, "kind": "counter", "base": 0,
                 "deltas": [1, 2]},
                {"name": "jet_b", "tags": {}, "kind": "bogus", "base": 0,
                 "deltas": [1, 2, 3]}
            ]
        }"#;
        let errors = validate_timeline(&parse(json).expect("parse"));
        assert!(
            errors.iter().any(|e| e.contains("not strictly monotone")),
            "{errors:#?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("2 delta(s) for 3 tick(s)")),
            "{errors:#?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("unknown series kind 'bogus'")),
            "{errors:#?}"
        );
    }

    #[test]
    fn controller_validation_catches_bad_timelines() {
        let json = r#"{
            "bench": "x", "params": {},
            "runs": [{"label": "a", "params": {},
                "controller": {"final_members": 0, "events": [
                    {"at": 5000, "kind": "decided", "label": "scale-up",
                     "direction": "sideways", "members": 0},
                    {"at": 4000, "kind": "warp", "label": "?"}
                ]}}]
        }"#;
        let errors = validate_bench(&parse(json).expect("parse"));
        assert!(
            errors.iter().any(|e| e.contains("'final_members' is 0")),
            "{errors:#?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("'members' is 0")),
            "{errors:#?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("want \"up\" or \"down\"")),
            "{errors:#?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("unknown event kind 'warp'")),
            "{errors:#?}"
        );
        assert!(
            errors
                .iter()
                .any(|e| e.contains("'at' 4000 precedes previous event at 5000")),
            "{errors:#?}"
        );
    }

    #[test]
    fn bench_validation_catches_non_monotone_percentiles() {
        let json = r#"{
            "bench": "x", "params": {},
            "runs": [{"label": "a", "params": {},
                "latency_nanos": {"count": 4, "min": 0, "max": 10, "mean": 5.0,
                                  "p50": 6, "p90": 5, "p99": 7, "p999": 8, "p9999": 9}}]
        }"#;
        let errors = validate_bench(&parse(json).expect("parse"));
        assert!(
            errors.iter().any(|e| e.contains("not monotone")),
            "{errors:#?}"
        );
    }

    #[test]
    fn missing_keys_are_reported_with_paths() {
        let errors = validate_spike(&parse(r#"{"schema": "jet-spike-v1"}"#).expect("parse"));
        assert!(errors.iter().any(|e| e.contains("missing key 'bench'")));
        assert!(errors.iter().any(|e| e.contains("missing key 'fidelity'")));
        assert!(errors.iter().any(|e| e.contains("missing key 'incidents'")));
    }

    #[test]
    fn validate_file_dispatches_on_prefix() {
        assert!(validate_file("TRACE_fig9_q5.json", "{}").is_none());
        assert!(validate_file("BENCH_x.json", "not json").unwrap()[0].contains("not valid JSON"));
        assert!(!validate_file("SPIKE_x.json", "{}").unwrap().is_empty());
        assert!(!validate_file("TIMELINE_x.json", "{}").unwrap().is_empty());
    }
}
