//! `BENCHMARK.json` and the benchmark's output name the same things: every
//! workload and metric the contract lists is printed exactly once per run,
//! with the listed unit, and nothing else is.

use jet_benchmark::report::{metrics_of, parse, RunReport, END_TO_END, PER_LAYER};
use jet_benchmark::workloads::WORKLOADS;

fn contract() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the array stored under `key` (sections hold no nested arrays).
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json.find(&format!("\"{key}\"")).expect(key);
    let open = at + json[at..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    &json[open..=close]
}

/// Every value stored under `field` in `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let marker = format!("\"{field}\": \"");
    text.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn workloads_match_the_contract() {
    let json = contract();
    let listed = strings(section(&json, "workloads"), "name");
    let built: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, built);
    assert!(listed.iter().all(|n| valid_name(n)));
    let whys = strings(section(&json, "workloads"), "why");
    assert_eq!(whys.len(), listed.len());
    assert!(whys.iter().all(|w| !w.is_empty() && w.len() <= 200));
}

/// Render a run with placeholder values and read it back the way the
/// orchestrating mode does.
fn printed(table: &[(&'static str, &'static str)]) -> Vec<(String, String)> {
    let values = vec![1.5; table.len()];
    let report = RunReport {
        metrics: metrics_of(table, &values),
        attempted: 1,
        failed: 0,
        notes: Vec::new(),
    };
    let text = report.render();
    let (metrics, _, _) = parse(&text).expect("own output parses");
    // The JSON line carries the same names, once each.
    let last = text.lines().last().unwrap();
    for (name, _, _) in &metrics {
        assert_eq!(last.matches(&format!("\"{name}\":")).count(), 1, "{name}");
    }
    metrics.into_iter().map(|(n, _, u)| (n, u)).collect()
}

fn check_section(key: &str, table: &[(&'static str, &'static str)]) {
    let json = contract();
    let text = section(&json, key);
    let listed: Vec<(String, String)> = strings(text, "name")
        .into_iter()
        .zip(strings(text, "unit"))
        .collect();
    assert_eq!(listed, printed(table), "{key}");
    let mut names: Vec<&String> = listed.iter().map(|(n, _)| n).collect();
    assert!(names.iter().all(|n| valid_name(n)));
    names.sort();
    names.dedup();
    assert_eq!(names.len(), listed.len(), "{key}: a name is used twice");
    for better in strings(text, "better") {
        assert!(better == "lower" || better == "higher", "{better}");
    }
}

#[test]
fn end_to_end_metrics_match_the_contract() {
    check_section("end_to_end", &END_TO_END);
    let json = contract();
    let text = section(&json, "end_to_end");
    assert!(text.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    for bound in text.split("\"bound\": ").skip(1) {
        let value: f64 = bound[..bound.find(['}', ',']).unwrap()]
            .trim()
            .parse()
            .unwrap();
        assert!(value > 0.0 && value <= 0.25, "{value}");
    }
}

#[test]
fn per_layer_metrics_match_the_contract() {
    check_section("per_layer", &PER_LAYER);
}

#[test]
fn command_and_paths_stay_inside_the_benchmark() {
    let json = contract();
    assert!(json.contains("\"command\": [\"bash\", \"benchmark/run.sh\"]"));
    assert!(json.contains("\"paths\": [\"benchmark\"]"));
    assert!(json.len() <= 64 * 1024);
}
