//! Command line of the benchmark. `run.sh` builds this binary and execs it.
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--oracle 1]` — one run
//!   of one workload in this process; the last line of stdout is the JSON
//!   result the driver reads.
//! * no `--workload` — every workload untraced, then every workload traced,
//!   one child process per run, then the tables.
//! * `--calibrate K` — K untraced sets (seeds `N..N+K`) and the spread of
//!   every end-to-end metric × workload.
//! * `--smoke` — every workload untraced for 2 s, with the output oracle on.

use jet_benchmark::report::{self, quartile_spread, ParsedMetrics, END_TO_END};
use jet_benchmark::run::{run_oracle, run_traced, run_untraced};
use jet_benchmark::workloads::{by_name, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 20;
/// Spread above which a metric × workload cannot resolve a regression.
const UNRESOLVED_SPREAD: f64 = 0.30;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    oracle: bool,
    calibrate: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = Some(number()?.clamp(1, 60)),
            "--trace" => args.trace = number()? != 0,
            "--oracle" => args.oracle = number()? != 0,
            "--calibrate" => args.calibrate = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn header(seed: u64, seconds: u64) {
    println!(
        "# jet-benchmark: available_parallelism {}, {}, profile {}{}, seed {seed}, seconds {seconds}, commit {}",
        cores(),
        env_or_unknown("JET_BENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        if cfg!(debug_assertions) { " (NOT a measurement build)" } else { "" },
        env_or_unknown("JET_BENCH_COMMIT"),
    );
}

/// One workload, in this process.
fn run_one(name: &str, seed: u64, seconds: u64, trace: bool, oracle: bool) -> Result<bool, String> {
    let w = by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    header(seed, seconds);
    println!("# workload {} trace {}", w.name, trace as u8);
    if oracle {
        println!("# {}", run_oracle(w, seed)?);
    }
    let report = if trace {
        let out = std::env::var("JET_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".into());
        let spans = std::path::Path::new(&out).join(format!("trace_{}.json", w.name));
        run_traced(w, seed, seconds, &spans)?
    } else {
        run_untraced(w, seed, seconds)?
    };
    print!("{}", report.render());
    Ok(report.correct())
}

/// One workload, in a child process of its own (so memory and allocator
/// state do not leak between runs). Echoes the child's output minus its
/// JSON line.
fn run_child(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    oracle: bool,
) -> Result<ParsedMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--oracle", if oracle { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{name} (trace {}) failed: {}",
            trace as u8, out.status
        ));
    }
    let (metrics, _, failed) =
        report::parse(&text).ok_or(format!("{name}: unreadable child output"))?;
    if failed > 0 {
        return Err(format!("{name}: {failed} events failed"));
    }
    Ok(metrics)
}

/// Print one table: a row per metric, a column per workload.
fn table(title: &str, columns: &[(&str, ParsedMetrics)]) {
    println!("\n== {title} ==");
    print!("{:<42} {:>6}", "metric", "unit");
    for (name, _) in columns {
        print!(" {name:>14}");
    }
    println!();
    for (row, (metric, _, unit)) in columns[0].1.iter().enumerate() {
        print!("{metric:<42} {unit:>6}");
        for (_, metrics) in columns {
            let value = metrics[row].1;
            // Sub-unit values (set-up seconds, ratios) need the extra digits.
            if value.abs() < 1.0 {
                print!(" {value:>14.6}");
            } else {
                print!(" {value:>14.3}");
            }
        }
        println!();
    }
}

/// Every workload untraced, then (unless `smoke`) traced, then the tables.
/// The smoke run turns the output oracle on instead.
fn run_all(seed: u64, seconds: u64, smoke: bool) -> Result<(), String> {
    let mut tables = Vec::new();
    for trace in [false, true] {
        if trace && smoke {
            break;
        }
        let mut columns = Vec::new();
        for w in &WORKLOADS {
            let metrics = run_child(w.name, seed, seconds, trace, smoke)?;
            columns.push((w.name, metrics));
        }
        tables.push(columns);
    }
    table("end to end (tracing off)", &tables[0]);
    if let Some(traced) = tables.get(1) {
        table("per layer (traced run)", traced);
    }
    println!("\nall workloads correct: events_failed = 0");
    Ok(())
}

/// `sets` untraced sets on consecutive seeds; per metric × workload the
/// spread of its values, as the driver computes it and as max − min.
fn calibrate(seed: u64, seconds: u64, sets: usize) -> Result<(), String> {
    let mut runs: Vec<Vec<ParsedMetrics>> = Vec::new();
    for set in 0..sets {
        println!("# calibration set {} of {sets}", set + 1);
        let mut row = Vec::new();
        for w in &WORKLOADS {
            row.push(run_child(w.name, seed + set as u64, seconds, false, false)?);
        }
        runs.push(row);
    }
    println!(
        "\n== calibration: {sets} sets, seeds {seed}..{} ==",
        seed + sets as u64 - 1
    );
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "min", "median", "max", "iqr/med", "range/med"
    );
    let mut unresolved = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, (metric, _)) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|set| set[wi][mi].1).collect();
            let med = jet_benchmark::estimator::median(&values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(0.0, f64::max);
            let range = (max - min) / med;
            println!(
                "{:<14} {:<22} {:>14.3} {:>14.3} {:>14.3} {:>9.4} {:>9.4}{}",
                w.name,
                metric,
                min,
                med,
                max,
                quartile_spread(&values),
                range,
                if range > UNRESOLVED_SPREAD {
                    "  unresolved"
                } else {
                    ""
                }
            );
            if range > UNRESOLVED_SPREAD {
                unresolved.push(format!("{} {metric} ({range:.3})", w.name));
            }
        }
    }
    if unresolved.is_empty() {
        println!("\nno unresolved metric x workload pair");
    } else {
        println!(
            "\nunresolved (range/median > {UNRESOLVED_SPREAD}): {}",
            unresolved.join(", ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jet-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cores() < 2 {
        eprintln!(
            "jet-benchmark: needs at least 2 cores (one worker, one harness); found {}",
            cores()
        );
        return ExitCode::from(2);
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 2 } else { DEFAULT_SECONDS });
    let outcome = match (&args.workload, args.calibrate) {
        (Some(name), _) => run_one(name, seed, seconds, args.trace, args.oracle),
        (None, Some(sets)) => calibrate(seed, seconds, sets).map(|()| true),
        (None, None) => run_all(seed, seconds, args.smoke).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("jet-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
