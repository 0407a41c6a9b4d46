//! CLI for jet-analyze, the workspace's source checker.
//!
//! ```text
//! cargo run -p jet-analyze                  # whole workspace + baseline
//! cargo run -p jet-analyze -- <ROOT>        # workspace at another root
//! cargo run -p jet-analyze -- --paths a.rs dir/ [--baseline FILE]
//! cargo run -p jet-analyze -- --report out.txt
//! ```
//!
//! Exit codes: 0 clean (or every violation baselined), 1 violations or
//! annotation errors, 2 usage/IO/baseline-parse errors.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut baseline_file: Option<PathBuf> = None;
    let mut report_file: Option<PathBuf> = None;
    let mut mode_paths = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paths" => mode_paths = true,
            "--baseline" => {
                i += 1;
                let Some(f) = args.get(i) else {
                    eprintln!("jet-analyze: --baseline needs a file argument");
                    return ExitCode::from(2);
                };
                baseline_file = Some(PathBuf::from(f));
            }
            "--report" => {
                i += 1;
                let Some(f) = args.get(i) else {
                    eprintln!("jet-analyze: --report needs a file argument");
                    return ExitCode::from(2);
                };
                report_file = Some(PathBuf::from(f));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: jet-analyze [ROOT] [--report FILE]\n       \
                     jet-analyze --paths FILE_OR_DIR... [--baseline FILE] [--report FILE]"
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("jet-analyze: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
            other => {
                if mode_paths {
                    paths.push(PathBuf::from(other));
                } else if root.is_none() {
                    root = Some(PathBuf::from(other));
                } else {
                    eprintln!("jet-analyze: more than one ROOT given (try --help)");
                    return ExitCode::from(2);
                }
            }
        }
        i += 1;
    }

    let analysis = if mode_paths {
        if paths.is_empty() {
            eprintln!("jet-analyze: --paths needs at least one file or directory");
            return ExitCode::from(2);
        }
        let baseline = match &baseline_file {
            Some(f) => match std::fs::read_to_string(f)
                .map_err(|e| e.to_string())
                .and_then(|t| jet_analyze::parse_baseline(&t))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("jet-analyze: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            },
            None => Vec::new(),
        };
        match jet_analyze::analyze_paths(&paths, &baseline) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("jet-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        // Default root: the workspace this tool is built inside.
        let root = root.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
        });
        match jet_analyze::analyze_workspace(&root) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("jet-analyze: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let report = analysis.render_report();
    print!("{report}");
    if let Some(f) = &report_file {
        if let Err(e) = std::fs::write(f, &report) {
            eprintln!("jet-analyze: writing {}: {e}", f.display());
            return ExitCode::from(2);
        }
    }
    if analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
