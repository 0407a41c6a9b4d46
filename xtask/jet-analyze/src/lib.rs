//! jet-analyze: the workspace's one source checker.
//!
//! The engine's tail-latency story rests on one invariant (paper §3.2): a
//! tasklet's `call()` on a shared cooperative worker never blocks, never
//! allocates on the steady path, never panics, and never reads the wall
//! clock per record. This tool proves the property *transitively*: it
//! parses every crate (via the vendored mini-`syn`), builds a best-effort
//! call graph, marks the hot roots, and reports every forbidden effect
//! reachable from them — with the full call chain
//! (`call() → flush_outbox() → grow()`). Two more passes run over the same
//! item tree: the release/acquire pairing audit and the source-hygiene
//! rules (ordering comments, single-item polls, observability names; see
//! `rules.rs`).
//!
//! ## Effect lattice
//!
//! * **alloc** — heap allocation or growth: `Box::new`/`Arc::new`/`vec!`,
//!   `Vec`/`String`/map growth methods (`push`, `extend`, `insert`, ...),
//!   `.to_vec()`/`.to_string()`/`.to_owned()`/`.collect()`, and `.clone()`
//!   on owning types (`Arc`/`Rc` handle clones are refcount bumps and are
//!   exempt when the receiver type is known).
//! * **block** — blocking primitives: `.lock()`, `.recv()`, `.wait()`,
//!   zero-argument `.join()`, `thread::sleep`/`park`, `println!` (stdout
//!   lock).
//! * **panic** — panic-capable paths: `panic!`/`unreachable!`/`todo!`/
//!   `assert!`-family, `.unwrap()`/`.expect()`, and `format!`
//!   (formatting runs arbitrary `Display` impls and allocates).
//!   `debug_assert!` is exempt: it compiles out of release builds, which
//!   is what the hot path runs.
//! * **instant** — wall-clock reads: `Instant::now`, `SystemTime::now`,
//!   `.elapsed()`.
//!
//! ## Root set
//!
//! Every `impl Tasklet for _` `call`, the `Processor` hot methods
//! (`process`, `try_process_watermark`, `complete`, `complete_edge`), the
//! jet-queue bulk transfer APIs, the trace-ring writers, and the exec
//! worker loops. `save_snapshot`/restore are *not* roots: snapshot staging
//! is cadence-bounded control work whose cost the flight recorder measures
//! and attributes separately.
//!
//! ## Escapes
//!
//! * `// jet-analyze: allow(<class>) — <reason>` on the offending line
//!   (or ≤2 lines above) suppresses one site of any check class; placed
//!   above a `fn` it covers the whole body. A missing reason is itself a
//!   violation.
//! * `// jet-analyze: cold — <reason>` (or `#[cold]`) marks a fn or a
//!   call site as off the hot path: traversal stops there.
//! * `analyze-baseline.toml` allowlists audited violations by
//!   `(class, containing fn, pattern)` so pre-existing sites are explicit
//!   and new regressions fail CI. Baselined chains are still reported.
//! * Baseline entries and inline annotations that suppressed nothing in
//!   the run are reported as stale, so an escape cannot outlive the code
//!   it excused.
//!
//! ## A second pass: release/acquire pairing
//!
//! Every `store(Release)` on a field must have a matching `load(Acquire)`
//! somewhere in the workspace and vice versa (RMWs and SeqCst count for
//! the side(s) they order): not just "has an `// ordering:` comment" but
//! "has a partner". Fields are keyed by name workspace-wide — coarse, but
//! one-sided protocols are exactly the bug class loom found in the SPSC
//! ring's early drafts.
//!
//! ## Known soundness holes (documented, deliberate)
//!
//! Receiver types are resolved heuristically (`self.field` through struct
//! field declarations, everything else by method-name match), so dyn-trait
//! calls fan out to *all* impls (over-approximation) while calls on
//! untyped locals fall back to name matching (under-approximation when a
//! name is neither workspace-defined nor in the effect tables). Implicit
//! calls — `Drop` glue, operator overloads, index panics, `?` conversions
//! — are invisible. `mod foo;` resolution is by directory walk, not by
//! module graph, so `#[path]` tricks are unseen.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

mod baseline;
mod extract;
mod graph;
mod ordering;
mod rules;

pub use baseline::{parse_baseline, BaselineEntry};

/// One check class: a forbidden effect the reachability pass traces from
/// the hot roots, the pairing pass's `ordering`, or a source-hygiene rule.
/// Its name is what `allow(..)` annotations and baseline entries say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effect {
    Alloc,
    Block,
    Panic,
    Instant,
    Ordering,
    OrderingComment,
    SingleItem,
    MetricName,
    MetricDup,
    SpanName,
}

impl Effect {
    pub const ALL: [Effect; 10] = [
        Effect::Alloc,
        Effect::Block,
        Effect::Panic,
        Effect::Instant,
        Effect::Ordering,
        Effect::OrderingComment,
        Effect::SingleItem,
        Effect::MetricName,
        Effect::MetricDup,
        Effect::SpanName,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "alloc",
            Effect::Block => "block",
            Effect::Panic => "panic",
            Effect::Instant => "instant",
            Effect::Ordering => "ordering",
            Effect::OrderingComment => "ordering-comment",
            Effect::SingleItem => "single-item",
            Effect::MetricName => "metric-name",
            Effect::MetricDup => "metric-dup",
            Effect::SpanName => "span-name",
        }
    }

    pub fn parse(s: &str) -> Option<Effect> {
        Effect::ALL.into_iter().find(|e| e.name() == s)
    }

    /// Every class name, for error messages.
    pub fn known() -> String {
        Effect::ALL.map(Effect::name).join(", ")
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One hop of a call chain: the fn and the line of the call site leading
/// to the next hop (for the last hop, the line of the effect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// `Type::fn` or bare `fn`.
    pub fn_name: String,
    pub file: String,
    pub line: usize,
}

/// A forbidden effect reachable from a hot root (or an unpaired atomic
/// ordering, for which `chain` is empty).
#[derive(Debug, Clone)]
pub struct Violation {
    pub effect: Effect,
    pub file: String,
    pub line: usize,
    /// The matched pattern: `` `.push_back(` `` , `` `format!` `` , an
    /// ordering-pass tag, ...
    pub pattern: String,
    /// Qualified containing fn: `crates/.../file.rs::Type::fn` (for the
    /// ordering pass: `field:<name>`).
    pub in_fn: String,
    /// Root-to-effect path; `chain[0]` is the root.
    pub chain: Vec<ChainHop>,
    pub message: String,
}

impl Violation {
    /// The identity the baseline matches on (line-number free, so pure
    /// reformatting does not invalidate entries).
    pub fn baseline_key(&self) -> (String, String, String) {
        (
            self.effect.name().to_string(),
            self.in_fn.clone(),
            self.pattern.clone(),
        )
    }

    /// `call → flush_outbox → grow → `.push(`` — the one-line chain.
    pub fn compact_chain(&self) -> String {
        let mut s = String::new();
        for hop in &self.chain {
            s.push_str(&hop.fn_name);
            s.push_str(" → ");
        }
        s.push_str(&self.pattern);
        s
    }

    /// Multi-line report block with one hop per line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "[{}] {}:{}: {} in {}\n",
            self.effect, self.file, self.line, self.pattern, self.in_fn
        );
        if !self.chain.is_empty() {
            for (i, hop) in self.chain.iter().enumerate() {
                let arrow = if i == 0 { "  " } else { "  → " };
                s.push_str(&format!(
                    "{arrow}{} ({}:{})\n",
                    hop.fn_name, hop.file, hop.line
                ));
            }
            s.push_str(&format!(
                "  → {} at {}:{} [{}]\n",
                self.pattern, self.file, self.line, self.effect
            ));
        } else {
            s.push_str(&format!("  {}\n", self.message));
        }
        s
    }
}

/// Result of one analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Violations not covered by the baseline: these fail the run.
    pub violations: Vec<Violation>,
    /// Violations matched by a baseline entry: reported, not failing.
    pub baselined: Vec<Violation>,
    /// Annotation problems (e.g. an `allow` with no reason): failing.
    pub annotation_errors: Vec<String>,
    /// Baseline entries that matched nothing (warn: prune them).
    pub stale_baseline: Vec<String>,
    /// Inline `allow(..)`/`cold` annotations that suppressed nothing
    /// (warn: delete them).
    pub stale_annotations: Vec<String>,
    pub files_scanned: usize,
    pub fns_indexed: usize,
    pub roots: usize,
    /// Effect sites suppressed by inline `allow` annotations.
    pub suppressed: usize,
}

impl Analysis {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.annotation_errors.is_empty()
    }

    /// Full human-readable report (what CI uploads as the artifact).
    pub fn render_report(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&v.render());
            s.push('\n');
        }
        if !self.violations.is_empty() {
            s.push_str(&format!(
                "jet-analyze: {} violation(s) not covered by the baseline\n",
                self.violations.len()
            ));
        }
        for e in &self.annotation_errors {
            s.push_str(&format!("annotation error: {e}\n"));
        }
        if !self.baselined.is_empty() {
            s.push_str(&format!(
                "\n{} baselined violation(s) (audited, allowed):\n",
                self.baselined.len()
            ));
            for v in &self.baselined {
                s.push_str(&format!("  [{}] {}\n", v.effect, v.compact_chain()));
            }
        }
        for e in &self.stale_baseline {
            s.push_str(&format!("stale baseline entry (matched nothing): {e}\n"));
        }
        for e in &self.stale_annotations {
            s.push_str(&format!("stale annotation (suppressed nothing): {e}\n"));
        }
        s.push_str(&format!(
            "jet-analyze: {} files, {} fns, {} hot roots; {} failing, {} baselined, {} inline-allowed\n",
            self.files_scanned,
            self.fns_indexed,
            self.roots,
            self.violations.len(),
            self.baselined.len(),
            self.suppressed
        ));
        s
    }
}

/// Analyze a set of source files (labels are the paths as given). Used by
/// the fixture tests and `--paths` CLI mode.
pub fn analyze_sources(sources: &[(String, String)], baseline: &[BaselineEntry]) -> Analysis {
    let mut ws = extract::Workspace::default();
    let mut annotation_errors = Vec::new();
    for (label, src) in sources {
        extract::extract_file(label, src, &mut ws, &mut annotation_errors);
    }
    ws.build_indexes();
    let mut analysis = graph::analyze(&ws);
    ordering::check_pairing(&ws, &mut analysis);
    rules::check(&ws, &mut analysis);
    analysis.stale_annotations = extract::stale_annotations(&ws);
    analysis.annotation_errors.extend(annotation_errors);
    apply_baseline(&mut analysis, baseline);
    analysis.files_scanned = sources.len();
    analysis
}

/// Split raw violations into failing vs baselined, and spot stale entries.
fn apply_baseline(analysis: &mut Analysis, baseline: &[BaselineEntry]) {
    if baseline.is_empty() {
        return;
    }
    let mut used = vec![false; baseline.len()];
    let mut failing = Vec::new();
    let mut allowed = std::mem::take(&mut analysis.baselined);
    for v in std::mem::take(&mut analysis.violations) {
        let key = v.baseline_key();
        match baseline.iter().position(|b| b.matches(&key)) {
            Some(i) => {
                used[i] = true;
                allowed.push(v);
            }
            None => failing.push(v),
        }
    }
    analysis.stale_baseline = baseline
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(b, _)| format!("{} | {} | {}", b.effect, b.site, b.pattern))
        .collect();
    analysis.violations = failing;
    analysis.baselined = allowed;
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load sources from arbitrary files/directories (fixture mode).
pub fn analyze_paths(paths: &[PathBuf], baseline: &[BaselineEntry]) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        sources.push((
            f.to_string_lossy().into_owned(),
            std::fs::read_to_string(f)?,
        ));
    }
    Ok(analyze_sources(&sources, baseline))
}

/// Analyze the workspace rooted at `root`: every `.rs` under
/// `crates/*/src`, with the baseline at `root/analyze-baseline.toml` (when
/// present). Vendored stand-ins and the xtask tools themselves are out of
/// scope on purpose.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let dir = entry?.path().join("src");
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for f in &files {
        let label = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        sources.push((label, std::fs::read_to_string(f)?));
    }
    let baseline_path = root.join("analyze-baseline.toml");
    let baseline = if baseline_path.is_file() {
        parse_baseline(&std::fs::read_to_string(&baseline_path)?)
            .map_err(|e| std::io::Error::other(format!("analyze-baseline.toml: {e}")))?
    } else {
        Vec::new()
    };
    Ok(analyze_sources(&sources, &baseline))
}

/// Stable ordering for reports: effect class, then file, then line.
pub(crate) fn sort_violations(vs: &mut [Violation]) {
    vs.sort_by(|a, b| {
        (a.effect, &a.file, a.line, &a.pattern).cmp(&(b.effect, &b.file, b.line, &b.pattern))
    });
}

/// Dedup helper used by the graph pass: one report per effect site.
pub(crate) type SiteKey = (Effect, String, usize, String);
pub(crate) type SeenSites = BTreeMap<SiteKey, ()>;
