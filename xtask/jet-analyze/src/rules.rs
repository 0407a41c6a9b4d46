//! Source-hygiene passes: checks on how a site is written rather than on
//! what a hot root reaches. Each reports under its own class, and
//! `// jet-analyze: allow(<class>) — <reason>` silences a site like any
//! other. Code compiled out of release builds (tests, loom models) is never
//! extracted, so it is exempt here too.
//!
//! * **ordering-comment** — an atomic op naming `SeqCst`, or a `Relaxed`
//!   store/RMW in the lock-free files (`spsc.rs`, `conveyor.rs`,
//!   `trace.rs`), needs an `// ordering:` comment within five lines above
//!   saying why that ordering is right.
//! * **single-item** — `.poll(`/`.poll_lane(`/`.poll_any(` in an
//!   `impl Tasklet for _` or `impl *Tasklet` block pays an acquire load and
//!   a release store per item; the hot path moves events with the bulk
//!   `drain_*` APIs. Control-item sites say why in a `// single-item:`
//!   comment within three lines above.
//! * **metric-name**, **metric-dup**, **span-name** — observability names
//!   are API: dashboards, tests and the flight recorder match on
//!   them. A literal name registered through `.counter(`, `.gauge(`,
//!   `.histogram(` and friends is `jet_`-prefixed snake_case; a counter
//!   ends in `_total`, a gauge or histogram in a unit suffix. A name
//!   registered as two instrument kinds is a `metric-name` conflict; one
//!   (name, kind) registered in two files is a `metric-dup` (same-file
//!   repeats are per-instance instruments). Literal `.intern(` span names
//!   are lowercase kebab-case.

use crate::extract::{allowed, Callee, FnDef, Workspace};
use crate::ordering::atomic_sites;
use crate::{sort_violations, Analysis, Effect, Violation};

const LOCK_FREE_FILES: &[&str] = &["spsc.rs", "conveyor.rs", "trace.rs"];

const SINGLE_ITEM_POLLS: &[&str] = &["poll", "poll_lane", "poll_any"];

/// Registration methods whose first argument is the instrument name, and
/// the kind of instrument they create.
const REGISTRATIONS: &[(&str, &str)] = &[
    ("counter", "counter"),
    ("counter_fn", "counter"),
    ("gauge", "gauge"),
    ("gauge_fn", "gauge"),
    ("histogram", "histogram"),
    ("register_histogram", "histogram"),
];

/// A gauge or histogram name ends in one of these, so readers know what
/// the number means without reading the source.
const UNIT_SUFFIXES: &[&str] = &[
    "_nanos",
    "_bytes",
    "_records",
    "_depth",
    "_capacity",
    "_size",
    "_ratio",
    "_window",
    "_period",
];

struct Finding<'a> {
    class: Effect,
    f: &'a FnDef,
    line: usize,
    pattern: String,
    message: String,
}

/// A literal metric registration.
struct MetricSite<'a> {
    f: &'a FnDef,
    line: usize,
    kind: &'static str,
    name: &'a str,
}

fn base_name(file: &str) -> &str {
    file.rsplit(['/', '\\']).next().unwrap_or(file)
}

pub(crate) fn check(ws: &Workspace, analysis: &mut Analysis) {
    let mut findings = Vec::new();
    ordering_comments(ws, &mut findings);
    let mut metrics = Vec::new();
    for f in &ws.fns {
        single_item_polls(ws, f, &mut findings);
        literal_names(f, &mut findings, &mut metrics);
    }
    metric_collisions(ws, analysis, &metrics, &mut findings);

    let mut violations = Vec::new();
    for x in findings {
        if allowed(ws, x.f, x.line, x.class) {
            analysis.suppressed += 1;
            continue;
        }
        violations.push(Violation {
            effect: x.class,
            file: x.f.file.clone(),
            line: x.line,
            pattern: x.pattern,
            in_fn: x.f.qualified(),
            chain: Vec::new(),
            message: x.message,
        });
    }
    sort_violations(&mut violations);
    analysis.violations.extend(violations);
}

fn ordering_comments<'a>(ws: &'a Workspace, out: &mut Vec<Finding<'a>>) {
    for s in atomic_sites(ws) {
        let lock_free = LOCK_FREE_FILES.contains(&base_name(&s.f.file));
        let needs_reason = s.has("SeqCst") || (lock_free && s.op != "load" && s.has("Relaxed"));
        if needs_reason && !ws.comment_near(&s.f.file, s.line, 5, "ordering:") {
            out.push(Finding {
                class: Effect::OrderingComment,
                f: s.f,
                line: s.line,
                pattern: format!(".{}(", s.op),
                message: format!(
                    "`.{}({})` needs an `// ordering:` comment explaining why the ordering \
                     is right",
                    s.op,
                    s.orderings.join(", ")
                ),
            });
        }
    }
}

fn single_item_polls<'a>(ws: &Workspace, f: &'a FnDef, out: &mut Vec<Finding<'a>>) {
    let tasklet_impl = !f.is_default
        && [&f.self_ty, &f.trait_name]
            .iter()
            .any(|n| n.as_deref().is_some_and(|n| n.contains("Tasklet")));
    if !tasklet_impl {
        return;
    }
    for c in &f.calls {
        let Callee::Method { name, .. } = &c.callee else {
            continue;
        };
        if SINGLE_ITEM_POLLS.contains(&name.as_str())
            && !ws.comment_near(&f.file, c.line, 3, "single-item:")
        {
            out.push(Finding {
                class: Effect::SingleItem,
                f,
                line: c.line,
                pattern: format!(".{name}("),
                message: "per-item `poll` in a tasklet impl pays an atomic round-trip per \
                          event; use the bulk `drain_*` APIs, or say why with a \
                          `// single-item: <reason>` comment"
                    .to_string(),
            });
        }
    }
}

/// Checks every `.method("literal", ..)` metric registration and span
/// intern in `f`, and collects the registrations for the workspace-wide
/// collision check.
fn literal_names<'a>(f: &'a FnDef, out: &mut Vec<Finding<'a>>, metrics: &mut Vec<MetricSite<'a>>) {
    let b = &f.raw_body;
    for i in 0..b.len().saturating_sub(4) {
        let (Some(method), Some(name)) = (b[i + 1].ident(), b[i + 3].str_lit()) else {
            continue;
        };
        if !b[i].is_punct('.')
            || !b[i + 2].is_punct('(')
            || !(b[i + 4].is_punct(',') || b[i + 4].is_punct(')'))
        {
            continue;
        }
        let line = b[i + 1].line;
        let problem = if method == "intern" {
            let kebab = name.starts_with(|c: char| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || ".-_".contains(c));
            (!kebab).then(|| (Effect::SpanName, "is not lowercase kebab-case".to_string()))
        } else if let Some(&(_, kind)) = REGISTRATIONS.iter().find(|(m, _)| *m == method) {
            metrics.push(MetricSite {
                f,
                line,
                kind,
                name,
            });
            metric_name_problem(name, kind).map(|p| (Effect::MetricName, p))
        } else {
            None
        };
        if let Some((class, problem)) = problem {
            out.push(Finding {
                class,
                f,
                line,
                pattern: format!(".{method}("),
                message: format!("name `{name}` {problem}"),
            });
        }
    }
}

fn metric_name_problem(name: &str, kind: &str) -> Option<String> {
    let snake = name.starts_with("jet_")
        && !name.ends_with('_')
        && !name.contains("__")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if !snake {
        Some("is not `jet_`-prefixed snake_case".to_string())
    } else if kind == "counter" && !name.ends_with("_total") {
        Some("is a counter but does not end in `_total`".to_string())
    } else if kind != "counter" && !UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
        Some(format!(
            "is a {kind} but ends in no unit suffix ({})",
            UNIT_SUFFIXES.join(", ")
        ))
    } else {
        None
    }
}

/// A name registered as two instrument kinds breaks every consumer keyed on
/// it. The same (name, kind) registered in a second file collides in the
/// metrics timeline and merged snapshots; an allow on either site marks
/// registries that are genuinely distinct.
fn metric_collisions<'a>(
    ws: &Workspace,
    analysis: &mut Analysis,
    sites: &[MetricSite<'a>],
    out: &mut Vec<Finding<'a>>,
) {
    for (i, site) in sites.iter().enumerate() {
        let earlier = &sites[..i];
        let Some(first) = earlier.iter().find(|s| s.name == site.name) else {
            continue;
        };
        let (class, message) = if first.kind != site.kind {
            let message = format!(
                "`{}` is registered as a {} here but as a {} at {}:{}",
                site.name, site.kind, first.kind, first.f.file, first.line
            );
            (Effect::MetricName, message)
        } else if let Some(prev) = earlier
            .iter()
            .find(|s| s.name == site.name && s.kind == site.kind && s.f.file != site.f.file)
        {
            if allowed(ws, prev.f, prev.line, Effect::MetricDup) {
                analysis.suppressed += 1;
                continue;
            }
            let message = format!(
                "`{}` ({}) is already registered at {}:{}; a second registration collides \
                 in the metrics timeline and merged snapshots",
                site.name, site.kind, prev.f.file, prev.line
            );
            (Effect::MetricDup, message)
        } else {
            continue;
        };
        out.push(Finding {
            class,
            f: site.f,
            line: site.line,
            pattern: format!("`{}`", site.name),
            message,
        });
    }
}
