//! Atomic release/acquire pairing audit.
//!
//! Every `store(Release)` on a struct field must have a matching
//! `load(Acquire)` on the same field somewhere in the workspace, and vice
//! versa — a one-sided protocol publishes data nobody safely observes (or
//! observes data nobody published), which is exactly the bug class loom
//! caught in the SPSC ring's early drafts. RMWs and `compare_exchange`
//! count for whichever side(s) their orderings carry; `SeqCst` counts for
//! both; a standalone `fence(Acquire)`/`fence(Release)` anywhere in the
//! workspace satisfies that side globally (fence-based pairing is legal
//! and too coarse to attribute per-field).
//!
//! Fields are keyed by *name* workspace-wide. That is deliberately coarse:
//! it keeps the audit independent of the receiver-type heuristics, and
//! same-named atomic fields with different protocols would be a lint-worthy
//! naming hazard anyway. Only calls whose arguments mention a memory
//! `Ordering` are considered, so ordinary `store`/`swap` methods on
//! non-atomic types never match.

use crate::extract::{allowed, FnDef, Recv, Workspace, ORDERINGS};
use crate::{sort_violations, Analysis, Effect, Violation};
use std::collections::BTreeMap;
use syn::{Token, TokenKind};

const RMW_OPS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// One atomic op: a `store`/`load`/RMW call whose arguments name a memory
/// `Ordering`.
pub(crate) struct AtomicSite<'a> {
    pub f: &'a FnDef,
    pub line: usize,
    pub op: String,
    /// Orderings named in the call arguments.
    pub orderings: Vec<String>,
    /// The atomic's field: the last hop of the receiver chain
    /// (`self.shared.head.store(..)` → `head`).
    pub field: Option<String>,
}

impl AtomicSite<'_> {
    pub fn has(&self, o: &str) -> bool {
        self.orderings.iter().any(|x| x == o)
    }

    fn release_side(&self) -> bool {
        let strong = self.has("Release") || self.has("AcqRel") || self.has("SeqCst");
        match self.op.as_str() {
            "store" => strong,
            "load" => false,
            _ => strong, // RMW / compare_exchange
        }
    }

    fn acquire_side(&self) -> bool {
        let strong = self.has("Acquire") || self.has("AcqRel") || self.has("SeqCst");
        match self.op.as_str() {
            "load" => self.has("Acquire") || self.has("SeqCst"),
            "store" => false,
            _ => strong,
        }
    }
}

/// Collect the `Ordering` idents inside the call parens starting at `open`,
/// with those an `Ordering` const named there stands for.
fn orderings_in_args(ws: &Workspace, b: &[Token], open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < b.len() {
        match &b[j].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident(i) if ORDERINGS.contains(&i.as_str()) => out.push(i.clone()),
            TokenKind::Ident(i) => {
                if let Some(os) = ws.ordering_consts.get(i) {
                    out.extend(os.iter().cloned());
                }
            }
            _ => {}
        }
        j += 1;
    }
    out
}

/// Find the `(` index for the method call at `.``name``(`, handling the
/// same turbofish shape as the extractor.
fn paren_after(b: &[Token], name_idx: usize) -> Option<usize> {
    let mut j = name_idx + 1;
    if b.get(j).is_some_and(|t| t.is_punct(':'))
        && b.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && b.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        j += 2;
        let mut depth = 0i32;
        while j < b.len() {
            if b[j].is_punct('<') {
                depth += 1;
            } else if b[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    b.get(j).is_some_and(|t| t.is_punct('(')).then_some(j)
}

/// Every atomic op in every fn body (including `Drop` impls the call graph
/// cannot reach). Re-scans the raw tokens: the extractor's call list has no
/// argument info, and the orderings are in the arguments.
pub(crate) fn atomic_sites(ws: &Workspace) -> Vec<AtomicSite<'_>> {
    let mut sites = Vec::new();
    for f in &ws.fns {
        let b: &[Token] = &f.raw_body;
        for i in 0..b.len() {
            if !b[i].is_punct('.') {
                continue;
            }
            let Some(op) = b.get(i + 1).and_then(Token::ident) else {
                continue;
            };
            if op != "store" && op != "load" && !RMW_OPS.contains(&op) {
                continue;
            }
            let Some(open) = paren_after(b, i + 1) else {
                continue;
            };
            let orderings = orderings_in_args(ws, b, open);
            if orderings.is_empty() {
                continue; // not an atomic op (or ordering passed indirectly)
            }
            let field = match crate::extract::receiver_pub(b, i) {
                Recv::Chain { segs, .. } => segs.last().map(|s| s.name.clone()),
                Recv::SelfDirect | Recv::Other => None,
            };
            sites.push(AtomicSite {
                f,
                line: b[i + 1].line,
                op: op.to_string(),
                orderings,
                field: field.filter(|n| n != "self"),
            });
        }
    }
    sites
}

/// Gather the atomic ops per field, then flag one-sided pairs.
pub(crate) fn check_pairing(ws: &Workspace, analysis: &mut Analysis) {
    let mut by_field: BTreeMap<String, Vec<AtomicSite>> = BTreeMap::new();
    for site in atomic_sites(ws) {
        if let Some(field) = site.field.clone() {
            by_field.entry(field).or_default().push(site);
        }
    }
    let mut fence_release = false;
    let mut fence_acquire = false;
    for f in &ws.fns {
        // `fence(Ordering::X)` free calls.
        let b: &[Token] = &f.raw_body;
        for i in 0..b.len() {
            if b[i].is_ident("fence")
                && (i == 0 || !b[i - 1].is_punct('.'))
                && b.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                let os = orderings_in_args(ws, b, i + 1);
                fence_release |= os
                    .iter()
                    .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst");
                fence_acquire |= os
                    .iter()
                    .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst");
            }
        }
    }

    let mut violations = Vec::new();
    for (field, sites) in &by_field {
        let releases: Vec<&AtomicSite> = sites.iter().filter(|s| s.release_side()).collect();
        let acquires: Vec<&AtomicSite> = sites.iter().filter(|s| s.acquire_side()).collect();
        let checks = [
            (
                &releases,
                !acquires.is_empty() || fence_acquire,
                "release-unpaired",
                "store(Release)",
                "load(Acquire)",
            ),
            (
                &acquires,
                !releases.is_empty() || fence_release,
                "acquire-unpaired",
                "load(Acquire)",
                "store(Release)",
            ),
        ];
        for (present, partnered, tag, this_side, missing_side) in checks {
            if present.is_empty() || partnered {
                continue;
            }
            if present
                .iter()
                .any(|s| allowed(ws, s.f, s.line, Effect::Ordering))
            {
                analysis.suppressed += 1;
                continue;
            }
            let first = present[0];
            let sites_text = present
                .iter()
                .map(|s| format!("{}:{} ({})", s.f.file, s.line, s.f.qualified()))
                .collect::<Vec<_>>()
                .join(", ");
            violations.push(Violation {
                effect: Effect::Ordering,
                file: first.f.file.clone(),
                line: first.line,
                pattern: tag.to_string(),
                in_fn: format!("field:{field}"),
                chain: Vec::new(),
                message: format!(
                    "field `{field}` has {this_side}-side ops but no {missing_side} partner \
                     anywhere in the workspace; sites: {sites_text}"
                ),
            });
        }
    }
    sort_violations(&mut violations);
    analysis.violations.extend(violations);
}
