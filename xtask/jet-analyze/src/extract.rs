//! Per-file extraction: turn parsed items into [`FnDef`]s with raw call
//! sites, macro effect sites, and annotation state, plus the struct-field
//! and impl indexes the resolver needs.

use crate::Effect;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use syn::{parse_file, Item, ItemFn, Token, TokenKind};

/// Adapter methods whose return forwards to the receiver's protected /
/// inner value for typing purposes: `x.lock().m()` types `m` against
/// what `x` wraps (in concert with the lock/cell entries in WRAPPERS).
pub(crate) const TRANSPARENT: &[&str] = &[
    "lock",
    "read",
    "write",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "as_deref",
    "as_deref_mut",
    "get_ref",
    "get_mut",
    "unwrap",
    "expect",
];

/// One segment of a receiver chain: `inputs[oi]` → `{name: "inputs",
/// indexed: true}` (indexing unwraps one container level during typing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ChainSeg {
    pub name: String,
    pub indexed: bool,
}

/// How a method call's receiver was spelled — the input to type resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Recv {
    /// `self.m()`
    SelfDirect,
    /// `head.f1.f2.m()`; `segs[0]` is the head. `anchored` is false when
    /// the chain was cut at a non-ident head (`foo().bar.m()`), in which
    /// case only the trailing segments are known.
    Chain { segs: Vec<ChainSeg>, anchored: bool },
    /// Parenthesised expression / literal / method-chain receiver.
    Other,
}

#[derive(Debug, Clone)]
pub(crate) enum Callee {
    Method {
        name: String,
        recv: Recv,
        zero_args: bool,
    },
    Path {
        segs: Vec<String>,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub line: usize,
    pub callee: Callee,
}

#[derive(Debug, Clone)]
pub(crate) struct EffectSite {
    pub line: usize,
    pub effect: Effect,
    pub pattern: String,
}

/// One function in the workspace call graph.
#[derive(Debug)]
pub(crate) struct FnDef {
    pub file: String,
    /// `Some(Type)` for impl methods, `Some(Trait)` for trait defaults.
    pub self_ty: Option<String>,
    /// `Some(Trait)` when this is `impl Trait for _` or a trait default.
    pub trait_name: Option<String>,
    /// True for a trait-declared default method body.
    pub is_default: bool,
    pub name: String,
    pub line: usize,
    /// `#[cold]` or `// jet-analyze: cold` above the decl: excluded from
    /// hot-path traversal entirely. Holds the annotation's line (the fn's
    /// own line for `#[cold]`).
    pub cold: Option<usize>,
    /// Classes allowed fn-wide via an annotation above the decl, with the
    /// annotation's line.
    pub allows: Vec<(Effect, usize)>,
    /// Typed parameters, `name -> type text` (`&`/`mut` stripped).
    pub params: BTreeMap<String, String>,
    /// Local bindings: `alias -> (source name, is_payload)`. Payload
    /// aliases come from `Some(x)`/`Ok(x)` destructuring; plain aliases
    /// from `let h = self.inner.lock();`-style field-chain bindings.
    pub aliases: BTreeMap<String, (String, bool)>,
    pub calls: Vec<CallSite>,
    /// Direct effects from macro invocations (`panic!`, `format!`, ...).
    pub macro_effects: Vec<EffectSite>,
    /// Raw body tokens, kept for the ordering pass (it needs call
    /// arguments, which the call list does not carry).
    pub raw_body: Vec<Token>,
}

impl FnDef {
    /// `Type::name` or bare `name` — the chain-hop display form.
    pub fn short_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }

    /// `crates/.../file.rs::Type::name` — the baseline `site` form.
    pub fn qualified(&self) -> String {
        format!("{}::{}", self.file, self.short_name())
    }
}

/// Everything extracted from all files, plus resolver indexes.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    pub fns: Vec<FnDef>,
    /// Per-file comment text by 1-based line (`comments[file][line-1]`).
    pub comments: BTreeMap<String, Vec<String>>,
    /// Struct name → field name → type text.
    pub fields: BTreeMap<String, BTreeMap<String, String>>,
    /// `(trait, self_ty)` pairs from `impl Trait for Type`.
    pub impls: Vec<(String, String)>,
    // ----- indexes (built once after extraction) -----
    pub types: BTreeSet<String>,
    pub traits: BTreeSet<String>,
    pub by_type_method: BTreeMap<(String, String), Vec<usize>>,
    pub by_trait_method: BTreeMap<(String, String), Vec<usize>>,
    pub trait_defaults: BTreeMap<(String, String), usize>,
    pub by_method_name: BTreeMap<String, Vec<usize>>,
    pub by_free_name: BTreeMap<String, Vec<usize>>,
    /// Field name → type text, when every declaration of that field name
    /// in the workspace agrees on the type (used to type bare locals that
    /// alias fields, and `x.field.m()` chains through foreign structs).
    pub field_unique_type: BTreeMap<String, String>,
    /// `const NAME: Ordering = …` → every `Ordering` its initializer names,
    /// so an atomic op that passes the const counts for those sides.
    pub ordering_consts: BTreeMap<String, Vec<String>>,
    /// Annotations that suppressed something in this run, keyed by
    /// `(file, line, class)`; a `cold` marker has class `None`.
    pub used: RefCell<BTreeSet<(String, usize, Option<Effect>)>>,
}

impl Workspace {
    pub fn build_indexes(&mut self) {
        for (i, f) in self.fns.iter().enumerate() {
            match (&f.self_ty, f.is_default) {
                (Some(ty), false) => {
                    self.by_type_method
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    self.by_method_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(i);
                    self.types.insert(ty.clone());
                }
                (Some(tr), true) => {
                    self.trait_defaults.insert((tr.clone(), f.name.clone()), i);
                    self.by_method_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(i);
                }
                (None, _) => {
                    self.by_free_name.entry(f.name.clone()).or_default().push(i);
                }
            }
            if let Some(tr) = &f.trait_name {
                if !f.is_default {
                    self.by_trait_method
                        .entry((tr.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
                self.traits.insert(tr.clone());
            }
        }
        for name in self.fields.keys() {
            self.types.insert(name.clone());
        }
        let mut by_field: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for fields in self.fields.values() {
            for (name, ty) in fields {
                by_field.entry(name.clone()).or_default().insert(ty.clone());
            }
        }
        for (name, tys) in by_field {
            if tys.len() == 1 {
                self.field_unique_type
                    .insert(name, tys.into_iter().next().unwrap());
            }
        }
    }

    /// `(line, comment text)` on `line` and up to `span` lines above it.
    pub fn comment_window<'a>(
        &'a self,
        file: &str,
        line: usize,
        span: usize,
    ) -> impl Iterator<Item = (usize, &'a str)> + 'a {
        let comments = self.comments.get(file);
        (line.saturating_sub(span).max(1)..=line).filter_map(move |l| {
            let c = comments?.get(l - 1)?;
            (!c.is_empty()).then_some((l, c.as_str()))
        })
    }

    /// Does a comment on `line` or up to `span` lines above it contain
    /// `needle`? (The prose conventions: `// ordering:`, `// single-item:`.)
    pub fn comment_near(&self, file: &str, line: usize, span: usize, needle: &str) -> bool {
        self.comment_window(file, line, span)
            .any(|(_, c)| c.contains(needle))
    }

    fn mark_used(&self, file: &str, line: usize, class: Option<Effect>) {
        self.used
            .borrow_mut()
            .insert((file.to_string(), line, class));
    }
}

// ------------------------------------------------------------ annotations --

/// Parse every `jet-analyze: allow(a, b)` occurrence in a comment line.
/// Returns `(classes, has_reason)` per occurrence; unknown class names come
/// back as errors via `None` entries in `classes`.
pub(crate) fn scan_allows(text: &str) -> Vec<(Vec<Option<Effect>>, bool)> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(idx) = rest.find("jet-analyze: allow(") {
        let after = &rest[idx + "jet-analyze: allow(".len()..];
        let Some(close) = after.find(')') else { break };
        let classes: Vec<Option<Effect>> = after[..close]
            .split(',')
            .map(|c| Effect::parse(c.trim()))
            .collect();
        let tail = &after[close + 1..];
        let tail_end = tail.find("jet-analyze:").unwrap_or(tail.len());
        out.push((classes, has_reason(&tail[..tail_end])));
        rest = tail;
    }
    out
}

/// A reason is at least a few words of prose after the annotation marker.
fn has_reason(tail: &str) -> bool {
    tail.chars().filter(|c| c.is_alphanumeric()).count() >= 3
}

/// Is `class` allowed at `line` of `f`, by an annotation above the fn or
/// within two lines above the site? Marks the annotation used.
pub(crate) fn allowed(ws: &Workspace, f: &FnDef, line: usize, class: Effect) -> bool {
    let at = f
        .allows
        .iter()
        .find(|(c, _)| *c == class)
        .map(|&(_, at)| at)
        .or_else(|| {
            ws.comment_window(&f.file, line, 2)
                .find(|(_, c)| {
                    scan_allows(c)
                        .iter()
                        .any(|(classes, _)| classes.contains(&Some(class)))
                })
                .map(|(at, _)| at)
        });
    if let Some(at) = at {
        ws.mark_used(&f.file, at, Some(class));
    }
    at.is_some()
}

/// Does any line in the window mark the site cold? Marks the marker used.
pub(crate) fn cold_near(ws: &Workspace, file: &str, line: usize) -> bool {
    let at = ws
        .comment_window(file, line, 2)
        .find(|(_, c)| c.contains("jet-analyze: cold"));
    if let Some((at, _)) = at {
        ws.mark_used(file, at, None);
    }
    at.is_some()
}

/// Marks `f`'s fn-level `cold` marker used; true when `f` is cold.
pub(crate) fn fn_cold(ws: &Workspace, f: &FnDef) -> bool {
    if let Some(at) = f.cold {
        ws.mark_used(&f.file, at, None);
    }
    f.cold.is_some()
}

/// Every `allow(<class>)` and `cold` annotation that suppressed nothing in
/// the run, as `file:line: allow(class)` / `file:line: cold`.
pub(crate) fn stale_annotations(ws: &Workspace) -> Vec<String> {
    let used = ws.used.borrow();
    let mut out = Vec::new();
    for (file, comments) in &ws.comments {
        for (i, c) in comments.iter().enumerate() {
            let line = i + 1;
            let unused = |class| !used.contains(&(file.clone(), line, class));
            for (classes, _) in scan_allows(c) {
                for class in classes.into_iter().flatten() {
                    if unused(Some(class)) {
                        out.push(format!("{file}:{line}: allow({class})"));
                    }
                }
            }
            if c.contains("jet-analyze: cold") && unused(None) {
                out.push(format!("{file}:{line}: cold"));
            }
        }
    }
    out
}

/// File-wide annotation hygiene: every `allow(...)` needs a known class
/// and a reason; every `cold` marker needs a reason. This is how the
/// "baseline must have no unexplained entries" rule extends to inline
/// escapes.
fn check_annotations(file: &str, comments: &[String], errors: &mut Vec<String>) {
    for (i, c) in comments.iter().enumerate() {
        if c.is_empty() {
            continue;
        }
        let line = i + 1;
        for (classes, reasoned) in scan_allows(c) {
            if classes.iter().any(Option::is_none) {
                errors.push(format!(
                    "{file}:{line}: jet-analyze: allow(...) names an unknown class (known: {})",
                    Effect::known()
                ));
            }
            if !reasoned {
                errors.push(format!(
                    "{file}:{line}: jet-analyze: allow(...) has no reason — write \
                     `// jet-analyze: allow(<class>) — <why this site is safe>`"
                ));
            }
        }
        let mut rest = c.as_str();
        while let Some(idx) = rest.find("jet-analyze: cold") {
            let tail = &rest[idx + "jet-analyze: cold".len()..];
            let tail_end = tail.find("jet-analyze:").unwrap_or(tail.len());
            if !has_reason(&tail[..tail_end]) {
                errors.push(format!(
                    "{file}:{line}: jet-analyze: cold has no reason — write \
                     `// jet-analyze: cold — <why this path is off the hot path>`"
                ));
            }
            rest = tail;
        }
    }
}

// -------------------------------------------------------------- cfg prune --

/// Items compiled out of the release binary (tests, loom model builds) are
/// invisible to the hot path. `cfg(not(loom))` is the *release* side and
/// must stay in.
fn cfg_pruned(attrs: &[String]) -> bool {
    attrs.iter().any(|a| {
        if a == "test" {
            return true;
        }
        if !a.starts_with("cfg") {
            return false;
        }
        for gate in ["test", "loom"] {
            let mut rest = a.as_str();
            while let Some(idx) = rest.find(gate) {
                // Reject matches inside larger idents (e.g. `testable`).
                let before = rest[..idx].chars().next_back();
                let after = rest[idx + gate.len()..].chars().next();
                let whole = !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
                if whole && !rest[..idx].trim_end().ends_with("not(") {
                    return true;
                }
                rest = &rest[idx + gate.len()..];
            }
        }
        false
    })
}

// ------------------------------------------------------------ body scan --

/// Control-flow keywords that can directly precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "move",
    "in", "as", "ref", "unsafe", "await", "yield", "where", "dyn",
];

fn macro_effect(name: &str) -> Option<Effect> {
    Some(match name {
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne" | "format" => Effect::Panic,
        "vec" => Effect::Alloc,
        "println" | "eprintln" | "print" | "eprint" | "dbg" => Effect::Block,
        // debug_assert* compiles out of release builds. write! and the log
        // macros are not classed: their cost depends on the target they
        // write to, and no check audits them.
        _ => return None,
    })
}

/// `b[j]` is `<`; return the index just past the matching `>` (arrow-aware:
/// `->` does not close).
fn skip_angles(b: &[Token], mut j: usize) -> usize {
    let mut depth = 0i32;
    let mut prev_minus = false;
    while j < b.len() {
        match &b[j].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') if !prev_minus => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        prev_minus = b[j].is_punct('-');
        j += 1;
    }
    j
}

/// Walk back from the `.` of a method call, collecting the whole
/// `head.field[idx].field` receiver chain. (Also used by the ordering
/// pass, hence the visibility.)
pub(crate) fn receiver_pub(b: &[Token], dot: usize) -> Recv {
    let mut segs: Vec<ChainSeg> = Vec::new();
    let mut j = dot; // b[j] is the `.` left of the method name
    loop {
        if j == 0 {
            break;
        }
        let mut k = j - 1;
        let mut indexed = false;
        // Skip index groups (`xs[i]`, `m[a][b]`) and transparent adapter
        // calls (`x.lock().m()` — `m` is typed against what `x` protects).
        loop {
            if b[k].is_punct(']') {
                let mut depth = 0i32;
                loop {
                    if b[k].is_punct(']') {
                        depth += 1;
                    } else if b[k].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return finish(segs, false);
                    }
                    k -= 1;
                }
                indexed = true;
                if k == 0 {
                    return finish(segs, false);
                }
                k -= 1;
                continue;
            }
            if b[k].is_punct(')') {
                let mut depth = 0i32;
                loop {
                    if b[k].is_punct(')') {
                        depth += 1;
                    } else if b[k].is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return finish(segs, false);
                    }
                    k -= 1;
                }
                // `b[k]` is the `(`; require a `.adapter` before it.
                if k < 3
                    || !b[k - 1].ident().is_some_and(|a| TRANSPARENT.contains(&a))
                    || !b[k - 2].is_punct('.')
                {
                    return finish(segs, false);
                }
                k -= 3;
                continue;
            }
            break;
        }
        match &b[k].kind {
            TokenKind::Ident(a) if a == "self" && segs.is_empty() && !indexed => {
                return Recv::SelfDirect;
            }
            TokenKind::Ident(a) => {
                segs.push(ChainSeg {
                    name: a.clone(),
                    indexed,
                });
                if a == "self" {
                    // Head reached; `self` cannot be further qualified.
                    segs.reverse();
                    return Recv::Chain {
                        segs,
                        anchored: true,
                    };
                }
                if k >= 1 && b[k - 1].is_punct('.') {
                    j = k - 1;
                    continue;
                }
                // Clean ident head (param or local).
                segs.reverse();
                return Recv::Chain {
                    segs,
                    anchored: true,
                };
            }
            _ => break,
        }
    }
    finish(segs, false)
}

fn finish(mut segs: Vec<ChainSeg>, anchored: bool) -> Recv {
    if segs.is_empty() {
        Recv::Other
    } else {
        segs.reverse();
        Recv::Chain { segs, anchored }
    }
}

/// Track local bindings back to the name they alias, so the resolver can
/// type them: `Some(x)`/`Ok(x)` destructuring (match arms and
/// `if let`/`while let`) marks the alias as the *payload* of the source,
/// and plain `let h = self.inner.lock();` aliases `h` to the field chain's
/// last name. Returns `alias -> (source name, is_payload)`.
fn scan_aliases(b: &[Token]) -> BTreeMap<String, (String, bool)> {
    // Parse `[&|mut]* ident (.field | .adapter(..))*` starting at `j`,
    // yielding the last field-chain name and the index just past the
    // parsed expression. Transparent adapters don't change the name.
    fn source_name(b: &[Token], mut j: usize) -> Option<(String, usize)> {
        while b
            .get(j)
            .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
        {
            j += 1;
        }
        let head = b.get(j)?.ident()?;
        if KEYWORDS.contains(&head) {
            return None;
        }
        let mut name = head.to_string();
        j += 1;
        while b.get(j).is_some_and(|t| t.is_punct('.')) {
            let seg = b.get(j + 1)?.ident()?;
            if TRANSPARENT.contains(&seg) && b.get(j + 2).is_some_and(|t| t.is_punct('(')) {
                let mut depth = 0i32;
                let mut m = j + 2;
                loop {
                    if b.get(m)?.is_punct('(') {
                        depth += 1;
                    } else if b[m].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                j = m + 1;
                continue;
            }
            name = seg.to_string();
            j += 2;
        }
        Some((name, j))
    }
    // The source expression must END at the parse boundary — this rejects
    // fn calls (`let x = foo()`), comparisons, arithmetic, etc.
    fn bounded(b: &[Token], j: usize, terms: &[char]) -> bool {
        match b.get(j) {
            None => true,
            Some(t) => terms.iter().any(|&c| t.is_punct(c)),
        }
    }
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i + 2 < b.len() {
        // `Some(alias) =>` / `let Some(alias) = src`.
        if matches!(b[i].ident(), Some("Some" | "Ok"))
            && b[i + 1].is_punct('(')
            && b.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && b.get(i + 4).is_some_and(|t| t.is_punct('='))
        {
            if let Some(alias) = b[i + 2].ident().map(str::to_string) {
                let src = if b.get(i + 5).is_some_and(|t| t.is_punct('>')) {
                    // Match arm: scrutinee follows the nearest preceding
                    // `match` (bounded backward search).
                    (i.saturating_sub(24)..i)
                        .rev()
                        .find(|&m| b[m].is_ident("match"))
                        .and_then(|m| source_name(b, m + 1))
                        .filter(|&(_, end)| bounded(b, end, &['{']))
                } else {
                    source_name(b, i + 5).filter(|&(_, end)| bounded(b, end, &['{', ';']))
                };
                if let Some((src, _)) = src {
                    if src != alias {
                        out.entry(alias).or_insert((src, true));
                    }
                }
            }
            i += 5;
            continue;
        }
        // `let [mut] alias = src;`
        if b[i].is_ident("let") {
            let mut p = i + 1;
            if b.get(p).is_some_and(|t| t.is_ident("mut")) {
                p += 1;
            }
            if let Some(alias) = b.get(p).and_then(Token::ident).map(str::to_string) {
                if b.get(p + 1).is_some_and(|t| t.is_punct('='))
                    && !b.get(p + 2).is_some_and(|t| t.is_punct('='))
                {
                    if let Some((src, end)) = source_name(b, p + 2) {
                        if bounded(b, end, &[';']) && src != alias {
                            out.entry(alias).or_insert((src, false));
                        }
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn scan_body(b: &[Token]) -> (Vec<CallSite>, Vec<EffectSite>) {
    let mut calls = Vec::new();
    let mut macros = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        // Macro invocation: `name!(` / `name![` / `name!{`.
        if let Some(name) = b[i].ident() {
            if b.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && b.get(i + 2)
                    .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
            {
                if let Some(effect) = macro_effect(name) {
                    macros.push(EffectSite {
                        line: b[i].line,
                        effect,
                        pattern: format!("{name}!"),
                    });
                }
                // Args stay in the stream: calls inside them are scanned.
                i += 2;
                continue;
            }
        }
        // Method call: `.name(` with optional turbofish.
        if b[i].is_punct('.') {
            if let Some(m) = b.get(i + 1).and_then(Token::ident) {
                let mut j = i + 2;
                if b.get(j).is_some_and(|t| t.is_punct(':'))
                    && b.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    && b.get(j + 2).is_some_and(|t| t.is_punct('<'))
                {
                    j = skip_angles(b, j + 2);
                }
                if b.get(j).is_some_and(|t| t.is_punct('(')) {
                    calls.push(CallSite {
                        line: b[i + 1].line,
                        callee: Callee::Method {
                            name: m.to_string(),
                            recv: receiver_pub(b, i),
                            zero_args: b.get(j + 1).is_some_and(|t| t.is_punct(')')),
                        },
                    });
                }
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        // Path call: `seg::seg::name(` (head not preceded by `.`/`:`/`fn`).
        if let Some(name) = b[i].ident() {
            let prev_path = i > 0 && (b[i - 1].is_punct('.') || b[i - 1].is_punct(':'));
            let prev_fn = i > 0 && b[i - 1].is_ident("fn");
            if !prev_path && !prev_fn && !KEYWORDS.contains(&name) {
                let mut segs = vec![name.to_string()];
                let mut j = i + 1;
                loop {
                    if b.get(j).is_some_and(|t| t.is_punct(':'))
                        && b.get(j + 1).is_some_and(|t| t.is_punct(':'))
                    {
                        j += 2;
                        if b.get(j).is_some_and(|t| t.is_punct('<')) {
                            j = skip_angles(b, j);
                            continue;
                        }
                        if let Some(s) = b.get(j).and_then(Token::ident) {
                            segs.push(s.to_string());
                            j += 1;
                            continue;
                        }
                    }
                    break;
                }
                if b.get(j).is_some_and(|t| t.is_punct('(')) {
                    calls.push(CallSite {
                        line: b[i].line,
                        callee: Callee::Path { segs },
                    });
                }
                i = j.max(i + 1);
                continue;
            }
            i += 1;
            continue;
        }
        i += 1;
    }
    (calls, macros)
}

// ---------------------------------------------------------------- driver --

struct FnCtx<'a> {
    file: &'a str,
    comments: &'a [String],
    self_ty: Option<&'a str>,
    trait_name: Option<&'a str>,
    is_default: bool,
}

fn record_fn(f: &ItemFn, ctx: &FnCtx<'_>, ws: &mut Workspace) {
    if cfg_pruned(&f.attrs) || f.has_attr("test") && f.attrs.iter().any(|a| a == "test") {
        return;
    }
    if f.body.is_empty() && ctx.is_default {
        // Trait method declaration without a default body.
        return;
    }
    let window = (f.line.saturating_sub(3).max(1)..f.line)
        .filter_map(|l| Some((l, ctx.comments.get(l - 1)?.as_str())));
    let mut cold = f.has_attr("cold").then_some(f.line);
    let mut allows = Vec::new();
    for (l, c) in window {
        if c.contains("jet-analyze: cold") {
            cold = Some(l);
        }
        for (classes, _) in scan_allows(c) {
            allows.extend(classes.into_iter().flatten().map(|class| (class, l)));
        }
    }
    let (calls, macro_effects) = scan_body(&f.body);
    ws.fns.push(FnDef {
        file: ctx.file.to_string(),
        self_ty: ctx.self_ty.map(str::to_string),
        trait_name: ctx.trait_name.map(str::to_string),
        is_default: ctx.is_default,
        name: f.name.clone(),
        line: f.line,
        params: f.params.iter().cloned().collect(),
        aliases: scan_aliases(&f.body),
        cold,
        allows,
        calls,
        macro_effects,
        raw_body: f.body.clone(),
    });
}

fn walk_items(items: &[Item], file: &str, comments: &[String], ws: &mut Workspace) {
    for item in items {
        match item {
            Item::Fn(f) => record_fn(
                f,
                &FnCtx {
                    file,
                    comments,
                    self_ty: None,
                    trait_name: None,
                    is_default: false,
                },
                ws,
            ),
            Item::Impl(im) => {
                if cfg_pruned(&im.attrs) {
                    continue;
                }
                if let Some(tr) = &im.trait_name {
                    ws.impls.push((tr.clone(), im.self_ty.clone()));
                }
                for f in &im.fns {
                    record_fn(
                        f,
                        &FnCtx {
                            file,
                            comments,
                            self_ty: Some(&im.self_ty),
                            trait_name: im.trait_name.as_deref(),
                            is_default: false,
                        },
                        ws,
                    );
                }
            }
            Item::Trait(t) => {
                if cfg_pruned(&t.attrs) {
                    continue;
                }
                ws.traits.insert(t.name.clone());
                for f in &t.fns {
                    if f.body.is_empty() {
                        continue;
                    }
                    record_fn(
                        f,
                        &FnCtx {
                            file,
                            comments,
                            self_ty: Some(&t.name),
                            trait_name: Some(&t.name),
                            is_default: true,
                        },
                        ws,
                    );
                }
            }
            Item::Mod(m) => {
                if cfg_pruned(&m.attrs) {
                    continue;
                }
                walk_items(&m.items, file, comments, ws);
            }
            Item::Struct(s) => {
                if cfg_pruned(&s.attrs) {
                    continue;
                }
                let entry = ws.fields.entry(s.name.clone()).or_default();
                for (name, ty) in &s.fields {
                    entry.insert(name.clone(), ty.clone());
                }
            }
        }
    }
}

/// Extract one source file into the workspace. Parse failures are recorded
/// as annotation errors, not panics — one odd file must not take down a
/// workspace scan.
/// Record every `const NAME: Ordering = …;` with the orderings its
/// initializer names (both arms of a `cfg!` switch, say).
fn collect_ordering_consts(t: &[Token], ws: &mut Workspace) {
    for i in 0..t.len() {
        let typed = t[i].is_ident("const")
            && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(i + 3).is_some_and(|x| x.is_ident("Ordering"));
        let Some(name) = t.get(i + 1).and_then(Token::ident).filter(|_| typed) else {
            continue;
        };
        let orderings = t[i + 4..]
            .iter()
            .take_while(|x| !x.is_punct(';'))
            .filter_map(Token::ident)
            .filter(|o| ORDERINGS.contains(o))
            .map(str::to_string)
            .collect();
        ws.ordering_consts.insert(name.to_string(), orderings);
    }
}

/// The memory orderings an atomic op can name.
pub(crate) const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub(crate) fn extract_file(label: &str, src: &str, ws: &mut Workspace, errors: &mut Vec<String>) {
    let parsed = match parse_file(src) {
        Ok(p) => p,
        Err(e) => {
            errors.push(format!("{label}: parse error: {e}"));
            return;
        }
    };
    check_annotations(label, &parsed.comments, errors);
    walk_items(&parsed.items, label, &parsed.comments, ws);
    collect_ordering_consts(&parsed.tokens, ws);
    ws.comments.insert(label.to_string(), parsed.comments);
}
