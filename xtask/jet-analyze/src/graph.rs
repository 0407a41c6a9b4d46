//! Call-graph resolution and hot-path reachability.
//!
//! Resolution is best-effort by design (see the crate docs for the
//! soundness holes). Order of preference for a method call:
//!
//! 1. receiver type known (via `self`, a struct field's declared type, or
//!    a workspace-unique field name) → that type's inherent/trait-impl
//!    methods, falling back to trait defaults;
//! 2. transparent wrappers (`Box`/`Arc`/`Rc`/`Option`/`RefCell`/...) are
//!    unwrapped; `dyn Trait` / `impl Trait` inners fan out to *all* impls;
//! 3. external-type effect tables (`Mutex::lock` → block, `Vec::push` →
//!    alloc, `Arc::clone` → exempt refcount bump);
//! 4. untyped receivers match every workspace method of that name;
//! 5. last resort: a type-unknown effect table (`.clone()` → alloc, ...).

use crate::extract::{allowed, cold_near, fn_cold, Callee, ChainSeg, FnDef, Recv, Workspace};
use crate::{sort_violations, Analysis, ChainHop, Effect, SeenSites, Violation};
use std::collections::VecDeque;

/// Wrapper types whose methods mostly forward to the inner type.
const WRAPPERS: &[&str] = &[
    "Box",
    "Arc",
    "Rc",
    "Option",
    "RefCell",
    "Cell",
    "Pin",
    "ManuallyDrop",
    "UnsafeCell",
    "MaybeUninit",
    // Locks: `x.lock().m()` types `m` against the protected value (the
    // receiver walk treats the adapter call as transparent); the `lock()`
    // call itself still gets its Block effect from the typed table.
    "Mutex",
    "RwLock",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Ref",
    "RefMut",
];

// -------------------------------------------------------- type text utils --

/// `&mut Arc<dyn Processor>` → `("Arc", Some("dyn Processor"))`; strips
/// references and leading `dyn`, reduces paths to their last segment.
pub(crate) fn split_outer(ty: &str) -> (String, Option<String>) {
    let mut s = ty.trim();
    loop {
        if let Some(rest) = s.strip_prefix('&') {
            s = rest.trim_start();
        } else if let Some(rest) = s.strip_prefix("mut ") {
            s = rest.trim_start();
        } else if let Some(rest) = s.strip_prefix("dyn ") {
            s = rest.trim_start();
        } else {
            break;
        }
    }
    let open = s.find('<');
    let head = &s[..open.unwrap_or(s.len())];
    let outer = head.rsplit("::").next().unwrap_or(head).trim().to_string();
    let inner = open.map(|o| {
        let body = &s[o + 1..];
        // Matching `>` then first top-level `,` bounds the first type arg.
        let mut depth = 1i32;
        let mut end = body.len();
        let mut comma = None;
        for (i, c) in body.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                ',' if depth == 1 && comma.is_none() => comma = Some(i),
                _ => {}
            }
        }
        body[..comma.unwrap_or(end).min(end)].trim().to_string()
    });
    (outer, inner.filter(|s| !s.is_empty()))
}

/// One level of container unwrap for `xs[i].m()` receivers: `Vec<T>` → `T`,
/// `Box<[T]>` → `T`, `[T; N]` → `T`.
fn index_unwrap(ty: &str) -> Option<String> {
    let t = ty.trim();
    if let Some(rest) = t.trim_start_matches('&').trim_start().strip_prefix('[') {
        let end = rest.find([';', ']']).unwrap_or(rest.len());
        return Some(rest[..end].trim().to_string());
    }
    let (outer, inner) = split_outer(t);
    let inner = inner?;
    if inner.trim_start().starts_with('[') {
        return index_unwrap(&inner);
    }
    match outer.as_str() {
        "Vec" | "VecDeque" | "Box" | "Arc" | "Rc" => Some(inner),
        _ => None,
    }
}

// ----------------------------------------------------------- effect tables --

/// `(receiver type, method)` pairs with a known effect — or a known
/// exemption (`Arc::clone` is a refcount bump, not a deep clone).
fn typed_method_effect(outer: &str, name: &str) -> Option<Result<Effect, ()>> {
    match (outer, name) {
        ("Arc" | "Rc" | "Waker", "clone") => Some(Err(())), // exempt
        ("Mutex" | "RwLock", "lock" | "read" | "write") => Some(Ok(Effect::Block)),
        ("Condvar", "wait" | "wait_while" | "wait_timeout") => Some(Ok(Effect::Block)),
        ("Receiver", "recv" | "recv_timeout" | "iter") => Some(Ok(Effect::Block)),
        ("Instant" | "SystemTime", "elapsed" | "duration_since") => Some(Ok(Effect::Instant)),
        _ => None,
    }
}

/// Type-unknown fallback table.
fn generic_method_effect(name: &str, zero_args: bool) -> Option<Effect> {
    Some(match name {
        "clone" | "to_vec" | "to_owned" | "to_string" | "collect" | "push" | "push_back"
        | "push_front" | "push_str" | "extend" | "extend_from_slice" | "insert" | "append"
        | "reserve" | "reserve_exact" | "resize" | "split_off" | "into_boxed_slice" | "repeat"
        | "concat" | "or_insert" | "or_insert_with" => Effect::Alloc,
        "lock" | "recv" | "recv_timeout" | "wait" | "wait_while" | "wait_timeout" | "park" => {
            Effect::Block
        }
        // `.join()` on a JoinHandle blocks; `.join(", ")` on a slice
        // allocates — arity disambiguates.
        "join" => {
            if zero_args {
                Effect::Block
            } else {
                Effect::Alloc
            }
        }
        "unwrap" | "expect" => Effect::Panic,
        "elapsed" => Effect::Instant,
        _ => return None,
    })
}

/// Known-effect static paths (`Type::fn` / `module::fn`).
fn path_effect(segs: &[String]) -> Option<Effect> {
    let last = segs.last()?.as_str();
    let second = segs.len().checked_sub(2).map(|i| segs[i].as_str());
    match (second, last) {
        (Some("Instant" | "SystemTime"), "now") => Some(Effect::Instant),
        (Some("Box" | "Arc" | "Rc"), "new") => Some(Effect::Alloc),
        (
            Some("Vec" | "String" | "HashMap" | "HashSet" | "BTreeMap" | "VecDeque"),
            "with_capacity",
        )
        | (Some("Vec" | "String"), "from") => Some(Effect::Alloc),
        _ => {
            if segs.iter().any(|s| s == "thread")
                && matches!(last, "sleep" | "sleep_ms" | "park" | "park_timeout")
            {
                Some(Effect::Block)
            } else {
                None
            }
        }
    }
}

// ------------------------------------------------------------- resolution --

pub(crate) enum Resolved {
    Edges(Vec<usize>),
    External(Effect),
    Nothing,
}

fn dispatch_type(ws: &Workspace, ty: &str, name: &str) -> Option<Vec<usize>> {
    let key = (ty.to_string(), name.to_string());
    if let Some(ids) = ws.by_type_method.get(&key) {
        return Some(ids.clone());
    }
    // Unoverridden trait default: every trait this type implements.
    let mut ids = Vec::new();
    for (tr, self_ty) in &ws.impls {
        if self_ty == ty {
            if let Some(&d) = ws.trait_defaults.get(&(tr.clone(), name.to_string())) {
                ids.push(d);
            }
        }
    }
    if ids.is_empty() {
        None
    } else {
        Some(ids)
    }
}

/// `dyn Trait` receivers: every impl of the trait, plus the default body.
fn dispatch_trait(ws: &Workspace, tr: &str, name: &str) -> Option<Vec<usize>> {
    let mut ids = ws
        .by_trait_method
        .get(&(tr.to_string(), name.to_string()))
        .cloned()
        .unwrap_or_default();
    if let Some(&d) = ws.trait_defaults.get(&(tr.to_string(), name.to_string())) {
        ids.push(d);
    }
    if ids.is_empty() {
        None
    } else {
        Some(ids)
    }
}

/// Declared type of a field/local name, seen from `caller`'s self type.
fn field_type(ws: &Workspace, caller: &FnDef, name: &str) -> Option<String> {
    if let Some(self_ty) = &caller.self_ty {
        if let Some(fields) = ws.fields.get(self_ty) {
            if let Some(ty) = fields.get(name) {
                return Some(ty.clone());
            }
        }
    }
    ws.field_unique_type.get(name).cloned()
}

/// Declared type of a chain head: fn parameter, then `self` field, then
/// globally-unique field name, then `Some(x)`/`Ok(x)` alias payload.
fn head_type(ws: &Workspace, caller: &FnDef, name: &str) -> Option<String> {
    let direct = |n: &str| {
        caller
            .params
            .get(n)
            .cloned()
            .or_else(|| field_type(ws, caller, n))
    };
    if let Some(t) = direct(name) {
        return Some(t);
    }
    // Follow local aliases: `Some(o) => ...` makes `o` the payload of the
    // source (strip one `Option`/`Result` layer per payload hop);
    // `let h = self.inner.lock();` keeps the source's type as-is.
    let mut name = name.to_string();
    let mut unwraps = 0usize;
    for _ in 0..4 {
        let (src, payload) = caller.aliases.get(&name)?;
        name = src.clone();
        unwraps += usize::from(*payload);
        if let Some(mut t) = direct(&name) {
            for _ in 0..unwraps {
                let (outer, inner) = split_outer(&t);
                match (outer.as_str(), inner) {
                    ("Option" | "Result", Some(i)) => t = i,
                    _ => break,
                }
            }
            return Some(t);
        }
    }
    None
}

/// Peel wrapper layers off `ty` until a workspace type or trait is
/// exposed; `None` when the chain bottoms out in an external type.
fn reduce_to_workspace(ws: &Workspace, ty: &str) -> Option<String> {
    let mut t = ty.to_string();
    for _ in 0..8 {
        let (outer, inner) = split_outer(&t);
        if ws.fields.contains_key(&outer) || ws.types.contains(&outer) || ws.traits.contains(&outer)
        {
            return Some(outer);
        }
        match inner {
            Some(i) if WRAPPERS.contains(&outer.as_str()) => t = i,
            _ => return None,
        }
    }
    None
}

/// Full left-to-right walk of an anchored `head.f1[..].f2` chain through
/// workspace struct field maps. `None` on any untypable hop.
fn walk_chain(ws: &Workspace, caller: &FnDef, segs: &[ChainSeg], anchored: bool) -> Option<String> {
    if !anchored {
        return None;
    }
    let head = &segs[0];
    let mut ty = if head.name == "self" {
        caller.self_ty.clone()?
    } else {
        let mut t = head_type(ws, caller, &head.name)?;
        if head.indexed {
            t = index_unwrap(&t)?;
        }
        t
    };
    for seg in &segs[1..] {
        let owner = reduce_to_workspace(ws, &ty)?;
        let mut next = ws.fields.get(&owner)?.get(&seg.name)?.clone();
        if seg.indexed {
            next = index_unwrap(&next)?;
        }
        ty = next;
    }
    Some(ty)
}

/// Best-effort receiver-chain type: full anchored walk first, falling
/// back to the last hop's field name when it is unique workspace-wide.
fn chain_type(ws: &Workspace, caller: &FnDef, segs: &[ChainSeg], anchored: bool) -> Option<String> {
    walk_chain(ws, caller, segs, anchored).or_else(|| {
        let last = segs.last()?;
        let mut t = field_type(ws, caller, &last.name)?;
        if last.indexed {
            t = index_unwrap(&t)?;
        }
        Some(t)
    })
}

fn resolve_method(
    ws: &Workspace,
    caller: &FnDef,
    name: &str,
    recv: &Recv,
    zero_args: bool,
) -> Resolved {
    let mut ty: Option<String> = match recv {
        Recv::SelfDirect => caller.self_ty.clone(),
        Recv::Chain { segs, anchored } => chain_type(ws, caller, segs, *anchored),
        Recv::Other => None,
    };
    let mut hops = 0;
    while let Some(t) = ty.take() {
        hops += 1;
        if hops > 8 {
            break;
        }
        let (outer, inner) = split_outer(&t);
        match typed_method_effect(&outer, name) {
            Some(Ok(e)) => return Resolved::External(e),
            Some(Err(())) => return Resolved::Nothing, // exempt
            None => {}
        }
        if ws.traits.contains(&outer) {
            if let Some(ids) = dispatch_trait(ws, &outer, name) {
                return Resolved::Edges(ids);
            }
            return match generic_method_effect(name, zero_args) {
                Some(e) => Resolved::External(e),
                None => Resolved::Nothing,
            };
        }
        if ws.types.contains(&outer) {
            if let Some(ids) = dispatch_type(ws, &outer, name) {
                return Resolved::Edges(ids);
            }
            // Derived/forwarded method on a workspace type (`.clone()` on
            // an owning struct is a deep clone): fall to the generic table.
            return match generic_method_effect(name, zero_args) {
                Some(e) => Resolved::External(e),
                None => Resolved::Nothing,
            };
        }
        if WRAPPERS.contains(&outer.as_str()) {
            if let Some(i) = inner {
                ty = Some(i);
                continue;
            }
        }
        // External non-wrapper container: type-unknown table.
        return match generic_method_effect(name, zero_args) {
            Some(e) => Resolved::External(e),
            None => Resolved::Nothing,
        };
    }
    // No type information at all. Prefer the effect tables: an untyped
    // `.push(` is far more likely `Vec::push` than a workspace method, and
    // the conservative answer (report the effect at the call site) is
    // also the right one when it *is* a workspace method that allocates.
    if let Some(e) = generic_method_effect(name, zero_args) {
        return Resolved::External(e);
    }
    // Std-idiom names (`MaybeUninit::write`, `ptr::read`, atomics) would
    // produce wild false edges if fanned out by name alone.
    const NEVER_FAN_OUT: &[&str] = &[
        "write",
        "read",
        "assume_init",
        "load",
        "store",
        "get",
        "set",
        "take",
        "replace",
        "new",
        "next",
        "len",
        "min",
        "max",
        "iter",
        "keys",
        "values",
        "get_mut",
        "as_ref",
        "as_mut",
        // Iterator / Option / Result adapter names.
        "map",
        "filter",
        "filter_map",
        "flat_map",
        "for_each",
        "fold",
        "zip",
        "enumerate",
        "rev",
        "cloned",
        "copied",
        "flatten",
        "any",
        "all",
        "find",
        "position",
        "count",
        "sum",
        "last",
        "nth",
        "chunks",
        "windows",
        "map_or",
        "and_then",
        "or_else",
        "unwrap_or",
        "unwrap_or_else",
        "unwrap_or_default",
        "ok_or",
        "ok",
        "err",
        // Std collection ops that never allocate.
        "remove",
        "is_empty",
        "clear",
        "contains",
        "contains_key",
        "pop",
        "pop_front",
        "pop_back",
        "front",
        "back",
        "first",
        "swap",
    ];
    if NEVER_FAN_OUT.contains(&name) {
        return Resolved::Nothing;
    }
    match ws.by_method_name.get(name) {
        Some(ids) => Resolved::Edges(ids.clone()),
        None => Resolved::Nothing,
    }
}

fn resolve_path(ws: &Workspace, caller: &FnDef, segs: &[String]) -> Resolved {
    if segs.len() == 1 {
        let s = &segs[0];
        if s.chars().next().is_some_and(char::is_uppercase) {
            return Resolved::Nothing; // tuple-struct / variant constructor
        }
        if let Some(ids) = ws.by_free_name.get(s) {
            return Resolved::Edges(ids.clone());
        }
        return Resolved::Nothing;
    }
    let last = segs.last().unwrap();
    let second = &segs[segs.len() - 2];
    let type_name = if second == "Self" {
        caller.self_ty.clone()
    } else {
        Some(second.clone())
    };
    if let Some(t) = &type_name {
        if ws.types.contains(t) {
            if let Some(ids) = dispatch_type(ws, t, last) {
                return Resolved::Edges(ids);
            }
            return Resolved::Nothing; // assoc const/ctor/variant path
        }
        if ws.traits.contains(t) {
            if let Some(ids) = dispatch_trait(ws, t, last) {
                return Resolved::Edges(ids);
            }
            return Resolved::Nothing;
        }
    }
    if let Some(e) = path_effect(segs) {
        return Resolved::External(e);
    }
    if last.chars().next().is_some_and(char::is_lowercase) {
        if let Some(ids) = ws.by_free_name.get(last) {
            return Resolved::Edges(ids.clone());
        }
    }
    Resolved::Nothing
}

// --------------------------------------------------------------- root set --

enum RootSpec {
    /// Every impl (and default) of these trait methods.
    Trait(&'static str, &'static [&'static str]),
    /// Inherent methods of a named type.
    Type(&'static str, &'static [&'static str]),
    /// Methods defined in files whose path ends with the suffix.
    FileMethods(&'static str, &'static [&'static str]),
    /// Free fns in files whose path ends with the suffix.
    FileFns(&'static str, &'static [&'static str]),
}

/// The hot root set (crate docs: every entry point that runs per-record on
/// a shared cooperative worker).
const ROOTS: &[RootSpec] = &[
    RootSpec::Trait("Tasklet", &["call"]),
    RootSpec::Trait(
        "Processor",
        &[
            "process",
            "try_process_watermark",
            "tick",
            "complete",
            "complete_edge",
        ],
    ),
    RootSpec::FileMethods(
        "spsc.rs",
        &[
            "offer",
            "offer_batch",
            "poll",
            "drain_batch",
            "drain_batch_while",
        ],
    ),
    RootSpec::FileMethods(
        "conveyor.rs",
        &[
            "poll_lane",
            "poll_any",
            "drain_lane_batch_while",
            "drain_lanes_batch",
            "peek_lane",
        ],
    ),
    RootSpec::Type("TraceWriter", &["record", "record_call"]),
    RootSpec::Type(
        "OutboundCollector",
        &["offer_event", "offer_event_run", "offer_to_all"],
    ),
    RootSpec::FileFns(
        "exec.rs",
        &["worker_loop", "observed_call", "run_sequential"],
    ),
    RootSpec::Type("Schedule", &["run_round"]),
];

fn root_ids(ws: &Workspace) -> Vec<usize> {
    let mut ids = Vec::new();
    for (i, f) in ws.fns.iter().enumerate() {
        let is_root = ROOTS.iter().any(|spec| match spec {
            RootSpec::Trait(tr, names) => {
                f.trait_name.as_deref() == Some(*tr) && names.contains(&f.name.as_str())
            }
            RootSpec::Type(ty, names) => {
                !f.is_default
                    && f.self_ty.as_deref() == Some(*ty)
                    && names.contains(&f.name.as_str())
            }
            RootSpec::FileMethods(suffix, names) => {
                f.file.ends_with(suffix) && f.self_ty.is_some() && names.contains(&f.name.as_str())
            }
            RootSpec::FileFns(suffix, names) => {
                f.file.ends_with(suffix) && f.self_ty.is_none() && names.contains(&f.name.as_str())
            }
        });
        if is_root && !fn_cold(ws, f) {
            ids.push(i);
        }
    }
    ids
}

// -------------------------------------------------------------- traversal --

pub(crate) fn analyze(ws: &Workspace) -> Analysis {
    let mut analysis = Analysis::default();
    let roots = root_ids(ws);
    analysis.roots = roots.len();
    analysis.fns_indexed = ws.fns.len();

    // BFS with parent pointers → shortest root-to-effect chains.
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; ws.fns.len()];
    let mut visited = vec![false; ws.fns.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        if !visited[r] {
            visited[r] = true;
            queue.push_back(r);
        }
    }
    let mut seen: SeenSites = SeenSites::new();
    let mut violations = Vec::new();
    let mut suppressed_count = 0usize;

    let report = |f: &FnDef,
                  id: usize,
                  line: usize,
                  effect: Effect,
                  pattern: String,
                  parent: &[Option<(usize, usize)>],
                  seen: &mut SeenSites,
                  violations: &mut Vec<Violation>,
                  suppressed_count: &mut usize| {
        if allowed(ws, f, line, effect) || cold_near(ws, &f.file, line) {
            *suppressed_count += 1;
            return;
        }
        let key = (effect, f.file.clone(), line, pattern.clone());
        if seen.contains_key(&key) {
            return;
        }
        seen.insert(key, ());
        // Rebuild the root → here chain from the parent pointers.
        let mut hops = Vec::new();
        let mut cur = id;
        loop {
            let hop_fn = &ws.fns[cur];
            hops.push(ChainHop {
                fn_name: hop_fn.short_name(),
                file: hop_fn.file.clone(),
                line: hop_fn.line,
            });
            match parent[cur] {
                Some((p, _)) => cur = p,
                None => break,
            }
        }
        hops.reverse();
        let root_name = hops[0].fn_name.clone();
        violations.push(Violation {
            effect,
            file: f.file.clone(),
            line,
            pattern: pattern.clone(),
            in_fn: f.qualified(),
            chain: hops,
            message: format!("forbidden {effect} reachable from hot root {root_name}"),
        });
    };

    while let Some(id) = queue.pop_front() {
        let f = &ws.fns[id];
        for m in &f.macro_effects {
            report(
                f,
                id,
                m.line,
                m.effect,
                m.pattern.clone(),
                &parent,
                &mut seen,
                &mut violations,
                &mut suppressed_count,
            );
        }
        for call in &f.calls {
            let resolved = match &call.callee {
                Callee::Method {
                    name,
                    recv,
                    zero_args,
                } => resolve_method(ws, f, name, recv, *zero_args),
                Callee::Path { segs } => resolve_path(ws, f, segs),
            };
            // A call-site cold marker cuts the edge (and any effect there).
            if !matches!(resolved, Resolved::Nothing) && cold_near(ws, &f.file, call.line) {
                continue;
            }
            match resolved {
                Resolved::External(effect) => {
                    let pattern = match &call.callee {
                        Callee::Method { name, .. } => format!(".{name}("),
                        Callee::Path { segs } => format!("{}(", segs.join("::")),
                    };
                    report(
                        f,
                        id,
                        call.line,
                        effect,
                        pattern,
                        &parent,
                        &mut seen,
                        &mut violations,
                        &mut suppressed_count,
                    );
                }
                Resolved::Edges(targets) => {
                    for t in targets {
                        if !fn_cold(ws, &ws.fns[t]) && !visited[t] {
                            visited[t] = true;
                            parent[t] = Some((id, call.line));
                            queue.push_back(t);
                        }
                    }
                }
                Resolved::Nothing => {}
            }
        }
    }

    sort_violations(&mut violations);
    analysis.violations = violations;
    analysis.suppressed = suppressed_count;
    analysis
}
