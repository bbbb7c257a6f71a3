//! Concurrency-safety lints: lock-guard scope recovery, the cross-file
//! lock-acquisition graph, blocking calls under a live guard, and
//! SeqCst store/load pairing.
//!
//! The journal's per-worker buffers (flush-under-lock merge), the
//! executor's Dekker wakeup handshake, and the campaign daemon's
//! durable queue each hold locks around non-trivial work. The
//! determinism lints cannot see the two bug classes that turn
//! "bit-identical crash-resume" into a hung CI job: a lock-order
//! inversion between two crates, and a blocking call (condvar wait,
//! sleep, file/socket IO, a pool fan-out) made while a guard is live.
//! This pass recovers guard scopes from the token stream and feeds a
//! workspace-level graph:
//!
//! - [`LOCK_ORDER_CYCLE`]: two locks — keyed `(crate, field/static
//!   name)` — acquired in opposite orders anywhere in the workspace,
//!   reported at both witness sites;
//! - [`BLOCKING_WHILE_LOCKED`]: a guard live across `Condvar::wait*`
//!   (other than the guard being waited on), `thread::sleep`, file or
//!   socket IO, a `par_map`/`scope` fan-out, or an HTTP handler call;
//! - [`ATOMIC_HANDSHAKE`]: a `SeqCst` store (or RMW) of an atomic whose
//!   paired load — same `(crate, name)` — is missing or never `SeqCst`.
//!   This is pointed straight at Dekker-style protocols like the
//!   executor's `pending`/`sleepers` pair, where a downgraded load
//!   silently reintroduces the lost-wakeup race.
//!
//! # Guard-scope recovery rules (and known approximations)
//!
//! An acquisition is a `.lock()` / `.read()` / `.write()` call with
//! empty parentheses (so IO `read(buf)`/`write(buf)` never match),
//! optionally chained through `.unwrap()` / `.expect("…")`. The lock
//! name is the nearest receiver identifier (skipping `self`, indexing,
//! and call parentheses); the crate comes from the file path.
//!
//! - a chain ending the statement after a `let g = …` binds a **named
//!   guard**: live until `drop(g)` or the end of its enclosing block;
//! - any other chain is a **temporary guard**: live until the next `;`
//!   at its brace depth, or a `}` returning *to* that depth not
//!   followed by `else` — which matches Rust 2021 temporary lifetimes
//!   for `if let`/`for`/`match` heads (the guard spans the body and
//!   the `else` arm, then drops with the statement). The cost is an
//!   under-approximation for closures: in
//!   `x.lock().retain(|v| …).other_call()`, the guard is considered
//!   dead once the closure's `}` closes, so a blocking `other_call`
//!   later in that chain is missed;
//! - guards returned by helper functions (`fn lock_state(…) ->
//!   MutexGuard`) are visible only inside the helper, not at call
//!   sites — an accepted approximation, documented in DESIGN §11;
//! - re-acquisitions of the *same* key are not edges (per-instance
//!   locks like per-thread buffers share a field name, and reentrant
//!   deadlock is a different bug than lock-order inversion).

use std::collections::BTreeMap;

use crate::lexer::{Tok, Token};
use crate::Diagnostic;

/// Two locks are acquired in opposite orders somewhere in the workspace.
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
/// A blocking call happens while a lock guard is live.
pub const BLOCKING_WHILE_LOCKED: &str = "blocking-while-locked";
/// A SeqCst store with no SeqCst load of the same atomic anywhere.
pub const ATOMIC_HANDSHAKE: &str = "atomic-handshake";

/// All concurrency lint names (for `ifcheck --list-lints`).
pub const ALL: &[&str] = &[LOCK_ORDER_CYCLE, BLOCKING_WHILE_LOCKED, ATOMIC_HANDSHAKE];

/// One `held → acquired` ordering observation inside a single file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock name already held (field/static identifier).
    pub held: String,
    /// Lock name acquired while `held` was live.
    pub acquired: String,
    /// 1-based line of the `held` acquisition.
    pub held_line: u32,
    /// 1-based line of the `acquired` acquisition (the witness site).
    pub line: u32,
}

/// Whether an atomic access writes, reads, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `store`.
    Store,
    /// `load`.
    Load,
    /// `fetch_*` / `swap` / `compare_exchange*` — counts as the store
    /// side of a handshake (its read half is not a standalone load).
    Rmw,
}

/// One atomic access with its memory ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicAccess {
    /// Receiver identifier (field/static name).
    pub name: String,
    /// Operation class.
    pub op: AtomicOp,
    /// Whether the ordering argument is `Ordering::SeqCst`.
    pub seqcst: bool,
    /// 1-based source line.
    pub line: u32,
}

/// Everything the per-file scan contributes to the workspace passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileLocks {
    /// Nested-acquisition observations (for the cross-file lock graph).
    pub edges: Vec<LockEdge>,
    /// Atomic accesses (for SeqCst handshake pairing).
    pub atomics: Vec<AtomicAccess>,
    /// Per-file findings (blocking-while-locked).
    pub diags: Vec<Diagnostic>,
}

/// A guard being tracked through the token walk.
#[derive(Debug)]
struct Guard {
    /// Binding name for named guards (`None` for temporaries).
    var: Option<String>,
    /// The lock's identifier (graph node name, without the crate).
    lock: String,
    /// Brace depth at the acquisition.
    depth: usize,
    /// Temporaries also die at the first `;` at their depth.
    temp: bool,
    /// 1-based acquisition line.
    line: u32,
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Method names that block: file/socket IO, channel receives, sleeps.
const BLOCKING_METHODS: &[(&str, &str)] = &[
    ("write_all", "file/socket write"),
    ("flush", "file/socket flush"),
    ("sync_all", "file sync"),
    ("sync_data", "file sync"),
    ("read_to_string", "file/socket read"),
    ("read_to_end", "file/socket read"),
    ("read_exact", "file/socket read"),
    ("read_line", "file/socket read"),
    ("accept", "socket accept"),
    ("connect", "socket connect"),
    ("recv", "channel receive"),
    ("recv_timeout", "channel receive"),
    ("handle", "HTTP handler call"),
    ("par_map", "executor fan-out"),
    ("scope", "executor fan-out"),
];

/// Free functions that block (called as `name(…)` or `path::name(…)`).
const BLOCKING_FNS: &[(&str, &str)] = &[
    ("current_par_map", "executor fan-out"),
    ("par_map_on", "executor fan-out"),
    ("scope_on", "executor fan-out"),
];

/// Recovers the lock identifier for the acquisition whose `.` sits at
/// `dot`: the nearest receiver identifier scanning left, skipping
/// `self`, closing brackets/parens (with their groups), `&`, `*`, `?`.
fn receiver_name(tokens: &[Token], dot: usize) -> Option<String> {
    let mut i = dot;
    loop {
        i = i.checked_sub(1)?;
        match &tokens[i].tok {
            Tok::Ident(s) => {
                if s == "self" {
                    return None;
                }
                return Some(s.clone());
            }
            Tok::Punct(')') | Tok::Punct(']') => {
                // Skip the bracketed group (an index or a call argument
                // list) and keep scanning left for the receiver.
                let close = match tokens[i].tok {
                    Tok::Punct(')') => ('(', ')'),
                    _ => ('[', ']'),
                };
                let mut depth = 0usize;
                loop {
                    match &tokens[i].tok {
                        Tok::Punct(c) if *c == close.1 => depth += 1,
                        Tok::Punct(c) if *c == close.0 => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i = i.checked_sub(1)?;
                }
            }
            Tok::Punct('.')
            | Tok::Punct('&')
            | Tok::Punct('*')
            | Tok::Punct('?')
            | Tok::Punct(':') => {}
            _ => return None,
        }
    }
}

/// Whether the call at `i` (an ident token followed by `(`) has an
/// empty argument list — distinguishing `RwLock::read()` from IO
/// `read(buf)`.
fn empty_args(tokens: &[Token], i: usize) -> bool {
    punct_at(tokens, i + 1, '(') && punct_at(tokens, i + 2, ')')
}

/// Index just past a balanced `(…)` group whose `(` is at `open`.
fn skip_group(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// First identifier inside the argument list starting at `open`.
fn first_arg_ident(tokens: &[Token], open: usize) -> Option<String> {
    let end = skip_group(tokens, open);
    tokens
        .get(open + 1..end.saturating_sub(1))?
        .iter()
        .find_map(|t| match &t.tok {
            Tok::Ident(s) => Some(s.clone()),
            _ => None,
        })
}

/// Scans one file's (test-stripped) tokens. `path` is workspace-relative
/// with forward slashes; the crate key is derived from it.
#[must_use]
pub fn extract(path: &str, tokens: &[Token]) -> FileLocks {
    let mut out = FileLocks::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // The `let NAME =` most recently opened at the current statement.
    let mut pending_let: Option<(String, usize)> = None;
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                // A `}` usually ends a statement-like block (for/while
                // body, if, match), which also ends temporaries created
                // in its head — `for t in x.lock().values() { … }`
                // drops the guard here. An `else` continues the
                // statement, so the scrutinee temp survives it.
                if ident_at(tokens, i + 1) != Some("else") {
                    guards.retain(|g| !(g.temp && g.depth == depth));
                }
                if pending_let.as_ref().is_some_and(|(_, d)| *d > depth) {
                    pending_let = None;
                }
                i += 1;
            }
            Tok::Punct(';') => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                pending_let = None;
                i += 1;
            }
            Tok::Ident(name) if name == "let" => {
                // `let [mut] NAME =` — remember the binding for a guard
                // chain that ends this statement.
                let mut j = i + 1;
                if ident_at(tokens, j) == Some("mut") {
                    j += 1;
                }
                if let Some(var) = ident_at(tokens, j) {
                    if punct_at(tokens, j + 1, '=') || punct_at(tokens, j + 1, ':') {
                        pending_let = Some((var.to_owned(), depth));
                    }
                }
                i += 1;
            }
            Tok::Ident(name) if name == "drop" && punct_at(tokens, i + 1, '(') => {
                if let Some(var) = ident_at(tokens, i + 2) {
                    guards.retain(|g| g.var.as_deref() != Some(var));
                }
                i = skip_group(tokens, i + 1);
            }
            Tok::Punct('.') => {
                let Some(method) = ident_at(tokens, i + 1) else {
                    i += 1;
                    continue;
                };
                if matches!(method, "lock" | "read" | "write") && empty_args(tokens, i + 1) {
                    i = on_acquisition(tokens, i, depth, &mut guards, &pending_let, &mut out);
                    continue;
                }
                if punct_at(tokens, i + 2, '(') {
                    let line = tokens[i + 1].line;
                    if method.starts_with("wait") {
                        on_wait(path, tokens, i, &guards, line, &mut out.diags);
                    } else if let Some((_, what)) =
                        BLOCKING_METHODS.iter().find(|(m, _)| *m == method)
                    {
                        on_blocking(path, method, what, &guards, line, &mut out.diags);
                    } else if is_atomic_method(method) {
                        record_atomic(tokens, i, method, &mut out.atomics);
                    }
                }
                i += 1;
            }
            Tok::Ident(name) => {
                let line = tokens[i].line;
                if name == "sleep"
                    && punct_at(tokens, i + 1, '(')
                    && ident_at(tokens, i.wrapping_sub(3)) == Some("thread")
                {
                    on_blocking(
                        path,
                        "thread::sleep",
                        "sleep",
                        &guards,
                        line,
                        &mut out.diags,
                    );
                } else if let Some((f, what)) = BLOCKING_FNS.iter().find(|(f, _)| f == name) {
                    if punct_at(tokens, i + 1, '(') {
                        on_blocking(path, f, what, &guards, line, &mut out.diags);
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out.edges
        .sort_by(|a, b| (&a.held, &a.acquired, a.line).cmp(&(&b.held, &b.acquired, b.line)));
    out.edges.dedup();
    out
}

/// Handles one recognized acquisition (the `.` before `lock`/`read`/
/// `write` is at `dot`). Returns the index to resume scanning from.
fn on_acquisition(
    tokens: &[Token],
    dot: usize,
    depth: usize,
    guards: &mut Vec<Guard>,
    pending_let: &Option<(String, usize)>,
    out: &mut FileLocks,
) -> usize {
    let line = tokens[dot + 1].line;
    let lock = receiver_name(tokens, dot).unwrap_or_else(|| "<self>".to_owned());
    // Walk the `.unwrap()` / `.expect(…)` chain to see how the guard is
    // consumed: end-of-statement (named) or further method calls (temp).
    let mut j = dot + 2; // at `(` of the acquisition call
    j = skip_group(tokens, j);
    loop {
        if punct_at(tokens, j, '.')
            && matches!(
                ident_at(tokens, j + 1),
                Some("unwrap" | "expect" | "unwrap_or_else")
            )
            && punct_at(tokens, j + 2, '(')
        {
            j = skip_group(tokens, j + 2);
            continue;
        }
        break;
    }
    let chain_continues = punct_at(tokens, j, '.');
    let var = if chain_continues {
        None
    } else {
        pending_let.as_ref().map(|(v, _)| v.clone())
    };
    // Self-edges are skipped (same-name re-acquisition is usually a
    // different instance — per-thread buffers — or a reentrancy bug,
    // which is not an ordering inversion).
    for held in guards.iter() {
        if held.lock != lock {
            out.edges.push(LockEdge {
                held: held.lock.clone(),
                acquired: lock.clone(),
                held_line: held.line,
                line,
            });
        }
    }
    guards.push(Guard {
        var: var.clone(),
        lock,
        depth,
        temp: var.is_none(),
        line,
    });
    j
}

/// `Condvar::wait*` under extra guards: the guard *being waited on* is
/// released atomically by the wait, so only other live guards are bugs.
fn on_wait(
    path: &str,
    tokens: &[Token],
    dot: usize,
    guards: &[Guard],
    line: u32,
    out: &mut Vec<Diagnostic>,
) {
    let waited = first_arg_ident(tokens, dot + 2);
    let held: Vec<&Guard> = guards
        .iter()
        .filter(|g| waited.as_deref() != g.var.as_deref() || g.var.is_none())
        .collect();
    // Temporaries cannot be the waited-on guard (wait consumes a named
    // guard by value), so they always count as extra.
    let extra: Vec<&&Guard> = held
        .iter()
        .filter(|g| g.var.is_some() || waited.is_none() || g.temp)
        .collect();
    for g in extra {
        out.push(Diagnostic {
            path: path.to_owned(),
            line,
            lint: BLOCKING_WHILE_LOCKED,
            message: format!(
                "`Condvar::wait` while the `{}` guard (acquired line {}) is \
                 still live: the wait parks with `{}` held, so any thread \
                 needing it deadlocks behind this one",
                g.lock, g.line, g.lock
            ),
        });
    }
}

fn on_blocking(
    path: &str,
    call: &str,
    what: &str,
    guards: &[Guard],
    line: u32,
    out: &mut Vec<Diagnostic>,
) {
    for g in guards {
        out.push(Diagnostic {
            path: path.to_owned(),
            line,
            lint: BLOCKING_WHILE_LOCKED,
            message: format!(
                "`{call}` ({what}) while the `{}` guard (acquired line {}) is \
                 live: the lock is held for the full blocking call, so every \
                 contender stalls behind this {what}",
                g.lock, g.line
            ),
        });
    }
}

fn is_atomic_method(method: &str) -> bool {
    matches!(
        method,
        "load"
            | "store"
            | "swap"
            | "fetch_add"
            | "fetch_sub"
            | "fetch_and"
            | "fetch_or"
            | "fetch_xor"
            | "fetch_update"
            | "compare_exchange"
            | "compare_exchange_weak"
    )
}

/// Records an atomic access when the call's arguments name a memory
/// `Ordering::<X>` (which is what separates `AtomicUsize::load` from
/// unrelated `load` methods).
fn record_atomic(tokens: &[Token], dot: usize, method: &str, out: &mut Vec<AtomicAccess>) {
    let open = dot + 2;
    let end = skip_group(tokens, open);
    let mut ordering: Option<bool> = None; // Some(is_seqcst)
    for j in open..end {
        if ident_at(tokens, j) == Some("Ordering")
            && punct_at(tokens, j + 1, ':')
            && punct_at(tokens, j + 2, ':')
        {
            if let Some(ord) = ident_at(tokens, j + 3) {
                let seqcst = ord == "SeqCst";
                // `compare_exchange(…, SeqCst, Relaxed)`: the success
                // ordering (first) is the handshake-relevant one.
                if ordering.is_none() {
                    ordering = Some(seqcst);
                }
            }
        }
    }
    let Some(seqcst) = ordering else { return };
    let Some(name) = receiver_name(tokens, dot) else {
        return;
    };
    let op = match method {
        "load" => AtomicOp::Load,
        "store" => AtomicOp::Store,
        _ => AtomicOp::Rmw,
    };
    out.push(AtomicAccess {
        name,
        op,
        seqcst,
        line: tokens[dot + 1].line,
    });
}

/// The crate key for a workspace-relative path: `crates/<name>/…` →
/// `<name>`, anything else → `root`.
#[must_use]
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
}

/// Workspace pass: lock-order cycles over every file's edges, and
/// SeqCst handshake pairing over every file's atomic accesses.
/// Deterministic for a fixed file *set* regardless of input order.
#[must_use]
pub fn workspace_lints(files: &[(String, FileLocks)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Edge map keyed (held(crate,name) → acquired(crate,name)), keeping
    // the lexicographically-smallest witness for byte-stable reports.
    type Key = (String, String);
    let mut edges: BTreeMap<(Key, Key), (String, u32, u32)> = BTreeMap::new();
    for (path, fl) in files {
        let krate = crate_of(path).to_owned();
        for e in &fl.edges {
            let from = (krate.clone(), e.held.clone());
            let to = (krate.clone(), e.acquired.clone());
            let witness = (path.clone(), e.held_line, e.line);
            edges
                .entry((from, to))
                .and_modify(|w| {
                    if witness < *w {
                        *w = witness.clone();
                    }
                })
                .or_insert(witness);
        }
    }
    for ((from, to), w) in &edges {
        if from >= to {
            continue; // report each unordered pair once, from its
                      // lexicographically-first direction
        }
        let Some(rev) = edges.get(&(to.clone(), from.clone())) else {
            continue;
        };
        let fmt = |k: &Key| format!("{}::{}", k.0, k.1);
        for (witness, first, second, other) in [(w, from, to, rev), (rev, to, from, w)] {
            out.push(Diagnostic {
                path: witness.0.clone(),
                line: witness.2,
                lint: LOCK_ORDER_CYCLE,
                message: format!(
                    "`{}` is acquired (line {}) while `{}` is held (line {}), \
                     but the opposite order exists at {}:{} — two threads \
                     taking the locks in these orders deadlock",
                    fmt(second),
                    witness.2,
                    fmt(first),
                    witness.1,
                    other.0,
                    other.2,
                ),
            });
        }
    }

    // SeqCst handshake: every (crate, atomic) with a SeqCst store/RMW
    // needs at least one SeqCst load somewhere in the workspace.
    let mut seqcst_loads: BTreeMap<Key, u32> = BTreeMap::new();
    let mut any_load: BTreeMap<Key, u32> = BTreeMap::new();
    for (path, fl) in files {
        let krate = crate_of(path).to_owned();
        for a in &fl.atomics {
            if a.op == AtomicOp::Load {
                let key = (krate.clone(), a.name.clone());
                any_load.entry(key.clone()).or_insert(a.line);
                if a.seqcst {
                    seqcst_loads.entry(key).or_insert(a.line);
                }
            }
        }
    }
    for (path, fl) in files {
        let krate = crate_of(path).to_owned();
        for a in &fl.atomics {
            if a.seqcst && matches!(a.op, AtomicOp::Store | AtomicOp::Rmw) {
                let key = (krate.clone(), a.name.clone());
                if seqcst_loads.contains_key(&key) {
                    continue;
                }
                let detail = if any_load.contains_key(&key) {
                    "its loads are all weaker than SeqCst, so the store is \
                     not in the single total order the protocol assumes"
                } else {
                    "no load of it exists in this crate at all — the \
                     handshake's read half is missing"
                };
                out.push(Diagnostic {
                    path: path.clone(),
                    line: a.line,
                    lint: ATOMIC_HANDSHAKE,
                    message: format!(
                        "SeqCst write to `{}` has no paired SeqCst load: {detail} \
                         (Dekker-style wakeup protocols need both halves SeqCst)",
                        a.name
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| {
        (&a.path, a.line, a.lint, &a.message).cmp(&(&b.path, b.line, b.lint, &b.message))
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_blocks};

    fn run(path: &str, src: &str) -> FileLocks {
        extract(path, &strip_test_blocks(lex(src)))
    }

    #[test]
    fn named_guard_scope_spans_until_drop_or_block_end() {
        let src = "
            fn f(&self) {
                let a = self.first.lock();
                let b = self.second.lock();
                drop(a);
                let c = self.third.lock();
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        let pairs: Vec<(&str, &str)> = fl
            .edges
            .iter()
            .map(|e| (e.held.as_str(), e.acquired.as_str()))
            .collect();
        // After `drop(a)` only `b` (guarding `second`) is live, so the
        // `third` acquisition edges from `second`, not `first`.
        assert_eq!(pairs, vec![("first", "second"), ("second", "third")]);
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let src = "
            fn f(&self) {
                self.q.lock().push_back(task);
                let g = self.other.lock();
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert!(fl.edges.is_empty(), "{:?}", fl.edges);
    }

    #[test]
    fn if_let_scrutinee_temp_lives_through_the_block() {
        let src = "
            fn f(&self) {
                if let Some(t) = self.q.lock().pop_back() {
                    let g = self.other.lock();
                }
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert_eq!(fl.edges.len(), 1);
        assert_eq!(fl.edges[0].held, "q");
        assert_eq!(fl.edges[0].acquired, "other");
    }

    #[test]
    fn for_head_temp_dies_with_the_loop_not_the_statement_after() {
        let src = "
            fn f(&self) {
                for t in self.tokens.lock().values() {
                    t.cancel();
                }
                self.journal.flush();
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert!(fl.diags.is_empty(), "{:#?}", fl.diags);
    }

    #[test]
    fn if_else_keeps_the_scrutinee_guard_through_both_arms() {
        let src = "
            fn f(&self) {
                if let Some(t) = self.q.lock().front() {
                    use_it(t);
                } else {
                    w.write_all(line);
                }
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert_eq!(fl.diags.len(), 1, "{:#?}", fl.diags);
        assert_eq!(fl.diags[0].line, 6);
    }

    #[test]
    fn blocking_calls_under_guard_are_flagged() {
        let src = "
            fn f(&self) {
                let g = self.sink.lock();
                w.write_all(line);
                std::thread::sleep(ms);
            }
            fn ok(&self) {
                w.write_all(line);
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        let lines: Vec<u32> = fl.diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![4, 5], "{:#?}", fl.diags);
        assert!(fl.diags.iter().all(|d| d.lint == BLOCKING_WHILE_LOCKED));
    }

    #[test]
    fn wait_on_own_guard_is_fine_extra_guard_is_not() {
        let good = "
            fn f(&self) {
                let mut st = self.state.lock();
                st = self.cv.wait(st).unwrap();
            }
        ";
        assert!(run("crates/flow/src/x.rs", good).diags.is_empty());
        let bad = "
            fn f(&self) {
                let buf = self.buffer.lock();
                let mut st = self.state.lock();
                st = self.cv.wait(st).unwrap();
            }
        ";
        let fl = run("crates/flow/src/x.rs", bad);
        assert_eq!(fl.diags.len(), 1, "{:#?}", fl.diags);
        assert!(fl.diags[0].message.contains("`buffer`"));
    }

    #[test]
    fn rwlock_read_write_are_acquisitions_io_read_write_are_not() {
        let src = "
            fn f(&self) {
                let g = self.map.read();
                let h = self.other.write();
                sock.write(buf);
                sock.read(buf);
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert_eq!(fl.edges.len(), 1);
        assert_eq!(fl.edges[0].held, "map");
        assert_eq!(fl.edges[0].acquired, "other");
        assert!(fl.diags.is_empty());
    }

    #[test]
    fn atomic_accesses_are_recorded_with_orderings() {
        let src = "
            fn f(&self) {
                self.pending.fetch_add(1, Ordering::SeqCst);
                if self.sleepers.load(Ordering::SeqCst) > 0 {}
                self.busy.store(1, Ordering::Relaxed);
            }
        ";
        let fl = run("crates/flow/src/x.rs", src);
        assert_eq!(fl.atomics.len(), 3);
        assert_eq!(fl.atomics[0].op, AtomicOp::Rmw);
        assert!(fl.atomics[0].seqcst);
        assert_eq!(fl.atomics[1].op, AtomicOp::Load);
        assert!(!fl.atomics[2].seqcst);
    }

    #[test]
    fn cross_file_cycle_is_reported_at_both_witnesses() {
        let a = run(
            "crates/flow/src/a.rs",
            "fn f(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }",
        );
        let b = run(
            "crates/flow/src/b.rs",
            "fn g(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }",
        );
        let diags = workspace_lints(&[
            ("crates/flow/src/a.rs".to_owned(), a),
            ("crates/flow/src/b.rs".to_owned(), b),
        ]);
        let cycle: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.lint == LOCK_ORDER_CYCLE)
            .collect();
        assert_eq!(cycle.len(), 2, "{cycle:#?}");
        assert_eq!(cycle[0].path, "crates/flow/src/a.rs");
        assert_eq!(cycle[1].path, "crates/flow/src/b.rs");
        assert!(cycle[0].message.contains("crates/flow/src/b.rs"));
        assert!(cycle[1].message.contains("crates/flow/src/a.rs"));
    }

    #[test]
    fn same_crate_key_spans_files_but_crates_do_not_collide() {
        // `state` in two different crates is two different locks.
        let a = run(
            "crates/flow/src/a.rs",
            "fn f(&self) { let g = self.state.lock(); let h = self.io.lock(); }",
        );
        let b = run(
            "crates/exec/src/lib.rs",
            "fn g(&self) { let h = self.io.lock(); let g = self.state.lock(); }",
        );
        let diags = workspace_lints(&[
            ("crates/flow/src/a.rs".to_owned(), a),
            ("crates/exec/src/lib.rs".to_owned(), b),
        ]);
        assert!(
            diags.iter().all(|d| d.lint != LOCK_ORDER_CYCLE),
            "{diags:#?}"
        );
    }

    #[test]
    fn seqcst_store_without_seqcst_load_is_flagged() {
        let fl = run(
            "crates/exec/src/lib.rs",
            "
            fn f(&self) {
                self.pending.store(1, Ordering::SeqCst);
                let p = self.pending.load(Ordering::Relaxed);
            }
            ",
        );
        let diags = workspace_lints(&[("crates/exec/src/lib.rs".to_owned(), fl)]);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert_eq!(diags[0].lint, ATOMIC_HANDSHAKE);
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("weaker than SeqCst"));
    }

    #[test]
    fn paired_seqcst_handshake_passes() {
        let fl = run(
            "crates/exec/src/lib.rs",
            "
            fn push(&self) {
                self.pending.fetch_add(1, Ordering::SeqCst);
                if self.sleepers.load(Ordering::SeqCst) > 0 {}
            }
            fn park(&self) {
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                if self.pending.load(Ordering::SeqCst) > 0 {}
            }
            ",
        );
        let diags = workspace_lints(&[("crates/exec/src/lib.rs".to_owned(), fl)]);
        assert!(diags.is_empty(), "{diags:#?}");
    }
}
