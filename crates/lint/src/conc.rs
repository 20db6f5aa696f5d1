//! Concurrency-discipline rules over the structural pass in
//! [`crate::parse`]: lock-order cycles, guards held across blocking
//! calls, poison-unsafe acquisitions, channel/spawn topology, and
//! guards captured into spawned closures.
//!
//! The analyzer tracks lock-guard live-ranges per function body:
//! named guards (`let g = lock(x);`) live to the end of their block or
//! an explicit `drop(g)`; temporary guards (`lock(x).field += 1;`)
//! live to the end of their statement; and — modeling Rust's
//! temporary-lifetime rules — a guard acquired in a `match`/`for`/
//! `while`/`if` head lives to the end of the construct's block.
//! Acquisitions through the workspace's poison-recovering `lock(…)`
//! helper and through `.lock()`/`.read()`/`.write()` are both
//! recognized; a lock's identity is the last field/binding identifier
//! of the receiver (`self.inner.read()` → `inner`), which is what the
//! cross-file acquisition graph is keyed by.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{function_bodies, matching_close, matching_paren, tokenize, FnBody, SpannedTok};
use crate::report::Finding;
use crate::scan::Stripped;

/// Crates with real threads: the concurrency rules apply here.
pub const CONC_CRATES: &[&str] = &["serving", "obs", "collector", "timestream", "cloud-sim"];
/// Crates whose lock acquisitions must recover from poisoning.
const POISON_CRATES: &[&str] = &["serving", "obs"];
/// Crates whose channels must be bounded and spawns joinable.
const CHANNEL_CRATES: &[&str] = &["serving", "collector"];

/// Guard-acquiring methods (empty-parens calls only, so `io::Write::
/// write(buf)` and `BufRead::read(buf)` never match).
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Methods that block the calling thread (channel ops, joins, socket
/// and file I/O). `join`/`recv` additionally require empty parens so
/// `Path::join(p)` and `[..].join(sep)` never match.
const BLOCKING_METHODS: &[&str] = &[
    "join",
    "recv",
    "recv_timeout",
    "send",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "flush",
    "sync_all",
    "sync_data",
    "wait",
    "accept",
    "connect",
];

/// Free functions that perform durable file I/O (the workspace's
/// fsync-then-rename helpers).
const BLOCKING_FNS: &[&str] = &["atomic_write", "truncate_sync"];

/// One "guard on `from` was live when `to` was acquired" observation;
/// the inputs to the workspace-level lock-order graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock being acquired.
    pub to: String,
    /// Repo-relative path of the acquisition site.
    pub path: String,
    /// 1-based line of the acquisition site.
    pub line: usize,
    /// Enclosing function (plus ` -> callee()` for summary edges).
    pub func: String,
}

/// What the concurrency pass found in one file.
#[derive(Debug, Default)]
pub struct ConcAnalysis {
    /// Violations (not yet allow-filtered; the caller does that).
    pub findings: Vec<Finding>,
    /// Acquisition-order edges for the workspace lock-order graph.
    pub edges: Vec<LockEdge>,
}

/// Runs every concurrency rule over one file.
pub fn analyze_concurrency(crate_name: &str, rel_path: &str, stripped: &Stripped) -> ConcAnalysis {
    let mut out = ConcAnalysis::default();
    if !CONC_CRATES.contains(&crate_name) {
        return out;
    }
    let toks = tokenize(stripped);
    let bodies = function_bodies(&toks);
    let summaries = fn_summaries(&toks, &bodies);
    for body in &bodies {
        if body.in_test {
            continue;
        }
        walk_body(crate_name, rel_path, &toks, body, &summaries, &mut out);
    }
    out
}

/// A live lock guard inside one body walk.
struct Guard {
    /// Binding name for `let g = …` guards; `None` for temporaries.
    name: Option<String>,
    /// Lock identity (receiver's last field/binding identifier).
    lock: String,
    /// Acquisition line (for diagnostics).
    line: usize,
    /// Token index where the acquisition chain starts — used to match
    /// "blocking through the guard itself" (`lock(rx).recv()`).
    acq_at: usize,
    /// Brace depth at binding; named guards die when it unwinds.
    depth: usize,
    /// Token index at which a temporary dies.
    until: Option<usize>,
}

/// One recognized lock acquisition.
struct Acq {
    /// Token index where the full receiver/call chain starts.
    chain_start: usize,
    /// Token index of the `)` closing the acquisition call.
    close: usize,
    /// Lock identity.
    lock: String,
}

#[allow(clippy::too_many_lines)]
fn walk_body(
    crate_name: &str,
    rel_path: &str,
    toks: &[SpannedTok],
    body: &FnBody,
    summaries: &BTreeMap<String, Vec<String>>,
    out: &mut ConcAnalysis,
) {
    let poison_scope = POISON_CRATES.contains(&crate_name);
    let channel_scope = CHANNEL_CRATES.contains(&crate_name);
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut stmt_start = body.open + 1;
    let mut i = body.open + 1;
    while i < body.close {
        guards.retain(|g| g.until != Some(i));
        let t = &toks[i];

        // Nested fn items are separate bodies; skip them here.
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.ident().is_some()) {
            let mut j = i + 1;
            while j < body.close && !toks[j].is_sym('{') && !toks[j].is_sym(';') {
                j += 1;
            }
            if j < body.close && toks[j].is_sym('{') {
                i = matching_close(toks, j) + 1;
                stmt_start = i;
                continue;
            }
        }

        if t.is_sym('{') {
            depth += 1;
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_sym('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.until.is_some() || g.depth <= depth);
            stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.is_sym(';') {
            stmt_start = i + 1;
            i += 1;
            continue;
        }

        // `drop(name)` releases the most recent guard bound to `name`.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_sym('('))
            && toks.get(i + 3).is_some_and(|n| n.is_sym(')'))
        {
            if let Some(name) = toks.get(i + 2).and_then(|n| n.ident()) {
                if let Some(pos) = guards.iter().rposition(|g| g.name.as_deref() == Some(name)) {
                    guards.remove(pos);
                }
            }
        }

        // ---- acquisitions -------------------------------------------
        if let Some(acq) = acquisition_at(toks, i) {
            let line = toks[i].line;
            // Walk the adapter chain: `unwrap_or_else(…)` is the poison-
            // recovery idiom; `unwrap`/`expect` right after an acquisition
            // is the poison-unsafe anti-pattern.
            let mut cend = acq.close;
            loop {
                let dot = cend + 1;
                if !toks.get(dot).is_some_and(|n| n.is_sym('.')) {
                    break;
                }
                let Some(m) = toks.get(dot + 1).and_then(|n| n.ident()) else {
                    break;
                };
                if !toks.get(dot + 2).is_some_and(|n| n.is_sym('(')) {
                    break;
                }
                match m {
                    "unwrap" | "expect" => {
                        if poison_scope {
                            out.findings.push(Finding {
                                rule: "poison-safe".to_owned(),
                                path: rel_path.to_owned(),
                                line: toks[dot + 1].line,
                                message: format!(
                                    "`.{m}(…)` on the `{}` lock panics forever once poisoned; recover with `.unwrap_or_else(PoisonError::into_inner)` (see the `lock` helper)",
                                    acq.lock
                                ),
                            });
                        }
                        cend = matching_paren(toks, dot + 2);
                    }
                    "unwrap_or_else" | "unwrap_or" => {
                        cend = matching_paren(toks, dot + 2);
                    }
                    _ => break,
                }
            }

            // Live-range: named binding, end-of-statement temporary, or
            // construct-head temporary (match/for/while/if scrutinee).
            let name = binding_name(toks, stmt_start, acq.chain_start);
            let after = cend + 1;
            let until = if name.is_some() {
                None
            } else if toks.get(after).is_some_and(|n| n.is_sym(';')) {
                Some(after)
            } else if has_construct_kw(toks, stmt_start, acq.chain_start) {
                let mut j = after;
                while j < body.close && !toks[j].is_sym('{') {
                    if toks[j].is_sym('(') {
                        j = matching_paren(toks, j);
                    }
                    j += 1;
                }
                Some(if j < body.close {
                    matching_close(toks, j)
                } else {
                    body.close
                })
            } else {
                Some(statement_end(toks, after, body.close))
            };

            for g in &guards {
                if g.lock != acq.lock {
                    out.edges.push(LockEdge {
                        from: g.lock.clone(),
                        to: acq.lock.clone(),
                        path: rel_path.to_owned(),
                        line,
                        func: body.name.clone(),
                    });
                }
            }
            guards.push(Guard {
                name,
                lock: acq.lock,
                line,
                acq_at: acq.chain_start,
                depth,
                until,
            });
            i = cend + 1;
            continue;
        }

        // ---- blocking calls under a live guard ----------------------
        if !guards.is_empty() {
            if let Some((what, root)) = blocking_at(toks, i) {
                for g in &guards {
                    let through_guard = root.is_some_and(|r| {
                        r == g.acq_at
                            || (g.name.is_some()
                                && toks.get(r).and_then(|n| n.ident()) == g.name.as_deref())
                    });
                    if through_guard {
                        continue;
                    }
                    out.findings.push(Finding {
                        rule: "hold-across-blocking".to_owned(),
                        path: rel_path.to_owned(),
                        line: toks[i].line,
                        message: format!(
                            "guard on `{}` (acquired line {}) is held across blocking `{what}`; drop it or narrow its scope first",
                            g.lock, g.line
                        ),
                    });
                }
            }

            // One-level call summaries: calling a sibling function that
            // itself locks, while holding a guard, orders those locks.
            if let Some(callee) = t.ident() {
                let bare_call = toks.get(i + 1).is_some_and(|n| n.is_sym('('))
                    && !(i > 0 && toks[i - 1].is_sym('.'));
                if bare_call {
                    if let Some(callee_locks) = summaries.get(callee) {
                        for g in &guards {
                            for l in callee_locks {
                                if *l != g.lock {
                                    out.edges.push(LockEdge {
                                        from: g.lock.clone(),
                                        to: l.clone(),
                                        path: rel_path.to_owned(),
                                        line: toks[i].line,
                                        func: format!("{} -> {callee}()", body.name),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // ---- spawn sites --------------------------------------------
        if t.is_ident("spawn") && toks.get(i + 1).is_some_and(|n| n.is_sym('(')) {
            let close = matching_paren(toks, i + 1);
            for g in &guards {
                if let Some(name) = &g.name {
                    if toks[i + 2..close.min(toks.len())]
                        .iter()
                        .any(|n| n.is_ident(name))
                    {
                        out.findings.push(Finding {
                            rule: "guard-into-spawn".to_owned(),
                            path: rel_path.to_owned(),
                            line: toks[i].line,
                            message: format!(
                                "guard `{name}` on `{}` is captured by this spawned closure; a lock guard must never cross a thread spawn",
                                g.lock
                            ),
                        });
                    }
                }
            }
            if channel_scope
                && !scoped_spawn(toks, i)
                && spawn_is_detached(toks, i, close, stmt_start, body.close)
            {
                out.findings.push(Finding {
                    rule: "channel-topology".to_owned(),
                    path: rel_path.to_owned(),
                    line: toks[i].line,
                    message: "spawned thread is detached: bind the JoinHandle and join it on shutdown, or use thread::scope".to_owned(),
                });
            }
        }

        // ---- unbounded channels -------------------------------------
        if channel_scope {
            if t.is_ident("channel")
                && i >= 3
                && toks[i - 1].is_sym(':')
                && toks[i - 2].is_sym(':')
                && toks[i - 3].is_ident("mpsc")
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_sym('(') || n.is_sym(':'))
            {
                out.findings.push(Finding {
                    rule: "channel-topology".to_owned(),
                    path: rel_path.to_owned(),
                    line: toks[i].line,
                    message: "unbounded `mpsc::channel`: serving/collector queues must be bounded (`sync_channel`) so backpressure reaches the producer".to_owned(),
                });
            }
            if t.is_ident("unbounded") && toks.get(i + 1).is_some_and(|n| n.is_sym('(')) {
                out.findings.push(Finding {
                    rule: "channel-topology".to_owned(),
                    path: rel_path.to_owned(),
                    line: toks[i].line,
                    message: "unbounded channel: serving/collector queues must be bounded so backpressure reaches the producer".to_owned(),
                });
            }
        }

        i += 1;
    }
}

/// `let [mut] <name> =` immediately before the acquisition chain.
fn binding_name(toks: &[SpannedTok], stmt_start: usize, chain_start: usize) -> Option<String> {
    let head: Vec<&SpannedTok> = toks.get(stmt_start..chain_start)?.iter().collect();
    let rest = match head.as_slice() {
        [l, rest @ ..] if l.is_ident("let") => rest,
        _ => return None,
    };
    let rest = match rest {
        [m, rest @ ..] if m.is_ident("mut") => rest,
        _ => rest,
    };
    match rest {
        [name, eq] if eq.is_sym('=') => name.ident().map(str::to_owned),
        _ => None,
    }
}

/// Whether the statement head contains a construct keyword whose
/// scrutinee temporaries outlive the head (`match`/`for`/`while`/`if`).
fn has_construct_kw(toks: &[SpannedTok], stmt_start: usize, chain_start: usize) -> bool {
    toks[stmt_start..chain_start.min(toks.len())]
        .iter()
        .any(|t| {
            ["match", "for", "while", "if"]
                .iter()
                .any(|k| t.is_ident(k))
        })
}

/// First `;` (or unmatched `}`) at brace depth 0 from `from`.
fn statement_end(toks: &[SpannedTok], from: usize, limit: usize) -> usize {
    let mut d = 0i32;
    let mut j = from;
    while j < limit {
        if toks[j].is_sym('{') {
            d += 1;
        } else if toks[j].is_sym('}') {
            if d == 0 {
                break;
            }
            d -= 1;
        } else if toks[j].is_sym(';') && d == 0 {
            break;
        }
        j += 1;
    }
    j
}

/// Recognizes a lock acquisition starting at token `i`: either the
/// workspace `lock(expr)` helper call, or an empty-parens
/// `.lock()`/`.read()`/`.write()` method call.
fn acquisition_at(toks: &[SpannedTok], i: usize) -> Option<Acq> {
    let t = &toks[i];
    // Helper-call form: bare `lock(…)`, not a method, path tail, or defn.
    if t.is_ident("lock") && toks.get(i + 1).is_some_and(|n| n.is_sym('(')) {
        let prev_ok = i == 0
            || !(toks[i - 1].is_sym('.') || toks[i - 1].is_sym(':') || toks[i - 1].is_ident("fn"));
        if prev_ok {
            let close = matching_paren(toks, i + 1);
            let lock = last_field_ident(toks, i + 2, close).unwrap_or_else(|| "lock".to_owned());
            return Some(Acq {
                chain_start: i,
                close,
                lock,
            });
        }
    }
    // Method form: `.lock()` / `.read()` / `.write()` with empty parens.
    if t.is_sym('.')
        && toks
            .get(i + 1)
            .and_then(|n| n.ident())
            .is_some_and(|m| LOCK_METHODS.contains(&m))
        && toks.get(i + 2).is_some_and(|n| n.is_sym('('))
        && toks.get(i + 3).is_some_and(|n| n.is_sym(')'))
    {
        let chain_start = receiver_start(toks, i);
        let lock = last_field_ident(toks, chain_start, i)
            .unwrap_or_else(|| toks[i + 1].ident().unwrap_or("lock").to_owned());
        return Some(Acq {
            chain_start,
            close: i + 3,
            lock,
        });
    }
    None
}

/// Recognizes a blocking call at token `i`; returns its display name
/// and, for method calls, the receiver-chain start (for the
/// "blocking through the guard itself" exemption).
fn blocking_at(toks: &[SpannedTok], i: usize) -> Option<(String, Option<usize>)> {
    let t = &toks[i];
    if t.is_sym('.') {
        let m = toks.get(i + 1).and_then(|n| n.ident())?;
        if !BLOCKING_METHODS.contains(&m) || !toks.get(i + 2).is_some_and(|n| n.is_sym('(')) {
            return None;
        }
        if (m == "join" || m == "recv") && !toks.get(i + 3).is_some_and(|n| n.is_sym(')')) {
            return None;
        }
        return Some((format!(".{m}()"), Some(receiver_start(toks, i))));
    }
    if let Some(id) = t.ident() {
        let path_prefix = |name: &str| {
            i >= 3
                && toks[i - 1].is_sym(':')
                && toks[i - 2].is_sym(':')
                && toks[i - 3].is_ident(name)
        };
        let called = toks.get(i + 1).is_some_and(|n| n.is_sym('('));
        if id == "sleep" && path_prefix("thread") && called {
            return Some(("thread::sleep".to_owned(), None));
        }
        if path_prefix("fs") && called {
            return Some((format!("fs::{id}"), None));
        }
        if (id == "open" || id == "create") && path_prefix("File") && called {
            return Some((format!("File::{id}"), None));
        }
        if BLOCKING_FNS.contains(&id)
            && called
            && !(i > 0 && (toks[i - 1].is_sym('.') || toks[i - 1].is_ident("fn")))
        {
            return Some((format!("{id}(…)"), None));
        }
    }
    None
}

/// Walks a method chain backward from the `.` at `dot` to the chain's
/// first token: `self.slot.current` ← `.read()`, or the `lock` callee
/// of `lock(rx)` ← `.recv()`. Chain grammar: element (`.`|`::`
/// element)*, where an element is an identifier optionally followed by
/// a balanced call.
fn receiver_start(toks: &[SpannedTok], dot: usize) -> usize {
    let mut j = dot;
    loop {
        if j == 0 {
            return 0;
        }
        let p = j - 1;
        let elem_start = if toks[p].is_sym(')') || toks[p].is_sym(']') {
            let open = backward_match(toks, p);
            if open >= p {
                return j;
            }
            if open > 0 && toks[open - 1].ident().is_some() {
                open - 1
            } else {
                open
            }
        } else if toks[p].ident().is_some() {
            p
        } else {
            return j;
        };
        if elem_start == 0 {
            return 0;
        }
        let q = elem_start - 1;
        if toks[q].is_sym('.') {
            j = q;
        } else if toks[q].is_sym(':') && q > 0 && toks[q - 1].is_sym(':') {
            j = q - 1;
        } else {
            return elem_start;
        }
    }
}

/// Index of the `(`/`[` matching the closer at `close`, scanning
/// backward; returns `close` itself when unbalanced (fail-soft).
fn backward_match(toks: &[SpannedTok], close: usize) -> usize {
    let (open_c, close_c) = if toks[close].is_sym(']') {
        ('[', ']')
    } else {
        ('(', ')')
    };
    let mut depth = 0usize;
    let mut j = close;
    loop {
        if toks[j].is_sym(close_c) {
            depth += 1;
        } else if toks[j].is_sym(open_c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if j == 0 {
            return close;
        }
        j -= 1;
    }
}

/// Last meaningful identifier in `[start, end)` — the lock's identity.
/// Skips `self`/`mut` and the contents of nested calls.
fn last_field_ident(toks: &[SpannedTok], start: usize, end: usize) -> Option<String> {
    let mut last = None;
    let mut i = start;
    while i < end.min(toks.len()) {
        if let Some(id) = toks[i].ident() {
            if id != "self" && id != "mut" {
                last = Some(id.to_owned());
            }
            // A call's arguments don't name the lock: `lock` in
            // `lock(&self.inner)` is handled by the caller's range.
            if toks.get(i + 1).is_some_and(|n| n.is_sym('(')) && i + 1 < end {
                i = matching_paren(toks, i + 1);
            }
        }
        i += 1;
    }
    last
}

/// Whether the spawn at `i` is a `scope.spawn(…)` — joined by
/// construction when the scope closes.
fn scoped_spawn(toks: &[SpannedTok], i: usize) -> bool {
    if i == 0 || !toks[i - 1].is_sym('.') {
        return false;
    }
    let root = receiver_start(toks, i - 1);
    toks.get(root)
        .is_some_and(|t| t.is_ident("scope") || t.is_ident("s"))
}

/// Whether the spawn expression's JoinHandle is discarded: statement
/// position (`thread::spawn(…);`) or bound to `let _`.
fn spawn_is_detached(
    toks: &[SpannedTok],
    i: usize,
    close: usize,
    stmt_start: usize,
    limit: usize,
) -> bool {
    // Skip `?` and `.unwrap()/.expect(…)` after the call.
    let mut after = close + 1;
    loop {
        if toks.get(after).is_some_and(|n| n.is_sym('?')) {
            after += 1;
            continue;
        }
        if toks.get(after).is_some_and(|n| n.is_sym('.'))
            && toks
                .get(after + 1)
                .and_then(|n| n.ident())
                .is_some_and(|m| m == "unwrap" || m == "expect")
            && toks.get(after + 2).is_some_and(|n| n.is_sym('('))
        {
            after = matching_paren(toks, after + 2) + 1;
            continue;
        }
        break;
    }
    if !(toks.get(after).is_some_and(|n| n.is_sym(';')) || after >= limit) {
        return false; // expression position: the handle flows somewhere
    }
    let chain_start = receiver_start(toks, i);
    let head = &toks[stmt_start..chain_start.min(toks.len()).max(stmt_start)];
    let let_discard =
        head.len() >= 3 && head[0].is_ident("let") && head[1].is_ident("_") && head[2].is_sym('=');
    if let_discard {
        return true;
    }
    // `=` means bound; `(`/`,`/`return` mean the handle is passed on.
    !head
        .iter()
        .any(|t| t.is_sym('=') || t.is_sym('(') || t.is_sym(',') || t.is_ident("return"))
}

/// Per-function direct-acquisition summaries for one file. Functions
/// defined more than once (ambiguous bare name) and the `lock` helper
/// itself are excluded.
fn fn_summaries(toks: &[SpannedTok], bodies: &[FnBody]) -> BTreeMap<String, Vec<String>> {
    let mut map: BTreeMap<String, Option<Vec<String>>> = BTreeMap::new();
    for body in bodies {
        if body.in_test || body.name == "lock" {
            continue;
        }
        let locks = direct_acquisitions(toks, body);
        map.entry(body.name.clone())
            .and_modify(|e| *e = None)
            .or_insert(Some(locks));
    }
    map.into_iter()
        .filter_map(|(k, v)| v.and_then(|l| if l.is_empty() { None } else { Some((k, l)) }))
        .collect()
}

/// The distinct locks a body acquires directly, in first-seen order.
fn direct_acquisitions(toks: &[SpannedTok], body: &FnBody) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = body.open + 1;
    while i < body.close {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.ident().is_some()) {
            let mut j = i + 1;
            while j < body.close && !toks[j].is_sym('{') && !toks[j].is_sym(';') {
                j += 1;
            }
            if j < body.close && toks[j].is_sym('{') {
                i = matching_close(toks, j) + 1;
                continue;
            }
        }
        if let Some(acq) = acquisition_at(toks, i) {
            if !out.contains(&acq.lock) {
                out.push(acq.lock.clone());
            }
            i = acq.close + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Workspace-level lock-order analysis: finds strongly-connected
/// components in the acquisition graph and reports each cycle once,
/// with witness sites for both directions.
pub fn lock_order_findings(edges: &[LockEdge]) -> Vec<Finding> {
    // Deterministic witness per (from, to): smallest (path, line).
    let mut witness: BTreeMap<(&str, &str), &LockEdge> = BTreeMap::new();
    for e in edges {
        let key = (e.from.as_str(), e.to.as_str());
        let better = witness
            .get(&key)
            .is_none_or(|w| (e.path.as_str(), e.line) < (w.path.as_str(), w.line));
        if better {
            witness.insert(key, e);
        }
    }
    let nodes: Vec<&str> = witness
        .keys()
        .flat_map(|(a, b)| [*a, *b])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let idx = |n: &str| nodes.iter().position(|x| *x == n).unwrap_or(0);
    let n = nodes.len();
    let mut reach = vec![vec![false; n]; n];
    for (a, b) in witness.keys() {
        reach[idx(a)][idx(b)] = true;
    }
    for k in 0..n {
        for a in 0..n {
            for b in 0..n {
                reach[a][b] = reach[a][b] || (reach[a][k] && reach[k][b]);
            }
        }
    }

    // Components: mutual reachability; representative = smallest index.
    let mut seen_rep: BTreeSet<usize> = BTreeSet::new();
    let mut findings = Vec::new();
    for (a, row) in reach.iter().enumerate() {
        let comp: Vec<usize> = (0..n)
            .filter(|&b| (a == b) || (row[b] && reach[b][a]))
            .collect();
        if comp.len() < 2 || seen_rep.contains(&comp[0]) || comp[0] != a {
            continue;
        }
        seen_rep.insert(a);
        // Forward witness: smallest in-component edge.
        let Some((&(u, v), fwd)) = witness
            .iter()
            .find(|((f, t), _)| comp.contains(&idx(f)) && comp.contains(&idx(t)) && *f != *t)
        else {
            continue;
        };
        // Back witness: shortest path v → u inside the component.
        let back = shortest_path(&witness, &nodes, &comp, v, u);
        let back_desc = back
            .iter()
            .map(|e| {
                format!(
                    "`{}` then `{}` in fn {} ({}:{})",
                    e.from, e.to, e.func, e.path, e.line
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        findings.push(Finding {
            rule: "lock-order".to_owned(),
            path: fwd.path.clone(),
            line: fwd.line,
            message: format!(
                "lock acquisition cycle between `{u}` and `{v}`: `{u}` then `{v}` in fn {} ({}:{}), but {back_desc}; pick one global acquisition order",
                fwd.func, fwd.path, fwd.line
            ),
        });
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// BFS shortest edge-path `from` → `to` within a component.
fn shortest_path<'a>(
    witness: &BTreeMap<(&str, &str), &'a LockEdge>,
    nodes: &[&str],
    comp: &[usize],
    from: &str,
    to: &str,
) -> Vec<&'a LockEdge> {
    let in_comp = |n: &str| {
        nodes
            .iter()
            .position(|x| *x == n)
            .is_some_and(|i| comp.contains(&i))
    };
    let mut prev: BTreeMap<&str, &LockEdge> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(cur) = queue.pop_front() {
        if cur == to {
            break;
        }
        for ((f, t), e) in witness {
            if *f == cur && in_comp(t) && visited.insert(t) {
                prev.insert(t, e);
                queue.push_back(t);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = to;
    while cur != from {
        let Some(e) = prev.get(cur) else {
            return path;
        };
        path.push(*e);
        cur = e.from.as_str();
    }
    path.reverse();
    path
}
