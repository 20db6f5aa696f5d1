//! The invariant rules and the per-file analysis that enforces them.
//!
//! Scope tables pin each rule to the crates/files where the workspace
//! convention is load-bearing; see DESIGN.md ("Machine-checked
//! invariants") for the PR that introduced each convention.

use crate::report::Finding;
use crate::scan::{strip, word_occurrences};

/// Rule names with one-line descriptions, as shown by `--list-rules`.
pub const RULES: &[(&str, &str)] = &[
    (
        "determinism",
        "no wall clocks, OS entropy, or hash-order iteration in cloud-sim/cloud-api/collector/timestream",
    ),
    (
        "fail-closed",
        "no unwrap/expect/panic (and no slice indexing in the codec/WAL/recovery trio) on decode and serving paths",
    ),
    (
        "durability",
        "fs writes in the persistence layer flow through atomic_write/truncate_sync, never raw create+write",
    ),
    (
        "metrics-contract",
        "metric families are named by their obs::names constants: no spotlake_* literal outside the manifest, and no declared family left unnamed",
    ),
    (
        "unchecked-arith",
        "no narrowing casts or unchecked +/* on lengths and offsets in codec/WAL frame parsing",
    ),
    (
        "allow-syntax",
        "lint:allow directives must name a known rule and carry a non-empty justification",
    ),
    (
        "lock-order",
        "lock acquisition order is acyclic across the workspace (deadlock freedom)",
    ),
    (
        "hold-across-blocking",
        "no lock guard held across fs I/O, socket ops, channel send/recv, join, or sleep",
    ),
    (
        "poison-safe",
        "serving/obs lock acquisitions recover from poisoning via unwrap_or_else(PoisonError::into_inner), never .unwrap()/.expect()",
    ),
    (
        "channel-topology",
        "serving/collector channels are bounded sync_channels and spawned threads have a reachable join",
    ),
    (
        "guard-into-spawn",
        "no lock guard captured into a spawned closure",
    ),
];

/// Whether `name` is a recognized rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == name)
}

/// The metric manifest: the one file that spells family names.
pub const MANIFEST_PATH: &str = "crates/obs/src/names.rs";

const DETERMINISM_CRATES: &[&str] = &["cloud-sim", "cloud-api", "collector", "timestream"];
/// The codec/WAL/recovery trio: decode paths where a panic is data loss.
const PARSER_FILES: &[&str] = &["codec.rs", "wal.rs", "recovery.rs", "shard.rs"];
/// Functions allowed to touch raw filesystem APIs: the designated
/// fsync-then-rename helpers plus `Wal::open` (which owns the log handle).
const DURABILITY_FNS: &[&str] = &["atomic_write", "truncate_sync", "open"];

fn file_name(rel_path: &str) -> &str {
    rel_path.rsplit('/').next().unwrap_or(rel_path)
}

fn in_parser_trio(crate_name: &str, rel_path: &str) -> bool {
    crate_name == "timestream" && PARSER_FILES.contains(&file_name(rel_path))
}

fn in_durability_scope(crate_name: &str, rel_path: &str) -> bool {
    in_parser_trio(crate_name, rel_path)
        || (crate_name == "collector" && file_name(rel_path) == "durability.rs")
}

fn in_fail_closed_scope(crate_name: &str, rel_path: &str) -> bool {
    crate_name == "serving" || in_parser_trio(crate_name, rel_path)
}

/// What one file contributed to the workspace analysis.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Violations found (allowlisted ones already removed).
    pub findings: Vec<Finding>,
    /// The `obs::names` family constants this file names in non-test
    /// code (never the manifest's own) — input to the workspace-level
    /// reverse manifest check.
    pub family_refs: Vec<&'static str>,
    /// Lock acquisition-order edges — input to the workspace-level
    /// lock-order cycle check.
    pub lock_edges: Vec<crate::conc::LockEdge>,
}

/// One parsed `lint:allow(<rule>): justification` directive.
struct Allow {
    line: usize,
    target_line: usize,
    rule: String,
    justified: bool,
    known: bool,
}

/// Analyzes one file's source as `crate_name` at `rel_path` (repo-
/// relative, used in diagnostics and scope decisions).
pub fn analyze_source(crate_name: &str, rel_path: &str, source: &str) -> FileAnalysis {
    let stripped = strip(source);
    let mut analysis = FileAnalysis::default();

    // ---- allow directives -------------------------------------------
    let mut allows: Vec<Allow> = Vec::new();
    for (idx, line) in stripped.lines.iter().enumerate() {
        // A directive must be the whole comment (`// lint:allow(…): …`);
        // prose that merely mentions the syntax (doc comments start with
        // `/` or `!` after stripping) is not a directive.
        let trimmed = line.comment.trim_start();
        let Some(rest) = trimmed.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            allows.push(Allow {
                line: idx + 1,
                target_line: idx + 1,
                rule: String::new(),
                justified: false,
                known: false,
            });
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        let tail = &rest[close + 1..];
        let justified = tail.strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
        // A directive on a comment-only line covers the next code line.
        let target_line = if line.code.trim().is_empty() {
            stripped
                .lines
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, l)| !l.code.trim().is_empty())
                .map(|(j, _)| j + 1)
                .unwrap_or(idx + 1)
        } else {
            idx + 1
        };
        let known = is_rule(&rule);
        allows.push(Allow {
            line: idx + 1,
            target_line,
            rule,
            justified,
            known,
        });
    }
    for a in &allows {
        if !a.known || !a.justified {
            analysis.findings.push(Finding {
                rule: "allow-syntax".to_owned(),
                path: rel_path.to_owned(),
                line: a.line,
                message: if a.known {
                    format!(
                        "lint:allow({}) needs a justification: `// lint:allow({}): <why>`",
                        a.rule, a.rule
                    )
                } else {
                    format!("lint:allow names unknown rule {:?}", a.rule)
                },
            });
        }
    }
    let allowed = |rule: &str, line: usize| {
        allows
            .iter()
            .any(|a| a.known && a.justified && a.rule == rule && a.target_line == line)
    };

    // ---- per-line walk with region tracking -------------------------
    let mut depth: usize = 0;
    let mut test_region: Option<usize> = None;
    let mut pending_test = false;
    let mut fn_stack: Vec<(usize, String)> = Vec::new();
    let mut pending_fn: Option<String> = None;

    let mut findings = Vec::new();
    for (idx, line) in stripped.lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test = test_region.is_some();
        let code = line.code.as_str();

        if code.contains("cfg(test)") {
            pending_test = true;
        }

        // ---- rule checks (before brace bookkeeping, so the enclosing
        // fn for this line is the one currently on the stack) ----------
        if !in_test {
            let current_fn = fn_stack.last().map(|(_, n)| n.as_str());
            let mut emit = |rule: &str, message: String| {
                if !allowed(rule, lineno) {
                    findings.push(Finding {
                        rule: rule.to_owned(),
                        path: rel_path.to_owned(),
                        line: lineno,
                        message,
                    });
                }
            };

            if DETERMINISM_CRATES.contains(&crate_name) {
                for pat in ["SystemTime::now", "Instant::now"] {
                    if code.contains(pat) {
                        emit(
                            "determinism",
                            format!("wall clock `{pat}` breaks same-seed replay; use the simulated tick"),
                        );
                    }
                }
                for pat in ["thread_rng", "from_entropy", "rand::random"] {
                    if code.contains(pat) {
                        emit(
                            "determinism",
                            format!(
                                "OS entropy `{pat}` breaks same-seed replay; use the seeded RNG"
                            ),
                        );
                    }
                }
                for pat in ["HashMap", "HashSet"] {
                    if !word_occurrences(code, pat).is_empty() {
                        emit(
                            "determinism",
                            format!(
                                "`{pat}` iteration order is nondeterministic; use the BTree equivalent"
                            ),
                        );
                    }
                }
            }

            if in_fail_closed_scope(crate_name, rel_path) {
                for pat in [
                    ".unwrap()",
                    ".expect(",
                    "panic!(",
                    "todo!(",
                    "unimplemented!(",
                ] {
                    if code.contains(pat) {
                        emit(
                            "fail-closed",
                            format!("`{pat}` can panic on hostile input; return an error instead"),
                        );
                    }
                }
                if in_parser_trio(crate_name, rel_path) {
                    for (pos, _) in code.match_indices('[') {
                        let prev = code[..pos].chars().next_back();
                        if prev.is_some_and(|c| {
                            c.is_alphanumeric() || c == '_' || c == ')' || c == ']' || c == '?'
                        }) {
                            emit(
                                "fail-closed",
                                "slice indexing can panic on short input; use `.get()`".to_owned(),
                            );
                            break;
                        }
                    }
                }
            }

            if in_durability_scope(crate_name, rel_path) {
                let exempt = current_fn.is_some_and(|f| DURABILITY_FNS.contains(&f));
                for pat in [
                    "File::create(",
                    "OpenOptions::new(",
                    "fs::write(",
                    "fs::rename(",
                ] {
                    if code.contains(pat) && !exempt {
                        emit(
                            "durability",
                            format!(
                                "raw `{pat}..)` bypasses fsync-then-rename; use atomic_write/truncate_sync"
                            ),
                        );
                    }
                }
            }

            if in_parser_trio(crate_name, rel_path) {
                for cast in [
                    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
                ] {
                    let ty = &cast[4..];
                    for pos in word_occurrences(code, ty) {
                        let head = &code[..pos];
                        if head.trim_end().ends_with(" as")
                            || head.trim_end() == "as"
                            || head.ends_with("as ")
                        {
                            // ensure the `as` is a word, not part of an ident
                            let as_start = head.trim_end().len().saturating_sub(2);
                            if crate::scan::word_at(code, as_start, "as") {
                                emit(
                                    "unchecked-arith",
                                    format!(
                                        "narrowing `{}` can truncate silently; use `u32::try_from`/checked conversion",
                                        cast.trim()
                                    ),
                                );
                            }
                        }
                    }
                }
                for pat in [
                    "wrapping_add(",
                    "wrapping_sub(",
                    "wrapping_mul(",
                    "unchecked_add(",
                    "unchecked_sub(",
                    "unchecked_mul(",
                ] {
                    if code.contains(pat) {
                        emit(
                            "unchecked-arith",
                            format!("`{pat}..)` hides overflow in frame parsing; use checked arithmetic"),
                        );
                    }
                }
                if let Some(op) = length_arith(code) {
                    emit(
                        "unchecked-arith",
                        format!(
                            "unchecked `{op}` on a length/offset can overflow; use `checked_add`/`saturating_add`"
                        ),
                    );
                }
            }

            // metrics-contract: a family is named by its constant; a
            // spotlake_* literal belongs in the manifest alone.
            for (str_line, value) in &stripped.strings {
                if *str_line != lineno {
                    continue;
                }
                let Some(name) = metric_candidate(value) else {
                    continue;
                };
                match spotlake_obs::names::lookup(name) {
                    None => emit(
                        "metrics-contract",
                        format!(
                            "metric name {name:?} is not in the canonical manifest (obs::names::METRIC_FAMILIES)"
                        ),
                    ),
                    Some(def) if rel_path != MANIFEST_PATH => emit(
                        "metrics-contract",
                        format!(
                            "metric family {name:?} spelled as a literal; name it by its constant obs::names::{}",
                            def.constant
                        ),
                    ),
                    Some(_) => {}
                }
            }
            if rel_path != MANIFEST_PATH {
                for tok in tokens(code) {
                    if let Token::Ident(id) = tok {
                        analysis.family_refs.extend(family_constant(id));
                    }
                }
            }
        }

        // ---- brace / fn / test-region bookkeeping --------------------
        for tok in tokens(code) {
            match tok {
                Token::Ident(id) => {
                    if id == "fn" {
                        pending_fn = Some(String::new());
                    } else if let Some(name) = pending_fn.as_mut() {
                        if name.is_empty() {
                            *name = id.to_owned();
                        }
                    }
                }
                Token::Sym('{') => {
                    if pending_test && test_region.is_none() {
                        test_region = Some(depth);
                        pending_test = false;
                    }
                    if let Some(name) = pending_fn.take() {
                        if !name.is_empty() {
                            fn_stack.push((depth, name));
                        }
                    }
                    depth += 1;
                }
                Token::Sym('}') => {
                    depth = depth.saturating_sub(1);
                    if test_region == Some(depth) {
                        test_region = None;
                    }
                    while fn_stack.last().is_some_and(|(d, _)| *d >= depth) {
                        fn_stack.pop();
                    }
                }
                Token::Sym(';') => {
                    // `#[cfg(test)] use …;` or a trait-method declaration.
                    if pending_fn.as_ref().is_some_and(|n| !n.is_empty()) {
                        pending_fn = None;
                    }
                    if pending_test && !code.contains("cfg(test)") {
                        pending_test = false;
                    }
                }
                Token::Sym(_) => {}
            }
        }
    }

    // ---- structural concurrency pass --------------------------------
    let conc = crate::conc::analyze_concurrency(crate_name, rel_path, &stripped);
    for f in conc.findings {
        if !allowed(&f.rule, f.line) {
            findings.push(f);
        }
    }
    analysis.lock_edges = conc.edges;

    analysis.findings.extend(findings);
    analysis.findings.sort_by_key(|f| f.line);
    analysis
}

/// `Some(op)` when the line applies a raw `+`/`*` (or compound form) to a
/// length-ish operand: an identifier segment named `len`, `pos`,
/// `offset`, `start`, or `end`, or ending in `_len`.
fn length_arith(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        let op = match b {
            b'+' => "+",
            b'*' => "*",
            _ => continue,
        };
        // `+=`-style compounds hit the same check; `=` follows the sign.
        if op == "+" && bytes.get(i + 1) == Some(&b'+') {
            continue;
        }
        let prev = operand(
            code[..i]
                .trim_end()
                .chars()
                .rev()
                .collect::<String>()
                .as_str(),
        )
        .chars()
        .rev()
        .collect::<String>();
        let mut after = &code[i + 1..];
        if let Some(stripped) = after.strip_prefix('=') {
            after = stripped;
        }
        let next = operand(after.trim_start());
        if length_ish(&prev) || length_ish(&next) {
            return Some(if bytes.get(i + 1) == Some(&b'=') {
                if op == "+" {
                    "+="
                } else {
                    "*="
                }
            } else {
                op
            });
        }
    }
    None
}

/// The maximal operand-ish prefix of `s`: identifier chars plus `.()`.
fn operand(s: &str) -> String {
    s.chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_' || c == '.' || c == '(' || c == ')')
        .collect()
}

fn length_ish(word: &str) -> bool {
    let trimmed = word.trim_end_matches(['(', ')']);
    let seg = trimmed.rsplit('.').next().unwrap_or(trimmed);
    matches!(seg, "len" | "pos" | "offset" | "start" | "end") || seg.ends_with("_len")
}

/// `Some(ident)` when it is the name of an `obs::names` family constant.
fn family_constant(ident: &str) -> Option<&'static str> {
    spotlake_obs::names::METRIC_FAMILIES
        .iter()
        .map(|def| def.constant)
        .find(|constant| *constant == ident)
}

/// `Some(name)` when a string literal is shaped like a metric family
/// name: `spotlake_` plus a non-empty `[a-z0-9_]` suffix.
fn metric_candidate(value: &str) -> Option<&str> {
    let rest = value.strip_prefix("spotlake_")?;
    if rest.is_empty()
        || !rest
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    Some(value)
}

enum Token<'a> {
    Ident(&'a str),
    Sym(char),
}

fn tokens(code: &str) -> impl Iterator<Item = Token<'_>> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        if c.is_alphanumeric() || c == '_' {
            let end = rest
                .find(|ch: char| !ch.is_alphanumeric() && ch != '_')
                .unwrap_or(rest.len());
            out.push(Token::Ident(&rest[..end]));
            rest = &rest[end..];
        } else {
            out.push(Token::Sym(c));
            rest = &rest[c.len_utf8()..];
        }
    }
    out.into_iter()
}
