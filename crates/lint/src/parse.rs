//! Structural pass: a line-attributed token stream and brace-matched
//! function-body recovery, built on the lexical strip from [`crate::scan`].
//!
//! The per-line scanner the first lint PR shipped cannot see a lock guard
//! that outlives its line or two functions acquiring the same pair of
//! locks in opposite orders. This module recovers just enough structure
//! for those questions — tokens with line numbers, matched brace trees,
//! function boundaries, and `#[cfg(test)]` regions — while staying a
//! hand-rolled, dependency-free token matcher (no `syn`), like the rest
//! of the checker.

use crate::scan::Stripped;

/// One token of blanked code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (alphanumeric/underscore run).
    Ident(String),
    /// A single non-whitespace symbol character.
    Sym(char),
}

/// A token with the 1-based source line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    /// 1-based source line.
    pub line: usize,
    /// The token itself.
    pub tok: Tok,
}

impl SpannedTok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s.as_str()),
            Tok::Sym(_) => None,
        }
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }

    /// Whether this token is the symbol `c`.
    pub fn is_sym(&self, c: char) -> bool {
        matches!(self.tok, Tok::Sym(s) if s == c)
    }
}

/// Tokenizes blanked code into identifiers and symbols with line
/// numbers. Whitespace is dropped; string/char contents were already
/// blanked by [`crate::scan::strip`], so only their delimiters appear.
pub fn tokenize(stripped: &Stripped) -> Vec<SpannedTok> {
    let mut out = Vec::new();
    for (idx, line) in stripped.lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut rest = line.code.as_str();
        while let Some(c) = rest.chars().next() {
            if c.is_whitespace() {
                rest = &rest[c.len_utf8()..];
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let end = rest
                    .find(|ch: char| !ch.is_alphanumeric() && ch != '_')
                    .unwrap_or(rest.len());
                out.push(SpannedTok {
                    line: lineno,
                    tok: Tok::Ident(rest[..end].to_owned()),
                });
                rest = &rest[end..];
            } else {
                out.push(SpannedTok {
                    line: lineno,
                    tok: Tok::Sym(c),
                });
                rest = &rest[c.len_utf8()..];
            }
        }
    }
    out
}

/// One recovered function body.
#[derive(Debug, Clone)]
pub struct FnBody {
    /// Function name (the identifier after `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the body's opening `{`.
    pub open: usize,
    /// Token index of the matching closing `}` (exclusive body end).
    pub close: usize,
    /// Whether the body sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Recovers every function body from the token stream by brace matching.
///
/// Nested functions are returned as their own bodies (their token ranges
/// sit inside the parent's range; walkers skip nested `fn` regions so
/// nothing is analyzed twice). Trait-method declarations without bodies
/// are ignored. Bodies inside `#[cfg(test)]` regions are marked
/// `in_test` so test-only code escapes production rules, mirroring the
/// per-line scanner's exemption.
pub fn function_bodies(toks: &[SpannedTok]) -> Vec<FnBody> {
    let in_test = test_mask(toks);
    let mut bodies = Vec::new();
    // (name, fn-line) awaiting its opening brace.
    let mut pending_fn: Option<(String, usize)> = None;
    let mut awaiting_name = false;

    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("fn") {
            awaiting_name = true;
        } else if awaiting_name {
            if let Some(name) = t.ident() {
                pending_fn = Some((name.to_owned(), t.line));
                awaiting_name = false;
            }
        }
        match &t.tok {
            Tok::Sym('{') => {
                if let Some((name, line)) = pending_fn.take() {
                    let close = matching_close(toks, i);
                    bodies.push(FnBody {
                        name,
                        line,
                        open: i,
                        close,
                        in_test: in_test[i],
                    });
                }
            }
            // Trait-method declaration.
            Tok::Sym(';') => pending_fn = None,
            _ => {}
        }
    }
    bodies
}

/// Whether each token sits inside a `#[cfg(test)]` region: the braces
/// of the item the attribute is on (a `#[cfg(test)] use …;` opens none).
fn test_mask(toks: &[SpannedTok]) -> Vec<bool> {
    let mut mask = Vec::with_capacity(toks.len());
    let mut depth = 0usize;
    let mut test_region: Option<usize> = None;
    let mut pending_test = false;
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("cfg")
            && toks.get(i + 1).is_some_and(|n| n.is_sym('('))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("test"))
        {
            pending_test = true;
        }
        match t.tok {
            Tok::Sym('{') => {
                if pending_test && test_region.is_none() {
                    test_region = Some(depth);
                }
                pending_test = false;
                depth += 1;
            }
            Tok::Sym('}') => {
                depth = depth.saturating_sub(1);
                if test_region == Some(depth) {
                    test_region = None;
                }
            }
            Tok::Sym(';') => pending_test = false,
            _ => {}
        }
        mask.push(test_region.is_some());
    }
    mask
}

/// One unrestricted `pub` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// The item keyword: `fn`, `struct`, `enum`, `trait`, `type`,
    /// `const`, `static` or `union`.
    pub kind: &'static str,
    /// The item's name.
    pub name: String,
    /// 1-based line of the name.
    pub line: usize,
}

/// The item keywords [`pub_items`] recovers.
const ITEM_KINDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "union",
];

/// Recovers every unrestricted `pub` item outside `#[cfg(test)]`
/// regions, methods of `impl` blocks included. Restricted visibility
/// (`pub(crate)`, `pub(super)`), `pub use` re-exports, `pub mod`
/// declarations and `pub` fields are not items here.
pub fn pub_items(toks: &[SpannedTok]) -> Vec<PubItem> {
    let in_test = test_mask(toks);
    let mut items = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || in_test[i] {
            continue;
        }
        // Skip qualifiers: `unsafe`, `async`, `extern "C"`, `const fn`,
        // `static mut`.
        let mut j = i + 1;
        let kind = loop {
            let Some(next) = toks.get(j) else { break None };
            match next.ident() {
                Some("unsafe" | "async" | "extern" | "mut") => j += 1,
                Some("const")
                    if toks.get(j + 1).is_some_and(|n| {
                        n.ident()
                            .is_some_and(|w| matches!(w, "fn" | "unsafe" | "async"))
                    }) =>
                {
                    j += 1
                }
                Some(word) => break ITEM_KINDS.iter().find(|k| **k == word).copied(),
                None if next.is_sym('"') => j += 1,
                None => break None,
            }
        };
        let Some(kind) = kind else { continue };
        let mut k = j + 1;
        while toks.get(k).is_some_and(|n| n.is_ident("mut")) {
            k += 1;
        }
        if let Some(name) = toks.get(k).and_then(SpannedTok::ident) {
            items.push(PubItem {
                kind,
                name: name.to_owned(),
                line: toks[k].line,
            });
        }
    }
    items
}

/// Token index of the `}` matching the `{` at `open` (or the end of the
/// stream for unbalanced input — truncated files fail soft, not loud).
pub fn matching_close(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Sym('{') => depth += 1,
            Tok::Sym('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Token index just past the `)` matching the `(` at `open` minus one —
/// i.e. the index of the matching `)` itself (or stream end).
pub fn matching_paren(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Sym('(') => depth += 1,
            Tok::Sym(')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    fn toks(src: &str) -> Vec<SpannedTok> {
        tokenize(&strip(src))
    }

    #[test]
    fn tokens_carry_lines_and_skip_strings() {
        let t = toks("let x = \"a.b()\";\nx.lock()\n");
        assert!(t.iter().any(|t| t.is_ident("lock") && t.line == 2));
        // The string's contents were blanked: no `a`/`b` idents on line 1.
        assert!(!t.iter().any(|t| t.is_ident("a")));
    }

    #[test]
    fn function_bodies_are_brace_matched() {
        let src = "fn outer() { if x { y(); } }\nfn later() -> u8 { 0 }\n";
        let t = toks(src);
        let bodies = function_bodies(&t);
        assert_eq!(bodies.len(), 2);
        assert_eq!(bodies[0].name, "outer");
        assert_eq!(bodies[0].line, 1);
        assert!(t[bodies[0].open].is_sym('{'));
        assert!(t[bodies[0].close].is_sym('}'));
        assert_eq!(bodies[1].name, "later");
        assert_eq!(bodies[1].line, 2);
    }

    #[test]
    fn nested_fns_and_trait_decls() {
        let src = "trait T { fn decl(&self); }\nfn a() { fn b() {} b(); }\n";
        let bodies = function_bodies(&toks(src));
        let names: Vec<&str> = bodies.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "decl has no body; nested b recovered");
    }

    #[test]
    fn cfg_test_bodies_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests { fn t() {} }\n";
        let bodies = function_bodies(&toks(src));
        assert_eq!(bodies.len(), 2);
        assert!(!bodies[0].in_test);
        assert!(bodies[1].in_test, "body inside cfg(test) region");
    }

    #[test]
    fn pub_items_are_recovered_with_their_kind_and_line() {
        let src = "pub fn a() {}\npub(crate) fn hidden() {}\npub struct S { pub field: u8 }\n\
                   impl S { pub const fn m(&self) {} }\npub use x::Y;\npub mod m;\n\
                   pub static mut N: u8 = 0;\npub unsafe extern \"C\" fn c() {}\n\
                   pub const K: u8 = 1;\n#[cfg(test)]\nmod tests { pub fn t() {} }\n";
        let items = pub_items(&toks(src));
        let got: Vec<(&str, &str, usize)> = items
            .iter()
            .map(|i| (i.kind, i.name.as_str(), i.line))
            .collect();
        assert_eq!(
            got,
            [
                ("fn", "a", 1),
                ("struct", "S", 3),
                ("fn", "m", 4),
                ("static", "N", 7),
                ("fn", "c", 8),
                ("const", "K", 9),
            ]
        );
    }

    #[test]
    fn unbalanced_input_fails_soft() {
        let t = toks("fn broken() { let x = 1;\n");
        let bodies = function_bodies(&t);
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[0].close, t.len());
    }
}
