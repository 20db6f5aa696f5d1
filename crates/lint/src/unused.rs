//! The `--unused-pub` report: `pub` items no other file names.
//!
//! Every unrestricted `pub` item of `crates/*/src` ([`crate::parse::pub_items`])
//! whose name appears in no other Rust file of the workspace — the
//! crates' sources, tests, benches and examples, the root `tests/` and
//! `examples/` — is listed, unless `benchmark/README.md`'s load-bearing
//! list names it: the benchmark is a package of its own and calls those.
//! A `use` declaration is not a reference (a re-export alone keeps
//! nothing alive), and a name is matched as a whole identifier, so two
//! items sharing a name keep each other off the list. That makes the
//! report an under-count, never a false alarm about a name someone
//! spells. It is a report, not a rule: deleting what it lists is a
//! change of its own.

use crate::parse::{pub_items, tokenize, PubItem, SpannedTok};
use crate::scan::strip;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The README whose load-bearing list exempts items from the report.
const LOAD_BEARING_README: &str = "benchmark/README.md";

/// One `pub` item referenced nowhere outside its own file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedPub {
    /// Repo-relative path of the file declaring it.
    pub path: String,
    /// The item.
    pub item: PubItem,
}

impl UnusedPub {
    /// `path:line: pub <kind> <name> is referenced nowhere outside its
    /// module`.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: pub {} {} is referenced nowhere outside its module",
            self.path, self.item.line, self.item.kind, self.item.name
        )
    }
}

/// Lists every `pub` item under `root/crates/*/src` that no other file
/// names, sorted by path then line.
///
/// # Errors
///
/// Returns the first filesystem error met while walking `root`.
pub fn unused_pub_items(root: &Path) -> std::io::Result<Vec<UnusedPub>> {
    let readme = std::fs::read_to_string(root.join(LOAD_BEARING_README)).unwrap_or_default();
    let exempt = load_bearing_names(&readme);

    // Each listed item with the number of the file declaring it.
    let mut declared: Vec<(usize, UnusedPub)> = Vec::new();
    // Identifier -> the files naming it outside a `use` declaration.
    let mut named_in: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    let files = reference_files(root)?;
    let mut tokens = Vec::with_capacity(files.len());
    for (rel, _) in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        tokens.push(tokenize(&strip(&source)));
    }
    for (file_no, ((rel, is_src), toks)) in files.iter().zip(&tokens).enumerate() {
        if *is_src {
            declared.extend(pub_items(toks).into_iter().map(|item| {
                let path = rel.clone();
                (file_no, UnusedPub { path, item })
            }));
        }
        for name in referenced_names(toks) {
            named_in.entry(name).or_default().insert(file_no);
        }
    }
    let named_elsewhere = |file_no: usize, name: &str| {
        named_in
            .get(name)
            .is_some_and(|in_files| in_files.iter().any(|&f| f != file_no))
    };
    let mut unused: Vec<UnusedPub> = declared
        .into_iter()
        .filter(|(file_no, u)| {
            !exempt.contains(&u.item.name) && !named_elsewhere(*file_no, &u.item.name)
        })
        .map(|(_, u)| u)
        .collect();
    unused.sort_by(|a, b| (&a.path, a.item.line).cmp(&(&b.path, b.item.line)));
    Ok(unused)
}

/// Every identifier of `toks` outside `use` declarations.
fn referenced_names(toks: &[SpannedTok]) -> impl Iterator<Item = &str> {
    let mut in_use = false;
    toks.iter().filter_map(move |t| {
        if t.is_ident("use") {
            in_use = true;
        } else if in_use && t.is_sym(';') {
            in_use = false;
        }
        t.ident().filter(|_| !in_use)
    })
}

/// The identifiers inside backticks in the README's
/// "The load-bearing API" section.
fn load_bearing_names(readme: &str) -> BTreeSet<String> {
    let section: String = readme
        .split("\n## ")
        .find(|s| s.starts_with("The load-bearing API"))
        .unwrap_or_default()
        .to_owned();
    section
        .split('`')
        .skip(1)
        .step_by(2)
        .flat_map(|code| {
            code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The Rust files the report reads, repo-relative and sorted, each
/// flagged whether it is a crate source (whose items are listed) or
/// only a place references come from. Lint fixtures are neither.
fn reference_files(root: &Path) -> std::io::Result<Vec<(String, bool)>> {
    let mut dirs = Vec::new();
    for krate in crate::sorted_dirs(&root.join("crates"))? {
        dirs.push((krate.join("src"), true));
        for sub in ["tests", "benches", "examples"] {
            dirs.push((krate.join(sub), false));
        }
    }
    dirs.push((root.join("tests"), false));
    dirs.push((root.join("examples"), false));
    let mut out = Vec::new();
    for (dir, is_src) in dirs.into_iter().filter(|(dir, _)| dir.is_dir()) {
        for file in crate::sorted_rs_files(&dir)? {
            let rel = crate::rel_path(root, &file);
            if !rel.split('/').any(|part| part == "fixtures") {
                out.push((rel, is_src));
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_load_bearing_list_is_read_from_backticks_in_its_section() {
        let readme = "# B\n\n## Other\n`not_this`\n\n## The load-bearing API\n\n\
                      * `a_crate`: `Catalog::{aws_2022,\n  ty}`, plain words\n\n## Next\n`nor_this`\n";
        let names = load_bearing_names(readme);
        let want: BTreeSet<String> = ["a_crate", "Catalog", "aws_2022", "ty"]
            .into_iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(names, want);
    }
}
