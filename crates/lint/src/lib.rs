//! `spotlake-lint` — workspace invariant checker.
//!
//! Enforces the conventions the test suite cannot see locally:
//! determinism (no wall clocks / hash-order leaks in simulated layers),
//! fail-closed decode paths (no panics on hostile bytes), durable writes
//! (fsync-then-rename only), a closed metrics namespace, and checked
//! arithmetic in frame parsing. Run as `cargo run -p spotlake-lint` or
//! via the `cargo lint` alias; see `--list-rules` for the rule set and
//! DESIGN.md ("Machine-checked invariants") for each rule's rationale.
//!
//! Violations are suppressed per line with
//! `// lint:allow(<rule>): <justification>` — the justification is
//! mandatory and an unknown rule name is itself a violation.
//!
//! `--unused-pub` prints a report instead: every `pub` item no other
//! file names ([`unused_pub_items`]). It always exits 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conc;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;
pub mod unused;

pub use report::{render_json, Finding};
pub use rules::{analyze_source, FileAnalysis, MANIFEST_PATH, RULES};
pub use unused::{unused_pub_items, UnusedPub};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Analyzes every workspace crate under `root` and returns all findings,
/// sorted by path then line.
///
/// Scans `crates/*/src/**/*.rs` (the lint crate included — it must pass
/// its own rules). Tests, benches, fixtures, and vendored code are out
/// of scope: integration tests may use `unwrap` freely, and vendor code
/// is not ours to lint.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut family_refs: BTreeSet<&'static str> = BTreeSet::new();
    let mut lock_edges: Vec<conc::LockEdge> = Vec::new();

    let crates_dir = root.join("crates");
    for crate_dir in sorted_dirs(&crates_dir)? {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in sorted_rs_files(&src)? {
            let rel = rel_path(root, &file);
            let source = std::fs::read_to_string(&file)?;
            let analysis = analyze_source(&crate_name, &rel, &source);
            findings.extend(analysis.findings);
            family_refs.extend(analysis.family_refs);
            lock_edges.extend(analysis.lock_edges);
        }
    }

    let manifest_src = std::fs::read_to_string(root.join(MANIFEST_PATH)).unwrap_or_default();
    findings.extend(unrecorded_families(&manifest_src, &family_refs));
    findings.extend(conc::lock_order_findings(&lock_edges));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Analyzes a single file like `analyze_workspace` does, including the
/// intra-file slice of the lock-order cycle check (cross-file cycles
/// need the full workspace graph). This is what `--check-file` runs.
pub fn analyze_file(crate_name: &str, rel_path: &str, source: &str) -> Vec<Finding> {
    let analysis = analyze_source(crate_name, rel_path, source);
    let mut findings = analysis.findings;
    findings.extend(conc::lock_order_findings(&analysis.lock_edges));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Reverse direction of the metrics contract: every family in the
/// canonical manifest must be named by its constant in some non-test
/// code outside the manifest (`named`, gathered from each file's
/// [`FileAnalysis::family_refs`]), or it is dead weight that will
/// silently drift. Findings are anchored at the family's own line in
/// `manifest_src`, the source of `obs/src/names.rs`.
pub fn unrecorded_families(manifest_src: &str, named: &BTreeSet<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for family in spotlake_obs::names::METRIC_FAMILIES {
        if named.contains(family.constant) {
            continue;
        }
        let line = manifest_src
            .lines()
            .position(|l| l.contains(&format!("\"{}\"", family.name)))
            .map(|idx| idx + 1)
            .unwrap_or(1);
        findings.push(Finding {
            rule: "metrics-contract".to_owned(),
            path: MANIFEST_PATH.to_owned(),
            line,
            message: format!(
                "manifest family {:?} is never named by its constant {} outside tests; remove it or wire it up",
                family.name, family.constant
            ),
        });
    }
    findings
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn sorted_dirs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

/// All `.rs` files under `dir`, recursively, in sorted order.
fn sorted_rs_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}
