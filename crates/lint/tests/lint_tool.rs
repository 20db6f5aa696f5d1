//! End-to-end tests for the invariant checker: each fixture violates
//! exactly one rule (or none), and the binary's exit codes and output
//! formats are part of the CI contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use spotlake_lint::{
    analyze_file, analyze_source, unrecorded_families, unused_pub_items, Finding, UnusedPub,
    MANIFEST_PATH,
};
use spotlake_obs::names::METRIC_FAMILIES;
use std::collections::BTreeSet;

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path).expect("fixture readable");
    (path, source)
}

fn findings(name: &str, as_crate: &str, as_path: &str) -> Vec<Finding> {
    let (_, source) = fixture(name);
    analyze_source(as_crate, as_path, &source).findings
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn d1_wallclock_is_flagged_in_sim_crates_only() {
    let hits = findings("d1_wallclock.rs", "cloud-sim", "crates/cloud-sim/src/x.rs");
    assert_eq!(rules_of(&hits), ["determinism"]);
    assert_eq!(hits[0].line, 2);
    assert!(hits[0].message.contains("SystemTime::now"));
    // The same source in an out-of-scope crate is fine.
    assert!(findings("d1_wallclock.rs", "analysis", "crates/analysis/src/x.rs").is_empty());
}

#[test]
fn d1_hashmap_is_flagged() {
    let hits = findings("d1_hashmap.rs", "collector", "crates/collector/src/x.rs");
    assert_eq!(rules_of(&hits), ["determinism"]);
    assert!(hits[0].message.contains("HashMap"));
}

#[test]
fn d2_unwrap_is_flagged_in_serving() {
    let hits = findings("d2_unwrap.rs", "serving", "crates/serving/src/x.rs");
    assert_eq!(rules_of(&hits), ["fail-closed"]);
    assert_eq!(hits[0].line, 2);
}

#[test]
fn d2_server_modules_are_in_fail_closed_scope() {
    // The fail-closed rule covers the whole serving crate, so the TCP
    // server under serving/src/server/ is inside the scope by
    // construction — this pins that down against future scope edits.
    for path in [
        "crates/serving/src/server/engine.rs",
        "crates/serving/src/server/wire.rs",
        "crates/serving/src/server/loadgen.rs",
    ] {
        let hits = findings("d2_unwrap.rs", "serving", path);
        assert_eq!(rules_of(&hits), ["fail-closed"], "{path}");
    }
    // Deadlines and latency measurement need a monotonic clock, so
    // serving deliberately stays outside the determinism scope.
    assert!(findings(
        "d1_wallclock.rs",
        "serving",
        "crates/serving/src/server/engine.rs"
    )
    .is_empty());
}

#[test]
fn d2_indexing_is_flagged_only_in_the_parser_trio() {
    let hits = findings(
        "d2_indexing.rs",
        "timestream",
        "crates/timestream/src/codec.rs",
    );
    assert_eq!(rules_of(&hits), ["fail-closed"]);
    assert!(hits[0].message.contains("indexing"));
    // Indexing is allowed in serving (only panicking macros are not).
    assert!(findings("d2_indexing.rs", "serving", "crates/serving/src/x.rs").is_empty());
}

#[test]
fn d3_raw_write_is_flagged_outside_the_helpers() {
    let hits = findings(
        "d3_rawwrite.rs",
        "timestream",
        "crates/timestream/src/wal.rs",
    );
    assert_eq!(rules_of(&hits), ["durability"]);
    assert!(hits[0].message.contains("atomic_write"));
}

#[test]
fn d4_unknown_metric_is_flagged_everywhere() {
    let hits = findings("d4_metric.rs", "analysis", "crates/analysis/src/x.rs");
    assert_eq!(rules_of(&hits), ["metrics-contract"]);
    assert!(hits[0].message.contains("spotlake_bogus_metric_total"));
}

#[test]
fn d4_known_metric_literal_outside_the_manifest_is_flagged() {
    let hits = findings("d4_literal.rs", "serving", "crates/serving/src/x.rs");
    assert_eq!(rules_of(&hits), ["metrics-contract"]);
    assert_eq!(hits[0].line, 1);
    assert!(
        hits[0].message.contains("obs::names::STORE_QUERIES_TOTAL"),
        "{}",
        hits[0].message
    );
    // The manifest is the one file that spells family names.
    assert!(findings("d4_literal.rs", "obs", MANIFEST_PATH).is_empty());
}

#[test]
fn d4_declared_family_nothing_records_is_flagged() {
    let analysis = analyze_source(
        "collector",
        "crates/collector/src/x.rs",
        &fixture("d4_recorded.rs").1,
    );
    assert!(analysis.findings.is_empty());
    // The test module's constant does not count as a recording.
    assert_eq!(analysis.family_refs, ["STORE_QUERIES_TOTAL"]);
    let named: BTreeSet<&str> = analysis.family_refs.iter().copied().collect();
    let hits = unrecorded_families("", &named);
    assert_eq!(hits.len(), METRIC_FAMILIES.len() - 1);
    assert!(hits
        .iter()
        .all(|f| f.rule == "metrics-contract" && f.path == MANIFEST_PATH));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("\"spotlake_wal_dead\"")));
    assert!(!hits
        .iter()
        .any(|f| f.message.contains("\"spotlake_store_queries_total\"")));
    // Naming a constant inside the manifest itself records nothing.
    let own = analyze_source("obs", MANIFEST_PATH, &fixture("d4_recorded.rs").1);
    assert!(own.family_refs.is_empty());
}

#[test]
fn d5_narrowing_cast_is_flagged_in_the_parser_trio() {
    let hits = findings("d5_cast.rs", "timestream", "crates/timestream/src/codec.rs");
    assert_eq!(rules_of(&hits), ["unchecked-arith"]);
    assert!(hits[0].message.contains("as u32"));
    assert!(findings("d5_cast.rs", "timestream", "crates/timestream/src/store.rs").is_empty());
}

#[test]
fn clean_fixture_has_no_findings() {
    assert!(findings("clean.rs", "timestream", "crates/timestream/src/codec.rs").is_empty());
}

#[test]
fn allow_directives_suppress_with_justification() {
    assert!(findings("allowed.rs", "cloud-sim", "crates/cloud-sim/src/x.rs").is_empty());
}

#[test]
fn malformed_allow_directives_are_themselves_findings() {
    let hits = findings("bad_allow.rs", "cloud-sim", "crates/cloud-sim/src/x.rs");
    assert_eq!(rules_of(&hits), ["allow-syntax", "allow-syntax"]);
    assert!(hits[0].message.contains("justification"));
    assert!(hits[1].message.contains("nonsense"));
}

#[test]
fn cfg_test_regions_are_exempt() {
    assert!(findings("test_mod.rs", "serving", "crates/serving/src/x.rs").is_empty());
}

// ---- concurrency rules -------------------------------------------------

/// Like `findings`, but through `analyze_file` so the intra-file slice
/// of the lock-order cycle check runs too (the `--check-file` path).
fn file_findings(name: &str, as_crate: &str, as_path: &str) -> Vec<Finding> {
    let (_, source) = fixture(name);
    analyze_file(as_crate, as_path, &source)
}

#[test]
fn c1_opposite_lock_orders_are_a_cycle() {
    let hits = file_findings("c1_lockorder.rs", "obs", "crates/obs/src/x.rs");
    assert_eq!(rules_of(&hits), ["lock-order"]);
    assert!(hits[0].message.contains("fn ab"), "{}", hits[0].message);
    assert!(hits[0].message.contains("fn ba"), "{}", hits[0].message);
    // Concurrency rules only apply to the threaded crates: cloud-sim (the
    // simulator tick's two lanes) is one, cloud-api is not.
    let hits = file_findings("c1_lockorder.rs", "cloud-sim", "crates/cloud-sim/src/x.rs");
    assert_eq!(rules_of(&hits), ["lock-order"]);
    assert!(file_findings("c1_lockorder.rs", "cloud-api", "crates/cloud-api/src/x.rs").is_empty());
}

#[test]
fn c1_consistent_lock_order_is_clean() {
    let src = "\
use std::sync::{Mutex, MutexGuard, PoisonError};
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
pub fn one(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 { let ga = lock(a); let gb = lock(b); *ga + *gb }
pub fn two(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 { let ga = lock(a); let gb = lock(b); *gb + *ga }
";
    assert!(analyze_file("obs", "crates/obs/src/x.rs", src).is_empty());
}

#[test]
fn c2_guard_across_file_io_is_flagged() {
    let hits = file_findings("c2_holdblocking.rs", "obs", "crates/obs/src/x.rs");
    assert_eq!(rules_of(&hits), ["hold-across-blocking"]);
    assert!(hits[0].message.contains("fs::write"), "{}", hits[0].message);
    assert!(hits[0].message.contains("`m`"), "{}", hits[0].message);
}

#[test]
fn c2_blocking_through_the_guard_itself_is_exempt() {
    // The shared-receiver worker idiom: the lock exists to serialize
    // access to the Receiver, so recv *through the guard* is its purpose.
    let src = "\
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, MutexGuard, PoisonError};
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
pub fn pump(rx: &Mutex<Receiver<u8>>) {
    loop {
        let x = match lock(rx).recv() {
            Ok(x) => x,
            Err(_) => break,
        };
        drop(x);
    }
}
";
    assert!(analyze_file("serving", "crates/serving/src/x.rs", src).is_empty());
}

#[test]
fn c3_unwrap_on_lock_is_poison_unsafe() {
    let hits = file_findings("c3_lockunwrap.rs", "obs", "crates/obs/src/x.rs");
    assert_eq!(rules_of(&hits), ["poison-safe"]);
    assert!(
        hits[0].message.contains("PoisonError::into_inner"),
        "{}",
        hits[0].message
    );
    // Poison-safety is a serving/obs requirement; timestream (outside
    // the parser trio) is out of scope.
    assert!(file_findings(
        "c3_lockunwrap.rs",
        "timestream",
        "crates/timestream/src/store.rs"
    )
    .is_empty());
}

#[test]
fn c4_unbounded_channel_and_detached_spawn_are_flagged() {
    let hits = file_findings("c4_channel.rs", "serving", "crates/serving/src/x.rs");
    assert_eq!(rules_of(&hits), ["channel-topology", "channel-topology"]);
    assert!(
        hits[0].message.contains("sync_channel"),
        "{}",
        hits[0].message
    );
    assert!(hits[1].message.contains("detached"), "{}", hits[1].message);
    // Channel topology is a serving/collector rule.
    assert!(file_findings("c4_channel.rs", "obs", "crates/obs/src/x.rs").is_empty());
}

#[test]
fn c4_bounded_channel_with_joined_spawn_is_clean() {
    let src = "\
pub fn fanout() {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(8);
    let h = std::thread::spawn(move || drop(tx));
    drop(rx);
    h.join().ok();
}
";
    assert!(analyze_file("serving", "crates/serving/src/x.rs", src).is_empty());
}

#[test]
fn c5_guard_captured_into_spawn_is_flagged() {
    let hits = file_findings("c5_guardspawn.rs", "obs", "crates/obs/src/x.rs");
    assert_eq!(rules_of(&hits), ["guard-into-spawn"]);
    assert!(hits[0].message.contains("`g`"), "{}", hits[0].message);
}

// ---- binary contract ---------------------------------------------------

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spotlake-lint"))
}

#[test]
fn binary_exits_nonzero_with_diagnostics_on_violation() {
    let (path, _) = fixture("d1_wallclock.rs");
    let out = lint_bin()
        .args(["--check-file"])
        .arg(&path)
        .args([
            "--as-crate",
            "cloud-sim",
            "--as-path",
            "crates/cloud-sim/src/x.rs",
        ])
        .args(["--json", "-"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/cloud-sim/src/x.rs:2: [determinism]"),
        "{stdout}"
    );
    assert!(stdout.contains("\"version\":1"), "{stdout}");
    assert!(stdout.contains("\"total\":1"), "{stdout}");
}

#[test]
fn binary_exits_zero_on_clean_file() {
    let (path, _) = fixture("clean.rs");
    let out = lint_bin()
        .args(["--check-file"])
        .arg(&path)
        .args([
            "--as-crate",
            "timestream",
            "--as-path",
            "crates/timestream/src/codec.rs",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn binary_exits_two_on_usage_error() {
    let out = lint_bin()
        .arg("--no-such-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// The binary as the `cargo lint` alias (`run -p spotlake-lint --`) runs
/// it from the workspace root: whatever follows `cargo lint` arrives
/// after the alias' own `--`, so `cargo lint -- --help` hands the binary
/// `["--", "--help"]`.
fn cargo_lint(args: &[&str]) -> std::process::Output {
    lint_bin()
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn documented_cargo_lint_scans_the_workspace_clean() {
    let out = cargo_lint(&[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("spotlake-lint: clean"), "{stderr}");
}

#[test]
fn documented_list_rules_after_the_alias_separator() {
    let out = cargo_lint(&["--", "--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = spotlake_lint::RULES.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, expected);
}

#[test]
fn documented_json_report_after_the_alias_separator() {
    let report = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-report.json");
    let _ = std::fs::remove_file(&report);
    let out = cargo_lint(&["--", "--json", report.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0));
    let doc = std::fs::read_to_string(&report).expect("report written");
    assert_eq!(doc, "{\"version\":1,\"findings\":[],\"total\":0}");
}

#[test]
fn documented_unused_pub_report_exits_zero() {
    let out = cargo_lint(&["--unused-pub"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("pub item(s) referenced nowhere outside their module"),
        "{stderr}"
    );
}

#[test]
fn documented_help_after_the_alias_separator() {
    let out = cargo_lint(&["--", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
    // Only one separator is the alias' doing; a second is a usage error.
    assert_eq!(cargo_lint(&["--", "--", "--help"]).status.code(), Some(2));
}

#[test]
fn binary_lists_rules() {
    // The listing is the complete rule table, in order: a new rule
    // cannot ship without appearing here (and thus in the docs test).
    let out = lint_bin()
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = spotlake_lint::RULES.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed, expected);
    assert_eq!(
        expected,
        [
            "determinism",
            "fail-closed",
            "durability",
            "metrics-contract",
            "unchecked-arith",
            "allow-syntax",
            "lock-order",
            "hold-across-blocking",
            "poison-safe",
            "channel-topology",
            "guard-into-spawn",
        ]
    );
}

#[test]
fn workspace_self_scan_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = lint_bin()
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}

#[test]
fn unused_pub_reports_items_no_other_file_names_and_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/unused_pub");
    let listed: Vec<String> = unused_pub_items(&root)
        .expect("fixture workspace readable")
        .iter()
        .map(UnusedPub::render_text)
        .collect();
    let want = [
        "crates/a/src/lib.rs:11: pub fn only_here is referenced nowhere outside its module",
        "crates/a/src/lib.rs:31: pub fn lonely is referenced nowhere outside its module",
        "crates/a/src/other.rs:4: pub struct Reexported is referenced nowhere outside its module",
    ];
    assert_eq!(listed, want);

    // A report, not a gate: the binary prints the same lines and exits 0.
    let out = lint_bin()
        .arg("--unused-pub")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().collect::<Vec<_>>(), want);
    assert!(String::from_utf8_lossy(&out.stderr).contains("3 pub item(s)"));
}
