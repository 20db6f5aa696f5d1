//! Golden same-seed digests: "same bytes" as a committed file.
//!
//! Each scenario runs a seeded pipeline on the small test catalog and
//! digests everything it leaves behind into a manifest, one line per
//! artifact (`<crc32c> <bytes> <name>`, sorted by name):
//!
//! * every file of the WAL tree (durable scenarios);
//! * the `/metrics` scrape and the collector's trace journal;
//! * `/quality`, `/stats` and `/health`.
//!
//! The test runs each scenario twice — the two manifests must agree
//! (determinism) — and compares the result with `tests/golden/<name>.txt`
//! (drift). A mismatch names the first artifact that differs. A change
//! that alters the bytes on purpose re-blesses the files with
//!
//! ```bash
//! SPOTLAKE_BLESS=1 cargo test -p spotlake --test golden
//! ```
//!
//! and the diff of `tests/golden/` shows which artifacts moved.

mod common;

use spotlake::{CollectorConfig, SpotLake};
use spotlake_cloud_api::FaultPlan;
use spotlake_timestream::IoFaultPlan;
use std::path::{Path, PathBuf};

/// Rounds per scenario: twelve simulated hours at the 30-minute tick.
const ROUNDS: u64 = 24;

/// The endpoints digested, in request order: each request shows in the
/// gateway's own counters, so the order is part of the scenario.
const ENDPOINTS: &[(&str, &str)] = &[
    ("http/health", "/health"),
    ("http/stats", "/stats"),
    ("http/quality", "/quality"),
    ("http/metrics", "/metrics"),
];

/// CRC-32C (Castagnoli), bit by bit: the digests only need to be stable
/// and cheap at test sizes. Not the IEEE polynomial the archive's frames
/// and files carry: a file that ends in its own IEEE CRC-32 digests to
/// that polynomial's constant residue, whatever its content.
fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0x82F6_3B78 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}

/// Every file under `root` as (path relative to `root`, bytes).
fn files(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files(root, &path, out);
        } else {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            out.push((rel, std::fs::read(&path).expect("readable file")));
        }
    }
}

/// Runs `config` for [`ROUNDS`] rounds and digests what it leaves.
/// `wal_dir` is the run's archive directory when the scenario is durable.
fn manifest(config: CollectorConfig, wal_dir: Option<&Path>) -> String {
    let mut lake = SpotLake::builder()
        .catalog(common::test_catalog(common::GPU_MENU))
        .sim_config(common::sim_config())
        .collector_config(CollectorConfig {
            wal_dir: wal_dir.map(Path::to_owned),
            ..config
        })
        .build()
        .expect("pipeline builds");
    lake.run_rounds(ROUNDS).expect("rounds degrade, never fail");

    let mut artifacts: Vec<(String, Vec<u8>)> = Vec::new();
    for (name, path) in ENDPOINTS {
        let response = lake.http_get(path).expect("request parses");
        assert_eq!(response.status, 200, "GET {path}");
        artifacts.push(((*name).to_owned(), response.body_text().into_bytes()));
    }
    artifacts.push(("trace.jsonl".to_owned(), lake.trace_text().into_bytes()));
    if let Some(dir) = wal_dir {
        // Everything the service writes is on disk once a round returns.
        let mut tree = Vec::new();
        files(dir, dir, &mut tree);
        assert!(!tree.is_empty(), "the durable scenario wrote a WAL tree");
        artifacts.extend(tree.into_iter().map(|(rel, b)| (format!("wal/{rel}"), b)));
    }
    artifacts.sort_by(|a, b| a.0.cmp(&b.0));
    artifacts
        .iter()
        .map(|(name, bytes)| format!("{:08x} {:>8} {name}\n", crc32c(bytes), bytes.len()))
        .collect()
}

/// The artifact of the first line where `got` and `want` disagree.
fn first_difference<'m>(got: &'m str, want: &'m str) -> Option<&'m str> {
    let name = |line: &'m str| line.rsplit(' ').next().unwrap_or(line);
    let mut got = got.lines();
    let mut want = want.lines();
    loop {
        match (got.next(), want.next()) {
            (None, None) => return None,
            (Some(g), Some(w)) if g == w => continue,
            (Some(g), Some(w)) => return Some(name(g).min(name(w))),
            (Some(line), None) | (None, Some(line)) => return Some(name(line)),
        }
    }
}

fn golden_path(scenario: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{scenario}.txt"))
}

/// Runs `scenario` twice, then holds the manifest against its golden
/// file (or rewrites the file under `SPOTLAKE_BLESS=1`).
fn check(scenario: &str, config: CollectorConfig, durable: bool) {
    let run = |tag: &str| {
        let dir = durable.then(|| common::scratch_path("golden", &format!("{scenario}-{tag}")));
        let manifest = manifest(config.clone(), dir.as_deref());
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).ok();
        }
        manifest
    };
    let first = run("a");
    let second = run("b");
    if let Some(artifact) = first_difference(&second, &first) {
        panic!("{scenario}: `{artifact}` differs between two same-seed runs");
    }

    let path = golden_path(scenario);
    if std::env::var_os("SPOTLAKE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &first).expect("write golden manifest");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless it with SPOTLAKE_BLESS=1 cargo test -p spotlake --test golden",
            path.display()
        )
    });
    if let Some(artifact) = first_difference(&first, &want) {
        panic!(
            "{scenario}: `{artifact}` drifted from {}; if the change is meant, \
             re-bless with SPOTLAKE_BLESS=1 and explain it in CHANGES.md",
            path.display()
        );
    }
}

#[test]
fn in_memory_clean_run_matches_its_golden_digests() {
    check("memory_clean", CollectorConfig::default(), false);
}

#[test]
fn sharded_run_under_api_and_disk_weather_matches_its_golden_digests() {
    let config = CollectorConfig {
        checkpoint_every: 3,
        faults: FaultPlan::profile("moderate", common::SEED),
        io_faults: IoFaultPlan::profile("transient", common::SEED),
        ..CollectorConfig::default()
    };
    check("sharded_faults", config, true);
}

#[test]
fn crc32c_is_the_castagnoli_checksum() {
    assert_eq!(crc32c(b""), 0);
    assert_eq!(crc32c(b"123456789"), 0xE306_9283);
}

#[test]
fn the_first_difference_names_its_artifact() {
    let want = "00000001        1 a\n00000002        1 b\n";
    assert_eq!(first_difference(want, want), None);
    assert_eq!(
        first_difference("00000001        1 a\n00000003        1 b\n", want),
        Some("b")
    );
    assert_eq!(first_difference("00000001        1 a\n", want), Some("b"));
}
