//! Golden same-seed digests: "same bytes" as a committed file.
//!
//! Each scenario runs a seeded pipeline on the small test catalog and
//! digests everything it leaves behind into a manifest, one line per
//! artifact (`<crc32c> <bytes> <name>`, sorted by name):
//!
//! * every file of the WAL tree (durable scenarios);
//! * the `/metrics` scrape and the collector's trace journal;
//! * `/quality`, `/stats` and `/health`;
//! * a fixed set of row requests — `/query`, `/latest`, `/at` and
//!   `/window` in JSON, CSV and EXPLAIN, over ranges that cover, sit
//!   inside, miss and invert the series, under limits that truncate and
//!   parameters that are refused — and a second `/metrics` scrape after
//!   them, which holds the `spotlake_query_*` families those requests
//!   recorded.
//!
//! The crash scenario digests, besides, the `fsck --repair` verdict
//! table of the crashed archive it restarts on.
//!
//! The test runs each scenario twice — the two manifests must agree
//! (determinism) — and compares the result with `tests/golden/<name>.txt`
//! (drift). A mismatch names the first artifact that differs. A third
//! file, `tests/golden/metric_families.txt`, holds the `# HELP` and
//! `# TYPE` lines of every family the scenario, the TCP server and the
//! load generator render. A change
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
use spotlake_obs::{Registry, SloSet, SloTracker};
use spotlake_serving::server::{loadgen, LoadConfig, ServerMetrics};
use spotlake_serving::{Server, ServerConfig, SharedArchive};
use spotlake_timestream::{repair_shards, Database, IoFaultPlan};
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

/// The row requests digested after [`ENDPOINTS`], in request order, with
/// the status each must answer. Series of the test catalog hold points
/// from 1800 (SPS; price from 0) to 43 200: `from=0&to=43200` covers
/// them, `from=9000&to=20000` sits inside, `to=1799` and `from=50000`
/// miss. The last request scrapes `/metrics` again, after all of them.
const ROW_REQUESTS: &[(&str, u16)] = &[
    ("/query?table=sps", 200),
    ("/query?table=sps&format=csv", 200),
    ("/query?table=sps&explain=1", 200),
    ("/query?table=sps&region=us-test-1&from=9000&to=20000", 200),
    ("/query?table=sps&region=eu-test-1&limit=7", 200),
    ("/query?table=sps&region=eu-test-1&limit=7&format=csv", 200),
    ("/query?table=sps&region=eu-test-1&limit=7&explain=1", 200),
    ("/query?table=sps&limit=0", 200),
    ("/query?table=sps&from=0&to=1799", 200),
    ("/query?table=sps&from=50000&explain=1", 200),
    ("/query?table=sps&from=20000&to=10000", 400),
    (
        "/query?table=price&instance_type=m5.large&from=0&to=43200",
        200,
    ),
    (
        "/query?table=price&instance_type=m5.large&from=0&to=43200&format=csv",
        200,
    ),
    ("/latest?table=sps", 200),
    ("/latest?table=sps&format=csv", 200),
    ("/latest?table=sps&explain=1", 200),
    ("/latest?table=sps&region=us-test-1&limit=5", 200),
    ("/latest?table=sps&region=us-test-1&limit=5&explain=1", 200),
    ("/latest?table=price&from=1000&to=30000", 200),
    ("/latest?table=price&from=1000&to=30000&explain=1", 200),
    ("/latest?table=advisor&limit=0", 200),
    ("/latest?table=sps&to=1799", 200),
    ("/at?table=price&timestamp=20000", 200),
    ("/at?table=price&timestamp=20000&format=csv", 200),
    ("/at?table=price&timestamp=20000&explain=1", 200),
    ("/at?table=sps&timestamp=100", 200),
    (
        "/at?table=advisor&timestamp=43200&region=eu-test-1&limit=2",
        200,
    ),
    ("/window?table=sps&window=7200&agg=mean", 200),
    ("/window?table=sps&window=7200&agg=min", 200),
    ("/window?table=sps&window=7200&agg=max", 200),
    ("/window?table=sps&window=7200&agg=count", 200),
    ("/window?table=sps&window=7200&agg=sum", 200),
    ("/window?table=sps&window=7200&agg=last", 200),
    (
        "/window?table=price&window=3600&agg=last&region=us-test-1&from=5000&to=30000",
        200,
    ),
    ("/window?table=sps&window=7200&agg=mean&explain=1", 200),
    ("/window?table=sps&window=7200&from=50000", 200),
    ("/query?table=sps&region=us-test-1&limit=x", 400),
    ("/latest?table=sps&region=us-test-1&format=xml", 400),
    ("/metrics", 200),
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

/// Runs `config` for [`ROUNDS`] rounds and collects what it leaves,
/// sorted by artifact name. `wal_dir` is the run's archive directory
/// when the scenario is durable.
fn artifacts(config: CollectorConfig, wal_dir: Option<&Path>) -> Vec<(String, Vec<u8>)> {
    let mut lake = pipeline(config, wal_dir);
    lake.run_rounds(ROUNDS).expect("rounds degrade, never fail");
    digest(&lake, wal_dir)
}

/// The test pipeline over `config`, archived in `wal_dir` when durable.
fn pipeline(config: CollectorConfig, wal_dir: Option<&Path>) -> SpotLake {
    SpotLake::builder()
        .catalog(common::test_catalog(common::GPU_MENU))
        .sim_config(common::sim_config())
        .collector_config(CollectorConfig {
            wal_dir: wal_dir.map(Path::to_owned),
            ..config
        })
        .build()
        .expect("pipeline builds")
}

/// What `lake` answers and leaves on disk, sorted by artifact name.
fn digest(lake: &SpotLake, wal_dir: Option<&Path>) -> Vec<(String, Vec<u8>)> {
    let mut artifacts: Vec<(String, Vec<u8>)> = Vec::new();
    for (name, path) in ENDPOINTS {
        let response = lake.http_get(path).expect("request parses");
        assert_eq!(response.status, 200, "GET {path}");
        artifacts.push(((*name).to_owned(), response.body_text().into_bytes()));
    }
    for (i, (path, status)) in ROW_REQUESTS.iter().enumerate() {
        let response = lake.http_get(path).expect("request parses");
        assert_eq!(response.status, *status, "GET {path}");
        artifacts.push((
            format!("rows/{i:02}{path}"),
            response.body_text().into_bytes(),
        ));
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
}

/// [`artifacts`] digested into a manifest, one line per artifact.
fn manifest(artifacts: &[(String, Vec<u8>)]) -> String {
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
/// file (or rewrites the file under `SPOTLAKE_BLESS=1`). `artifacts`
/// runs the scenario in the archive directory it is given, `None` for
/// an in-memory scenario.
fn check(
    scenario: &str,
    durable: bool,
    artifacts: impl Fn(Option<&Path>) -> Vec<(String, Vec<u8>)>,
) {
    let run = |tag: &str| {
        let dir = durable.then(|| common::scratch_path("golden", &format!("{scenario}-{tag}")));
        let manifest = manifest(&artifacts(dir.as_deref()));
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

    if let Some(want) = golden_or_bless(scenario, &first) {
        if let Some(artifact) = first_difference(&first, &want) {
            panic!(
                "{scenario}: `{artifact}` drifted from {}; if the change is meant, \
                 re-bless with SPOTLAKE_BLESS=1 and explain it in CHANGES.md",
                golden_path(scenario).display()
            );
        }
    }
}

/// The committed `tests/golden/<name>.txt`, or `None` after rewriting it
/// with `got` under `SPOTLAKE_BLESS=1`.
fn golden_or_bless(name: &str, got: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var_os("SPOTLAKE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden file");
        return None;
    }
    Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless it with SPOTLAKE_BLESS=1 cargo test -p spotlake --test golden",
            path.display()
        )
    }))
}

#[test]
fn in_memory_clean_run_matches_its_golden_digests() {
    check("memory_clean", false, |dir| {
        artifacts(CollectorConfig::default(), dir)
    });
}

#[test]
fn sharded_run_under_api_and_disk_weather_matches_its_golden_digests() {
    check("sharded_faults", true, |dir| {
        artifacts(sharded_faults(), dir)
    });
}

#[test]
fn crash_repair_and_restart_matches_its_golden_digests() {
    check("crash_repair_restart", true, |dir| {
        crash_repair_restart(dir.expect("a durable scenario"))
    });
}

/// Rounds the crash profile gets to kill a shard in.
const MAX_CRASH_ROUNDS: u64 = 200;

/// Ticks the cloud moves while the crashed collector is down.
const DOWNTIME_TICKS: u64 = 2;

/// The crash scenario: sharded WALs under the crash disk profile until a
/// torn or flipped frame kills a shard's WAL, which stops the process
/// there. `fsck --repair` then runs on the dead process's directory, a
/// new collector restarts on it without disk faults after
/// [`DOWNTIME_TICKS`], and collects [`ROUNDS`] more rounds. The digest
/// holds the repair's verdict table beside the usual artifacts, so how
/// recovery and checkpoint load file the surviving series is pinned.
fn crash_repair_restart(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let config = CollectorConfig {
        checkpoint_every: 3,
        io_faults: IoFaultPlan::profile("crash", common::SEED),
        ..CollectorConfig::default()
    };
    let mut crashed = pipeline(config.clone(), Some(dir));
    let mut rounds = 0;
    loop {
        assert!(
            rounds < MAX_CRASH_ROUNDS,
            "the crash profile never fired in {MAX_CRASH_ROUNDS} rounds"
        );
        crashed
            .run_rounds(1)
            .expect("a shard's crash degrades the round");
        rounds += 1;
        let health = crashed.collector().shard_health().expect("durable");
        if health.degraded() {
            break;
        }
    }
    drop(crashed);

    let repair = repair_shards(dir).expect("repair reads the crashed archive");
    let mut restarted = pipeline(
        CollectorConfig {
            io_faults: None,
            ..config
        },
        Some(dir),
    );
    // The restarted process's cloud catches up with the one that kept
    // moving: the simulator replays the same ticks from the same seed.
    for _ in 0..rounds + DOWNTIME_TICKS {
        restarted.cloud_mut().step();
    }
    restarted
        .run_rounds(ROUNDS)
        .expect("rounds degrade, never fail");
    let mut artifacts = digest(&restarted, Some(dir));
    artifacts.push((
        format!("fsck/repair after {rounds} rounds"),
        repair.render().into_bytes(),
    ));
    artifacts.sort_by(|a, b| a.0.cmp(&b.0));
    artifacts
}

/// The durable scenario: sharded WALs under API and disk faults.
fn sharded_faults() -> CollectorConfig {
    CollectorConfig {
        checkpoint_every: 3,
        faults: FaultPlan::profile("moderate", common::SEED),
        io_faults: IoFaultPlan::profile("transient", common::SEED),
        ..CollectorConfig::default()
    }
}

/// The `# HELP` and `# TYPE` lines of every family that three sources
/// render, sorted by family (HELP before TYPE):
///
/// * the last `/metrics` scrape of the sharded-faults scenario;
/// * a [`ServerMetrics`] driven through each of its methods (the server,
///   SLO and telemetry families);
/// * the registry of a small load-generator run against a live server;
/// * a store whose every write is throttled, the one store family the
///   scenario never records.
///
/// The file pins each family's help text and kind, which the digests
/// above cover only for the scenario's own families.
#[test]
fn every_metric_family_header_matches_its_golden_file() {
    let dir = common::scratch_path("golden", "metric-families");
    let scenario = artifacts(sharded_faults(), Some(&dir));
    std::fs::remove_dir_all(&dir).ok();
    let (_, last_scrape) = scenario
        .iter()
        .rfind(|(name, _)| name.starts_with("rows/") && name.ends_with("/metrics"))
        .expect("the row requests end with a /metrics scrape");
    let mut scrapes = vec![String::from_utf8(last_scrape.clone()).expect("utf-8 exposition")];

    let server = ServerMetrics::new();
    server.connection_accepted();
    server.enqueued();
    server.dequeued();
    server.shed();
    server.request_started();
    server.request_finished("200", 1500.0);
    server.phase("handle", 900.0);
    server.telemetry_progress(2, 1);
    server.slo_progress(&SloTracker::new(SloSet::serving_defaults()).report());
    server.slo_transition("availability", "page");
    server.deadline_exceeded();
    server.slow_client_closed();
    server.bad_request(400);
    server.worker_panic();
    scrapes.push(server.registry().render());

    let handle = Server::start(SharedArchive::new(Database::new()), ServerConfig::default())
        .expect("bind loopback");
    let load = Registry::new();
    let config = LoadConfig {
        clients: 1,
        requests_per_client: 4,
        ..LoadConfig::default()
    };
    loadgen::run_with(handle.addr(), &config, &load);
    handle.shutdown();
    scrapes.push(load.render());

    let mut throttled = Database::new();
    throttled.set_write_faults(1.0, common::SEED);
    assert!(
        throttled.write("sps", &[]).is_err(),
        "every write throttled"
    );
    scrapes.push(throttled.metrics().render());

    let mut headers: Vec<&str> = scrapes
        .iter()
        .flat_map(|text| text.lines())
        .filter(|line| line.starts_with("# HELP ") || line.starts_with("# TYPE "))
        .collect();
    let family = |line: &str| line.split(' ').nth(2).unwrap_or_default().to_owned();
    headers.sort_by_key(|line| (family(line), line.to_string()));
    headers.dedup();
    let got: String = headers.iter().map(|line| format!("{line}\n")).collect();

    if let Some(want) = golden_or_bless("metric_families", &got) {
        let drifted = got.lines().zip(want.lines()).find(|(g, w)| g != w);
        assert!(
            drifted.is_none() && got.lines().count() == want.lines().count(),
            "metric family headers drifted from {} (first difference: {drifted:?})",
            golden_path("metric_families").display()
        );
    }
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
