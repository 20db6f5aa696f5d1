//! Shard fault-isolation property suite: the sharded archive under
//! targeted corruption.
//!
//! The property: a fault in one dataset × region shard — a crash fault
//! killing its WAL mid-round, or a flipped bit in an acked frame — is
//! *contained*. Every other shard keeps committing and serving, queries
//! degrade (flagged, never 500), the damaged shard quarantines on
//! restart, and `fsck --repair` re-admits it at its committed prefix.
//! Same-seed damage recovers byte-identically.

mod common;

use common::SEED;
use spotlake::SpotLake;
use spotlake_cloud_sim::SimCloud;
use spotlake_collector::{CollectorConfig, CollectorService, IoFaultPlan};
use spotlake_timestream::{fsck_shards, repair_shards, shard_dir, ShardKey, ShardState};
use spotlake_types::CatalogBuilder;
use std::path::{Path, PathBuf};

/// More than enough rounds for the crash profile (~3% per append) to
/// fire inside the targeted shard.
const MAX_ROUNDS: u64 = 400;

/// The shard every test damages: SPS in the first test region.
fn target() -> ShardKey {
    ShardKey::new("sps", "us-test-1")
}

fn config(dir: &Path, io_faults: Option<IoFaultPlan>) -> CollectorConfig {
    CollectorConfig {
        wal_dir: Some(dir.to_owned()),
        checkpoint_every: 3,
        io_faults,
        io_fault_shard: io_faults.map(|_| target()),
        ..CollectorConfig::default()
    }
}

fn lake(dir: &Path, io_faults: Option<IoFaultPlan>) -> SpotLake {
    SpotLake::builder()
        .catalog(common::test_catalog(common::SMALL_MENU))
        .sim_config(common::sim_config())
        .collector_config(config(dir, io_faults))
        .build()
        .expect("sharded pipeline builds")
}

fn tempdir(name: &str) -> PathBuf {
    common::scratch_path("shard", name)
}

/// Every file under `root`, as (relative path, bytes), sorted.
fn snapshot(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, std::fs::read(&path).expect("readable file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Flips one bit in the last byte of the target shard's WAL — corrupting
/// an *acked* frame, which recovery must refuse to paper over.
fn flip_acked_tail(dir: &Path) {
    let wal = shard_dir(dir, &target()).join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("target shard has a wal");
    assert!(!bytes.is_empty(), "target wal is non-empty");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&wal, bytes).expect("rewrite wal");
}

/// Drives rounds under the targeted crash profile until the target
/// shard's WAL dies. Rounds keep *succeeding* throughout — a shard
/// fault degrades the round, it never fails it.
fn run_until_shard_dies(lake: &mut SpotLake) -> u64 {
    for round in 0..MAX_ROUNDS {
        lake.run_rounds(1).expect("shard faults never fail a round");
        let health = lake.collector().shard_health().expect("durable service");
        if health.degraded() {
            return round;
        }
    }
    panic!("targeted crash profile never fired in {MAX_ROUNDS} rounds");
}

#[test]
fn crash_fault_in_one_shard_degrades_instead_of_failing() {
    let dir = tempdir("isolate");
    let mut lake = lake(&dir, Some(IoFaultPlan::crash(SEED)));
    run_until_shard_dies(&mut lake);

    // Exactly the targeted shard is impaired; every other shard serves.
    let health = lake.collector().shard_health().expect("durable service");
    let impaired: Vec<String> = health
        .impaired()
        .map(|r| format!("{}/{}", r.dataset, r.region))
        .collect();
    assert_eq!(impaired, vec!["sps/us-test-1".to_owned()]);
    assert_eq!(health.healthy(), health.total() - 1);
    assert!(!health.all_lost());

    // /health answers 200-degraded, naming the impaired shard.
    let resp = lake.http_get("/health").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert!(
        resp.body_text().contains("degraded"),
        "{}",
        resp.body_text()
    );
    assert!(resp.body_text().contains("sps/us-test-1"));

    // Queries touching the impaired shard degrade — flagged, never 500.
    let hit = lake.http_get("/query?table=sps&region=us-test-1").unwrap();
    assert_eq!(hit.status, 200);
    assert!(hit.body_text().contains("\"degraded\":true"));
    assert!(hit.body_text().contains("sps/us-test-1"));

    // Queries scoped to healthy shards carry no degraded flag.
    let miss = lake.http_get("/query?table=sps&region=eu-test-1").unwrap();
    assert_eq!(miss.status, 200);
    assert!(!miss.body_text().contains("degraded"));
    assert!(miss.body_text().contains("rows"));

    // The healthy region kept collecting after the target died.
    let sick = lake.http_get("/latest?table=sps&region=us-test-1").unwrap();
    let well = lake.http_get("/latest?table=sps&region=eu-test-1").unwrap();
    assert_eq!(sick.status, 200);
    assert_eq!(well.status, 200);
    assert!(well.body_text().contains("eu-test-1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_fsck_repair_readmit_roundtrip() {
    let dir = tempdir("roundtrip");

    // A clean sharded run, remembering the target shard's health row and
    // every *other* shard's on-disk bytes.
    let mut first = lake(&dir, None);
    first.run_rounds(8).unwrap();
    let pristine_points = first.archive().point_count();
    let health = first.collector().shard_health().expect("durable service");
    assert_eq!(health.healthy(), health.total());
    let target_points = health
        .shards
        .iter()
        .find(|r| r.dataset == "sps" && r.region == "us-test-1")
        .expect("target shard exists")
        .points;
    assert!(target_points > 0);
    drop(first);
    let target_rel = shard_dir(&dir, &target())
        .strip_prefix(&dir)
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let others_before: Vec<(String, Vec<u8>)> = snapshot(&dir)
        .into_iter()
        .filter(|(rel, _)| !rel.starts_with(&target_rel))
        .collect();

    // Bit-flip an acked frame in the target shard: restart quarantines
    // it, the merged archive drops exactly its points, nothing else.
    flip_acked_tail(&dir);
    let second = lake(&dir, None);
    let health = second.collector().shard_health().expect("durable service");
    let quarantined: Vec<_> = health.quarantined().collect();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].state, ShardState::Quarantined);
    assert_eq!(quarantined[0].dataset, "sps");
    assert_eq!(quarantined[0].region, "us-test-1");
    assert!(
        quarantined[0].detail.contains("committed rounds lost"),
        "{}",
        quarantined[0].detail
    );
    assert_eq!(
        second.archive().point_count(),
        pristine_points - target_points,
        "exactly the quarantined shard's points are withheld"
    );

    // Quarantine shows on the ops surface: 200-degraded /health, a
    // flagged /quality, a flagged (not failed) query.
    let resp = second.http_get("/health").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("degraded"));
    let quality = second.http_get("/quality").unwrap();
    assert!(quality.body_text().contains("quarantined_shards"));
    assert!(quality.body_text().contains("sps/us-test-1"));
    let query = second
        .http_get("/query?table=sps&region=us-test-1")
        .unwrap();
    assert_eq!(query.status, 200);
    assert!(query.body_text().contains("\"degraded\":true"));

    // Recovery left every healthy shard's bytes exactly alone.
    let others_after: Vec<(String, Vec<u8>)> = snapshot(&dir)
        .into_iter()
        .filter(|(rel, _)| !rel.starts_with(&target_rel) && !rel.ends_with("shards.map"))
        .collect();
    let before: Vec<(String, Vec<u8>)> = others_before
        .into_iter()
        .filter(|(rel, _)| !rel.ends_with("shards.map"))
        .collect();
    assert_eq!(before, others_after, "healthy shards untouched by recovery");
    drop(second);

    // fsck sees the corruption (exit 2); --repair truncates to the
    // committed prefix and clears quarantine (exit 0 afterwards).
    let report = fsck_shards(&dir).unwrap();
    assert_eq!(report.exit_code(), 2, "{}", report.render());
    assert!(report.render().contains("sps"));
    let repaired = repair_shards(&dir).unwrap();
    assert_eq!(repaired.exit_code(), 0, "{}", repaired.render());
    assert!(!repaired.actions.is_empty());

    // Re-admitted: the next open serves every shard and keeps collecting.
    let mut third = lake(&dir, None);
    let health = third.collector().shard_health().expect("durable service");
    assert_eq!(health.healthy(), health.total(), "repair re-admits");
    third.run_rounds(1).unwrap();
    let resp = third.http_get("/health").unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.body_text().contains("degraded"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_shard_recovery_is_byte_identical() {
    let dir_a = tempdir("replay-a");
    let dir_b = tempdir("replay-b");

    // The same seeded crash scenario in two directories...
    for dir in [&dir_a, &dir_b] {
        let mut cloud = SimCloud::new(
            common::test_catalog(common::SMALL_MENU),
            common::sim_config(),
        );
        let mut service =
            CollectorService::new(cloud.catalog(), config(dir, Some(IoFaultPlan::crash(SEED))))
                .expect("sharded service builds");
        for _ in 0..MAX_ROUNDS {
            cloud.step();
            service
                .collect_once(&cloud)
                .expect("rounds degrade, never fail");
            if service.shard_health().expect("durable service").degraded() {
                break;
            }
        }
        assert!(service.shard_health().unwrap().degraded());
        drop(service);
        // ...restarted cold, with the per-shard states saved for audit.
        let catalog = common::test_catalog(common::SMALL_MENU);
        let restarted =
            CollectorService::new(&catalog, config(dir, None)).expect("restart recovers");
        restarted
            .sharded_archive()
            .expect("durable service")
            .save_shard_states(restarted.database())
            .unwrap();
    }

    // ...recovers to byte-identical trees: same files, same bytes.
    let a = snapshot(&dir_a);
    let b = snapshot(&dir_b);
    let names_a: Vec<&String> = a.iter().map(|(rel, _)| rel).collect();
    let names_b: Vec<&String> = b.iter().map(|(rel, _)| rel).collect();
    assert_eq!(names_a, names_b, "same file set");
    for ((rel, bytes_a), (_, bytes_b)) in a.iter().zip(b.iter()) {
        assert_eq!(bytes_a, bytes_b, "{rel} differs between same-seed runs");
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn same_seed_runs_wider_than_the_commit_window_are_byte_identical() {
    // Ten regions: more shards per dataset than commit threads in flight,
    // so which thread finishes first differs from run to run — and must
    // not show in anything the run renders or leaves on disk.
    let catalog = || {
        let mut b = CatalogBuilder::new();
        for i in 1..=10 {
            b.region(&format!("wide-test-{i}"), 2);
        }
        for (name, price) in common::SMALL_MENU {
            b.instance_type(name, *price);
        }
        b.build().expect("valid catalog")
    };
    let run = |dir: &Path| {
        let mut cloud = SimCloud::new(catalog(), common::sim_config());
        // Transient disk weather in every shard: retries and per-shard
        // failure rows are part of what has to repeat.
        let config = CollectorConfig {
            io_fault_shard: None,
            ..config(dir, Some(IoFaultPlan::transient(SEED)))
        };
        let mut service =
            CollectorService::new(cloud.catalog(), config).expect("sharded service builds");
        service
            .run(&mut cloud, 12)
            .expect("rounds degrade, never fail");
        assert_eq!(service.shard_health().expect("durable service").total(), 30);
        assert!(service.stats().retries > 0, "the weather showed");
        (
            service.metrics().render(),
            service.journal().render(),
            service.database().metrics().render(),
        )
    };
    let dir_a = tempdir("wide-a");
    let dir_b = tempdir("wide-b");
    let (metrics_a, journal_a, store_a) = run(&dir_a);
    let (metrics_b, journal_b, store_b) = run(&dir_b);
    assert_eq!(metrics_a, metrics_b, "collector metrics");
    assert_eq!(journal_a, journal_b, "trace journal");
    assert_eq!(store_a, store_b, "store metrics");
    assert!(metrics_a.contains("spotlake_wal_records_elided_total"));

    // Same files, same bytes: every shard's WAL and checkpoint, the
    // manifest and the dead-letter queue.
    let a = snapshot(&dir_a);
    let b = snapshot(&dir_b);
    assert!(a.iter().filter(|(rel, _)| rel.ends_with("wal.log")).count() == 30);
    assert_eq!(a.len(), b.len(), "same file set");
    for ((rel_a, bytes_a), (rel_b, bytes_b)) in a.iter().zip(b.iter()) {
        assert_eq!(rel_a, rel_b, "same file set");
        assert_eq!(bytes_a, bytes_b, "{rel_a} differs between same-seed runs");
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
