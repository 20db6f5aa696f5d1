//! Crash-recovery property suite: the durable collector under seeded
//! disk-fault injection.
//!
//! The property: a crash — torn frame, flipped bit, whatever the fault
//! plan rolls — loses nothing that was committed and invents nothing
//! that was not. Every test drives the real collector against the real
//! sharded archive on a real temp directory (two test regions × three
//! datasets: six shards, every one under the crash profile), runs it
//! until a disk fault kills a shard's WAL, restarts it, and checks the
//! recovered archive is *exactly* the committed prefix.

mod common;

use common::SEED;
use spotlake_cloud_sim::SimCloud;
use spotlake_collector::{CollectorConfig, CollectorService, IoFaultPlan};
use spotlake_timestream::fsck_shards;
use std::path::{Path, PathBuf};

/// More than enough rounds for the crash profile (~3% per append or
/// checkpoint, in each of six shards) to fire.
const MAX_ROUNDS: u64 = 400;

fn cloud() -> SimCloud {
    SimCloud::new(
        common::test_catalog(common::SMALL_MENU),
        common::sim_config(),
    )
}

fn config(dir: &Path, io_faults: Option<IoFaultPlan>) -> CollectorConfig {
    CollectorConfig {
        wal_dir: Some(dir.to_owned()),
        checkpoint_every: 3,
        io_faults,
        ..CollectorConfig::default()
    }
}

fn tempdir(name: &str) -> PathBuf {
    common::scratch_path("crash", name)
}

/// What a crashed run leaves behind: the cloud (still ticking), the
/// committed point count at the instant of death, and how many full
/// rounds landed before the round that killed a shard.
struct Crash {
    cloud: SimCloud,
    committed: usize,
    rounds_survived: u64,
}

/// Collects under the seeded crash profile until a disk fault kills a
/// shard's WAL, then stops the process there. A shard fault degrades the
/// round instead of failing it, so the other shards commit that round's
/// slices; the dead shard's torn frame was never applied. The in-memory
/// database at that instant holds exactly the committed prefix.
fn run_until_crash(dir: &Path) -> Crash {
    let mut cloud = cloud();
    let mut service =
        CollectorService::new(cloud.catalog(), config(dir, Some(IoFaultPlan::crash(SEED))))
            .expect("durable service builds");
    assert_eq!(service.shard_health().expect("durable service").total(), 6);
    for round in 0..MAX_ROUNDS {
        cloud.step();
        service
            .collect_once(&cloud)
            .expect("a shard's crash degrades the round, never fails it");
        let health = service.shard_health().expect("durable service");
        if health.degraded() {
            assert!(!health.all_lost(), "a fault kills only its own shard");
            assert!(service.wal_stats().expect("durable service").dead);
            return Crash {
                committed: service.database().point_count(),
                rounds_survived: round,
                cloud,
            };
        }
    }
    panic!("crash profile never fired in {MAX_ROUNDS} rounds");
}

#[test]
fn recovery_restores_exactly_the_committed_prefix() {
    let dir = tempdir("prefix");
    let crash = run_until_crash(&dir);
    assert!(
        crash.committed > 0,
        "some rounds committed before the crash"
    );

    // The archive is visibly damaged before the restart: the dead shard
    // left a torn, never-acked tail (or a torn checkpoint temp file)
    // that the next recovery discards, so fsck says degraded...
    let damaged = fsck_shards(&dir).expect("fsck reads a damaged archive");
    assert_eq!(damaged.exit_code(), 1, "{}", damaged.render());

    // ...and a restart recovers every committed point, no more, no less.
    let restarted =
        CollectorService::new(crash.cloud.catalog(), config(&dir, None)).expect("restart recovers");
    let report = restarted.recovery_report().expect("durable service");
    assert!(report.recovered_anything());
    assert_eq!(report.point_count, crash.committed);
    assert_eq!(restarted.database().point_count(), crash.committed);
    let health = restarted.shard_health().expect("durable service");
    assert_eq!(health.healthy(), health.total(), "nothing acked was lost");

    // Recovery discarded the torn tail: every shard is clean again.
    let repaired = fsck_shards(&dir).expect("fsck after recovery");
    assert_eq!(repaired.exit_code(), 0, "{}", repaired.render());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collection_resumes_after_recovery_and_the_outage_is_visible() {
    let dir = tempdir("resume");
    let crash = run_until_crash(&dir);
    let mut cloud = crash.cloud;

    // Downtime: the cloud keeps moving while the collector is dead.
    for _ in 0..3 {
        cloud.step();
    }
    let mut restarted =
        CollectorService::new(cloud.catalog(), config(&dir, None)).expect("restart recovers");
    cloud.step();
    restarted
        .collect_once(&cloud)
        .expect("collection resumes after recovery");
    assert!(
        restarted.database().point_count() > crash.committed,
        "new rounds land on top of the recovered prefix"
    );

    // The quality monitor was primed at the crash tick, so the outage
    // shows up as coverage gaps instead of a blank slate.
    let report = restarted.quality_report();
    let sps = report
        .datasets
        .iter()
        .find(|d| d.dataset == "sps")
        .expect("sps dataset tracked");
    assert!(sps.gaps > 0, "the crash outage is visible as gaps");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_seed_crashes_and_recoveries_are_byte_identical() {
    let dir_a = tempdir("replay-a");
    let dir_b = tempdir("replay-b");
    let a = run_until_crash(&dir_a);
    let b = run_until_crash(&dir_b);
    assert_eq!(
        a.rounds_survived, b.rounds_survived,
        "crashes replay exactly"
    );
    assert_eq!(a.committed, b.committed);

    let restarted_a =
        CollectorService::new(a.cloud.catalog(), config(&dir_a, None)).expect("restart a");
    let restarted_b =
        CollectorService::new(b.cloud.catalog(), config(&dir_b, None)).expect("restart b");
    assert_eq!(
        restarted_a.recovery_report().expect("report a").render(),
        restarted_b.recovery_report().expect("report b").render(),
        "recovery reports replay byte-for-byte"
    );

    let save = |svc: &CollectorService, tag: &str| {
        let path = common::scratch_path("crash-replay", tag);
        svc.database().save(&path).expect("archive saves");
        let bytes = std::fs::read(&path).expect("archive readable");
        std::fs::remove_file(&path).ok();
        bytes
    };
    assert_eq!(
        save(&restarted_a, "a"),
        save(&restarted_b, "b"),
        "recovered archives are byte-identical"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
