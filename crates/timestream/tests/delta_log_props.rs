//! Property: the delta log is the full log.
//!
//! A durable commit logs and applies only the records that change state
//! ([`Wal::commit`]). Whatever the batches look like — the same series
//! twice in one batch, timestamps behind the series' latest, values
//! repeating across rounds, a crash fault somewhere in the sequence — the
//! store it leaves and the store recovery rebuilds from the log must be
//! byte-for-byte what writing every offered record of every acked batch
//! through [`Database::write`] produces. A sharded archive keeps no store
//! per shard, so what each shard cuts from the one store — its
//! checkpoints, its point count — must equal a reference store written
//! with that shard's acked slices alone.

use proptest::prelude::*;
use spotlake_timestream::{
    recover, shard_dir, Database, IoFaultPlan, Record, ShardFaultConfig, ShardKey, ShardedArchive,
    TableOptions, Wal, WriteMode,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TABLE: &str = "t";
const REGIONS: [&str; 3] = ["r0", "r1", "r2"];

/// A fresh scratch path per call: cases run back to back in one process.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spotlake-delta-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// The store's persisted form — the strictest equality there is.
fn bytes(db: &Database) -> Vec<u8> {
    let path = scratch("bytes");
    db.save(&path).unwrap();
    let out = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    out
}

fn options(changepoint: bool) -> TableOptions {
    TableOptions {
        mode: if changepoint {
            WriteMode::ChangePoint
        } else {
            WriteMode::Dense
        },
        retention: None,
    }
}

/// Writes `records` as [`Database::write`] does, creating the table on
/// first use — as a store that only ever sees logged frames does.
fn write_all(db: &mut Database, options: TableOptions, records: &[Record]) {
    if records.is_empty() {
        return;
    }
    if db.table(TABLE).is_err() {
        db.create_table(TABLE, options).unwrap();
    }
    db.write(TABLE, records).unwrap();
}

/// Each shard's `points` in the archive's health rows, by region.
fn points(archive: &ShardedArchive) -> BTreeMap<String, usize> {
    archive
        .health()
        .shards
        .into_iter()
        .map(|row| (row.region, row.points))
        .collect()
}

/// Each reference shard store's point count, by region.
fn reference_points(shards: &BTreeMap<&str, Database>) -> BTreeMap<String, usize> {
    shards
        .iter()
        .map(|(region, db)| (region.to_string(), db.point_count()))
        .collect()
}

/// Strategy: a sequence of round batches over six series in three
/// regions, two measures and three values — few enough that a series
/// recurs within a batch and a value recurs across rounds — with a share
/// of records stamped behind their round.
fn rounds() -> impl Strategy<Value = Vec<Vec<Record>>> {
    let record = (0usize..6, 0usize..2, 0u64..3, any::<bool>(), 0usize..3);
    prop::collection::vec(prop::collection::vec(record, 0..14), 1..10).prop_map(|rounds| {
        rounds
            .into_iter()
            .enumerate()
            .map(|(round, raw)| {
                raw.into_iter()
                    .map(|(series, measure, offset, late, value)| {
                        let now = (round as u64 + 1) * 600;
                        let time = if late {
                            now.saturating_sub(offset * 600 + 1)
                        } else {
                            now + offset
                        };
                        Record::new(time, format!("m{measure}"), [1.0, 2.0, 3.0][value])
                            .dimension("series", series.to_string())
                            .dimension("region", REGIONS[series % REGIONS.len()])
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One WAL, one store: commit, checkpoint somewhere, crash somewhere.
    #[test]
    fn a_single_wal_commit_equals_writing_every_acked_batch(
        rounds in rounds(),
        changepoint in any::<bool>(),
        checkpoint_after in 0usize..10,
        crash_at in 0usize..14,
    ) {
        let dir = scratch("wal");
        let options = options(changepoint);
        let mut wal = Wal::open(&dir).unwrap();
        let mut db = Database::new();
        let mut full = Database::new();
        for (i, batch) in rounds.iter().enumerate() {
            if i == crash_at {
                wal.set_faults(IoFaultPlan { torn_write_rate: 1.0, ..IoFaultPlan::none(i as u64) });
            }
            let (result, _) = wal.commit(&mut db, TABLE, options, i as u64 + 1, batch, 3);
            match result {
                Ok(committed) => {
                    prop_assert_eq!(committed.offered, batch.len());
                    write_all(&mut full, options, batch);
                }
                Err(_) => prop_assert!(wal.is_dead(), "only the crash fails a batch"),
            }
            if i == checkpoint_after && !wal.is_dead() {
                wal.checkpoint(&db).unwrap();
            }
        }
        prop_assert_eq!(bytes(&db), bytes(&full), "store after the run");
        drop(wal);
        let (recovered, _) = recover(&dir).unwrap();
        prop_assert_eq!(bytes(&recovered), bytes(&full), "store after recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Three shards behind one store, checkpoints every second frame,
    /// transient and crash faults in one of the shards.
    #[test]
    fn a_sharded_commit_equals_writing_every_acked_slice(
        rounds in rounds(),
        changepoint in any::<bool>(),
        fault_seed in 0u64..1_000,
    ) {
        let root = scratch("shards");
        let options = options(changepoint);
        let keys: Vec<ShardKey> = REGIONS.iter().map(|r| ShardKey::new(TABLE, r)).collect();
        let faults = ShardFaultConfig {
            plan: IoFaultPlan {
                torn_write_rate: 0.1,
                short_write_rate: 0.3,
                ..IoFaultPlan::none(fault_seed)
            },
            only: Some(ShardKey::new(TABLE, "r1")),
        };
        let (mut archive, mut merged) =
            ShardedArchive::open(&root, &keys, 2, Some(faults)).unwrap();
        merged.create_table(TABLE, options).unwrap();
        let mut full = Database::new();
        full.create_table(TABLE, options).unwrap();
        let mut full_shards: BTreeMap<&str, Database> =
            REGIONS.iter().map(|r| (*r, Database::new())).collect();
        let mut checkpoints: BTreeMap<&str, Vec<u8>> = BTreeMap::new();

        for (i, batch) in rounds.iter().enumerate() {
            let out = archive.commit(&mut merged, TABLE, options, i as u64 + 1, batch, 2);
            let acked: Vec<Record> = batch
                .iter()
                .filter(|r| {
                    let region = ShardKey::region_of(r);
                    !out.failures.iter().any(|f| f.region == region)
                })
                .cloned()
                .collect();
            prop_assert_eq!(out.written, full.write(TABLE, &acked).unwrap(), "round {}", i);
            for (region, shard) in &mut full_shards {
                let slice: Vec<Record> = acked
                    .iter()
                    .filter(|r| ShardKey::region_of(r) == *region)
                    .cloned()
                    .collect();
                write_all(shard, options, &slice);
            }
            archive.maintain().unwrap();
            prop_assert_eq!(points(&archive), reference_points(&full_shards), "round {}", i);
            // A checkpoint cut this round — on its cadence or after a
            // transient fault put it off — holds exactly the shard's
            // reference store.
            for (key, (region, shard)) in keys.iter().zip(&full_shards) {
                let path = shard_dir(&root, key).join("checkpoint.db");
                let Ok(now) = std::fs::read(path) else { continue };
                if checkpoints.get(region) != Some(&now) {
                    prop_assert_eq!(&now, &bytes(shard), "checkpoint of {} in round {}", region, i);
                    checkpoints.insert(region, now);
                }
            }
        }

        prop_assert_eq!(bytes(&merged), bytes(&full), "store after the run");
        archive.save_shard_states(&merged).unwrap();
        for (key, (region, shard)) in keys.iter().zip(&full_shards) {
            let state = std::fs::read(shard_dir(&root, key).join("state.db")).unwrap();
            prop_assert_eq!(state, bytes(shard), "state of shard {}", region);
        }
        drop(archive);
        let (archive, mut reopened) = ShardedArchive::open(&root, &keys, 2, None).unwrap();
        prop_assert_eq!(archive.health().healthy(), REGIONS.len(), "no shard quarantined");
        prop_assert_eq!(points(&archive), reference_points(&full_shards), "after reopen");
        // An archive that never logged a frame recovers no table at all.
        let _ = reopened.create_table(TABLE, options);
        prop_assert_eq!(bytes(&reopened), bytes(&full), "store after recovery");
        std::fs::remove_dir_all(&root).ok();
    }
}
