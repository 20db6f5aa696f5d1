//! Snapshot-based shared-archive access.
//!
//! The server's worker threads must query the archive while a collector
//! keeps writing new rounds into it. Rather than hold a lock across a
//! query (which would let one slow query block collection, and vice
//! versa), the archive is published as an immutable snapshot behind an
//! `RwLock<Arc<Database>>`: readers take the read lock only long enough
//! to clone the `Arc`, then run the whole query lock-free against that
//! snapshot; the collector builds the next epoch off to the side and
//! swaps it in with one short write lock, freeing the old epoch after the
//! lock is released. Queries therefore never block collection and never
//! observe a half-written archive.
//!
//! An epoch is a `Database::clone` of the collector's store, which shares
//! structure rather than copying it: each measure's index and its pages
//! of series are reference-counted, and the store
//! copies a page only when it writes into one an epoch still holds. A
//! publish costs what the round changed, not what the archive holds.

use spotlake_timestream::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// A shared, swappable archive snapshot.
///
/// Cloning the handle is cheap and shares the same underlying slot, so
/// the listener, every worker, and the collector can all hold one.
#[derive(Debug, Clone)]
pub struct SharedArchive {
    slot: Arc<Slot>,
}

#[derive(Debug)]
struct Slot {
    current: RwLock<Arc<Database>>,
    epoch: AtomicU64,
}

impl SharedArchive {
    /// Publishes `db` as epoch 0.
    pub fn new(db: Database) -> Self {
        SharedArchive {
            slot: Arc::new(Slot {
                current: RwLock::new(Arc::new(db)),
                epoch: AtomicU64::new(0),
            }),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; the caller queries the returned snapshot lock-free.
    pub fn snapshot(&self) -> Arc<Database> {
        // A poisoned lock is recovered: `replace` swaps a fully built
        // Arc in one assignment, so the slot is never half-written.
        self.slot
            .current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes a new snapshot, bumping the epoch. In-flight queries
    /// keep the snapshot they started with.
    ///
    /// The write lock is held only for the swap. The previous snapshot is
    /// dropped after the lock is released, and no reader's
    /// [`SharedArchive::snapshot`] waits for it. Dropping it frees only
    /// what the writer copied since it was published — the pages it wrote
    /// into; everything else the new snapshot shares. (A reader still holding the previous snapshot frees it
    /// when it finishes.)
    pub fn replace(&self, db: Database) {
        let next = Arc::new(db);
        let previous = {
            let mut current = self
                .slot
                .current
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *current, next)
        };
        self.slot.epoch.fetch_add(1, Ordering::SeqCst);
        drop(previous);
    }

    /// How many times the snapshot has been replaced.
    pub fn epoch(&self) -> u64 {
        self.slot.epoch.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_timestream::{Query, Record, TableOptions};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn snapshots_are_stable_across_replace() {
        let archive = SharedArchive::new(Database::new());
        let before = archive.snapshot();
        assert_eq!(archive.epoch(), 0);

        let mut next = Database::new();
        next.create_table("sps", TableOptions::default()).unwrap();
        next.write("sps", &[Record::new(1, "sps", 3.0)]).unwrap();
        archive.replace(next);

        // The old snapshot is unchanged; the new one sees the table.
        assert!(before.table_names().is_empty());
        let after = archive.snapshot();
        assert_eq!(after.table_names(), vec!["sps"]);
        assert_eq!(archive.epoch(), 1);
    }

    /// Series the publish test writes; more than one page of them.
    const SERIES: u64 = 150;
    /// Rounds it writes: enough that each reader overlaps many
    /// publishes.
    const ROUNDS: u64 = 300;

    /// Round `round`'s point of series `series`.
    fn value(round: u64, series: u64) -> f64 {
        (round * 1_000 + series) as f64
    }

    /// Asserts `snap` is exactly the epoch after some round, and returns
    /// that round: every series holds one point per round up to it, with
    /// the values that round wrote.
    fn whole_epoch(snap: &Database, probe: u64) -> u64 {
        if snap.table_names().is_empty() {
            return 0;
        }
        let latest = snap.latest("sps", &Query::measure("sps")).unwrap();
        let round = latest.first().map_or(0, |r| r.time);
        assert_eq!(latest.len() as u64, if round == 0 { 0 } else { SERIES });
        for (series, row) in latest.iter().enumerate() {
            assert_eq!((row.time, row.value), (round, value(round, series as u64)));
        }
        assert_eq!(snap.point_count() as u64, round * SERIES);
        let q = Query::measure("sps").filter("series", format!("{probe:03}"));
        let rows = snap.query("sps", &q).unwrap();
        let want: Vec<(u64, f64)> = (1..=round).map(|r| (r, value(r, probe))).collect();
        let got: Vec<(u64, f64)> = rows.iter().map(|r| (r.time, r.value)).collect();
        assert_eq!(got, want);
        round
    }

    #[test]
    fn readers_see_whole_epochs_while_a_writer_publishes_clones() {
        let mut live = Database::new();
        let archive = SharedArchive::new(live.clone());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3u64)
                .map(|reader| {
                    let (archive, done) = (&archive, &done);
                    scope.spawn(move || {
                        let (mut last, mut reads) = (0, 0u64);
                        while !done.load(Ordering::Acquire) || reads == 0 {
                            let before = archive.epoch();
                            let snap = archive.snapshot();
                            let after = archive.epoch();
                            let round = whole_epoch(&snap, (reader * 37 + reads) % SERIES);
                            // `replace` swaps, then counts: the snapshot may
                            // be one epoch ahead of the counter.
                            assert!(before <= round && round <= after + 1);
                            assert!(round >= last, "epochs never go back");
                            last = round;
                            reads += 1;
                        }
                        reads
                    })
                })
                .collect();
            live.create_table("sps", TableOptions::default()).unwrap();
            for round in 1..=ROUNDS {
                let records: Vec<Record> = (0..SERIES)
                    .map(|s| {
                        Record::new(round, "sps", value(round, s))
                            .dimension("series", format!("{s:03}"))
                    })
                    .collect();
                live.write("sps", &records).unwrap();
                archive.replace(live.clone());
            }
            done.store(true, Ordering::Release);
            for reader in readers {
                assert!(reader.join().unwrap() > 0);
            }
        });
        assert_eq!(whole_epoch(&archive.snapshot(), 7), ROUNDS);
        assert_eq!(archive.epoch(), ROUNDS);
    }

    #[test]
    fn clones_share_the_slot() {
        let a = SharedArchive::new(Database::new());
        let b = a.clone();
        let mut next = Database::new();
        next.create_table("price", TableOptions::default()).unwrap();
        a.replace(next);
        assert_eq!(b.epoch(), 1);
        let snap = b.snapshot();
        assert_eq!(snap.table_names(), vec!["price"]);
    }
}
