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
    /// dropped after the lock is released — freeing a large archive takes
    /// milliseconds, and no reader's [`SharedArchive::snapshot`] waits
    /// for it. (A reader still holding the previous snapshot frees it
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
    use spotlake_timestream::{Record, TableOptions};

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
