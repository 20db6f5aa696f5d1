//! A fixed-capacity, deterministic top-N keeper: the one recorder behind
//! the gateway's slow-query flight record ([`crate::FlightRecorder`]) and
//! the server's slow-request log ([`crate::RequestRecorder`]).
//!
//! Entries are ranked by a key their type supplies ([`Ranked`]), never by
//! arrival, so two same-seed runs retain byte-identical entries. Recording
//! goes through `&self` (`Mutex` inside) like the registry, so a read path
//! can feed it without `&mut` plumbing and worker threads can share one
//! recorder. Poisoned locks are recovered: each mutation is a whole-value
//! update, so a panicking worker cannot leave the recorder half-written.
//!
//! Recording is admit-first: [`TopN::record_with`] takes the rank and a
//! builder, and builds the entry only when it will be retained. A full
//! recorder that sees a cheap entry pays a counter bump and one
//! comparison, not the entry's strings.

use std::cmp::Reverse;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An entry a [`TopN`] ranks.
pub trait Ranked: Clone {
    /// `(rank, id)`: the higher rank is retained first, and on equal
    /// ranks the lower id (the first occurrence) wins the slot.
    fn rank(&self) -> (u64, u64);
}

/// The sort key of a rank: highest rank first, then lowest id.
fn key((rank, id): (u64, u64)) -> (u64, Reverse<u64>) {
    (rank, Reverse(id))
}

#[derive(Debug, Clone)]
struct Kept<T> {
    /// Retained entries, sorted: highest rank first, ties broken by
    /// ascending id.
    entries: Vec<T>,
    observed: u64,
}

/// Fixed-capacity recorder of the highest-ranked entries it has seen.
#[derive(Debug)]
pub struct TopN<T> {
    capacity: usize,
    kept: Mutex<Kept<T>>,
}

impl<T: Clone> Clone for TopN<T> {
    fn clone(&self) -> Self {
        TopN {
            capacity: self.capacity,
            kept: Mutex::new(lock(&self.kept).clone()),
        }
    }
}

impl<T: Ranked> TopN<T> {
    /// Creates a recorder retaining the `capacity` highest-ranked entries
    /// (at least one).
    pub fn new(capacity: usize) -> Self {
        TopN {
            capacity: capacity.max(1),
            kept: Mutex::new(Kept {
                entries: Vec::new(),
                observed: 0,
            }),
        }
    }

    /// Records one entry; evicts the lowest-ranked retained entry when
    /// over capacity.
    pub fn record(&self, entry: T) {
        self.record_with(entry.rank(), || entry);
    }

    /// Records the entry `build` makes, whose [`Ranked::rank`] is `rank`,
    /// calling `build` only if the entry is retained. Retains exactly
    /// what [`TopN::record`] of the built entry would.
    pub fn record_with(&self, rank: (u64, u64), build: impl FnOnce() -> T) {
        let mut kept = lock(&self.kept);
        kept.observed += 1;
        let at = kept.entries.partition_point(|e| key(e.rank()) > key(rank));
        if at < self.capacity {
            let entry = build();
            debug_assert_eq!(entry.rank(), rank, "record_with: rank of the built entry");
            kept.entries.insert(at, entry);
            kept.entries.truncate(self.capacity);
        }
    }

    /// The retained entries, highest rank first.
    pub fn snapshot(&self) -> Vec<T> {
        lock(&self.kept).entries.clone()
    }

    /// Total entries observed (including those since evicted or never
    /// built).
    pub fn observed(&self) -> u64 {
        lock(&self.kept).observed
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        rank: u64,
        id: u64,
        /// Tells apart entries of one `(rank, id)`.
        arrival: usize,
    }

    impl Ranked for Entry {
        fn rank(&self) -> (u64, u64) {
            (self.rank, self.id)
        }
    }

    /// The eager path every entry took before admit-first recording:
    /// build, insert at its rank, truncate.
    fn eager(capacity: usize, stream: &[Entry]) -> (Vec<Entry>, u64) {
        let capacity = capacity.max(1);
        let mut entries: Vec<Entry> = Vec::new();
        for entry in stream {
            let at = entries.partition_point(|e| key(e.rank()) > key(entry.rank()));
            entries.insert(at, entry.clone());
            entries.truncate(capacity);
        }
        (entries, stream.len() as u64)
    }

    proptest! {
        /// Lazy recording retains what eager recording does — same
        /// entries, same order, ties and repeated ids included — counts
        /// every entry, and builds only the entries it admits.
        #[test]
        fn admit_first_matches_eager_recording(
            capacity in 0usize..6,
            raw in prop::collection::vec((0u64..6, 0u64..8), 0..60),
        ) {
            let stream: Vec<Entry> = raw
                .iter()
                .enumerate()
                .map(|(arrival, &(rank, id))| Entry { rank, id, arrival })
                .collect();
            let lazy = TopN::new(capacity);
            let built = Cell::new(0u64);
            for entry in &stream {
                let before = lazy.snapshot();
                let builds = built.get();
                lazy.record_with(entry.rank(), || {
                    built.set(built.get() + 1);
                    entry.clone()
                });
                let after = lazy.snapshot();
                // Built exactly when retained; a refused entry changes
                // nothing.
                let admitted = after.iter().any(|e| e.arrival == entry.arrival);
                prop_assert_eq!(built.get() > builds, admitted);
                prop_assert!(admitted || after == before);
            }
            let (entries, observed) = eager(capacity, &stream);
            prop_assert_eq!(lazy.snapshot(), entries);
            prop_assert_eq!(lazy.observed(), observed);
        }
    }

    #[test]
    fn a_full_recorder_does_not_build_an_entry_it_will_not_keep() {
        let top = TopN::new(2);
        for id in 0..2 {
            top.record(Entry {
                rank: 5,
                id,
                arrival: 0,
            });
        }
        let mut built = false;
        // Equal rank, later id: loses the tie, so it is never built.
        top.record_with((5, 9), || {
            built = true;
            Entry {
                rank: 5,
                id: 9,
                arrival: 1,
            }
        });
        assert!(!built);
        assert_eq!(top.observed(), 3);
        top.record_with((6, 9), || Entry {
            rank: 6,
            id: 9,
            arrival: 2,
        });
        let ranks: Vec<(u64, u64)> = top.snapshot().iter().map(Ranked::rank).collect();
        assert_eq!(ranks, [(6, 9), (5, 0)]);
    }
}
