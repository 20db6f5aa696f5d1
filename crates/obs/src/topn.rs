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

/// Fixed-capacity recorder of the highest-ranked entries it has seen.
#[derive(Debug)]
pub struct TopN<T> {
    capacity: usize,
    /// Retained entries, sorted: highest rank first, ties broken by
    /// ascending id.
    entries: Mutex<Vec<T>>,
    observed: Mutex<u64>,
}

impl<T: Clone> Clone for TopN<T> {
    fn clone(&self) -> Self {
        TopN {
            capacity: self.capacity,
            entries: Mutex::new(lock(&self.entries).clone()),
            observed: Mutex::new(*lock(&self.observed)),
        }
    }
}

impl<T: Ranked> TopN<T> {
    /// Creates a recorder retaining the `capacity` highest-ranked entries
    /// (at least one).
    pub fn new(capacity: usize) -> Self {
        TopN {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            observed: Mutex::new(0),
        }
    }

    /// Records one entry; evicts the lowest-ranked retained entry when
    /// over capacity.
    pub fn record(&self, entry: T) {
        *lock(&self.observed) += 1;
        let key = |e: &T| {
            let (rank, id) = e.rank();
            (rank, Reverse(id))
        };
        let mut entries = lock(&self.entries);
        let at = entries.partition_point(|e| key(e) > key(&entry));
        entries.insert(at, entry);
        entries.truncate(self.capacity);
    }

    /// The retained entries, highest rank first.
    pub fn snapshot(&self) -> Vec<T> {
        lock(&self.entries).clone()
    }

    /// Total entries observed (including those since evicted).
    pub fn observed(&self) -> u64 {
        *lock(&self.observed)
    }

    /// Maximum number of retained entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}
