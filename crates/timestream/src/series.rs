//! One series: the points of a single (measure, dimensions) pair.

use std::sync::Arc;

/// Storage chunk size in points, for query cost accounting. The on-disk
/// codec compresses each series as one Gorilla stream, but a columnar
/// store pages data in fixed chunks; the cost model charges a query one
/// "chunk decompressed" per [`CHUNK_POINTS`]-point page its scan touches,
/// which keeps EXPLAIN costs meaningful without changing storage.
pub(crate) const CHUNK_POINTS: usize = 256;

/// Number of [`CHUNK_POINTS`]-sized pages the index range `[start, end)`
/// touches.
pub(crate) fn chunks_touched(start: usize, end: usize) -> u64 {
    if end <= start {
        0
    } else {
        ((end - 1) / CHUNK_POINTS - start / CHUNK_POINTS + 1) as u64
    }
}

/// A single time series, sorted by timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Series {
    /// The series' dimensions (sorted by key), kept for query filtering.
    /// Shared, not owned: every result row of the series and every clone
    /// of the database hold the same allocation.
    pub(crate) dimensions: Arc<[(String, String)]>,
    /// Points, sorted by time, at most one per timestamp.
    points: Vec<(u64, f64)>,
}

impl Series {
    pub(crate) fn new(dimensions: impl Into<Arc<[(String, String)]>>) -> Self {
        Series {
            dimensions: dimensions.into(),
            points: Vec::new(),
        }
    }

    /// Inserts a point, keeping time order. A point at an existing
    /// timestamp overwrites it. Returns `true` if the series changed.
    pub(crate) fn insert(&mut self, time: u64, value: f64) -> bool {
        match self.points.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => {
                if self.points[i].1 == value {
                    false
                } else {
                    self.points[i].1 = value;
                    true
                }
            }
            Err(i) => {
                self.points.insert(i, (time, value));
                true
            }
        }
    }

    /// Inserts only if the value differs from the latest point's value
    /// (*change-point mode*). Returns `true` if stored.
    pub(crate) fn insert_changepoint(&mut self, time: u64, value: f64) -> bool {
        self.changepoint_may_store(time, value) && self.insert(time, value)
    }

    /// Whether [`Series::insert_changepoint`] could change the series.
    /// `false` is exact — the point repeats the latest value at or after
    /// its time, so the insert is a no-op — which is what lets the WAL
    /// leave such a record out of a frame. `true` is conservative: an
    /// out-of-order point is decided by the insert itself.
    pub(crate) fn changepoint_may_store(&self, time: u64, value: f64) -> bool {
        !matches!(self.points.last(), Some(&(last_t, last_v)) if time >= last_t && last_v == value)
    }

    pub(crate) fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Points with `from <= t <= to`, plus the number of storage chunks
    /// the scan touched, for query cost accounting. An inverted range
    /// (`from > to`) holds no point: empty, no chunk touched. A range that
    /// covers the whole series is answered from its bounds, without a
    /// search — with the chunk count the search would give.
    pub(crate) fn range_scan(&self, from: u64, to: u64) -> (&[(u64, f64)], u64) {
        if let (Some(&(first, _)), Some(&(last, _))) = (self.points.first(), self.points.last()) {
            if from <= first && last <= to {
                return (&self.points, chunks_touched(0, self.points.len()));
            }
        }
        let start = self.points.partition_point(|&(t, _)| t < from);
        let end = self.points.partition_point(|&(t, _)| t <= to).max(start);
        (&self.points[start..end], chunks_touched(start, end))
    }

    /// The latest point at or before `at`, plus the chunks touched (one
    /// when a point is found: the lookup decodes only the page holding
    /// it).
    pub(crate) fn value_at_scan(&self, at: u64) -> (Option<(u64, f64)>, u64) {
        let idx = self.points.partition_point(|&(t, _)| t <= at);
        match idx.checked_sub(1) {
            Some(i) => (Some(self.points[i]), 1),
            None => (None, 0),
        }
    }

    /// Whether any stored point could fall inside `[from, to]` — the
    /// cheap bounds check that lets a scan prune this series without
    /// touching its chunks.
    pub(crate) fn overlaps(&self, from: u64, to: u64) -> bool {
        match (self.points.first(), self.points.last()) {
            (Some(&(first, _)), Some(&(last, _))) => first <= to && last >= from,
            _ => false,
        }
    }

    /// Drops points strictly older than `cutoff`. Returns how many were
    /// dropped.
    pub(crate) fn prune_before(&mut self, cutoff: u64) -> usize {
        let n = self.points.partition_point(|&(t, _)| t < cutoff);
        self.points.drain(..n);
        n
    }

    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn range(s: &Series, from: u64, to: u64) -> &[(u64, f64)] {
        s.range_scan(from, to).0
    }

    fn value_at(s: &Series, at: u64) -> Option<(u64, f64)> {
        s.value_at_scan(at).0
    }

    #[test]
    fn insert_keeps_order_and_overwrites() {
        let mut s = Series::new(vec![]);
        assert!(s.insert(10, 1.0));
        assert!(s.insert(5, 0.5));
        assert!(s.insert(20, 2.0));
        assert_eq!(s.points(), &[(5, 0.5), (10, 1.0), (20, 2.0)]);
        // Overwrite.
        assert!(s.insert(10, 1.5));
        assert_eq!(value_at(&s, 10), Some((10, 1.5)));
        // Same value at same time: no change.
        assert!(!s.insert(10, 1.5));
    }

    #[test]
    fn changepoint_mode_skips_repeats() {
        let mut s = Series::new(vec![]);
        assert!(s.insert_changepoint(0, 3.0));
        assert!(!s.insert_changepoint(600, 3.0));
        assert!(!s.insert_changepoint(1200, 3.0));
        assert!(s.insert_changepoint(1800, 2.0));
        assert_eq!(s.len(), 2);
        // Out-of-order writes in changepoint mode fall back to plain insert.
        assert!(s.insert_changepoint(900, 9.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn range_and_value_at() {
        let mut s = Series::new(vec![]);
        for t in [0u64, 600, 1200, 1800] {
            s.insert(t, t as f64);
        }
        assert_eq!(range(&s, 600, 1200), &[(600, 600.0), (1200, 1200.0)]);
        assert_eq!(range(&s, 601, 1199), &[] as &[(u64, f64)]);
        assert_eq!(range(&s, 0, u64::MAX).len(), 4);
        assert_eq!(value_at(&s, 599), Some((0, 0.0)));
        assert_eq!(value_at(&s, 1800), Some((1800, 1800.0)));
        let empty = Series::new(vec![]);
        assert_eq!(value_at(&empty, 100), None);
    }

    #[test]
    fn an_inverted_range_is_empty_whether_or_not_it_straddles_the_series() {
        let mut s = Series::new(vec![]);
        for t in [0u64, 600, 1200, 1800] {
            s.insert(t, t as f64);
        }
        for (from, to) in [(1200, 600), (1000, 500), (5000, 4000), (700, 0), (1, 0)] {
            assert_eq!(
                s.range_scan(from, to),
                (&[] as &[(u64, f64)], 0),
                "{from}..{to}"
            );
        }
    }

    #[test]
    fn chunk_accounting_counts_touched_pages() {
        assert_eq!(chunks_touched(0, 0), 0);
        assert_eq!(chunks_touched(5, 5), 0);
        assert_eq!(chunks_touched(0, 1), 1);
        assert_eq!(chunks_touched(0, CHUNK_POINTS), 1);
        assert_eq!(chunks_touched(0, CHUNK_POINTS + 1), 2);
        assert_eq!(chunks_touched(CHUNK_POINTS - 1, CHUNK_POINTS + 1), 2);
        assert_eq!(chunks_touched(10, 20), 1, "within one page");

        let mut s = Series::new(vec![]);
        for t in 0..600u64 {
            s.insert(t, t as f64);
        }
        let (pts, chunks) = s.range_scan(0, u64::MAX);
        assert_eq!(pts.len(), 600);
        assert_eq!(chunks, 3, "600 points span 3 pages of 256");
        let (pts, chunks) = s.range_scan(10, 20);
        assert_eq!(pts.len(), 11);
        assert_eq!(chunks, 1);
        let (found, chunks) = s.value_at_scan(300);
        assert_eq!(found, Some((300, 300.0)));
        assert_eq!(chunks, 1);
        let (found, chunks) = Series::new(vec![]).value_at_scan(300);
        assert_eq!(found, None);
        assert_eq!(chunks, 0);
    }

    #[test]
    fn overlaps_is_a_bounds_check() {
        let mut s = Series::new(vec![]);
        s.insert(100, 1.0);
        s.insert(200, 2.0);
        assert!(s.overlaps(0, 100));
        assert!(s.overlaps(150, 160), "range inside the bounds");
        assert!(s.overlaps(200, 300));
        assert!(!s.overlaps(0, 99));
        assert!(!s.overlaps(201, 300));
        assert!(!Series::new(vec![]).overlaps(0, u64::MAX));
    }

    #[test]
    fn prune() {
        let mut s = Series::new(vec![]);
        for t in 0..10u64 {
            s.insert(t * 100, t as f64);
        }
        assert_eq!(s.prune_before(500), 5);
        assert_eq!(s.points()[0].0, 500);
        assert_eq!(s.prune_before(0), 0);
    }

    /// The range and point lookups by their definition: two searches for
    /// a range, one for a point.
    fn by_search(s: &Series, from: u64, to: u64) -> (&[(u64, f64)], u64) {
        let pts = s.points();
        let start = pts.partition_point(|&(t, _)| t < from);
        let end = pts.partition_point(|&(t, _)| t <= to).max(start);
        (&pts[start..end], chunks_touched(start, end))
    }

    proptest! {
        /// `range_scan` — the covered-series shortcut included — and
        /// `value_at_scan` answer as the searches define them, chunk counts
        /// included: over empty series and series of several pages, for
        /// ranges that cover, touch an endpoint, sit inside, miss or invert.
        #[test]
        fn scans_equal_their_search_definitions(
            times in prop::collection::vec(0u64..2_000, 0..700),
            a in 0u64..2_100,
            b in 0u64..2_100,
            shape in 0usize..7,
        ) {
            let mut s = Series::new(vec![]);
            for &t in &times {
                s.insert(t, t as f64);
            }
            let first = s.points().first().map_or(0, |p| p.0);
            let last = s.points().last().map_or(0, |p| p.0);
            let (from, to) = match shape {
                0 => (a, b),
                1 => (0, u64::MAX),
                2 => (first, last),
                3 => (first, b),
                4 => (a, last),
                5 => (last, first),
                _ => (last.saturating_add(1), u64::MAX),
            };
            prop_assert_eq!(s.range_scan(from, to), by_search(&s, from, to));
            let idx = s.points().partition_point(|&(t, _)| t <= to);
            let want = idx.checked_sub(1).map(|i| s.points()[i]);
            prop_assert_eq!(s.value_at_scan(to), (want, u64::from(want.is_some())));
        }

        #[test]
        fn always_sorted_unique_times(writes in prop::collection::vec((0u64..1000, -100.0f64..100.0), 0..200)) {
            let mut s = Series::new(vec![]);
            for (t, v) in writes {
                s.insert(t, v);
            }
            let pts = s.points();
            for w in pts.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }
    }
}
