//! Read-side types: queries, rows, aggregation.

use crate::table::Entry;
use std::sync::Arc;

/// A query over one table: a measure name, optional dimension equality
/// filters, and a time range.
///
/// # Example
///
/// ```
/// use spotlake_timestream::Query;
///
/// let q = Query::measure("sps")
///     .filter("region", "us-east-1")
///     .between(0, 86_400);
/// assert_eq!(q.measure_name(), "sps");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    measure: String,
    filters: Vec<(String, String)>,
    from: u64,
    to: u64,
}

impl Query {
    /// Creates a query for all series of `measure`, over all time.
    pub fn measure(measure: impl Into<String>) -> Self {
        Query {
            measure: measure.into(),
            filters: Vec::new(),
            from: 0,
            to: u64::MAX,
        }
    }

    /// Restricts to series whose dimension `key` equals `value`.
    pub fn filter(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.filters.push((key.into(), value.into()));
        self
    }

    /// Restricts to points with `from <= time <= to`.
    pub fn between(mut self, from: u64, to: u64) -> Self {
        self.from = from;
        self.to = to;
        self
    }

    /// The measure this query targets.
    pub fn measure_name(&self) -> &str {
        &self.measure
    }

    /// The dimension filters.
    pub fn filters(&self) -> &[(String, String)] {
        &self.filters
    }

    /// The inclusive time range.
    pub fn time_range(&self) -> (u64, u64) {
        (self.from, self.to)
    }

    /// Whether a series with these dimensions matches the filters.
    pub(crate) fn matches(&self, dimensions: &[(String, String)]) -> bool {
        self.filters
            .iter()
            .all(|(fk, fv)| dimensions.iter().any(|(k, v)| k == fk && v == fv))
    }
}

/// One query result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Timestamp of the point.
    pub time: u64,
    /// The point's value.
    pub value: f64,
    /// Dimensions of the series the point came from, shared with the
    /// store: a row costs a reference count, not a copy of the strings.
    pub dimensions: Arc<[(String, String)]>,
}

/// Which rows a row query answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Every in-range point of every matching series, ordered by
    /// (time, dimensions) — [`Database::query`](crate::Database::query).
    Range,
    /// The last in-range point of each matching series —
    /// [`Database::latest`](crate::Database::latest).
    Latest,
    /// The value in effect at a timestamp (the latest point at or before
    /// it) of each matching series —
    /// [`Database::value_at`](crate::Database::value_at).
    At(u64),
}

impl RowKind {
    /// The operation's name in query profiles and metric labels.
    pub(crate) fn op(self) -> &'static str {
        match self {
            RowKind::Range => "query",
            RowKind::Latest => "latest",
            RowKind::At(_) => "value_at",
        }
    }
}

/// A row query's answer as the scan leaves it: the series it draws from
/// and, in answer order, the first `limit` of its rows, each naming its
/// series by position. No [`Row`] is built — an encoder reads the rows in
/// place, and [`RowScan::into_rows`] is the `Vec<Row>` answer.
#[derive(Debug)]
pub struct RowScan<'a> {
    /// The series rows may come from; a row's `series` indexes this.
    pub(crate) series: Vec<Entry<'a>>,
    /// `(time, series position, value)` of the rows kept, in answer order.
    pub(crate) rows: Vec<(u64, usize, f64)>,
    /// Rows the whole answer holds, before the limit.
    pub(crate) total: usize,
}

/// One row of a [`RowScan`], borrowed from the store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowRef<'a> {
    /// Timestamp of the point.
    pub time: u64,
    /// The point's value.
    pub value: f64,
    /// Position of the row's series among the answer's series (below
    /// [`RowScan::series_count`]): rows at one position share their
    /// dimensions, so an encoder can write them once per answer.
    pub series: usize,
    /// Dimensions of that series.
    pub dimensions: &'a [(String, String)],
}

impl RowScan<'_> {
    /// Rows kept: at most the limit the scan ran under.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row was kept.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows the whole answer holds, before the limit.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether the limit cut rows off the answer.
    pub fn truncated(&self) -> bool {
        self.rows.len() < self.total
    }

    /// Number of series positions a row may name.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The rows kept, in answer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        self.rows.iter().map(|&(time, series, value)| RowRef {
            time,
            value,
            series,
            dimensions: self.series[series].dimensions,
        })
    }

    /// The rows kept as owned [`Row`]s, each sharing its series'
    /// dimension allocation.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
            .into_iter()
            .map(|(time, series, value)| Row {
                time,
                value,
                dimensions: Arc::clone(self.series[series].dimensions),
            })
            .collect()
    }
}

/// Aggregation functions for windowed queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Arithmetic mean of the window's points.
    Mean,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of points.
    Count,
    /// Sum.
    Sum,
    /// The chronologically last value.
    Last,
}

impl Aggregate {
    /// Applies the aggregate to `(time, value)` points. Returns `None` for
    /// an empty window.
    pub fn apply(self, points: &[(u64, f64)]) -> Option<f64> {
        if points.is_empty() {
            return None;
        }
        Some(match self {
            Aggregate::Mean => points.iter().map(|&(_, v)| v).sum::<f64>() / points.len() as f64,
            Aggregate::Min => points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min),
            Aggregate::Max => points
                .iter()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Count => points.len() as f64,
            Aggregate::Sum => points.iter().map(|&(_, v)| v).sum(),
            Aggregate::Last => points.iter().max_by_key(|&&(t, _)| t).expect("nonempty").1,
        })
    }
}

/// One window's running aggregate: what [`Aggregate::apply`] computes
/// over the window's points, folded one point at a time in the order they
/// are pushed — the same additions in the same order from
/// [`Iterator::sum`]'s neutral element, the same `f64::min` / `f64::max`
/// folds, and [`Aggregate::Last`] keeping the last of equal maximal times
/// as `max_by_key` does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold {
    agg: Aggregate,
    /// The running sum, minimum, maximum or last value.
    value: f64,
    /// Time of the last value, for [`Aggregate::Last`].
    time: u64,
    count: usize,
}

impl Fold {
    pub(crate) fn new(agg: Aggregate) -> Fold {
        let value = match agg {
            Aggregate::Min => f64::INFINITY,
            Aggregate::Max => f64::NEG_INFINITY,
            _ => std::iter::empty::<f64>().sum(),
        };
        Fold {
            agg,
            value,
            time: 0,
            count: 0,
        }
    }

    pub(crate) fn push(&mut self, time: u64, value: f64) {
        match self.agg {
            Aggregate::Mean | Aggregate::Sum => self.value += value,
            Aggregate::Min => self.value = self.value.min(value),
            Aggregate::Max => self.value = self.value.max(value),
            Aggregate::Count => {}
            Aggregate::Last => {
                if self.count == 0 || time >= self.time {
                    self.time = time;
                    self.value = value;
                }
            }
        }
        self.count += 1;
    }

    /// Points pushed.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The aggregate, or `None` before any point.
    pub(crate) fn finish(&self) -> Option<f64> {
        (self.count > 0).then(|| match self.agg {
            Aggregate::Mean => self.value / self.count as f64,
            Aggregate::Count => self.count as f64,
            _ => self.value,
        })
    }
}

/// One row of a windowed aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    /// Start of the tumbling window.
    pub window_start: u64,
    /// Aggregated value over the window.
    pub value: f64,
    /// Number of points that contributed.
    pub count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_requires_all_filters() {
        let q = Query::measure("m").filter("a", "1").filter("b", "2");
        let dims = vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "2".to_string()),
            ("c".to_string(), "3".to_string()),
        ];
        assert!(q.matches(&dims));
        let q2 = Query::measure("m").filter("a", "9");
        assert!(!q2.matches(&dims));
        assert!(Query::measure("m").matches(&dims), "no filters matches all");
    }

    #[test]
    fn aggregates() {
        let pts = vec![(0u64, 1.0), (10, 3.0), (5, 2.0)];
        assert_eq!(Aggregate::Mean.apply(&pts), Some(2.0));
        assert_eq!(Aggregate::Min.apply(&pts), Some(1.0));
        assert_eq!(Aggregate::Max.apply(&pts), Some(3.0));
        assert_eq!(Aggregate::Count.apply(&pts), Some(3.0));
        assert_eq!(Aggregate::Sum.apply(&pts), Some(6.0));
        assert_eq!(
            Aggregate::Last.apply(&pts),
            Some(3.0),
            "last by time, not by position"
        );
        assert_eq!(Aggregate::Mean.apply(&[]), None);
    }

    const AGGREGATES: [Aggregate; 6] = [
        Aggregate::Mean,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Last,
    ];

    /// Values where folding in another order, from another neutral
    /// element or with another `min`/`max` would show: signed zeros, NaN,
    /// infinities and magnitudes that absorb each other.
    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1e300),
            Just(-1e300),
            Just(1e-300),
            -5.0f64..5.0,
        ]
    }

    /// A value's bits, every NaN as one: Rust leaves a NaN result's sign
    /// and payload unspecified, so only NaN-ness is the same computation's
    /// to keep.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    proptest! {
        /// A window folded point by point is [`Aggregate::apply`] over its
        /// points, bit for bit (NaN as NaN), for all six aggregates — times
        /// drawn from a few values, so `Last` meets ties.
        #[test]
        fn the_window_fold_is_apply(
            points in prop::collection::vec((0u64..6, arb_value()), 0..24),
        ) {
            for agg in AGGREGATES {
                let mut fold = Fold::new(agg);
                for &(time, value) in &points {
                    fold.push(time, value);
                }
                prop_assert_eq!(fold.count(), points.len());
                let (got, want) = (fold.finish(), agg.apply(&points));
                prop_assert!(
                    got.map(bits) == want.map(bits),
                    "{:?} over {:?}: {:?} != {:?}", agg, points, got, want
                );
            }
        }
    }

    #[test]
    fn the_fold_keeps_signed_zero_and_the_last_of_tied_times() {
        let zeros = [(0, -0.0), (1, -0.0)];
        for agg in [Aggregate::Sum, Aggregate::Mean] {
            let mut fold = Fold::new(agg);
            zeros.iter().for_each(|&(t, v)| fold.push(t, v));
            assert!(fold.finish().unwrap().is_sign_negative(), "{agg:?}");
            assert!(agg.apply(&zeros).unwrap().is_sign_negative(), "{agg:?}");
        }
        let tied = [(5, 1.0), (5, 2.0), (3, 9.0)];
        let mut fold = Fold::new(Aggregate::Last);
        tied.iter().for_each(|&(t, v)| fold.push(t, v));
        assert_eq!(fold.finish(), Some(2.0));
        assert_eq!(Aggregate::Last.apply(&tied), Some(2.0));
    }

    #[test]
    fn default_range_is_everything() {
        let q = Query::measure("m");
        assert_eq!(q.time_range(), (0, u64::MAX));
        let q = q.between(5, 10);
        assert_eq!(q.time_range(), (5, 10));
    }
}
