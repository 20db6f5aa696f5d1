//! Read-side types: queries, rows, aggregation.

use crate::index::{Dimensions, Index, PairId, Pairs, SeriesId};
use crate::table::Entry;
use std::fmt;
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

    /// The filters as ids of `pairs`, a measure's dictionary, in order;
    /// `None` when the dictionary lacks one, so no series of the measure
    /// can match.
    pub(crate) fn resolve(&self, pairs: &Pairs) -> Option<Resolved> {
        let mut resolved = Resolved {
            inline: [0; INLINE_FILTERS],
            len: self.filters.len(),
            spilled: Vec::new(),
        };
        let find = |(k, v): &(String, String)| pairs.find(k, v);
        if self.filters.len() > INLINE_FILTERS {
            resolved.spilled = self.filters.iter().map(find).collect::<Option<_>>()?;
        } else {
            for (slot, filter) in resolved.inline.iter_mut().zip(&self.filters) {
                *slot = find(filter)?;
            }
        }
        Some(resolved)
    }
}

/// Filters held inline by [`Resolved`]: more than a served query names.
const INLINE_FILTERS: usize = 8;

/// A query's filters resolved to pair ids of one measure
/// ([`Query::resolve`]): inline for up to [`INLINE_FILTERS`] filters, so
/// resolving a served query's filters allocates nothing.
pub(crate) struct Resolved {
    inline: [PairId; INLINE_FILTERS],
    len: usize,
    /// Every id, when there are more than fit inline.
    spilled: Vec<PairId>,
}

impl Resolved {
    /// The ids, in the order the filters were given.
    pub(crate) fn ids(&self) -> &[PairId] {
        match self.inline.get(..self.len) {
            Some(inline) => inline,
            None => &self.spilled,
        }
    }
}

/// Whether a series carrying the pairs `dimensions` matches every filter
/// of `filters`, both as ids of one measure's dictionary.
pub(crate) fn matches(filters: &[PairId], dimensions: &[PairId]) -> bool {
    filters.iter().all(|f| dimensions.contains(f))
}

/// One query result row.
#[derive(Clone)]
pub struct Row {
    /// Timestamp of the point.
    pub time: u64,
    /// The point's value.
    pub value: f64,
    /// The index of the series' measure, shared with the store: a row
    /// costs a reference count, not a copy of its dimension strings.
    index: Arc<Index>,
    series: SeriesId,
}

impl Row {
    /// Dimensions of the series the point came from.
    pub fn dimensions(&self) -> Dimensions<'_> {
        self.index.dimensions(self.series)
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.value == other.value
            && self.dimensions() == other.dimensions()
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Row")
            .field("time", &self.time)
            .field("value", &self.value)
            .field("dimensions", &self.dimensions())
            .finish()
    }
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
    /// The index of the measure scanned; `None` when the table has no
    /// such measure, and so no row.
    pub(crate) index: Option<&'a Arc<Index>>,
    /// The series rows may come from; a row's position indexes this.
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
    /// Dimensions of the row's series, as ids of [`RowScan::pairs`]:
    /// an encoder can write each pair once per answer.
    pub dimensions: Dimensions<'a>,
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

    /// The dictionary of the measure scanned: every pair a row carries
    /// has an id below its length.
    pub fn pairs(&self) -> &Pairs {
        self.index.map_or(Pairs::none(), |index| index.pairs())
    }

    /// The rows kept, in answer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        self.rows.iter().map(|&(time, at, value)| RowRef {
            time,
            value,
            dimensions: match (self.index, self.series.get(at)) {
                (Some(index), Some(e)) => index.dimensions(e.id),
                _ => Dimensions::none(),
            },
        })
    }

    /// The rows kept as owned [`Row`]s, each sharing its measure's index.
    pub fn into_rows(self) -> Vec<Row> {
        let Some(index) = self.index else {
            return Vec::new();
        };
        self.rows
            .into_iter()
            .filter_map(|(time, at, value)| {
                Some(Row {
                    time,
                    value,
                    index: Arc::clone(index),
                    series: self.series.get(at)?.id,
                })
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
        let mut pairs = Pairs::default();
        let dims: Vec<PairId> = [("a", "1"), ("b", "2"), ("c", "3")]
            .into_iter()
            .map(|(k, v)| pairs.intern(k, v))
            .collect();
        pairs.intern("a", "9");
        let resolved = |q: Query| {
            q.resolve(&pairs)
                .expect("every pair is known")
                .ids()
                .to_vec()
        };
        let q = Query::measure("m").filter("a", "1").filter("b", "2");
        assert!(matches(&resolved(q), &dims));
        let q2 = Query::measure("m").filter("a", "9");
        assert!(!matches(&resolved(q2), &dims));
        let none = resolved(Query::measure("m"));
        assert!(matches(&none, &dims), "no filters matches all");
        let twice = Query::measure("m").filter("a", "1").filter("a", "1");
        assert!(matches(&resolved(twice), &dims), "a filter given twice");
        assert!(
            Query::measure("m")
                .filter("a", "2")
                .resolve(&pairs)
                .is_none(),
            "a pair the dictionary lacks"
        );
        let many = (0..=INLINE_FILTERS).fold(Query::measure("m"), |q, _| q.filter("c", "3"));
        assert_eq!(resolved(many), vec![dims[2]; INLINE_FILTERS + 1]);
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
