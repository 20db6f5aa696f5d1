//! Read-side types: queries, rows, aggregation.

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

    #[test]
    fn default_range_is_everything() {
        let q = Query::measure("m");
        assert_eq!(q.time_range(), (0, u64::MAX));
        let q = q.between(5, 10);
        assert_eq!(q.time_range(), (5, 10));
    }
}
