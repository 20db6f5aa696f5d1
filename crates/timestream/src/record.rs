//! Records: the write-side unit.

use crate::error::TsError;
use crate::index::Dimensions;

/// One data point: time (seconds since the epoch), a measure name, a value,
/// and free-form dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Timestamp, in seconds since the (simulation) epoch.
    pub time: u64,
    /// Measure name, e.g. `"sps"`, `"if_score"`, `"spot_price"`.
    pub measure: String,
    /// Measured value.
    pub value: f64,
    /// Dimension tags, e.g. `("instance_type", "m5.large")`. Kept sorted by
    /// key.
    pub dimensions: Vec<(String, String)>,
}

impl Record {
    /// Creates a record with no dimensions.
    pub fn new(time: u64, measure: impl Into<String>, value: f64) -> Self {
        Record {
            time,
            measure: measure.into(),
            value,
            dimensions: Vec::new(),
        }
    }

    /// Adds a dimension tag (builder-style). Dimensions are kept sorted by
    /// key; setting an existing key overwrites its value.
    pub fn dimension(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        let value = value.into();
        match self.dimensions.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.dimensions[i].1 = value,
            Err(i) => self.dimensions.insert(i, (key, value)),
        }
        self
    }

    /// The value of dimension `key`, if set.
    pub fn dimension_value(&self, key: &str) -> Option<&str> {
        dimension_value(&self.dimensions, key)
    }

    /// Validates the record for ingestion.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::BadRecord`] for empty measure names, non-finite
    /// values, or empty dimension keys.
    pub fn validate(&self) -> Result<(), TsError> {
        self.spelled().validate()
    }

    /// The record as the parts a log frame spells.
    pub(crate) fn spelled(&self) -> Spelled<'_> {
        Spelled {
            time: self.time,
            measure: &self.measure,
            value: self.value,
            dimensions: Dims::Record(&self.dimensions),
        }
    }

    /// The canonical series key this record belongs to:
    /// `measure|k1=v1|k2=v2|...` with dimensions sorted by key.
    pub fn series_key(&self) -> String {
        series_key(&self.measure, pairs(&self.dimensions))
    }
}

/// A record's parts, borrowed from wherever the caller holds them — a
/// [`Record`], or a [`crate::SeriesBook`] series and a point of it. What a
/// log frame encodes and what ingestion validates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Spelled<'a> {
    pub(crate) time: u64,
    pub(crate) measure: &'a str,
    pub(crate) value: f64,
    pub(crate) dimensions: Dims<'a>,
}

/// A record's dimensions, in the order given: a [`Record`]'s own pairs,
/// or a booked series' pair ids and the book's dictionary that spells
/// them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dims<'a> {
    Record(&'a [(String, String)]),
    Book(Dimensions<'a>),
}

impl<'a> Dims<'a> {
    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        match self {
            Dims::Record(dims) => dims.len(),
            Dims::Book(dims) => dims.len(),
        }
    }

    /// The pairs as `(key, value)`, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + Clone + 'a {
        let (record, book) = match *self {
            Dims::Record(dims) => (dims, None),
            Dims::Book(dims) => (&[][..], Some(dims)),
        };
        pairs(record).chain(book.into_iter().flat_map(|dims| dims.iter()))
    }
}

impl Spelled<'_> {
    /// [`Record::validate`] of these parts.
    pub(crate) fn validate(&self) -> Result<(), TsError> {
        if self.measure.is_empty() {
            return Err(TsError::BadRecord {
                reason: "empty measure name",
            });
        }
        if !self.value.is_finite() {
            return Err(TsError::BadRecord {
                reason: "non-finite value",
            });
        }
        if self.dimensions.iter().any(|(k, _)| k.is_empty()) {
            return Err(TsError::BadRecord {
                reason: "empty dimension key",
            });
        }
        Ok(())
    }
}

/// The value of dimension `key` in a sorted dimension list, if set — what
/// [`Record::dimension_value`] answers, asked of a stored series too.
pub(crate) fn dimension_value<'d>(dims: &'d [(String, String)], key: &str) -> Option<&'d str> {
    dims.binary_search_by(|(k, _)| k.as_str().cmp(key))
        .ok()
        .and_then(|i| dims.get(i))
        .map(|(_, v)| v.as_str())
}

/// Owned dimension pairs as the `(key, value)` borrows the store files
/// and keys a series by.
pub(crate) fn pairs(
    dims: &[(String, String)],
) -> impl ExactSizeIterator<Item = (&str, &str)> + Clone {
    dims.iter().map(|(k, v)| (k.as_str(), v.as_str()))
}

/// Builds the canonical series key for a measure + sorted dimensions.
pub(crate) fn series_key<'a>(
    measure: &str,
    dims: impl IntoIterator<Item = (&'a str, &'a str)> + Clone,
) -> String {
    let mut key = String::with_capacity(
        measure.len()
            + dims
                .clone()
                .into_iter()
                .map(|(k, v)| k.len() + v.len() + 2)
                .sum::<usize>(),
    );
    key.push_str(measure);
    for (k, v) in dims {
        key.push('|');
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_stay_sorted_and_overwrite() {
        let r = Record::new(0, "sps", 3.0)
            .dimension("region", "us-east-1")
            .dimension("az", "us-east-1a")
            .dimension("region", "eu-west-1");
        assert_eq!(r.dimensions.len(), 2);
        assert_eq!(r.dimension_value("az"), Some("us-east-1a"));
        assert_eq!(r.dimension_value("region"), Some("eu-west-1"));
        assert_eq!(r.dimension_value("missing"), None);
        assert_eq!(r.series_key(), "sps|az=us-east-1a|region=eu-west-1");
    }

    #[test]
    fn series_key_is_order_independent() {
        let a = Record::new(0, "m", 1.0)
            .dimension("a", "1")
            .dimension("b", "2");
        let b = Record::new(9, "m", 2.0)
            .dimension("b", "2")
            .dimension("a", "1");
        assert_eq!(a.series_key(), b.series_key());
    }

    #[test]
    fn validation() {
        assert!(Record::new(0, "", 1.0).validate().is_err());
        assert!(Record::new(0, "m", f64::NAN).validate().is_err());
        assert!(Record::new(0, "m", f64::INFINITY).validate().is_err());
        assert!(Record::new(0, "m", 1.0)
            .dimension("", "v")
            .validate()
            .is_err());
        assert!(Record::new(0, "m", 1.0).validate().is_ok());
    }
}
