//! Series books: one id per series on the write path.
//!
//! A [`SeriesBook`] gives every series its caller writes one dense id — a
//! [`SeriesRef`], the series' position in the book — when the caller first
//! defines it: measure, dimensions, and the dimension key the store files
//! it under, spelled once. A batch is then a slice of [`Point`]s,
//! `(id, time, value)`, and the book remembers where the store files each
//! series once a point of it has been applied. Writing a batch by id
//! builds no [`Record`], formats no key, and hashes or compares no string
//! per point — validation included: a series' names are checked once, when
//! it is booked, and a point of a valid series checks only its id and that
//! its value is finite.
//!
//! Ids belong to the book, not to the store, and a book never files
//! anything: a series is filed by the first apply of one of its points, so
//! a series defined but never applied — its shard failed, say — is not in
//! the store. Where the store files a series is remembered as a handle
//! stamped with its table's generation; a table that moves a series
//! (retention re-files a measure) or is cloned takes a new generation, and
//! every handle taken before is re-resolved by key rather than trusted.
//!
//! The [`Record`] write API ([`crate::Database::write`],
//! [`crate::ShardedArchive::commit`], [`crate::Wal::commit`]) is a thin
//! adapter: it books the batch's records ([`SeriesBook::from_records`]) and
//! writes by id.

use crate::error::TsError;
use crate::record::{dimension_value, pairs, series_key, Record, Spelled};
use crate::table::{Filed, Table};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A series' id in its [`SeriesBook`].
pub type SeriesRef = u32;

/// A record's series as [`SeriesBook::from_records`] tells them apart:
/// measure and dimensions, borrowed.
type SeriesName<'r> = (&'r str, &'r [(String, String)]);

/// A booked series as the store files it: measure name, the shared
/// dimension key and the dimensions ([`SeriesBook::filing`]).
pub(crate) type Filing<'b> = (&'b str, &'b Arc<str>, &'b [(String, String)]);

/// One point of a booked series: what a write batch carries per record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// The series, as its book numbers it.
    pub series: SeriesRef,
    /// Timestamp, in seconds since the (simulation) epoch.
    pub time: u64,
    /// Measured value.
    pub value: f64,
}

/// Set in [`Def::region`] when the series' names pass validation.
const VALID: u32 = 1 << 31;

/// One booked series, spelled once: the store files it under the same
/// key allocation and the ids of its pairs in the measure's dictionary.
/// The book keeps its own spelling, which every log record of the series
/// spells again.
#[derive(Debug, Clone)]
struct Def {
    /// Index into the book's measure names.
    measure: u32,
    /// Index into the book's region names — the shard the series belongs
    /// to — with [`VALID`] set when its measure and dimension keys pass
    /// validation, as checked when it was booked.
    region: u32,
    /// The dimensions, in the order given.
    dimensions: Box<[(String, String)]>,
    /// The dimension key the series is filed under.
    key: Arc<str>,
}

// The verdict rides in `region` so that a book of millions of series
// stays at 40 bytes a series.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Def>() == 40);

impl Def {
    fn region(&self) -> usize {
        (self.region & !VALID) as usize
    }

    fn valid(&self) -> bool {
        self.region & VALID != 0
    }
}

/// The series a writer books, each with one dense id. See the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct SeriesBook {
    measures: Vec<String>,
    regions: Vec<String>,
    defs: Vec<Def>,
    /// Where the store filed each series when last resolved.
    filed: Vec<Option<Filed>>,
}

impl SeriesBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books a series and returns its id: the next one, whether or not an
    /// earlier id names the same series. `dimensions` are taken as given;
    /// like [`Record::dimension`]'s, they should be sorted by key.
    /// Nothing is refused here: the series' names are validated once and
    /// the verdict kept, and a point of an invalid series fails as the
    /// equivalent [`Record`] would ([`SeriesBook::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if the book already holds `u32::MAX` series, or would name
    /// 2^31 measures or regions.
    pub fn define(&mut self, measure: &str, dimensions: Vec<(String, String)>) -> SeriesRef {
        let id = SeriesRef::try_from(self.defs.len()).expect("a book holds fewer than 2^32 series");
        let region = dimension_value(&dimensions, "region").unwrap_or("none");
        let region = intern(&mut self.regions, region);
        let measure = intern(&mut self.measures, measure);
        let key = series_key("", pairs(&dimensions)).into();
        let names = Spelled {
            time: 0,
            measure: &self.measures[measure as usize],
            value: 0.0,
            dimensions: &dimensions,
        };
        let verdict = if names.validate().is_ok() { VALID } else { 0 };
        self.defs.push(Def {
            measure,
            region: region | verdict,
            dimensions: dimensions.into_boxed_slice(),
            key,
        });
        self.filed.push(None);
        id
    }

    /// Books every distinct series of `records` once, in first-seen order,
    /// and returns the book with the records as points of it — how the
    /// [`Record`] write API reaches the id path.
    pub fn from_records<R: Borrow<Record>>(records: &[R]) -> (SeriesBook, Vec<Point>) {
        let mut book = SeriesBook::new();
        let mut seen: BTreeMap<SeriesName<'_>, SeriesRef> = BTreeMap::new();
        let points = records
            .iter()
            .map(|r| {
                let r = r.borrow();
                let series = *seen
                    .entry((r.measure.as_str(), r.dimensions.as_slice()))
                    .or_insert_with(|| book.define(&r.measure, r.dimensions.clone()));
                Point {
                    series,
                    time: r.time,
                    value: r.value,
                }
            })
            .collect();
        (book, points)
    }

    /// Number of booked series.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether nothing is booked.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The measure of series `s`, or `None` for an id the book never gave.
    pub fn measure(&self, s: SeriesRef) -> Option<&str> {
        let def = self.def(s)?;
        self.measures.get(def.measure as usize).map(String::as_str)
    }

    /// The dimensions of series `s`, or `None` for an id the book never
    /// gave.
    pub fn dimensions(&self, s: SeriesRef) -> Option<&[(String, String)]> {
        self.def(s).map(|d| &d.dimensions[..])
    }

    /// The region whose shard owns series `s` — its `region` dimension,
    /// or `none` — or `None` for an id the book never gave.
    pub fn region(&self, s: SeriesRef) -> Option<&str> {
        self.regions.get(self.region_index(s)?).map(String::as_str)
    }

    /// [`SeriesBook::region`] as an index into the book's region names:
    /// what a commit groups points by.
    pub(crate) fn region_index(&self, s: SeriesRef) -> Option<usize> {
        self.def(s).map(Def::region)
    }

    /// The book's region names, indexed as [`SeriesBook::region_index`].
    pub(crate) fn region_names(&self) -> &[String] {
        &self.regions
    }

    /// `point` spelled as the record it stands for.
    pub fn record(&self, point: &Point) -> Record {
        let spelled = self.spelled(point);
        Record {
            time: spelled.time,
            measure: spelled.measure.to_owned(),
            value: spelled.value,
            dimensions: spelled.dimensions.to_vec(),
        }
    }

    /// `point`'s record parts, borrowed from the book. An id the book
    /// never gave spells an empty measure, which validation rejects.
    pub(crate) fn spelled(&self, point: &Point) -> Spelled<'_> {
        Spelled {
            time: point.time,
            measure: self.measure(point.series).unwrap_or(""),
            value: point.value,
            dimensions: self.dimensions(point.series).unwrap_or(&[]),
        }
    }

    /// Validates `point` as [`Record::validate`] validates the record it
    /// stands for; an id the book never gave is a bad record too. A point
    /// of a series whose names passed when it was booked checks only its
    /// value; any other point takes the full check, so it fails with the
    /// record's reason.
    pub(crate) fn validate(&self, point: &Point) -> Result<(), TsError> {
        let Some(def) = self.def(point.series) else {
            return Err(TsError::BadRecord {
                reason: "series not in the book",
            });
        };
        if def.valid() && point.value.is_finite() {
            return Ok(());
        }
        self.spelled(point).validate()
    }

    /// What the store files series `s` with: measure name, the shared
    /// dimension key and the dimensions.
    pub(crate) fn filing(&self, s: SeriesRef) -> Option<Filing<'_>> {
        let def = self.def(s)?;
        let measure = self.measures.get(def.measure as usize)?;
        Some((measure, &def.key, &def.dimensions))
    }

    /// Where `table` files series `s`, if a handle taken from it is still
    /// current. A stale or missing handle is `None`; the caller then
    /// resolves by key.
    pub(crate) fn handle(&self, table: &Table, s: SeriesRef) -> Option<Filed> {
        self.filed
            .get(s as usize)
            .copied()
            .flatten()
            .filter(|f| table.is_current(f))
    }

    /// Refreshes the handle of every series `points` name against `table`:
    /// a current handle is kept, any other is looked up by key — found
    /// when `table` files the series, `None` when it does not yet. Files
    /// nothing. After a batch is applied, this is what lets the next one
    /// reach every series by id.
    pub(crate) fn resolve(&mut self, table: &Table, points: &[Point]) {
        for p in points {
            let Some(slot) = self.filed.get(p.series as usize) else {
                continue;
            };
            if slot.is_some_and(|f| table.is_current(&f)) {
                continue;
            }
            let found = self
                .filing(p.series)
                .and_then(|(measure, key, _)| table.locate(measure, key));
            if let Some(slot) = self.filed.get_mut(p.series as usize) {
                *slot = found;
            }
        }
    }

    fn def(&self, s: SeriesRef) -> Option<&Def> {
        self.defs.get(s as usize)
    }
}

/// The index of `name` in `names`, appended when absent. The lists are a
/// handful of measures and regions, so a scan beats a map.
fn intern(names: &mut Vec<String>, name: &str) -> u32 {
    let at = names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_owned());
        names.len() - 1
    });
    u32::try_from(at)
        .ok()
        .filter(|&at| at < VALID)
        .expect("a book names fewer than 2^31 measures and regions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_names_are_spelled_once() {
        let mut book = SeriesBook::new();
        let dims = |az: &str| {
            vec![
                ("az".to_owned(), az.to_owned()),
                ("region".to_owned(), "us-test-1".to_owned()),
            ]
        };
        let a = book.define("sps", dims("us-test-1a"));
        let b = book.define("sps", dims("us-test-1b"));
        let c = book.define("spot_price", vec![]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(book.len(), 3);
        assert_eq!(book.measure(b), Some("sps"));
        assert_eq!(book.region(a), Some("us-test-1"));
        assert_eq!(book.region(c), Some("none"), "no region dimension");
        assert_eq!(book.region_names().len(), 2);
        assert_eq!(book.measure(3), None, "an id the book never gave");
        let p = Point {
            series: b,
            time: 600,
            value: 2.0,
        };
        let want = Record::new(600, "sps", 2.0)
            .dimension("az", "us-test-1b")
            .dimension("region", "us-test-1");
        assert_eq!(book.record(&p), want);
    }

    #[test]
    fn from_records_books_each_series_once_in_first_seen_order() {
        let r = |t, ty: &str| Record::new(t, "sps", 1.0).dimension("instance_type", ty);
        let records = vec![r(0, "b"), r(0, "a"), r(600, "b"), r(0, "c")];
        let (book, points) = SeriesBook::from_records(&records);
        assert_eq!(book.len(), 3);
        let ids: Vec<SeriesRef> = points.iter().map(|p| p.series).collect();
        assert_eq!(ids, vec![0, 1, 0, 2]);
        let spelled: Vec<Record> = points.iter().map(|p| book.record(p)).collect();
        assert_eq!(spelled, records);
    }

    /// A series' names are validated once, when booked: every point of
    /// every series fails, or passes, with the reason the record it stands
    /// for does — measure first, then value, then dimension keys.
    #[test]
    fn booked_validation_keeps_the_record_reasons_and_their_order() {
        let reason = |r: Result<(), TsError>| match r {
            Ok(()) => None,
            Err(TsError::BadRecord { reason }) => Some(reason),
            Err(e) => panic!("not a bad record: {e}"),
        };
        let key = |k: &str| vec![(k.to_owned(), "v".to_owned())];
        let mut book = SeriesBook::new();
        let good = book.define("m", key("k"));
        let no_measure = book.define("", key("k"));
        let no_key = book.define("m", key(""));
        let neither = book.define("", key(""));
        let at = |series, value| Point {
            series,
            time: 0,
            value,
        };
        for series in [good, no_measure, no_key, neither] {
            for value in [1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let p = at(series, value);
                assert_eq!(
                    reason(book.validate(&p)),
                    reason(book.record(&p).validate()),
                    "{p:?}"
                );
            }
        }
        for (p, want) in [
            (at(good, 1.0), None),
            (at(good, f64::NAN), Some("non-finite value")),
            (at(no_measure, f64::NAN), Some("empty measure name")),
            (at(no_key, f64::NAN), Some("non-finite value")),
            (at(no_key, 1.0), Some("empty dimension key")),
            (at(neither, 1.0), Some("empty measure name")),
            (at(4, 1.0), Some("series not in the book")),
        ] {
            assert_eq!(reason(book.validate(&p)), want, "{p:?}");
        }
    }

    #[test]
    fn validation_matches_the_record_it_stands_for() {
        let mut book = SeriesBook::new();
        let bad_measure = book.define("", vec![]);
        let bad_dim = book.define("m", vec![(String::new(), "v".to_owned())]);
        let good = book.define("m", vec![]);
        let at = |series, value| Point {
            series,
            time: 0,
            value,
        };
        for p in [
            at(bad_measure, 1.0),
            at(bad_dim, 1.0),
            at(good, f64::NAN),
            at(good, 1.0),
            at(9, 1.0),
        ] {
            let via_record = match book.measure(p.series) {
                Some(_) => book.record(&p).validate().map_err(|e| e.to_string()),
                None => Err("unknown".to_owned()),
            };
            assert_eq!(
                book.validate(&p).is_ok(),
                via_record.is_ok(),
                "{p:?}: {via_record:?}"
            );
        }
    }
}
