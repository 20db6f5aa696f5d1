//! Series books: one id per series on the write path.
//!
//! A [`SeriesBook`] gives every series its caller writes one dense id — a
//! [`SeriesRef`], the series' position in the book — when the caller first
//! defines it: measure, dimensions, and the dimension key the store files
//! it under. A batch is then a slice of [`Point`]s, `(id, time, value)`,
//! and the book remembers where the store files each series once a point
//! of it has been applied. Writing a batch by id builds no [`Record`],
//! formats no key, and hashes or compares no string per point —
//! validation included: a series' names are checked once, when it is
//! booked, and a point of a valid series checks only its id and that its
//! value is finite.
//!
//! A book spells its dimensions the way a store's index does
//! ([`Dimensions`]): each distinct `(key, value)` pair once, in one
//! [`Pairs`] dictionary per book, and a series as a range of pair ids in
//! one pool, in the order it was given them. Measures booked over one
//! pool's dimensions share the range ([`SeriesBook::define_sharing`]).
//! What the book holds per series is a fixed-size entry and the key,
//! whose one allocation the store files the series under. A log frame
//! and the store read a series' dimensions through that one view.
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
use crate::index::{Dimensions, PairId, Pairs};
use crate::record::{pairs, series_key, Dims, Record, Spelled};
use crate::table::{Filed, Table};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// A series' id in its [`SeriesBook`].
pub type SeriesRef = u32;

/// A record's series as [`SeriesBook::from_records`] tells them apart:
/// measure and dimensions, borrowed.
type SeriesName<'r> = (&'r str, &'r [(String, String)]);

/// A booked series as the store files it: measure name, the shared
/// dimension key and the dimensions ([`SeriesBook::filing`]).
pub(crate) type Filing<'b> = (&'b str, &'b Arc<str>, Dimensions<'b>);

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
/// Set in [`Def::region`] when the series' dimension keys strictly
/// increase ([`Dimensions::keys_sorted`]).
const SORTED: u32 = 1 << 30;

/// One booked series: its measure, its region and two verdicts, where
/// its pair ids sit in the book's pool, and the key the store files it
/// under — the one allocation of its own, which the store shares.
#[derive(Debug, Clone)]
struct Def {
    /// Index into the book's measure names.
    measure: u32,
    /// Index into the book's region names — the shard the series belongs
    /// to — with [`VALID`] set when its measure and dimension keys pass
    /// validation, as checked when it was booked, and [`SORTED`] when its
    /// keys strictly increase.
    region: u32,
    /// The series' pair ids in the book's pool, in the order given.
    pairs: Range<u32>,
    /// The dimension key the series is filed under.
    key: Arc<str>,
}

// The verdicts ride in `region` so that a book of millions of series
// stays at 32 bytes a series, besides its pair ids and its key.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Def>() == 32);

impl Def {
    fn region(&self) -> usize {
        (self.region & !(VALID | SORTED)) as usize
    }

    fn valid(&self) -> bool {
        self.region & VALID != 0
    }
}

/// The series a writer books, each with one dense id: its measure, its
/// dimensions as a range of pair ids spelled once per book, and the key
/// the store files it under.
#[derive(Debug, Clone, Default)]
pub struct SeriesBook {
    measures: Vec<String>,
    regions: Vec<String>,
    /// Every distinct dimension pair the book's series carry, spelled once.
    pairs: Pairs,
    /// Every series' pair ids, back to back in booking order; series that
    /// share their dimensions share one run.
    pool: Vec<PairId>,
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
    /// earlier id names the same series. `dimensions` are kept in the
    /// order given, each pair spelled once in the book however many series
    /// carry it; like [`Record::dimension`]'s, they should be sorted by
    /// key. Nothing is refused here: the series' names are validated once
    /// and the verdict kept, and a point of an invalid series fails as the
    /// equivalent [`Record`] would.
    ///
    /// # Panics
    ///
    /// Panics if the book already holds `u32::MAX` series or pair ids, or
    /// would name 2^30 measures or regions.
    pub fn define<K, V>(
        &mut self,
        measure: &str,
        dimensions: impl IntoIterator<Item = (K, V)>,
    ) -> SeriesRef
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let start = pool_offset(self.pool.len());
        for (k, v) in dimensions {
            let pair = self.pairs.intern(k.as_ref(), v.as_ref());
            self.pool.push(pair);
        }
        let ids = self.pool.get(start as usize..).unwrap_or(&[]);
        let sorted = self.pairs.keys_increase(ids);
        let dims = Dimensions::new(&self.pairs, ids, sorted);
        let region = intern(&mut self.regions, dims.get("region").unwrap_or("none"));
        let key = series_key("", dims.iter()).into();
        let pairs = start..pool_offset(self.pool.len());
        self.push(
            measure,
            region | if sorted { SORTED } else { 0 },
            pairs,
            key,
        )
    }

    /// Books `measure` over the dimensions of series `s` — the same pair
    /// ids and the same key allocation, nothing spelled again — and
    /// returns its id, or `None` for an id the book never gave.
    ///
    /// # Panics
    ///
    /// As [`SeriesBook::define`].
    pub fn define_sharing(&mut self, measure: &str, s: SeriesRef) -> Option<SeriesRef> {
        let def = self.def(s)?;
        let (region, pairs, key) = (def.region & !VALID, def.pairs.clone(), Arc::clone(&def.key));
        Some(self.push(measure, region, pairs, key))
    }

    /// Appends a series: `region` is its region index with [`SORTED`] as
    /// it applies; the validity verdict is taken here.
    fn push(&mut self, measure: &str, region: u32, pairs: Range<u32>, key: Arc<str>) -> SeriesRef {
        let id = SeriesRef::try_from(self.defs.len()).expect("a book holds fewer than 2^32 series");
        let measure = intern(&mut self.measures, measure);
        let names = Spelled {
            time: 0,
            measure: self
                .measures
                .get(measure as usize)
                .map_or("", String::as_str),
            value: 0.0,
            dimensions: Dims::Book(self.view(&pairs, region)),
        };
        let verdict = if names.validate().is_ok() { VALID } else { 0 };
        self.defs.push(Def {
            measure,
            region: region | verdict,
            pairs,
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
                    .or_insert_with(|| book.define(&r.measure, pairs(&r.dimensions)));
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

    /// The dimensions of series `s`, in the order given, spelled by the
    /// book's dictionary; `None` for an id the book never gave.
    pub fn dimensions(&self, s: SeriesRef) -> Option<Dimensions<'_>> {
        self.def(s).map(|d| self.view(&d.pairs, d.region))
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
        Record {
            time: point.time,
            measure: self.measure(point.series).unwrap_or("").to_owned(),
            value: point.value,
            dimensions: self.dimensions(point.series).unwrap_or_default().to_vec(),
        }
    }

    /// `point`'s record parts, borrowed from the book. An id the book
    /// never gave spells an empty measure, which validation rejects.
    pub(crate) fn spelled(&self, point: &Point) -> Spelled<'_> {
        Spelled {
            time: point.time,
            measure: self.measure(point.series).unwrap_or(""),
            value: point.value,
            dimensions: Dims::Book(self.dimensions(point.series).unwrap_or_default()),
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
        Some((measure, &def.key, self.view(&def.pairs, def.region)))
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

    /// Pair ids `pairs` of the pool, spelled by the book's dictionary,
    /// sorted as `region`'s [`SORTED`] flag says.
    fn view(&self, pairs: &Range<u32>, region: u32) -> Dimensions<'_> {
        let ids = self
            .pool
            .get(pairs.start as usize..pairs.end as usize)
            .unwrap_or(&[]);
        Dimensions::new(&self.pairs, ids, region & SORTED != 0)
    }
}

/// `len` as an offset into a book's pool.
fn pool_offset(len: usize) -> u32 {
    u32::try_from(len).expect("a book's pair ids fit in memory, so their count fits a u32")
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
        .filter(|&at| at < SORTED)
        .expect("a book names fewer than 2^30 measures and regions")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No dimension.
    const NONE: [(&str, &str); 0] = [];

    /// The two-region, three-zone test catalog's names: (zone, region)
    /// and instance types.
    const ZONES: [(&str, &str); 6] = [
        ("us-test-1a", "us-test-1"),
        ("us-test-1b", "us-test-1"),
        ("us-test-1c", "us-test-1"),
        ("eu-test-1a", "eu-test-1"),
        ("eu-test-1b", "eu-test-1"),
        ("eu-test-1c", "eu-test-1"),
    ];
    const TYPES: [&str; 3] = ["m5.large", "c5.xlarge", "p3.2xlarge"];

    #[test]
    fn zone_pools_spell_each_zone_type_and_region_once() {
        let mut book = SeriesBook::new();
        for ty in TYPES {
            for (az, region) in ZONES {
                book.define(
                    "sps",
                    [("az", az), ("instance_type", ty), ("region", region)],
                );
            }
        }
        assert_eq!(book.len(), TYPES.len() * ZONES.len());
        assert_eq!(
            book.pairs.len(),
            ZONES.len() + TYPES.len() + 2,
            "|AZs| + |types| + |regions|"
        );
        assert_eq!(book.pool.len(), 3 * book.len(), "three pair ids a series");
        assert_eq!(book.region_names(), ["us-test-1", "eu-test-1"]);
        let last = SeriesRef::try_from(book.len() - 1).unwrap();
        let dims = book.dimensions(last).unwrap();
        assert!(dims.keys_sorted());
        assert_eq!(dims.get("instance_type"), Some("p3.2xlarge"));
        assert_eq!(book.region(last), Some("eu-test-1"));
    }

    #[test]
    fn measures_booked_over_one_pool_share_its_range_and_key() {
        let mut book = SeriesBook::new();
        let dims = [("instance_type", "m5.large"), ("region", "us-test-1")];
        let if_score = book.define("if_score", dims);
        let savings = book.define_sharing("savings", if_score).unwrap();
        assert_eq!(savings, if_score + 1);
        assert_eq!(book.define_sharing("savings", 9), None, "an id never given");
        assert_eq!(book.len(), 2);
        assert_eq!(book.pool.len(), 2, "one range for both measures");
        let (a, b) = (&book.defs[0], &book.defs[1]);
        assert_eq!(a.pairs, b.pairs);
        assert!(Arc::ptr_eq(&a.key, &b.key), "one key allocation");
        assert_eq!(book.measure(savings), Some("savings"));
        assert_eq!(book.dimensions(if_score), book.dimensions(savings));
        assert_eq!(book.region(savings), Some("us-test-1"));

        // The verdict is the new measure's own.
        let unnamed = book.define_sharing("", if_score).unwrap();
        let p = Point {
            series: unnamed,
            time: 0,
            value: 1.0,
        };
        assert!(book.validate(&p).is_err());
        assert!(book
            .validate(&Point {
                series: savings,
                ..p
            })
            .is_ok());
    }

    /// A point spells the record of the names its series was defined
    /// with, in the order given: a book sorts nothing and merges nothing.
    #[test]
    fn a_point_spells_the_names_it_was_defined_with() {
        let mut book = SeriesBook::new();
        let cases: [(&str, Vec<(&str, &str)>); 5] = [
            ("sps", vec![("az", "us-test-1a"), ("region", "us-test-1")]),
            ("sps", vec![("region", "us-test-1"), ("az", "us-test-1a")]),
            ("sps", vec![("k", "v1"), ("k", "v2")]),
            ("sps", vec![("k", "v1"), ("k", "v1")]),
            ("m", vec![]),
        ];
        for (i, (measure, dims)) in cases.iter().enumerate() {
            let s = book.define(measure, dims.iter().copied());
            let p = Point {
                series: s,
                time: 600 * i as u64,
                value: i as f64,
            };
            let want = Record {
                time: p.time,
                measure: (*measure).to_owned(),
                value: p.value,
                dimensions: dims
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                    .collect(),
            };
            assert_eq!(book.record(&p), want, "case {i}");
            let sorted = dims.windows(2).all(|w| w[0].0 < w[1].0);
            let got = book.dimensions(s).unwrap();
            assert_eq!(got.keys_sorted(), sorted, "case {i}");
            assert_eq!(&*book.defs[i].key, &want.series_key()[measure.len()..]);
        }
        assert_eq!(book.pairs.len(), 4, "az, region, k=v1 and k=v2");
    }

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
        let c = book.define("spot_price", NONE);
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
        let bad_measure = book.define("", NONE);
        let bad_dim = book.define("m", vec![(String::new(), "v".to_owned())]);
        let good = book.define("m", NONE);
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
