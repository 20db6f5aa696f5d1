//! A measure's series index: its pair dictionary, what each series is
//! filed under, and the postings a filtered scan walks.
//!
//! Every distinct dimension pair `(key, value)` of a measure is spelled
//! once, in its [`Pairs`] dictionary, and numbered by a [`PairId`]; a
//! series is filed as the ids of its pairs, in the order it was given
//! them. A query's filters resolve to ids once, against the dictionary,
//! so filtering, candidate lookup and the row encoders compare and index
//! integers, and a row's dimensions are read from a few hundred shared
//! strings rather than from strings of its own.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// A dimension pair's id in its measure's [`Pairs`].
pub type PairId = u32;

/// A series' position in its measure's slab. Four bytes: an id is stored
/// once per dimension of every series.
pub(crate) type SeriesId = u32;

/// The distinct `(key, value)` pairs a measure's series carry, each
/// spelled once and numbered in the order it was first filed. A copy
/// shares the strings.
#[derive(Debug, Clone, Default)]
pub struct Pairs {
    /// By id.
    spelled: Vec<(Arc<str>, Arc<str>)>,
    /// Key → value → id: a lookup borrows both strings, and every pair
    /// of one key shares the key's allocation.
    ids: BTreeMap<Arc<str>, BTreeMap<Arc<str>, PairId>>,
}

/// The dictionary of a measure that does not exist.
static NO_PAIRS: Pairs = Pairs {
    spelled: Vec::new(),
    ids: BTreeMap::new(),
};

impl Pairs {
    /// An empty dictionary, borrowed for as long as needed.
    pub(crate) fn none() -> &'static Pairs {
        &NO_PAIRS
    }

    /// Number of distinct pairs: every id is below it.
    pub fn len(&self) -> usize {
        self.spelled.len()
    }

    /// Whether the measure has no pair.
    pub fn is_empty(&self) -> bool {
        self.spelled.is_empty()
    }

    /// The pair numbered `id`, or `None` for an id the dictionary never
    /// gave.
    pub fn get(&self, id: PairId) -> Option<(&str, &str)> {
        self.spelled
            .get(id as usize)
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// The id of `(key, value)`, if a series of the measure carries it.
    pub(crate) fn find(&self, key: &str, value: &str) -> Option<PairId> {
        self.ids.get(key)?.get(value).copied()
    }

    /// The id of `(key, value)`, numbered now if the measure has not
    /// seen it: only a new pair allocates.
    pub(crate) fn intern(&mut self, key: &str, value: &str) -> PairId {
        if let Some(id) = self.find(key, value) {
            return id;
        }
        let id = PairId::try_from(self.spelled.len())
            .expect("a measure's pairs fit in memory, so their count fits an id");
        let key = match self.ids.get_key_value(key) {
            Some((k, _)) => Arc::clone(k),
            None => Arc::from(key),
        };
        let value: Arc<str> = Arc::from(value);
        self.ids
            .entry(Arc::clone(&key))
            .or_default()
            .insert(Arc::clone(&value), id);
        self.spelled.push((key, value));
        id
    }

    /// Key of pair `id`; empty for an id the dictionary never gave.
    fn key(&self, id: PairId) -> &str {
        self.get(id).map_or("", |(k, _)| k)
    }
}

/// A series' dimensions, borrowed from its measure's index: the ids of
/// its pairs in stored order, and the dictionary that spells them.
#[derive(Clone, Copy)]
pub struct Dimensions<'a> {
    pairs: &'a Pairs,
    ids: &'a [PairId],
    /// Whether the keys strictly increase: sorted, none repeated.
    sorted: bool,
}

impl<'a> Dimensions<'a> {
    /// No dimension.
    pub(crate) fn none() -> Dimensions<'static> {
        Dimensions {
            pairs: Pairs::none(),
            ids: &[],
            sorted: true,
        }
    }

    /// The pairs' ids in the measure's dictionary, in stored order.
    pub fn ids(&self) -> &'a [PairId] {
        self.ids
    }

    /// The pairs as `(key, value)`, in stored order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> + Clone + 'a {
        let pairs = self.pairs;
        self.ids
            .iter()
            .map(move |&id| pairs.get(id).unwrap_or(("", "")))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the series has no dimension.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the keys are sorted with none repeated — the order a JSON
    /// object of these pairs lists them in.
    pub fn keys_sorted(&self) -> bool {
        self.sorted
    }

    /// The value of dimension `key`, searched for as
    /// [`Record::dimension_value`](crate::Record::dimension_value)
    /// searches a record's sorted dimensions.
    pub fn get(&self, key: &str) -> Option<&'a str> {
        let at = self
            .ids
            .binary_search_by(|&id| self.pairs.key(id).cmp(key))
            .ok()?;
        let &id = self.ids.get(at)?;
        self.pairs.get(id).map(|(_, v)| v)
    }

    /// The pairs spelled as owned strings.
    pub fn to_vec(&self) -> Vec<(String, String)> {
        self.iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect()
    }

    /// The pairs compared in order, each as `(key, value)` — the order
    /// of the spelled pairs, without spelling a pair both sides share.
    pub(crate) fn cmp_spelled(&self, other: &Dimensions<'_>) -> Ordering {
        let same_dictionary = std::ptr::eq(self.pairs, other.pairs);
        for (&a, &b) in self.ids.iter().zip(other.ids) {
            if same_dictionary && a == b {
                continue;
            }
            let (a, b) = (self.pairs.get(a), other.pairs.get(b));
            match a.cmp(&b) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        self.len().cmp(&other.len())
    }
}

impl PartialEq for Dimensions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Dimensions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a measure files a series under besides its points: the dimension
/// key — what puts index hits back into key order — and where its pair
/// ids sit in the index's pool.
#[derive(Debug, Clone)]
struct Filing {
    key: Arc<str>,
    pairs: Range<u32>,
}

/// A measure's index: its pair dictionary, what each id files, the key
/// map and the postings. A copy ([`Arc::make_mut`] when a series is
/// created under a shared snapshot) copies pointers and integers, no
/// string.
///
/// Ids, not dimension keys, are what the postings hold: appending an
/// integer when a series is created costs nothing measurable at ingest,
/// while postings of key strings kept in order cost more than the series
/// map itself (DESIGN.md "Query-path tracing and the cost model").
#[derive(Debug, Clone, Default)]
pub(crate) struct Index {
    pairs: Pairs,
    /// By series id.
    filings: Vec<Filing>,
    /// Every series' pair ids, back to back in series id order.
    pool: Vec<PairId>,
    /// Ids of the series whose keys do not strictly increase, ascending:
    /// almost always none, so a flag per series would cost more.
    unsorted: Vec<SeriesId>,
    /// Dimension key → id. Its order is the order scans yield series in.
    by_key: BTreeMap<Arc<str>, SeriesId>,
    /// Pair id → ids of the series carrying that pair, in creation order.
    postings: Vec<Vec<SeriesId>>,
}

impl Index {
    /// Number of series.
    pub(crate) fn len(&self) -> usize {
        self.filings.len()
    }

    pub(crate) fn pairs(&self) -> &Pairs {
        &self.pairs
    }

    /// The id of the series filed under dimension key `key`.
    pub(crate) fn id(&self, key: &str) -> Option<SeriesId> {
        self.by_key.get(key).copied()
    }

    /// The dimension key series `id` is filed under.
    pub(crate) fn key(&self, id: SeriesId) -> Option<&Arc<str>> {
        self.filings.get(id as usize).map(|f| &f.key)
    }

    /// Every series id, in dimension-key order.
    pub(crate) fn in_key_order(&self) -> impl Iterator<Item = SeriesId> + '_ {
        self.by_key.values().copied()
    }

    /// The dimensions of series `id`; none for an id the index never gave.
    pub(crate) fn dimensions(&self, id: SeriesId) -> Dimensions<'_> {
        let filing = self.filings.get(id as usize);
        let ids = filing
            .and_then(|f| self.pool.get(f.pairs.start as usize..f.pairs.end as usize))
            .unwrap_or(&[]);
        Dimensions {
            pairs: &self.pairs,
            ids,
            sorted: self.unsorted.binary_search(&id).is_err(),
        }
    }

    /// Files a series under a key the index does not hold yet, with
    /// these dimensions in this order, and returns its id. Each pair is
    /// one borrowed lookup; only a pair the measure has not seen is
    /// spelled, and nothing is allocated per series.
    pub(crate) fn file<'d>(
        &mut self,
        key: Arc<str>,
        dimensions: impl IntoIterator<Item = (&'d str, &'d str)>,
    ) -> SeriesId {
        let id = SeriesId::try_from(self.filings.len())
            .expect("a measure's series fit in memory, so their count fits an id");
        let offset = |len: usize| {
            u32::try_from(len).expect("a measure's pairs fit in memory, so their count fits a u32")
        };
        let start = offset(self.pool.len());
        let mut sorted = true;
        let mut last_key: Option<&str> = None;
        for (k, v) in dimensions {
            sorted &= last_key.is_none_or(|last| last < k);
            last_key = Some(k);
            let pair = self.pairs.intern(k, v);
            self.pool.push(pair);
            if self.postings.len() <= pair as usize {
                self.postings.resize_with(pair as usize + 1, Vec::new);
            }
            if let Some(ids) = self.postings.get_mut(pair as usize) {
                // A series that names one pair twice is still one posting.
                if ids.last() != Some(&id) {
                    ids.push(id);
                }
            }
        }
        let pairs = start..offset(self.pool.len());
        self.by_key.insert(Arc::clone(&key), id);
        if !sorted {
            self.unsorted.push(id);
        }
        self.filings.push(Filing { key, pairs });
        id
    }

    /// The ids of the series carrying pair `pair`, in creation order.
    pub(crate) fn posting(&self, pair: PairId) -> &[SeriesId] {
        self.postings.get(pair as usize).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(index: &mut Index, key: &str, dims: &[(&str, &str)]) -> SeriesId {
        index.file(Arc::from(key), dims.iter().copied())
    }

    #[test]
    fn each_pair_is_spelled_once_and_a_series_keeps_its_order() {
        let mut index = Index::default();
        let a = file(&mut index, "a", &[("az", "1a"), ("region", "r1")]);
        let b = file(&mut index, "b", &[("region", "r1"), ("az", "1b")]);
        let c = file(&mut index, "c", &[("k", "v"), ("k", "v")]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(index.pairs().len(), 4, "az=1a, region=r1, az=1b, k=v");
        assert_eq!(index.dimensions(b).ids(), &[1, 2]);
        assert_eq!(
            index.dimensions(b).to_vec(),
            vec![
                ("region".to_owned(), "r1".to_owned()),
                ("az".to_owned(), "1b".to_owned())
            ]
        );
        assert!(index.dimensions(a).keys_sorted());
        assert!(!index.dimensions(b).keys_sorted(), "out of order");
        assert!(!index.dimensions(c).keys_sorted(), "a repeated key");
        assert_eq!(index.posting(1), &[a, b]);
        assert_eq!(index.posting(3), &[c], "a pair named twice is one posting");
        assert_eq!(index.posting(9), &[] as &[SeriesId]);
        assert!(index.dimensions(7).is_empty(), "an id never given");
        assert_eq!(index.id("b"), Some(b));
        assert_eq!(index.in_key_order().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn a_copy_shares_every_string() {
        let mut index = Index::default();
        file(&mut index, "a", &[("az", "1a"), ("region", "r1")]);
        let copy = index.clone();
        for ((k, v), (ck, cv)) in index.pairs.spelled.iter().zip(&copy.pairs.spelled) {
            assert!(Arc::ptr_eq(k, ck) && Arc::ptr_eq(v, cv));
        }
        assert!(Arc::ptr_eq(
            index.key(0).expect("filed"),
            copy.key(0).expect("filed")
        ));
    }

    #[test]
    fn get_searches_as_a_record_does_and_comparison_spells() {
        let mut index = Index::default();
        let a = file(&mut index, "a", &[("az", "1a"), ("region", "r1")]);
        let b = file(&mut index, "b", &[("az", "1a"), ("region", "r2")]);
        let c = file(&mut index, "c", &[("az", "1a")]);
        let (da, db, dc) = (
            index.dimensions(a),
            index.dimensions(b),
            index.dimensions(c),
        );
        assert_eq!(da.get("region"), Some("r1"));
        assert_eq!(da.get("zone"), None);
        assert_eq!(da.cmp_spelled(&db), Ordering::Less);
        assert_eq!(dc.cmp_spelled(&da), Ordering::Less, "a prefix sorts first");
        assert_eq!(da.cmp_spelled(&da), Ordering::Equal);
        assert_eq!(da.cmp_spelled(&db), da.to_vec().cmp(&db.to_vec()));

        let mut other = Index::default();
        let d = file(&mut other, "x", &[("region", "r0")]);
        let dd = other.dimensions(d);
        assert_eq!(da.cmp_spelled(&dd), Ordering::Less, "az < region");
        assert_ne!(da, dd);
        assert_eq!(format!("{dd:?}"), r#"[("region", "r0")]"#);
    }
}
