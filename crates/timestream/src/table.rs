//! Tables: named collections of series with a write mode and retention.

use crate::book::{Point, SeriesBook, SeriesRef};
use crate::error::TsError;
use crate::profile::QueryProfile;
use crate::query::{Aggregate, Fold, Query, Row, RowKind, RowScan, WindowRow};
use crate::record::{series_key, Record};
use crate::series::Series;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How writes are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Every (validated) record is stored.
    #[default]
    Dense,
    /// A record is stored only when its value differs from the series'
    /// latest value — the natural representation for the price and advisor
    /// datasets, which change rarely (paper Figure 10).
    ChangePoint,
}

/// Per-table options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableOptions {
    /// Write mode.
    pub mode: WriteMode,
    /// Optional retention window in seconds: on
    /// [`Table::enforce_retention`], points older than `now - retention`
    /// are dropped.
    pub retention: Option<u64>,
}

/// A series in its measure's slab, with the dimension key it is filed
/// under — what puts index hits back into key order.
#[derive(Debug, Clone)]
struct Slot {
    key: Arc<str>,
    series: Series,
}

/// A series' position in its measure's slab. Four bytes: an id is stored
/// once per dimension of every series.
pub(crate) type SeriesId = u32;

/// Where a table files a series: its measure's position, its position in
/// that measure's slab, and the table generation both were read under.
/// Current only while the table's generation is unchanged
/// ([`Table::is_current`]): positions move only when the generation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Filed {
    generation: u64,
    measure: u32,
    id: SeriesId,
}

/// A generation no table has had: one per table built, cloned or re-filed,
/// so a handle can never be current for two layouts.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What writing points did to a table ([`Table::apply_points`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Applied {
    /// Records that changed the table (change-point tables skip repeats).
    pub(crate) stored: usize,
    /// Points the table gained: a dense write at a timestamp the series
    /// already holds changes a value, not the count.
    pub(crate) points: usize,
}

/// The series of one measure and the index a filtered scan walks.
///
/// Ids, not dimension keys, are what the postings hold: appending an
/// integer when a series is created costs nothing measurable at ingest,
/// while postings of key strings kept in order cost more than the series
/// map itself (DESIGN.md "Query-path tracing and the cost model").
#[derive(Debug, Clone, Default)]
struct Measure {
    slab: Vec<Slot>,
    /// Dimension key → id. Its order is the order scans yield series in.
    by_key: BTreeMap<Arc<str>, SeriesId>,
    /// Dimension → value → ids of the series carrying that pair, in
    /// creation order.
    postings: BTreeMap<String, BTreeMap<String, Vec<SeriesId>>>,
}

impl Measure {
    fn slot(&self, id: SeriesId) -> &Slot {
        &self.slab[id as usize]
    }

    fn series_mut(&mut self, id: SeriesId) -> &mut Series {
        &mut self.slab[id as usize].series
    }

    /// The series in dimension-key order.
    fn in_key_order(&self) -> impl Iterator<Item = &Series> {
        self.by_key.values().map(|&id| &self.slot(id).series)
    }

    /// Files a series under a key the measure does not hold yet and
    /// returns its id.
    fn push(&mut self, key: Arc<str>, series: Series) -> SeriesId {
        let id = SeriesId::try_from(self.slab.len())
            .expect("a measure's series fit in memory, so their count fits an id");
        for (k, v) in series.dimensions.iter() {
            // Looked up before inserted, as in `Table::file`: the pair
            // almost always exists, and `entry` would clone both strings.
            let ids = match self.postings.get_mut(k.as_str()) {
                Some(values) => match values.get_mut(v.as_str()) {
                    Some(ids) => ids,
                    None => values.entry(v.clone()).or_default(),
                },
                None => self
                    .postings
                    .entry(k.clone())
                    .or_default()
                    .entry(v.clone())
                    .or_default(),
            };
            // A series that names one pair twice is still one posting.
            if ids.last() != Some(&id) {
                ids.push(id);
            }
        }
        self.by_key.insert(Arc::clone(&key), id);
        self.slab.push(Slot { key, series });
        id
    }

    /// Re-files `slots` from scratch: ids are positions, so taking a
    /// series out of the slab invalidates every posting behind it.
    fn rebuild(slots: Vec<Slot>) -> Measure {
        let mut m = Measure::default();
        for slot in slots {
            m.push(slot.key, slot.series);
        }
        m
    }

    /// The shortest posting list among `filters` — every match is on it —
    /// or `None` when there is no filter to index by. A filter no series
    /// carries yields the empty list.
    fn shortest_posting(&self, filters: &[(String, String)]) -> Option<&[SeriesId]> {
        filters
            .iter()
            .map(|(k, v)| {
                self.postings
                    .get(k.as_str())
                    .and_then(|values| values.get(v.as_str()))
                    .map_or(&[][..], Vec::as_slice)
            })
            .min_by_key(|ids| ids.len())
    }
}

/// A named table of time series.
#[derive(Debug)]
pub struct Table {
    options: TableOptions,
    /// Measures in the order they were created: a [`Filed`] handle names
    /// one by position, and a new measure never moves an older one.
    measures: Vec<Measure>,
    /// Measure name → position. Its order is the order scans and the codec
    /// walk measures in.
    by_name: BTreeMap<String, u32>,
    /// Stamped on every handle taken from this table. Replaced whenever a
    /// series changes position — retention re-files a measure or drops
    /// one — and for every clone, so no handle outlives the layout it
    /// describes or reaches into another table.
    generation: u64,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            options: self.options,
            measures: self.measures.clone(),
            by_name: self.by_name.clone(),
            generation: next_generation(),
        }
    }
}

impl Default for Table {
    fn default() -> Self {
        Table::new(TableOptions::default())
    }
}

impl Table {
    pub(crate) fn new(options: TableOptions) -> Self {
        Table {
            options,
            measures: Vec::new(),
            by_name: BTreeMap::new(),
            generation: next_generation(),
        }
    }

    /// The table's options.
    pub fn options(&self) -> TableOptions {
        self.options
    }

    /// Writes one record. Returns `true` if it was stored (change-point
    /// tables skip repeats).
    ///
    /// # Errors
    ///
    /// Returns [`TsError::BadRecord`] for invalid records.
    pub fn write(&mut self, record: &Record) -> Result<bool, TsError> {
        let (book, points) = SeriesBook::from_records(std::slice::from_ref(record));
        Ok(self.write_points(&book, &points)?.stored > 0)
    }

    /// The measure named `name`.
    fn measure(&self, name: &str) -> Option<&Measure> {
        let &at = self.by_name.get(name)?;
        self.measures.get(at as usize)
    }

    /// The measures with their names, in name order.
    fn named_measures(&self) -> impl Iterator<Item = (&str, &Measure)> {
        self.by_name
            .iter()
            .filter_map(|(name, &at)| Some((name.as_str(), self.measures.get(at as usize)?)))
    }

    /// Whether `filed` was taken from this table as it is now.
    pub(crate) fn is_current(&self, filed: &Filed) -> bool {
        filed.generation == self.generation
    }

    /// Where the series of `measure` filed under dimension key `key` is,
    /// if the table holds it.
    pub(crate) fn locate(&self, measure: &str, key: &str) -> Option<Filed> {
        let &at = self.by_name.get(measure)?;
        let id = *self.measures.get(at as usize)?.by_key.get(key)?;
        Some(Filed {
            generation: self.generation,
            measure: at,
            id,
        })
    }

    /// The series booked as `s`: by its handle when current, else by key.
    fn find(&self, book: &SeriesBook, s: SeriesRef) -> Option<(Filed, &Series)> {
        let filed = match book.handle(self, s) {
            Some(f) => f,
            None => {
                let (measure, key, _) = book.filing(s)?;
                self.locate(measure, key)?
            }
        };
        let slot = self
            .measures
            .get(filed.measure as usize)?
            .slab
            .get(filed.id as usize)?;
        Some((filed, &slot.series))
    }

    /// The series booked as `s`, mutably: by its handle when current, else
    /// by key, filed now — under the book's own dimension and key
    /// allocations — when the table does not hold it yet. `None` only for
    /// an id the book never gave.
    fn file(&mut self, book: &SeriesBook, s: SeriesRef) -> Option<&mut Series> {
        let (measure, id) = match book.handle(self, s).map(|f| (f.measure, f.id)) {
            Some(at) => at,
            None => {
                let (name, key, dimensions) = book.filing(s)?;
                let measure = match self.by_name.get(name) {
                    Some(&at) => at,
                    None => {
                        let at = u32::try_from(self.measures.len())
                            .expect("a table's measures fit in memory, so their count fits an id");
                        self.measures.push(Measure::default());
                        self.by_name.insert(name.to_owned(), at);
                        at
                    }
                };
                let m = self.measures.get_mut(measure as usize)?;
                let id = match m.by_key.get(&**key) {
                    Some(&id) => id,
                    None => m.push(Arc::clone(key), Series::new(Arc::clone(dimensions))),
                };
                (measure, id)
            }
        };
        let slot = self
            .measures
            .get_mut(measure as usize)?
            .slab
            .get_mut(id as usize)?;
        Some(&mut slot.series)
    }

    /// The points of a batch that can change this table — what a durable
    /// commit logs and applies (*delta logging*). A dense table keeps
    /// everything. A change-point table drops a point when
    /// [`Series::changepoint_may_store`] says writing it now is a no-op,
    /// unless an earlier kept point of the batch targets the same stored
    /// series: that one may change what "latest" means, so everything
    /// after it on the series is kept. A series the table does not file
    /// yet keeps every point. Applying the kept points in order
    /// ([`Table::apply_points`]) therefore leaves the table exactly as
    /// applying the whole batch would, and so does replaying them after a
    /// crash.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::BadRecord`] if any point of the batch — kept or
    /// not — stands for an invalid record ([`SeriesBook::validate`]).
    pub(crate) fn delta<'p>(
        &self,
        book: &SeriesBook,
        points: impl IntoIterator<Item = &'p Point>,
    ) -> Result<Vec<&'p Point>, TsError> {
        let points = points.into_iter();
        let changepoint = self.options.mode == WriteMode::ChangePoint;
        let mut kept = Vec::with_capacity(points.size_hint().0);
        let mut touched: BTreeSet<(u32, SeriesId)> = BTreeSet::new();
        for p in points {
            book.validate(p)?;
            if changepoint {
                if let Some((filed, series)) = self.find(book, p.series) {
                    let at = (filed.measure, filed.id);
                    if !touched.contains(&at) {
                        if !series.changepoint_may_store(p.time, p.value) {
                            continue;
                        }
                        touched.insert(at);
                    }
                }
            }
            kept.push(p);
        }
        Ok(kept)
    }

    /// Applies points [`Table::delta`] kept, in order, each to the series
    /// its book handle names — no key to build, no map to search — or, for
    /// a series with no current handle, to the series its key files,
    /// created if absent (a series new to the table, perhaps created by an
    /// earlier point of the same batch). The points were validated by
    /// `delta`; one of an id the book never gave is skipped.
    pub(crate) fn apply_points<'p>(
        &mut self,
        book: &SeriesBook,
        points: impl IntoIterator<Item = &'p Point>,
    ) -> Applied {
        let mode = self.options.mode;
        let mut applied = Applied::default();
        for p in points {
            if let Some(series) = self.file(book, p.series) {
                let one = write_point(series, mode, p.time, p.value);
                applied.stored += one.stored;
                applied.points += one.points;
            }
        }
        applied
    }

    /// Validates and applies each point in turn — the in-memory write,
    /// which logs nothing and so skips nothing.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::BadRecord`] at the first invalid point; the
    /// points before it remain written.
    pub(crate) fn write_points(
        &mut self,
        book: &SeriesBook,
        points: &[Point],
    ) -> Result<Applied, TsError> {
        let mut applied = Applied::default();
        for p in points {
            book.validate(p)?;
            let one = self.apply_points(book, std::slice::from_ref(p));
            applied.stored += one.stored;
            applied.points += one.points;
        }
        Ok(applied)
    }

    /// Runs a raw query: all matching points from all matching series,
    /// sorted by (time, series).
    pub fn query(&self, q: &Query) -> Vec<Row> {
        self.query_profiled(q, &mut QueryProfile::default())
    }

    /// [`Table::query`] while accumulating scan costs into `profile`.
    pub fn query_profiled(&self, q: &Query, profile: &mut QueryProfile) -> Vec<Row> {
        self.scan_rows(q, RowKind::Range, usize::MAX, profile)
            .into_rows()
    }

    /// The latest point (within the query's range) of each matching series.
    pub fn latest(&self, q: &Query) -> Vec<Row> {
        self.latest_profiled(q, &mut QueryProfile::default())
    }

    /// [`Table::latest`] while accumulating scan costs into `profile`.
    /// The lookup decodes only the page holding each series' last
    /// in-range point, so it charges one chunk and one row per hit.
    pub fn latest_profiled(&self, q: &Query, profile: &mut QueryProfile) -> Vec<Row> {
        self.scan_rows(q, RowKind::Latest, usize::MAX, profile)
            .into_rows()
    }

    /// The value in effect at `at` (latest point at or before `at`) of each
    /// matching series — how the archive answers "what did the advisor say
    /// on day X".
    pub fn value_at(&self, q: &Query, at: u64) -> Vec<Row> {
        self.value_at_profiled(q, at, &mut QueryProfile::default())
    }

    /// [`Table::value_at`] while accumulating scan costs into `profile`.
    pub fn value_at_profiled(&self, q: &Query, at: u64, profile: &mut QueryProfile) -> Vec<Row> {
        self.scan_rows(q, RowKind::At(at), usize::MAX, profile)
            .into_rows()
    }

    /// The one scan behind every row query: the answer `kind` asks for,
    /// keeping only its first `limit` rows, while accumulating scan costs
    /// into `profile`. The profile describes the whole answer whatever the
    /// limit — `rows_post_filter` is [`RowScan::total`].
    pub(crate) fn scan_rows(
        &self,
        q: &Query,
        kind: RowKind,
        limit: usize,
        profile: &mut QueryProfile,
    ) -> RowScan<'_> {
        profile.observe_query(q);
        let (from, to) = q.time_range();
        let scan = match kind {
            RowKind::Range => self.scan_range(q, limit, profile),
            RowKind::Latest => self.scan_each(q, from, to, limit, profile, |series| {
                let last = series.range_scan(from, to).0.last().copied();
                (last, u64::from(last.is_some()))
            }),
            RowKind::At(at) => {
                profile.from = 0;
                profile.to = at;
                self.scan_each(q, 0, at, limit, profile, |series| series.value_at_scan(at))
            }
        };
        profile.rows_post_filter = scan.total as u64;
        scan
    }

    /// Every in-range point of the candidates, ordered by (time,
    /// dimensions), the first `limit` kept. Sorting the candidates by
    /// dimensions once gives each a rank, and the points then order as
    /// plain integers; a series holds one point per timestamp and a
    /// measure one series per dimension set, so (time, rank) is unique.
    /// Only the kept points are sorted: the first `limit` keys are
    /// selected from the rest first.
    fn scan_range(&self, q: &Query, limit: usize, profile: &mut QueryProfile) -> RowScan<'_> {
        let (from, to) = q.time_range();
        let mut series = self.scan_candidates(q, from, to, profile);
        series.sort_unstable_by(|a, b| a.dimensions.cmp(&b.dimensions));
        let slices: Vec<&[(u64, f64)]> = series
            .iter()
            .map(|s| {
                let (pts, chunks) = s.range_scan(from, to);
                profile.chunks_decompressed += chunks;
                profile.rows_decoded += pts.len() as u64;
                pts
            })
            .collect();
        let total = slices.iter().map(|pts| pts.len()).sum();
        let mut rows = Vec::with_capacity(total);
        for (rank, pts) in slices.iter().enumerate() {
            rows.extend(pts.iter().map(|&(time, value)| (time, rank, value)));
        }
        if series.len() > 1 {
            let key = |&(time, rank, _): &(u64, usize, f64)| (time, rank);
            if total > limit {
                rows.select_nth_unstable_by_key(limit, key);
            }
            rows.truncate(limit);
            rows.sort_unstable_by_key(key);
        } else {
            rows.truncate(limit);
        }
        RowScan {
            series,
            rows,
            total,
        }
    }

    /// At most one row per candidate, in dimension-key order: the point
    /// `find` picks and the chunks it decoded to pick it. Every candidate
    /// is visited, so the answer's total and costs are whole; only the
    /// first `limit` rows are kept.
    fn scan_each(
        &self,
        q: &Query,
        from: u64,
        to: u64,
        limit: usize,
        profile: &mut QueryProfile,
        find: impl Fn(&Series) -> (Option<(u64, f64)>, u64),
    ) -> RowScan<'_> {
        let series = self.scan_candidates(q, from, to, profile);
        let mut rows = Vec::with_capacity(series.len().min(limit));
        let mut total = 0;
        for (at, s) in series.iter().enumerate() {
            let (found, chunks) = find(s);
            profile.chunks_decompressed += chunks;
            if let Some((time, value)) = found {
                profile.rows_decoded += 1;
                total += 1;
                if rows.len() < limit {
                    rows.push((time, at, value));
                }
            }
        }
        RowScan {
            series,
            rows,
            total,
        }
    }

    /// Tumbling-window aggregation pooled across all matching series:
    /// windows start at the query's `from` (or 0) and have length `window`
    /// seconds. Empty windows are omitted.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn query_window(&self, q: &Query, window: u64, agg: Aggregate) -> Vec<WindowRow> {
        self.query_window_profiled(q, window, agg, &mut QueryProfile::default())
    }

    /// [`Table::query_window`] while accumulating scan costs into
    /// `profile`: every in-range point is decoded, and the aggregated
    /// window rows are what survives the filter stage. Each window folds
    /// its points as they are scanned — series in key order, each in time
    /// order, the order [`Aggregate::apply`] would see them in.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn query_window_profiled(
        &self,
        q: &Query,
        window: u64,
        agg: Aggregate,
        profile: &mut QueryProfile,
    ) -> Vec<WindowRow> {
        assert!(window > 0, "window length must be positive");
        let (from, to) = q.time_range();
        profile.observe_query(q);
        let mut windows: BTreeMap<u64, Fold> = BTreeMap::new();
        for series in self.scan_candidates(q, from, to, profile) {
            let (mut pts, chunks) = series.range_scan(from, to);
            profile.chunks_decompressed += chunks;
            profile.rows_decoded += pts.len() as u64;
            // A series' points are in time order, so each window's share
            // of them is one run: one lookup per run, not per point.
            while let Some(&(first, _)) = pts.first() {
                let window_start = from + (first - from) / window * window;
                let len = match window_start.checked_add(window) {
                    Some(end) => pts.partition_point(|&(t, _)| t < end),
                    None => pts.len(),
                };
                let (run, rest) = pts.split_at(len);
                let fold = windows
                    .entry(window_start)
                    .or_insert_with(|| Fold::new(agg));
                for &(time, value) in run {
                    fold.push(time, value);
                }
                pts = rest;
            }
        }
        let rows: Vec<WindowRow> = windows
            .into_iter()
            .filter_map(|(window_start, fold)| {
                fold.finish().map(|value| WindowRow {
                    window_start,
                    value,
                    count: fold.count(),
                })
            })
            .collect();
        profile.rows_post_filter = rows.len() as u64;
        rows
    }

    /// Selects the series a scan must touch, in dimension-key order,
    /// tallying the ones pruned without decompression — by
    /// dimension-filter mismatch or because their time bounds are
    /// disjoint from `[from, to]`. A filtered query tests only the series
    /// on its shortest posting list (`series_examined`); the rest of the
    /// measure counts as pruned without being visited.
    fn scan_candidates<'a>(
        &'a self,
        q: &Query,
        from: u64,
        to: u64,
        profile: &mut QueryProfile,
    ) -> Vec<&'a Series> {
        let Some(measure) = self.measure(q.measure_name()) else {
            return Vec::new();
        };
        let survives = |s: &Series| q.matches(&s.dimensions) && s.overlaps(from, to);
        let (examined, candidates): (usize, Vec<&Series>) =
            match measure.shortest_posting(q.filters()) {
                None => (
                    measure.slab.len(),
                    measure.in_key_order().filter(|s| survives(s)).collect(),
                ),
                Some(ids) => {
                    let mut hits: Vec<&Slot> = ids
                        .iter()
                        .map(|&id| measure.slot(id))
                        .filter(|slot| survives(&slot.series))
                        .collect();
                    hits.sort_unstable_by(|a, b| a.key.cmp(&b.key));
                    (ids.len(), hits.into_iter().map(|s| &s.series).collect())
                }
            };
        profile.series_total += measure.slab.len() as u64;
        profile.series_examined += examined as u64;
        profile.series_scanned += candidates.len() as u64;
        profile.series_pruned = profile.series_total - profile.series_scanned;
        candidates
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.measures.iter().map(|m| m.slab.len()).sum()
    }

    /// Total number of stored points.
    pub fn point_count(&self) -> usize {
        self.measures
            .iter()
            .flat_map(|m| &m.slab)
            .map(|slot| slot.series.len())
            .sum()
    }

    /// Applies the retention policy relative to `now`; returns the number
    /// of points dropped. Series left empty are removed, which re-files
    /// what is left and so starts a new generation.
    pub fn enforce_retention(&mut self, now: u64) -> usize {
        let Some(retention) = self.options.retention else {
            return 0;
        };
        let cutoff = now.saturating_sub(retention);
        let mut dropped = 0;
        let mut refiled = false;
        for m in &mut self.measures {
            let mut emptied = false;
            for slot in &mut m.slab {
                dropped += slot.series.prune_before(cutoff);
                emptied |= slot.series.is_empty();
            }
            if emptied {
                let mut slots = std::mem::take(&mut m.slab);
                slots.retain(|slot| !slot.series.is_empty());
                *m = Measure::rebuild(slots);
                refiled = true;
            }
        }
        if self.measures.iter().any(|m| m.slab.is_empty()) {
            let mut old: Vec<Option<Measure>> = std::mem::take(&mut self.measures)
                .into_iter()
                .map(Some)
                .collect();
            for (name, at) in std::mem::take(&mut self.by_name) {
                let Some(m) = old.get_mut(at as usize).and_then(Option::take) else {
                    continue;
                };
                if !m.slab.is_empty() {
                    let at = u32::try_from(self.measures.len())
                        .expect("fewer measures than before fit an id");
                    self.by_name.insert(name, at);
                    self.measures.push(m);
                }
            }
        }
        if refiled {
            self.generation = next_generation();
        }
        dropped
    }

    /// Iterates over `(measure, dimensions)` of every stored series —
    /// lets recovery re-prime freshness tracking for series that predate
    /// the crash.
    pub fn series_dimension_sets(&self) -> impl Iterator<Item = (&str, &[(String, String)])> {
        self.series_entries()
            .map(|(measure, s)| (measure, &s.dimensions[..]))
    }

    /// Iterates over `(measure, series)` pairs, measures in name order and
    /// each measure's series in key order — the order the persistence
    /// codec writes them in.
    pub(crate) fn series_entries(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.named_measures()
            .flat_map(|(measure, m)| m.in_key_order().map(move |s| (measure, s)))
    }

    /// Files a whole series — how checkpoint load and a shard's admission
    /// into the store build a table. `dimensions` is taken as the shared
    /// allocation so a caller that already holds one passes it on. A
    /// series already filed under the same key is replaced.
    pub(crate) fn insert_series_raw(
        &mut self,
        dimensions: Arc<[(String, String)]>,
        measure: &str,
        points: Vec<(u64, f64)>,
    ) {
        let dim_key = series_key("", &dimensions);
        let mut series = Series::new(dimensions);
        for (t, v) in points {
            series.insert(t, v);
        }
        let at = match self.by_name.get(measure) {
            Some(&at) => at as usize,
            None => {
                self.by_name.insert(
                    measure.to_owned(),
                    u32::try_from(self.measures.len())
                        .expect("a table's measures fit in memory, so their count fits an id"),
                );
                self.measures.push(Measure::default());
                self.measures.len() - 1
            }
        };
        let Some(m) = self.measures.get_mut(at) else {
            return;
        };
        // A replaced series keeps its position — same key, same id — so
        // handles stay current.
        match m.by_key.get(dim_key.as_str()) {
            None => {
                m.push(Arc::from(dim_key), series);
            }
            Some(&id) => {
                let stale = m.slot(id).series.dimensions != series.dimensions;
                *m.series_mut(id) = series;
                // Same key, other dimensions (a value holding the key's
                // own separators): the old pairs' postings are wrong.
                if stale {
                    *m = Measure::rebuild(std::mem::take(&mut m.slab));
                }
            }
        }
    }
}

/// Writes the point `(time, value)` into `series` as a table in `mode`
/// does.
fn write_point(series: &mut Series, mode: WriteMode, time: u64, value: f64) -> Applied {
    let before = series.len();
    let changed = match mode {
        WriteMode::Dense => series.insert(time, value),
        WriteMode::ChangePoint => series.insert_changepoint(time, value),
    };
    Applied {
        stored: usize::from(changed),
        points: series.len() - before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(TableOptions::default());
        for (time, ty, v) in [
            (0u64, "m5.large", 3.0),
            (600, "m5.large", 3.0),
            (1200, "m5.large", 2.0),
            (0, "p3.2xlarge", 1.0),
            (600, "p3.2xlarge", 2.0),
        ] {
            t.write(&Record::new(time, "sps", v).dimension("instance_type", ty))
                .unwrap();
        }
        t
    }

    #[test]
    fn query_filters_by_dimension_and_time() {
        let t = sample_table();
        let q = Query::measure("sps").filter("instance_type", "m5.large");
        assert_eq!(t.query(&q).len(), 3);
        let q = q.between(600, 1200);
        let rows = t.query(&q);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].time, 600);
    }

    #[test]
    fn query_without_filters_spans_series_sorted_by_time() {
        let t = sample_table();
        let rows = t.query(&Query::measure("sps"));
        assert_eq!(rows.len(), 5);
        assert!(rows.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn measure_prefix_does_not_leak() {
        let mut t = sample_table();
        t.write(&Record::new(0, "sps_extra", 9.0)).unwrap();
        assert_eq!(t.query(&Query::measure("sps")).len(), 5);
        assert_eq!(t.query(&Query::measure("sps_extra")).len(), 1);
    }

    #[test]
    fn latest_and_value_at() {
        let t = sample_table();
        let q = Query::measure("sps").filter("instance_type", "m5.large");
        let latest = t.latest(&q);
        assert_eq!(latest.len(), 1);
        assert_eq!(latest[0].time, 1200);
        assert_eq!(latest[0].value, 2.0);
        let at = t.value_at(&q, 700);
        assert_eq!(at[0].time, 600);
        assert_eq!(at[0].value, 3.0);
        assert!(t.value_at(&Query::measure("nope"), 700).is_empty());
    }

    #[test]
    fn windowed_mean() {
        let t = sample_table();
        let rows = t.query_window(&Query::measure("sps"), 600, Aggregate::Mean);
        // Windows: [0,600) -> {3.0, 1.0}, [600,1200) -> {3.0, 2.0},
        // [1200,1800) -> {2.0}.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value, 2.0);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[1].value, 2.5);
        assert_eq!(rows[2].value, 2.0);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        sample_table().query_window(&Query::measure("sps"), 0, Aggregate::Mean);
    }

    #[test]
    fn changepoint_table_stores_only_changes() {
        let mut t = Table::new(TableOptions {
            mode: WriteMode::ChangePoint,
            retention: None,
        });
        assert!(t.write(&Record::new(0, "price", 0.10)).unwrap());
        assert!(!t.write(&Record::new(600, "price", 0.10)).unwrap());
        assert!(t.write(&Record::new(1200, "price", 0.11)).unwrap());
        assert_eq!(t.point_count(), 2);
    }

    #[test]
    fn retention_drops_old_points_and_empty_series() {
        let mut t = Table::new(TableOptions {
            mode: WriteMode::Dense,
            retention: Some(1000),
        });
        t.write(&Record::new(0, "m", 1.0).dimension("k", "old"))
            .unwrap();
        t.write(&Record::new(5000, "m", 2.0).dimension("k", "new"))
            .unwrap();
        assert_eq!(t.series_count(), 2);
        let dropped = t.enforce_retention(5500);
        assert_eq!(dropped, 1);
        assert_eq!(t.series_count(), 1);
        // No retention configured -> no-op.
        let mut t2 = Table::new(TableOptions::default());
        t2.write(&Record::new(0, "m", 1.0)).unwrap();
        assert_eq!(t2.enforce_retention(u64::MAX), 0);
    }

    #[test]
    fn counts() {
        let t = sample_table();
        assert_eq!(t.series_count(), 2);
        assert_eq!(t.point_count(), 5);
    }

    #[test]
    fn profiled_query_tallies_prune_scan_decode_and_filter() {
        let t = sample_table();
        let q = Query::measure("sps").filter("instance_type", "m5.large");
        let mut profile = QueryProfile::default();
        let rows = t.query_profiled(&q, &mut profile);
        assert_eq!(rows, t.query(&q), "profiling does not change results");
        assert_eq!(profile.measure, "sps");
        assert_eq!(profile.series_total, 2);
        assert_eq!(profile.series_examined, 1, "only m5.large's posting");
        assert_eq!(profile.series_pruned, 1, "p3.2xlarge filtered out");
        assert_eq!(profile.series_scanned, 1);
        assert_eq!(profile.chunks_decompressed, 1, "3 points fit one page");
        assert_eq!(profile.rows_decoded, 3);
        assert_eq!(profile.rows_post_filter, 3);

        // A time range disjoint from every series prunes without scanning.
        let mut disjoint = QueryProfile::default();
        let none = t.query_profiled(
            &Query::measure("sps").between(10_000, 20_000),
            &mut disjoint,
        );
        assert!(none.is_empty());
        assert_eq!(disjoint.series_examined, 2, "no filter: both looked at");
        assert_eq!(disjoint.series_pruned, 2, "bounds check pruned both");
        assert_eq!(disjoint.chunks_decompressed, 0);
    }

    #[test]
    fn a_point_query_examines_one_posting_list_however_large_the_table() {
        fn fill(t: &mut Table, prefix: &str) {
            // 5 000 series: 100 types × 50 AZs, five AZs to a region.
            for ty in 0..100 {
                for az in 0..50 {
                    let r = Record::new(0, "sps", 1.0)
                        .dimension("instance_type", format!("{prefix}t{ty}"))
                        .dimension("az", format!("{prefix}az{az}"))
                        .dimension("region", format!("{prefix}r{}", az / 5));
                    t.write(&r).unwrap();
                }
            }
        }
        let mut t = Table::new(TableOptions::default());
        fill(&mut t, "");
        let q = Query::measure("sps")
            .filter("instance_type", "t7")
            .filter("region", "r3")
            .filter("az", "az17");
        let mut small = QueryProfile::default();
        let rows = t.query_profiled(&q, &mut small);
        assert_eq!(rows.len(), 1);
        assert_eq!(small.series_total, 5_000);
        assert_eq!(small.series_scanned, 1);
        assert_eq!(small.series_pruned, 4_999);
        // instance_type=t7 is on 50 series, az=az17 on 100, region=r3 on 500.
        assert_eq!(small.series_examined, 50, "the shortest posting list");

        fill(&mut t, "other-");
        let mut large = QueryProfile::default();
        assert_eq!(t.query_profiled(&q, &mut large), rows);
        assert_eq!(large.series_total, 10_000);
        assert_eq!(large.series_pruned, 9_999);
        assert_eq!(large.series_examined, 50, "unrelated series cost nothing");

        // No filter to go by: the whole measure is walked.
        let mut all = QueryProfile::default();
        t.latest_profiled(&Query::measure("sps"), &mut all);
        assert_eq!(all.series_examined, 10_000);
        assert_eq!(all.series_scanned, 10_000);
    }

    #[test]
    fn a_pair_named_twice_is_one_posting() {
        let mut t = Table::new(TableOptions::default());
        let mut r = Record::new(0, "m", 1.0);
        r.dimensions = vec![("k".into(), "v".into()), ("k".into(), "v".into())];
        t.write(&r).unwrap();
        let mut profile = QueryProfile::default();
        let rows = t.latest_profiled(&Query::measure("m").filter("k", "v"), &mut profile);
        assert_eq!(rows.len(), 1, "the series is a candidate once");
        assert_eq!(profile.series_examined, 1);
    }

    #[test]
    fn profiled_latest_and_value_at_charge_single_chunks() {
        let t = sample_table();
        let q = Query::measure("sps");
        let mut latest = QueryProfile::default();
        let rows = t.latest_profiled(&q, &mut latest);
        assert_eq!(rows.len(), 2);
        assert_eq!(latest.series_scanned, 2);
        assert_eq!(latest.chunks_decompressed, 2, "one page per hit");
        assert_eq!(latest.rows_decoded, 2);
        assert_eq!(latest.rows_post_filter, 2);

        let mut at = QueryProfile::default();
        let rows = t.value_at_profiled(&q, 700, &mut at);
        assert_eq!(rows, t.value_at(&q, 700));
        assert_eq!(at.to, 700, "value_at range is [0, at]");
        assert_eq!(at.rows_post_filter, 2);
    }

    #[test]
    fn profiled_window_counts_decoded_points_and_window_rows() {
        let t = sample_table();
        let mut profile = QueryProfile::default();
        let rows =
            t.query_window_profiled(&Query::measure("sps"), 600, Aggregate::Mean, &mut profile);
        assert_eq!(
            rows,
            t.query_window(&Query::measure("sps"), 600, Aggregate::Mean)
        );
        assert_eq!(profile.rows_decoded, 5, "every in-range point decoded");
        assert_eq!(profile.rows_post_filter, 3, "three non-empty windows");
    }
}
