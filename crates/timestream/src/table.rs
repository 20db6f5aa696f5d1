//! Tables: named collections of series with a write mode and retention.

use crate::book::{Point, SeriesBook, SeriesRef};
use crate::error::TsError;
use crate::index::{Dimensions, Index, SeriesId};
use crate::merge::merge;
use crate::profile::QueryProfile;
use crate::query::{matches, Aggregate, Fold, Query, Row, RowKind, RowScan, WindowRow};
use crate::record::{pairs, series_key, Record};
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

/// Series per page of a measure's slab: a write copies the page it
/// lands in — when a snapshot shares it — not the measure.
pub(crate) const PAGE_SERIES: usize = 64;

/// [`PAGE_SERIES`] slots of a measure's slab, filled in id order: the
/// last page holds empty slots past the measure's last series. Fixed in
/// size, so a page is one allocation a lookup reaches in one step, and a
/// copy ([`Arc::make_mut`]) clones each series it holds.
type Page = Arc<[Series]>;

/// A page of empty slots.
fn empty_page() -> Page {
    (0..PAGE_SERIES).map(|_| Series::default()).collect()
}

/// The series of one measure and the index a filtered scan walks, in
/// copy-on-write pieces: cloning a measure copies pointers. The index is
/// copied only when a series is created or retention re-files the
/// measure, and a write copies only the page it lands in.
#[derive(Debug, Clone, Default)]
struct Measure {
    index: Arc<Index>,
    /// The series by id: id `i` is slot `i % PAGE_SERIES` of page
    /// `i / PAGE_SERIES`.
    pages: Vec<Page>,
}

/// The order a scan yields its candidates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Dimension-key order: `/latest`, `/at` and `/window`.
    Key,
    /// Spelled order, the dimensions compared pair by pair as
    /// `(key, value)` strings: `/query`, whose rows order by (time,
    /// dimensions).
    Spelled,
}

/// A series as a scan reads it: its id in its measure and its points.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'a> {
    pub(crate) id: SeriesId,
    pub(crate) series: &'a Series,
}

impl Measure {
    /// Number of series.
    fn len(&self) -> usize {
        self.index.len()
    }

    fn series(&self, id: SeriesId) -> Option<&Series> {
        let id = id as usize;
        self.pages.get(id / PAGE_SERIES)?.get(id % PAGE_SERIES)
    }

    /// The series `id`, its page copied first if a snapshot shares it.
    fn series_mut(&mut self, id: SeriesId) -> Option<&mut Series> {
        let id = id as usize;
        let page = Arc::make_mut(self.pages.get_mut(id / PAGE_SERIES)?);
        page.get_mut(id % PAGE_SERIES)
    }

    fn entry(&self, id: SeriesId) -> Option<Entry<'_>> {
        Some(Entry {
            id,
            series: self.series(id)?,
        })
    }

    /// The series in dimension-key order.
    fn in_key_order(&self) -> impl Iterator<Item = Entry<'_>> {
        self.index.in_key_order().filter_map(|id| self.entry(id))
    }

    /// Files a series under a key the measure does not hold yet, with
    /// these dimensions, and returns its id.
    fn push<'d>(
        &mut self,
        key: Arc<str>,
        dimensions: impl IntoIterator<Item = (&'d str, &'d str)>,
        series: Series,
    ) -> SeriesId {
        let id = Arc::make_mut(&mut self.index).file(key, dimensions);
        let slot = id as usize % PAGE_SERIES;
        if slot == 0 {
            self.pages.push(empty_page());
        }
        if let Some(page) = self.pages.last_mut() {
            Arc::make_mut(page)[slot] = series;
        }
        id
    }

    /// Files the measure's series again from scratch, in id order: ids
    /// are positions, so taking a series out of the slab invalidates
    /// every posting behind it, and the rebuilt dictionary drops the
    /// pairs no series carries any more. A series `keep` refuses is left
    /// out; series `other.0`, if given, is filed under the dimensions
    /// `other.1` instead of its own.
    fn refile(
        self,
        keep: impl Fn(&Series) -> bool,
        other: Option<(SeriesId, Dimensions<'_>)>,
    ) -> Measure {
        let (index, series) = self.into_parts();
        let mut m = Measure::default();
        for (id, series) in (0..).zip(series) {
            let Some(key) = index.key(id).filter(|_| keep(&series)) else {
                continue;
            };
            let dimensions = match other {
                Some((at, dimensions)) if at == id => dimensions,
                _ => index.dimensions(id),
            };
            m.push(Arc::clone(key), dimensions.iter(), series);
        }
        m
    }

    /// Takes the measure apart: its index and its series in id order,
    /// copying only the pages a snapshot still shares.
    fn into_parts(self) -> (Arc<Index>, Vec<Series>) {
        let mut series = Vec::with_capacity(self.pages.len() * PAGE_SERIES);
        for mut page in self.pages {
            series.extend(Arc::make_mut(&mut page).iter_mut().map(std::mem::take));
        }
        series.truncate(self.index.len());
        (self.index, series)
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
    /// Shares every measure's index and pages — a pointer per page,
    /// nothing per series — and starts a new generation, so
    /// no handle taken from one table is current for the other. The
    /// table cloned from keeps its generation and its handles.
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
        let id = self.measures.get(at as usize)?.index.id(key)?;
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
        let series = self
            .measures
            .get(filed.measure as usize)?
            .series(filed.id)?;
        Some((filed, series))
    }

    /// The series booked as `s`, its page copied first if a snapshot
    /// shares it: by its handle when current, else by key, filed now —
    /// under the book's key allocation and its pairs' ids — when the
    /// table does not hold it yet. `None` only for an id the book never
    /// gave.
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
                let id = match m.index.id(key) {
                    Some(id) => id,
                    None => m.push(Arc::clone(key), pairs(dimensions), Series::default()),
                };
                (measure, id)
            }
        };
        self.measures.get_mut(measure as usize)?.series_mut(id)
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
        let invalid = points
            .iter()
            .enumerate()
            .find_map(|(i, p)| Some((i, book.validate(p).err()?)));
        let valid = invalid.as_ref().map_or(points.len(), |(i, _)| *i);
        let applied = self.apply_points(book, &points[..valid]);
        match invalid {
            Some((_, e)) => Err(e),
            None => Ok(applied),
        }
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
                let last = series.latest_in(from, to);
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
    /// dimensions), the first `limit` kept. The candidates come in
    /// spelled order, so a candidate's position is its rank and the rows
    /// order as integers; a series holds one point per timestamp and a
    /// measure one series per dimension set, so (time, rank) is unique.
    /// Each candidate's points are already in time order: they are merged
    /// ([`merge`]), and the merge stops at `limit`. Every candidate is
    /// still bounded, so the answer's total and costs are whole.
    fn scan_range(&self, q: &Query, limit: usize, profile: &mut QueryProfile) -> RowScan<'_> {
        let (from, to) = q.time_range();
        let (index, series) = self.scan_candidates(q, from, to, Order::Spelled, profile);
        let mut total = 0;
        let rows = merge(
            series.iter().map(|e| {
                let (pts, chunks) = e.series.range_scan(from, to);
                profile.chunks_decompressed += chunks;
                profile.rows_decoded += pts.len() as u64;
                total += pts.len();
                pts
            }),
            limit,
        );
        RowScan {
            index,
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
        let (index, series) = self.scan_candidates(q, from, to, Order::Key, profile);
        let mut rows = Vec::with_capacity(series.len().min(limit));
        let mut total = 0;
        for (at, e) in series.iter().enumerate() {
            let (found, chunks) = find(e.series);
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
            index,
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
        for e in self.scan_candidates(q, from, to, Order::Key, profile).1 {
            let (mut pts, chunks) = e.series.range_scan(from, to);
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

    /// Selects the series a scan must touch, in `order`, tallying the
    /// ones pruned without decompression — by dimension-filter mismatch
    /// or because their time bounds are disjoint from `[from, to]` — and
    /// returns them with the index of their measure, if it exists. The
    /// filters are resolved to pair ids once; a pair the measure lacks
    /// matches nothing. A filtered query tests only the series on its
    /// shortest posting list (`series_examined`); the rest of the measure
    /// counts as pruned without being visited. Candidates are ordered by
    /// their ranks ([`Index::ranks`]), integers; a query without filters
    /// walks the key map, already in key order.
    fn scan_candidates<'a>(
        &'a self,
        q: &Query,
        from: u64,
        to: u64,
        order: Order,
        profile: &mut QueryProfile,
    ) -> (Option<&'a Arc<Index>>, Vec<Entry<'a>>) {
        let Some(measure) = self.measure(q.measure_name()) else {
            return (None, Vec::new());
        };
        let index = &measure.index;
        let overlaps = |e: &Entry<'_>| e.series.overlaps(from, to);
        // Room for every series that may be a candidate: one allocation.
        let mut candidates = Vec::new();
        let examined = if q.filters().is_empty() {
            candidates.reserve_exact(measure.len());
            candidates.extend(measure.in_key_order().filter(overlaps));
            measure.len()
        } else if let Some(filters) = q.resolve(index.pairs()) {
            let filters = filters.ids();
            let ids = filters
                .iter()
                .map(|&pair| index.posting(pair))
                .min_by_key(|ids| ids.len())
                .unwrap_or_default();
            candidates.reserve_exact(ids.len());
            candidates.extend(
                ids.iter()
                    .filter(|&&id| matches(filters, index.dimensions(id).ids()))
                    .filter_map(|&id| measure.entry(id))
                    .filter(overlaps),
            );
            ids.len()
        } else {
            0
        };
        let in_order = q.filters().is_empty() && order == Order::Key;
        if candidates.len() > 1 && !in_order {
            let ranks = index.ranks();
            let ranks = match order {
                Order::Key => &ranks.key,
                Order::Spelled => &ranks.spelled,
            };
            candidates.sort_unstable_by_key(|e| ranks.get(e.id as usize).copied());
        }
        profile.series_total += measure.len() as u64;
        profile.series_examined += examined as u64;
        profile.series_scanned += candidates.len() as u64;
        profile.series_pruned = profile.series_total - profile.series_scanned;
        (Some(index), candidates)
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.measures.iter().map(Measure::len).sum()
    }

    /// Total number of stored points.
    pub fn point_count(&self) -> usize {
        self.measures
            .iter()
            .flat_map(|m| &m.pages)
            .flat_map(|page| page.iter())
            .map(Series::len)
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
            let len = m.len();
            for (p, page) in m.pages.iter_mut().enumerate() {
                let used = len.saturating_sub(p * PAGE_SERIES).min(PAGE_SERIES);
                // A page with nothing to drop stays shared.
                let stale = |s: &Series| s.points().first().is_some_and(|&(t, _)| t < cutoff);
                if !page.iter().any(stale) {
                    continue;
                }
                for series in Arc::make_mut(page).iter_mut().take(used) {
                    dropped += series.prune_before(cutoff);
                    emptied |= series.is_empty();
                }
            }
            if emptied {
                *m = std::mem::take(m).refile(|s| !s.is_empty(), None);
                refiled = true;
            }
        }
        if self.measures.iter().any(|m| m.len() == 0) {
            let mut old: Vec<Option<Measure>> = std::mem::take(&mut self.measures)
                .into_iter()
                .map(Some)
                .collect();
            for (name, at) in std::mem::take(&mut self.by_name) {
                let Some(m) = old.get_mut(at as usize).and_then(Option::take) else {
                    continue;
                };
                if m.len() > 0 {
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
    pub fn series_dimension_sets(&self) -> impl Iterator<Item = (&str, Dimensions<'_>)> {
        self.series_entries()
            .map(|(measure, dimensions, _)| (measure, dimensions))
    }

    /// Iterates over `(measure, dimensions, series)` of every stored
    /// series, measures in name order and each measure's series in key
    /// order — the order the persistence codec writes them in.
    pub(crate) fn series_entries(&self) -> impl Iterator<Item = (&str, Dimensions<'_>, &Series)> {
        self.named_measures().flat_map(|(measure, m)| {
            m.in_key_order()
                .map(move |e| (measure, m.index.dimensions(e.id), e.series))
        })
    }

    /// Files a whole series — how checkpoint load and a shard's admission
    /// into the store build a table, interning its pairs into the
    /// measure's dictionary. A series already filed under the same key is
    /// replaced.
    pub(crate) fn insert_series_raw<'d, D>(
        &mut self,
        dimensions: D,
        measure: &str,
        points: Vec<(u64, f64)>,
    ) where
        D: IntoIterator<Item = (&'d str, &'d str)>,
        D::IntoIter: Clone,
    {
        let dimensions = dimensions.into_iter();
        let key: Arc<str> = Arc::from(series_key("", dimensions.clone()));
        let mut series = Series::default();
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
        let Some(id) = m.index.id(&key) else {
            m.push(key, dimensions, series);
            return;
        };
        if let Some(slot) = m.series_mut(id) {
            *slot = series;
        }
        // Same key, other dimensions (a value holding the key's own
        // separators): the old pairs' postings are wrong.
        let old = m.index.dimensions(id);
        let same = old.len() == dimensions.clone().count()
            && old.iter().zip(dimensions.clone()).all(|(a, b)| a == b);
        if !same {
            let mut other = Index::default();
            let at = other.file(key, dimensions);
            *m = std::mem::take(m).refile(|_| true, Some((id, other.dimensions(at))));
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

    /// One dense round: a point at `time` for each series `ids` names,
    /// series `i` carrying `az=az{i}`.
    fn round(t: &mut Table, time: u64, ids: std::ops::Range<usize>) {
        let records: Vec<Record> = ids
            .map(|i| Record::new(time, "sps", i as f64).dimension("az", format!("az{i:03}")))
            .collect();
        let (book, points) = SeriesBook::from_records(&records);
        t.write_points(&book, &points).unwrap();
    }

    #[test]
    fn a_bad_point_fails_as_its_record_and_the_points_before_it_stay_written() {
        let mut book = SeriesBook::new();
        let good = book.define("sps", vec![("az".to_owned(), "az0".to_owned())]);
        let no_measure = book.define("", vec![("az".to_owned(), "az1".to_owned())]);
        let no_key = book.define("sps", vec![(String::new(), "az2".to_owned())]);
        let at = |series, time, value| Point {
            series,
            time,
            value,
        };
        for (bad, want) in [
            (at(no_measure, 1200, 1.0), "empty measure name"),
            (at(no_measure, 1200, f64::NAN), "empty measure name"),
            (at(no_key, 1200, 1.0), "empty dimension key"),
            (at(no_key, 1200, f64::NAN), "non-finite value"),
            (at(good, 1200, f64::INFINITY), "non-finite value"),
        ] {
            let mut t = Table::new(TableOptions::default());
            let points = [
                at(good, 0, 1.0),
                at(good, 600, 2.0),
                bad,
                at(good, 1800, 3.0),
            ];
            let err = t.write_points(&book, &points).unwrap_err();
            assert!(
                matches!(err, TsError::BadRecord { reason } if reason == want),
                "{bad:?}: {err}"
            );
            let as_record = book.record(&bad).validate().unwrap_err();
            assert_eq!(err.to_string(), as_record.to_string(), "{bad:?}");
            assert_eq!(t.point_count(), 2, "{bad:?}: the points before it");
        }
    }

    #[test]
    fn a_clone_shares_the_index_and_every_untouched_page() {
        let n = 3 * PAGE_SERIES - 20;
        let mut t = Table::new(TableOptions::default());
        for r in 0..3 {
            round(&mut t, r * 600, 0..n);
        }
        let generation = t.generation;
        let snapshot = t.clone();
        assert_ne!(snapshot.generation, generation, "a clone is a new layout");

        // One more round, into the series of the middle page only.
        let touched = PAGE_SERIES..2 * PAGE_SERIES;
        round(&mut t, 1_000_000, touched.clone());
        assert_eq!(
            t.generation, generation,
            "writing keeps the handles current"
        );

        let (live, old) = (&t.measures[0], &snapshot.measures[0]);
        assert!(
            Arc::ptr_eq(&live.index, &old.index),
            "no series was created"
        );
        for (p, (a, b)) in live.pages.iter().zip(&old.pages).enumerate() {
            assert_eq!(Arc::ptr_eq(a, b), p != 1, "page {p}");
        }
        assert_eq!(t.point_count(), snapshot.point_count() + touched.len());
        let q = Query::measure("sps").between(1_000_000, u64::MAX);
        assert!(snapshot.query(&q).is_empty(), "the snapshot is isolated");
        assert_eq!(t.query(&q).len(), touched.len());

        // A new series copies the index, once; the snapshot keeps its own.
        round(&mut t, 1_000_600, n..n + 1);
        assert!(!Arc::ptr_eq(
            &t.measures[0].index,
            &snapshot.measures[0].index
        ));
        assert_eq!(snapshot.series_count(), n);
        assert_eq!(t.series_count(), n + 1);
    }

    /// A row spelled out: its time and its dimensions as strings.
    type Spelled = (u64, Vec<(String, String)>);

    /// Rows spelled out, in answer order.
    fn spelled(rows: &[Row]) -> Vec<Spelled> {
        rows.iter()
            .map(|r| (r.time, r.dimensions().to_vec()))
            .collect()
    }

    /// A table whose series order differently by key and by pairs: `abc`
    /// is a prefix of `abc-d`, and `'-'` sorts before the key's `'|'`.
    fn prefix_table() -> Table {
        let mut t = Table::new(TableOptions::default());
        for (time, v) in [
            (0u64, "abc"),
            (0, "abc-d"),
            (600, "abc-d"),
            (600, "abc"),
            (600, "ab"),
        ] {
            let r = Record::new(time, "sps", 1.0)
                .dimension("k", v)
                .dimension("z", "1");
            t.write(&r).unwrap();
        }
        t
    }

    /// The answers by their definitions: `/latest` in key order, `/query`
    /// in (time, spelled pairs) order.
    fn by_strings(t: &Table, q: &Query) -> (Vec<Spelled>, Vec<Spelled>) {
        let mut latest: Vec<(String, Spelled)> = t
            .series_entries()
            .filter(|(m, _, _)| *m == q.measure_name())
            .filter_map(|(_, dims, s)| {
                let key = series_key("", dims.iter());
                Some((key, (s.points().last()?.0, dims.to_vec())))
            })
            .collect();
        latest.sort_by(|a, b| a.0.cmp(&b.0));
        let mut query: Vec<Spelled> = t
            .series_entries()
            .filter(|(m, _, _)| *m == q.measure_name())
            .flat_map(|(_, dims, s)| {
                s.points()
                    .iter()
                    .map(move |&(time, _)| (time, dims.to_vec()))
            })
            .collect();
        query.sort();
        (latest.into_iter().map(|(_, row)| row).collect(), query)
    }

    #[test]
    fn latest_orders_by_key_and_query_by_spelled_pairs_where_they_differ() {
        let mut t = prefix_table();
        let q = Query::measure("sps");
        let (latest, query) = by_strings(&t, &q);
        let names = |rows: &[Spelled]| -> Vec<String> {
            rows.iter()
                .map(|(time, d)| format!("{time}:{}", d[0].1))
                .collect()
        };
        assert_eq!(names(&latest), ["600:abc-d", "600:abc", "600:ab"]);
        assert_eq!(
            names(&query),
            ["0:abc", "0:abc-d", "600:ab", "600:abc", "600:abc-d"]
        );
        assert_eq!(spelled(&t.latest(&q)), latest);
        assert_eq!(spelled(&t.query(&q)), query);
        let filtered = Query::measure("sps").filter("z", "1");
        assert_eq!(spelled(&t.latest(&filtered)), latest);
        assert_eq!(spelled(&t.query(&filtered)), query);
        for limit in 0..=query.len() + 1 {
            let mut profile = QueryProfile::default();
            let scan = t.scan_rows(&filtered, RowKind::Range, limit, &mut profile);
            assert_eq!(scan.total(), query.len());
            assert_eq!(spelled(&scan.into_rows()), query[..limit.min(query.len())]);
        }

        // A series filed after the ranks were built is ranked; a snapshot
        // taken before keeps its answer.
        let snapshot = t.clone();
        let r = Record::new(0, "sps", 1.0)
            .dimension("k", "aa")
            .dimension("z", "1");
        t.write(&r).unwrap();
        let (latest_after, query_after) = by_strings(&t, &q);
        assert_eq!(names(&latest_after)[0], "0:aa");
        assert_eq!(names(&query_after)[0], "0:aa");
        for q in [&q, &filtered] {
            assert_eq!(spelled(&t.latest(q)), latest_after);
            assert_eq!(spelled(&t.query(q)), query_after);
            assert_eq!(spelled(&snapshot.latest(q)), latest);
            assert_eq!(spelled(&snapshot.query(q)), query);
        }
    }

    #[test]
    fn racing_first_scans_of_one_clone_build_the_ranks_once() {
        let mut t = Table::new(TableOptions::default());
        for r in 0..3 {
            round(&mut t, r * 600, 0..3 * PAGE_SERIES);
        }
        let shared = t.clone();
        let q = Query::measure("sps").between(600, u64::MAX);
        let start = std::sync::Barrier::new(4);
        let answers: Vec<Vec<Row>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        shared.query(&q)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            spelled(&answers[0]),
            by_strings(&t, &q).1[3 * PAGE_SERIES..]
        );
        let index = &shared.measures[0].index;
        assert!(Arc::ptr_eq(index, &t.measures[0].index), "one index");
        assert_eq!(t.query(&q), answers[0]);
        assert_eq!(index.builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retention_that_drops_nothing_copies_nothing() {
        let mut t = Table::new(TableOptions {
            mode: WriteMode::Dense,
            retention: Some(10_000),
        });
        round(&mut t, 5_000, 0..PAGE_SERIES + 1);
        let snapshot = t.clone();
        assert_eq!(t.enforce_retention(12_000), 0);
        let (live, old) = (&t.measures[0], &snapshot.measures[0]);
        assert!(live
            .pages
            .iter()
            .zip(&old.pages)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        assert!(Arc::ptr_eq(&live.index, &old.index));

        // Dropping every point of one series re-files the measure; the
        // snapshot still answers from its own.
        round(&mut t, 20_000, 1..PAGE_SERIES + 1);
        assert_eq!(t.enforce_retention(25_000), PAGE_SERIES + 1);
        assert_eq!(t.series_count(), PAGE_SERIES);
        assert_eq!(snapshot.series_count(), PAGE_SERIES + 1);
        assert_eq!(snapshot.point_count(), PAGE_SERIES + 1);
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
