//! The database: a named collection of tables with save/load.

use crate::book::{Point, SeriesBook};
use crate::codec;
use crate::error::TsError;
use crate::profile::QueryProfile;
use crate::query::{Aggregate, Query, Row, RowKind, RowScan, WindowRow};
use crate::record::Record;
use crate::table::{Applied, Table, TableOptions};
use spotlake_obs::{names, QueryCtx, Registry};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::path::Path;

/// Deterministic write-throttling state: a seeded rate plus a running
/// write-call counter. Every [`Database::write`] call hashes
/// `(seed, table, call#)` against the rate, so a given seed reproduces
/// the identical throttle sequence — and a retried write (a new call)
/// rolls a fresh decision.
#[derive(Debug, Clone, Copy, Default)]
struct WriteFaults {
    rate: f64,
    seed: u64,
    calls: u64,
}

impl WriteFaults {
    /// FNV-1a over the decision key, mapped to `[0, 1)` — the same scheme
    /// the simulator uses for pool parameters, inlined here to keep this
    /// crate dependency-free.
    fn roll(&mut self, table: &str) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        let call = self.calls;
        self.calls += 1;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in [
            b"write-throttle".as_slice(),
            table.as_bytes(),
            &call.to_le_bytes(),
            &self.seed.to_le_bytes(),
        ] {
            for &b in chunk {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Separator so ("ab", "c") and ("a", "bc") differ.
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.rate
    }
}

/// An embedded time-series database.
///
/// See the [crate docs](crate) for an overview and example. A clone is a
/// snapshot that shares the stored series with the original: each side
/// copies a page of series only when it writes into one both still hold
/// (DESIGN.md, "Copy-on-write epochs").
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    write_faults: WriteFaults,
    /// In-process metrics (`spotlake_store_*` families). Not persisted by
    /// [`Database::save`]; a loaded database starts with a fresh registry.
    metrics: Registry,
    /// Cumulative `(submitted, stored)` per table, feeding the
    /// compression-ratio gauge without reading values back out of the
    /// registry.
    write_tallies: BTreeMap<String, (u64, u64)>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables deterministic write throttling: each [`Database::write`]
    /// call fails with [`TsError::Throttled`] with probability `rate`,
    /// decided by a hash of `(seed, table, call#)`. A throttled call
    /// stores nothing, so retrying the same batch is safe. Pass a zero
    /// rate to disable. Throttle state is not persisted by
    /// [`Database::save`].
    pub fn set_write_faults(&mut self, rate: f64, seed: u64) {
        self.write_faults = WriteFaults {
            rate,
            seed,
            calls: 0,
        };
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::TableExists`] if the name is taken.
    pub fn create_table(&mut self, name: &str, options: TableOptions) -> Result<(), TsError> {
        if self.tables.contains_key(name) {
            return Err(TsError::TableExists(name.to_owned()));
        }
        self.tables.insert(name.to_owned(), Table::new(options));
        Ok(())
    }

    /// The table named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if absent.
    pub fn table(&self, name: &str) -> Result<&Table, TsError> {
        self.tables
            .get(name)
            .ok_or_else(|| TsError::NoSuchTable(name.to_owned()))
    }

    /// Mutable access to the table named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if absent.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, TsError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| TsError::NoSuchTable(name.to_owned()))
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Writes a batch of records to a table. Returns how many were stored
    /// (change-point tables skip repeats).
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] or [`TsError::BadRecord`]; on a bad
    /// record, records earlier in the batch remain written. With write
    /// faults enabled (see [`Database::set_write_faults`]) the call may
    /// fail with [`TsError::Throttled`] *before* storing anything, so a
    /// throttled batch can be retried without duplication.
    pub fn write(&mut self, table: &str, records: &[Record]) -> Result<usize, TsError> {
        let (mut book, points) = SeriesBook::from_records(records);
        self.write_points(table, &mut book, &points)
    }

    /// Writes a batch of points of `book`'s series to a table, by series
    /// id: what [`Database::write`] does with the records they stand for,
    /// in the same order, with the same errors, throttling and metrics.
    /// A series is filed by the first of its points applied; afterwards
    /// `book` reaches it by handle, with no key built or looked up.
    ///
    /// # Errors
    ///
    /// As [`Database::write`].
    pub fn write_points(
        &mut self,
        table: &str,
        book: &mut SeriesBook,
        points: &[Point],
    ) -> Result<usize, TsError> {
        if self.write_faults.roll(table) {
            self.metrics
                .counter_add(names::STORE_WRITE_THROTTLED_TOTAL, &[("table", table)], 1);
            return Err(TsError::Throttled);
        }
        let tbl = self.table_mut(table)?;
        let written = tbl.write_points(book, points);
        book.resolve(tbl, points);
        let stored = written?.stored;
        self.record_write_metrics(table, points.len() as u64, stored as u64);
        Ok(stored)
    }

    /// Writes a batch that is already durable — appended to a write-ahead
    /// log or replayed from one. Identical to [`Database::write`] except
    /// that the deterministic write-throttle never fires: a committed
    /// batch must land in memory unconditionally, or the in-memory state
    /// would diverge from what WAL replay reconstructs after a crash.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] or [`TsError::BadRecord`].
    pub fn apply_committed<R: Borrow<Record>>(
        &mut self,
        table: &str,
        records: &[R],
    ) -> Result<usize, TsError> {
        let tbl = self.table_mut(table)?;
        let (book, points) = SeriesBook::from_records(records);
        let stored = tbl.write_points(&book, &points)?.stored;
        self.record_write_metrics(table, records.len() as u64, stored as u64);
        Ok(stored)
    }

    /// The points of a batch a durable commit must log: those that can
    /// change `table` (see [`Table::delta`]). A table this database does
    /// not hold yet is empty, so nothing is left out.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::BadRecord`] if any point of the batch stands for
    /// an invalid record.
    pub(crate) fn delta<'p>(
        &self,
        table: &str,
        options: TableOptions,
        book: &SeriesBook,
        points: impl IntoIterator<Item = &'p Point>,
    ) -> Result<Vec<&'p Point>, TsError> {
        match self.tables.get(table) {
            Some(t) => t.delta(book, points),
            None => Table::new(options).delta(book, points),
        }
    }

    /// Applies the `logged` points of a batch that *offered* `offered`
    /// — what [`Database::delta`] kept, against this database as it was
    /// then, and a log has made durable — creating the table if the
    /// batch is its first ([`Table::apply_points`]). The rest were left
    /// out because writing them changes nothing. The write families count
    /// the offered batch — an elided record is submitted and deduped,
    /// exactly as if the table had skipped it — so `/metrics` does not
    /// depend on how little the log had to carry. The apply bypasses the
    /// write throttle: the batch is committed.
    pub(crate) fn apply_logged(
        &mut self,
        table: &str,
        options: TableOptions,
        book: &SeriesBook,
        logged: &[&Point],
        offered: usize,
    ) -> Applied {
        let applied = if logged.is_empty() {
            Applied::default()
        } else {
            let tbl = match self.tables.get_mut(table) {
                Some(t) => t,
                None => self
                    .tables
                    .entry(table.to_owned())
                    .or_insert_with(|| Table::new(options)),
            };
            tbl.apply_points(book, logged.iter().copied())
        };
        self.record_write_metrics(table, offered as u64, applied.stored as u64);
        applied
    }

    /// Updates the `spotlake_store_*` write families after a successful
    /// batch. Deduped records are those a change-point table skipped as
    /// repeats of the series' current value — the dataset's own
    /// compression, which the ratio gauge tracks cumulatively.
    pub(crate) fn record_write_metrics(&mut self, table: &str, submitted: u64, stored: u64) {
        let labels = [("table", table)];
        let m = &self.metrics;
        m.counter_add(names::STORE_WRITE_BATCHES_TOTAL, &labels, 1);
        m.counter_add(names::STORE_RECORDS_SUBMITTED_TOTAL, &labels, submitted);
        m.counter_add(names::STORE_RECORDS_STORED_TOTAL, &labels, stored);
        m.counter_add(
            names::STORE_RECORDS_DEDUPED_TOTAL,
            &labels,
            submitted - stored,
        );
        m.histogram_record(names::STORE_WRITE_BATCH_RECORDS, &labels, submitted as f64);
        let tally = self.write_tallies.entry(table.to_owned()).or_insert((0, 0));
        tally.0 += submitted;
        tally.1 += stored;
        if tally.0 > 0 {
            m.gauge_set(
                names::STORE_COMPRESSION_RATIO,
                &labels,
                tally.1 as f64 / tally.0 as f64,
            );
        }
    }

    /// Updates the `spotlake_store_*` read families after a query. Rows
    /// returned stand in for latency: scan cost in this in-memory store is
    /// proportional to result size, and wall-clock timing would break the
    /// byte-identical-metrics contract.
    fn record_query_metrics(&self, table: &str, op: &str, rows: usize) {
        let labels = [("table", table), ("op", op)];
        self.metrics
            .counter_add(names::STORE_QUERIES_TOTAL, &labels, 1);
        self.metrics
            .histogram_record(names::STORE_QUERY_ROWS, &labels, rows as f64);
    }

    /// Records a completed cost profile into the `spotlake_query_*`
    /// histograms — scan-side stages only; the serving layer records the
    /// final cost once it knows the response size.
    fn record_profile_metrics(&self, profile: &QueryProfile) {
        let labels = [("table", profile.table.as_str()), ("op", profile.op)];
        let m = &self.metrics;
        m.histogram_record(
            names::QUERY_SERIES_SCANNED,
            &labels,
            profile.series_scanned as f64,
        );
        m.histogram_record(
            names::QUERY_CHUNKS_DECOMPRESSED,
            &labels,
            profile.chunks_decompressed as f64,
        );
        m.histogram_record(
            names::QUERY_ROWS_DECODED,
            &labels,
            profile.rows_decoded as f64,
        );
        m.histogram_record(
            names::QUERY_ROWS_POST_FILTER,
            &labels,
            profile.rows_post_filter as f64,
        );
    }

    /// Runs a raw query against a table.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn query(&self, table: &str, q: &Query) -> Result<Vec<Row>, TsError> {
        let rows = self.table(table)?.query(q);
        self.record_query_metrics(table, "query", rows.len());
        Ok(rows)
    }

    /// [`Database::query`] with cost profiling: returns the rows plus the
    /// completed scan-side [`QueryProfile`], and records the
    /// `spotlake_query_*` stage histograms.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn query_profiled(
        &self,
        table: &str,
        q: &Query,
        ctx: QueryCtx,
    ) -> Result<(Vec<Row>, QueryProfile), TsError> {
        let (scan, profile) = self.scan_rows(table, q, RowKind::Range, usize::MAX, ctx)?;
        Ok((scan.into_rows(), profile))
    }

    /// [`Database::latest`] with cost profiling; see
    /// [`Database::query_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn latest_profiled(
        &self,
        table: &str,
        q: &Query,
        ctx: QueryCtx,
    ) -> Result<(Vec<Row>, QueryProfile), TsError> {
        let (scan, profile) = self.scan_rows(table, q, RowKind::Latest, usize::MAX, ctx)?;
        Ok((scan.into_rows(), profile))
    }

    /// [`Database::value_at`] with cost profiling; see
    /// [`Database::query_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn value_at_profiled(
        &self,
        table: &str,
        q: &Query,
        at: u64,
        ctx: QueryCtx,
    ) -> Result<(Vec<Row>, QueryProfile), TsError> {
        let (scan, profile) = self.scan_rows(table, q, RowKind::At(at), usize::MAX, ctx)?;
        Ok((scan.into_rows(), profile))
    }

    /// The one scan behind the profiled row queries
    /// ([`Database::query_profiled`], [`Database::latest_profiled`],
    /// [`Database::value_at_profiled`]): the answer `kind` asks for with
    /// only its first `limit` rows kept, for an encoder to read in place.
    /// What it records — the profile, `spotlake_store_query_rows` and the
    /// `spotlake_query_*` histograms — counts the whole answer, whatever
    /// the limit.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn scan_rows(
        &self,
        table: &str,
        q: &Query,
        kind: RowKind,
        limit: usize,
        ctx: QueryCtx,
    ) -> Result<(RowScan<'_>, QueryProfile), TsError> {
        let mut profile = QueryProfile::start(kind.op(), table).with_ctx(ctx);
        let scan = self.table(table)?.scan_rows(q, kind, limit, &mut profile);
        self.record_query_metrics(table, kind.op(), scan.total());
        self.record_profile_metrics(&profile);
        Ok((scan, profile))
    }

    /// [`Database::query_window`] with cost profiling; see
    /// [`Database::query_profiled`].
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn query_window_profiled(
        &self,
        table: &str,
        q: &Query,
        window: u64,
        agg: Aggregate,
        ctx: QueryCtx,
    ) -> Result<(Vec<WindowRow>, QueryProfile), TsError> {
        let mut profile = QueryProfile::start("window", table).with_ctx(ctx);
        let rows = self
            .table(table)?
            .query_window_profiled(q, window, agg, &mut profile);
        self.record_query_metrics(table, "query_window", rows.len());
        self.record_profile_metrics(&profile);
        Ok((rows, profile))
    }

    /// Latest point per matching series.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn latest(&self, table: &str, q: &Query) -> Result<Vec<Row>, TsError> {
        let rows = self.table(table)?.latest(q);
        self.record_query_metrics(table, "latest", rows.len());
        Ok(rows)
    }

    /// Value in effect at `at` per matching series.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn value_at(&self, table: &str, q: &Query, at: u64) -> Result<Vec<Row>, TsError> {
        let rows = self.table(table)?.value_at(q, at);
        self.record_query_metrics(table, "value_at", rows.len());
        Ok(rows)
    }

    /// Tumbling-window aggregation.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::NoSuchTable`] if the table is absent.
    pub fn query_window(
        &self,
        table: &str,
        q: &Query,
        window: u64,
        agg: Aggregate,
    ) -> Result<Vec<WindowRow>, TsError> {
        let rows = self.table(table)?.query_window(q, window, agg);
        self.record_query_metrics(table, "query_window", rows.len());
        Ok(rows)
    }

    /// The store's metric registry (`spotlake_store_*` families).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Total points across all tables.
    pub fn point_count(&self) -> usize {
        self.tables.values().map(Table::point_count).sum()
    }

    /// Serializes the database to `path` using the crate's binary codec.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::Io`] on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TsError> {
        codec::save(self, path.as_ref())
    }

    /// Loads a database from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::Io`] on filesystem errors or [`TsError::Corrupt`]
    /// on malformed files.
    pub fn load(path: impl AsRef<Path>) -> Result<Database, TsError> {
        codec::load(path.as_ref())
    }

    pub(crate) fn tables(&self) -> &BTreeMap<String, Table> {
        &self.tables
    }

    pub(crate) fn insert_table_raw(&mut self, name: String, table: Table) {
        self.tables.insert(name, table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_query_roundtrip() {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        assert!(matches!(
            db.create_table("t", TableOptions::default()),
            Err(TsError::TableExists(_))
        ));
        let stored = db
            .write("t", &[Record::new(0, "m", 1.0), Record::new(600, "m", 2.0)])
            .unwrap();
        assert_eq!(stored, 2);
        assert_eq!(db.query("t", &Query::measure("m")).unwrap().len(), 2);
        assert_eq!(db.point_count(), 2);
        assert_eq!(db.table_names(), vec!["t"]);
    }

    #[test]
    fn missing_table_errors() {
        let db = Database::new();
        assert!(matches!(
            db.query("nope", &Query::measure("m")),
            Err(TsError::NoSuchTable(_))
        ));
        let mut db = Database::new();
        assert!(db.write("nope", &[Record::new(0, "m", 1.0)]).is_err());
    }

    #[test]
    fn write_faults_throttle_deterministically_and_store_nothing() {
        let build = || {
            let mut db = Database::new();
            db.create_table("t", TableOptions::default()).unwrap();
            db.set_write_faults(0.5, 7);
            db
        };
        let run = |db: &mut Database| {
            (0..40)
                .map(|i| {
                    db.write("t", &[Record::new(i * 600, "m", f64::from(i as u32))])
                        .is_err()
                })
                .collect::<Vec<bool>>()
        };
        let (mut a, mut b) = (build(), build());
        let (fa, fb) = (run(&mut a), run(&mut b));
        assert_eq!(fa, fb, "same seed, same throttle sequence");
        let throttled = fa.iter().filter(|&&t| t).count();
        assert!((5..35).contains(&throttled), "throttled {throttled}/40");
        // Throttled batches stored nothing: points == successful writes.
        assert_eq!(a.point_count(), 40 - throttled);
        // Zero rate is inert.
        let mut c = Database::new();
        c.create_table("t", TableOptions::default()).unwrap();
        c.set_write_faults(0.0, 7);
        for i in 0..40 {
            c.write("t", &[Record::new(i * 600, "m", 1.0)]).unwrap();
        }
    }

    #[test]
    fn writes_and_queries_feed_the_metric_registry() {
        let mut db = Database::new();
        let opts = TableOptions {
            mode: crate::table::WriteMode::ChangePoint,
            retention: None,
        };
        db.create_table("sps", opts).unwrap();
        // Second record repeats the value → change-point dedup drops it.
        let stored = db
            .write(
                "sps",
                &[Record::new(0, "score", 3.0), Record::new(600, "score", 3.0)],
            )
            .unwrap();
        assert_eq!(stored, 1);
        db.query("sps", &Query::measure("score")).unwrap();
        db.latest("sps", &Query::measure("score")).unwrap();
        let text = db.metrics().render();
        assert!(text.contains("spotlake_store_records_submitted_total{table=\"sps\"} 2"));
        assert!(text.contains("spotlake_store_records_stored_total{table=\"sps\"} 1"));
        assert!(text.contains("spotlake_store_records_deduped_total{table=\"sps\"} 1"));
        assert!(text.contains("spotlake_store_compression_ratio{table=\"sps\"} 0.5"));
        assert!(text.contains("spotlake_store_queries_total{op=\"query\",table=\"sps\"} 1"));
        assert!(text.contains("spotlake_store_queries_total{op=\"latest\",table=\"sps\"} 1"));
        assert!(text.contains("spotlake_store_query_rows_bucket"));
        // A throttled write counts without storing.
        db.set_write_faults(1.0, 3);
        assert!(db.write("sps", &[Record::new(1200, "score", 4.0)]).is_err());
        assert!(db
            .metrics()
            .render()
            .contains("spotlake_store_write_throttled_total{table=\"sps\"} 1"));
    }

    #[test]
    fn profiled_queries_return_profiles_and_feed_query_histograms() {
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        for i in 0..5u64 {
            db.write(
                "sps",
                &[
                    Record::new(i * 600, "score", i as f64).dimension("instance_type", "m5.large"),
                    Record::new(i * 600, "score", 1.0).dimension("instance_type", "c5.xlarge"),
                ],
            )
            .unwrap();
        }
        let ctx = QueryCtx {
            trace_id: 9,
            tick: 3,
            request_id: 0,
        };
        let q = Query::measure("score").filter("instance_type", "m5.large");
        let (rows, profile) = db.query_profiled("sps", &q, ctx).unwrap();
        assert_eq!(rows, db.query("sps", &q).unwrap());
        assert_eq!(profile.trace_id, 9);
        assert_eq!(profile.tick, 3);
        assert_eq!(profile.op, "query");
        assert_eq!(profile.table, "sps");
        assert_eq!(profile.series_scanned, 1);
        assert_eq!(profile.rows_decoded, 5);
        assert!(profile.cost() > 0);

        let (latest, _) = db.latest_profiled("sps", &q, ctx).unwrap();
        assert_eq!(latest.len(), 1);
        let (at, _) = db.value_at_profiled("sps", &q, 700, ctx).unwrap();
        assert_eq!(at[0].time, 600);
        let (win, wp) = db
            .query_window_profiled("sps", &q, 1200, Aggregate::Mean, ctx)
            .unwrap();
        assert!(!win.is_empty());
        assert_eq!(wp.op, "window");

        let text = db.metrics().render();
        // One observation per profiled call, stage sums match the profile.
        assert!(text.contains("spotlake_query_series_scanned_count{op=\"query\",table=\"sps\"} 1"));
        assert!(text.contains("spotlake_query_rows_decoded_sum{op=\"query\",table=\"sps\"} 5"));
        assert!(text
            .contains("spotlake_query_chunks_decompressed_count{op=\"latest\",table=\"sps\"} 1"));
        assert!(
            text.contains("spotlake_query_rows_post_filter_sum{op=\"value_at\",table=\"sps\"} 1")
        );
        // The unprofiled read path recorded the legacy families too.
        assert!(text.contains("spotlake_store_queries_total{op=\"query\",table=\"sps\"} 2"));

        assert!(db.query_profiled("nope", &q, ctx).is_err());
    }

    #[test]
    fn bad_record_keeps_earlier_writes() {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        let err = db.write("t", &[Record::new(0, "m", 1.0), Record::new(1, "", 2.0)]);
        assert!(err.is_err());
        assert_eq!(db.point_count(), 1);
    }
}
