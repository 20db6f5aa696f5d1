//! Property: writing by series id is writing the records.
//!
//! A writer that books its series once ([`SeriesBook`]) and hands the store
//! `(id, time, value)` points — round after round, its handles carried
//! across batches, across a retention re-file and across a failed shard —
//! must leave everything exactly as writing the same batches as
//! [`Record`]s does, where every batch is booked afresh and every series
//! resolved by key:
//!
//! * the store's codec bytes, what each write reports stored, and the
//!   `spotlake_store_*` scrape;
//! * for a sharded archive, every byte under its root: WALs, checkpoints
//!   and the manifest.
//!
//! Both of those run through the store's one write path, so both are also
//! checked against references outside it. A plain model — a map of sorted
//! point lists with the change-point rule spelled out — must hold the same
//! rows and series, and answer every read the same: `query`, `latest`,
//! `value_at` and `query_window` under filters series carry or not, over
//! ranges that cover, touch, sit inside, miss or invert the data, with the
//! profile's `rows_decoded` and `rows_post_filter` counted as the model
//! counts them. A sharded store must be byte-for-byte an in-memory store
//! written with the records its shards acknowledged, so a shard that
//! failed leaves none of its new series filed.
//!
//! Snapshots are isolated: a clone of the store taken after a round — the
//! epoch a server publishes — must still answer as the model stood then
//! after every later round, retention re-files included, has written
//! into the store it shares its pages with.

use proptest::prelude::*;
use spotlake_timestream::{
    Aggregate, Database, IoFaultPlan, Point, Query, QueryProfile, Record, SeriesBook, SeriesRef,
    ShardFaultConfig, ShardKey, ShardedArchive, Table, TableOptions, WindowRow, WriteMode,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const TABLE: &str = "t";
const REGIONS: [&str; 3] = ["r0", "r1", "r2"];
const SERIES: usize = 8;
const MEASURES: [&str; 2] = ["m0", "m1"];
/// Rounds are this far apart; retention keeps two of them.
const STEP: u64 = 600;
/// Filters the reads carry: none; pairs series carry, alone and together;
/// a value and a key no series carries. Generated dimensions are
/// fixed-width, so key order and dimension order agree.
const FILTERS: [&[(&str, &str)]; 6] = [
    &[],
    &[("region", "r1")],
    &[("series", "3")],
    &[("region", "r0"), ("series", "3")],
    &[("region", "r9")],
    &[("nope", "r0")],
];
const AGGREGATES: [Aggregate; 6] = [
    Aggregate::Mean,
    Aggregate::Min,
    Aggregate::Max,
    Aggregate::Count,
    Aggregate::Sum,
    Aggregate::Last,
];

/// A fresh scratch path per call: cases run back to back in one process.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spotlake-idpath-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// The store's persisted form — the strictest equality there is.
fn bytes(db: &Database) -> Vec<u8> {
    let path = scratch("bytes");
    db.save(&path).unwrap();
    let out = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    out
}

/// The store's own metric families.
fn store_scrape(db: &Database) -> String {
    db.metrics()
        .render()
        .lines()
        .filter(|l| l.contains("spotlake_store_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Every file under `root`, by relative path.
fn tree(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_owned()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_owned();
                files.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

fn options(changepoint: bool, retention: bool) -> TableOptions {
    TableOptions {
        mode: if changepoint {
            WriteMode::ChangePoint
        } else {
            WriteMode::Dense
        },
        retention: retention.then_some(2 * STEP),
    }
}

/// One generated point: series, measure, offset from the round's time,
/// whether it lands behind the round, and a value out of three.
type Raw = (usize, usize, u64, bool, usize);

/// Strategy: rounds of points over eight series in three regions, two
/// measures and three values — few enough that a series recurs within a
/// batch (overwrites, change-point repeats) and across rounds, and that a
/// series first appears mid-batch — with a share stamped behind the round.
fn rounds() -> impl Strategy<Value = Vec<Vec<Raw>>> {
    let raw = (
        0..SERIES,
        0..MEASURES.len(),
        0u64..3,
        any::<bool>(),
        0usize..3,
    );
    prop::collection::vec(prop::collection::vec(raw, 0..12), 1..9)
}

/// The writer under test: series booked once, on first sight.
struct Writer {
    book: SeriesBook,
    ids: BTreeMap<(usize, usize), SeriesRef>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            book: SeriesBook::new(),
            ids: BTreeMap::new(),
        }
    }

    /// Round `round`'s raw points as points of the book.
    fn points(&mut self, round: usize, raw: &[Raw]) -> Vec<Point> {
        let now = (round as u64 + 1) * STEP;
        raw.iter()
            .map(|&(series, measure, offset, late, value)| {
                let book = &mut self.book;
                let id = *self.ids.entry((series, measure)).or_insert_with(|| {
                    book.define(
                        MEASURES[measure],
                        vec![
                            (
                                "region".to_owned(),
                                REGIONS[series % REGIONS.len()].to_owned(),
                            ),
                            ("series".to_owned(), series.to_string()),
                        ],
                    )
                });
                Point {
                    series: id,
                    time: if late {
                        now.saturating_sub(offset * STEP + 1)
                    } else {
                        now + offset
                    },
                    value: [1.0, 2.0, 3.0][value],
                }
            })
            .collect()
    }

    fn records(&self, points: &[Point]) -> Vec<Record> {
        points.iter().map(|p| self.book.record(p)).collect()
    }
}

/// A series' dimensions, owned.
type Dims = Vec<(String, String)>;

/// One stored row: the series' dimensions, time and value.
type Row = (Dims, u64, f64);

/// The store's contract, spelled out: per (measure, dimensions), a sorted
/// point list.
#[derive(Clone, Default)]
struct Model {
    series: BTreeMap<(String, Dims), Vec<(u64, f64)>>,
}

impl Model {
    /// Writes `r` as the table's mode does; returns whether it stored.
    fn write(&mut self, r: &Record, changepoint: bool) -> bool {
        let points = self
            .series
            .entry((r.measure.clone(), r.dimensions.clone()))
            .or_default();
        if changepoint {
            if let Some(&(t, v)) = points.last() {
                if r.time >= t && v == r.value {
                    return false;
                }
            }
        }
        match points.binary_search_by_key(&r.time, |&(t, _)| t) {
            Ok(i) if points[i].1 == r.value => false,
            Ok(i) => {
                points[i].1 = r.value;
                true
            }
            Err(i) => {
                points.insert(i, (r.time, r.value));
                true
            }
        }
    }

    /// Drops points older than the retention window, and emptied series.
    fn retain(&mut self, now: u64, options: TableOptions) {
        let Some(retention) = options.retention else {
            return;
        };
        let cutoff = now.saturating_sub(retention);
        for points in self.series.values_mut() {
            points.retain(|&(t, _)| t >= cutoff);
        }
        self.series.retain(|_, points| !points.is_empty());
    }

    /// The series of `measure` `filters` match, in dimension order.
    fn matching<'a>(
        &'a self,
        measure: &'a str,
        filters: &'a [(&str, &str)],
    ) -> impl Iterator<Item = (&'a Dims, &'a [(u64, f64)])> + 'a {
        self.series
            .iter()
            .filter(move |((m, dims), _)| {
                m == measure
                    && filters
                        .iter()
                        .all(|(k, v)| dims.iter().any(|(dk, dv)| dk == k && dv == v))
            })
            .map(|((_, dims), points)| (dims, points.as_slice()))
    }

    /// Every in-range point of the matching series, by (time, dimensions).
    fn query(&self, measure: &str, filters: &[(&str, &str)], from: u64, to: u64) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .matching(measure, filters)
            .flat_map(|(dims, points)| {
                points
                    .iter()
                    .filter(move |&&(t, _)| from <= t && t <= to)
                    .map(move |&(t, v)| (dims.clone(), t, v))
            })
            .collect();
        rows.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
        rows
    }

    /// Per matching series, the last point `keep` accepts.
    fn last_where(
        &self,
        measure: &str,
        filters: &[(&str, &str)],
        keep: impl Fn(u64) -> bool,
    ) -> Vec<Row> {
        self.matching(measure, filters)
            .filter_map(|(dims, points)| {
                let &(t, v) = points.iter().rev().find(|&&(t, _)| keep(t))?;
                Some((dims.clone(), t, v))
            })
            .collect()
    }

    /// Tumbling windows from `from`, each [`Aggregate::apply`] over its
    /// points in series order, and the points the windows hold.
    fn window(
        &self,
        measure: &str,
        filters: &[(&str, &str)],
        (from, to): (u64, u64),
        window: u64,
        agg: Aggregate,
    ) -> (Vec<WindowRow>, usize) {
        let mut buckets: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new();
        for (_, points) in self.matching(measure, filters) {
            for &(t, v) in points.iter().filter(|&&(t, _)| from <= t && t <= to) {
                buckets
                    .entry(from + (t - from) / window * window)
                    .or_default()
                    .push((t, v));
            }
        }
        let decoded = buckets.values().map(Vec::len).sum();
        let rows = buckets
            .into_iter()
            .map(|(window_start, points)| WindowRow {
                window_start,
                value: agg.apply(&points).unwrap(),
                count: points.len(),
            })
            .collect();
        (rows, decoded)
    }

    /// The ranges the reads run over: everything; exactly the data's
    /// bounds; inside them; one round's stretch; past the data; inverted.
    fn ranges(&self) -> Vec<(u64, u64)> {
        let times = || self.series.values().flatten().map(|&(t, _)| t);
        let first = times().min().unwrap_or(0);
        let last = times().max().unwrap_or(0);
        vec![
            (0, u64::MAX),
            (first, last),
            (first + 1, last.saturating_sub(1)),
            (2 * STEP, 3 * STEP),
            (last + 1, u64::MAX),
            (last.max(1), first.min(last.max(1) - 1)),
        ]
    }

    /// Asserts every read of `table` answers as the model does, and
    /// counts the rows it decoded and kept as the model counts them.
    fn check_reads(&self, table: &Table, what: &str) -> Result<(), TestCaseError> {
        let stored = |rows: Vec<spotlake_timestream::Row>| -> Vec<Row> {
            rows.into_iter()
                .map(|r| (r.dimensions().to_vec(), r.time, r.value))
                .collect()
        };
        for measure in MEASURES {
            for filters in FILTERS {
                for (from, to) in self.ranges() {
                    let mut q = Query::measure(measure).between(from, to);
                    for (k, v) in filters {
                        q = q.filter(*k, *v);
                    }
                    let at = format!("{what}: {measure} {filters:?} {from}..{to}");

                    let mut p = QueryProfile::default();
                    let got = stored(table.query_profiled(&q, &mut p));
                    let want = self.query(measure, filters, from, to);
                    prop_assert_eq!(
                        (p.rows_decoded, p.rows_post_filter),
                        (want.len() as u64, want.len() as u64),
                        "query counts, {}",
                        at
                    );
                    prop_assert_eq!(got, want, "query, {}", at);

                    let mut p = QueryProfile::default();
                    let got = stored(table.latest_profiled(&q, &mut p));
                    let want = self.last_where(measure, filters, |t| from <= t && t <= to);
                    prop_assert_eq!(
                        (p.rows_decoded, p.rows_post_filter),
                        (want.len() as u64, want.len() as u64),
                        "latest counts, {}",
                        at
                    );
                    prop_assert_eq!(got, want, "latest, {}", at);

                    let mut p = QueryProfile::default();
                    let got = stored(table.value_at_profiled(&q, to, &mut p));
                    let want = self.last_where(measure, filters, |t| t <= to);
                    prop_assert_eq!(
                        (p.rows_decoded, p.rows_post_filter),
                        (want.len() as u64, want.len() as u64),
                        "value_at counts, {}",
                        at
                    );
                    prop_assert_eq!(got, want, "value_at, {}", at);

                    for (agg, window) in
                        AGGREGATES
                            .into_iter()
                            .zip([STEP, 7, 1, 2 * STEP, 3 * STEP, u64::MAX])
                    {
                        let mut p = QueryProfile::default();
                        let got = table.query_window_profiled(&q, window, agg, &mut p);
                        let (want, decoded) =
                            self.window(measure, filters, (from, to), window, agg);
                        prop_assert_eq!(
                            (p.rows_decoded, p.rows_post_filter),
                            (decoded as u64, want.len() as u64),
                            "window counts, {:?}, {}",
                            agg,
                            at
                        );
                        prop_assert_eq!(got, want, "window {:?} of {}, {}", agg, window, at);
                    }
                }
            }
        }
        Ok(())
    }

    /// Asserts `db` holds exactly the model's series and points, and
    /// answers every read as the model does.
    fn check(&self, db: &Database, what: &str) -> Result<(), TestCaseError> {
        let table = db.table(TABLE).unwrap();
        prop_assert_eq!(table.series_count(), self.series.len(), "{}: series", what);
        for measure in MEASURES {
            let mut rows: Vec<Row> = table
                .query(&Query::measure(measure))
                .into_iter()
                .map(|r| (r.dimensions().to_vec(), r.time, r.value))
                .collect();
            rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
            let want: Vec<Row> = self
                .series
                .iter()
                .filter(|((m, _), _)| m == measure)
                .flat_map(|((_, dims), points)| {
                    points.iter().map(move |&(t, v)| (dims.clone(), t, v))
                })
                .collect();
            prop_assert_eq!(rows, want, "{}: rows of {}", what, measure);
        }
        self.check_reads(table, what)
    }
}

/// Whether retention runs after round `round` of a run that has it —
/// and whether a snapshot is taken after it.
fn retention_after(round: usize, every: usize) -> bool {
    (round + 1).is_multiple_of(every)
}

/// Clones of the store taken after a round, each with the model as it
/// stood then.
#[derive(Default)]
struct Snapshots(Vec<(usize, Database, Model)>);

impl Snapshots {
    /// Keeps a clone of `db` and of `model` when a snapshot is due after
    /// `round`.
    fn take(&mut self, round: usize, every: usize, db: &Database, model: &Model) {
        if retention_after(round, every) {
            self.0.push((round, db.clone(), model.clone()));
        }
    }

    /// Asserts every kept clone still answers as its own model.
    fn check(&self) -> Result<(), TestCaseError> {
        for (round, db, model) in &self.0 {
            model.check(db, &format!("snapshot after round {round}"))?;
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In memory: `write_points` with one long-lived book against
    /// `write` of the same records, and both against the model.
    #[test]
    fn writing_by_id_equals_writing_records_in_memory(
        rounds in rounds(),
        changepoint in any::<bool>(),
        retention in any::<bool>(),
        retain_every in 1usize..4,
        snapshot_every in 1usize..4,
    ) {
        let options = options(changepoint, retention);
        let mut snapshots = Snapshots::default();
        let (mut by_id, mut by_record) = (Database::new(), Database::new());
        by_id.create_table(TABLE, options).unwrap();
        by_record.create_table(TABLE, options).unwrap();
        let mut writer = Writer::new();
        let mut model = Model::default();
        for (round, raw) in rounds.iter().enumerate() {
            let points = writer.points(round, raw);
            let records = writer.records(&points);
            let stored = by_id.write_points(TABLE, &mut writer.book, &points).unwrap();
            prop_assert_eq!(stored, by_record.write(TABLE, &records).unwrap(), "round {}", round);
            let modelled = records.iter().filter(|r| model.write(r, changepoint)).count();
            prop_assert_eq!(stored, modelled, "round {} stored", round);
            if retention && retention_after(round, retain_every) {
                let now = (round as u64 + 1) * STEP;
                let dropped = by_id.table_mut(TABLE).unwrap().enforce_retention(now);
                prop_assert_eq!(dropped, by_record.table_mut(TABLE).unwrap().enforce_retention(now));
                model.retain(now, options);
            }
            prop_assert_eq!(bytes(&by_id), bytes(&by_record), "round {}", round);
            model.check(&by_id, &format!("round {round}"))?;
            snapshots.take(round, snapshot_every, &by_id, &model);
        }
        prop_assert_eq!(store_scrape(&by_id), store_scrape(&by_record));
        snapshots.check()?;
    }

    /// Sharded: `commit_points` with one long-lived book against `commit`
    /// of the same records — same faults, same bytes on disk — and the
    /// store against an in-memory store of what the shards acknowledged.
    #[test]
    fn committing_by_id_equals_committing_records(
        rounds in rounds(),
        changepoint in any::<bool>(),
        retention in any::<bool>(),
        retain_every in 1usize..4,
        snapshot_every in 1usize..4,
        fault_seed in 0u64..1_000,
    ) {
        let options = options(changepoint, retention);
        let mut snapshots = Snapshots::default();
        let keys: Vec<ShardKey> = REGIONS.iter().map(|r| ShardKey::new(TABLE, r)).collect();
        // One shard sees transient faults and, sooner or later, a crash
        // that fails its slice from then on.
        let faults = || ShardFaultConfig {
            plan: IoFaultPlan {
                torn_write_rate: 0.2,
                short_write_rate: 0.3,
                ..IoFaultPlan::none(fault_seed)
            },
            only: Some(ShardKey::new(TABLE, "r1")),
        };
        let (root_id, root_record) = (scratch("id"), scratch("record"));
        let (mut archive_id, mut by_id) =
            ShardedArchive::open(&root_id, &keys, 2, Some(faults())).unwrap();
        let (mut archive_record, mut by_record) =
            ShardedArchive::open(&root_record, &keys, 2, Some(faults())).unwrap();
        by_id.create_table(TABLE, options).unwrap();
        by_record.create_table(TABLE, options).unwrap();
        let mut acked = Database::new();
        acked.create_table(TABLE, options).unwrap();
        let mut writer = Writer::new();
        let mut model = Model::default();

        for (round, raw) in rounds.iter().enumerate() {
            let tick = round as u64 + 1;
            let points = writer.points(round, raw);
            let records = writer.records(&points);
            let out = archive_id.commit_points(
                &mut by_id, TABLE, options, tick, &mut writer.book, &points, 2,
            );
            let want = archive_record.commit(&mut by_record, TABLE, options, tick, &records, 2);
            prop_assert_eq!(out.written, want.written, "round {}", round);
            prop_assert_eq!(out.retries, want.retries, "round {}", round);
            let failed = |r: &Record| {
                out.failures.iter().any(|f| Some(f.region.as_str()) == r.dimension_value("region"))
            };
            let rows = |o: &spotlake_timestream::ShardCommitOutcome| -> Vec<(String, String)> {
                o.failures.iter().map(|f| (f.region.clone(), f.detail.clone())).collect()
            };
            prop_assert_eq!(rows(&out), rows(&want), "round {}", round);
            let committed: Vec<Record> = records.iter().filter(|r| !failed(r)).cloned().collect();
            prop_assert_eq!(out.written, acked.write(TABLE, &committed).unwrap(), "round {}", round);
            for r in &committed {
                model.write(r, changepoint);
            }
            archive_id.maintain().unwrap();
            archive_record.maintain().unwrap();
            if retention && retention_after(round, retain_every) {
                let now = tick * STEP;
                for db in [&mut by_id, &mut by_record, &mut acked] {
                    db.table_mut(TABLE).unwrap().enforce_retention(now);
                }
                model.retain(now, options);
            }
            prop_assert_eq!(bytes(&by_id), bytes(&by_record), "round {}", round);
            prop_assert_eq!(bytes(&by_id), bytes(&acked), "round {}: acked only", round);
            model.check(&by_id, &format!("round {round}"))?;
            snapshots.take(round, snapshot_every, &by_id, &model);
        }
        snapshots.check()?;
        prop_assert_eq!(store_scrape(&by_id), store_scrape(&by_record));
        prop_assert_eq!(tree(&root_id), tree(&root_record), "bytes on disk");
        std::fs::remove_dir_all(&root_id).ok();
        std::fs::remove_dir_all(&root_record).ok();
    }
}
