//! Differential test: the series index answers exactly what a full scan
//! would.
//!
//! A filtered query walks one posting list instead of the measure
//! (`Table::scan_candidates`). Whatever was written — dense or
//! change-point, in or out of order, pruned by retention until series
//! vanish, checkpointed, crashed and replayed from the log — and whatever
//! is asked — filters on values or keys no series has, the same key
//! twice, a measure that is not there — the rows, their order and every
//! [`QueryProfile`] counter must be those of the reference kept here: a
//! plain map of series that tests every series of the measure against the
//! filters and the time range, in key order. `series_examined`, the one
//! counter that says how the candidates were found, is held to its
//! definition instead: the fewest series any one filter's pair is on.
//! Rows are compared spelled out — time, value and each dimension pair as
//! strings — and an owned row's dimensions must be the scan's, pair ids
//! included. Timestamps are ragged — on the round's grid, on a grid of the
//! series' own, or anywhere in the round — and every row kind is also
//! asked under limits around its total and inside a run of equal times:
//! the first `limit` rows of the reference, with the whole answer's total
//! and profile.

use proptest::prelude::*;
use spotlake_obs::QueryCtx;
use spotlake_timestream::{
    recover, Aggregate, Database, Query, QueryProfile, Record, Row, RowKind, TableOptions, Wal,
    WindowRow, WriteMode,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TABLE: &str = "t";
const RETENTION: u64 = 1800;
const ROUND: u64 = 600;
/// The store's page size for cost accounting (`series::CHUNK_POINTS`).
const CHUNK_POINTS: usize = 256;

const MEASURES: [&str; 3] = ["m0", "m1", "absent"];
/// `zone` is a key no series carries.
const KEYS: [&str; 4] = ["instance_type", "region", "az", "zone"];
/// `none` is a value no series carries.
const VALUES: [&str; 6] = ["t0", "t1", "r0", "r1", "a1", "none"];
/// Instance types: `t1` is a prefix of `t1-b`, so their series' keys
/// order one way (`'-'` < `'|'`) and their spelled pairs the other.
const TYPES: [&str; 3] = ["t0", "t1", "t1-b"];

fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "spotlake-index-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A row spelled out: time, value and its dimensions as strings.
type Spelled = (u64, f64, Vec<(String, String)>);

fn spelled(rows: &[Row]) -> Vec<Spelled> {
    rows.iter()
        .map(|r| (r.time, r.value, r.dimensions().to_vec()))
        .collect()
}

/// One series of the reference.
struct RefSeries {
    dimensions: Vec<(String, String)>,
    points: Vec<(u64, f64)>,
}

impl RefSeries {
    fn insert(&mut self, time: u64, value: f64) {
        match self.points.binary_search_by_key(&time, |&(t, _)| t) {
            Ok(i) => self.points[i].1 = value,
            Err(i) => self.points.insert(i, (time, value)),
        }
    }

    fn matches(&self, q: &Query) -> bool {
        q.filters()
            .iter()
            .all(|f| self.dimensions.iter().any(|d| d == f))
    }

    fn overlaps(&self, from: u64, to: u64) -> bool {
        match (self.points.first(), self.points.last()) {
            (Some(&(first, _)), Some(&(last, _))) => first <= to && last >= from,
            _ => false,
        }
    }

    /// Index range of the points in `[from, to]`; empty when the range is
    /// inverted.
    fn range(&self, from: u64, to: u64) -> (usize, usize) {
        if from > to {
            return (0, 0);
        }
        (
            self.points.iter().filter(|&&(t, _)| t < from).count(),
            self.points.iter().filter(|&&(t, _)| t <= to).count(),
        )
    }
}

fn chunks_touched(start: usize, end: usize) -> u64 {
    if end <= start {
        0
    } else {
        ((end - 1) / CHUNK_POINTS - start / CHUNK_POINTS + 1) as u64
    }
}

/// The reference store: measure → canonical series key → series.
#[derive(Default)]
struct Reference {
    series: BTreeMap<String, BTreeMap<String, RefSeries>>,
}

impl Reference {
    fn write(&mut self, mode: WriteMode, r: &Record) {
        let s = self
            .series
            .entry(r.measure.clone())
            .or_default()
            .entry(r.series_key())
            .or_insert_with(|| RefSeries {
                dimensions: r.dimensions.clone(),
                points: Vec::new(),
            });
        let repeat = matches!(s.points.last(), Some(&(t, v)) if r.time >= t && v == r.value);
        if mode == WriteMode::Dense || !repeat {
            s.insert(r.time, r.value);
        }
    }

    fn retain(&mut self, now: u64) {
        let cutoff = now.saturating_sub(RETENTION);
        for m in self.series.values_mut() {
            for s in m.values_mut() {
                s.points.retain(|&(t, _)| t >= cutoff);
            }
            m.retain(|_, s| !s.points.is_empty());
        }
        self.series.retain(|_, m| !m.is_empty());
    }

    /// The full scan: every series of the measure, in key order, tested
    /// against the filters and the range. Fills the prune and scan
    /// counters the way the store defines them.
    fn candidates(&self, q: &Query, from: u64, to: u64, p: &mut QueryProfile) -> Vec<&RefSeries> {
        let all = self.series.get(q.measure_name());
        let hits: Vec<&RefSeries> = all
            .into_iter()
            .flat_map(BTreeMap::values)
            .filter(|s| s.matches(q) && s.overlaps(from, to))
            .collect();
        p.series_total = all.map_or(0, BTreeMap::len) as u64;
        p.series_scanned = hits.len() as u64;
        p.series_pruned = p.series_total - p.series_scanned;
        hits
    }

    fn query(&self, q: &Query, p: &mut QueryProfile) -> Vec<Spelled> {
        let (from, to) = q.time_range();
        let mut rows = Vec::new();
        for s in self.candidates(q, from, to, p) {
            let (start, end) = s.range(from, to);
            p.chunks_decompressed += chunks_touched(start, end);
            p.rows_decoded += (end - start) as u64;
            rows.extend(
                s.points[start..end]
                    .iter()
                    .map(|&(time, value)| (time, value, s.dimensions.clone())),
            );
        }
        rows.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        p.rows_post_filter = rows.len() as u64;
        rows
    }

    fn latest(&self, q: &Query, p: &mut QueryProfile) -> Vec<Spelled> {
        let (from, to) = q.time_range();
        let mut rows = Vec::new();
        for s in self.candidates(q, from, to, p) {
            let (start, end) = s.range(from, to);
            if let Some(&(time, value)) = s.points[start..end].last() {
                p.chunks_decompressed += 1;
                p.rows_decoded += 1;
                rows.push((time, value, s.dimensions.clone()));
            }
        }
        p.rows_post_filter = rows.len() as u64;
        rows
    }

    fn value_at(&self, q: &Query, at: u64, p: &mut QueryProfile) -> Vec<Spelled> {
        p.from = 0;
        p.to = at;
        let mut rows = Vec::new();
        for s in self.candidates(q, 0, at, p) {
            if let Some(&(time, value)) = s.points.iter().rfind(|&&(t, _)| t <= at) {
                p.chunks_decompressed += 1;
                p.rows_decoded += 1;
                rows.push((time, value, s.dimensions.clone()));
            }
        }
        p.rows_post_filter = rows.len() as u64;
        rows
    }

    fn window(&self, q: &Query, len: u64, agg: Aggregate, p: &mut QueryProfile) -> Vec<WindowRow> {
        let (from, to) = q.time_range();
        let mut buckets: BTreeMap<u64, Vec<(u64, f64)>> = BTreeMap::new();
        for s in self.candidates(q, from, to, p) {
            let (start, end) = s.range(from, to);
            p.chunks_decompressed += chunks_touched(start, end);
            p.rows_decoded += (end - start) as u64;
            for &(t, v) in &s.points[start..end] {
                buckets
                    .entry(from + (t - from) / len * len)
                    .or_default()
                    .push((t, v));
            }
        }
        let rows: Vec<WindowRow> = buckets
            .into_iter()
            .filter_map(|(window_start, pts)| {
                agg.apply(&pts).map(|value| WindowRow {
                    window_start,
                    value,
                    count: pts.len(),
                })
            })
            .collect();
        p.rows_post_filter = rows.len() as u64;
        rows
    }
}

/// What one generated query asks, over all four read operations.
#[derive(Debug, Clone)]
struct Ask {
    query: Query,
    at: u64,
    window: u64,
    agg: Aggregate,
}

/// Runs `ask` through the store and the reference and compares rows,
/// order and profile. The reference's profile starts as the store's would
/// (operation, table, context, the query's shape); the scan fills in the
/// rest.
fn check(db: &Database, reference: &Reference, ask: &Ask) -> Result<(), TestCaseError> {
    let ctx = QueryCtx {
        trace_id: 3,
        tick: 5,
        request_id: 7,
    };
    let q = &ask.query;
    // What the prune stage may look at: the series on the rarest of the
    // query's pairs, or the whole measure when there is no pair to go by.
    let measure = reference.series.get(q.measure_name());
    let carriers = |f: &(String, String)| {
        let on_pair = |s: &&RefSeries| s.dimensions.contains(f);
        measure.map_or(0, |m| m.values().filter(on_pair).count())
    };
    let examined = q
        .filters()
        .iter()
        .map(carriers)
        .min()
        .unwrap_or(measure.map_or(0, BTreeMap::len)) as u64;
    let expect = |op: &'static str| {
        let mut p = QueryProfile::start(op, TABLE).with_ctx(ctx);
        p.observe_query(q);
        p.series_examined = examined;
        p
    };

    let (rows, got) = db.query_profiled(TABLE, q, ctx).unwrap();
    let mut want = expect("query");
    prop_assert_eq!(
        spelled(&rows),
        reference.query(q, &mut want),
        "query rows: {:?}",
        ask
    );
    prop_assert_eq!(&got, &want, "query profile: {:?}", ask);
    owned_rows_are_the_scans(db, q, RowKind::Range, &rows)?;
    limits_cut_the_whole_answer(db, q, RowKind::Range, &rows, &got)?;

    let (rows, got) = db.latest_profiled(TABLE, q, ctx).unwrap();
    let mut want = expect("latest");
    prop_assert_eq!(
        spelled(&rows),
        reference.latest(q, &mut want),
        "latest rows: {:?}",
        ask
    );
    prop_assert_eq!(&got, &want, "latest profile: {:?}", ask);
    owned_rows_are_the_scans(db, q, RowKind::Latest, &rows)?;
    limits_cut_the_whole_answer(db, q, RowKind::Latest, &rows, &got)?;

    let (rows, got) = db.value_at_profiled(TABLE, q, ask.at, ctx).unwrap();
    let mut want = expect("value_at");
    let want_rows = reference.value_at(q, ask.at, &mut want);
    prop_assert_eq!(spelled(&rows), want_rows, "value_at rows: {:?}", ask);
    prop_assert_eq!(&got, &want, "value_at profile: {:?}", ask);
    owned_rows_are_the_scans(db, q, RowKind::At(ask.at), &rows)?;
    limits_cut_the_whole_answer(db, q, RowKind::At(ask.at), &rows, &got)?;

    let (rows, got) = db
        .query_window_profiled(TABLE, q, ask.window, ask.agg, ctx)
        .unwrap();
    let mut want = expect("window");
    let want_rows = reference.window(q, ask.window, ask.agg, &mut want);
    prop_assert_eq!(&rows, &want_rows, "window rows: {:?}", ask);
    prop_assert_eq!(&got, &want, "window profile: {:?}", ask);
    Ok(())
}

/// The owned rows of a `*_profiled` answer carry the dimensions the scan
/// behind it reads in place: the same pairs, by the same ids.
fn owned_rows_are_the_scans(
    db: &Database,
    q: &Query,
    kind: RowKind,
    rows: &[Row],
) -> Result<(), TestCaseError> {
    let (scan, _) = db
        .scan_rows(TABLE, q, kind, usize::MAX, QueryCtx::default())
        .unwrap();
    prop_assert_eq!(scan.len(), rows.len());
    for (borrowed, owned) in scan.iter().zip(rows) {
        prop_assert_eq!((borrowed.time, borrowed.value), (owned.time, owned.value));
        prop_assert_eq!(borrowed.dimensions, owned.dimensions());
        prop_assert_eq!(borrowed.dimensions.ids(), owned.dimensions().ids());
        for &id in borrowed.dimensions.ids() {
            prop_assert!((id as usize) < scan.pairs().len());
        }
    }
    Ok(())
}

/// Under a limit, the scan keeps the first `limit` rows of the whole
/// answer `rows`, and its total and profile are the whole answer's:
/// limits 0, 1, one short of the total, the total and one past it, and
/// one that cuts a run of equal times.
fn limits_cut_the_whole_answer(
    db: &Database,
    q: &Query,
    kind: RowKind,
    rows: &[Row],
    whole: &QueryProfile,
) -> Result<(), TestCaseError> {
    let ctx = QueryCtx {
        trace_id: whole.trace_id,
        tick: whole.tick,
        request_id: whole.request_id,
    };
    let total = rows.len();
    let inside_a_run = (1..total).find(|&i| rows[i - 1].time == rows[i].time);
    let limits = [0, 1, total.saturating_sub(1), total, total + 1];
    for limit in limits.into_iter().chain(inside_a_run) {
        let (scan, profile) = db.scan_rows(TABLE, q, kind, limit, ctx).unwrap();
        let kept: Vec<Spelled> = scan
            .iter()
            .map(|r| (r.time, r.value, r.dimensions.to_vec()))
            .collect();
        let want = spelled(&rows[..limit.min(total)]);
        prop_assert_eq!(
            kept,
            want,
            "{:?} limit {} of {}: {:?}",
            kind,
            limit,
            total,
            q
        );
        prop_assert_eq!(scan.total(), total);
        prop_assert_eq!(scan.truncated(), limit < total);
        prop_assert_eq!(&profile, whole, "{:?} limit {}: {:?}", kind, limit, q);
    }
    Ok(())
}

/// Asks every generated case adds to its own: a whole measure, a whole
/// region, a filter value no series carries, a key given twice with two
/// values, and one pair given twice.
fn fixed_asks() -> Vec<Ask> {
    let ask = |query: Query| Ask {
        query,
        at: 3 * ROUND,
        window: ROUND,
        agg: Aggregate::Count,
    };
    vec![
        ask(Query::measure("m0")),
        ask(Query::measure("m1").filter("region", "r1")),
        ask(Query::measure("m0").filter("instance_type", "t9")),
        ask(Query::measure("m0")
            .filter("region", "r0")
            .filter("region", "r1")),
        ask(Query::measure("m1")
            .filter("region", "r1")
            .filter("region", "r1")),
        ask(Query::measure("m0")
            .filter("az", "a1")
            .filter("instance_type", "t0")
            .filter("az", "a1")),
    ]
}

/// One generated step: a batch of records, or (one step in five, where
/// the phase allows it) a retention pass.
type Step = (
    u8,
    Vec<((usize, usize, usize), (usize, u64, bool, usize, u8))>,
);

fn steps(max: usize) -> impl Strategy<Value = Vec<Step>> {
    // (instance type, region, az — 0: the series has none) and
    // (measure, offset, stamped behind its round, value, grid — below 3:
    // the round's, so that series tie on times; 3: one of the series'
    // own; 4: anywhere in the round).
    let series = (0usize..3, 0usize..2, 0usize..3);
    let record = (
        series,
        (0usize..2, 0u64..4, any::<bool>(), 0usize..3, 0u8..5),
    );
    prop::collection::vec((0u8..5, prop::collection::vec(record, 0..12)), 0..max)
}

fn asks() -> impl Strategy<Value = Vec<Ask>> {
    let filter = (0usize..KEYS.len(), 0usize..VALUES.len());
    // Inverted ranges (`from > to`) hold no point. The store must answer
    // them empty, both when the bounds straddle a series' points (where
    // the bounds check alone keeps the series) and when they lie wholly
    // past its points.
    let range = prop_oneof![
        Just((0u64, u64::MAX)),
        (0u64..12, 0u64..6).prop_map(|(a, n)| (a * ROUND, (a + n) * ROUND)),
        (0u64..8000).prop_map(|t| (t, t)),
        (1u64..12, 1u64..6).prop_map(|(a, n)| ((a + n) * ROUND + 1, a * ROUND)),
        (0u64..8000).prop_map(|t| (t + 1, t)),
        (1u64..4).prop_map(|n| (u64::MAX, u64::MAX - n)),
    ];
    let agg = prop_oneof![
        Just(Aggregate::Mean),
        Just(Aggregate::Count),
        Just(Aggregate::Last),
        Just(Aggregate::Max),
    ];
    let ask = (
        0usize..MEASURES.len(),
        prop::collection::vec(filter, 0..4),
        range,
        0u64..8000,
        1u64..2000,
        agg,
    );
    prop::collection::vec(ask, 1..10).prop_map(|asks| {
        let generated: Vec<Ask> = asks
            .into_iter()
            .map(|(measure, filters, (from, to), at, window, agg)| {
                let query = filters
                    .into_iter()
                    .fold(Query::measure(MEASURES[measure]), |q, (k, v)| {
                        q.filter(KEYS[k], VALUES[v])
                    })
                    .between(from, to);
                Ask {
                    query,
                    at,
                    window,
                    agg,
                }
            })
            .collect();
        generated.into_iter().chain(fixed_asks()).collect()
    })
}

/// The store under test and the reference beside it.
struct Rig {
    db: Database,
    reference: Reference,
    options: TableOptions,
    round: u64,
}

impl Rig {
    fn run(&mut self, wal: &mut Wal, steps: &[Step], retention: bool) {
        for (kind, raw) in steps {
            self.round += 1;
            let now = self.round * ROUND;
            if retention && *kind == 0 {
                self.db.table_mut(TABLE).unwrap().enforce_retention(now);
                self.reference.retain(now);
                continue;
            }
            let batch: Vec<Record> = raw
                .iter()
                .map(
                    |&((ty, region, az), (measure, offset, late, value, grid))| {
                        let time = if late {
                            now.saturating_sub(offset * ROUND + 1)
                        } else {
                            now + offset
                        };
                        let time = match grid {
                            0..=2 => time,
                            3 => time + (ty as u64 * 6 + region as u64 * 3 + az as u64) * 29,
                            _ => time + (offset * 131 + value as u64 * 47 + ty as u64 * 7) % ROUND,
                        };
                        let r = Record::new(time, MEASURES[measure], [1.0, 2.0, 3.0][value])
                            .dimension("instance_type", TYPES[ty])
                            .dimension("region", format!("r{region}"));
                        match az {
                            0 => r,
                            az => r.dimension("az", format!("a{az}")),
                        }
                    },
                )
                .collect();
            let (result, _) = wal.commit(&mut self.db, TABLE, self.options, self.round, &batch, 3);
            result.unwrap();
            for r in &batch {
                self.reference.write(self.options.mode, r);
            }
        }
    }

    fn check(&self, asks: &[Ask]) -> Result<(), TestCaseError> {
        asks.iter()
            .try_for_each(|ask| check(&self.db, &self.reference, ask))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_index_answers_what_a_full_scan_answers(
        before in steps(10),
        logged in steps(5),
        after in steps(10),
        changepoint in any::<bool>(),
        asks in asks(),
    ) {
        let options = TableOptions {
            mode: if changepoint { WriteMode::ChangePoint } else { WriteMode::Dense },
            retention: Some(RETENTION),
        };
        let dir = scratch();
        let mut wal = Wal::open(&dir).unwrap();
        let mut rig = Rig {
            db: Database::new(),
            reference: Reference::default(),
            options,
            round: 0,
        };
        rig.db.create_table(TABLE, options).unwrap();

        rig.run(&mut wal, &before, true);
        rig.check(&asks)?;

        // Checkpoint, log a few more batches, lose the process: the store
        // comes back as a loaded checkpoint with the log replayed over
        // it. Retention is not logged, so none runs in between.
        wal.checkpoint(&rig.db).unwrap();
        rig.run(&mut wal, &logged, false);
        rig.check(&asks)?;
        drop(wal);
        rig.db = recover(&dir).unwrap().0;
        rig.check(&asks)?;

        let mut wal = Wal::open(&dir).unwrap();
        rig.run(&mut wal, &after, true);
        rig.check(&asks)?;
        std::fs::remove_dir_all(&dir).ok();
    }
}
