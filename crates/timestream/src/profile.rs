//! Per-query cost profiles: the deterministic work accounting behind
//! EXPLAIN, the slow-query flight recorder, and the `spotlake_query_*`
//! histograms.
//!
//! Wall-clock latency is banned from this workspace's telemetry (it would
//! break the byte-identical replay contract), so query cost is denominated
//! in *work units* instead: series examined, storage chunks decompressed,
//! rows decoded and filtered, bytes serialized. The store fills a
//! [`QueryProfile`] as a query executes; the serving layer finishes it
//! with response size and keeps it as a query trace, a flight-recorder
//! entry, or an EXPLAIN body.

use crate::query::Query;
use spotlake_obs::QueryCtx;

/// Cost profile of one query, accumulated stage by stage.
///
/// The store fills the scan-side fields; the serving layer sets
/// `rows_returned` and `response_bytes` after serialization. All fields
/// are pure functions of the archive contents and the query — two
/// same-seed runs produce identical profiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryProfile {
    /// Store operation: `query`, `latest`, `value_at`, or `window`.
    pub op: &'static str,
    /// Table queried.
    pub table: String,
    /// Measure queried.
    pub measure: String,
    /// Dimension equality filters applied.
    pub filters: Vec<(String, String)>,
    /// Inclusive time range queried.
    pub from: u64,
    /// See `from`.
    pub to: u64,
    /// Trace id correlating this profile with query traces and flight
    /// records (0 when the query ran without a context).
    pub trace_id: u64,
    /// Wire-level request id (0 for in-process queries) — joins the
    /// profile to the server's request timeline.
    pub request_id: u64,
    /// Simulation tick of the request.
    pub tick: u64,
    /// Tables examined while resolving the query (1 once resolved).
    pub tables_considered: u64,
    /// Series under the measure before any pruning.
    pub series_total: u64,
    /// Series the prune stage looked at to find the candidates: the
    /// entries of the shortest posting list among the query's filters,
    /// or `series_total` when there is no filter to index by.
    pub series_examined: u64,
    /// Series skipped without scanning (filter mismatch or time range
    /// disjoint from the series' bounds).
    pub series_pruned: u64,
    /// Series actually scanned.
    pub series_scanned: u64,
    /// Storage chunks decompressed across scanned series.
    pub chunks_decompressed: u64,
    /// Points decoded out of those chunks.
    pub rows_decoded: u64,
    /// Rows surviving time/aggregation filtering (result rows before any
    /// response limit).
    pub rows_post_filter: u64,
    /// Rows actually returned to the client (after response limits).
    pub rows_returned: u64,
    /// Serialized response body size in bytes.
    pub response_bytes: u64,
}

impl QueryProfile {
    /// Starts a profile for `op` against `table`.
    pub fn start(op: &'static str, table: &str) -> Self {
        QueryProfile {
            op,
            table: table.to_owned(),
            tables_considered: 1,
            ..QueryProfile::default()
        }
    }

    /// Stamps the query context (trace id, request id, tick) into the
    /// profile.
    pub fn with_ctx(mut self, ctx: QueryCtx) -> Self {
        self.trace_id = ctx.trace_id;
        self.request_id = ctx.request_id;
        self.tick = ctx.tick;
        self
    }

    /// Copies the query's shape (measure, filters, time range) into the
    /// profile, so EXPLAIN can echo back exactly what was executed.
    pub fn observe_query(&mut self, q: &Query) {
        self.measure = q.measure_name().to_owned();
        self.filters = q.filters().to_vec();
        let (from, to) = q.time_range();
        self.from = from;
        self.to = to;
    }

    /// The deterministic cost proxy, in work units:
    ///
    /// ```text
    /// cost = series_examined         // candidate enumeration
    ///      + 4  * series_scanned     // per-series scan setup
    ///      + 16 * chunks_decompressed// decompression dominates scans
    ///      + rows_decoded            // decode per point
    ///      + rows_post_filter        // filter/aggregate per row
    ///      + response_bytes / 64     // serialization per 64-byte unit
    /// ```
    ///
    /// The weights are a fixed model, not a measurement: they make
    /// expensive queries rank above cheap ones the way decompression and
    /// scan volume dominate a real columnar store, while staying exactly
    /// reproducible. Integer arithmetic throughout.
    pub fn cost(&self) -> u64 {
        self.series_examined
            + 4 * self.series_scanned
            + 16 * self.chunks_decompressed
            + self.rows_decoded
            + self.rows_post_filter
            + self.response_bytes / 64
    }

    /// The stage costs as `(stage, name, value)` triples in execution
    /// order, one stage's counters contiguous — the EXPLAIN body and the
    /// query traces' child spans are both generated from this one list so
    /// they cannot drift apart.
    pub fn stages(&self) -> [(&'static str, &'static str, u64); 10] {
        [
            ("resolve", "tables_considered", self.tables_considered),
            ("prune", "series_total", self.series_total),
            ("prune", "series_examined", self.series_examined),
            ("prune", "series_pruned", self.series_pruned),
            ("scan", "series_scanned", self.series_scanned),
            ("scan", "chunks_decompressed", self.chunks_decompressed),
            ("decode", "rows_decoded", self.rows_decoded),
            ("filter", "rows_post_filter", self.rows_post_filter),
            ("serialize", "rows_returned", self.rows_returned),
            ("serialize", "response_bytes", self.response_bytes),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weights_scan_work_over_row_count() {
        let mut p = QueryProfile::start("query", "sps");
        p.series_total = 10;
        p.series_examined = 4;
        p.series_scanned = 2;
        p.chunks_decompressed = 3;
        p.rows_decoded = 100;
        p.rows_post_filter = 100;
        p.response_bytes = 640;
        assert_eq!(
            p.cost(),
            4 + 8 + 48 + 100 + 100 + 10,
            "enumeration is charged for the series examined, not the table's size"
        );
        assert_eq!(p.tables_considered, 1);
    }

    #[test]
    fn ctx_stamps_trace_id_and_tick() {
        let p = QueryProfile::start("latest", "price").with_ctx(QueryCtx {
            trace_id: 7,
            tick: 42,
            request_id: 19,
        });
        assert_eq!(p.trace_id, 7);
        assert_eq!(p.tick, 42);
        assert_eq!(p.request_id, 19);
        assert_eq!(p.op, "latest");
    }

    #[test]
    fn stages_enumerate_every_cost_field_in_order() {
        let p = QueryProfile::start("query", "t");
        let stages = p.stages();
        assert_eq!(stages.len(), 10);
        assert_eq!(stages[0], ("resolve", "tables_considered", 1));
        assert_eq!(stages[2], ("prune", "series_examined", 0));
        assert_eq!(stages.last().unwrap().1, "response_bytes");
        // Stage grouping is contiguous, matching span emission order.
        let order: Vec<&str> = stages.iter().map(|s| s.0).collect();
        let mut dedup = order.clone();
        dedup.dedup();
        assert_eq!(
            dedup,
            ["resolve", "prune", "scan", "decode", "filter", "serialize"]
        );
    }
}
