//! The gateway router and the "Lambda" handlers.

use crate::csv::rows_csv;
use crate::http::{status_label, HttpRequest, HttpResponse};
use crate::json::{self, Json};
use crate::ops::OpsContext;
use crate::traces::QueryTraces;
use spotlake_obs::{names, FlightEntry, FlightRecorder, QueryCtx, Readiness, Registry};
use spotlake_timestream::{Aggregate, Database, Query, QueryProfile, RowKind, RowScan, TsError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock: a panicking
/// worker thread must not take the gateway's query traces down with it
/// (each push is one whole record).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default measure per well-known archive table; unknown tables must name
/// their measure explicitly (a wrong silent default would return an empty
/// result instead of an error).
fn default_measure(table: &str) -> Option<&'static str> {
    match table {
        "advisor" => Some("if_score"),
        "price" => Some("spot_price"),
        "sps" => Some("sps"),
        _ => None,
    }
}

/// Dimension keys a query may filter on.
const FILTER_KEYS: [&str; 3] = ["instance_type", "region", "az"];

/// Maximum rows a single response returns without an explicit `limit`.
const DEFAULT_LIMIT: usize = 10_000;

/// The static front-end page (served "from object storage" in the paper's
/// architecture).
const INDEX_HTML: &str = "<!doctype html>\n<html><head><title>SpotLake</title></head>\n<body>\n<h1>SpotLake — spot instance dataset archive</h1>\n<p>Query the archive with <code>/query?table=sps&amp;instance_type=m5.large&amp;region=us-east-1</code>.\nEndpoints: /query /latest /at /window /correlate /stats /tables /health /metrics /quality /debug/queries /debug/traces.\nAdd <code>&amp;explain=1</code> to any row query for its plan and cost profile.</p>\n</body></html>\n";

/// Known endpoint paths, used to bound the cardinality of the gateway's
/// per-endpoint metrics (unknown paths are all labelled `other`).
const ENDPOINTS: [&str; 13] = [
    "/",
    "/health",
    "/metrics",
    "/tables",
    "/stats",
    "/correlate",
    "/query",
    "/latest",
    "/at",
    "/window",
    "/quality",
    "/debug/queries",
    "/debug/traces",
];

/// The stateful gateway: routes requests like [`ArchiveService`] and
/// additionally owns the `spotlake_http_*` registry of per-endpoint
/// request counters and size histograms, serves `/metrics` merged across
/// every layer's registry, and answers `/health` from real readiness
/// instead of a constant.
///
/// It also owns the query observability state, each part of a fixed
/// size however many queries it serves: the ring of the newest 1 024
/// query traces behind `/debug/traces`, and a [`FlightRecorder`]
/// retaining the most expensive queries for `/debug/queries` and the
/// `/stats` slow-query listing.
///
/// The gateway is `Send + Sync`: the [`server`](crate::server) worker
/// pool routes concurrent requests through one shared instance.
#[derive(Debug, Default)]
pub struct Gateway {
    http: Registry,
    flight: FlightRecorder,
    traces: Mutex<QueryTraces>,
    /// The next row query's trace id.
    next_trace_id: AtomicU64,
}

impl Clone for Gateway {
    fn clone(&self) -> Self {
        Gateway {
            http: self.http.clone(),
            flight: self.flight.clone(),
            traces: Mutex::new(lock(&self.traces).clone()),
            next_trace_id: AtomicU64::new(self.next_trace_id.load(Ordering::Relaxed)),
        }
    }
}

impl Gateway {
    /// Creates a gateway with an empty request registry.
    pub fn new() -> Self {
        Gateway::default()
    }

    /// The gateway's own registry (`spotlake_http_*` families).
    pub fn http_metrics(&self) -> &Registry {
        &self.http
    }

    /// The slow-query flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Renders the newest query traces as trace-journal JSON lines.
    pub fn query_trace_text(&self) -> String {
        lock(&self.traces).render()
    }

    /// Keeps one event among the query traces — how the serving engine
    /// records SLO alert transitions alongside the queries, so
    /// `/debug/traces` shows alerts in stream order with the traffic
    /// that caused them.
    pub fn record_event(&self, tick: u64, name: &str, attrs: &[(&str, String)]) {
        lock(&self.traces).push_event(tick, name, attrs);
    }

    /// Routes a request, recording it in the gateway's registry.
    ///
    /// Response *size* stands in for latency in the histogram: handler
    /// cost in this in-process service is dominated by rows serialised,
    /// and wall-clock timing would break the byte-identical-metrics
    /// contract.
    pub fn handle(&self, db: &Database, request: &HttpRequest, ops: &OpsContext) -> HttpResponse {
        let response = route(self, db, request, ops);
        let path = match request.path() {
            "/index.html" => "/",
            p if ENDPOINTS.contains(&p) => p,
            _ => "other",
        };
        let status = status_label(response.status);
        self.http.counter_add(
            names::HTTP_REQUESTS_TOTAL,
            &[("path", path), ("status", &status)],
            1,
        );
        self.http.histogram_record(
            names::HTTP_RESPONSE_BYTES,
            &[("path", path)],
            response.body.len() as f64,
        );
        response
    }

    /// `/health`: aggregates the store's own readiness with whatever the
    /// operator lent through [`OpsContext::health`]. Degraded states still
    /// answer 200 (the archive serves what it has); only `unhealthy`
    /// returns 503.
    fn health(db: &Database, ops: &OpsContext) -> HttpResponse {
        let tables = db.table_names().len();
        let mut components = vec![(
            "store".to_owned(),
            Readiness::Ready,
            format!("{tables} tables, {} points", db.point_count()),
        )];
        if let Some(report) = ops.health {
            for c in &report.components {
                components.push((c.name.clone(), c.readiness, c.detail.clone()));
            }
        }
        let overall = components
            .iter()
            .map(|(_, r, _)| *r)
            .max()
            .unwrap_or(Readiness::Ready);
        let items: Vec<Json> = components
            .into_iter()
            .map(|(name, readiness, detail)| {
                Json::object([
                    ("name", Json::from(name.as_str())),
                    ("status", Json::from(readiness.as_str())),
                    ("detail", Json::from(detail.as_str())),
                ])
            })
            .collect();
        let body = Json::object([
            ("status", Json::from(overall.as_str())),
            ("components", Json::Array(items)),
        ])
        .render();
        match overall {
            Readiness::Unhealthy => HttpResponse {
                status: 503,
                content_type: "application/json",
                body: body.into(),
            },
            _ => HttpResponse::json(body),
        }
    }

    /// `/metrics`: one Prometheus text document merged across the store's
    /// registry, the gateway's own, and everything lent via
    /// [`OpsContext::registries`].
    fn metrics(&self, db: &Database, ops: &OpsContext) -> HttpResponse {
        let mut registries = vec![db.metrics(), &self.http];
        registries.extend(ops.registries.iter().copied());
        HttpResponse::text(Registry::render_merged(registries))
    }

    /// Allocates the query context for one row request: the next trace
    /// id, at the operator-supplied tick, carrying the wire-level request
    /// id (when the serving layer lent one).
    fn new_ctx(&self, ops: &OpsContext) -> QueryCtx {
        QueryCtx {
            trace_id: self.next_trace_id.fetch_add(1, Ordering::Relaxed),
            tick: ops.tick,
            request_id: ops.request_id,
        }
    }

    /// Finishes a profiled query: stamps response size into the profile,
    /// offers the flight recorder its entry, records the
    /// `spotlake_query_cost` histogram, swaps in the EXPLAIN body when
    /// `explain=1` was requested, and keeps the profile among the query
    /// traces. The EXPLAIN body still costs the bytes of the body it
    /// replaces.
    fn complete(
        &self,
        request: &HttpRequest,
        mut profile: QueryProfile,
        rows_returned: u64,
        response: HttpResponse,
    ) -> HttpResponse {
        profile.rows_returned = rows_returned;
        profile.response_bytes = response.body.len() as u64;
        let cost = profile.cost();
        let query = request.path_and_query();
        self.flight
            .record_with((cost, profile.trace_id), || FlightEntry {
                trace_id: profile.trace_id,
                request_id: profile.request_id,
                tick: profile.tick,
                op: profile.op.to_owned(),
                query: query.clone(),
                cost,
                rows: rows_returned,
                response_bytes: profile.response_bytes,
            });
        self.http.histogram_record(
            names::QUERY_COST,
            &[("table", profile.table.as_str()), ("op", profile.op)],
            cost as f64,
        );
        let response = if wants_explain(request) {
            HttpResponse::json(explain_json(&profile).render())
        } else {
            response
        };
        lock(&self.traces).push_query(profile, query, cost);
        response
    }

    /// `/query`, `/latest` and `/at`: a row scan, profiled, encoded
    /// straight from the store's answer. `limit` and `format` are read
    /// before the scan — the store keeps only the rows the response
    /// carries, and a request refused for them is no query the store
    /// answered (no trace id, no `spotlake_store_*` or `spotlake_query_*`
    /// sample). Impaired shards the request touches flag a JSON body as a
    /// partial answer; CSV stays schema-stable and unannotated.
    fn rows(
        &self,
        db: &Database,
        request: &HttpRequest,
        ops: &OpsContext,
        kind: RowKind,
    ) -> HttpResponse {
        let (table, q) = match ArchiveService::build_query(db, request) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let (limit, format) = match row_params(request) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let degraded = degraded_shards(request, &table, ops);
        match db.scan_rows(&table, &q, kind, limit, self.new_ctx(ops)) {
            Ok((scan, profile)) => {
                let response = match format {
                    Format::Json => HttpResponse::json(rows_json(&scan, &degraded)),
                    Format::Csv => HttpResponse::csv(rows_csv(&scan)),
                };
                self.complete(request, profile, scan.len() as u64, response)
            }
            Err(e) => store_error(e),
        }
    }

    /// `/at`: value in effect at a timestamp, profiled.
    fn at(&self, db: &Database, request: &HttpRequest, ops: &OpsContext) -> HttpResponse {
        match request.param("timestamp").map(str::parse) {
            Some(Ok(at)) => self.rows(db, request, ops, RowKind::At(at)),
            Some(Err(_)) => HttpResponse::error(400, "timestamp must be an integer"),
            None => HttpResponse::error(400, "missing required parameter: timestamp"),
        }
    }

    /// `/window`: tumbling-window aggregation, profiled.
    fn window(&self, db: &Database, request: &HttpRequest, ops: &OpsContext) -> HttpResponse {
        let (table, q) = match ArchiveService::build_query(db, request) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let window = match request.param("window").map(str::parse) {
            Some(Ok(w)) if w > 0 => w,
            Some(_) => return HttpResponse::error(400, "window must be a positive integer"),
            None => 86_400,
        };
        let agg = match request.param("agg").unwrap_or("mean") {
            "mean" => Aggregate::Mean,
            "min" => Aggregate::Min,
            "max" => Aggregate::Max,
            "count" => Aggregate::Count,
            "sum" => Aggregate::Sum,
            "last" => Aggregate::Last,
            other => {
                return HttpResponse::error(
                    400,
                    &format!("unknown agg: {other} (mean|min|max|count|sum|last)"),
                )
            }
        };
        let degraded = degraded_shards(request, &table, ops);
        match db.query_window_profiled(&table, &q, window, agg, self.new_ctx(ops)) {
            Ok((rows, profile)) => {
                let returned = rows.len() as u64;
                let items: Vec<Json> = rows
                    .iter()
                    .map(|w| {
                        Json::object([
                            ("window_start", Json::from(w.window_start)),
                            ("value", Json::from(w.value)),
                            ("count", Json::from(w.count as u64)),
                        ])
                    })
                    .collect();
                let mut fields = vec![("windows", Json::Array(items))];
                fields.extend(degraded_fields(&degraded));
                let response = HttpResponse::json(Json::object(fields).render());
                self.complete(request, profile, returned, response)
            }
            Err(e) => store_error(e),
        }
    }

    /// `/debug/queries`: the flight recorder's retained top-N, most
    /// expensive first.
    fn debug_queries(&self) -> HttpResponse {
        let queries: Vec<Json> = self
            .flight
            .snapshot()
            .iter()
            .map(|e| {
                Json::object([
                    ("trace_id", Json::from(e.trace_id)),
                    ("request_id", Json::from(e.request_id)),
                    ("tick", Json::from(e.tick)),
                    ("op", Json::from(e.op.as_str())),
                    ("query", Json::from(e.query.as_str())),
                    ("cost", Json::from(e.cost)),
                    ("rows", Json::from(e.rows)),
                    ("response_bytes", Json::from(e.response_bytes)),
                ])
            })
            .collect();
        HttpResponse::json(
            Json::object([
                ("capacity", Json::from(self.flight.capacity() as u64)),
                ("observed", Json::from(self.flight.observed())),
                ("queries", Json::Array(queries)),
            ])
            .render(),
        )
    }

    /// `/debug/traces`: the newest query traces as JSON lines.
    fn debug_traces(&self) -> HttpResponse {
        HttpResponse::plain(self.query_trace_text())
    }
}

/// Whether the request asked for EXPLAIN output instead of rows.
fn wants_explain(request: &HttpRequest) -> bool {
    matches!(request.param("explain"), Some("1") | Some("true"))
}

/// Renders the EXPLAIN body for a completed profile: the executed plan
/// (op, table, measure, filters, range) plus per-stage cost counters and
/// the total cost. `from`/`to` render as strings so `u64::MAX` survives
/// JSON's f64 numbers unmangled.
fn explain_json(profile: &QueryProfile) -> Json {
    let filters = Json::Object(
        profile
            .filters
            .iter()
            .map(|(k, v)| (k.clone(), Json::string(v)))
            .collect(),
    );
    let stage_items: Vec<Json> = profile
        .stages()
        .chunk_by(|a, b| a.0 == b.0)
        .map(|group| {
            let counter_obj = Json::object(group.iter().map(|&(_, k, v)| (k, Json::from(v))));
            Json::object([("stage", Json::from(group[0].0)), ("counters", counter_obj)])
        })
        .collect();
    Json::object([(
        "explain",
        Json::object([
            ("op", Json::from(profile.op)),
            ("table", Json::from(profile.table.as_str())),
            ("measure", Json::from(profile.measure.as_str())),
            ("filters", filters),
            ("from", Json::string(profile.from.to_string())),
            ("to", Json::string(profile.to.to_string())),
            ("trace_id", Json::from(profile.trace_id)),
            ("request_id", Json::from(profile.request_id)),
            ("tick", Json::from(profile.tick)),
            ("stages", Json::Array(stage_items)),
            ("cost", Json::from(profile.cost())),
        ]),
    )])
}

/// The archive web service: a stateless router over a
/// [`Database`].
///
/// Kept for callers that only have an archive: routes identically to
/// [`Gateway`] with an empty [`OpsContext`], but records no request
/// metrics. `/health` still reports the store's real state.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArchiveService;

impl ArchiveService {
    /// Routes a request to its handler.
    pub fn handle(db: &Database, request: &HttpRequest) -> HttpResponse {
        route(&Gateway::new(), db, request, &OpsContext::none())
    }

    fn tables(db: &Database) -> HttpResponse {
        let names: Vec<Json> = db.table_names().into_iter().map(Json::from).collect();
        HttpResponse::json(Json::object([("tables", Json::Array(names))]).render())
    }

    /// Builds the timestream query from request parameters. Returns the
    /// table name and query.
    fn build_query(db: &Database, request: &HttpRequest) -> Result<(String, Query), HttpResponse> {
        let table = request
            .param("table")
            .ok_or_else(|| HttpResponse::error(400, "missing required parameter: table"))?
            .to_owned();
        let measure = match request.param("measure").or_else(|| default_measure(&table)) {
            Some(m) => m.to_owned(),
            None => {
                // Unknown table -> 404; known-but-custom table -> ask for
                // an explicit measure instead of silently matching nothing.
                return Err(match db.table(&table) {
                    Err(e) => HttpResponse::error(404, &e.to_string()),
                    Ok(_) => HttpResponse::error(
                        400,
                        &format!("table {table:?} has no default measure; pass ?measure="),
                    ),
                });
            }
        };
        let mut q = Query::measure(measure);
        for key in FILTER_KEYS {
            if let Some(v) = request.param(key) {
                q = q.filter(key, v);
            }
        }
        let from = match request.param("from") {
            Some(s) => s
                .parse()
                .map_err(|_| HttpResponse::error(400, "from must be an integer timestamp"))?,
            None => 0,
        };
        let to = match request.param("to") {
            Some(s) => s
                .parse()
                .map_err(|_| HttpResponse::error(400, "to must be an integer timestamp"))?,
            None => u64::MAX,
        };
        if from > to {
            return Err(HttpResponse::error(400, "from must not exceed to"));
        }
        Ok((table, q.between(from, to)))
    }
}

/// A row response's encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Json,
    Csv,
}

/// A row request's `limit` (default [`DEFAULT_LIMIT`]) and `format`
/// (default JSON), or the 400 refusing them.
fn row_params(request: &HttpRequest) -> Result<(usize, Format), HttpResponse> {
    let limit = match request.param("limit") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| HttpResponse::error(400, "limit must be an integer"))?,
        None => DEFAULT_LIMIT,
    };
    let format = match request.param("format") {
        Some("csv") => Format::Csv,
        Some("json") | None => Format::Json,
        Some(other) => {
            return Err(HttpResponse::error(
                400,
                &format!("unknown format: {other} (json|csv)"),
            ))
        }
    };
    Ok((limit, format))
}

/// The impaired (quarantined or failed) shards a row request touches:
/// the request's table crossed with its `region` filter — no region
/// filter means every region's shard is in scope. Empty when the
/// archive is in memory only or every relevant shard is healthy. The merged
/// view already excludes lost shards' unrecovered data, so a non-empty
/// result means "these rows are missing a slice", not "this answer is
/// wrong".
fn degraded_shards(request: &HttpRequest, table: &str, ops: &OpsContext) -> Vec<String> {
    let Some(shards) = ops.shards else {
        return Vec::new();
    };
    let region = request.param("region");
    shards
        .impaired()
        .filter(|r| r.dataset == table)
        .filter(|r| region.is_none_or(|want| r.region == want))
        .map(|r| format!("{}/{}", r.dataset, r.region))
        .collect()
}

/// The JSON fields flagging a partial answer, when `degraded` is
/// non-empty: `"degraded":true` plus the impaired shard list.
fn degraded_fields(degraded: &[String]) -> Vec<(&'static str, Json)> {
    if degraded.is_empty() {
        return Vec::new();
    }
    let shards: Vec<Json> = degraded.iter().map(Json::string).collect();
    vec![
        ("degraded", Json::from(true)),
        ("quarantined_shards", Json::Array(shards)),
    ]
}

/// The router shared by [`Gateway::handle`] and [`ArchiveService::handle`].
fn route(
    gateway: &Gateway,
    db: &Database,
    request: &HttpRequest,
    ops: &OpsContext,
) -> HttpResponse {
    match request.path() {
        "/" | "/index.html" => HttpResponse::html(INDEX_HTML),
        "/health" => Gateway::health(db, ops),
        "/metrics" => gateway.metrics(db, ops),
        "/tables" => ArchiveService::tables(db),
        "/stats" => crate::insights::stats(db, gateway, ops),
        "/correlate" => crate::insights::correlate(db, request),
        "/quality" => crate::insights::quality(ops),
        "/query" => gateway.rows(db, request, ops, RowKind::Range),
        "/latest" => gateway.rows(db, request, ops, RowKind::Latest),
        "/at" => gateway.at(db, request, ops),
        "/window" => gateway.window(db, request, ops),
        "/debug/queries" => gateway.debug_queries(),
        "/debug/traces" => gateway.debug_traces(),
        other => HttpResponse::error(404, &format!("no such endpoint: {other}")),
    }
}

/// The JSON body of a row response, written straight into one string:
/// byte for byte what rendering a [`Json`] tree of the same fields gives
/// (object keys in order — `degraded`, `quarantined_shards`, `rows`,
/// `truncated`; per row `dimensions`, `time`, `value`), without building
/// the tree or copying a dimension string to get there. A series'
/// `"dimensions":{…}` member is encoded once per response, at its first
/// row, and copied from there for its later rows.
fn rows_json(scan: &RowScan<'_>, degraded: &[String]) -> String {
    let mut out = String::with_capacity(64 + 128 * scan.len());
    out.push('{');
    if !degraded.is_empty() {
        out.push_str("\"degraded\":true,\"quarantined_shards\":[");
        for (i, shard) in degraded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, shard);
        }
        out.push_str("],");
    }
    out.push_str("\"rows\":[");
    // Where each series' dimensions member sits in `out`; empty until its
    // first row writes it.
    let mut written = vec![(0usize, 0usize); scan.series_count()];
    for (i, row) in scan.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        match written[row.series] {
            (start, end) if start < end => out.extend_from_within(start..end),
            _ => {
                let start = out.len();
                write_dimensions(&mut out, row.dimensions);
                written[row.series] = (start, out.len());
            }
        }
        out.push_str(",\"time\":");
        json::write_number(&mut out, row.time as f64);
        out.push_str(",\"value\":");
        json::write_number(&mut out, row.value);
        out.push('}');
    }
    out.push_str("],\"truncated\":");
    out.push_str(if scan.truncated() { "true" } else { "false" });
    out.push('}');
    out
}

/// Appends the `"dimensions":{…}` member of a row of a series with these
/// dimensions.
fn write_dimensions(out: &mut String, dimensions: &[(String, String)]) {
    out.push_str("\"dimensions\":{");
    if dimensions.is_sorted_by(|a, b| a.0 < b.0) {
        write_pairs(out, dimensions.iter().map(|(k, v)| (k, v)));
    } else {
        // What collecting into a `Json::Object` does: keys in order, the
        // last of a repeated key kept.
        let by_key: BTreeMap<&String, &String> = dimensions.iter().map(|(k, v)| (k, v)).collect();
        write_pairs(out, by_key.into_iter());
    }
    out.push('}');
}

/// Appends `"key":"value"` members, comma-separated.
fn write_pairs<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a String, &'a String)>) {
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_string(out, k);
        out.push(':');
        json::write_string(out, v);
    }
}

fn store_error(e: TsError) -> HttpResponse {
    match e {
        TsError::NoSuchTable(_) => HttpResponse::error(404, &e.to_string()),
        other => HttpResponse::error(500, &other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_timestream::{Record, TableOptions};

    fn archive() -> Database {
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        db.create_table("advisor", TableOptions::default()).unwrap();
        for t in 0..5u64 {
            db.write(
                "sps",
                &[
                    Record::new(t * 600, "sps", 3.0 - (t % 3) as f64)
                        .dimension("instance_type", "m5.large")
                        .dimension("region", "us-east-1")
                        .dimension("az", "us-east-1a"),
                    Record::new(t * 600, "sps", 1.0)
                        .dimension("instance_type", "p3.2xlarge")
                        .dimension("region", "us-east-1")
                        .dimension("az", "us-east-1a"),
                ],
            )
            .unwrap();
        }
        db.write(
            "advisor",
            &[Record::new(0, "if_score", 2.5)
                .dimension("instance_type", "m5.large")
                .dimension("region", "us-east-1")],
        )
        .unwrap();
        db
    }

    fn get(db: &Database, path: &str) -> HttpResponse {
        ArchiveService::handle(db, &HttpRequest::get(path).unwrap())
    }

    #[test]
    fn health_tables_index() {
        let db = archive();
        assert_eq!(get(&db, "/health").status, 200);
        let tables = get(&db, "/tables");
        assert!(tables.body_text().contains("sps"));
        assert!(tables.body_text().contains("advisor"));
        let index = get(&db, "/");
        assert_eq!(index.content_type, "text/html");
        assert_eq!(get(&db, "/nope").status, 404);
    }

    #[test]
    fn query_filters_and_formats() {
        let db = archive();
        let r = get(&db, "/query?table=sps&instance_type=m5.large");
        assert_eq!(r.status, 200);
        let body = r.body_text();
        assert!(body.contains("\"rows\""));
        assert!(body.contains("m5.large"));
        assert!(!body.contains("p3.2xlarge"));

        let csv = get(&db, "/query?table=sps&instance_type=m5.large&format=csv");
        assert_eq!(csv.content_type, "text/csv");
        assert!(csv.body_text().starts_with("time,value"));

        let bad = get(&db, "/query?table=sps&format=xml");
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn query_time_range_and_limit() {
        let db = archive();
        let r = get(
            &db,
            "/query?table=sps&from=600&to=1200&instance_type=m5.large",
        );
        let body = r.body_text();
        assert!(body.contains("\"time\":600"));
        assert!(body.contains("\"time\":1200"));
        assert!(!body.contains("\"time\":1800"));

        let limited = get(&db, "/query?table=sps&limit=1");
        assert!(limited.body_text().contains("\"truncated\":true"));
        let bad = get(&db, "/query?table=sps&limit=x");
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn an_inverted_time_range_is_a_typed_400() {
        let db = archive();
        // 1000 > 500 straddles the series (0..2400); 5000 > 4000 lies
        // past it. Both must be refused before the store is asked.
        for range in ["from=1000&to=500", "from=5000&to=4000", "from=1&to=0"] {
            for endpoint in ["query", "latest", "window", "at"] {
                let path = format!("/{endpoint}?table=sps&timestamp=700&{range}");
                let r = get(&db, &path);
                assert_eq!(r.status, 400, "{path}");
                assert!(
                    r.body_text().contains("from must not exceed to"),
                    "{path}: {}",
                    r.body_text()
                );
            }
        }
        let point = get(
            &db,
            "/query?table=sps&from=600&to=600&instance_type=m5.large",
        );
        assert_eq!(point.status, 200);
        assert!(point.body_text().contains("\"time\":600"));
    }

    #[test]
    fn latest_and_at() {
        let db = archive();
        let r = get(&db, "/latest?table=sps&instance_type=m5.large");
        assert!(r.body_text().contains("\"time\":2400"));

        let r = get(&db, "/at?table=sps&timestamp=700&instance_type=m5.large");
        assert!(r.body_text().contains("\"time\":600"));
        assert_eq!(get(&db, "/at?table=sps").status, 400);
    }

    #[test]
    fn window_aggregation() {
        let db = archive();
        let r = get(
            &db,
            "/window?table=sps&window=1200&agg=count&instance_type=m5.large",
        );
        let body = r.body_text();
        assert!(body.contains("\"windows\""));
        assert!(body.contains("\"count\":2"));
        assert_eq!(get(&db, "/window?table=sps&agg=median").status, 400);
        assert_eq!(get(&db, "/window?table=sps&window=0").status, 400);
    }

    #[test]
    fn advisor_default_measure() {
        let db = archive();
        let r = get(&db, "/query?table=advisor");
        assert!(r.body_text().contains("\"value\":2.5"));
    }

    #[test]
    fn missing_table_is_404() {
        let db = archive();
        assert_eq!(get(&db, "/query?table=nope").status, 404);
        assert_eq!(get(&db, "/query").status, 400);
    }

    #[test]
    fn health_reports_store_and_lent_components() {
        use spotlake_obs::{HealthReport, Readiness};
        let db = archive();
        // Bare archive: store only, ok.
        let r = get(&db, "/health");
        assert_eq!(r.status, 200);
        let body = r.body_text();
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"name\":\"store\""));
        assert!(body.contains("2 tables"));

        // A degraded collector degrades the body but still answers 200.
        let gateway = Gateway::new();
        let mut report = HealthReport::new();
        report.push("collector/sps", Readiness::Degraded, "breaker open");
        let ops = OpsContext {
            health: Some(&report),
            ..OpsContext::none()
        };
        let r = gateway.handle(&db, &HttpRequest::get("/health").unwrap(), &ops);
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("\"status\":\"degraded\""));
        assert!(r.body_text().contains("breaker open"));

        // Unhealthy flips to 503.
        report.push("collector/price", Readiness::Unhealthy, "all failed");
        let ops = OpsContext {
            health: Some(&report),
            ..OpsContext::none()
        };
        let r = gateway.handle(&db, &HttpRequest::get("/health").unwrap(), &ops);
        assert_eq!(r.status, 503);
        assert!(r.body_text().contains("\"status\":\"unhealthy\""));
    }

    #[test]
    fn metrics_merges_store_and_http_families() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        // Generate some traffic first so http families exist.
        gateway.handle(&db, &HttpRequest::get("/query?table=sps").unwrap(), &ops);
        gateway.handle(&db, &HttpRequest::get("/no-such").unwrap(), &ops);
        let r = gateway.handle(&db, &HttpRequest::get("/metrics").unwrap(), &ops);
        assert_eq!(r.status, 200);
        assert!(r.content_type.starts_with("text/plain"));
        let body = r.body_text();
        assert!(body.contains(names::STORE_RECORDS_SUBMITTED_TOTAL.name));
        assert!(
            body.contains("spotlake_http_requests_total{path=\"/query\",status=\"200\"} 1"),
            "{body}"
        );
        assert!(body.contains("spotlake_http_requests_total{path=\"other\",status=\"404\"} 1"));
        assert!(body.contains("spotlake_http_response_bytes_bucket{path=\"/query\""));
        // Exactly one HELP line per family — no duplicates after merging.
        let helps: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("# HELP spotlake_store_queries_total"))
            .collect();
        assert_eq!(helps.len(), 1);
    }

    #[test]
    fn stats_carries_collection_totals_when_lent() {
        use spotlake_collector::{CollectStats, RoundHealth};
        let db = archive();
        let gateway = Gateway::new();
        let collect = CollectStats {
            rounds: 7,
            records_written: 123,
            ..CollectStats::default()
        };
        let last_round = RoundHealth {
            tick: 42,
            ..RoundHealth::default()
        };
        let ops = OpsContext {
            collect: Some(&collect),
            last_round: Some(&last_round),
            ..OpsContext::none()
        };
        let r = gateway.handle(&db, &HttpRequest::get("/stats").unwrap(), &ops);
        let body = r.body_text();
        assert!(body.contains("\"collection\""));
        assert!(body.contains("\"rounds\":7"));
        assert!(body.contains("\"records_written\":123"));
        assert!(body.contains("\"last_round\""));
        assert!(body.contains("\"tick\":42"));
        // Bare ArchiveService keeps the old shape.
        let bare = get(&db, "/stats").body_text();
        assert!(!bare.contains("\"collection\""));
        assert!(bare.contains("total_points"));
    }

    #[test]
    fn explain_returns_plan_instead_of_rows() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let req = HttpRequest::get("/query?table=sps&instance_type=m5.large&explain=1").unwrap();
        let r = gateway.handle(&db, &req, &ops);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/json");
        let body = r.body_text();
        assert!(body.contains("\"explain\""), "{body}");
        assert!(
            !body.contains("\"rows\":["),
            "explain must replace rows: {body}"
        );
        assert!(body.contains("\"op\":\"query\""));
        assert!(body.contains("\"table\":\"sps\""));
        assert!(body.contains("\"stage\":\"prune\""));
        assert!(body.contains("\"stage\":\"scan\""));
        assert!(body.contains("\"series_scanned\":1"), "{body}");
        assert!(
            body.contains(
                "{\"counters\":{\"series_examined\":1,\"series_pruned\":1,\"series_total\":2},\"stage\":\"prune\"}"
            ),
            "{body}"
        );
        assert!(body.contains("\"rows_decoded\":5"), "{body}");
        // 1 examined + 4·1 scanned + 16·1 chunk + 5 decoded + 5 kept
        // + 549 response bytes / 64.
        assert!(body.contains("\"cost\":39,"), "{body}");
        // `explain=true` works too; other values mean rows.
        let r = gateway.handle(
            &db,
            &HttpRequest::get("/query?table=sps&explain=true").unwrap(),
            &ops,
        );
        let body = r.body_text();
        assert!(body.contains("\"explain\""));
        assert!(
            body.contains("\"series_examined\":2,\"series_pruned\":0,\"series_total\":2"),
            "no filter, so the whole measure is examined: {body}"
        );
        let r = gateway.handle(
            &db,
            &HttpRequest::get("/query?table=sps&explain=0").unwrap(),
            &ops,
        );
        assert!(r.body_text().contains("\"rows\""));
    }

    #[test]
    fn explain_cost_matches_query_cost_histogram_sum() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let req = HttpRequest::get("/query?table=sps&instance_type=m5.large&explain=1").unwrap();
        let body = gateway.handle(&db, &req, &ops).body_text();
        let cost: f64 = body
            .split("\"cost\":")
            .nth(1)
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .expect("explain body carries a numeric cost");
        let metrics = gateway
            .handle(&db, &HttpRequest::get("/metrics").unwrap(), &ops)
            .body_text();
        let sum_line = metrics
            .lines()
            .find(|l| l.starts_with("spotlake_query_cost_sum{op=\"query\",table=\"sps\"}"))
            .expect("query cost family rendered");
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(sum, cost, "one query: histogram sum equals EXPLAIN cost");
    }

    #[test]
    fn flight_recorder_surfaces_queries_in_cost_order() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        // A broad scan costs more than a pruned one.
        gateway.handle(
            &db,
            &HttpRequest::get("/query?table=sps&instance_type=m5.large").unwrap(),
            &ops,
        );
        gateway.handle(&db, &HttpRequest::get("/query?table=sps").unwrap(), &ops);
        gateway.handle(
            &db,
            &HttpRequest::get("/latest?table=advisor").unwrap(),
            &ops,
        );
        let r = gateway.handle(&db, &HttpRequest::get("/debug/queries").unwrap(), &ops);
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/json");
        let body = r.body_text();
        assert!(body.contains("\"observed\":3"), "{body}");
        let entries = gateway.flight().snapshot();
        assert_eq!(entries.len(), 3);
        for pair in entries.windows(2) {
            assert!(pair[0].cost >= pair[1].cost, "sorted by cost desc");
        }
        assert_eq!(entries[0].query, "/query?table=sps");
        // The journal holds one root span per query plus stage children.
        let traces = gateway.query_trace_text();
        assert_eq!(
            traces
                .lines()
                .filter(|l| l.contains("\"name\":\"query\""))
                .count(),
            3
        );
        assert!(traces.contains("\"name\":\"scan\""));
        let dump = gateway.handle(&db, &HttpRequest::get("/debug/traces").unwrap(), &ops);
        assert_eq!(dump.content_type, "text/plain");
        assert!(dump.body_text().contains("spotlake-trace"));
    }

    /// What `complete` appended to the gateway's journal before query
    /// traces were kept as records: a root span and one child span per
    /// cost stage, every attribute formatted on the spot.
    fn append_query_spans(
        traces: &mut spotlake_obs::TraceJournal,
        profile: &QueryProfile,
        query: &str,
        cost: u64,
    ) {
        let root = traces.begin_span(profile.tick, "query");
        traces.span_attr(root, "trace_id", profile.trace_id.to_string());
        traces.span_attr(root, "request_id", profile.request_id.to_string());
        traces.span_attr(root, "op", profile.op.to_owned());
        traces.span_attr(root, "table", profile.table.clone());
        traces.span_attr(root, "query", query.to_owned());
        traces.span_attr(root, "cost", cost.to_string());
        let mut current: Option<(&str, spotlake_obs::SpanId)> = None;
        for (stage, name, value) in profile.stages() {
            let span = match current {
                Some((open, span)) if open == stage => span,
                _ => {
                    if let Some((_, open)) = current {
                        traces.end_span(open, profile.tick);
                    }
                    let span = traces.begin_child_span(profile.tick, stage, root);
                    current = Some((stage, span));
                    span
                }
            };
            traces.span_attr(span, name, value.to_string());
        }
        if let Some((_, open)) = current {
            traces.end_span(open, profile.tick);
        }
        traces.end_span(root, profile.tick);
    }

    #[test]
    fn query_traces_below_capacity_render_the_old_journal_byte_for_byte() {
        let db = archive();
        let gateway = Gateway::new();
        let mut reference = spotlake_obs::TraceJournal::new();
        let alert = [
            ("at_micros", "1500".to_owned()),
            ("fast_burn", "14.4000".to_owned()),
            ("from", "ok".to_owned()),
            ("objective", "availability".to_owned()),
            ("to", "page".to_owned()),
        ];
        let paths = [
            "/query?table=sps",
            "/query?table=sps&instance_type=m5.large&format=csv",
            "/latest?table=sps&region=us-east-1",
            "/at?table=sps&timestamp=700&instance_type=p3.2xlarge",
            "/query?table=sps&instance_type=m5.large&explain=1",
            "/window?table=sps&window=1200&agg=max",
            "/health",
            "/query?table=nope",
            "/latest?table=advisor&format=csv&explain=true",
            "/window?table=sps&window=600&agg=count&instance_type=m5.large&explain=1",
        ];
        for (round, tick) in [(0, 3), (1, 4)] {
            let ops = OpsContext {
                tick,
                request_id: 100 + round,
                ..OpsContext::none()
            };
            for path in paths {
                let request = HttpRequest::get(path).unwrap();
                let before = gateway.flight().observed();
                gateway.handle(&db, &request, &ops);
                if gateway.flight().observed() == before {
                    continue; // not a row query the store answered
                }
                let traces = lock(&gateway.traces);
                let (profile, query, cost) = traces.newest_query().expect("a query record");
                assert_eq!(query, request.path_and_query());
                assert_eq!(cost, profile.cost());
                append_query_spans(&mut reference, profile, &request.path_and_query(), cost);
            }
            gateway.record_event(tick, "slo_alert", &alert);
            reference.event(tick, "slo_alert", &alert);
        }
        let rendered = gateway.query_trace_text();
        assert_eq!(gateway.flight().observed(), 16);
        assert_eq!(rendered, reference.render());
        assert!(rendered.starts_with(
            "{\"kind\":\"header\",\"schema\":\"spotlake-trace\",\"version\":2,\"entries\":114}\n"
        ));
        assert_eq!(
            spotlake_obs::TraceJournal::parse(&rendered)
                .expect("parses")
                .render(),
            rendered
        );
    }

    /// The fields of one rendered journal line this test reads.
    fn line_fields(line: &str) -> (u64, Option<u64>, Option<u64>) {
        let number = |key: &str| {
            line.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|n| n.trim_matches('"').parse().ok())
        };
        (
            number("seq").expect("seq"),
            number("parent"),
            number("trace_id"),
        )
    }

    #[test]
    fn query_traces_keep_only_the_newest_capacity_queries() {
        use crate::traces::QUERY_TRACE_CAPACITY as CAP;
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let paths = [
            "/query?table=sps&instance_type=m5.large",
            "/latest?table=sps",
            "/window?table=sps&window=1200",
        ];
        for i in 0..3 * CAP {
            let request = HttpRequest::get(paths[i % paths.len()]).unwrap();
            assert_eq!(gateway.handle(&db, &request, &ops).status, 200);
            assert!(lock(&gateway.traces).len() <= CAP);
        }
        assert_eq!(gateway.flight().observed(), 3 * CAP as u64);
        assert_eq!(lock(&gateway.traces).len(), CAP);

        let text = gateway.query_trace_text();
        let mut lines = text.lines();
        let header = lines.next().expect("header");
        // A query renders as its root span and six stage spans.
        let entries = 7 * CAP;
        assert!(
            header.ends_with(&format!("\"entries\":{entries}}}")),
            "{header}"
        );
        let first_seq = 7 * 2 * CAP as u64;
        let mut root = None;
        let mut trace_ids = Vec::new();
        for (i, line) in lines.enumerate() {
            let (seq, parent, trace_id) = line_fields(line);
            assert_eq!(seq, first_seq + i as u64, "seq is continuous: {line}");
            if line.contains("\"name\":\"query\"") {
                assert_eq!(parent, None);
                root = Some(seq);
                trace_ids.push(trace_id.expect("a root carries its trace id"));
            } else {
                assert_eq!(parent, root, "a stage span names its root: {line}");
            }
        }
        assert_eq!(text.lines().count(), 1 + entries);
        // The newest `CAP` queries, in order: trace ids 2·CAP .. 3·CAP.
        let expected: Vec<u64> = (2 * CAP as u64..3 * CAP as u64).collect();
        assert_eq!(trace_ids, expected);
        let parsed = spotlake_obs::TraceJournal::parse(&text).expect("parses");
        assert_eq!(parsed.render(), text, "a trimmed document round-trips");
    }

    #[test]
    fn two_threads_hammering_handle_keep_ids_and_traces_whole() {
        let db = archive();
        let gateway = Gateway::new();
        const PER_THREAD: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (db, gateway) = (&db, &gateway);
                scope.spawn(move || {
                    let ops = OpsContext {
                        request_id: t,
                        ..OpsContext::none()
                    };
                    for i in 0..PER_THREAD {
                        let path = match i % 5 {
                            0 => "/query?table=sps&instance_type=m5.large",
                            1 => "/latest?table=sps&format=csv",
                            2 => "/window?table=sps&window=600&explain=1",
                            3 => "/debug/traces",
                            _ => "/metrics",
                        };
                        let response = gateway.handle(db, &HttpRequest::get(path).unwrap(), &ops);
                        assert_eq!(response.status, 200, "{path}");
                    }
                    if t == 0 {
                        gateway.record_event(1, "slo_alert", &[("to", "page".to_owned())]);
                    }
                });
            }
        });
        let queries = 2 * 3 * PER_THREAD / 5;
        assert_eq!(gateway.flight().observed(), queries as u64);
        let text = gateway.query_trace_text();
        let mut trace_ids = Vec::new();
        let mut root = None;
        for (i, line) in text.lines().skip(1).enumerate() {
            let (seq, parent, trace_id) = line_fields(line);
            assert_eq!(seq, i as u64);
            if line.contains("\"name\":\"query\"") {
                root = Some(seq);
                trace_ids.push(trace_id.expect("trace id"));
            } else if line.contains("\"kind\":\"span\"") {
                assert_eq!(parent, root, "{line}");
            }
        }
        trace_ids.sort_unstable();
        assert_eq!(trace_ids, (0..queries as u64).collect::<Vec<_>>());
        let http = gateway.http_metrics().render();
        assert!(
            http.contains(&format!(
                "spotlake_http_requests_total{{path=\"/metrics\",status=\"200\"}} {}",
                2 * PER_THREAD / 5
            )),
            "{http}"
        );
    }

    #[test]
    fn trace_ids_are_sequential() {
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let ids: Vec<u64> = (0..3).map(|_| gateway.new_ctx(&ops).trace_id).collect();
        assert_eq!(ids, [0, 1, 2]);
        // A clone continues the count rather than restarting it.
        assert_eq!(gateway.clone().new_ctx(&ops).trace_id, 3);
    }

    #[test]
    fn errors_and_explain_do_not_pollute_flight_recorder() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        // Store error and late parameter error: no flight entries.
        gateway.handle(&db, &HttpRequest::get("/query?table=nope").unwrap(), &ops);
        gateway.handle(
            &db,
            &HttpRequest::get("/query?table=sps&format=xml").unwrap(),
            &ops,
        );
        assert_eq!(gateway.flight().observed(), 0);
        // An EXPLAIN run still records: it executed the scan.
        gateway.handle(
            &db,
            &HttpRequest::get("/query?table=sps&explain=1").unwrap(),
            &ops,
        );
        assert_eq!(gateway.flight().observed(), 1);
    }

    #[test]
    fn a_refused_limit_or_format_is_no_store_query() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let first_trace = gateway.new_ctx(&ops).trace_id;
        for path in [
            "/query?table=sps&limit=x",
            "/latest?table=sps&format=xml",
            "/at?table=sps&timestamp=700&limit=-1",
        ] {
            let r = gateway.handle(&db, &HttpRequest::get(path).unwrap(), &ops);
            assert_eq!(r.status, 400, "{path}");
        }
        let scrape = db.metrics().render();
        for family in [
            names::STORE_QUERIES_TOTAL.name,
            names::STORE_QUERY_ROWS.name,
            names::QUERY_ROWS_POST_FILTER.name,
        ] {
            assert!(!scrape.contains(family), "{family} recorded: {scrape}");
        }
        assert_eq!(gateway.flight().observed(), 0);
        // The refusals took no trace id: the next query gets the next one.
        let body = gateway
            .handle(
                &db,
                &HttpRequest::get("/query?table=sps&explain=1").unwrap(),
                &ops,
            )
            .body_text();
        assert!(
            body.contains(&format!("\"trace_id\":{}}}", first_trace + 1)),
            "{body}"
        );
    }

    #[test]
    fn stats_reports_quantiles_and_slow_queries() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        gateway.handle(&db, &HttpRequest::get("/query?table=sps").unwrap(), &ops);
        let body = gateway
            .handle(&db, &HttpRequest::get("/stats").unwrap(), &ops)
            .body_text();
        assert!(body.contains("\"quantiles\""), "{body}");
        assert!(body.contains("\"spotlake_query_cost\""), "{body}");
        assert!(body.contains("\"p50\""), "{body}");
        assert!(body.contains("\"p99\""), "{body}");
        assert!(body.contains("\"slow_queries\""), "{body}");
        assert!(body.contains("\"query\":\"/query?table=sps\""), "{body}");
    }

    #[test]
    fn quality_without_collector_is_empty_but_well_formed() {
        let db = archive();
        let r = get(&db, "/quality");
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, "application/json");
        assert_eq!(r.body_text(), "{\"datasets\":[],\"tick\":0}");
    }

    #[test]
    fn content_types_per_endpoint() {
        let db = archive();
        let gateway = Gateway::new();
        let ops = OpsContext::none();
        let ct = |path: &str| {
            gateway
                .handle(&db, &HttpRequest::get(path).unwrap(), &ops)
                .content_type
        };
        assert_eq!(ct("/metrics"), "text/plain; version=0.0.4");
        assert_eq!(ct("/debug/traces"), "text/plain");
        assert_eq!(ct("/query?table=sps"), "application/json");
        assert_eq!(ct("/query?table=sps&format=csv"), "text/csv");
        assert_eq!(ct("/health"), "application/json");
        assert_eq!(ct("/"), "text/html");
    }

    #[test]
    fn custom_table_requires_explicit_measure() {
        let mut db = archive();
        db.create_table("mc_price", TableOptions::default())
            .unwrap();
        db.write("mc_price", &[Record::new(0, "spot_price", 0.1)])
            .unwrap();
        // No default measure for a custom table: explicit 400, not an
        // empty 200.
        assert_eq!(get(&db, "/query?table=mc_price").status, 400);
        let ok = get(&db, "/query?table=mc_price&measure=spot_price");
        assert_eq!(ok.status, 200);
        assert!(ok.body_text().contains(r#""value":0.1"#));
    }
}
