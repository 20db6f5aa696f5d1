//! Analysis-backed archive endpoints.
//!
//! Section 5.3's dataset-correlation analysis as a *service feature*: a
//! SpotLake user can ask the archive directly how well two spot datasets
//! agree for a given pool, instead of exporting and computing offline.
//!
//! * `GET /correlate?instance_type=T&region=R[&az=Z]` — Pearson and
//!   Spearman coefficients of all three dataset pairs for one pool, plus
//!   the |SPS − IF| difference histogram.
//! * `GET /stats` — archive-wide inventory: tables, series, points, plus
//!   latency-proxy quantiles and the slow-query flight recorder.
//! * `GET /quality` — archive data-quality report: per-dataset coverage,
//!   staleness, and gap counts from the collector's quality monitor.

use crate::gateway::Gateway;
use crate::http::{HttpRequest, HttpResponse};
use crate::json::Json;
use crate::ops::OpsContext;
use spotlake_analysis::{align_step, pearson, spearman, Histogram};
use spotlake_collector::{DatasetHealth, RoundHealth};
use spotlake_obs::{names, DatasetQuality, HistogramSummary};
use spotlake_timestream::{Database, Query, Row, ShardHealthRow};

/// Histogram families whose quantiles `/stats` surfaces. A fixed list
/// keeps the section's key set stable across runs regardless of which
/// registries happen to be lent on a given request.
const QUANTILE_FAMILIES: [names::Histogram; 4] = [
    names::HTTP_RESPONSE_BYTES,
    names::QUERY_COST,
    names::QUERY_ROWS_DECODED,
    names::STORE_QUERY_ROWS,
];

/// How many flight-recorder entries `/stats` lists (the full retained set
/// stays available at `/debug/queries`).
const STATS_SLOW_QUERIES: usize = 5;

pub(crate) fn stats(db: &Database, gateway: &Gateway, ops: &OpsContext) -> HttpResponse {
    let tables: Vec<Json> = db
        .table_names()
        .into_iter()
        .filter_map(|name| {
            // The name came from the listing, but fail closed anyway: a
            // racing drop must degrade the listing, not panic a request.
            let table = db.table(name).ok()?;
            Some(Json::object([
                ("name", Json::from(name)),
                ("series", Json::from(table.series_count() as u64)),
                ("points", Json::from(table.point_count() as u64)),
            ]))
        })
        .collect();
    let mut fields = vec![
        ("tables", Json::Array(tables)),
        ("total_points", Json::from(db.point_count() as u64)),
    ];
    if let Some(c) = ops.collect {
        fields.push((
            "collection",
            Json::object([
                ("rounds", Json::from(c.rounds as u64)),
                ("records_written", Json::from(c.records_written as u64)),
                ("queries_issued", Json::from(c.queries_issued as u64)),
                ("retries", Json::from(c.retries as u64)),
                ("queries_failed", Json::from(c.queries_failed as u64)),
                ("degraded_rounds", Json::from(c.degraded_rounds as u64)),
                ("dead_lettered", Json::from(c.dead_lettered as u64)),
            ]),
        ));
    }
    if let Some(h) = ops.last_round {
        fields.push(("last_round", round_to_json(h)));
    }
    if let Some(r) = ops.recovery {
        fields.push((
            "recovery",
            Json::object([
                ("checkpoint_loaded", Json::from(r.checkpoint_loaded)),
                ("checkpoint_points", Json::from(r.checkpoint_points as u64)),
                ("frames_replayed", Json::from(r.frames_replayed)),
                ("records_replayed", Json::from(r.records_replayed)),
                ("rounds_recovered", Json::from(r.rounds_recovered)),
                ("bytes_truncated", Json::from(r.bytes_truncated)),
                ("point_count", Json::from(r.point_count as u64)),
            ]),
        ));
    }
    if let Some(s) = ops.shards {
        let rows: Vec<Json> = s.shards.iter().map(shard_row_json).collect();
        fields.push((
            "shards",
            Json::object([
                ("total", Json::from(s.total() as u64)),
                ("healthy", Json::from(s.healthy() as u64)),
                ("quarantined", Json::from(s.quarantined().count() as u64)),
                ("rows", Json::Array(rows)),
            ]),
        ));
    }
    fields.push(("quantiles", quantiles_json(db, gateway, ops)));
    fields.push(("slow_queries", slow_queries_json(gateway)));
    HttpResponse::json(Json::object(fields).render())
}

fn shard_row_json(r: &ShardHealthRow) -> Json {
    Json::object([
        ("dataset", Json::from(r.dataset.as_str())),
        ("region", Json::from(r.region.as_str())),
        ("state", Json::from(r.state.as_str())),
        ("detail", Json::from(r.detail.as_str())),
        ("points", Json::from(r.points as u64)),
        ("last_tick", r.last_tick.map_or(Json::Null, Json::from)),
        ("commits", Json::from(r.commits)),
        ("commit_failures", Json::from(r.commit_failures)),
    ])
}

/// Renders p50/p90/p99 summaries for the fixed [`QUANTILE_FAMILIES`],
/// looked up across every registry visible to this request. Quantiles are
/// derived views — they belong here, not in the Prometheus exposition,
/// which stays raw buckets only.
fn quantiles_json(db: &Database, gateway: &Gateway, ops: &OpsContext) -> Json {
    let mut registries = vec![db.metrics(), gateway.http_metrics()];
    registries.extend(ops.registries.iter().copied());
    let families = QUANTILE_FAMILIES.into_iter().map(|family| {
        let series: Vec<Json> = registries
            .iter()
            .flat_map(|r| r.histogram_summaries(family))
            .map(summary_json)
            .collect();
        (family.name, Json::Array(series))
    });
    Json::object(families)
}

fn summary_json(s: HistogramSummary) -> Json {
    let labels = Json::Object(
        s.labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::string(v)))
            .collect(),
    );
    Json::object([
        ("labels", labels),
        ("count", Json::from(s.count)),
        ("sum", Json::from(s.sum)),
        ("p50", Json::from(s.p50)),
        ("p90", Json::from(s.p90)),
        ("p99", Json::from(s.p99)),
    ])
}

/// The most expensive retained queries, for the `/stats` overview.
fn slow_queries_json(gateway: &Gateway) -> Json {
    let entries: Vec<Json> = gateway
        .flight()
        .snapshot()
        .iter()
        .take(STATS_SLOW_QUERIES)
        .map(|e| {
            Json::object([
                ("trace_id", Json::from(e.trace_id)),
                ("request_id", Json::from(e.request_id)),
                ("op", Json::from(e.op.as_str())),
                ("query", Json::from(e.query.as_str())),
                ("cost", Json::from(e.cost)),
                ("rows", Json::from(e.rows)),
            ])
        })
        .collect();
    Json::Array(entries)
}

/// `GET /quality`: the archive data-quality report lent through
/// [`OpsContext::quality`]. A bare archive (no collector attached) answers
/// with the same shape, empty — so dashboards need no special case.
pub(crate) fn quality(ops: &OpsContext) -> HttpResponse {
    let datasets: Vec<Json> = ops
        .quality
        .map(|report| report.datasets.iter().map(dataset_quality_json).collect())
        .unwrap_or_default();
    let tick = ops.quality.map_or(0, |r| r.tick);
    let mut fields = vec![
        ("tick", Json::from(tick)),
        ("datasets", Json::Array(datasets)),
    ];
    if let Some(s) = ops.shards {
        // Sharded archives list their impaired fault domains here, so a
        // dashboard reading coverage also sees which dataset×region
        // slices the coverage currently excludes.
        let impaired: Vec<Json> = s
            .impaired()
            .map(|r| Json::string(format!("{}/{}", r.dataset, r.region)))
            .collect();
        fields.push(("quarantined_shards", Json::Array(impaired)));
    }
    HttpResponse::json(Json::object(fields).render())
}

fn dataset_quality_json(d: &DatasetQuality) -> Json {
    let worst: Vec<Json> = d
        .worst
        .iter()
        .map(|k| {
            Json::object([
                ("key", Json::from(k.key.as_str())),
                ("observed", Json::from(k.observed)),
                ("staleness_ticks", Json::from(k.staleness)),
                ("gaps", Json::from(k.gaps)),
                ("missed_rounds", Json::from(k.missed)),
            ])
        })
        .collect();
    Json::object([
        ("dataset", Json::from(d.dataset.as_str())),
        ("keys_tracked", Json::from(d.keys_tracked)),
        ("keys_stale", Json::from(d.keys_stale)),
        ("gaps_total", Json::from(d.gaps)),
        ("missed_rounds_total", Json::from(d.missed_rounds)),
        ("min_coverage", Json::from(d.min_coverage)),
        ("max_staleness_ticks", Json::from(d.max_staleness)),
        ("worst", Json::Array(worst)),
    ])
}

fn round_to_json(h: &RoundHealth) -> Json {
    let dataset = |d: &DatasetHealth| {
        Json::object([
            ("status", Json::from(d.status.as_str())),
            ("records", Json::from(d.records as u64)),
            ("retries", Json::from(d.retries as u64)),
            ("failed_queries", Json::from(d.failed_queries as u64)),
        ])
    };
    Json::object([
        ("tick", Json::from(h.tick)),
        ("degraded", Json::from(h.is_degraded())),
        ("dead_letter_depth", Json::from(h.dead_letter_depth as u64)),
        ("shards_failed", Json::from(h.shards_failed as u64)),
        ("sps", dataset(&h.sps)),
        ("advisor", dataset(&h.advisor)),
        ("price", dataset(&h.price)),
    ])
}

pub(crate) fn correlate(db: &Database, request: &HttpRequest) -> HttpResponse {
    let Some(instance_type) = request.param("instance_type") else {
        return HttpResponse::error(400, "missing required parameter: instance_type");
    };
    let Some(region) = request.param("region") else {
        return HttpResponse::error(400, "missing required parameter: region");
    };

    // SPS and price live at (type, az); the advisor at (type, region).
    let mut sps_query = Query::measure("sps")
        .filter("instance_type", instance_type)
        .filter("region", region);
    let mut price_query = Query::measure("spot_price")
        .filter("instance_type", instance_type)
        .filter("region", region);
    if let Some(az) = request.param("az") {
        sps_query = sps_query.filter("az", az);
        price_query = price_query.filter("az", az);
    }
    let advisor_query = Query::measure("if_score")
        .filter("instance_type", instance_type)
        .filter("region", region);

    let sps = match db.query("sps", &sps_query) {
        Ok(rows) => to_series(rows),
        Err(e) => return HttpResponse::error(404, &e.to_string()),
    };
    if sps.len() < 2 {
        return HttpResponse::error(
            404,
            &format!("not enough archived sps samples for {instance_type} in {region}"),
        );
    }
    let if_series = db
        .query("advisor", &advisor_query)
        .map(to_series)
        .unwrap_or_default();
    let price = db
        .query("price", &price_query)
        .map(to_series)
        .unwrap_or_default();

    let pair = |a: &[(u64, f64)], b: &[(u64, f64)]| -> Json {
        let (xs, ys) = align_step(a, b);
        Json::object([
            ("samples", Json::from(xs.len() as u64)),
            (
                "pearson",
                pearson(&xs, &ys).map_or(Json::Null, Json::Number),
            ),
            (
                "spearman",
                spearman(&xs, &ys).map_or(Json::Null, Json::Number),
            ),
        ])
    };

    // Figure 9's difference histogram for this pool.
    let (sps_aligned, if_aligned) = align_step(&sps, &if_series);
    let mut differences = Histogram::difference_bins();
    differences.extend(
        sps_aligned
            .iter()
            .zip(&if_aligned)
            .map(|(a, b)| (a - b).abs()),
    );
    let histogram: Vec<Json> = differences
        .rows()
        .into_iter()
        .map(|(center, share)| {
            Json::object([
                ("difference", Json::from(center)),
                ("share_pct", Json::from(share)),
            ])
        })
        .collect();

    HttpResponse::json(
        Json::object([
            ("instance_type", Json::from(instance_type)),
            ("region", Json::from(region)),
            ("sps_x_if", pair(&sps, &if_series)),
            ("sps_x_price", pair(&sps, &price)),
            ("if_x_price", correlate_steps(&sps, &if_series, &price)),
            ("difference_histogram", Json::Array(histogram)),
        ])
        .render(),
    )
}

/// IF and price are both step series; sample both on the SPS tick grid.
fn correlate_steps(ticks: &[(u64, f64)], a: &[(u64, f64)], b: &[(u64, f64)]) -> Json {
    let a_sampled = align_step(ticks, a).1;
    let b_sampled = align_step(ticks, b).1;
    let n = a_sampled.len().min(b_sampled.len());
    let (xs, ys) = (
        &a_sampled[a_sampled.len() - n..],
        &b_sampled[b_sampled.len() - n..],
    );
    Json::object([
        ("samples", Json::from(n as u64)),
        ("pearson", pearson(xs, ys).map_or(Json::Null, Json::Number)),
        (
            "spearman",
            spearman(xs, ys).map_or(Json::Null, Json::Number),
        ),
    ])
}

fn to_series(rows: Vec<Row>) -> Vec<(u64, f64)> {
    rows.into_iter().map(|r| (r.time, r.value)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::ArchiveService;
    use spotlake_timestream::{Record, TableOptions};

    fn archive_with_history() -> Database {
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        db.create_table("advisor", TableOptions::default()).unwrap();
        db.create_table("price", TableOptions::default()).unwrap();
        for t in 0..50u64 {
            db.write(
                "sps",
                &[
                    Record::new(t * 600, "sps", if t % 7 < 5 { 3.0 } else { 2.0 })
                        .dimension("instance_type", "m5.large")
                        .dimension("region", "us-east-1")
                        .dimension("az", "us-east-1a"),
                ],
            )
            .unwrap();
        }
        for t in [0u64, 15_000] {
            db.write(
                "advisor",
                &[Record::new(t, "if_score", if t == 0 { 2.5 } else { 2.0 })
                    .dimension("instance_type", "m5.large")
                    .dimension("region", "us-east-1")],
            )
            .unwrap();
            db.write(
                "price",
                &[Record::new(t, "spot_price", 0.03 + t as f64 * 1e-7)
                    .dimension("instance_type", "m5.large")
                    .dimension("region", "us-east-1")
                    .dimension("az", "us-east-1a")],
            )
            .unwrap();
        }
        db
    }

    fn get(db: &Database, path: &str) -> HttpResponse {
        ArchiveService::handle(db, &HttpRequest::get(path).unwrap())
    }

    #[test]
    fn stats_lists_tables_and_points() {
        let db = archive_with_history();
        let r = get(&db, "/stats");
        assert_eq!(r.status, 200);
        let body = r.body_text();
        assert!(body.contains("\"sps\""));
        assert!(body.contains("total_points"));
    }

    #[test]
    fn correlate_reports_all_pairs() {
        let db = archive_with_history();
        let r = get(&db, "/correlate?instance_type=m5.large&region=us-east-1");
        assert_eq!(r.status, 200, "{}", r.body_text());
        let body = r.body_text();
        assert!(body.contains("sps_x_if"));
        assert!(body.contains("sps_x_price"));
        assert!(body.contains("if_x_price"));
        assert!(body.contains("spearman"));
        assert!(body.contains("difference_histogram"));
    }

    #[test]
    fn correlate_validates_parameters() {
        let db = archive_with_history();
        assert_eq!(get(&db, "/correlate").status, 400);
        assert_eq!(get(&db, "/correlate?instance_type=m5.large").status, 400);
        assert_eq!(
            get(&db, "/correlate?instance_type=warp9.huge&region=us-east-1").status,
            404
        );
    }
}
