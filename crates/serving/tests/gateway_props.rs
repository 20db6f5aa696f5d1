//! Property tests for the serving layer: the JSON encoder's output is
//! well-formed, the gateway never panics on arbitrary requests, CSV stays
//! rectangular, and the row encoders — which read the store's scan in
//! place — write exactly the bytes of the tree-building encoders they
//! replaced over the rows the `*_profiled` queries return.

use proptest::prelude::*;
use spotlake_obs::QueryCtx;
use spotlake_serving::json::Json;
use spotlake_serving::{ArchiveService, Gateway, HttpRequest, OpsContext};
use spotlake_timestream::{
    Database, Query, Record, Row, ShardHealthRow, ShardSetHealth, ShardState, TableOptions, TsError,
};
use std::collections::BTreeSet;

/// A permissive structural validator: balanced quoting and bracket depth
/// for the subset of JSON our encoder emits.
fn is_structurally_valid_json(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            } else if (c as u32) < 0x20 {
                return false; // raw control character inside a string
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1e12f64..1e12).prop_map(Json::Number),
        ".{0,30}".prop_map(Json::string),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::vec((".{0,10}", inner), 0..6).prop_map(Json::object),
        ]
    })
}

/// The row body the way it used to be built: one `Json` tree per row,
/// every dimension string cloned into it, rendered at the end.
fn rows_json_by_tree(rows: &[Row], truncated: bool, degraded: &[String]) -> String {
    let items: Vec<Json> = rows
        .iter()
        .map(|row| {
            let dims = Json::Object(
                row.dimensions()
                    .iter()
                    .map(|(k, v)| (k.to_owned(), Json::string(v)))
                    .collect(),
            );
            Json::object([
                ("time", Json::from(row.time)),
                ("value", Json::from(row.value)),
                ("dimensions", dims),
            ])
        })
        .collect();
    let mut fields = vec![
        ("rows", Json::Array(items)),
        ("truncated", Json::from(truncated)),
    ];
    if !degraded.is_empty() {
        let shards = degraded.iter().map(Json::string).collect();
        fields.push(("degraded", Json::from(true)));
        fields.push(("quarantined_shards", Json::Array(shards)));
    }
    Json::object(fields).render()
}

/// The CSV body the way it used to be built: a linear search per header
/// key per row and a `String` per number.
fn rows_csv_by_search(rows: &[Row]) -> String {
    let keys: BTreeSet<&str> = rows
        .iter()
        .flat_map(|r| r.dimensions().iter().map(|(k, _)| k))
        .collect();
    let field = |f: &str| {
        if f.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", f.replace('"', "\"\""))
        } else {
            f.to_owned()
        }
    };
    let mut out = String::from("time,value");
    for k in &keys {
        out.push_str(&format!(",{}", field(k)));
    }
    out.push('\n');
    for row in rows {
        let value = if row.value == row.value.trunc() && row.value.abs() < 1e15 {
            format!("{}", row.value as i64)
        } else {
            format!("{}", row.value)
        };
        out.push_str(&format!("{},{value}", row.time));
        for k in &keys {
            let v = row.dimensions().iter().find(|(rk, _)| rk == k);
            out.push_str(&format!(",{}", field(v.map_or("", |(_, v)| v))));
        }
        out.push('\n');
    }
    out
}

/// Dimension sets for generated series, drawn from a small pool of pairs
/// so that series share pairs and the encoders' per-pair bytes are reused
/// across series: keys that repeat, arrive out of order or go missing;
/// values with quotes, backslashes, control characters, CSV separators
/// and non-ASCII text; and one value under two keys.
fn arb_dimension_sets() -> impl Strategy<Value = Vec<Vec<(String, String)>>> {
    let key = prop_oneof![Just("az"), Just("region"), Just("k\""), Just("é")];
    let pair = (key, "[a-c\"\\\n\r\t\u{1}\u{1f},é日 ]{0,8}").prop_map(|(k, v)| (k.to_owned(), v));
    let pool = prop::collection::vec(pair, 1..5).prop_map(|mut pool| {
        for key in ["az", "region"] {
            pool.push((key.to_owned(), "one,\"value\"".to_owned()));
        }
        pool
    });
    let sets = prop::collection::vec(prop::collection::vec(0usize..8, 0..5), 1..5);
    (pool, sets).prop_map(|(pool, sets)| {
        sets.iter()
            .map(|set| set.iter().map(|&i| pool[i % pool.len()].clone()).collect())
            .collect()
    })
}

/// Values that take each branch of the number writer. The store refuses
/// non-finite values, so no row carries one.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000i64..1000).prop_map(|n| n as f64),
        -10.0f64..10.0,
        Just(-0.0),
        Just(1e15),
        Just(-3.5e18),
        Just(999_999_999_999_999.0),
        Just(1e-7),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

/// Timestamps: mostly small, some past 2^53 and past 1e15, where the
/// number writer takes its float branch.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..100_000, 0u64..100_000, 0u64..100_000, any::<u64>()]
}

/// A table `t` of measure `m` holding `points` over the series `sets`.
fn archive(sets: &[Vec<(String, String)>], points: &[(usize, u64, f64)]) -> Database {
    let mut db = Database::new();
    db.create_table("t", TableOptions::default()).unwrap();
    let records: Vec<Record> = points
        .iter()
        .map(|&(set, time, value)| {
            let mut r = Record::new(time, "m", value);
            r.dimensions = sets[set % sets.len()].clone();
            r
        })
        .collect();
    db.write("t", &records).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The gateway encodes rows straight from the store's scan, under a
    /// limit the store applies. For `/query`, `/latest` and `/at`, in JSON
    /// and CSV, at limits 0, 1, n−1, n, n+1 and the default around an
    /// answer of n rows, and with impaired shards flagged or not, the body
    /// is the old encoders' over the `*_profiled` rows cut at the limit,
    /// and EXPLAIN counts all n rows.
    #[test]
    fn in_place_row_encoders_match_the_trees_they_replaced(
        sets in arb_dimension_sets(),
        points in prop::collection::vec((0usize..4, arb_time(), arb_value()), 0..40),
        endpoint in 0usize..3,
        at in arb_time(),
        limit in 0usize..6,
        impaired in prop::collection::vec(
            ("[a-z\"/-]{1,12}", prop_oneof![Just(ShardState::Failed), Just(ShardState::Quarantined)]),
            0..3,
        ),
    ) {
        let db = archive(&sets, &points);
        let q = Query::measure("m");
        let ctx = QueryCtx::default();
        let (path, rows) = match endpoint {
            0 => ("/query?table=t&measure=m".to_owned(), db.query_profiled("t", &q, ctx)),
            1 => ("/latest?table=t&measure=m".to_owned(), db.latest_profiled("t", &q, ctx)),
            _ => (
                format!("/at?table=t&measure=m&timestamp={at}"),
                db.value_at_profiled("t", &q, at, ctx),
            ),
        };
        let rows = rows.unwrap().0;
        let n = rows.len();
        let limit = [Some(0), Some(1), Some(n.saturating_sub(1)), Some(n), Some(n + 1), None][limit];
        let kept = &rows[..n.min(limit.unwrap_or(10_000))];
        let truncated = kept.len() < n;
        let param = limit.map_or(String::new(), |l| format!("&limit={l}"));

        let health = ShardSetHealth {
            shards: impaired
                .iter()
                .map(|(region, state)| ShardHealthRow {
                    dataset: "t".to_owned(),
                    region: region.clone(),
                    state: *state,
                    detail: String::new(),
                    points: 0,
                    commits: 0,
                    commit_failures: 0,
                    last_tick: None,
                })
                .collect(),
        };
        let degraded: Vec<String> = impaired.iter().map(|(region, _)| format!("t/{region}")).collect();
        let ops = OpsContext { shards: Some(&health), ..OpsContext::none() };
        let gateway = Gateway::new();
        let get = |query: String| gateway.handle(&db, &HttpRequest::get(&query).unwrap(), &ops);

        let response = get(format!("{path}{param}"));
        prop_assert_eq!(response.status, 200);
        prop_assert_eq!(response.content_type, "application/json");
        prop_assert_eq!(response.body_text(), rows_json_by_tree(kept, truncated, &degraded));
        prop_assert!(is_structurally_valid_json(&response.body_text()));

        let response = get(format!("{path}{param}&format=csv"));
        prop_assert_eq!(response.status, 200);
        prop_assert_eq!(response.content_type, "text/csv");
        prop_assert_eq!(response.body_text(), rows_csv_by_search(kept));

        let explain = get(format!("{path}{param}&explain=1")).body_text();
        let counted = format!("\"rows_post_filter\":{n}}}");
        prop_assert!(explain.contains(&counted), "{}", explain);
    }

    /// The store refuses a non-finite value, so no row answer carries one.
    #[test]
    fn non_finite_values_never_reach_a_row(value in prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]) {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        let refused = db.write("t", &[Record::new(0, "m", value)]);
        let bad_record = matches!(refused, Err(TsError::BadRecord { .. }));
        prop_assert!(bad_record);
        prop_assert_eq!(db.point_count(), 0);
    }

    #[test]
    fn encoder_output_is_structurally_valid(value in arb_json()) {
        prop_assert!(is_structurally_valid_json(&value.render()));
    }

    /// Whatever the query string, the gateway answers with a status — it
    /// never panics — and every 200 JSON body is structurally valid.
    #[test]
    fn gateway_total_on_arbitrary_requests(query in "[ -~]{0,80}") {
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        db.write(
            "sps",
            &[Record::new(0, "sps", 3.0).dimension("instance_type", "m5.large")],
        )
        .unwrap();
        let Ok(request) = HttpRequest::get(&format!("/query?{query}")) else {
            return Ok(()); // parse rejection is a fine outcome
        };
        let response = ArchiveService::handle(&db, &request);
        prop_assert!((200..=599).contains(&response.status));
        if response.status == 200 && response.content_type == "application/json" {
            prop_assert!(is_structurally_valid_json(&response.body_text()));
        }
    }

    /// CSV output always has the same number of commas on every line.
    #[test]
    fn csv_is_rectangular(
        rows in prop::collection::vec(
            (0u64..1000, -10.0f64..10.0, "[a-z,\"\n]{0,12}"),
            0..30,
        )
    ) {
        let sets: Vec<Vec<(String, String)>> =
            rows.iter().map(|(_, _, dim)| vec![("k".to_owned(), dim.clone())]).collect();
        let points: Vec<(usize, u64, f64)> =
            rows.iter().enumerate().map(|(i, &(time, value, _))| (i, time, value)).collect();
        let db = archive(&sets, &points);
        let request = HttpRequest::get("/query?table=t&measure=m&format=csv").unwrap();
        let csv = ArchiveService::handle(&db, &request).body_text();
        // Count unquoted commas per record (a record may span lines when a
        // field contains newlines, so parse quote-aware).
        let mut commas_per_record = Vec::new();
        let mut commas = 0;
        let mut in_quotes = false;
        for c in csv.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => commas += 1,
                '\n' if !in_quotes => {
                    commas_per_record.push(commas);
                    commas = 0;
                }
                _ => {}
            }
        }
        prop_assert!(!in_quotes, "unbalanced quotes");
        if let Some(&first) = commas_per_record.first() {
            for &n in &commas_per_record {
                prop_assert_eq!(n, first, "ragged CSV: {}", csv);
            }
        }
    }
}
