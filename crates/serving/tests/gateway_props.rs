//! Property tests for the serving layer: the JSON encoder's output is
//! well-formed, the gateway never panics on arbitrary requests, CSV stays
//! rectangular, and the in-place row encoders write exactly the bytes of
//! the tree-building encoders they replaced.

use proptest::prelude::*;
use spotlake_serving::json::Json;
use spotlake_serving::{rows_to_csv, ArchiveService, HttpRequest};
use spotlake_timestream::{Database, Record, Row, TableOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

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
                row.dimensions
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::string(v)))
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
        .flat_map(|r| r.dimensions.iter().map(|(k, _)| k.as_str()))
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
            let v = row.dimensions.iter().find(|(rk, _)| rk == k);
            out.push_str(&format!(",{}", field(v.map_or("", |(_, v)| v))));
        }
        out.push('\n');
    }
    out
}

/// Dimension sets for generated rows: keys that repeat, arrive out of
/// order or go missing; values with quotes, backslashes, control
/// characters, CSV separators and non-ASCII text.
fn arb_dimension_sets() -> impl Strategy<Value = Vec<Arc<[(String, String)]>>> {
    let key = prop_oneof![Just("az"), Just("region"), Just("k\""), Just("é")];
    let pair = (key, "[a-c\"\\\n\r\t\u{1}\u{1f},é日 ]{0,8}").prop_map(|(k, v)| (k.to_owned(), v));
    prop::collection::vec(prop::collection::vec(pair, 0..4).prop_map(Arc::from), 1..5)
}

/// Values that take each branch of the number writer.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000i64..1000).prop_map(|n| n as f64),
        -10.0f64..10.0,
        Just(-0.0),
        Just(1e15),
        Just(-3.5e18),
        Just(999_999_999_999_999.0),
        Just(1e-7),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `respond_rows` writes rows straight into the body; the bytes are
    /// those of the tree rendered the old way, for JSON and for CSV, at
    /// every row count, limit and degraded-shard list.
    #[test]
    fn in_place_row_encoders_match_the_trees_they_replaced(
        sets in arb_dimension_sets(),
        points in prop::collection::vec((0u64..4, any::<u64>(), arb_value()), 0..40),
        count in prop_oneof![Just(0usize), Just(1), Just(40)],
        limit in prop_oneof![Just(None), Just(Some(0usize)), Just(Some(1)), Just(Some(7)), Just(Some(1000))],
        degraded in prop::collection::vec("[a-z\"/-]{1,12}", 0..3),
    ) {
        // Runs of rows share one allocation, as a series' rows do.
        let rows: Vec<Row> = points
            .into_iter()
            .take(count)
            .map(|(set, time, value)| Row {
                // Times past 2^53 and past 1e15 take the float branch.
                time: if time % 3 == 0 { time } else { time % 100_000 },
                value,
                dimensions: Arc::clone(&sets[set as usize % sets.len()]),
            })
            .collect();
        let query = limit.map_or(String::new(), |n| format!("&limit={n}"));
        let kept = &rows[..rows.len().min(limit.unwrap_or(10_000))];
        let truncated = kept.len() < rows.len();

        let request = HttpRequest::get(&format!("/query?table=t{query}")).unwrap();
        let (response, returned) = ArchiveService::respond_rows(&request, rows.clone(), &degraded);
        prop_assert_eq!(returned, kept.len() as u64);
        prop_assert_eq!(response.content_type, "application/json");
        prop_assert_eq!(
            response.body_text(),
            rows_json_by_tree(kept, truncated, &degraded)
        );
        prop_assert!(is_structurally_valid_json(&response.body_text()));

        let request = HttpRequest::get(&format!("/query?table=t&format=csv{query}")).unwrap();
        let (response, returned) = ArchiveService::respond_rows(&request, rows.clone(), &degraded);
        prop_assert_eq!(returned, kept.len() as u64);
        prop_assert_eq!(response.content_type, "text/csv");
        prop_assert_eq!(response.body_text(), rows_csv_by_search(kept));
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
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(time, value, dim)| Row {
                time,
                value,
                dimensions: vec![("k".to_owned(), dim)].into(),
            })
            .collect();
        let csv = rows_to_csv(&rows);
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
