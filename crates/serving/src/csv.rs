//! CSV export for bulk downloads.

use spotlake_timestream::Row;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Renders rows as CSV: a `time,value` prefix plus one column per dimension
/// key seen anywhere in the result set (blank where a row lacks the key).
/// Fields containing commas, quotes, or newlines are quoted per RFC 4180.
pub fn rows_to_csv(rows: &[Row]) -> String {
    // Consecutive rows of one series share their dimensions' allocation,
    // so most rows add nothing to the header and are skipped unread.
    let mut dim_keys: BTreeSet<&str> = BTreeSet::new();
    let mut previous: Option<&Row> = None;
    for row in rows {
        if !previous.is_some_and(|p| Arc::ptr_eq(&p.dimensions, &row.dimensions)) {
            dim_keys.extend(row.dimensions.iter().map(|(k, _)| k.as_str()));
        }
        previous = Some(row);
    }

    let mut out = String::new();
    out.push_str("time,value");
    for k in &dim_keys {
        out.push(',');
        push_field(&mut out, k);
    }
    out.push('\n');

    for row in rows {
        let _ = write!(out, "{},", row.time);
        push_value(&mut out, row.value);
        let dims = &row.dimensions;
        // A row carrying exactly the header's keys, in the header's
        // order, fills its columns left to right.
        let aligned = dims.len() == dim_keys.len()
            && dims.iter().zip(&dim_keys).all(|((k, _), want)| k == want);
        if aligned {
            for (_, v) in dims.iter() {
                out.push(',');
                push_field(&mut out, v);
            }
        } else {
            for k in &dim_keys {
                out.push(',');
                let v = dims.iter().find(|(rk, _)| rk == k).map(|(_, v)| v.as_str());
                push_field(&mut out, v.unwrap_or(""));
            }
        }
        out.push('\n');
    }
    out
}

fn push_value(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn push_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(time: u64, value: f64, dims: &[(&str, &str)]) -> Row {
        Row {
            time,
            value,
            dimensions: dims
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn renders_header_and_rows() {
        let rows = vec![
            row(
                600,
                3.0,
                &[("instance_type", "m5.large"), ("region", "us-east-1")],
            ),
            row(1200, 2.5, &[("instance_type", "p3.2xlarge")]),
        ];
        let csv = rows_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,value,instance_type,region");
        assert_eq!(lines[1], "600,3,m5.large,us-east-1");
        assert_eq!(lines[2], "1200,2.5,p3.2xlarge,");
    }

    #[test]
    fn quotes_special_fields() {
        let rows = vec![row(0, 1.0, &[("note", "a,b \"c\"")])];
        let csv = rows_to_csv(&rows);
        assert!(csv.contains("\"a,b \"\"c\"\"\""));
    }

    #[test]
    fn empty_rows_give_header_only() {
        assert_eq!(rows_to_csv(&[]), "time,value\n");
    }
}
