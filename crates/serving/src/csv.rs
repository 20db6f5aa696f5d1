//! CSV export for bulk downloads.

use spotlake_timestream::RowScan;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders a row answer as CSV: a `time,value` prefix plus one column per
/// dimension key any returned row carries (blank where a row lacks the
/// key). Fields containing commas, quotes, or newlines are quoted per
/// RFC 4180. A series' keys are read, and its columns encoded, once per
/// response: at its first row.
pub(crate) fn rows_csv(scan: &RowScan<'_>) -> String {
    let mut seen = vec![false; scan.series_count()];
    let mut dim_keys: BTreeSet<&str> = BTreeSet::new();
    for row in scan.iter() {
        if !std::mem::replace(&mut seen[row.series], true) {
            dim_keys.extend(row.dimensions.iter().map(|(k, _)| k.as_str()));
        }
    }

    let mut out = String::new();
    out.push_str("time,value");
    for k in &dim_keys {
        out.push(',');
        push_field(&mut out, k);
    }
    out.push('\n');

    // Where each series' columns sit in `out`; empty until its first row
    // writes them.
    let mut written = vec![(0usize, 0usize); scan.series_count()];
    for row in scan.iter() {
        let _ = write!(out, "{},", row.time);
        push_value(&mut out, row.value);
        match written[row.series] {
            (start, end) if start < end => out.extend_from_within(start..end),
            _ => {
                let start = out.len();
                push_columns(&mut out, row.dimensions, &dim_keys);
                written[row.series] = (start, out.len());
            }
        }
        out.push('\n');
    }
    out
}

/// Appends the dimension columns of a row carrying `dims`, one per
/// header key.
fn push_columns(out: &mut String, dims: &[(String, String)], dim_keys: &BTreeSet<&str>) {
    // Dimensions carrying exactly the header's keys, in the header's
    // order, fill their columns left to right.
    let aligned =
        dims.len() == dim_keys.len() && dims.iter().zip(dim_keys).all(|((k, _), want)| k == want);
    if aligned {
        for (_, v) in dims {
            out.push(',');
            push_field(out, v);
        }
    } else {
        for k in dim_keys {
            out.push(',');
            let v = dims.iter().find(|(rk, _)| rk == k).map(|(_, v)| v.as_str());
            push_field(out, v.unwrap_or(""));
        }
    }
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
    use spotlake_obs::QueryCtx;
    use spotlake_timestream::{Database, Query, Record, RowKind, TableOptions};

    /// The CSV of every row of measure `m` in a table holding `records`.
    fn csv(records: &[Record]) -> String {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        db.write("t", records).unwrap();
        let (scan, _) = db
            .scan_rows(
                "t",
                &Query::measure("m"),
                RowKind::Range,
                usize::MAX,
                QueryCtx::default(),
            )
            .unwrap();
        rows_csv(&scan)
    }

    #[test]
    fn renders_header_and_rows() {
        let csv = csv(&[
            Record::new(600, "m", 3.0)
                .dimension("instance_type", "m5.large")
                .dimension("region", "us-east-1"),
            Record::new(1200, "m", 2.5).dimension("instance_type", "p3.2xlarge"),
        ]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time,value,instance_type,region");
        assert_eq!(lines[1], "600,3,m5.large,us-east-1");
        assert_eq!(lines[2], "1200,2.5,p3.2xlarge,");
    }

    #[test]
    fn quotes_special_fields() {
        let csv = csv(&[Record::new(0, "m", 1.0).dimension("note", "a,b \"c\"")]);
        assert!(csv.contains("\"a,b \"\"c\"\"\""));
    }

    #[test]
    fn empty_rows_give_header_only() {
        assert_eq!(csv(&[]), "time,value\n");
    }

    #[test]
    fn a_series_columns_repeat_for_its_later_rows() {
        let csv = csv(&[
            Record::new(0, "m", 1.0).dimension("k", "x,y"),
            Record::new(0, "m", 2.0).dimension("k", "z"),
            Record::new(600, "m", 3.0).dimension("k", "x,y"),
        ]);
        assert_eq!(csv, "time,value,k\n0,1,\"x,y\"\n0,2,z\n600,3,\"x,y\"\n");
    }
}
