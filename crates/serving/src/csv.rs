//! CSV export for bulk downloads.

use crate::pairs::EncodedPairs;
use spotlake_timestream::{PairId, RowScan};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Renders a row answer as CSV: a `time,value` prefix plus one column per
/// dimension key any returned row carries (blank where a row lacks the
/// key; the first value where it repeats one). Fields containing commas,
/// quotes, or newlines are quoted per RFC 4180. A pair's key is read, and
/// its `,value` field encoded, once per response: at its first use.
pub(crate) fn rows_csv(scan: &RowScan<'_>) -> String {
    let pairs = scan.pairs();
    // By pair id: the header column of its key, once a row uses it.
    let mut column = vec![usize::MAX; pairs.len()];
    let mut used: Vec<(PairId, &str)> = Vec::new();
    for row in scan.iter() {
        for &id in row.dimensions.ids() {
            match column.get_mut(id as usize) {
                Some(c) if *c == usize::MAX => {
                    *c = 0;
                    used.extend(pairs.get(id).map(|(k, _)| (id, k)));
                }
                _ => {}
            }
        }
    }
    let dim_keys: BTreeSet<&str> = used.iter().map(|&(_, k)| k).collect();

    let mut out = String::new();
    out.push_str("time,value");
    for k in &dim_keys {
        out.push(',');
        push_field(&mut out, k);
    }
    out.push('\n');

    let keys: Vec<&str> = dim_keys.into_iter().collect();
    for (id, key) in used {
        if let (Some(c), Ok(at)) = (column.get_mut(id as usize), keys.binary_search(&key)) {
            *c = at;
        }
    }
    let mut fields = EncodedPairs::new(pairs, |out, _, value| {
        out.push(',');
        push_field(out, value);
    });
    // By column: the pair filling it in the current row.
    let mut filled: Vec<Option<PairId>> = vec![None; keys.len()];
    for row in scan.iter() {
        let _ = write!(out, "{},", row.time);
        push_value(&mut out, row.value);
        filled.fill(None);
        for &id in row.dimensions.ids() {
            if let Some(slot @ None) = column.get(id as usize).and_then(|&c| filled.get_mut(c)) {
                *slot = Some(id);
            }
        }
        for slot in &filled {
            match slot {
                Some(id) => fields.write(&mut out, *id),
                None => out.push(','),
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
