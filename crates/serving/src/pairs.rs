//! Dimension pairs encoded once per response.
//!
//! A row answer draws every row's dimensions from one measure's pair
//! dictionary ([`RowScan::pairs`](spotlake_timestream::RowScan::pairs)),
//! which holds far fewer pairs than the answer holds rows. The row
//! encoders write each pair's bytes the first time the response uses it
//! and copy them for every later row, so a row costs a few copies of
//! bytes the response already holds rather than a read of each of its
//! dimension strings.

use spotlake_timestream::{PairId, Pairs};

/// Each pair of a dictionary as `encode` writes it, encoded at its first
/// use in a response and copied from there after. The response body is
/// the side buffer: a pair's bytes are found where the body first holds
/// them, so the cache costs one allocation, its table of positions.
pub(crate) struct EncodedPairs<'a> {
    pairs: &'a Pairs,
    encode: fn(&mut String, &str, &str),
    /// By pair id: where the body holds its bytes; empty until written.
    at: Vec<(u32, u32)>,
}

impl<'a> EncodedPairs<'a> {
    pub(crate) fn new(pairs: &'a Pairs, encode: fn(&mut String, &str, &str)) -> Self {
        EncodedPairs {
            pairs,
            encode,
            at: vec![(0, 0); pairs.len()],
        }
    }

    /// Appends the bytes of pair `id` to `out`, the response body every
    /// call is given: copied from an earlier row, or encoded now at the
    /// pair's first use. An id the dictionary never gave writes nothing.
    pub(crate) fn write(&mut self, out: &mut String, id: PairId) {
        let Some(slot) = self.at.get_mut(id as usize) else {
            return;
        };
        let (start, end) = (slot.0 as usize, slot.1 as usize);
        if start < end {
            out.extend_from_within(start..end);
        } else if let Some((key, value)) = self.pairs.get(id) {
            let start = out.len();
            (self.encode)(out, key, value);
            // A body past 4 GiB encodes its later pairs again rather than
            // record a position that does not fit.
            if let (Ok(start), Ok(end)) = (u32::try_from(start), u32::try_from(out.len())) {
                *slot = (start, end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_obs::QueryCtx;
    use spotlake_timestream::{Database, Query, Record, RowKind, TableOptions};

    #[test]
    fn each_pair_is_encoded_once_and_copied_after() {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        let r = |t, az: &str| {
            Record::new(t, "m", 1.0)
                .dimension("az", az)
                .dimension("region", "r")
        };
        db.write("t", &[r(0, "a"), r(0, "b"), r(600, "a")]).unwrap();
        let (scan, _) = db
            .scan_rows(
                "t",
                &Query::measure("m"),
                RowKind::Range,
                usize::MAX,
                QueryCtx::default(),
            )
            .unwrap();
        let mut encodings = 0;
        let mut pairs = EncodedPairs::new(scan.pairs(), |out, k, v| {
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        });
        let mut out = String::new();
        for row in scan.iter() {
            for &id in row.dimensions.ids() {
                encodings += usize::from(pairs.at[id as usize] == (0, 0));
                pairs.write(&mut out, id);
                out.push(' ');
            }
            out.push('|');
        }
        assert_eq!(out, "az=a region=r |az=b region=r |az=a region=r |");
        assert_eq!(encodings, 3, "az=a, region=r, az=b");
        pairs.write(&mut out, 99);
        assert!(out.ends_with('|'), "an id the dictionary never gave");
    }
}
