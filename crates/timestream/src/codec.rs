//! Binary persistence codec.
//!
//! Hand-rolled, versioned format (no external serialization dependency):
//!
//! ```text
//! magic "SPTL" | u8 version | u32 table_count
//! per table: str name | u8 mode | u8 has_retention [u64 retention]
//!            | u32 series_count
//! per series: str measure | u32 dim_count | (str key, str value)*
//!             | u32 blob_len | <compressed points>
//! trailer:   u32 crc32 over everything before it
//! ```
//!
//! Integers are little-endian; strings are `u32` length + UTF-8 bytes.
//! Points are compressed with the delta-of-delta + XOR scheme of
//! [`crate::compress`]. Format version 3 added the whole-file CRC-32
//! trailer (version 2 had none; version 1 stored raw points), which is
//! what guarantees the corruption-matrix property: flipping *any* byte of
//! a saved archive makes [`load`] fail rather than decode garbage.
//!
//! [`save`] is atomic: the archive is serialized in memory, written to a
//! `.tmp` sibling, fsynced, and renamed over the target — a crash mid-save
//! leaves the previous archive untouched and loadable.

use crate::compress::{decode_series, encode_series};
use crate::crc::crc32;
use crate::db::Database;
use crate::error::TsError;
use crate::table::{Entry, Table, TableOptions, WriteMode};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SPTL";
const VERSION: u8 = 3;
/// Bytes of `magic | version` before the first table.
const FILE_HEADER_LEN: usize = 5;
/// Guards length fields against corrupt files asking for absurd
/// allocations.
pub(crate) const MAX_LEN: u32 = 64 * 1024 * 1024;

pub(crate) fn save(db: &Database, path: &Path) -> Result<(), TsError> {
    atomic_write(path, &encode(db)?)?;
    Ok(())
}

pub(crate) fn load(path: &Path) -> Result<Database, TsError> {
    decode(&std::fs::read(path)?)
}

/// One table of an archive image: its name, its options and the series
/// to write, `(measure, series)` in [`Table::series_entries`] order. A
/// whole table, or the slice of one a shard owns.
pub(crate) struct TableSlice<'a> {
    pub(crate) name: &'a str,
    pub(crate) options: TableOptions,
    pub(crate) series: Vec<(&'a str, Entry<'a>)>,
}

/// Serializes the database to the version-3 byte format: every series of
/// every table, through [`encode_tables`].
pub(crate) fn encode(db: &Database) -> Result<Vec<u8>, TsError> {
    let tables: Vec<TableSlice<'_>> = db
        .tables()
        .iter()
        .map(|(name, table)| TableSlice {
            name,
            options: table.options(),
            series: table.series_entries().collect(),
        })
        .collect();
    encode_tables(&tables)
}

/// Serializes `tables` to the version-3 byte format, CRC trailer
/// included — the bytes [`encode`] writes for a database holding exactly
/// these tables and series. Fails closed with [`TsError::TooLarge`] if
/// any collection cannot express its length as a `u32` — nothing is ever
/// truncated into a length field.
pub(crate) fn encode_tables(tables: &[TableSlice<'_>]) -> Result<Vec<u8>, TsError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_len(&mut out, tables.len(), "table count")?;
    for table in tables {
        put_str(&mut out, table.name)?;
        let opts = table.options;
        let mode = match opts.mode {
            WriteMode::Dense => 0u8,
            WriteMode::ChangePoint => 1u8,
        };
        out.push(mode);
        match opts.retention {
            Some(r) => {
                out.push(1);
                put_u64(&mut out, r);
            }
            None => out.push(0),
        }
        put_len(&mut out, table.series.len(), "series count")?;
        for &(measure, s) in &table.series {
            put_str(&mut out, measure)?;
            put_len(&mut out, s.dimensions.len(), "dimension count")?;
            for (k, v) in s.dimensions.iter() {
                put_str(&mut out, k)?;
                put_str(&mut out, v)?;
            }
            let blob = encode_series(s.series.points());
            put_len(&mut out, blob.len(), "series blob")?;
            out.extend_from_slice(&blob);
        }
    }
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    Ok(out)
}

/// Decodes a version-3 archive. Every length field is bounded by the
/// bytes actually remaining in the buffer *before* any allocation, so a
/// corrupt file can never request an implausible allocation — and the CRC
/// trailer is verified first, so it never gets the chance to.
pub(crate) fn decode(bytes: &[u8]) -> Result<Database, TsError> {
    let body_len = match bytes.len().checked_sub(4) {
        Some(n) if n >= FILE_HEADER_LEN => n,
        _ => return Err(corrupt("file too short")),
    };
    if bytes.get(..MAGIC.len()) != Some(MAGIC.as_slice()) {
        return Err(corrupt("bad magic"));
    }
    match bytes.get(MAGIC.len()).copied() {
        Some(VERSION) => {}
        Some(version) => {
            return Err(TsError::Corrupt {
                detail: format!("unsupported version {version}"),
            })
        }
        None => return Err(corrupt("file too short")),
    }
    let body = bytes
        .get(..body_len)
        .ok_or_else(|| corrupt("file too short"))?;
    let stored = read_u32_le(bytes, body_len).ok_or_else(|| corrupt("file too short"))?;
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut db = Database::new();
    let frames = body
        .get(FILE_HEADER_LEN..)
        .ok_or_else(|| corrupt("file too short"))?;
    let mut c = Cursor::new(frames);
    let table_count = c.u32()?;
    for _ in 0..table_count {
        let name = c.str_()?;
        let mode = match c.u8()? {
            0 => WriteMode::Dense,
            1 => WriteMode::ChangePoint,
            m => {
                return Err(TsError::Corrupt {
                    detail: format!("unknown write mode {m}"),
                })
            }
        };
        let retention = match c.u8()? {
            0 => None,
            1 => Some(c.u64()?),
            f => {
                return Err(TsError::Corrupt {
                    detail: format!("bad retention flag {f}"),
                })
            }
        };
        let mut table = Table::new(TableOptions { mode, retention });
        let series_count = c.u32()?;
        for _ in 0..series_count {
            let measure = c.str_()?;
            let dims = c.dimensions()?;
            let blob_len = c.u32()?;
            check_len(blob_len)?;
            let blob = c.take(blob_len as usize)?;
            let points = decode_series(blob)?;
            table.insert_series_raw(dims.into(), &measure, points);
        }
        db.insert_table_raw(name, table);
    }
    // Trailing garbage means the file is not what we wrote.
    if !c.is_done() {
        return Err(corrupt("trailing data"));
    }
    Ok(db)
}

/// Writes `bytes` to `path` atomically: temp sibling + fsync + rename.
/// A crash at any point leaves either the old file or the new one, never
/// a torn mixture.
///
/// This is the single designated write path for durable artifacts — the
/// workspace lint (rule `durability`) rejects raw `File::create` +
/// `write` anywhere else in the persistence layer.
///
/// # Errors
///
/// Returns [`TsError::Io`] on filesystem failure; the temp sibling may
/// remain but the target is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), TsError> {
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Truncates `path` to `len` bytes and fsyncs — the designated helper for
/// cutting a torn WAL tail. Part of the audited durability surface next
/// to [`atomic_write`].
pub(crate) fn truncate_sync(path: &Path, len: u64) -> Result<(), TsError> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    f.sync_all()?;
    Ok(())
}

/// The temp sibling [`atomic_write`] stages into: `<path>.tmp`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

fn corrupt(detail: &str) -> TsError {
    TsError::Corrupt {
        detail: detail.to_owned(),
    }
}

pub(crate) fn check_len(n: u32) -> Result<(), TsError> {
    if n > MAX_LEN {
        return Err(TsError::Corrupt {
            detail: format!("length field {n} exceeds limit"),
        });
    }
    Ok(())
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a collection/byte length as a `u32` field, failing closed with
/// [`TsError::TooLarge`] when it cannot fit — never narrowing silently.
pub(crate) fn put_len(out: &mut Vec<u8>, n: usize, what: &'static str) -> Result<(), TsError> {
    let v = u32::try_from(n).map_err(|_| TsError::TooLarge { what })?;
    put_u32(out, v);
    Ok(())
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), TsError> {
    put_len(out, s.len(), "string length")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Reads a little-endian `u32` at byte offset `at`, if those four bytes
/// exist — the bounds-checked primitive frame scanning is built on.
pub(crate) fn read_u32_le(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let slice = bytes.get(at..end)?;
    <[u8; 4]>::try_from(slice).ok().map(u32::from_le_bytes)
}

/// Bounds-checked reader over an in-memory buffer. Every read verifies
/// the requested bytes actually remain, so no length field can drive an
/// allocation or read past the end.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    pub(crate) fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TsError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("truncated input"))?;
        let slice = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| corrupt("truncated input"))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, TsError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or_else(|| corrupt("truncated input"))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, TsError> {
        let arr = <[u8; 4]>::try_from(self.take(4)?).map_err(|_| corrupt("truncated input"))?;
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, TsError> {
        let arr = <[u8; 8]>::try_from(self.take(8)?).map_err(|_| corrupt("truncated input"))?;
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn str_(&mut self) -> Result<String, TsError> {
        let len = self.u32()?;
        check_len(len)?;
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// Reads a dimension list: `u32 count | (str key, str value)*`. The
    /// count is bounded by the bytes remaining (each entry needs at least
    /// its two length prefixes) before the vector is allocated.
    pub(crate) fn dimensions(&mut self) -> Result<Vec<(String, String)>, TsError> {
        let count = self.u32()? as usize;
        if count > self.remaining() / 8 {
            return Err(corrupt("dimension count implausible for payload size"));
        }
        let mut dims = Vec::with_capacity(count);
        for _ in 0..count {
            let k = self.str_()?;
            let v = self.str_()?;
            dims.push((k, v));
        }
        Ok(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::record::Record;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotlake-ts-codec-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_roundtrip() {
        let mut db = Database::new();
        db.create_table(
            "prices",
            TableOptions {
                mode: WriteMode::ChangePoint,
                retention: Some(7_776_000),
            },
        )
        .unwrap();
        db.create_table("scores", TableOptions::default()).unwrap();
        db.write(
            "scores",
            &[
                Record::new(0, "sps", 3.0).dimension("instance_type", "m5.large"),
                Record::new(600, "sps", 2.0).dimension("instance_type", "m5.large"),
                Record::new(0, "if_score", 2.5).dimension("region", "us-east-1"),
            ],
        )
        .unwrap();
        db.write("prices", &[Record::new(0, "spot_price", 0.0928)])
            .unwrap();

        let path = tempfile("roundtrip");
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.table_names(), vec!["prices", "scores"]);
        assert_eq!(loaded.point_count(), db.point_count());
        let rows = loaded
            .query(
                "scores",
                &Query::measure("sps").filter("instance_type", "m5.large"),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value, 3.0);
        let opts = loaded.table("prices").unwrap().options();
        assert_eq!(opts.mode, WriteMode::ChangePoint);
        assert_eq!(opts.retention, Some(7_776_000));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let path = tempfile("bad-magic");
        std::fs::write(&path, b"NOPE.....").unwrap();
        assert!(matches!(
            Database::load(&path),
            Err(TsError::Corrupt { .. })
        ));
        std::fs::write(&path, b"SP").unwrap();
        assert!(Database::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        let path = tempfile("trailing");
        db.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0xFF);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Database::load(&path),
            Err(TsError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_database_roundtrip() {
        let db = Database::new();
        let path = tempfile("empty");
        db.save(&path).unwrap();
        let loaded = Database::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(loaded.table_names().is_empty());
    }

    #[test]
    fn old_version_is_rejected_not_misread() {
        let db = Database::new();
        let mut bytes = encode(&db).unwrap();
        bytes[4] = 2; // pretend to be the pre-checksum format
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported version 2"), "{err}");
    }

    #[test]
    fn interrupted_save_leaves_the_old_archive_loadable() {
        // First generation saved successfully.
        let mut db = Database::new();
        db.create_table("t", TableOptions::default()).unwrap();
        db.write("t", &[Record::new(0, "m", 1.0)]).unwrap();
        let path = tempfile("interrupted");
        db.save(&path).unwrap();

        // Second save dies mid-write: only a prefix of the new bytes
        // reaches the temp sibling and the rename never happens — exactly
        // the state a crash inside `atomic_write` leaves behind.
        db.write("t", &[Record::new(600, "m", 2.0)]).unwrap();
        let next = encode(&db).unwrap();
        std::fs::write(tmp_path(&path), &next[..next.len() / 2]).unwrap();

        let loaded = Database::load(&path).expect("old archive survives a torn save");
        assert_eq!(loaded.point_count(), 1, "the first generation, untouched");
        // And the torn temp file itself never loads as a database.
        assert!(Database::load(tmp_path(&path)).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmp_path(&path)).ok();
    }

    #[test]
    fn cursor_bounds_every_read() {
        let mut c = Cursor::new(&[1, 0, 0, 0]);
        assert_eq!(c.u32().unwrap(), 1);
        assert!(c.u8().is_err(), "reads past the end fail");
        // A dimension count far beyond the remaining bytes is rejected
        // before any allocation.
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(Cursor::new(&huge).dimensions().is_err());
        // A string length beyond the remaining bytes likewise.
        let mut s = Vec::new();
        put_u32(&mut s, 1000);
        s.extend_from_slice(b"short");
        assert!(Cursor::new(&s).str_().is_err());
    }
}
