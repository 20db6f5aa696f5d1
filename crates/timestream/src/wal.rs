//! Write-ahead log: the durability half of the archive.
//!
//! Every committed write batch is appended here — checksummed and
//! length-prefixed — *before* it is applied in memory, so a crash at any
//! instant loses at most the batch being written, never a committed one.
//! A frame holds the records of the batch that *change state*
//! ([`Wal::commit`]): a change-point record that repeats its series'
//! latest value would be skipped on apply and on replay alike, so it is
//! never logged, and a batch of nothing but repeats writes no frame.
//!
//! ```text
//! wal.log:  magic "SPWL" | u8 version
//! frame:    u32 payload_len | u32 crc32(payload) | payload
//! payload:  u8 kind (1 = batch) | str table | u8 mode
//!           | u8 has_retention [u64 retention] | u64 tick
//!           | u32 record_count
//!           | per record: u64 time | str measure | u64 value_bits
//!                         | u32 dim_count | (str key, str value)*
//! ```
//!
//! Frames carry the table's [`TableOptions`] so recovery can re-create a
//! table that was born after the last checkpoint. [`Wal::checkpoint`]
//! rotates a full snapshot atomically (temp + fsync + rename, via the
//! codec) and then truncates the log back to its header — the snapshot
//! now owns everything the truncated prefix recorded.
//!
//! Fault semantics (see [`crate::iofault`]): transient faults undo the
//! partial append (truncate back to the last committed offset) and return
//! a retryable [`TsError::WalFault`]; crash faults leave the torn/mangled
//! bytes on disk and mark the log **dead** — every later call returns
//! [`TsError::WalDead`] until a restart runs recovery.

use crate::book::SeriesBook;
use crate::codec::{self, check_len, Cursor};
use crate::crc::crc32;
use crate::db::Database;
use crate::error::TsError;
use crate::iofault::{IoFault, IoFaultPlan, IoFaultState};
use crate::record::{Record, Spelled};
use crate::table::{TableOptions, WriteMode};
use std::borrow::Borrow;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 4] = b"SPWL";
const WAL_VERSION: u8 = 1;
/// Bytes of `magic | version` before the first frame.
pub(crate) const HEADER_LEN: u64 = 5;
const FRAME_KIND_BATCH: u8 = 1;
/// Bytes of `payload_len | crc32` before a frame's payload.
const FRAME_HEADER_LEN: usize = 8;

/// The log file inside a WAL directory.
pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// The checkpoint snapshot inside a WAL directory.
pub(crate) fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.db")
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Committed length: every byte below this offset is a fully written,
    /// fsynced frame (or the header).
    len: u64,
    dead: bool,
    faults: IoFaultState,
    frames_appended: u64,
    bytes_appended: u64,
    records_elided: u64,
    checkpoints: u64,
}

/// A snapshot of a [`Wal`]'s counters, for metric export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalStats {
    /// Frames successfully appended and fsynced.
    pub frames_appended: u64,
    /// Bytes those frames occupied (headers included).
    pub bytes_appended: u64,
    /// Records committed without being logged, because writing them
    /// leaves the store unchanged (see [`Wal::commit`]).
    pub records_elided: u64,
    /// Checkpoints successfully rotated.
    pub checkpoints: u64,
    /// Current size of `wal.log`, committed bytes only.
    pub wal_bytes: u64,
    /// Whether an injected crash fault has killed the log.
    pub dead: bool,
    /// Injected faults per kind, sorted by kind name.
    pub faults_injected: Vec<(&'static str, u64)>,
}

/// What one [`Wal::commit`] made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed {
    /// Records the batch offered, logged or not.
    pub offered: usize,
    /// Records the store kept (change-point tables skip repeats).
    pub stored: usize,
}

impl Wal {
    /// Opens (or creates) the log in `dir`, truncating any torn tail left
    /// by a previous crash. Run [`crate::recovery::recover`] first when
    /// in-memory state must be rebuilt — opening alone does not replay.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::Io`] on filesystem failure.
    pub fn open(dir: &Path) -> Result<Wal, TsError> {
        std::fs::create_dir_all(dir)?;
        let path = wal_path(dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let bytes = std::fs::read(&path)?;
        let scan = scan_frames(&bytes);
        let len = if scan.valid_len < HEADER_LEN {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&[WAL_VERSION])?;
            file.sync_data()?;
            HEADER_LEN
        } else {
            if scan.valid_len < bytes.len() as u64 {
                file.set_len(scan.valid_len)?;
            }
            scan.valid_len
        };
        file.seek(SeekFrom::Start(len))?;
        Ok(Wal {
            dir: dir.to_owned(),
            file,
            len,
            dead: false,
            faults: IoFaultState::default(),
            frames_appended: 0,
            bytes_appended: 0,
            records_elided: 0,
            checkpoints: 0,
        })
    }

    /// Arms deterministic disk-fault injection for this log.
    pub fn set_faults(&mut self, plan: IoFaultPlan) {
        self.faults.set_plan(plan);
    }

    /// Commits one batch durably: log what changes state, then apply it.
    ///
    /// Three steps, the same ones a sharded commit runs per shard
    /// ([`crate::ShardedArchive::commit`]): `Database::delta` picks the
    /// records that change state and resolves their series against `db`
    /// as it is before the batch, keeping everything it is not sure
    /// about; `Wal::log` appends them as one frame (transient faults
    /// retried up to `max_attempts` tries); and `Database::apply_logged`
    /// applies them by series id, bypassing the write throttle — once the
    /// frame is fsynced the batch *is* committed, and memory must match
    /// what replay rebuilds. Applying the logged records leaves `db`
    /// exactly as applying the whole batch would. When nothing is left to
    /// log, no frame is written and nothing is fsynced; the batch is
    /// committed all the same.
    ///
    /// Returns the outcome together with the transient-fault retries the
    /// append absorbed, which count whether or not it succeeded in the end.
    ///
    /// # Errors
    ///
    /// As [`Wal::append`] — including [`TsError::WalDead`] for a batch
    /// that would have logged nothing: a dead log acknowledges no batch.
    pub fn commit<R: Borrow<Record>>(
        &mut self,
        db: &mut Database,
        table: &str,
        options: TableOptions,
        tick: u64,
        records: &[R],
        max_attempts: u32,
    ) -> (Result<Committed, TsError>, u64) {
        if self.dead {
            return (Err(TsError::WalDead), 0);
        }
        let offered = records.len();
        let (book, points) = SeriesBook::from_records(records);
        let logged = match db.delta(table, options, &book, &points) {
            Ok(logged) => logged,
            Err(e) => return (Err(e), 0),
        };
        let spelled: Vec<Spelled<'_>> = logged.iter().map(|p| book.spelled(p)).collect();
        let (result, retries) = self.log(table, options, tick, &spelled, offered, max_attempts);
        let result = result.map(|()| Committed {
            offered,
            stored: db
                .apply_logged(table, options, &book, &logged, offered)
                .stored,
        });
        (result, retries)
    }

    /// Makes the `logged` records of a batch that offered `offered`
    /// durable as one frame, retrying transient faults up to
    /// `max_attempts` tries, and counts the records left out as elided.
    /// Nothing logged, nothing written: no frame, no fsync. Returns the
    /// outcome with the retries absorbed.
    ///
    /// # Errors
    ///
    /// As [`Wal::append`]; [`TsError::WalDead`] even for an empty batch.
    pub(crate) fn log(
        &mut self,
        table: &str,
        options: TableOptions,
        tick: u64,
        logged: &[Spelled<'_>],
        offered: usize,
        max_attempts: u32,
    ) -> (Result<(), TsError>, u64) {
        if self.dead {
            return (Err(TsError::WalDead), 0);
        }
        let mut retries: u64 = 0;
        if !logged.is_empty() {
            let mut attempt: u32 = 0;
            loop {
                attempt = attempt.saturating_add(1);
                match self.append_records(table, options, tick, logged.iter().copied()) {
                    Ok(()) => break,
                    Err(e) if e.is_retryable() && attempt < max_attempts.max(1) => {
                        retries = retries.saturating_add(1);
                    }
                    Err(e) => return (Err(e), retries),
                }
            }
        }
        self.records_elided = self
            .records_elided
            .saturating_add(offered.saturating_sub(logged.len()) as u64);
        (Ok(()), retries)
    }

    /// Appends one batch as a frame, every record of it. On success the
    /// frame is fully written and fsynced — it *will* survive a crash.
    /// Records are validated and encoded straight from the caller's slice
    /// into the one buffer that is written; the frame header is filled in
    /// once the payload's length and checksum are known.
    ///
    /// # Errors
    ///
    /// * [`TsError::BadRecord`] if any record is invalid (nothing is
    ///   written — bad data never becomes durable).
    /// * [`TsError::WalFault`] for an injected transient fault; the
    ///   append was undone and retrying it is safe.
    /// * [`TsError::WalDead`] after an injected crash fault; the log is
    ///   unusable until recovery.
    pub fn append<R: Borrow<Record>>(
        &mut self,
        table: &str,
        options: TableOptions,
        tick: u64,
        records: &[R],
    ) -> Result<(), TsError> {
        let spelled = records.iter().map(|r| r.borrow().spelled());
        self.append_records(table, options, tick, spelled)
    }

    /// [`Wal::append`] of any run of records, however they are held.
    fn append_records<'r>(
        &mut self,
        table: &str,
        options: TableOptions,
        tick: u64,
        records: impl ExactSizeIterator<Item = Spelled<'r>>,
    ) -> Result<(), TsError> {
        if self.dead {
            return Err(TsError::WalDead);
        }
        // A collector record encodes to a little over a hundred bytes.
        let mut full = Vec::with_capacity(records.len().saturating_mul(128));
        full.resize(FRAME_HEADER_LEN, 0u8);
        encode_payload(&mut full, table, options, tick, records)?;
        let (header, payload) = full.split_at_mut(FRAME_HEADER_LEN);
        let payload_len = u32::try_from(payload.len()).map_err(|_| TsError::TooLarge {
            what: "WAL frame payload",
        })?;
        let (len_field, crc_field) = header.split_at_mut(4);
        len_field.copy_from_slice(&payload_len.to_le_bytes());
        crc_field.copy_from_slice(&crc32(payload).to_le_bytes());

        match self.faults.next("append") {
            None => {
                self.file.write_all(&full)?;
                self.file.sync_data()?;
                self.len = self.len.saturating_add(full.len() as u64);
                self.frames_appended = self.frames_appended.saturating_add(1);
                self.bytes_appended = self.bytes_appended.saturating_add(full.len() as u64);
                Ok(())
            }
            Some(IoFault::ShortWrite) => {
                self.file.write_all(prefix(&full, full.len() / 2))?;
                self.undo_partial_append()?;
                Err(TsError::WalFault {
                    kind: "short-write",
                })
            }
            Some(IoFault::FsyncFail) => {
                self.file.write_all(&full)?;
                self.undo_partial_append()?;
                Err(TsError::WalFault { kind: "fsync-fail" })
            }
            Some(IoFault::TornWrite(frac)) => {
                // lint:allow(unchecked-arith): fault-injected fraction of the frame length, clamped to a strict prefix below
                let n = ((frac * full.len() as f64) as usize).clamp(1, full.len() - 1);
                self.file.write_all(prefix(&full, n))?;
                let _ = self.file.sync_data();
                self.dead = true;
                Err(TsError::WalDead)
            }
            Some(IoFault::BitFlip(pos)) => {
                let bit = (pos % (full.len() as u64 * 8)) as usize;
                if let Some(byte) = full.get_mut(bit / 8) {
                    *byte ^= 1 << (bit % 8);
                }
                self.file.write_all(&full)?;
                let _ = self.file.sync_data();
                self.dead = true;
                Err(TsError::WalDead)
            }
        }
    }

    /// Rotates a checkpoint: snapshots `db` atomically (temp + fsync +
    /// rename) and truncates the log back to its header — the frames
    /// below are now owned by the snapshot.
    ///
    /// # Errors
    ///
    /// * [`TsError::WalFault`] for an injected transient fault; nothing
    ///   changed and the checkpoint can be retried (e.g. next round).
    /// * [`TsError::WalDead`] after an injected crash fault: a mangled
    ///   temp file is left behind but never renamed, so the previous
    ///   checkpoint and the full log both survive for recovery.
    pub fn checkpoint(&mut self, db: &Database) -> Result<(), TsError> {
        self.checkpoint_with(|| codec::encode(db))
    }

    /// [`Wal::checkpoint`] of the snapshot `encode` produces — called only
    /// when the rotation writes something, so a transient fault costs no
    /// encode. How a shard rotates the slice of the store it owns.
    ///
    /// # Errors
    ///
    /// As [`Wal::checkpoint`], plus whatever `encode` returns.
    pub(crate) fn checkpoint_with(
        &mut self,
        encode: impl FnOnce() -> Result<Vec<u8>, TsError>,
    ) -> Result<(), TsError> {
        if self.dead {
            return Err(TsError::WalDead);
        }
        let target = checkpoint_path(&self.dir);
        match self.faults.next("checkpoint") {
            None => {
                codec::atomic_write(&target, &encode()?)?;
                self.file.set_len(HEADER_LEN)?;
                self.file.seek(SeekFrom::Start(HEADER_LEN))?;
                self.file.sync_data()?;
                self.len = HEADER_LEN;
                self.checkpoints += 1;
                Ok(())
            }
            Some(f @ (IoFault::ShortWrite | IoFault::FsyncFail)) => {
                std::fs::remove_file(codec::tmp_path(&target)).ok();
                Err(TsError::WalFault { kind: f.kind() })
            }
            Some(f) => {
                // Crash mid-checkpoint: a torn temp file is left on disk
                // but the rename never happens, so nothing of value is
                // lost — recovery discards the temp and replays the log.
                debug_assert!(f.is_crash());
                let bytes = encode()?;
                let torn = prefix(&bytes, bytes.len() / 2);
                // lint:allow(durability): fault injection deliberately leaves a torn, never-renamed temp artifact
                std::fs::write(codec::tmp_path(&target), torn)?;
                self.dead = true;
                Err(TsError::WalDead)
            }
        }
    }

    /// Whether a crash fault has killed this log.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Counter snapshot for metric export.
    pub fn stats(&self) -> WalStats {
        WalStats {
            frames_appended: self.frames_appended,
            bytes_appended: self.bytes_appended,
            records_elided: self.records_elided,
            checkpoints: self.checkpoints,
            wal_bytes: self.len,
            dead: self.dead,
            faults_injected: self.faults.counts().iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }

    /// Truncates back to the last committed offset after a transient
    /// fault, so no partial bytes precede a later good frame.
    fn undo_partial_append(&mut self) -> Result<(), TsError> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }
}

/// The first `n` bytes of `buf` (all of it when shorter) — what a torn
/// write leaves on disk, without any panicking slice arithmetic.
fn prefix(buf: &[u8], n: usize) -> &[u8] {
    buf.get(..n).unwrap_or(buf)
}

/// One decoded log frame.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalFrame {
    pub(crate) table: String,
    pub(crate) options: TableOptions,
    pub(crate) tick: u64,
    pub(crate) records: Vec<Record>,
}

/// Appends a batch frame's payload to `out`, validating each record as
/// it is encoded.
fn encode_payload<'r>(
    out: &mut Vec<u8>,
    table: &str,
    options: TableOptions,
    tick: u64,
    records: impl ExactSizeIterator<Item = Spelled<'r>>,
) -> Result<(), TsError> {
    out.push(FRAME_KIND_BATCH);
    codec::put_str(out, table)?;
    out.push(match options.mode {
        WriteMode::Dense => 0u8,
        WriteMode::ChangePoint => 1u8,
    });
    match options.retention {
        Some(r) => {
            out.push(1);
            codec::put_u64(out, r);
        }
        None => out.push(0),
    }
    codec::put_u64(out, tick);
    codec::put_len(out, records.len(), "record count")?;
    for r in records {
        r.validate()?;
        codec::put_u64(out, r.time);
        codec::put_str(out, r.measure)?;
        codec::put_u64(out, r.value.to_bits());
        codec::put_len(out, r.dimensions.len(), "dimension count")?;
        for (k, v) in r.dimensions.iter() {
            codec::put_str(out, k)?;
            codec::put_str(out, v)?;
        }
    }
    Ok(())
}

impl WalFrame {
    pub(crate) fn decode(payload: &[u8]) -> Result<WalFrame, TsError> {
        let mut c = Cursor::new(payload);
        let kind = c.u8()?;
        if kind != FRAME_KIND_BATCH {
            return Err(TsError::Corrupt {
                detail: format!("unknown WAL frame kind {kind}"),
            });
        }
        let table = c.str_()?;
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
        let tick = c.u64()?;
        let count = c.u32()? as usize;
        // Each record needs at least 24 bytes of fixed fields; bound the
        // allocation by what is actually present.
        if count > c.remaining() / 24 {
            return Err(TsError::Corrupt {
                detail: "record count implausible for frame size".to_owned(),
            });
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let time = c.u64()?;
            let measure = c.str_()?;
            let value = f64::from_bits(c.u64()?);
            let dimensions = c.dimensions()?;
            records.push(Record {
                time,
                measure,
                value,
                dimensions,
            });
        }
        if !c.is_done() {
            return Err(TsError::Corrupt {
                detail: "trailing data in WAL frame".to_owned(),
            });
        }
        Ok(WalFrame {
            table,
            options: TableOptions { mode, retention },
            tick,
            records,
        })
    }
}

/// The outcome of scanning a `wal.log` byte image.
#[derive(Debug)]
pub(crate) struct ScanOutcome {
    /// Frames decoded from the valid prefix, in append order.
    pub(crate) frames: Vec<WalFrame>,
    /// Offset up to which every frame is intact; a torn tail (if any)
    /// starts here.
    pub(crate) valid_len: u64,
    /// What made the scan stop early, when something did.
    pub(crate) torn_detail: Option<String>,
}

/// Scans a WAL image frame by frame, stopping at the first bad frame
/// (short header, implausible length, checksum mismatch, or payload that
/// fails to decode). Everything before the stop point is committed;
/// everything after is a torn tail a crash left behind.
pub(crate) fn scan_frames(bytes: &[u8]) -> ScanOutcome {
    let header_ok =
        bytes.get(..4) == Some(WAL_MAGIC.as_slice()) && bytes.get(4).copied() == Some(WAL_VERSION);
    if !header_ok {
        return ScanOutcome {
            frames: Vec::new(),
            valid_len: 0,
            torn_detail: (!bytes.is_empty()).then(|| "bad WAL header".to_owned()),
        };
    }
    let mut frames = Vec::new();
    let mut offset = HEADER_LEN as usize;
    let mut torn_detail = None;
    while offset < bytes.len() {
        let header = (
            codec::read_u32_le(bytes, offset),
            codec::read_u32_le(bytes, offset.saturating_add(4)),
        );
        let ((payload_len, stored_crc), start) = match (header, offset.checked_add(8)) {
            ((Some(l), Some(c)), Some(s)) => ((l, c), s),
            _ => {
                torn_detail = Some(format!("torn frame header at offset {offset}"));
                break;
            }
        };
        if check_len(payload_len).is_err() {
            torn_detail = Some(format!("implausible frame length at offset {offset}"));
            break;
        }
        let payload = start
            .checked_add(payload_len as usize)
            .and_then(|end| bytes.get(start..end).map(|p| (p, end)));
        let Some((payload, end)) = payload else {
            torn_detail = Some(format!("torn frame payload at offset {offset}"));
            break;
        };
        if crc32(payload) != stored_crc {
            torn_detail = Some(format!("frame checksum mismatch at offset {offset}"));
            break;
        }
        match WalFrame::decode(payload) {
            Ok(f) => frames.push(f),
            Err(e) => {
                torn_detail = Some(format!("undecodable frame at offset {offset}: {e}"));
                break;
            }
        }
        offset = end;
    }
    ScanOutcome {
        frames,
        valid_len: offset as u64,
        torn_detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotlake-ts-wal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn batch(n: u64) -> Vec<Record> {
        (0..3)
            .map(|i| {
                Record::new(n * 600 + i, "sps", (n + i) as f64)
                    .dimension("instance_type", "m5.large")
            })
            .collect()
    }

    #[test]
    fn append_then_scan_roundtrips_frames() {
        let dir = tempdir("roundtrip");
        let mut wal = Wal::open(&dir).unwrap();
        let opts = TableOptions::default();
        wal.append("sps", opts, 1, &batch(1)).unwrap();
        wal.append("sps", opts, 2, &batch(2)).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.frames_appended, 2);
        assert_eq!(stats.wal_bytes, HEADER_LEN + stats.bytes_appended);
        assert!(!stats.dead);

        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert!(scan.torn_detail.is_none());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].tick, 1);
        assert_eq!(scan.frames[1].records, batch(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_faults_undo_the_append_and_stay_retryable() {
        let dir = tempdir("transient");
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_faults(IoFaultPlan {
            short_write_rate: 1.0,
            ..IoFaultPlan::none(9)
        });
        let err = wal
            .append("sps", TableOptions::default(), 1, &batch(1))
            .unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(!wal.is_dead());
        // The partial bytes were truncated away: the file is back to just
        // its header and a later good append scans cleanly.
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), HEADER_LEN);
        wal.set_faults(IoFaultPlan::none(9));
        wal.append("sps", TableOptions::default(), 1, &batch(1))
            .unwrap();
        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert!(scan.torn_detail.is_none());
        assert_eq!(scan.frames.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_faults_kill_the_log_and_leave_a_torn_tail() {
        let dir = tempdir("crash");
        let mut wal = Wal::open(&dir).unwrap();
        wal.append("sps", TableOptions::default(), 1, &batch(1))
            .unwrap();
        wal.set_faults(IoFaultPlan {
            torn_write_rate: 1.0,
            ..IoFaultPlan::none(9)
        });
        let err = wal
            .append("sps", TableOptions::default(), 2, &batch(2))
            .unwrap_err();
        assert!(matches!(err, TsError::WalDead));
        assert!(wal.is_dead());
        // Everything now fails until recovery.
        assert!(matches!(
            wal.append("sps", TableOptions::default(), 3, &batch(3)),
            Err(TsError::WalDead)
        ));
        assert!(matches!(
            wal.checkpoint(&Database::new()),
            Err(TsError::WalDead)
        ));
        // The scan finds exactly the committed prefix.
        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert_eq!(scan.frames.len(), 1, "only the committed frame");
        assert!(scan.torn_detail.is_some());
        // Re-opening truncates the torn tail.
        drop(wal);
        let wal = Wal::open(&dir).unwrap();
        assert_eq!(
            std::fs::metadata(wal_path(&dir)).unwrap().len(),
            wal.stats().wal_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_never_pass_the_frame_checksum() {
        let dir = tempdir("bitflip");
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_faults(IoFaultPlan {
            bit_flip_rate: 1.0,
            ..IoFaultPlan::none(17)
        });
        assert!(matches!(
            wal.append("sps", TableOptions::default(), 1, &batch(1)),
            Err(TsError::WalDead)
        ));
        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert!(scan.frames.is_empty(), "mangled frame must not decode");
        assert!(scan.torn_detail.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rotates_the_snapshot_and_truncates_the_log() {
        let dir = tempdir("checkpoint");
        let mut db = Database::new();
        db.create_table("sps", TableOptions::default()).unwrap();
        let mut wal = Wal::open(&dir).unwrap();
        wal.append("sps", TableOptions::default(), 1, &batch(1))
            .unwrap();
        db.write("sps", &batch(1)).unwrap();
        wal.checkpoint(&db).unwrap();
        assert_eq!(wal.stats().checkpoints, 1);
        assert_eq!(wal.stats().wal_bytes, HEADER_LEN);
        let snap = Database::load(checkpoint_path(&dir)).unwrap();
        assert_eq!(snap.point_count(), 3);
        // Appends after the rotation land in the fresh log.
        wal.append("sps", TableOptions::default(), 2, &batch(2))
            .unwrap();
        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].tick, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_records_are_rejected_before_becoming_durable() {
        let dir = tempdir("invalid");
        let mut wal = Wal::open(&dir).unwrap();
        let bad = vec![Record::new(0, "", 1.0)];
        assert!(matches!(
            wal.append("sps", TableOptions::default(), 1, &bad),
            Err(TsError::BadRecord { .. })
        ));
        assert_eq!(wal.stats().frames_appended, 0);
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn changepoint() -> TableOptions {
        TableOptions {
            mode: WriteMode::ChangePoint,
            retention: None,
        }
    }

    fn prices(time: u64, values: [f64; 2]) -> Vec<Record> {
        ["m5.large", "c5.xlarge"]
            .into_iter()
            .zip(values)
            .map(|(ty, v)| Record::new(time, "spot_price", v).dimension("instance_type", ty))
            .collect()
    }

    #[test]
    fn commit_logs_only_what_changes_state() {
        let dir = tempdir("delta");
        let mut db = Database::new();
        let mut wal = Wal::open(&dir).unwrap();
        let opening = prices(600, [0.1, 0.2]);
        let (first, _) = wal.commit(&mut db, "price", changepoint(), 1, &opening, 3);
        assert_eq!(
            first.unwrap(),
            Committed {
                offered: 2,
                stored: 2
            }
        );
        let after_first = wal.stats();
        assert_eq!(after_first.frames_appended, 1);
        assert_eq!(after_first.records_elided, 0);

        // An all-repeat batch is committed without touching the log.
        let repeats = prices(1200, [0.1, 0.2]);
        let (repeat, retries) = wal.commit(&mut db, "price", changepoint(), 2, &repeats, 3);
        assert_eq!(
            repeat.unwrap(),
            Committed {
                offered: 2,
                stored: 0
            }
        );
        assert_eq!(retries, 0);
        assert_eq!(
            wal.stats(),
            WalStats {
                records_elided: 2,
                ..after_first.clone()
            },
            "no frame, no bytes"
        );
        assert_eq!(
            std::fs::metadata(wal_path(&dir)).unwrap().len(),
            after_first.wal_bytes
        );

        // One change: the frame holds that record alone.
        let one_change = prices(1800, [0.1, 0.3]);
        let (mixed, _) = wal.commit(&mut db, "price", changepoint(), 3, &one_change, 3);
        assert_eq!(mixed.unwrap().stored, 1);
        let scan = scan_frames(&std::fs::read(wal_path(&dir)).unwrap());
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].tick, 3);
        assert_eq!(scan.frames[1].records, vec![one_change[1].clone()]);

        // The store counts what was offered, so the write families do not
        // depend on how little the log carried.
        let text = db.metrics().render();
        assert!(text.contains("spotlake_store_records_submitted_total{table=\"price\"} 6"));
        assert!(text.contains("spotlake_store_records_stored_total{table=\"price\"} 3"));
        assert!(text.contains("spotlake_store_records_deduped_total{table=\"price\"} 3"));
        assert!(text.contains("spotlake_store_write_batches_total{table=\"price\"} 3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dead_log_fails_an_all_repeat_batch_too() {
        let dir = tempdir("dead-repeat");
        let mut db = Database::new();
        let mut wal = Wal::open(&dir).unwrap();
        let opening = prices(600, [0.1, 0.2]);
        wal.commit(&mut db, "price", changepoint(), 1, &opening, 3)
            .0
            .unwrap();
        wal.set_faults(IoFaultPlan {
            torn_write_rate: 1.0,
            ..IoFaultPlan::none(9)
        });
        let doomed = prices(1200, [0.5, 0.6]);
        let (killed, _) = wal.commit(&mut db, "price", changepoint(), 2, &doomed, 3);
        assert!(matches!(killed, Err(TsError::WalDead)));
        assert_eq!(db.point_count(), 2, "the torn batch was never applied");
        // Nothing to log, nothing to write — and still no acknowledgement.
        let repeats = prices(1800, [0.1, 0.2]);
        let (repeat, _) = wal.commit(&mut db, "price", changepoint(), 3, &repeats, 3);
        assert!(matches!(repeat, Err(TsError::WalDead)));
        assert_eq!(wal.stats().records_elided, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_rejects_a_bad_record_it_would_not_have_logged() {
        let dir = tempdir("bad-elided");
        let mut db = Database::new();
        let mut wal = Wal::open(&dir).unwrap();
        let mut batch = prices(600, [0.1, 0.2]);
        batch.push(Record::new(600, "spot_price", 0.3).dimension("", "oops"));
        let (result, _) = wal.commit(&mut db, "price", changepoint(), 1, &batch, 3);
        assert!(matches!(result, Err(TsError::BadRecord { .. })));
        assert_eq!(wal.stats().frames_appended, 0);
        assert_eq!(db.point_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_absorbs_transient_faults_and_counts_the_retries() {
        let dir = tempdir("commit-retry");
        let mut db = Database::new();
        let mut wal = Wal::open(&dir).unwrap();
        wal.set_faults(IoFaultPlan {
            fsync_fail_rate: 1.0,
            ..IoFaultPlan::none(4)
        });
        let records = batch(1);
        let (result, retries) = wal.commit(&mut db, "sps", TableOptions::default(), 1, &records, 3);
        assert!(result.unwrap_err().is_retryable());
        assert_eq!(retries, 2, "three tries");
        assert_eq!(db.point_count(), 0, "nothing applied without a frame");
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), HEADER_LEN);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_codec_roundtrips_and_bounds_lengths() {
        let frame = WalFrame {
            table: "prices".to_owned(),
            options: TableOptions {
                mode: WriteMode::ChangePoint,
                retention: Some(7_776_000),
            },
            tick: 42,
            records: batch(1),
        };
        let mut payload = Vec::new();
        encode_payload(
            &mut payload,
            &frame.table,
            frame.options,
            frame.tick,
            frame.records.iter().map(Record::spelled),
        )
        .unwrap();
        assert_eq!(WalFrame::decode(&payload).unwrap(), frame);
        // An implausible record count is rejected before any allocation.
        let mut mangled = Vec::new();
        mangled.push(FRAME_KIND_BATCH);
        codec::put_str(&mut mangled, "t").unwrap();
        mangled.push(0);
        mangled.push(0);
        codec::put_u64(&mut mangled, 1);
        codec::put_u32(&mut mangled, u32::MAX);
        assert!(WalFrame::decode(&mangled).is_err());
    }
}
