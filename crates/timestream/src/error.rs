//! Error type for the time-series store.

use std::error::Error;
use std::fmt;

/// Errors returned by the time-series store.
#[derive(Debug)]
pub enum TsError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name exists.
    NoSuchTable(String),
    /// A record was rejected (empty measure, non-finite value, ...).
    BadRecord {
        /// Why the record was rejected.
        reason: &'static str,
    },
    /// The persisted file is corrupt or has an unsupported version.
    Corrupt {
        /// What went wrong while decoding.
        detail: String,
    },
    /// An I/O error during save/load.
    Io(std::io::Error),
    /// The store throttled the write (injected via
    /// [`Database::set_write_faults`](crate::Database::set_write_faults)).
    /// Transient: the batch was not stored and a retry may succeed.
    Throttled,
    /// A transient disk fault (injected via
    /// [`Wal::set_faults`](crate::Wal::set_faults)) interrupted a WAL
    /// write. The partial append was undone, so retrying is safe.
    WalFault {
        /// The injected fault kind (`short-write`, `fsync-fail`).
        kind: &'static str,
    },
    /// A crash fault killed the write-ahead log mid-write. Nothing else
    /// can be appended; only a restart (recovery) brings the store back.
    WalDead,
    /// An in-memory structure is too large for the on-disk format (a
    /// length field would overflow its `u32` slot). Practically
    /// unreachable — the store throttles long before — but the encoder
    /// refuses rather than silently truncating.
    TooLarge {
        /// Which length field would have overflowed.
        what: &'static str,
    },
    /// An archive root holds the retired single-WAL layout: a root-level
    /// `wal.log` or `checkpoint.db` and no `shards.map`. Opening it as a
    /// sharded archive would leave that data unread, so it is refused.
    RetiredLayout {
        /// The root-level file that names the old layout.
        file: std::path::PathBuf,
    },
}

impl TsError {
    /// Whether a retry of the failed operation may succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(self, TsError::Throttled | TsError::WalFault { .. })
    }
}

impl fmt::Display for TsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsError::TableExists(name) => write!(f, "table already exists: {name:?}"),
            TsError::NoSuchTable(name) => write!(f, "no such table: {name:?}"),
            TsError::BadRecord { reason } => write!(f, "bad record: {reason}"),
            TsError::Corrupt { detail } => write!(f, "corrupt database file: {detail}"),
            TsError::Io(e) => write!(f, "i/o error: {e}"),
            TsError::Throttled => write!(f, "write throttled; retry may succeed"),
            TsError::WalFault { kind } => {
                write!(f, "wal write fault ({kind}); retry may succeed")
            }
            TsError::WalDead => write!(
                f,
                "write-ahead log dead after crash fault; restart required"
            ),
            TsError::TooLarge { what } => {
                write!(f, "too large to serialize: {what} exceeds u32 range")
            }
            TsError::RetiredLayout { file } => write!(
                f,
                "{} belongs to the retired single-WAL archive layout (no shards.map beside it); \
                 it is not read as a sharded archive",
                file.display()
            ),
        }
    }
}

impl Error for TsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TsError {
    fn from(e: std::io::Error) -> Self {
        TsError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(
            TsError::NoSuchTable("x".into()).to_string(),
            "no such table: \"x\""
        );
        assert_eq!(
            TsError::BadRecord {
                reason: "empty measure"
            }
            .to_string(),
            "bad record: empty measure"
        );
    }

    #[test]
    fn io_error_has_source() {
        let e = TsError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
