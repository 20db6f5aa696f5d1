//! A time-series database substrate — the reproduction's stand-in for
//! Amazon Timestream.
//!
//! The paper stores every collected spot dataset in Timestream ("The spot
//! dataset can be well represented using a time-series format, and we use an
//! Amazon Timestream database", Section 4). This crate provides the slice of
//! that service SpotLake needs, embedded and dependency-free:
//!
//! * **Tables** of **records**: a record is (time, measure name, value,
//!   dimensions). Dimensions are free-form key/value tags — SpotLake uses
//!   `instance_type`, `region`, `az`.
//! * **Write paths**: dense append or *change-point* mode (a write is
//!   stored only when the value differs from the series' latest — how the
//!   price and advisor datasets are naturally represented).
//! * **Queries**: dimension-filtered time-range scans, last-value lookups,
//!   and tumbling-window aggregation (mean/min/max/count/last), which is
//!   what the analysis layer uses for daily heatmap averages.
//! * **Retention**: optional per-table retention window.
//! * **Persistence**: a compact hand-rolled binary codec
//!   ([`Database::save`] / [`Database::load`]), checksummed and written
//!   atomically.
//! * **Durability**: a checksummed write-ahead log ([`Wal`]) with
//!   checkpoint rotation, crash [`recover`]y that replays exactly the
//!   committed prefix, an offline [`fsck`], and deterministic disk-fault
//!   injection ([`IoFaultPlan`]) to prove all of it.
//!
//! # Example
//!
//! ```
//! use spotlake_timestream::{Database, Record, Query};
//!
//! # fn main() -> Result<(), spotlake_timestream::TsError> {
//! let mut db = Database::new();
//! db.create_table("scores", Default::default())?;
//! db.write(
//!     "scores",
//!     &[Record::new(600, "sps", 3.0).dimension("instance_type", "m5.large")],
//! )?;
//! let rows = db.query("scores", &Query::measure("sps"))?;
//! assert_eq!(rows.len(), 1);
//! assert_eq!(rows[0].value, 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod book;
mod codec;
mod compress;
mod crc;
mod db;
mod error;
mod index;
mod iofault;
mod merge;
mod profile;
mod query;
mod record;
mod recovery;
mod series;
mod shard;
mod table;
mod wal;

pub use book::{Point, SeriesBook, SeriesRef};
pub use codec::atomic_write;
pub use db::Database;
pub use error::TsError;
pub use index::{Dimensions, PairId, Pairs};
pub use iofault::IoFaultPlan;
pub use profile::QueryProfile;
pub use query::{Aggregate, Query, Row, RowKind, RowRef, RowScan, WindowRow};
pub use record::Record;
pub use recovery::{fsck, recover, FsckReport, RecoveryReport};
pub use shard::{
    fsck_shards, manifest_path, repair_shards, shard_dir, ShardCommitOutcome, ShardFaultConfig,
    ShardFsckRow, ShardHealthRow, ShardKey, ShardSetHealth, ShardSetReport, ShardState,
    ShardVerdict, ShardedArchive,
};
pub use table::{Table, TableOptions, WriteMode};
pub use wal::{Committed, Wal, WalStats};
