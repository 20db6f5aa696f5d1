//! Sharded fault-isolated archive: dataset × region fault domains.
//!
//! One WAL ([`crate::Wal`] + [`crate::recover`]) is one fault domain: a
//! torn write or bit flip anywhere in it takes down everything it holds.
//! The durable archive is therefore always sharded: each **dataset ×
//! region** pair is its own shard with its own WAL, checkpoint rotation,
//! and crash recovery:
//!
//! ```text
//! root/
//!   shards.map                  manifest: key -> (last_tick, checkpoint_tick)
//!   shard-sps-us-test-1/
//!     wal.log                   per-shard WAL (SPWL format)
//!     checkpoint.db             per-shard snapshot
//!     QUARANTINE                present only while quarantined
//!   shard-price-eu-test-1/
//!     ...
//! ```
//!
//! A root with a `wal.log` or `checkpoint.db` of its own and no
//! `shards.map` holds the retired single-WAL layout; open, fsck and
//! repair refuse it with [`TsError::RetiredLayout`].
//!
//! The manifest is the committed-data watermark: after every round it
//! records, per shard, the newest acked round tick and the tick the last
//! checkpoint covered, written atomically via [`crate::atomic_write`].
//! On open, each shard runs independent recovery and is compared against
//! its watermark:
//!
//! * **Auto-heal** — a torn tail past the watermark was an in-flight,
//!   never-acked round; recovery truncates it and the shard rejoins
//!   silently (the committed prefix is intact).
//! * **Quarantine** — recovery yields *less* than the watermark (a
//!   committed frame was corrupted, a checkpoint fails to load, the dir
//!   was damaged): the shard is excluded from the merged database, a
//!   `QUARANTINE` marker records why, and every other shard keeps
//!   serving. [`repair_shards`] (the `fsck --repair` path) truncates to
//!   the surviving committed prefix, lowers the watermark to match, and
//!   clears the marker so the next open re-admits the shard.
//!
//! A shard holds no data in memory. The archive's one in-memory store is
//! the [`Database`] [`ShardedArchive::open`] returns, which every
//! [`ShardedArchive::commit`] writes into; a shard keeps its log, its
//! checkpoint, its watermark and a count of the store's points that are
//! its own. Commits fan out to shards with bounded parallelism; a crash
//! fault in one shard fails only that shard's batch for the round — the
//! round itself, and every other shard, proceed. A shard's watermark
//! advances only with a frame: a batch that changes nothing in the shard
//! logs nothing, so there is nothing newer for recovery to find and
//! nothing for the manifest to promise.

use crate::book::{Point, SeriesBook};
use crate::codec::{self, Cursor, TableSlice};
use crate::crc::crc32;
use crate::db::Database;
use crate::error::TsError;
use crate::index::Dimensions;
use crate::iofault::IoFaultPlan;
use crate::record::{dimension_value, Record};
use crate::recovery::{fsck, recover, RecoveryReport};
use crate::series::Series;
use crate::table::TableOptions;
use crate::wal::{Wal, WalStats};
use spotlake_obs::{NoPhases, Phase, PhaseGuard, SharedPhaseSink};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_MAGIC: &[u8; 4] = b"SPSM";
const MANIFEST_VERSION: u8 = 1;
const MANIFEST_FILE: &str = "shards.map";
const QUARANTINE_FILE: &str = "QUARANTINE";
/// Shards whose frames (or checkpoints) are in flight at once. Eight
/// keeps the disk busy while one thread merges; one thread per shard
/// finishes no sooner and costs a malloc arena each in resident memory.
const IN_FLIGHT: usize = 8;

/// Identifies one fault domain: a dataset (table) in one region.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardKey {
    /// The dataset (table name): `sps`, `advisor`, `price`.
    pub dataset: String,
    /// The region whose records this shard owns.
    pub region: String,
}

impl ShardKey {
    /// Builds a key from a dataset (table) name and a region.
    pub fn new(dataset: &str, region: &str) -> Self {
        ShardKey {
            dataset: dataset.to_owned(),
            region: region.to_owned(),
        }
    }

    /// Parses `dataset/region`, the CLI spelling of a key.
    pub fn parse(spec: &str) -> Option<ShardKey> {
        let (dataset, region) = spec.split_once('/')?;
        if dataset.is_empty() || region.is_empty() {
            return None;
        }
        Some(ShardKey::new(dataset, region))
    }

    /// The region whose shard owns `record`: its `region` dimension, or
    /// `none` for a record without one.
    pub fn region_of(record: &Record) -> &str {
        region_in(&record.dimensions)
    }

    /// The shard's directory name under the archive root, with any
    /// non-portable characters replaced.
    pub fn dir_name(&self) -> String {
        fn sanitize(s: &str) -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        format!(
            "shard-{}-{}",
            sanitize(&self.dataset),
            sanitize(&self.region)
        )
    }
}

impl std::fmt::Display for ShardKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.dataset, self.region)
    }
}

/// The region whose shard owns a record with these dimensions — a stored
/// series' is found the same way ([`Dimensions::get`]): see
/// [`ShardKey::region_of`].
fn region_in(dimensions: &[(String, String)]) -> &str {
    dimension_value(dimensions, "region").unwrap_or("none")
}

/// The path of a shard's directory under `root`.
pub fn shard_dir(root: &Path, key: &ShardKey) -> PathBuf {
    root.join(key.dir_name())
}

/// The shard map manifest inside an archive root.
pub fn manifest_path(root: &Path) -> PathBuf {
    root.join(MANIFEST_FILE)
}

/// Disk-fault injection for a sharded archive: the base plan's rates are
/// applied per shard under a seed derived from `(seed, dataset, region)`,
/// so every shard rolls an independent, reproducible fault sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFaultConfig {
    /// Rates and base seed.
    pub plan: IoFaultPlan,
    /// When set, only this shard receives injected faults — the induced
    /// single-shard-loss drill.
    pub only: Option<ShardKey>,
}

/// One shard's committed-data watermark in the manifest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ManifestEntry {
    /// Newest round tick whose commit was acked to the collector.
    last_tick: Option<u64>,
    /// Round tick the last successful checkpoint covered.
    checkpoint_tick: Option<u64>,
}

/// A quarantined shard: excluded from serving, awaiting `fsck --repair`.
#[derive(Debug, Clone)]
struct Quarantined {
    reason: String,
    entry: ManifestEntry,
}

/// One live (non-quarantined) shard. Its points live in the archive's
/// store; the shard has the log and checkpoint that make them durable.
#[derive(Debug)]
struct Shard {
    dir: PathBuf,
    wal: Wal,
    /// Points of the store's slice this shard owns.
    points: usize,
    last_tick: Option<u64>,
    checkpoint_tick: Option<u64>,
    rounds_since_checkpoint: u64,
    commits: u64,
    commit_failures: u64,
}

impl Shard {
    /// Whether the shard has logged `every` frames since its last
    /// checkpoint (never, for a zero cadence) and can still write one.
    fn due(&self, every: u64) -> bool {
        every > 0 && !self.wal.is_dead() && self.rounds_since_checkpoint >= every
    }
}

/// One shard's share of a [`ShardedArchive::commit_points`].
struct Slice<'s, 'p> {
    shard: &'s mut Shard,
    batch: Vec<&'p Point>,
    /// What the shard must log, filtered against the store: `None` until
    /// [`Database::delta`] has run, and for good if its thread panicked.
    logged: Option<Result<Vec<&'p Point>, TsError>>,
}

impl<'p> Slice<'_, 'p> {
    /// Logs the slice through the shard's WAL and moves the shard's
    /// watermark if a frame was written; hands back what was logged, for
    /// the store. On failure, classifies the shard for the failure row.
    /// Runs on a commit worker thread.
    fn log(
        &mut self,
        table: &str,
        options: TableOptions,
        tick: u64,
        book: &SeriesBook,
        max_attempts: u32,
    ) -> (Result<Vec<&'p Point>, (ShardState, String)>, u64) {
        let shard = &mut *self.shard;
        let (result, retries) = match self.logged.take() {
            Some(Ok(logged)) => {
                let offered = self.batch.len();
                let spelled: Vec<_> = logged.iter().map(|p| book.spelled(p)).collect();
                let (result, retries) =
                    shard
                        .wal
                        .log(table, options, tick, &spelled, offered, max_attempts);
                (result.map(|()| logged), retries)
            }
            Some(Err(e)) => (Err(e), 0),
            None => {
                let detail = "shard commit thread panicked".to_owned();
                return (Err((ShardState::Failed, detail)), 0);
            }
        };
        let result = match result {
            Ok(logged) => {
                if !logged.is_empty() {
                    shard.last_tick = Some(shard.last_tick.map_or(tick, |t| t.max(tick)));
                    shard.rounds_since_checkpoint = shard.rounds_since_checkpoint.saturating_add(1);
                }
                shard.commits = shard.commits.saturating_add(1);
                Ok(logged)
            }
            Err(e) => {
                shard.commit_failures = shard.commit_failures.saturating_add(1);
                let state = if shard.wal.is_dead() {
                    ShardState::Failed
                } else {
                    ShardState::Healthy
                };
                Err((state, format!("commit failed: {e}")))
            }
        };
        (result, retries)
    }
}

/// A shard's health classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Committing and serving normally.
    Healthy,
    /// A crash fault killed the shard's WAL mid-run; its committed prefix
    /// still serves, and a restart runs recovery.
    Failed,
    /// Recovery could not verify the committed prefix; excluded from
    /// queries until `fsck --repair` re-admits it.
    Quarantined,
}

impl ShardState {
    /// Stable lowercase name, used in reports and metric values.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Failed => "failed",
            ShardState::Quarantined => "quarantined",
        }
    }

    /// Numeric encoding for the `spotlake_shard_state` gauge.
    pub fn code(self) -> u64 {
        match self {
            ShardState::Healthy => 0,
            ShardState::Failed => 1,
            ShardState::Quarantined => 2,
        }
    }
}

/// One row of [`ShardSetHealth`].
#[derive(Debug, Clone)]
pub struct ShardHealthRow {
    /// The shard's dataset.
    pub dataset: String,
    /// The shard's region.
    pub region: String,
    /// Health classification.
    pub state: ShardState,
    /// Why, for failed/quarantined shards; empty when healthy.
    pub detail: String,
    /// Points of the archive's store that belong to the shard — its
    /// committed prefix, also while failed (0 while quarantined).
    pub points: usize,
    /// Batches committed since open.
    pub commits: u64,
    /// Batches that failed to commit since open.
    pub commit_failures: u64,
    /// Newest acked round tick.
    pub last_tick: Option<u64>,
}

/// Per-shard health of the whole archive, for `/health`, `/quality`,
/// `/stats`, and the `spotlake_shard_*` metric families.
#[derive(Debug, Clone, Default)]
pub struct ShardSetHealth {
    /// One row per shard, sorted by (dataset, region).
    pub shards: Vec<ShardHealthRow>,
}

impl ShardSetHealth {
    /// Total shards, quarantined included.
    pub fn total(&self) -> usize {
        self.shards.len()
    }

    /// Shards committing and serving normally.
    pub fn healthy(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Healthy)
            .count()
    }

    /// Rows that are not healthy, in order.
    pub fn impaired(&self) -> impl Iterator<Item = &ShardHealthRow> {
        self.shards
            .iter()
            .filter(|s| s.state != ShardState::Healthy)
    }

    /// Quarantined rows, in order.
    pub fn quarantined(&self) -> impl Iterator<Item = &ShardHealthRow> {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Quarantined)
    }

    /// Whether any shard is failed or quarantined (the archive still
    /// serves, degraded).
    pub fn degraded(&self) -> bool {
        self.shards.iter().any(|s| s.state != ShardState::Healthy)
    }

    /// Whether every shard is lost — the only case `/health` reports the
    /// store unhealthy.
    pub fn all_lost(&self) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|s| s.state != ShardState::Healthy)
    }
}

/// What one [`ShardedArchive::commit`] call did.
#[derive(Debug, Clone, Default)]
pub struct ShardCommitOutcome {
    /// Records stored across all shards that accepted their batch.
    pub written: usize,
    /// Transient-fault retries absorbed across shards.
    pub retries: u64,
    /// Shards that could not commit this round, with why, in key order
    /// within each cause. Every record whose [`ShardKey::region_of`] is
    /// not named here is committed.
    pub failures: Vec<ShardHealthRow>,
}

/// An archive sharded by dataset × region, each shard an independent
/// WAL + checkpoint fault domain. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedArchive {
    root: PathBuf,
    checkpoint_every: u64,
    faults: Option<ShardFaultConfig>,
    shards: BTreeMap<ShardKey, Shard>,
    quarantined: BTreeMap<ShardKey, Quarantined>,
    recovery: RecoveryReport,
    /// The manifest bytes last persisted; an unchanged manifest is not
    /// rewritten.
    manifest_persisted: Vec<u8>,
    /// Told the delta, log, apply and checkpoint phases of each commit.
    phases: SharedPhaseSink,
}

impl ShardedArchive {
    /// Opens (or creates) a sharded archive under `root`, recovering
    /// every shard named by the manifest or by `keys` independently.
    /// Shards whose committed prefix cannot be verified are quarantined —
    /// never a reason for this call to fail. Returns the archive plus the
    /// merged database rebuilt from every healthy shard: the archive's
    /// one in-memory store, which [`ShardedArchive::commit`] writes into
    /// and shard checkpoints are cut from.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::Corrupt`] if the root manifest itself is
    /// mangled (outside any shard's fault domain),
    /// [`TsError::RetiredLayout`] if `root` holds the retired single-WAL
    /// layout, or [`TsError::Io`] on root-level filesystem failure.
    pub fn open(
        root: &Path,
        keys: &[ShardKey],
        checkpoint_every: u64,
        faults: Option<ShardFaultConfig>,
    ) -> Result<(ShardedArchive, Database), TsError> {
        std::fs::create_dir_all(root)?;
        let manifest = read_manifest(root)?;
        let mut all_keys: BTreeSet<ShardKey> = manifest.keys().cloned().collect();
        all_keys.extend(keys.iter().cloned());

        let mut archive = ShardedArchive {
            root: root.to_owned(),
            checkpoint_every,
            faults,
            shards: BTreeMap::new(),
            quarantined: BTreeMap::new(),
            recovery: RecoveryReport::default(),
            manifest_persisted: Vec::new(),
            phases: Arc::new(NoPhases),
        };
        let mut store = Database::new();
        for key in all_keys {
            let entry = manifest.get(&key).copied().unwrap_or_default();
            archive.admit_shard(&key, entry, &mut store)?;
        }
        archive.recovery.point_count = store.point_count();
        archive.write_manifest()?;
        Ok((archive, store))
    }

    /// Recovers one shard into the archive — healthy, its series moved
    /// into `store`, or quarantined with a marker on disk. Only root-level
    /// I/O failures propagate.
    fn admit_shard(
        &mut self,
        key: &ShardKey,
        entry: ManifestEntry,
        store: &mut Database,
    ) -> Result<(), TsError> {
        let dir = shard_dir(&self.root, key);
        let marker = dir.join(QUARANTINE_FILE);
        if marker.exists() {
            let reason = std::fs::read_to_string(&marker)
                .unwrap_or_else(|_| "quarantine marker unreadable".to_owned());
            self.quarantined
                .insert(key.clone(), Quarantined { reason, entry });
            return Ok(());
        }
        let (db, report) = match recover(&dir) {
            Ok(pair) => pair,
            Err(e) => {
                let reason = format!("recovery failed: {e}");
                self.quarantine_on_disk(key, entry, &reason)?;
                return Ok(());
            }
        };
        let checkpoint_tick = entry.checkpoint_tick.filter(|_| report.checkpoint_loaded);
        let recovered_tick = match (checkpoint_tick, report.last_tick) {
            (Some(c), Some(f)) => Some(c.max(f)),
            (c, f) => c.or(f),
        };
        if let Some(acked) = entry.last_tick {
            if recovered_tick.is_none_or(|r| r < acked) {
                let reason = format!(
                    "committed rounds lost: manifest acked tick {acked}, recovered {}",
                    match recovered_tick {
                        Some(r) => r.to_string(),
                        None => "nothing".to_owned(),
                    }
                );
                self.quarantine_on_disk(key, entry, &reason)?;
                return Ok(());
            }
        }
        let mut wal = match Wal::open(&dir) {
            Ok(w) => w,
            Err(e) => {
                let reason = format!("wal open failed: {e}");
                self.quarantine_on_disk(key, entry, &reason)?;
                return Ok(());
            }
        };
        if let Some(cfg) = &self.faults {
            wal.set_faults(derive_plan(cfg, key));
        }
        self.recovery.checkpoint_loaded |= report.checkpoint_loaded;
        self.recovery.checkpoint_points = self
            .recovery
            .checkpoint_points
            .saturating_add(report.checkpoint_points);
        self.recovery.frames_replayed = self
            .recovery
            .frames_replayed
            .saturating_add(report.frames_replayed);
        self.recovery.records_replayed = self
            .recovery
            .records_replayed
            .saturating_add(report.records_replayed);
        self.recovery.rounds_recovered = self
            .recovery
            .rounds_recovered
            .saturating_add(report.rounds_recovered);
        self.recovery.bytes_truncated = self
            .recovery
            .bytes_truncated
            .saturating_add(report.bytes_truncated);
        if let Some(detail) = &report.truncated_detail {
            if self.recovery.truncated_detail.is_none() {
                self.recovery.truncated_detail = Some(format!("shard {key}: {detail}"));
            }
        }
        self.recovery.last_tick = self.recovery.last_tick.max(recovered_tick);
        merge_into(store, &db)?;
        self.shards.insert(
            key.clone(),
            Shard {
                dir,
                wal,
                points: db.point_count(),
                last_tick: recovered_tick.max(entry.last_tick),
                checkpoint_tick,
                rounds_since_checkpoint: 0,
                commits: 0,
                commit_failures: 0,
            },
        );
        Ok(())
    }

    /// Quarantines a shard, writing the marker atomically so the state
    /// survives restarts.
    fn quarantine_on_disk(
        &mut self,
        key: &ShardKey,
        entry: ManifestEntry,
        reason: &str,
    ) -> Result<(), TsError> {
        let dir = shard_dir(&self.root, key);
        std::fs::create_dir_all(&dir)?;
        codec::atomic_write(&dir.join(QUARANTINE_FILE), reason.as_bytes())?;
        self.quarantined.insert(
            key.clone(),
            Quarantined {
                reason: reason.to_owned(),
                entry,
            },
        );
        Ok(())
    }

    /// Commits one dataset's round batch of records into `store`: the
    /// records are booked ([`SeriesBook::from_records`]) and committed by
    /// series id ([`ShardedArchive::commit_points`]), with the same frames,
    /// store and outcome.
    pub fn commit(
        &mut self,
        store: &mut Database,
        table: &str,
        options: TableOptions,
        tick: u64,
        records: &[Record],
        max_attempts: u32,
    ) -> ShardCommitOutcome {
        let (mut book, points) = SeriesBook::from_records(records);
        self.commit_points(
            store,
            table,
            options,
            tick,
            &mut book,
            &points,
            max_attempts,
        )
    }

    /// Commits one dataset's round batch of `book`'s points into `store`,
    /// fanned out to its region shards, [`IN_FLIGHT`] at a time — the
    /// steps of [`Wal::commit`], spread over the shards:
    ///
    /// 1. the batch is grouped by the region each series belongs to
    ///    ([`SeriesBook::region`]), in batch order within a group;
    /// 2. every shard's slice is filtered down to what changes state
    ///    against `store` as it is before the batch ([`Database::delta`];
    ///    read-only, so all shards at once);
    /// 3. each shard appends what it kept to its own WAL — each point
    ///    spelled as its record, from the book — and fsyncs, absorbing
    ///    transient faults up to `max_attempts` tries;
    /// 4. as each shard's thread is joined — in key order, while the
    ///    shards behind it are still syncing — what it logged is applied
    ///    to `store` by series handle ([`Database::apply_logged`]), filing
    ///    the series that are new.
    ///
    /// Handles stay current through step 4 because a commit only appends
    /// series. Only then does `book` learn where the new series are filed;
    /// a series whose shard failed is filed nowhere and stays unresolved.
    /// Shards of `table` that reached their checkpoint cadence then cut
    /// their checkpoints from the store. A shard that fails — quarantined,
    /// dead, or killed by a crash fault mid-append — contributes a failure
    /// row and drops its slice for this round; every other shard commits
    /// normally.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_points(
        &mut self,
        store: &mut Database,
        table: &str,
        options: TableOptions,
        tick: u64,
        book: &mut SeriesBook,
        points: &[Point],
        max_attempts: u32,
    ) -> ShardCommitOutcome {
        let mut outcome = ShardCommitOutcome::default();
        // Grouped by region index, not name: no string per point. A point
        // of an id the book never gave joins the `none` group, whose delta
        // rejects it as a bad record.
        let names = book.region_names();
        let mut by_index: Vec<Vec<&Point>> = vec![Vec::new(); names.len()];
        let mut unbooked: Vec<&Point> = Vec::new();
        for p in points {
            match book
                .region_index(p.series)
                .and_then(|r| by_index.get_mut(r))
            {
                Some(group) => group.push(p),
                None => unbooked.push(p),
            }
        }
        let mut groups: BTreeMap<&str, Vec<&Point>> = BTreeMap::new();
        for (name, group) in names.iter().zip(by_index) {
            if !group.is_empty() {
                groups.entry(name.as_str()).or_default().extend(group);
            }
        }
        if !unbooked.is_empty() {
            groups.entry("none").or_default().extend(unbooked);
        }
        let mut work: BTreeMap<ShardKey, Vec<&Point>> = BTreeMap::new();
        for (region, batch) in groups {
            let key = ShardKey::new(table, region);
            if !self.shards.contains_key(&key) && !self.quarantined.contains_key(&key) {
                // A shard first seen mid-run: whatever its directory
                // already holds joins the store before its slice does.
                if let Err(e) = self.admit_shard(&key, ManifestEntry::default(), store) {
                    outcome.failures.push(failure_row(
                        &key,
                        ShardState::Failed,
                        &format!("shard open failed: {e}"),
                    ));
                    continue;
                }
            }
            if let Some(q) = self.quarantined.get(&key) {
                outcome.failures.push(failure_row(
                    &key,
                    ShardState::Quarantined,
                    &format!("quarantined: {}", q.reason),
                ));
                continue;
            }
            work.insert(key, batch);
        }

        // `shards` iterates in key order, so slices — and with them the
        // applies and the failure rows — are in key order whichever
        // thread finishes first.
        let mut keys: Vec<&ShardKey> = Vec::new();
        let mut slices: Vec<Slice<'_, '_>> = Vec::new();
        for (key, shard) in &mut self.shards {
            if let Some(batch) = work.remove(key) {
                keys.push(key);
                slices.push(Slice {
                    shard,
                    batch,
                    logged: None,
                });
            }
        }
        let shared: &SeriesBook = book;
        let phases = &*self.phases;
        // Step 2: the store is only read, so every shard filters at once.
        let before: &Database = store;
        let delta = PhaseGuard::enter(phases, Phase::Delta);
        fan_out(
            &mut slices,
            |s| {
                s.logged = Some(if s.shard.wal.is_dead() {
                    Err(TsError::WalDead)
                } else {
                    before.delta(table, options, shared, s.batch.iter().copied())
                });
            },
            |_| {},
        );
        drop(delta);
        // Steps 3 and 4: log on the worker, apply on this thread.
        let mut keys = keys.into_iter();
        fan_out(
            &mut slices,
            |s| {
                let _log = PhaseGuard::enter(phases, Phase::Log);
                s.log(table, options, tick, shared, max_attempts)
            },
            |joined| {
                let Some(key) = keys.next() else { return };
                let (result, retries) = match joined {
                    Ok(((result, retries), s)) => (result.map(|logged| (logged, s)), retries),
                    Err(_) => {
                        let detail = "shard commit thread panicked".to_owned();
                        (Err((ShardState::Failed, detail)), 0)
                    }
                };
                outcome.retries = outcome.retries.saturating_add(retries);
                match result {
                    Ok((logged, s)) => {
                        let _apply = PhaseGuard::enter(phases, Phase::Apply);
                        let applied =
                            store.apply_logged(table, options, shared, &logged, s.batch.len());
                        s.shard.points = s.shard.points.saturating_add(applied.points);
                        outcome.written = outcome.written.saturating_add(applied.stored);
                    }
                    Err((state, detail)) => {
                        outcome.failures.push(failure_row(key, state, &detail));
                    }
                }
            },
        );
        if let Ok(t) = store.table(table) {
            book.resolve(t, points);
        }
        self.checkpoint_due(store, table, options);
        outcome
    }

    /// Rotates the checkpoints of `table`'s shards that reached the
    /// cadence, [`IN_FLIGHT`] at a time like a commit. One pass over the
    /// table hands each due shard the series of its region; each shard's
    /// thread encodes its own slice — the bytes its own store would have
    /// saved. A transient fault postpones the rotation to the table's
    /// next commit; a crash kills that shard alone, its torn temp file
    /// never renamed, so its committed state (checkpoint + full WAL) is
    /// intact for recovery.
    fn checkpoint_due(&mut self, store: &Database, table: &str, options: TableOptions) {
        let every = self.checkpoint_every;
        let (regions, due): (Vec<&str>, Vec<&mut Shard>) = self
            .shards
            .iter_mut()
            .filter(|(key, shard)| key.dataset == table && shard.due(every))
            .map(|(key, shard)| (key.region.as_str(), shard))
            .unzip();
        if due.is_empty() {
            return;
        }
        let _cut = PhaseGuard::enter(&*self.phases, Phase::CheckpointCut);
        let mut jobs: Vec<(&mut Shard, Option<TableSlice<'_>>)> = due
            .into_iter()
            .zip(split_by_region(store, table, options, &regions))
            .collect();
        fan_out(
            &mut jobs,
            |(shard, image)| {
                if shard
                    .wal
                    .checkpoint_with(|| codec::encode_tables(image.as_slice()))
                    .is_ok()
                {
                    shard.checkpoint_tick = shard.last_tick;
                    shard.rounds_since_checkpoint = 0;
                }
            },
            // A rotation that panicked rotated nothing: the shard is
            // still due.
            |_| {},
        );
    }

    /// Per-round maintenance: persists the manifest watermark atomically
    /// if any moved. Checkpoints are cut as each table commits
    /// ([`ShardedArchive::commit`]), so the manifest written here records
    /// every rotation of the round.
    ///
    /// # Errors
    ///
    /// Returns an error only for root-level manifest I/O failure — shard
    /// faults are isolated, never propagated.
    pub fn maintain(&mut self) -> Result<(), TsError> {
        self.write_manifest()
    }

    /// Persists the shard map manifest from current in-memory watermarks,
    /// unless it already holds exactly these bytes.
    fn write_manifest(&mut self) -> Result<(), TsError> {
        let mut entries: BTreeMap<ShardKey, ManifestEntry> = BTreeMap::new();
        for (key, shard) in &self.shards {
            entries.insert(
                key.clone(),
                ManifestEntry {
                    last_tick: shard.last_tick,
                    checkpoint_tick: shard.checkpoint_tick,
                },
            );
        }
        for (key, q) in &self.quarantined {
            entries.insert(key.clone(), q.entry);
        }
        let bytes = encode_manifest(&entries)?;
        if bytes != self.manifest_persisted {
            codec::atomic_write(&manifest_path(&self.root), &bytes)?;
            self.manifest_persisted = bytes;
        }
        Ok(())
    }

    /// Installs the sink told each commit's delta, log, apply and
    /// checkpoint phases ([`spotlake_obs::PhaseSink`]).
    pub fn set_phase_sink(&mut self, sink: SharedPhaseSink) {
        self.phases = sink;
    }

    /// Aggregate recovery report from the last [`ShardedArchive::open`].
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Per-shard health rows, sorted by (dataset, region).
    pub fn health(&self) -> ShardSetHealth {
        let mut rows: BTreeMap<ShardKey, ShardHealthRow> = BTreeMap::new();
        for (key, shard) in &self.shards {
            let (state, detail) = if shard.wal.is_dead() {
                (
                    ShardState::Failed,
                    "wal dead after crash fault; restart required".to_owned(),
                )
            } else {
                (ShardState::Healthy, String::new())
            };
            rows.insert(
                key.clone(),
                ShardHealthRow {
                    dataset: key.dataset.clone(),
                    region: key.region.clone(),
                    state,
                    detail,
                    points: shard.points,
                    commits: shard.commits,
                    commit_failures: shard.commit_failures,
                    last_tick: shard.last_tick,
                },
            );
        }
        for (key, q) in &self.quarantined {
            rows.insert(
                key.clone(),
                ShardHealthRow {
                    dataset: key.dataset.clone(),
                    region: key.region.clone(),
                    state: ShardState::Quarantined,
                    detail: q.reason.clone(),
                    points: 0,
                    commits: 0,
                    commit_failures: 0,
                    last_tick: q.entry.last_tick,
                },
            );
        }
        ShardSetHealth {
            shards: rows.into_values().collect(),
        }
    }

    /// WAL counters summed across every live shard (`dead` is set when
    /// *any* shard's log is dead).
    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        let mut faults: BTreeMap<&'static str, u64> = BTreeMap::new();
        for shard in self.shards.values() {
            let s = shard.wal.stats();
            total.frames_appended = total.frames_appended.saturating_add(s.frames_appended);
            total.bytes_appended = total.bytes_appended.saturating_add(s.bytes_appended);
            total.records_elided = total.records_elided.saturating_add(s.records_elided);
            total.checkpoints = total.checkpoints.saturating_add(s.checkpoints);
            total.wal_bytes = total.wal_bytes.saturating_add(s.wal_bytes);
            total.dead |= s.dead;
            for (kind, n) in s.faults_injected {
                let slot = faults.entry(kind).or_insert(0);
                *slot = slot.saturating_add(n);
            }
        }
        total.faults_injected = faults.into_iter().collect();
        total
    }

    /// Saves each healthy shard's slice of `store` as `state.db` inside
    /// its shard directory — the bytes its checkpoint would hold now, and
    /// the per-shard byte-identity artifact crash tests compare across
    /// same-seed runs.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::Io`] on filesystem failure.
    pub fn save_shard_states(&self, store: &Database) -> Result<(), TsError> {
        for (key, shard) in &self.shards {
            let options = store
                .table(&key.dataset)
                .map(|t| t.options())
                .unwrap_or_default();
            let image = split_by_region(store, &key.dataset, options, &[key.region.as_str()])
                .pop()
                .flatten();
            let bytes = codec::encode_tables(image.as_slice())?;
            codec::atomic_write(&shard.dir.join("state.db"), &bytes)?;
        }
        Ok(())
    }
}

/// Runs `work` on every job on its own scoped thread, [`IN_FLIGHT`] at a
/// time, and hands each job back with its outcome to `joined` on the
/// calling thread, in job order, as soon as that thread is joined and the
/// next job has taken its place — so what `joined` does overlaps the jobs
/// still running. A job that panicked yields `Err`; every other job's
/// outcome is delivered regardless.
fn fan_out<J: Send, T: Send>(
    jobs: &mut [J],
    work: impl Fn(&mut J) -> T + Sync,
    mut joined: impl FnMut(std::thread::Result<(T, &mut J)>),
) {
    let work = &work;
    std::thread::scope(|scope| {
        let mut waiting = jobs.iter_mut();
        let mut in_flight: VecDeque<_> = waiting
            .by_ref()
            .take(IN_FLIGHT)
            .map(|job| scope.spawn(move || (work(job), job)))
            .collect();
        while let Some(handle) = in_flight.pop_front() {
            let outcome = handle.join();
            if let Some(job) = waiting.next() {
                in_flight.push_back(scope.spawn(move || (work(job), job)));
            }
            joined(outcome);
        }
    });
}

/// A failure row for [`ShardCommitOutcome`].
fn failure_row(key: &ShardKey, state: ShardState, detail: &str) -> ShardHealthRow {
    ShardHealthRow {
        dataset: key.dataset.clone(),
        region: key.region.clone(),
        state,
        detail: detail.to_owned(),
        points: 0,
        commits: 0,
        commit_failures: 0,
        last_tick: None,
    }
}

/// Files one recovered shard's series in the store; the caller then
/// drops the shard's own database, so the store is the only copy.
fn merge_into(store: &mut Database, shard_db: &Database) -> Result<(), TsError> {
    for (name, table) in shard_db.tables() {
        if store.table(name).is_err() {
            store.create_table(name, table.options())?;
        }
        let dst = store.table_mut(name)?;
        for (measure, dimensions, series) in table.series_entries() {
            dst.insert_series_raw(dimensions.iter(), measure, series.points().to_vec());
        }
    }
    Ok(())
}

/// The slices of `table` its shards in `regions` own, from one pass over
/// the table in `store`: each series goes to the slice of its region, in
/// the order the codec writes a table, so a slice encodes to the bytes a
/// store holding just that shard's series would save. A region without
/// series gets no slice, as a shard that never stored anything has no
/// table.
fn split_by_region<'a>(
    store: &'a Database,
    table: &'a str,
    options: TableOptions,
    regions: &[&str],
) -> Vec<Option<TableSlice<'a>>> {
    let slot: BTreeMap<&str, usize> = regions.iter().enumerate().map(|(i, r)| (*r, i)).collect();
    let mut series: Vec<Vec<(&str, Dimensions<'_>, &Series)>> = vec![Vec::new(); regions.len()];
    if let Ok(t) = store.table(table) {
        for (measure, dimensions, s) in t.series_entries() {
            let region = dimensions.get("region").unwrap_or("none");
            if let Some(list) = slot.get(region).and_then(|&i| series.get_mut(i)) {
                list.push((measure, dimensions, s));
            }
        }
    }
    series
        .into_iter()
        .map(|series| {
            (!series.is_empty()).then_some(TableSlice {
                name: table,
                options,
                series,
            })
        })
        .collect()
}

/// Derives a shard's fault plan: independent seed per (dataset, region),
/// zeroed when the drill targets a different single shard.
fn derive_plan(cfg: &ShardFaultConfig, key: &ShardKey) -> IoFaultPlan {
    if let Some(only) = &cfg.only {
        if only != key {
            return IoFaultPlan::none(cfg.plan.seed);
        }
    }
    let mut plan = cfg.plan;
    // Independent, reproducible seed per shard, via the fault layer's own
    // FNV derivation hash.
    plan.seed = crate::iofault::hash_u64(&key.dataset, &key.region, 0, cfg.plan.seed);
    plan
}

// ---- manifest codec ----------------------------------------------------

fn encode_manifest(entries: &BTreeMap<ShardKey, ManifestEntry>) -> Result<Vec<u8>, TsError> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    out.push(MANIFEST_VERSION);
    codec::put_len(&mut out, entries.len(), "shard manifest entries")?;
    for (key, e) in entries {
        codec::put_str(&mut out, &key.dataset)?;
        codec::put_str(&mut out, &key.region)?;
        put_opt_u64(&mut out, e.last_tick);
        put_opt_u64(&mut out, e.checkpoint_tick);
    }
    let checksum = crc32(&out);
    codec::put_u32(&mut out, checksum);
    Ok(out)
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(n) => {
            out.push(1);
            codec::put_u64(out, n);
        }
        None => out.push(0),
    }
}

fn read_opt_u64(c: &mut Cursor<'_>) -> Result<Option<u64>, TsError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.u64()?)),
        f => Err(TsError::Corrupt {
            detail: format!("bad manifest option flag {f}"),
        }),
    }
}

/// Reads the root manifest; a root without one is an empty archive —
/// unless it holds the retired single-WAL layout, which fails closed with
/// [`TsError::RetiredLayout`] rather than leave that data unread.
fn read_manifest(root: &Path) -> Result<BTreeMap<ShardKey, ManifestEntry>, TsError> {
    let path = manifest_path(root);
    if !path.exists() {
        if let Some(file) = ["wal.log", "checkpoint.db"]
            .into_iter()
            .map(|name| root.join(name))
            .find(|file| file.exists())
        {
            return Err(TsError::RetiredLayout { file });
        }
        return Ok(BTreeMap::new());
    }
    decode_manifest(&std::fs::read(&path)?)
}

fn decode_manifest(bytes: &[u8]) -> Result<BTreeMap<ShardKey, ManifestEntry>, TsError> {
    let corrupt = |detail: &str| TsError::Corrupt {
        detail: format!("shard manifest: {detail}"),
    };
    let body_bytes = bytes
        .len()
        .checked_sub(4)
        .ok_or_else(|| corrupt("too short"))?;
    let body = bytes
        .get(..body_bytes)
        .ok_or_else(|| corrupt("too short"))?;
    let stored =
        codec::read_u32_le(bytes, body_bytes).ok_or_else(|| corrupt("missing checksum"))?;
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut c = Cursor::new(body);
    if c.take(4)? != MANIFEST_MAGIC.as_slice() {
        return Err(corrupt("bad magic"));
    }
    let version = c.u8()?;
    if version != MANIFEST_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let count = c.u32()? as usize;
    // Each entry needs at least 10 bytes; bound the loop by what exists.
    if count > c.remaining() / 10 {
        return Err(corrupt("entry count implausible for manifest size"));
    }
    let mut entries = BTreeMap::new();
    for _ in 0..count {
        let dataset = c.str_()?;
        let region = c.str_()?;
        let last_tick = read_opt_u64(&mut c)?;
        let checkpoint_tick = read_opt_u64(&mut c)?;
        entries.insert(
            ShardKey { dataset, region },
            ManifestEntry {
                last_tick,
                checkpoint_tick,
            },
        );
    }
    if !c.is_done() {
        return Err(corrupt("trailing data"));
    }
    Ok(entries)
}

// ---- fsck / repair -----------------------------------------------------

/// A shard's offline verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardVerdict {
    /// Checkpoint loads, no torn tail, watermark satisfied.
    Clean,
    /// Recoverable damage only: a torn (unacked) tail or stale checkpoint
    /// temp file that the next recovery truncates or discards.
    Degraded,
    /// A quarantine marker is present; `--repair` clears it.
    Quarantined,
    /// Committed data is lost: the checkpoint is unreadable or recovery
    /// would yield less than the manifest watermark.
    Corrupt,
}

impl ShardVerdict {
    /// Stable lowercase name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardVerdict::Clean => "clean",
            ShardVerdict::Degraded => "degraded",
            ShardVerdict::Quarantined => "quarantined",
            ShardVerdict::Corrupt => "corrupt",
        }
    }
}

/// One row of a [`ShardSetReport`].
#[derive(Debug, Clone)]
pub struct ShardFsckRow {
    /// The shard's dataset.
    pub dataset: String,
    /// The shard's region.
    pub region: String,
    /// The verdict.
    pub verdict: ShardVerdict,
    /// Points recovery would produce for this shard.
    pub points: usize,
    /// Distinct round ticks covered by checkpoint + log.
    pub rounds: u64,
    /// What is wrong, when something is; empty when clean.
    pub detail: String,
}

/// The per-shard verdict table `spotlake fsck` prints for a sharded
/// archive, with the exit-code policy (0 clean / 1 degraded / 2 corrupt
/// or quarantined).
#[derive(Debug, Clone, Default)]
pub struct ShardSetReport {
    /// One row per manifest shard, sorted by (dataset, region).
    pub rows: Vec<ShardFsckRow>,
    /// Repair actions taken, in order (empty for a plain fsck).
    pub actions: Vec<String>,
}

impl ShardSetReport {
    /// The process exit code the verdicts map to: 0 when every shard is
    /// clean, 1 when the worst is degraded (self-healing damage), 2 when
    /// any shard is corrupt or quarantined.
    pub fn exit_code(&self) -> u8 {
        let worst = self
            .rows
            .iter()
            .map(|r| r.verdict)
            .fold(ShardVerdict::Clean, |acc, v| match (acc, v) {
                (ShardVerdict::Corrupt, _) | (_, ShardVerdict::Corrupt) => ShardVerdict::Corrupt,
                (ShardVerdict::Quarantined, _) | (_, ShardVerdict::Quarantined) => {
                    ShardVerdict::Quarantined
                }
                (ShardVerdict::Degraded, _) | (_, ShardVerdict::Degraded) => ShardVerdict::Degraded,
                _ => ShardVerdict::Clean,
            });
        match worst {
            ShardVerdict::Clean => 0,
            ShardVerdict::Degraded => 1,
            ShardVerdict::Quarantined | ShardVerdict::Corrupt => 2,
        }
    }

    /// Whether every shard is clean.
    pub fn clean(&self) -> bool {
        self.exit_code() == 0
    }

    /// A deterministic, aligned verdict table.
    pub fn render(&self) -> String {
        let clean_n = self
            .rows
            .iter()
            .filter(|r| r.verdict == ShardVerdict::Clean)
            .count();
        let mut out = format!(
            "shard fsck: {} shards, {} clean (exit {})\n",
            self.rows.len(),
            clean_n,
            self.exit_code()
        );
        let mut w_dataset = "DATASET".len();
        let mut w_region = "REGION".len();
        let mut w_verdict = "VERDICT".len();
        let mut w_points = "POINTS".len();
        for r in &self.rows {
            w_dataset = w_dataset.max(r.dataset.chars().count());
            w_region = w_region.max(r.region.chars().count());
            w_verdict = w_verdict.max(r.verdict.as_str().chars().count());
            w_points = w_points.max(r.points.to_string().chars().count());
        }
        out.push_str(&format!(
            "  {:<w_dataset$}  {:<w_region$}  {:<w_verdict$}  {:>w_points$}  {:>6}  DETAIL\n",
            "DATASET", "REGION", "VERDICT", "POINTS", "ROUNDS"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<w_dataset$}  {:<w_region$}  {:<w_verdict$}  {:>w_points$}  {:>6}  {}\n",
                r.dataset,
                r.region,
                r.verdict.as_str(),
                r.points,
                r.rounds,
                r.detail
            ));
        }
        for a in &self.actions {
            out.push_str(&format!("  repair: {a}\n"));
        }
        out
    }
}

/// Builds one shard's fsck row from its directory and manifest entry.
fn fsck_row(root: &Path, key: &ShardKey, entry: ManifestEntry) -> ShardFsckRow {
    let dir = shard_dir(root, key);
    let quarantined = dir.join(QUARANTINE_FILE).exists();
    let report = match fsck(&dir) {
        Ok(r) => r,
        Err(e) => {
            return ShardFsckRow {
                dataset: key.dataset.clone(),
                region: key.region.clone(),
                verdict: ShardVerdict::Corrupt,
                points: 0,
                rounds: 0,
                detail: format!("fsck failed: {e}"),
            }
        }
    };
    let checkpoint_tick = entry
        .checkpoint_tick
        .filter(|_| report.checkpoint_present && report.checkpoint_ok);
    let recovered_tick = match (checkpoint_tick, report.last_tick) {
        (Some(c), Some(f)) => Some(c.max(f)),
        (c, f) => c.or(f),
    };
    let lost = entry
        .last_tick
        .is_some_and(|acked| recovered_tick.is_none_or(|r| r < acked));
    let mut details: Vec<String> = Vec::new();
    if !report.checkpoint_ok {
        details.push(format!(
            "checkpoint corrupt: {}",
            report.checkpoint_detail.clone().unwrap_or_default()
        ));
    }
    if lost {
        details.push(format!(
            "committed rounds lost (manifest acked tick {}, recoverable {})",
            entry.last_tick.unwrap_or(0),
            match recovered_tick {
                Some(r) => r.to_string(),
                None => "nothing".to_owned(),
            }
        ));
    }
    if report.torn_bytes > 0 {
        details.push(format!(
            "torn tail: {} bytes ({})",
            report.torn_bytes,
            report.torn_detail.clone().unwrap_or_default()
        ));
    }
    if report.stale_tmp {
        details.push("stale checkpoint temp file".to_owned());
    }
    if quarantined {
        details.push("quarantine marker present".to_owned());
    }
    let verdict = if !report.checkpoint_ok || lost {
        ShardVerdict::Corrupt
    } else if quarantined {
        ShardVerdict::Quarantined
    } else if !report.clean() {
        ShardVerdict::Degraded
    } else {
        ShardVerdict::Clean
    };
    let points = report.tables.iter().map(|(_, p)| p).sum();
    ShardFsckRow {
        dataset: key.dataset.clone(),
        region: key.region.clone(),
        verdict,
        points,
        rounds: report.rounds,
        detail: details.join("; "),
    }
}

/// Scans every manifest shard without mutating anything and returns the
/// per-shard verdict table.
///
/// # Errors
///
/// Returns [`TsError::Corrupt`] if the root manifest is mangled,
/// [`TsError::RetiredLayout`] if `root` holds the retired single-WAL
/// layout, or [`TsError::Io`] on root-level filesystem failure.
pub fn fsck_shards(root: &Path) -> Result<ShardSetReport, TsError> {
    let manifest = read_manifest(root)?;
    let rows = manifest
        .iter()
        .map(|(key, entry)| fsck_row(root, key, *entry))
        .collect();
    Ok(ShardSetReport {
        rows,
        actions: Vec::new(),
    })
}

/// Repairs every shard to its surviving committed prefix: drops
/// unreadable checkpoints, truncates torn WAL tails, lowers the manifest
/// watermark to what is actually recoverable, and clears quarantine
/// markers — after which the next open re-admits every shard. Returns
/// the post-repair verdict table with the actions taken.
///
/// # Errors
///
/// Returns [`TsError::Corrupt`] if the root manifest is mangled,
/// [`TsError::RetiredLayout`] if `root` holds the retired single-WAL
/// layout, or [`TsError::Io`] on root-level filesystem failure.
pub fn repair_shards(root: &Path) -> Result<ShardSetReport, TsError> {
    let mut manifest = read_manifest(root)?;
    let mut actions = Vec::new();
    for (key, entry) in manifest.iter_mut() {
        let dir = shard_dir(root, key);
        let checkpoint = dir.join("checkpoint.db");
        if checkpoint.exists() && Database::load(&checkpoint).is_err() {
            std::fs::remove_file(&checkpoint)?;
            entry.checkpoint_tick = None;
            actions.push(format!("{key}: dropped unreadable checkpoint"));
        }
        let (_, report) = match recover(&dir) {
            Ok(pair) => pair,
            Err(e) => {
                actions.push(format!("{key}: recovery still failing: {e}"));
                continue;
            }
        };
        if report.bytes_truncated > 0 {
            actions.push(format!(
                "{key}: truncated {} torn bytes",
                report.bytes_truncated
            ));
        }
        let checkpoint_tick = entry.checkpoint_tick.filter(|_| report.checkpoint_loaded);
        let recovered_tick = match (checkpoint_tick, report.last_tick) {
            (Some(c), Some(f)) => Some(c.max(f)),
            (c, f) => c.or(f),
        };
        if entry.last_tick != recovered_tick {
            actions.push(format!(
                "{key}: watermark {} -> {}",
                render_tick(entry.last_tick),
                render_tick(recovered_tick)
            ));
            entry.last_tick = recovered_tick;
        }
        entry.checkpoint_tick = checkpoint_tick;
        let marker = dir.join(QUARANTINE_FILE);
        if marker.exists() {
            std::fs::remove_file(&marker)?;
            actions.push(format!("{key}: cleared quarantine marker"));
        }
    }
    codec::atomic_write(&manifest_path(root), &encode_manifest(&manifest)?)?;
    let mut report = fsck_shards(root)?;
    report.actions = actions;
    Ok(report)
}

fn render_tick(t: Option<u64>) -> String {
    match t {
        Some(t) => t.to_string(),
        None => "none".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn tempdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotlake-ts-shard-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn batch(region: &str, tick: u64) -> Vec<Record> {
        (0..3u64)
            .map(|i| {
                Record::new(tick * 600 + i, "score", (tick + i) as f64)
                    .dimension("instance_type", "m5.large")
                    .dimension("region", region)
                    .dimension("az", format!("{region}a"))
            })
            .collect()
    }

    fn keys() -> Vec<ShardKey> {
        vec![
            ShardKey::new("sps", "eu-test-1"),
            ShardKey::new("sps", "us-test-1"),
        ]
    }

    fn run_rounds(root: &Path, rounds: u64, faults: Option<ShardFaultConfig>) -> Database {
        let (mut archive, mut merged) = ShardedArchive::open(root, &keys(), 2, faults).unwrap();
        let _ = merged.create_table("sps", TableOptions::default());
        for tick in 1..=rounds {
            let mut records = batch("eu-test-1", tick);
            records.extend(batch("us-test-1", tick));
            archive.commit(
                &mut merged,
                "sps",
                TableOptions::default(),
                tick,
                &records,
                3,
            );
            archive.maintain().unwrap();
        }
        merged
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let mut entries = BTreeMap::new();
        entries.insert(
            ShardKey::new("sps", "us-test-1"),
            ManifestEntry {
                last_tick: Some(9),
                checkpoint_tick: None,
            },
        );
        entries.insert(
            ShardKey::new("price", "eu-test-1"),
            ManifestEntry {
                last_tick: None,
                checkpoint_tick: Some(4),
            },
        );
        let bytes = encode_manifest(&entries).unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap(), entries);
        let mut mangled = bytes.clone();
        mangled[10] ^= 0x40;
        assert!(matches!(
            decode_manifest(&mangled),
            Err(TsError::Corrupt { .. })
        ));
        assert!(decode_manifest(&bytes[..3]).is_err());
    }

    #[test]
    fn commit_fans_out_and_merged_view_matches_shards() {
        let root = tempdir("fanout");
        let merged = run_rounds(&root, 4, None);
        assert_eq!(merged.point_count(), 4 * 6);
        // Reopen: the merged rebuild equals the pre-crash view.
        let (archive, reopened) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        assert_eq!(reopened.point_count(), merged.point_count());
        let health = archive.health();
        assert_eq!(health.total(), 2);
        assert_eq!(health.healthy(), 2);
        assert!(!health.degraded());
        // Checkpoints rotated during the run (cadence 2, 4 rounds).
        assert!(shard_dir(&root, &keys()[0]).join("checkpoint.db").exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_shard_first_seen_mid_run_serves_what_its_directory_holds() {
        let root = tempdir("mid-run");
        // A shard directory neither the manifest nor the open's keys name,
        // holding one committed round.
        let late = ShardKey::new("sps", "ap-test-1");
        let mut wal = Wal::open(&shard_dir(&root, &late)).unwrap();
        wal.append("sps", TableOptions::default(), 1, &batch("ap-test-1", 1))
            .unwrap();
        drop(wal);
        let (mut archive, mut store) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        store.create_table("sps", TableOptions::default()).unwrap();
        assert_eq!(store.point_count(), 0);

        let records = batch("ap-test-1", 2);
        let out = archive.commit(&mut store, "sps", TableOptions::default(), 2, &records, 3);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.written, 3);
        // The recovered round serves next to the committed one.
        let q = Query::measure("score").filter("region", "ap-test-1");
        let times: Vec<u64> = store
            .query("sps", &q)
            .unwrap()
            .iter()
            .map(|r| r.time)
            .collect();
        assert_eq!(times, vec![600, 601, 602, 1200, 1201, 1202]);
        let row = archive
            .health()
            .shards
            .into_iter()
            .find(|r| r.region == "ap-test-1");
        assert_eq!(
            row.map(|r| (r.state, r.points)),
            Some((ShardState::Healthy, 6))
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn crash_fault_in_one_shard_leaves_the_other_committing() {
        let root = tempdir("isolate");
        let target = ShardKey::new("sps", "eu-test-1");
        let cfg = ShardFaultConfig {
            plan: IoFaultPlan {
                torn_write_rate: 1.0,
                ..IoFaultPlan::none(7)
            },
            only: Some(target.clone()),
        };
        let (mut archive, mut merged) = ShardedArchive::open(&root, &keys(), 2, Some(cfg)).unwrap();
        merged.create_table("sps", TableOptions::default()).unwrap();
        let mut records = batch("eu-test-1", 1);
        records.extend(batch("us-test-1", 1));
        let outcome = archive.commit(&mut merged, "sps", TableOptions::default(), 1, &records, 3);
        assert_eq!(outcome.written, 3, "us shard committed");
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].region, "eu-test-1");
        let health = archive.health();
        assert_eq!(health.healthy(), 1);
        assert!(health.degraded());
        assert!(!health.all_lost());
        archive.maintain().unwrap();
        // Only the committed region's records are in the merged view.
        let rows = merged.query("sps", &Query::measure("score")).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.dimensions().get("region") == Some("us-test-1")));
        // Restart: the torn tail was never acked, so the shard self-heals
        // without quarantine.
        drop(archive);
        let (archive, merged2) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        assert_eq!(archive.health().healthy(), 2);
        assert_eq!(merged2.point_count(), 3);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupting_committed_frames_quarantines_only_that_shard() {
        let root = tempdir("quarantine");
        let before = run_rounds(&root, 3, None);
        assert_eq!(before.point_count(), 18);
        // Flip a byte inside the committed region of one shard's WAL.
        let wal = shard_dir(&root, &ShardKey::new("sps", "eu-test-1")).join("wal.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&wal, &bytes).unwrap();

        let (archive, merged) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        let health = archive.health();
        assert_eq!(health.healthy(), 1);
        let quarantined: Vec<_> = health.quarantined().collect();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].region, "eu-test-1");
        assert!(
            quarantined[0].detail.contains("committed rounds lost"),
            "{}",
            quarantined[0].detail
        );
        // The healthy shard's data survives byte-identically.
        let rows = merged.query("sps", &Query::measure("score")).unwrap();
        assert_eq!(rows.len(), 9);
        // fsck says corrupt (exit 2); repair clears it (exit 0) and the
        // next open re-admits the shard with the surviving prefix.
        let fsck_report = fsck_shards(&root).unwrap();
        assert_eq!(fsck_report.exit_code(), 2, "{}", fsck_report.render());
        drop(archive);
        let repaired = repair_shards(&root).unwrap();
        assert_eq!(repaired.exit_code(), 0, "{}", repaired.render());
        assert!(repaired
            .actions
            .iter()
            .any(|a| a.contains("cleared quarantine marker")));
        let (archive, _) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        assert_eq!(archive.health().healthy(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn same_seed_recovery_is_byte_identical_per_shard() {
        let root_a = tempdir("det-a");
        let root_b = tempdir("det-b");
        let cfg = || {
            Some(ShardFaultConfig {
                plan: IoFaultPlan::transient(11),
                only: None,
            })
        };
        run_rounds(&root_a, 5, cfg());
        run_rounds(&root_b, 5, cfg());
        for key in keys() {
            let (a, b) = (
                std::fs::read(shard_dir(&root_a, &key).join("wal.log")).unwrap(),
                std::fs::read(shard_dir(&root_b, &key).join("wal.log")).unwrap(),
            );
            assert_eq!(a, b, "same-seed WAL bytes for {key}");
        }
        assert_eq!(
            std::fs::read(manifest_path(&root_a)).unwrap(),
            std::fs::read(manifest_path(&root_b)).unwrap()
        );
        std::fs::remove_dir_all(&root_a).ok();
        std::fs::remove_dir_all(&root_b).ok();
    }

    /// More regions than one window of commit threads holds.
    fn wide_regions() -> Vec<String> {
        (0..IN_FLIGHT + 2)
            .map(|i| format!("r{i:02}-test-1"))
            .collect()
    }

    fn wide_keys(dataset: &str) -> Vec<ShardKey> {
        wide_regions()
            .iter()
            .map(|r| ShardKey::new(dataset, r))
            .collect()
    }

    fn wide_batch(tick: u64) -> Vec<Record> {
        wide_regions().iter().flat_map(|r| batch(r, tick)).collect()
    }

    fn changepoint() -> TableOptions {
        TableOptions {
            mode: crate::table::WriteMode::ChangePoint,
            retention: None,
        }
    }

    /// One advisor-like record per region: `value` as of `tick`.
    fn scores(tick: u64, value: f64) -> Vec<Record> {
        keys()
            .iter()
            .map(|k| {
                Record::new(tick * 600, "if_score", value)
                    .dimension("instance_type", "m5.large")
                    .dimension("region", k.region.as_str())
            })
            .collect()
    }

    #[test]
    fn the_watermark_advances_only_with_a_frame() {
        let root = tempdir("watermark");
        let (mut archive, mut merged) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        merged.create_table("sps", changepoint()).unwrap();
        let out = archive.commit(&mut merged, "sps", changepoint(), 1, &scores(1, 3.0), 3);
        assert_eq!((out.written, out.failures.len()), (2, 0));
        archive.maintain().unwrap();
        let logged = archive.wal_stats();
        let manifest = std::fs::read(manifest_path(&root)).unwrap();

        // Round 2 repeats every value: acked, but no frame, no fsync, and
        // nothing newer for the manifest to promise.
        let out = archive.commit(&mut merged, "sps", changepoint(), 2, &scores(2, 3.0), 3);
        assert_eq!((out.written, out.failures.len()), (0, 0));
        let stats = archive.wal_stats();
        assert_eq!(stats.frames_appended, logged.frames_appended);
        assert_eq!(stats.wal_bytes, logged.wal_bytes);
        assert_eq!(stats.records_elided, 2);
        for row in &archive.health().shards {
            assert_eq!(row.last_tick, Some(1), "{}/{}", row.dataset, row.region);
            assert_eq!(row.commits, 2, "an elided batch is still an acked batch");
        }
        // An unchanged manifest is not rewritten: removing it behind the
        // archive's back shows whether a write happened.
        std::fs::remove_file(manifest_path(&root)).unwrap();
        archive.maintain().unwrap();
        assert!(!manifest_path(&root).exists());
        std::fs::write(manifest_path(&root), &manifest).unwrap();
        assert_eq!(stats.checkpoints, 0, "cadence 2 counts frames, not rounds");

        // Round 3 changes one region: that shard alone logs, reaches the
        // cadence and moves its watermark.
        let mut change = scores(3, 3.0);
        change[0].value = 2.0;
        let out = archive.commit(&mut merged, "sps", changepoint(), 3, &change, 3);
        assert_eq!((out.written, out.failures.len()), (1, 0));
        archive.maintain().unwrap();
        assert_eq!(archive.wal_stats().checkpoints, 1);
        assert_ne!(std::fs::read(manifest_path(&root)).unwrap(), manifest);
        let ticks: Vec<Option<u64>> = archive
            .health()
            .shards
            .iter()
            .map(|r| r.last_tick)
            .collect();
        assert_eq!(ticks, vec![Some(3), Some(1)]);

        // The lagging watermark is what recovery finds: no "committed
        // rounds lost", nothing for fsck or repair to do.
        drop(archive);
        assert!(fsck_shards(&root).unwrap().clean());
        let (archive, reopened) = ShardedArchive::open(&root, &keys(), 2, None).unwrap();
        assert_eq!(archive.health().healthy(), 2);
        assert_eq!(reopened.point_count(), merged.point_count());
        drop(archive);
        let repaired = repair_shards(&root).unwrap();
        assert!(repaired.actions.is_empty(), "{:?}", repaired.actions);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_crash_in_a_full_window_loses_no_other_shards_ack() {
        let root = tempdir("wide-crash");
        let target = wide_keys("sps").swap_remove(3);
        let cfg = ShardFaultConfig {
            plan: IoFaultPlan {
                torn_write_rate: 1.0,
                ..IoFaultPlan::none(7)
            },
            only: Some(target.clone()),
        };
        let (mut archive, mut merged) =
            ShardedArchive::open(&root, &wide_keys("sps"), 2, Some(cfg)).unwrap();
        merged.create_table("sps", TableOptions::default()).unwrap();
        let survivors = wide_regions().len() - 1;
        for tick in 1..=2 {
            let out = archive.commit(
                &mut merged,
                "sps",
                TableOptions::default(),
                tick,
                &wide_batch(tick),
                3,
            );
            assert_eq!(out.written, 3 * survivors, "tick {tick}");
            let failed: Vec<&str> = out.failures.iter().map(|f| f.region.as_str()).collect();
            assert_eq!(failed, vec![target.region.as_str()], "tick {tick}");
            assert_eq!(out.failures[0].state, ShardState::Failed);
        }
        assert_eq!(merged.point_count(), 2 * 3 * survivors);
        let health = archive.health();
        assert_eq!(health.healthy(), survivors);
        for row in health.shards.iter().filter(|r| r.region != target.region) {
            assert_eq!((row.commits, row.points), (2, 6), "{}", row.region);
        }
        // Every ack is on disk: a restart rebuilds exactly the merged view.
        drop(archive);
        let (archive, reopened) = ShardedArchive::open(&root, &[], 2, None).unwrap();
        assert_eq!(archive.health().healthy(), survivors + 1);
        assert_eq!(reopened.point_count(), merged.point_count());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fan_out_delivers_every_outcome_in_order_past_a_panic() {
        let mut jobs: Vec<usize> = (0..IN_FLIGHT + 4).collect();
        // The first window's jobs meet at a barrier, so they are provably
        // all in flight when one of them panics.
        let all_in_flight = std::sync::Barrier::new(IN_FLIGHT);
        let mut delivered = Vec::new();
        fan_out(
            &mut jobs,
            |job| {
                if *job < IN_FLIGHT {
                    all_in_flight.wait();
                }
                assert!(*job != 3, "job 3 panics inside the window");
                *job *= 10;
                *job
            },
            |outcome| delivered.push(outcome.ok().map(|(out, _)| out)),
        );
        let expected: Vec<Option<usize>> = (0..IN_FLIGHT + 4)
            .map(|i| (i != 3).then_some(i * 10))
            .collect();
        assert_eq!(delivered, expected);
    }

    #[test]
    fn a_checkpoint_crash_during_parallel_rotation_kills_only_that_shard() {
        let root = tempdir("wide-checkpoint");
        let target = wide_keys("sps").swap_remove(5);
        let cfg = |seed| ShardFaultConfig {
            plan: IoFaultPlan {
                bit_flip_rate: 0.5,
                ..IoFaultPlan::none(seed)
            },
            only: Some(target.clone()),
        };
        // A seed under which the target's first append survives and its
        // first checkpoint dies.
        let seed = (0..256u64)
            .find(|&seed| {
                let mut state = crate::iofault::IoFaultState::default();
                state.set_plan(derive_plan(&cfg(seed), &target));
                state.next("append").is_none() && state.next("checkpoint").is_some()
            })
            .expect("half the seeds spare the append, half of those kill the checkpoint");
        let (mut archive, mut merged) =
            ShardedArchive::open(&root, &wide_keys("sps"), 1, Some(cfg(seed))).unwrap();
        merged.create_table("sps", TableOptions::default()).unwrap();
        let out = archive.commit(
            &mut merged,
            "sps",
            TableOptions::default(),
            1,
            &wide_batch(1),
            3,
        );
        assert!(out.failures.is_empty());
        archive.maintain().unwrap();

        let survivors = wide_regions().len() - 1;
        let stats = archive.wal_stats();
        assert_eq!(stats.checkpoints as usize, survivors);
        assert!(stats.dead);
        for key in wide_keys("sps") {
            let rotated = shard_dir(&root, &key).join("checkpoint.db").exists();
            assert_eq!(rotated, key != target, "{key}");
        }
        let impaired: Vec<String> = archive
            .health()
            .impaired()
            .map(|r| r.region.clone())
            .collect();
        assert_eq!(impaired, vec![target.region.clone()]);
        // The dead shard's frame is still in its log: nothing was lost.
        drop(archive);
        let (archive, reopened) = ShardedArchive::open(&root, &[], 1, None).unwrap();
        assert_eq!(archive.health().healthy(), survivors + 1);
        assert_eq!(reopened.point_count(), merged.point_count());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_root_holding_the_retired_single_wal_layout_is_refused() {
        for file in ["wal.log", "checkpoint.db"] {
            let root = tempdir(&format!("retired-{file}"));
            // What a single-WAL archive left at its root: a log or a
            // checkpoint, and no shard map.
            let mut wal = Wal::open(&root).unwrap();
            wal.append("sps", TableOptions::default(), 1, &batch("us-test-1", 1))
                .unwrap();
            if file == "checkpoint.db" {
                wal.checkpoint(&Database::new()).unwrap();
                std::fs::remove_file(root.join("wal.log")).unwrap();
            }
            drop(wal);
            let refused = |r: Result<(), TsError>| {
                let e = r.expect_err("the retired layout is refused");
                let named =
                    matches!(&e, TsError::RetiredLayout { file: f } if *f == root.join(file));
                assert!(named && e.to_string().contains("single-WAL"), "{e}");
            };
            refused(ShardedArchive::open(&root, &keys(), 2, None).map(|_| ()));
            refused(fsck_shards(&root).map(|_| ()));
            refused(repair_shards(&root).map(|_| ()));
            // Nothing was written: the old data is still the root's only
            // content, unread and untouched.
            assert!(!manifest_path(&root).exists());
            assert!(!shard_dir(&root, &keys()[0]).exists());
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn verdict_table_renders_deterministically() {
        let root = tempdir("render");
        run_rounds(&root, 2, None);
        let a = fsck_shards(&root).unwrap();
        let b = fsck_shards(&root).unwrap();
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("DATASET"));
        assert!(a.clean());
        assert_eq!(a.exit_code(), 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
