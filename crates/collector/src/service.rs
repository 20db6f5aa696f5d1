//! The collection service: planning, scheduling, storage wiring, and the
//! resilience machinery that keeps rounds flowing under transient faults.
//!
//! Each of the three datasets is isolated: an advisor outage degrades the
//! round instead of discarding the SPS and price data collected alongside
//! it. Transient failures are retried in-round; datasets that keep failing
//! trip a per-dataset circuit breaker; SPS queries that exhaust their
//! retries are parked in a dead-letter queue and re-attempted in later
//! rounds with exponential backoff (re-issuing a known fingerprint is free
//! under the 50-unique-queries budget).
//!
//! Every dataset reaches the store through one commit path
//! (`CollectorService::commit_dataset`): a round's gathered points become
//! a `Batch` — points, retries, failed operations, first error — and the
//! same code commits it, feeds the quality monitor, picks the dataset's
//! status and settles its breaker. What tells the datasets apart is data:
//! the table's write mode, whether failures count plan slots (SPS) or one
//! sweep (advisor, price), and price's change feed.
use crate::accounts::AccountPool;
use crate::advisor_collector::AdvisorCollector;
use crate::durability::DeadLetterFile;
use crate::error::CollectError;
use crate::health::{Dataset, DatasetStatus, RoundHealth};
use crate::planner::{PlanStats, PlannerStrategy, QueryPlanner};
use crate::price_collector::PriceCollector;
use crate::retry::{BreakerState, CircuitBreaker, RetryPolicy};
use crate::series::SweepPoints;
use crate::sps_collector::{ShardQueue, SpsCollector, SpsScores};
use crate::trace::{CollectorTrace, RoundOutcome};
use spotlake_cloud_api::FaultPlan;
use spotlake_cloud_sim::SimCloud;
use spotlake_obs::{
    names, HealthReport, NoPhases, Phase, PhaseGuard, PhaseSink, QualityKey, QualityMonitor,
    QualityReport, Readiness, Registry, SharedPhaseSink, TraceRing,
};
use spotlake_timestream::{
    Database, IoFaultPlan, Point, RecoveryReport, SeriesBook, SeriesRef, ShardFaultConfig,
    ShardKey, ShardSetHealth, ShardedArchive, TableOptions, TsError, WalStats, WriteMode,
};
use spotlake_types::Catalog;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Re-attempts per dead-lettered query before it is dropped for good.
const DEAD_LETTER_MAX_ATTEMPTS: u32 = 5;

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Packing strategy for the query plan.
    pub strategy: PlannerStrategy,
    /// Size of the account pool; `None` sizes it to exactly cover the plan.
    pub accounts: Option<usize>,
    /// Target capacity used in placement-score queries.
    pub target_capacity: u32,
    /// Restrict collection to these instance type names (`None` = all).
    pub type_filter: Option<Vec<String>>,
    /// Collect the placement-score dataset.
    pub collect_sps: bool,
    /// Collect the advisor dataset.
    pub collect_advisor: bool,
    /// Collect the price dataset.
    pub collect_price: bool,
    /// Deterministic fault injection; `None` (the default) leaves every
    /// API surface and the store untouched.
    pub faults: Option<FaultPlan>,
    /// Retry budget and backoff schedule.
    pub retry: RetryPolicy,
    /// Root of the durable archive: a [`ShardedArchive`] of dataset ×
    /// region shards, each with its own WAL, checkpoint and recovery,
    /// plus the persisted dead-letter queue. `None` (the default) keeps
    /// the archive in memory only. With a directory set, the service
    /// recovers every shard at startup and commits every round's batches
    /// through the shards' WALs before applying them in memory.
    pub wal_dir: Option<PathBuf>,
    /// Checkpoint cadence (only meaningful with
    /// [`CollectorConfig::wal_dir`]): a shard rotates its checkpoint
    /// after every N frames it logs.
    pub checkpoint_every: u64,
    /// Deterministic disk-fault injection behind the shards' WAL and
    /// checkpoint writers (only meaningful with
    /// [`CollectorConfig::wal_dir`]).
    pub io_faults: Option<IoFaultPlan>,
    /// Selects nothing: every [`CollectorConfig::wal_dir`] archive is
    /// sharded. The field stays only because the benchmark sets it.
    pub shards: bool,
    /// Restrict [`CollectorConfig::io_faults`] to a single shard (only
    /// meaningful with [`CollectorConfig::wal_dir`]): every other shard
    /// runs fault-free, which is how the shard-loss drill proves fault
    /// isolation.
    pub io_fault_shard: Option<ShardKey>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            strategy: PlannerStrategy::default(),
            accounts: None,
            target_capacity: 1,
            type_filter: None,
            collect_sps: true,
            collect_advisor: true,
            collect_price: true,
            faults: None,
            retry: RetryPolicy::default(),
            wal_dir: None,
            checkpoint_every: 8,
            io_faults: None,
            shards: false,
            io_fault_shard: None,
        }
    }
}

/// Counters from collection rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Placement-score records written.
    pub sps_records: usize,
    /// Advisor records written (score + savings).
    pub advisor_records: usize,
    /// Price-change records written.
    pub price_records: usize,
    /// Total records actually stored (change-point tables skip repeats).
    pub records_written: usize,
    /// Placement-score queries issued.
    pub queries_issued: usize,
    /// Collection rounds executed.
    pub rounds: usize,
    /// Retry attempts spent across all datasets and store writes.
    pub retries: usize,
    /// Operations that failed even after retries (SPS queries, advisor
    /// fetches, price sweeps).
    pub queries_failed: usize,
    /// Rounds in which at least one dataset fell short.
    pub degraded_rounds: usize,
    /// SPS queries newly parked in the dead-letter queue.
    pub dead_lettered: usize,
}

impl CollectStats {
    fn absorb(&mut self, other: CollectStats) {
        self.sps_records += other.sps_records;
        self.advisor_records += other.advisor_records;
        self.price_records += other.price_records;
        self.records_written += other.records_written;
        self.queries_issued += other.queries_issued;
        self.rounds += other.rounds;
        self.retries += other.retries;
        self.queries_failed += other.queries_failed;
        self.degraded_rounds += other.degraded_rounds;
        self.dead_lettered += other.dead_lettered;
    }
}

/// One round's result: the counters plus the structured health record.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The round's counters.
    pub stats: CollectStats,
    /// What happened per dataset.
    pub health: RoundHealth,
}

/// A persistently failing SPS query parked for later re-attempts.
#[derive(Debug, Clone)]
pub(crate) struct DeadLetter {
    pub(crate) shard: usize,
    pub(crate) query: usize,
    pub(crate) attempts: u32,
    pub(crate) eligible_at: u64,
}

/// The SpotLake collection service: owns the archive database, the three
/// dataset collectors, and the resilience state (retry policy, breakers,
/// dead-letter queue).
///
/// A round gathers the datasets in two lanes, then commits SPS → advisor
/// → price through one commit path; per-dataset state (breakers, quality
/// keys) is an array indexed by [`Dataset`]. Each collector books its
/// series once, and a round hands the store `(id, time, value)` points of
/// them: the quality monitor's key of each series is looked up once too
/// (`CoverageKeys`), so a round spells no record and hashes no key string
/// per point.
#[derive(Debug)]
pub struct CollectorService {
    store: Store,
    sps: Option<SpsCollector>,
    advisor: Option<AdvisorCollector>,
    price: Option<PriceCollector>,
    plan_stats: PlanStats,
    policy: RetryPolicy,
    /// Each dataset's circuit breaker, by [`Dataset`].
    breakers: [CircuitBreaker; 3],
    dead_letters: Vec<DeadLetter>,
    /// Where the queue is persisted when the service runs durably.
    dead_letter_file: Option<DeadLetterFile>,
    /// Price points collected but not yet durably stored (the store
    /// throttled the write); flushed with the next successful sweep so a
    /// storage hiccup delays price data instead of losing it.
    pending_price: Vec<Point>,
    last_health: Option<RoundHealth>,
    /// Collector-level metrics (`spotlake_collector_*` and
    /// `spotlake_api_*` families). The store keeps its own registry on
    /// [`Database`].
    metrics: Registry,
    /// The newest rounds and dataset outcomes, keyed on sim-ticks.
    journal: TraceRing<CollectorTrace>,
    /// Running totals across all rounds this service has executed.
    totals: CollectStats,
    /// Per-(dataset × pool-key) coverage/staleness tracking, fed from the
    /// records each round actually stores.
    quality: QualityMonitor,
    /// Each dataset's series' quality keys, by series id.
    coverage: [CoverageKeys; 3],
}

/// Where a round's batches go.
#[derive(Debug)]
struct Store {
    /// The archive database every query reads.
    db: Database,
    /// The durable archive when the service runs with
    /// [`CollectorConfig::wal_dir`]: per-dataset×region WALs,
    /// checkpoints, and quarantine, with `db` rebuilt from every healthy
    /// shard. `None` keeps the archive in memory only.
    archive: Option<ShardedArchive>,
    /// Told where each round is ([`CollectorService::set_phase_sink`]).
    phases: SharedPhaseSink,
}

impl CollectorService {
    /// Plans queries for `catalog`, sizes the account pool, and creates the
    /// archive tables.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::InsufficientAccounts`] when an explicit
    /// account pool is too small for the plan, or [`CollectError::Store`]
    /// if the archive tables cannot be created.
    pub fn new(catalog: &Catalog, config: CollectorConfig) -> Result<Self, CollectError> {
        let planner = QueryPlanner::new(config.strategy);
        let (plan, plan_stats) = planner.plan_with_stats(catalog, config.type_filter.as_deref());

        let mut sps = if config.collect_sps {
            let pool_size = config
                .accounts
                .unwrap_or_else(|| AccountPool::required_accounts(plan.len()));
            let pool = AccountPool::with_size(pool_size);
            Some(SpsCollector::new(plan, &pool, config.target_capacity)?)
        } else {
            None
        };
        let mut advisor = config.collect_advisor.then(|| {
            let c = AdvisorCollector::new();
            match &config.type_filter {
                Some(f) => c.with_type_filter(f.clone()),
                None => c,
            }
        });
        let mut price = config.collect_price.then(|| {
            let c = PriceCollector::new();
            match &config.type_filter {
                Some(f) => c.with_type_filter(f.clone()),
                None => c,
            }
        });

        // With a WAL directory configured, the database is whatever
        // recovery reconstructs: each dataset×region shard recovers
        // independently (checkpoint + replay) and the healthy ones merge.
        // The tables are then ensured rather than created, since a
        // recovered archive already has them.
        let (mut db, archive) = match &config.wal_dir {
            Some(dir) => {
                let keys = shard_keys(catalog, &config);
                let faults = config.io_faults.map(|plan| ShardFaultConfig {
                    plan,
                    only: config.io_fault_shard.clone(),
                });
                let (archive, db) =
                    ShardedArchive::open(dir, &keys, config.checkpoint_every, faults)?;
                (db, Some(archive))
            }
            None => (Database::new(), None),
        };
        for dataset in Dataset::ALL {
            let options = TableOptions {
                mode: dataset.write_mode(),
                retention: None,
            };
            ensure_table(&mut db, dataset.name(), options)?;
        }

        if let Some(plan) = config.faults.filter(|p| !p.is_zero()) {
            if let Some(s) = &mut sps {
                s.set_fault_plan(plan);
            }
            if let Some(a) = &mut advisor {
                a.set_fault_plan(plan);
            }
            if let Some(p) = &mut price {
                p.set_fault_plan(plan);
            }
            db.set_write_faults(plan.write_rate, plan.seed);
        }

        let metrics = Registry::new();
        let mut journal = TraceRing::default();
        // The cloud advances one tick per round, so a live key is
        // expected every tick; any larger delta is a coverage gap.
        let mut quality = QualityMonitor::new(1);
        let recovery = archive.as_ref().map(ShardedArchive::recovery);
        let start_tick = recovery.and_then(|r| r.last_tick).unwrap_or(0);
        let (dead_letter_file, dead_letters) = match &config.wal_dir {
            Some(dir) => {
                let (file, letters) = DeadLetterFile::open(dir);
                (Some(file), letters)
            }
            None => (None, Vec::new()),
        };
        if let Some(r) = recovery {
            // Every recovered series becomes a tracked key as of the last
            // committed tick, so post-restart staleness and gaps measure
            // from the crash point instead of silently resetting.
            prime_quality(&mut quality, &db, start_tick);
            record_recovery_observations(&metrics, r);
            if r.recovered_anything() {
                journal.push(CollectorTrace::Recovery(r.clone()));
            }
        }

        Ok(CollectorService {
            store: Store {
                db,
                archive,
                phases: Arc::new(NoPhases),
            },
            sps,
            advisor,
            price,
            plan_stats,
            policy: config.retry,
            breakers: Dataset::ALL.map(|_| CircuitBreaker::new(3, 8)),
            dead_letters,
            dead_letter_file,
            pending_price: Vec::new(),
            last_health: None,
            metrics,
            journal,
            totals: CollectStats::default(),
            quality,
            coverage: Dataset::ALL.map(CoverageKeys::new),
        })
    }

    /// Installs the sink told each phase of every later round — this
    /// service's and its archive's commits ([`Phase`]). The default
    /// ignores them. A sink sees the round and changes nothing it does:
    /// no metric, journal line or stored byte depends on it.
    pub fn set_phase_sink(&mut self, sink: SharedPhaseSink) {
        if let Some(archive) = &mut self.store.archive {
            archive.set_phase_sink(Arc::clone(&sink));
        }
        self.store.phases = sink;
    }

    /// The query plan's statistics (Figure 1's headline numbers).
    pub fn plan_stats(&self) -> PlanStats {
        self.plan_stats
    }

    /// The archive database.
    pub fn database(&self) -> &Database {
        &self.store.db
    }

    /// Mutable access to the archive database.
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.store.db
    }

    /// Consumes the service, returning the archive.
    pub fn into_database(self) -> Database {
        self.store.db
    }

    /// The health record of the most recent round, if any ran.
    pub fn last_health(&self) -> Option<&RoundHealth> {
        self.last_health.as_ref()
    }

    /// Current dead-letter queue depth.
    pub fn dead_letter_depth(&self) -> usize {
        self.dead_letters.len()
    }

    /// What startup recovery found and replayed, aggregated across every
    /// shard's independent recovery, when the service runs durably
    /// ([`CollectorConfig::wal_dir`]).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.store.archive.as_ref().map(ShardedArchive::recovery)
    }

    /// The WAL counters summed over every live shard, when the service
    /// runs durably.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.store.archive.as_ref().map(ShardedArchive::wal_stats)
    }

    /// Per-shard health rows, when the service runs durably.
    pub fn shard_health(&self) -> Option<ShardSetHealth> {
        self.store.archive.as_ref().map(ShardedArchive::health)
    }

    /// The sharded archive itself, when the service runs durably.
    pub fn sharded_archive(&self) -> Option<&ShardedArchive> {
        self.store.archive.as_ref()
    }

    /// The collector's metric registry (`spotlake_collector_*` and
    /// `spotlake_api_*` families). The archive's own families live on
    /// [`Database::metrics`].
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The trace journal of the newest rounds (and startup recovery),
    /// rendered on demand.
    pub fn journal(&self) -> &TraceRing<CollectorTrace> {
        &self.journal
    }

    /// A point-in-time archive data-quality report: per-dataset coverage,
    /// staleness, and gap counts derived from what each round actually
    /// stored.
    pub fn quality_report(&self) -> QualityReport {
        self.quality.report()
    }

    /// Running totals across all rounds executed by this service.
    pub fn stats(&self) -> CollectStats {
        self.totals
    }

    /// A dataset's current circuit-breaker state.
    pub fn breaker_state(&self, dataset: Dataset) -> BreakerState {
        self.breakers[dataset as usize].state()
    }

    /// Whether `dataset` is collected at all.
    fn enabled(&self, dataset: Dataset) -> bool {
        match dataset {
            Dataset::Sps => self.sps.is_some(),
            Dataset::Advisor => self.advisor.is_some(),
            Dataset::Price => self.price.is_some(),
        }
    }

    /// Summarises the service's readiness for `/health`: one component per
    /// enabled dataset (breaker state plus the last round's outcome) and
    /// one for the dead-letter queue.
    ///
    /// An open breaker or a failed/skipped dataset degrades the component;
    /// a round in which *every* enabled dataset failed marks the collector
    /// unhealthy. No rounds yet reports ready — an idle service is not a
    /// sick one.
    pub fn health_report(&self) -> HealthReport {
        let mut report = HealthReport::new();
        let enabled: Vec<Dataset> = Dataset::ALL
            .into_iter()
            .filter(|&d| self.enabled(d))
            .collect();
        let all_failed = !enabled.is_empty()
            && self.last_health.as_ref().is_some_and(|h| {
                enabled
                    .iter()
                    .all(|&d| h.dataset(d).status == DatasetStatus::Failed)
            });
        for &dataset in &enabled {
            let breaker = self.breaker_state(dataset);
            let status = self.last_health.as_ref().map(|h| h.dataset(dataset).status);
            let readiness = if all_failed {
                Readiness::Unhealthy
            } else if breaker != BreakerState::Closed
                || matches!(
                    status,
                    Some(DatasetStatus::Failed) | Some(DatasetStatus::Skipped)
                )
            {
                Readiness::Degraded
            } else {
                Readiness::Ready
            };
            let detail = format!(
                "breaker {}, last round {}",
                breaker.as_str(),
                status.map_or("not yet run", DatasetStatus::as_str)
            );
            report.push(format!("collector/{}", dataset.name()), readiness, detail);
        }
        let depth = self.dead_letters.len();
        report.push(
            "collector/dead-letters",
            if depth == 0 {
                Readiness::Ready
            } else {
                Readiness::Degraded
            },
            format!("{depth} queued"),
        );
        if let Some(archive) = &self.store.archive {
            // Shards are independent fault domains, so the component
            // aggregates: unhealthy only when every shard is lost,
            // degraded (still serving) while any shard is impaired or
            // while only recovered data has been served.
            let h = archive.health();
            let recovery = archive.recovery();
            let (readiness, detail) = if h.all_lost() {
                (
                    Readiness::Unhealthy,
                    format!(
                        "all {} shards lost; restart or fsck --repair required",
                        h.total()
                    ),
                )
            } else if h.degraded() {
                let impaired: Vec<String> = h
                    .impaired()
                    .map(|r| format!("{}/{} {}", r.dataset, r.region, r.state.as_str()))
                    .collect();
                (
                    Readiness::Degraded,
                    format!(
                        "{}/{} shards healthy; impaired: {}",
                        h.healthy(),
                        h.total(),
                        impaired.join(", ")
                    ),
                )
            } else if recovery.recovered_anything() && self.totals.rounds == 0 {
                // Replay is done but no fresh round has landed yet: the
                // service is serving recovered data only.
                (
                    Readiness::Degraded,
                    format!(
                        "recovering: replayed {} frames ({} rounds), truncated {} bytes",
                        recovery.frames_replayed,
                        recovery.rounds_recovered,
                        recovery.bytes_truncated
                    ),
                )
            } else {
                (Readiness::Ready, format!("{} shards healthy", h.total()))
            };
            report.push("store/wal", readiness, detail);
        }
        report
    }

    /// Forces a dataset's circuit breaker open at `tick` — the operator
    /// kill switch (and the chaos tests' lever). The dataset is skipped
    /// until the breaker's cooldown elapses.
    pub fn force_breaker_open(&mut self, dataset: Dataset, tick: u64) {
        self.breakers[dataset as usize].force_open(tick);
    }

    /// Runs one collection round against the cloud's current state,
    /// returning both counters and the round's health record.
    ///
    /// Transient trouble — injected or otherwise — degrades the round:
    /// whatever was collected is stored and the shortfall is recorded in
    /// [`RoundHealth`]. Only non-retryable errors (invalid parameters,
    /// unknown entities, a blown query budget, schema-level store errors)
    /// return `Err`, because those are bugs rather than weather.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] only for the non-retryable class above.
    pub fn collect_round(&mut self, cloud: &SimCloud) -> Result<RoundReport, CollectError> {
        let tick = cloud.ticks();
        let round = self.run_round(cloud, tick);
        if round.is_err() {
            // The journal shows a round that began and never ended.
            self.journal.push(CollectorTrace::Round(tick, None));
        }
        round
    }

    /// [`CollectorService::collect_round`], less the journal record of a
    /// round that returns `Err`.
    fn run_round(&mut self, cloud: &SimCloud, tick: u64) -> Result<RoundReport, CollectError> {
        let mut stats = CollectStats {
            rounds: 1,
            ..CollectStats::default()
        };
        let mut health = RoundHealth {
            tick,
            ..RoundHealth::default()
        };

        let mut batches = self.run_lanes(cloud, tick, &mut stats, &mut health);
        for dataset in Dataset::ALL {
            let Some(batch) = batches[dataset as usize].take() else {
                continue;
            };
            let committed = batch.and_then(|batch| {
                self.commit_dataset(dataset, tick, batch, &mut stats, &mut health)
            });
            if let Err(e) = committed {
                // The price sweep ran beside the failed dataset and its
                // watermark advanced: park its points, older ones first.
                if let Some(Ok(price)) = batches[Dataset::Price as usize].take() {
                    self.pending_price.extend(price.points);
                }
                return Err(e);
            }
        }
        self.quality.round_complete(tick);
        self.maintain_durability()?;

        health.dead_letter_depth = self.dead_letters.len();
        for dataset in Dataset::ALL {
            let h = health.dataset(dataset);
            stats.retries += h.retries;
            stats.queries_failed += h.failed_queries;
        }
        stats.sps_records = health.sps.records;
        stats.advisor_records = health.advisor.records;
        stats.price_records = health.price.records;
        if health.is_degraded() {
            stats.degraded_rounds = 1;
        }
        self.totals.absorb(stats);
        let phases = Arc::clone(&self.store.phases);
        let observe = PhaseGuard::enter(&*phases, Phase::MetricsJournal);
        self.record_round_observations(cloud, &stats, &health);
        drop(observe);
        self.last_health = Some(health.clone());
        Ok(RoundReport { stats, health })
    }

    /// End-of-round durability maintenance: persist the dead-letter
    /// queue next to the shards and the manifest watermark. Checkpoints
    /// rotate per shard as each table commits, and a shard's checkpoint
    /// crash is absorbed inside the archive (that shard alone degrades);
    /// only a root-manifest failure — outside every fault domain — is
    /// round-fatal.
    fn maintain_durability(&mut self) -> Result<(), CollectError> {
        let _save = PhaseGuard::enter(&*self.store.phases, Phase::ManifestSave);
        if let Some(file) = &mut self.dead_letter_file {
            file.save(&self.dead_letters)?;
        }
        if let Some(archive) = &mut self.store.archive {
            archive.maintain()?;
        }
        Ok(())
    }

    /// Feeds one finished round into the metric registry and journal.
    ///
    /// Everything recorded here is a pure function of the round's
    /// deterministic outcome — "durations" are denominated in API
    /// operations (first calls plus retries), never wall clock, so two
    /// same-seed runs render byte-identical metrics and journals.
    fn record_round_observations(
        &mut self,
        cloud: &SimCloud,
        stats: &CollectStats,
        health: &RoundHealth,
    ) {
        let mut breakers = [None; 3];
        let m = &self.metrics;
        m.counter_add(names::COLLECTOR_ROUNDS_TOTAL, &[], 1);
        m.counter_add(
            names::COLLECTOR_DEGRADED_ROUNDS_TOTAL,
            &[],
            stats.degraded_rounds as u64,
        );
        m.counter_add(
            names::COLLECTOR_RECORDS_WRITTEN_TOTAL,
            &[],
            stats.records_written as u64,
        );
        m.counter_add(
            names::COLLECTOR_DEAD_LETTERED_TOTAL,
            &[],
            stats.dead_lettered as u64,
        );
        m.gauge_set(
            names::COLLECTOR_DEAD_LETTER_DEPTH,
            &[],
            health.dead_letter_depth as f64,
        );

        for dataset in Dataset::ALL {
            if !self.enabled(dataset) {
                continue;
            }
            let d = health.dataset(dataset);
            let labels = [("dataset", dataset.name())];
            m.counter_add(names::COLLECTOR_RECORDS_TOTAL, &labels, d.records as u64);
            m.counter_add(names::COLLECTOR_RETRIES_TOTAL, &labels, d.retries as u64);
            m.counter_add(
                names::COLLECTOR_FAILED_QUERIES_TOTAL,
                &labels,
                d.failed_queries as u64,
            );
            // Round "duration" in deterministic units: first calls plus
            // retries. SPS issues the whole plan; the other datasets are
            // one sweep each.
            let ops = if dataset.is_sweep() {
                1 + d.retries
            } else {
                stats.queries_issued + d.retries
            };
            m.histogram_record(names::COLLECTOR_ROUND_OPS, &labels, ops as f64);
            let breaker = self.breaker_state(dataset);
            m.gauge_set(names::COLLECTOR_BREAKER_STATE, &labels, breaker.as_gauge());
            breakers[dataset as usize] = Some(breaker);
        }
        let outcome = RoundOutcome {
            health: health.clone(),
            breakers,
            records_written: stats.records_written,
        };
        self.journal
            .push(CollectorTrace::Round(health.tick, Some(outcome)));

        // Per-account unique-query budget consumption (50/24 h limit).
        let mut fault_counts = Vec::new();
        if let Some(sps) = &mut self.sps {
            for (account, used) in sps.budget_used(cloud) {
                self.metrics.gauge_set(
                    names::COLLECTOR_UNIQUE_QUERIES_USED,
                    &[("account", &account)],
                    used as f64,
                );
            }
            fault_counts.extend(sps.fault_counts());
        }
        fault_counts.extend(self.advisor.iter().flat_map(AdvisorCollector::fault_counts));
        fault_counts.extend(self.price.iter().flat_map(PriceCollector::fault_counts));
        // The injectors report running totals, so scrape with
        // `counter_set` rather than re-adding them every round.
        for (surface, kind, count) in fault_counts {
            self.metrics.counter_set(
                names::API_FAULTS_INJECTED_TOTAL,
                &[("surface", surface.name()), ("kind", kind)],
                count,
            );
        }

        if let Some(s) = self.wal_stats() {
            let m = &self.metrics;
            // WAL counters are running totals on the log itself, so they
            // are scraped with `counter_set`, like the fault injectors.
            m.counter_set(names::WAL_FRAMES_APPENDED_TOTAL, &[], s.frames_appended);
            m.counter_set(names::WAL_BYTES_APPENDED_TOTAL, &[], s.bytes_appended);
            m.counter_set(names::WAL_RECORDS_ELIDED_TOTAL, &[], s.records_elided);
            m.counter_set(names::WAL_CHECKPOINTS_TOTAL, &[], s.checkpoints);
            m.gauge_set(names::WAL_SIZE_BYTES, &[], s.wal_bytes as f64);
            m.gauge_set(names::WAL_DEAD, &[], if s.dead { 1.0 } else { 0.0 });
            for (kind, count) in &s.faults_injected {
                m.counter_set(names::WAL_FAULTS_INJECTED_TOTAL, &[("kind", kind)], *count);
            }
        }

        if let Some(archive) = &self.store.archive {
            let h = archive.health();
            let m = &self.metrics;
            m.gauge_set(names::SHARD_COUNT, &[], h.total() as f64);
            m.gauge_set(
                names::SHARD_QUARANTINED_COUNT,
                &[],
                h.quarantined().count() as f64,
            );
            for row in &h.shards {
                let labels = [
                    ("dataset", row.dataset.as_str()),
                    ("region", row.region.as_str()),
                ];
                m.gauge_set(names::SHARD_STATE, &labels, row.state.code() as f64);
                m.gauge_set(names::SHARD_POINTS, &labels, row.points as f64);
                m.counter_set(names::SHARD_COMMITS_TOTAL, &labels, row.commits);
                m.counter_set(
                    names::SHARD_COMMIT_FAILURES_TOTAL,
                    &labels,
                    row.commit_failures,
                );
            }
        }

        self.quality.export(&self.metrics);
    }

    /// Gathers one round's batches in two lanes under one scope. A scoped
    /// thread starts draining the SPS account shards at once, while the
    /// calling thread sweeps the advisor and then the price dataset and
    /// then drains the shards the lane has not taken; the scores merge in
    /// shard order, unbooked. Each enabled dataset's breaker is consulted
    /// once, before the lanes start; one it holds back is marked skipped
    /// and has no batch. Everything the round keeps — series booking, the
    /// store, quality, dead letters — stays on this thread: the SPS scores
    /// are booked after the join.
    fn run_lanes(
        &mut self,
        cloud: &SimCloud,
        tick: u64,
        stats: &mut CollectStats,
        health: &mut RoundHealth,
    ) -> [Option<Result<Batch, CollectError>>; 3] {
        let mut admitted = [false; 3];
        for dataset in Dataset::ALL {
            if !self.enabled(dataset) {
                continue;
            }
            admitted[dataset as usize] = self.breakers[dataset as usize].allow(tick);
            if !admitted[dataset as usize] {
                health.dataset_mut(dataset).status = DatasetStatus::Skipped;
            }
        }
        let [sps, advisor, price] = admitted;
        let sps = self.sps.as_mut().filter(|_| sps);
        let advisor = self.advisor.as_mut().filter(|_| advisor);
        let price = self.price.as_mut().filter(|_| price);
        let policy = &self.policy;
        let phases: &dyn PhaseSink = &*self.store.phases;
        let drain = |shards: &ShardQueue| {
            let _lane = PhaseGuard::enter(phases, Phase::SpsLane);
            shards.drain(cloud, policy);
        };
        let shards = sps.map(|sps| sps.shard_queue(cloud));
        let (advisor, price) = std::thread::scope(|scope| {
            let sps_lane = shards.as_ref().map(|shards| scope.spawn(|| drain(shards)));
            let advisor = advisor.map(|advisor| {
                let _sweep = PhaseGuard::enter(phases, Phase::AdvisorSweep);
                advisor.collect_points(cloud, policy)
            });
            let price = price.map(|price| {
                let _sweep = PhaseGuard::enter(phases, Phase::PriceSweep);
                price.collect_points(cloud, policy)
            });
            if let Some(shards) = &shards {
                drain(shards);
            }
            if let Some(lane) = sps_lane {
                lane.join().expect("SPS lane panicked");
            }
            (advisor, price)
        });
        let sps = shards.map(ShardQueue::finish);
        [
            sps.map(|round| round.map(|scores| self.book_sps(cloud, tick, scores, stats))),
            advisor.map(|round| round.map(Batch::from)),
            price.map(|round| round.map(Batch::from)),
        ]
    }

    /// The SPS pre-step: books the lane's scores, then re-attempts the
    /// dead-lettered plan slots that are due and parks this round's fresh
    /// failures. Runs only after the SPS lane, so SPS is enabled.
    fn book_sps(
        &mut self,
        cloud: &SimCloud,
        tick: u64,
        scores: SpsScores,
        stats: &mut CollectStats,
    ) -> Batch {
        let phases = Arc::clone(&self.store.phases);
        let _book = PhaseGuard::enter(&*phases, Phase::BookSps);
        let sps = self.sps.as_mut().expect("SPS is enabled");
        let mut outcome = sps.book(cloud.catalog(), scores);
        stats.queries_issued = sps.query_count();
        let mut retries = outcome.retries;

        let dead_letters = PhaseGuard::enter(&*phases, Phase::DeadLetters);
        // Which plan slots are failing *right now*. Dead letters whose
        // query recovered in this regular pass are satisfied and dropped;
        // the rest are re-attempted once their backoff elapses.
        let mut failing: BTreeSet<(usize, usize)> =
            outcome.failed.iter().map(|f| (f.shard, f.query)).collect();
        let error = outcome.failed.first().map(|f| f.error.to_string());
        self.dead_letters
            .retain(|d| failing.contains(&(d.shard, d.query)));

        let policy = self.policy;
        let mut recovered = Vec::new();
        for d in &mut self.dead_letters {
            if d.eligible_at > tick {
                continue;
            }
            let res = sps.retry_query(cloud, d.shard, d.query, &policy);
            retries += res.retries + 1;
            match res.error {
                None => {
                    outcome.points.extend(res.points);
                    failing.remove(&(d.shard, d.query));
                    recovered.push((d.shard, d.query));
                }
                Some(e) => {
                    d.attempts += 1;
                    let scope = format!("dlq/{}/{}", d.shard, d.query);
                    d.eligible_at = tick + policy.backoff_ticks(&scope, d.attempts);
                    if !e.is_retryable() || d.attempts >= DEAD_LETTER_MAX_ATTEMPTS {
                        recovered.push((d.shard, d.query)); // dropped below
                    }
                }
            }
        }
        self.dead_letters
            .retain(|d| !recovered.contains(&(d.shard, d.query)));

        // Park this round's fresh failures.
        for f in &outcome.failed {
            let key = (f.shard, f.query);
            if !failing.contains(&key) {
                continue; // recovered via the dead-letter pass above
            }
            if self.dead_letters.iter().any(|d| (d.shard, d.query) == key) {
                continue;
            }
            let scope = format!("dlq/{}/{}", f.shard, f.query);
            self.dead_letters.push(DeadLetter {
                shard: f.shard,
                query: f.query,
                attempts: 1,
                eligible_at: tick + self.policy.backoff_ticks(&scope, 1),
            });
            stats.dead_lettered += 1;
        }
        drop(dead_letters);
        Batch {
            points: outcome.points,
            retries,
            failed: failing.len(),
            error,
        }
    }

    /// Commits one dataset's batch — the one commit path every dataset
    /// takes — and settles the dataset's health and breaker.
    ///
    /// The status rule is the same for all three: `Failed` when nothing
    /// committed out of a non-empty batch, or when there is no batch and
    /// operations failed; otherwise `Degraded` when operations failed,
    /// retries were spent or a shard refused its slice; otherwise `Ok`.
    fn commit_dataset(
        &mut self,
        dataset: Dataset,
        tick: u64,
        batch: Batch,
        stats: &mut CollectStats,
        health: &mut RoundHealth,
    ) -> Result<(), CollectError> {
        let phases = Arc::clone(&self.store.phases);
        let _commit = PhaseGuard::enter(&*phases, Phase::Commit(dataset.name()));
        let Batch {
            mut points,
            retries,
            failed,
            error,
        } = batch;
        // Price is a change feed: once a sweep returns, the API's
        // watermark is past its points, and they exist nowhere else.
        let change_feed = dataset == Dataset::Price;
        let breaker = &mut self.breakers[dataset as usize];
        let h = health.dataset_mut(dataset);
        h.retries = retries;
        h.failed_queries = failed;
        h.error = error;
        let (mut shard_failures, mut refused) = (0, false);
        // A failed sweep has nothing to commit; SPS commits whatever its
        // plan slots returned.
        if !(dataset.is_sweep() && failed > 0) {
            let series = match dataset {
                Dataset::Sps => self.sps.as_mut().map(SpsCollector::series_mut),
                Dataset::Advisor => self.advisor.as_mut().map(AdvisorCollector::series_mut),
                Dataset::Price => self.price.as_mut().map(PriceCollector::series_mut),
            }
            .expect("a dataset with a batch is enabled");
            if change_feed {
                // Older, previously unwritable points go first.
                points.splice(0..0, std::mem::take(&mut self.pending_price));
            }
            let coverage = &mut self.coverage[dataset as usize];
            coverage.sync(&mut self.quality, series.book());
            let table = dataset.name();
            match self.store.commit(
                table,
                tick,
                series.book_mut(),
                &points,
                &self.policy,
                &mut h.retries,
            ) {
                Ok(commit) => {
                    let _observe = PhaseGuard::enter(&*phases, Phase::QualityObserve);
                    h.records = commit.observe_committed(
                        &mut self.quality,
                        coverage,
                        series.book(),
                        &points,
                        tick,
                    );
                    h.error = h.error.take().or_else(|| commit.first_failure());
                    shard_failures = commit.shard_failures.len();
                    stats.records_written += commit.written;
                }
                Err(e) if e.is_retryable() => {
                    // The store refused the whole batch: a gap in the
                    // dense SPS series, advisor state the next clean round
                    // re-delivers, price points parked for the next sweep.
                    // A sweep counts the refusal as its failed operation.
                    refused = true;
                    h.error = Some(e.to_string());
                    h.failed_queries += usize::from(dataset.is_sweep());
                    if change_feed {
                        self.pending_price = std::mem::take(&mut points);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        let lost_everything = refused || (h.records == 0 && !points.is_empty());
        h.status = if lost_everything || (points.is_empty() && h.failed_queries > 0) {
            DatasetStatus::Failed
        } else if h.failed_queries > 0 || h.retries > 0 || shard_failures > 0 {
            DatasetStatus::Degraded
        } else {
            DatasetStatus::Ok
        };
        if h.status == DatasetStatus::Failed {
            breaker.record_failure(tick);
        } else {
            breaker.record_success();
            // The price API reports only changes, so a sweep every shard
            // took refreshes every key the monitor has seen.
            if change_feed && shard_failures == 0 {
                self.quality.observe_sweep(dataset.name(), tick);
            }
        }
        health.shards_failed += shard_failures;
        Ok(())
    }

    /// Runs one collection round against the cloud's current state.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] only for non-retryable failures; see
    /// [`CollectorService::collect_round`].
    pub fn collect_once(&mut self, cloud: &SimCloud) -> Result<CollectStats, CollectError> {
        Ok(self.collect_round(cloud)?.stats)
    }

    /// Steps the cloud and collects, `rounds` times — the periodic
    /// collection loop of Section 4.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] if any round fails non-retryably.
    pub fn run(&mut self, cloud: &mut SimCloud, rounds: u64) -> Result<CollectStats, CollectError> {
        Ok(self.run_with_health(cloud, rounds)?.0)
    }

    /// Like [`CollectorService::run`], also returning every round's
    /// [`RoundHealth`].
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] if any round fails non-retryably.
    pub fn run_with_health(
        &mut self,
        cloud: &mut SimCloud,
        rounds: u64,
    ) -> Result<(CollectStats, Vec<RoundHealth>), CollectError> {
        let mut total = CollectStats::default();
        let mut healths = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            cloud.step();
            let report = self.collect_round(cloud)?;
            total.absorb(report.stats);
            healths.push(report.health);
        }
        Ok((total, healths))
    }
}

/// One dataset's round, gathered and ready for
/// [`CollectorService::commit_dataset`].
struct Batch {
    points: Vec<Point>,
    /// Retries spent gathering the points (the store adds its own).
    retries: usize,
    /// Operations that failed after their retries: the SPS plan slots
    /// still failing after the dead-letter pass, or a sweep's one fetch.
    failed: usize,
    /// The first failure seen, for the dataset's health record.
    error: Option<String>,
}

/// A failed sweep is one failed operation with no points.
impl From<SweepPoints> for Batch {
    fn from(sweep: SweepPoints) -> Self {
        Batch {
            points: sweep.points,
            retries: sweep.retries,
            failed: usize::from(sweep.error.is_some()),
            error: sweep.error.map(|e| e.to_string()),
        }
    }
}

/// What sets one dataset's commit apart from the others'. Price's change
/// feed is the third fact; [`CollectorService::commit_dataset`] names it.
impl Dataset {
    /// SPS keeps every round's score; advisor and price keep changes.
    fn write_mode(self) -> WriteMode {
        match self {
            Dataset::Sps => WriteMode::Dense,
            Dataset::Advisor | Dataset::Price => WriteMode::ChangePoint,
        }
    }

    /// Whether one API sweep gathers the dataset's round (advisor,
    /// price): a failed fetch or a refused write is its one failed
    /// operation. SPS counts failed plan slots instead.
    fn is_sweep(self) -> bool {
        self != Dataset::Sps
    }
}

/// Writes the quality-monitor coverage key of a series' dimensions into
/// `key` (cleared first): instance type plus the finest location
/// dimension (AZ when present, region otherwise — the advisor dataset has
/// no AZ). Live series and recovery priming both key through here, so a
/// recovered series primes exactly the key a live round observes. Runs
/// once per series, never per record.
fn write_coverage_key<'d>(
    key: &mut String,
    dims: impl Iterator<Item = (&'d str, &'d str)> + Clone,
) {
    let dim = |name: &str| dims.clone().find(|&(k, _)| k == name).map(|(_, v)| v);
    key.clear();
    key.push_str(dim("instance_type").unwrap_or("?"));
    key.push(':');
    key.push_str(dim("az").or_else(|| dim("region")).unwrap_or("?"));
}

/// The quality monitor's key of each of a dataset's series, by series id:
/// spelled and looked up once per series, so observing a committed point
/// is an index.
#[derive(Debug)]
struct CoverageKeys {
    dataset: Dataset,
    keys: Vec<QualityKey>,
}

impl CoverageKeys {
    fn new(dataset: Dataset) -> Self {
        CoverageKeys {
            dataset,
            keys: Vec::new(),
        }
    }

    /// Looks up the key of every series `book` booked since the last call.
    fn sync(&mut self, quality: &mut QualityMonitor, book: &SeriesBook) {
        let mut key = String::new();
        for s in self.keys.len()..book.len() {
            let dims = SeriesRef::try_from(s)
                .ok()
                .and_then(|s| book.dimensions(s))
                .unwrap_or_default();
            write_coverage_key(&mut key, dims.iter());
            self.keys.push(quality.key(self.dataset.name(), &key));
        }
    }
}

/// Creates `name` if absent; a recovered archive already has its tables.
fn ensure_table(db: &mut Database, name: &str, options: TableOptions) -> Result<(), TsError> {
    match db.create_table(name, options) {
        Ok(()) | Err(TsError::TableExists(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Registers every recovered series with the quality monitor as of the
/// last committed tick, so the crash itself shows up as staleness and
/// the first post-restart round's delta as a gap — instead of the
/// monitor starting blank and hiding the outage. Each series' key is
/// spelled and looked up once; the first live round that books the
/// series is handed the same key.
fn prime_quality(quality: &mut QualityMonitor, db: &Database, tick: u64) {
    for dataset in Dataset::ALL {
        let Ok(t) = db.table(dataset.name()) else {
            continue;
        };
        let mut key = String::new();
        for (_measure, dims) in t.series_dimension_sets() {
            write_coverage_key(&mut key, dims.iter());
            let k = quality.key(dataset.name(), &key);
            quality.observe(k, tick);
        }
    }
}

/// Exports what recovery did as the `spotlake_recovery_*` metric families.
fn record_recovery_observations(metrics: &Registry, recovery: &RecoveryReport) {
    metrics.counter_set(
        names::RECOVERY_FRAMES_REPLAYED_TOTAL,
        &[],
        recovery.frames_replayed,
    );
    metrics.counter_set(
        names::RECOVERY_RECORDS_REPLAYED_TOTAL,
        &[],
        recovery.records_replayed,
    );
    metrics.counter_set(
        names::RECOVERY_ROUNDS_RECOVERED_TOTAL,
        &[],
        recovery.rounds_recovered,
    );
    metrics.counter_set(
        names::RECOVERY_BYTES_TRUNCATED_TOTAL,
        &[],
        recovery.bytes_truncated,
    );
    metrics.gauge_set(
        names::RECOVERY_POINT_COUNT,
        &[],
        recovery.point_count as f64,
    );
    metrics.gauge_set(
        names::RECOVERY_CHECKPOINT_LOADED,
        &[],
        if recovery.checkpoint_loaded { 1.0 } else { 0.0 },
    );
}

/// What [`Store::commit`] stored.
struct CommitResult {
    /// Points the store accepted (change-point tables skip repeats).
    written: usize,
    /// Shards that refused or failed their slice of the batch (durable
    /// archive only; the in-memory path is all-or-nothing). Every point
    /// outside these regions committed.
    shard_failures: Vec<spotlake_timestream::ShardHealthRow>,
}

impl CommitResult {
    /// The first failed shard, rendered for a dataset's health record.
    fn first_failure(&self) -> Option<String> {
        self.shard_failures
            .first()
            .map(|f| format!("shard {}/{}: {}", f.dataset, f.region, f.detail))
    }

    /// Feeds the quality monitor every point of `batch` that committed
    /// — all of it, minus the slices of failed shards — and returns how
    /// many that was.
    fn observe_committed(
        &self,
        quality: &mut QualityMonitor,
        coverage: &CoverageKeys,
        book: &SeriesBook,
        batch: &[Point],
        tick: u64,
    ) -> usize {
        let dropped = |p: &Point| {
            let region = book.region(p.series);
            self.shard_failures
                .iter()
                .any(|f| Some(f.region.as_str()) == region)
        };
        let mut committed = 0;
        for p in batch {
            // No failed shard (the usual round): no region to look up.
            if !self.shard_failures.is_empty() && dropped(p) {
                continue;
            }
            if let Some(&key) = coverage.keys.get(p.series as usize) {
                quality.observe(key, tick);
            }
            committed += 1;
        }
        committed
    }
}

impl Store {
    /// Commits a batch of `book`'s points durably through the archive: the
    /// batch fans out per region, each shard logs the points that change
    /// state (retrying transient disk faults within the round's budget)
    /// and they are applied in memory, and a failed shard drops only its
    /// own slice — never an `Err` — so partial storage degrades the
    /// dataset instead of killing the round. Without an archive this is
    /// the in-memory write, retrying the store's throttles.
    fn commit(
        &mut self,
        table: &str,
        tick: u64,
        book: &mut SeriesBook,
        points: &[Point],
        policy: &RetryPolicy,
        retries: &mut usize,
    ) -> Result<CommitResult, TsError> {
        let Some(archive) = &mut self.archive else {
            let _apply = PhaseGuard::enter(&*self.phases, Phase::Apply);
            let mut attempt = 1;
            let written = loop {
                match self.db.write_points(table, book, points) {
                    Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                        attempt += 1;
                        *retries += 1;
                    }
                    written => break written?,
                }
            };
            return Ok(CommitResult {
                written,
                shard_failures: Vec::new(),
            });
        };
        let options = self.db.table(table)?.options();
        let out = archive.commit_points(
            &mut self.db,
            table,
            options,
            tick,
            book,
            points,
            policy.max_attempts,
        );
        *retries += out.retries as usize;
        Ok(CommitResult {
            written: out.written,
            shard_failures: out.failures,
        })
    }
}

/// The shard keys a fresh archive starts with: every enabled
/// dataset table × every catalog region. [`ShardedArchive::open`] unions
/// these with whatever the on-disk manifest already names, so a region
/// added to the catalog later simply grows a new shard.
fn shard_keys(catalog: &Catalog, config: &CollectorConfig) -> Vec<ShardKey> {
    let enabled = [
        config.collect_sps,
        config.collect_advisor,
        config.collect_price,
    ];
    let mut keys = Vec::new();
    for dataset in Dataset::ALL.into_iter().filter(|&d| enabled[d as usize]) {
        for region in catalog.regions() {
            keys.push(ShardKey::new(dataset.name(), region.code()));
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ADVISOR_TABLE, PRICE_TABLE, SPS_TABLE};
    use spotlake_cloud_api::ApiError;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_timestream::Query;
    use spotlake_types::CatalogBuilder;
    use std::collections::BTreeMap;

    fn cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 3)
            .region("eu-test-1", 3)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn full_round_populates_all_tables() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        let stats = service.run(&mut cloud, 3).unwrap();
        assert_eq!(stats.rounds, 3);
        assert!(stats.sps_records > 0);
        assert!(stats.advisor_records > 0);
        assert!(stats.price_records > 0);
        // A fault-free run spends nothing on resilience.
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.queries_failed, 0);
        assert_eq!(stats.degraded_rounds, 0);
        assert_eq!(stats.dead_lettered, 0);

        let db = service.database();
        // 2 types × 6 AZs × 3 rounds dense sps records.
        assert_eq!(
            db.query(SPS_TABLE, &Query::measure("sps")).unwrap().len(),
            36
        );
        // Advisor table is change-point: repeats within a week are skipped.
        let if_rows = db
            .query(ADVISOR_TABLE, &Query::measure("if_score"))
            .unwrap();
        assert_eq!(if_rows.len(), 4, "one change-point per (type, region)");
        assert!(!db
            .query(PRICE_TABLE, &Query::measure("spot_price"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn disabled_datasets_are_skipped() {
        let mut cloud = cloud();
        let config = CollectorConfig {
            collect_sps: false,
            collect_advisor: false,
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        cloud.step();
        let stats = service.collect_once(&cloud).unwrap();
        assert_eq!(stats.sps_records, 0);
        assert_eq!(stats.advisor_records, 0);
        assert!(stats.price_records > 0);
    }

    #[test]
    fn explicit_small_pool_rejected() {
        let cloud = cloud();
        let config = CollectorConfig {
            accounts: Some(0),
            ..CollectorConfig::default()
        };
        assert!(matches!(
            CollectorService::new(cloud.catalog(), config),
            Err(CollectError::InsufficientAccounts { .. })
        ));
    }

    #[test]
    fn a_zero_target_capacity_fails_at_construction() {
        let cloud = cloud();
        let config = CollectorConfig {
            target_capacity: 0,
            ..CollectorConfig::default()
        };
        assert!(matches!(
            CollectorService::new(cloud.catalog(), config),
            Err(CollectError::Api(ApiError::InvalidParameter {
                parameter: "target_capacity",
                ..
            }))
        ));
    }

    #[test]
    fn type_filter_flows_through() {
        let mut cloud = cloud();
        let config = CollectorConfig {
            type_filter: Some(vec!["m5.large".into()]),
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        cloud.step();
        service.collect_once(&cloud).unwrap();
        let rows = service
            .database()
            .query(SPS_TABLE, &Query::measure("sps"))
            .unwrap();
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| {
            r.dimensions()
                .iter()
                .any(|(k, v)| k == "instance_type" && v == "m5.large")
        }));
    }

    #[test]
    fn plan_stats_reported() {
        let cloud = cloud();
        let service = CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        let stats = service.plan_stats();
        assert!(stats.planned_queries > 0);
        assert!(stats.improvement() >= 1.0);
    }

    #[test]
    fn faulty_rounds_degrade_but_never_err() {
        let mut cloud = cloud();
        let config = CollectorConfig {
            faults: Some(FaultPlan::uniform(20_220_901, 0.2)),
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        let (stats, healths) = service.run_with_health(&mut cloud, 30).unwrap();
        assert_eq!(stats.rounds, 30);
        assert_eq!(healths.len(), 30);
        assert!(stats.retries > 0, "a 20% fault rate must trigger retries");
        assert!(stats.sps_records > 0);
        assert!(
            healths.iter().any(RoundHealth::is_degraded),
            "30 rounds at 20% faults should degrade at least one"
        );
    }

    #[test]
    fn a_failed_price_sweep_reports_the_retries_it_spent() {
        let mut cloud = cloud();
        let config = CollectorConfig {
            faults: Some(FaultPlan {
                price_rate: 1.0,
                ..FaultPlan::none(3)
            }),
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        cloud.step();
        let report = service.collect_round(&cloud).unwrap();
        let spent = RetryPolicy::default().max_attempts as usize - 1;
        assert_eq!(report.health.price.status, DatasetStatus::Failed);
        assert_eq!(report.health.price.retries, spent);
        assert_eq!(report.stats.retries, spent, "SPS and advisor spent none");
        let text = service.metrics().render();
        let line = format!("spotlake_collector_retries_total{{dataset=\"price\"}} {spent}");
        assert!(text.contains(&line), "{line} missing");
    }

    #[test]
    fn forced_open_breaker_skips_the_dataset_and_spares_the_rest() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        cloud.step();
        service.force_breaker_open(Dataset::Advisor, cloud.ticks());
        let report = service.collect_round(&cloud).unwrap();
        assert_eq!(report.health.advisor.status, DatasetStatus::Skipped);
        assert_eq!(report.stats.advisor_records, 0);
        assert!(report.stats.sps_records > 0, "sps unaffected");
        assert!(report.stats.price_records > 0, "price unaffected");
        assert!(report.health.is_degraded());
        assert_eq!(report.stats.degraded_rounds, 1);
    }

    #[test]
    fn rounds_feed_metrics_journal_and_health_report() {
        use spotlake_obs::Readiness;
        let mut cloud = cloud();
        let config = CollectorConfig {
            faults: Some(FaultPlan::uniform(7, 0.15)),
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        assert!(
            service.metrics().is_empty(),
            "nothing before the first round"
        );
        assert!(service.journal().is_empty());
        let stats = service.run(&mut cloud, 10).unwrap();
        assert_eq!(service.stats(), stats, "totals accumulate across rounds");

        let text = service.metrics().render();
        assert!(text.contains("spotlake_collector_rounds_total 10"));
        assert!(text.contains("spotlake_collector_breaker_state{dataset=\"sps\"}"));
        assert!(text.contains("spotlake_collector_round_ops_bucket{dataset=\"advisor\""));
        assert!(text.contains("spotlake_collector_unique_queries_used{account="));
        assert!(
            text.contains("spotlake_api_faults_injected_total{"),
            "a 15% fault rate over 10 rounds must inject something"
        );

        let journal = service.journal().render();
        assert_eq!(
            journal.matches("\"kind\":\"span\"").count(),
            10,
            "one round span per round"
        );
        assert!(journal.contains("\"dataset\":\"price\""));

        // A clean service reports ready; forcing a breaker open degrades
        // exactly that dataset's component.
        let report = service.health_report();
        assert_eq!(report.components.len(), 4, "3 datasets + dead letters");
        service.force_breaker_open(Dataset::Advisor, cloud.ticks());
        let report = service.health_report();
        assert_eq!(report.overall(), Readiness::Degraded);
        let advisor = report
            .components
            .iter()
            .find(|c| c.name == "collector/advisor")
            .unwrap();
        assert_eq!(advisor.readiness, Readiness::Degraded);
        assert!(advisor.detail.contains("breaker open"));
    }

    #[test]
    fn same_seed_runs_render_identical_metrics_and_journals() {
        let run = || {
            let mut cloud = cloud();
            let config = CollectorConfig {
                faults: Some(FaultPlan::uniform(99, 0.2)),
                ..CollectorConfig::default()
            };
            let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
            service.run(&mut cloud, 15).unwrap();
            (
                service.metrics().render(),
                service.journal().render(),
                service.database().metrics().render(),
            )
        };
        let (m1, j1, s1) = run();
        let (m2, j2, s2) = run();
        assert_eq!(m1, m2, "collector metrics must be byte-identical");
        assert_eq!(j1, j2, "journals must be byte-identical");
        assert_eq!(s1, s2, "store metrics must be byte-identical");
    }

    #[test]
    fn quality_tracks_coverage_and_exports_gauges() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        service.run(&mut cloud, 5).unwrap();
        let report = service.quality_report();
        assert_eq!(report.rounds, 5);
        assert_eq!(report.tick, cloud.ticks());
        assert_eq!(report.datasets.len(), 3);
        let sps = report.datasets.iter().find(|d| d.dataset == "sps").unwrap();
        // 2 types × 6 AZs.
        assert_eq!(sps.keys_tracked, 12);
        assert_eq!(sps.keys_stale, 0, "a clean run leaves nothing stale");
        assert_eq!(sps.gaps, 0);
        assert_eq!(sps.min_coverage, 1.0);
        let advisor = report
            .datasets
            .iter()
            .find(|d| d.dataset == "advisor")
            .unwrap();
        assert_eq!(advisor.keys_tracked, 4, "2 types × 2 regions");
        let price = report
            .datasets
            .iter()
            .find(|d| d.dataset == "price")
            .unwrap();
        assert_eq!(
            price.keys_stale, 0,
            "sweeps refresh unchanged price keys — no false staleness"
        );
        assert_eq!(price.gaps, 0);

        let text = service.metrics().render();
        assert!(text.contains("spotlake_archive_keys_tracked{dataset=\"sps\"} 12"));
        assert!(text.contains("spotlake_archive_min_coverage{dataset=\"sps\"} 1"));
        assert!(text.contains("spotlake_archive_gaps_total{dataset=\"price\"} 0"));
    }

    #[test]
    fn skipped_dataset_rounds_show_as_gaps_and_staleness() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        service.run(&mut cloud, 3).unwrap();
        // Force the advisor breaker open: the next rounds skip it.
        service.force_breaker_open(Dataset::Advisor, cloud.ticks());
        service.run(&mut cloud, 2).unwrap();
        let report = service.quality_report();
        let advisor = report
            .datasets
            .iter()
            .find(|d| d.dataset == "advisor")
            .unwrap();
        assert!(advisor.keys_stale > 0, "skipped rounds leave keys stale");
        assert!(advisor.max_staleness >= 2);
        assert!(
            advisor.min_coverage < 1.0,
            "coverage drops below 1: {}",
            advisor.min_coverage
        );
        assert!(!advisor.worst.is_empty());
        assert!(advisor.worst[0].staleness >= advisor.worst.last().unwrap().staleness);
        // SPS kept collecting: unaffected.
        let sps = report.datasets.iter().find(|d| d.dataset == "sps").unwrap();
        assert_eq!(sps.keys_stale, 0);
    }

    #[test]
    fn health_is_reported_per_round() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        assert!(service.last_health().is_none());
        cloud.step();
        service.collect_once(&cloud).unwrap();
        let health = service.last_health().unwrap();
        assert_eq!(health.tick, cloud.ticks());
        assert_eq!(health.sps.status, DatasetStatus::Ok);
        assert_eq!(health.advisor.status, DatasetStatus::Ok);
        assert_eq!(health.price.status, DatasetStatus::Ok);
        assert_eq!(health.dead_letter_depth, 0);
    }

    fn wal_tempdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotlake-svc-wal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn durable_config(dir: &std::path::Path) -> CollectorConfig {
        CollectorConfig {
            wal_dir: Some(dir.to_owned()),
            checkpoint_every: 2,
            ..CollectorConfig::default()
        }
    }

    /// Counts each phase and the phase it nested in, checking that every
    /// thread's phases nest: an exit closes the phase that thread
    /// entered last.
    #[derive(Debug, Default)]
    struct CountingSink(std::sync::Mutex<Counted>);

    #[derive(Debug, Default)]
    struct Counted {
        open: Vec<(std::thread::ThreadId, Vec<Phase>)>,
        entered: BTreeMap<Phase, usize>,
        nested: BTreeSet<(Option<Phase>, Phase)>,
    }

    impl Counted {
        fn stack(&mut self) -> &mut Vec<Phase> {
            let id = std::thread::current().id();
            let at = match self.open.iter().position(|(t, _)| *t == id) {
                Some(at) => at,
                None => {
                    self.open.push((id, Vec::new()));
                    self.open.len() - 1
                }
            };
            &mut self.open[at].1
        }
    }

    impl PhaseSink for CountingSink {
        fn enter(&self, phase: Phase) {
            let mut c = self.0.lock().unwrap();
            let stack = c.stack();
            let parent = stack.last().copied();
            stack.push(phase);
            c.nested.insert((parent, phase));
            *c.entered.entry(phase).or_default() += 1;
        }

        fn exit(&self, phase: Phase) {
            let mut c = self.0.lock().unwrap();
            assert_eq!(c.stack().pop(), Some(phase), "phases nest");
        }
    }

    #[test]
    fn a_phase_sink_sees_every_phase_nested_and_counted_per_round() {
        let dir = wal_tempdir("phases");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        let sink = Arc::new(CountingSink::default());
        service.set_phase_sink(sink.clone());
        let rounds = 4;
        service.run(&mut cloud, rounds).unwrap();

        let counted = sink.0.lock().unwrap();
        assert!(counted.open.iter().all(|(_, stack)| stack.is_empty()));
        let count = |phase| counted.entered.get(&phase).copied().unwrap_or(0);
        let per_round = |phase| count(phase) as f64 / rounds as f64;
        // The lane's thread and the caller each drain SPS shards once.
        assert_eq!(per_round(Phase::SpsLane), 2.0);
        for once in [
            Phase::AdvisorSweep,
            Phase::PriceSweep,
            Phase::BookSps,
            Phase::DeadLetters,
            Phase::Commit("sps"),
            Phase::Commit("advisor"),
            Phase::Commit("price"),
            Phase::ManifestSave,
            Phase::MetricsJournal,
        ] {
            assert_eq!(per_round(once), 1.0, "{once:?}");
        }
        // Per dataset commit: one delta pass and one quality pass; one
        // log and one apply per shard slice, which every SPS commit has
        // in both regions.
        assert_eq!(per_round(Phase::Delta), 3.0);
        assert_eq!(per_round(Phase::QualityObserve), 3.0);
        assert_eq!(count(Phase::Log), count(Phase::Apply), "no shard failed");
        assert!(count(Phase::Log) >= 2 * rounds as usize);
        // Every shard cuts a checkpoint every second frame.
        assert!(count(Phase::CheckpointCut) >= rounds as usize / 2);

        let mut want = BTreeSet::from([
            (None, Phase::SpsLane),
            (None, Phase::AdvisorSweep),
            (None, Phase::PriceSweep),
            (None, Phase::BookSps),
            (Some(Phase::BookSps), Phase::DeadLetters),
            (None, Phase::Log),
            (None, Phase::ManifestSave),
            (None, Phase::MetricsJournal),
        ]);
        for dataset in Dataset::ALL {
            let commit = Phase::Commit(dataset.name());
            want.insert((None, commit));
            for inner in [Phase::Delta, Phase::Apply, Phase::QualityObserve] {
                want.insert((Some(commit), inner));
            }
        }
        let cuts: BTreeSet<_> = counted
            .nested
            .iter()
            .filter(|(_, phase)| *phase == Phase::CheckpointCut)
            .copied()
            .collect();
        assert!(cuts
            .iter()
            .all(|(parent, _)| matches!(parent, Some(Phase::Commit(_)))));
        let nested: BTreeSet<_> = counted.nested.difference(&cuts).copied().collect();
        assert_eq!(nested, want);
        drop(counted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_service_journals_rounds_and_survives_restart() {
        let dir = wal_tempdir("restart");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        assert!(
            !service.recovery_report().unwrap().recovered_anything(),
            "fresh directory has nothing to recover"
        );
        service.run(&mut cloud, 3).unwrap();
        let committed = service.database().point_count();
        let wal = service.wal_stats().unwrap();
        // A frame holds what changes state, one shard (dataset × region)
        // at a time. Dense SPS logs every round in both regions; the
        // change-point datasets log their first sighting and then only
        // changes: rounds 2 and 3 repeat the advisor's 8 records (2 types
        // × 2 regions × score and savings) and offer no new price, so
        // neither writes a frame. A shard's watermark moves only with a
        // frame, so it names the last round that shard logged.
        let logged: Vec<(String, Option<u64>)> = service
            .shard_health()
            .unwrap()
            .shards
            .iter()
            .map(|r| (format!("{}/{}", r.dataset, r.region), r.last_tick))
            .collect();
        let expect = |shard: &str, tick: u64| (shard.to_owned(), Some(tick));
        assert_eq!(
            logged,
            vec![
                expect("advisor/eu-test-1", 1),
                expect("advisor/us-test-1", 1),
                expect("price/eu-test-1", 1),
                expect("price/us-test-1", 1),
                expect("sps/eu-test-1", 3),
                expect("sps/us-test-1", 3),
            ]
        );
        assert_eq!(wal.frames_appended, 10, "2 × (3 sps + 1 advisor + 1 price)");
        assert_eq!(wal.records_elided, 16, "the advisor's repeats");
        // ...which /metrics can answer for: fewer WAL bytes, and why.
        let scrape = service.metrics().render();
        assert!(scrape.contains("spotlake_wal_frames_appended_total 10"));
        assert!(scrape.contains("spotlake_wal_records_elided_total 16"));
        // The store still counts every offered record: an elided one is
        // submitted and deduped, exactly as a skipped one always was.
        let store = service.database().metrics().render();
        assert!(store.contains("spotlake_store_records_submitted_total{table=\"advisor\"} 24"));
        assert!(store.contains("spotlake_store_records_deduped_total{table=\"advisor\"} 16"));
        assert_eq!(wal.checkpoints, 2, "each sps shard reached 2 frames");
        assert!(!wal.dead);
        drop(service);

        // A new service over the same directory recovers every point.
        let mut restarted = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        let report = restarted.recovery_report().unwrap();
        assert_eq!(report.point_count, committed);
        assert_eq!(restarted.database().point_count(), committed);
        // The restarted service's health shows it as recovering until a
        // round completes, then ready again.
        let health = restarted.health_report();
        let wal_component = health
            .components
            .iter()
            .find(|c| c.name == "store/wal")
            .unwrap();
        assert!(
            wal_component.detail.contains("recovering"),
            "{}",
            wal_component.detail
        );
        cloud.step();
        restarted.collect_once(&cloud).unwrap();
        assert!(
            restarted.database().point_count() > committed,
            "collection continues after recovery"
        );
        let health = restarted.health_report();
        let wal_component = health
            .components
            .iter()
            .find(|c| c.name == "store/wal")
            .unwrap();
        assert!(!wal_component.detail.contains("recovering"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_exports_metrics_and_a_trace_span() {
        let dir = wal_tempdir("recovery-obs");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        service.run(&mut cloud, 1).unwrap();
        drop(service);

        let restarted = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        let metrics = restarted.metrics().render();
        assert!(metrics.contains(names::RECOVERY_FRAMES_REPLAYED_TOTAL.name));
        assert!(metrics.contains(names::RECOVERY_POINT_COUNT.name));
        let journal = restarted.journal().render();
        assert!(journal.contains("recovery"), "{journal}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_series_resume_quality_tracking_from_the_crash_tick() {
        let dir = wal_tempdir("quality");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        service.run(&mut cloud, 2).unwrap();
        drop(service);

        // Simulate downtime: the cloud advances while the collector is dead.
        for _ in 0..3 {
            cloud.step();
        }
        let mut restarted = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        cloud.step();
        restarted.collect_once(&cloud).unwrap();
        let report = restarted.quality_report();
        let sps = report.datasets.iter().find(|d| d.dataset == "sps").unwrap();
        assert!(
            sps.gaps > 0,
            "the outage shows up as a coverage gap, not a blank slate"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_primes_exactly_the_keys_a_live_round_observes() {
        let dir = wal_tempdir("prime-keys");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        service.run(&mut cloud, 2).unwrap();
        let tracked = |r: &QualityReport| -> Vec<(String, u64)> {
            r.datasets
                .iter()
                .map(|d| (d.dataset.clone(), d.keys_tracked))
                .collect()
        };
        let live = tracked(&service.quality_report());
        drop(service);

        let mut restarted = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        assert_eq!(tracked(&restarted.quality_report()), live);
        cloud.step();
        restarted.collect_once(&cloud).unwrap();
        // A key spelled differently by priming and by the live round would
        // be tracked twice, and the primed spelling would go stale.
        let after = restarted.quality_report();
        assert_eq!(tracked(&after), live);
        assert!(
            after.datasets.iter().all(|d| d.keys_stale == 0),
            "{after:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An SPS collector whose plan has one slot naming a type the cloud
    /// lacks, so its round returns `Err`.
    fn broken_sps(cloud: &SimCloud) -> SpsCollector {
        let mut plan = QueryPlanner::default().plan(cloud.catalog(), None);
        plan.push(crate::planner::PlannedQuery {
            instance_type: "m9.huge".to_owned(),
            regions: vec!["us-test-1".to_owned()],
            expected_results: 3,
        });
        let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
        SpsCollector::new(plan, &pool, 1).unwrap()
    }

    #[test]
    fn a_round_aborted_by_sps_loses_no_price_sweep() {
        use spotlake_types::SimTime;

        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        service.run(&mut cloud, 2).unwrap();

        // Step to a window in which some price moves: that is the round
        // that must not lose its sweep.
        let pools = cloud.catalog().supported_pools();
        let moved = |cloud: &SimCloud, from: SimTime| {
            pools.iter().any(|&(ty, az)| {
                cloud
                    .price_history(ty, az, from, cloud.now())
                    .iter()
                    .any(|&(t, _)| t > from)
            })
        };
        let mut rounds = 0;
        loop {
            let from = cloud.now();
            cloud.step();
            if moved(&cloud, from) {
                break;
            }
            service.collect_once(&cloud).unwrap();
            rounds += 1;
            assert!(rounds < 200, "no price moved in {rounds} rounds");
        }

        // The aborted round: SPS fails closed while the price lane has
        // already swept.
        let planned = service.sps.replace(broken_sps(&cloud));
        let err = service.collect_round(&cloud).unwrap_err();
        assert!(
            matches!(
                err,
                CollectError::Api(spotlake_cloud_api::ApiError::UnknownEntity { .. })
            ),
            "{err}"
        );
        assert!(!service.pending_price.is_empty(), "the sweep is parked");

        // Plan restored: the next round archives every change of the
        // aborted window exactly once.
        service.sps = planned;
        cloud.step();
        let report = service.collect_round(&cloud).unwrap();
        assert!(!report.health.is_degraded(), "{:?}", report.health);
        assert!(service.pending_price.is_empty());
        let catalog = cloud.catalog();
        for &(ty, az) in &pools {
            let truth: Vec<(u64, f64)> = cloud
                .price_history(ty, az, SimTime::EPOCH, cloud.now())
                .iter()
                .map(|&(t, p)| (t.as_secs(), p.as_usd()))
                .collect();
            let q = Query::measure("spot_price")
                .filter("instance_type", catalog.ty(ty).name())
                .filter("az", catalog.az(az).name());
            let stored: Vec<(u64, f64)> = service
                .database()
                .query(PRICE_TABLE, &q)
                .unwrap()
                .iter()
                .map(|r| (r.time, r.value))
                .collect();
            assert_eq!(
                stored,
                truth,
                "{} in {}",
                catalog.ty(ty).name(),
                catalog.az(az).name()
            );
        }
    }

    /// One line the journal's string builder appended: a span (its end,
    /// `None` while open) or an event.
    enum Line {
        Span(u64, Option<u64>, &'static str, Vec<(&'static str, String)>),
        Event(u64, &'static str, Vec<(&'static str, String)>),
    }

    /// The lines the builder appended for one round that returned
    /// `report`: its closed span, then one event per collected dataset,
    /// each breaker as it stands after the round.
    fn round_lines(service: &CollectorService, report: &RoundReport) -> Vec<Line> {
        let h = &report.health;
        let mut lines = vec![Line::Span(
            h.tick,
            Some(h.tick),
            "round",
            vec![
                ("degraded", h.is_degraded().to_string()),
                ("records_written", report.stats.records_written.to_string()),
            ],
        )];
        for dataset in Dataset::ALL.into_iter().filter(|&d| service.enabled(d)) {
            let d = h.dataset(dataset);
            lines.push(Line::Event(
                h.tick,
                "dataset",
                vec![
                    ("dataset", dataset.name().to_owned()),
                    ("status", d.status.as_str().to_owned()),
                    ("records", d.records.to_string()),
                    ("retries", d.retries.to_string()),
                    ("failed_queries", d.failed_queries.to_string()),
                    (
                        "breaker",
                        service.breaker_state(dataset).as_str().to_owned(),
                    ),
                ],
            ));
        }
        lines
    }

    /// `lines` written with `JournalWriter`, numbered from `first_seq`.
    fn render_lines(first_seq: u64, lines: &[Line]) -> String {
        let mut out = spotlake_obs::JournalWriter::new(lines.len());
        fn borrow<'a>(attrs: &'a [(&'static str, String)]) -> Vec<(&'static str, &'a str)> {
            attrs.iter().map(|(k, v)| (*k, v.as_str())).collect()
        }
        for (seq, line) in (first_seq..).zip(lines) {
            match line {
                Line::Span(start, end, name, attrs) => {
                    out.span(seq, *start, *end, name, None, &mut borrow(attrs));
                }
                Line::Event(tick, name, attrs) => out.event(seq, *tick, name, &mut borrow(attrs)),
            }
        }
        out.finish()
    }

    /// Runs `rounds` rounds, returning the lines the builder appended.
    fn run_with_lines(
        service: &mut CollectorService,
        cloud: &mut SimCloud,
        rounds: u64,
    ) -> Vec<Line> {
        let mut lines = Vec::new();
        for _ in 0..rounds {
            cloud.step();
            let report = service.collect_round(cloud).unwrap();
            lines.extend(round_lines(service, &report));
        }
        lines
    }

    #[test]
    fn the_journal_renders_clean_and_degraded_rounds_as_the_builder_did() {
        let configs = [
            CollectorConfig {
                collect_advisor: false,
                ..CollectorConfig::default()
            },
            CollectorConfig {
                faults: Some(FaultPlan::uniform(7, 0.15)),
                ..CollectorConfig::default()
            },
        ];
        for config in configs {
            let mut cloud = cloud();
            let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
            let mut lines = run_with_lines(&mut service, &mut cloud, 12);
            service.force_breaker_open(Dataset::Price, cloud.ticks() + 1);
            lines.extend(run_with_lines(&mut service, &mut cloud, 2));
            let journal = service.journal().render();
            assert_eq!(journal, render_lines(0, &lines));
            assert!(journal.contains("\"breaker\":\"open\""), "{journal}");
            assert!(journal.contains("\"status\":\"skipped\""), "{journal}");
        }
    }

    #[test]
    fn the_journal_renders_a_degraded_round_under_faults() {
        let mut cloud = cloud();
        let config = CollectorConfig {
            faults: Some(FaultPlan::uniform(20_220_901, 0.2)),
            ..CollectorConfig::default()
        };
        let mut service = CollectorService::new(cloud.catalog(), config).unwrap();
        let lines = run_with_lines(&mut service, &mut cloud, 10);
        let journal = service.journal().render();
        assert_eq!(journal, render_lines(0, &lines));
        assert!(journal.contains("\"degraded\":\"true\""), "{journal}");
        assert!(journal.contains("\"degraded\":\"false\""), "{journal}");
        assert!(journal.contains("\"status\":\"degraded\""), "{journal}");
    }

    #[test]
    fn an_aborted_round_stays_an_open_span_and_keeps_the_last_health() {
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        let mut lines = run_with_lines(&mut service, &mut cloud, 2);
        let completed = service.last_health().unwrap().clone();

        let planned = service.sps.replace(broken_sps(&cloud));
        cloud.step();
        service.collect_round(&cloud).unwrap_err();
        lines.push(Line::Span(cloud.ticks(), None, "round", Vec::new()));
        let last = service.last_health().unwrap();
        assert_eq!(
            (last.tick, last.sps.records, last.price.records),
            (
                completed.tick,
                completed.sps.records,
                completed.price.records
            ),
            "an aborted round leaves the last completed round's health"
        );

        service.sps = planned;
        lines.extend(run_with_lines(&mut service, &mut cloud, 1));
        let journal = service.journal().render();
        assert_eq!(journal, render_lines(0, &lines));
        assert!(journal.contains("\"seq\":8,\"start\":3,\"end\":null,\"name\":\"round\"}"));
        assert_eq!(service.last_health().unwrap().tick, cloud.ticks());
    }

    #[test]
    fn a_restarted_service_journals_its_recovery_first() {
        let dir = wal_tempdir("recovery-lines");
        let mut cloud = cloud();
        let mut service = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        run_with_lines(&mut service, &mut cloud, 3);
        drop(service);

        let mut restarted = CollectorService::new(cloud.catalog(), durable_config(&dir)).unwrap();
        let r = restarted.recovery_report().unwrap().clone();
        let tick = r.last_tick.unwrap();
        let mut lines = vec![Line::Span(
            tick,
            Some(tick),
            "recovery",
            vec![
                ("frames_replayed", r.frames_replayed.to_string()),
                ("rounds_recovered", r.rounds_recovered.to_string()),
                ("bytes_truncated", r.bytes_truncated.to_string()),
                ("point_count", r.point_count.to_string()),
            ],
        )];
        lines.extend(run_with_lines(&mut restarted, &mut cloud, 2));
        let journal = restarted.journal().render();
        assert_eq!(journal, render_lines(0, &lines));
        assert!(journal.contains("\"name\":\"recovery\""), "{journal}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn past_capacity_the_journal_keeps_the_newest_rounds_and_numbers_on() {
        use spotlake_obs::{TraceJournal, TRACE_RING_CAPACITY as CAP};
        let mut cloud = cloud();
        let mut service =
            CollectorService::new(cloud.catalog(), CollectorConfig::default()).unwrap();
        let extra = 5;
        let lines = run_with_lines(&mut service, &mut cloud, (CAP + extra) as u64);
        assert_eq!(service.journal().len(), CAP);

        // A round is its span and three dataset events: the first `extra`
        // rounds' lines are gone, and numbering goes on past them.
        let dropped = 4 * extra;
        let text = service.journal().render();
        assert_eq!(text, render_lines(dropped as u64, &lines[dropped..]));
        let mut body = text.lines();
        let header = body.next().unwrap();
        let after = body.clone().count();
        assert_eq!(after, 4 * CAP);
        assert!(
            header.ends_with(&format!("\"entries\":{after}}}")),
            "{header}"
        );
        for (seq, line) in (dropped..).zip(body) {
            assert!(line.contains(&format!("\"seq\":{seq},")), "{line}");
        }
        assert!(text.lines().nth(1).unwrap().contains(&format!(
            "\"start\":{},\"end\":{0},\"name\":\"round\"",
            extra + 1
        )));
        let parsed = TraceJournal::parse(&text).unwrap();
        assert_eq!(parsed.len(), 4 * CAP);
        assert_eq!(parsed.render(), text);
    }
}
