//! The traced pass's twin round.
//!
//! `CollectorService::collect_round` is one call from outside, so its inside
//! cannot be timed without spans in the crates (a later issue). The twin is
//! the same round composed from the layers' public pieces in the benchmark's
//! own file, run on the same tick against the same cloud, with a span around
//! each piece:
//!
//! ```text
//! round ─┬─ cloud-sim.step
//!        ├─ service.collect_round            (the program's own round)
//!        ├─ twin.round ─┬─ collector.sps / .advisor / .price   (collect_with)
//!        │              ├─ timestream.write                   (in-memory twin)
//!        │              └─ timestream.commit ×3, timestream.maintain (durable twin)
//!        └─ api.probe ──┬─ cloud-api.sps      (the plan's queries, sharded by account
//!                       ├─ cloud-api.advisor   and run in parallel as the collector does)
//!                       └─ cloud-api.price
//! ```
//!
//! The twin round's children cover it by construction, so "twin parts +
//! `collector.round_unattributed_ms` = service round" — the layers sum to
//! the end-to-end budget. A collector's self time is its span minus the
//! `cloud-api` probe of the same calls.

use crate::metrics::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use spotlake_cloud_api::{
    AccountId, AdvisorClient, PriceClient, PriceRequest, SpsClient, SpsRequest,
};
use spotlake_cloud_sim::SimCloud;
use spotlake_collector::{
    AccountPool, AdvisorCollector, PlannerStrategy, PriceCollector, QueryPlanner, RetryPolicy,
    SpsCollector, ADVISOR_TABLE, PRICE_TABLE, SPS_TABLE,
};
use spotlake_timestream::{Database, Record, ShardKey, ShardedArchive, TableOptions, WriteMode};
use spotlake_types::{Catalog, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// The archive tables with the write modes `CollectorService::new` gives them.
const TABLES: [(&str, WriteMode); 3] = [
    (SPS_TABLE, WriteMode::Dense),
    (ADVISOR_TABLE, WriteMode::ChangePoint),
    (PRICE_TABLE, WriteMode::ChangePoint),
];
/// Instance types per price request, as `PriceCollector` batches them.
const PRICE_BATCH: usize = 50;

fn options(mode: WriteMode) -> TableOptions {
    TableOptions {
        mode,
        retention: None,
    }
}

enum Store {
    Mem(Database),
    Durable {
        archive: Box<ShardedArchive>,
        merged: Database,
        dir: PathBuf,
    },
}

/// One account's share of the plan, as the SPS collector shards it.
struct ApiShard {
    account: AccountId,
    client: SpsClient,
    requests: Vec<SpsRequest>,
}

/// The benchmark-composed round and its running totals.
pub struct Twin {
    sps: SpsCollector,
    advisor: AdvisorCollector,
    price: PriceCollector,
    store: Store,
    api_shards: Vec<ApiShard>,
    api_advisor: AdvisorClient,
    api_price: PriceClient,
    api_price_from: SimTime,
    type_names: Vec<String>,
    policy: RetryPolicy,
    rounds: u64,
    offered: u64,
    stored: u64,
    sps_scores: u64,
    advisor_rows: u64,
    price_points: u64,
    /// Shard checkpoint rotations seen so far, and the bytes they wrote.
    checkpoints: u64,
    checkpoint_bytes: u64,
    /// `checkpoint.db` per shard directory as last seen: (length, mtime).
    checkpoints_seen: BTreeMap<PathBuf, (u64, SystemTime)>,
    plan_ms: f64,
    queries_planned: usize,
    lower_bound: usize,
}

impl Twin {
    /// Plans the catalog (timed: `binpack.plan_ms`), builds the three
    /// collectors and the API probe's clients, and opens the twin store —
    /// a sharded archive under `durable_dir`, or an in-memory database.
    pub fn new(catalog: &Catalog, durable_dir: Option<PathBuf>) -> Twin {
        let planner = QueryPlanner::new(PlannerStrategy::default());
        let t = Instant::now();
        let (plan, plan_stats) = planner.plan_with_stats(catalog, None);
        let plan_ms = super::ms_since(t);
        let lower_bound = planner.plan_lower_bound(catalog);

        let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
        let api_shards = pool
            .assign(&plan)
            .expect("the pool is sized for the plan")
            .into_iter()
            .map(|(account, queries)| ApiShard {
                account,
                client: SpsClient::new(),
                requests: queries
                    .iter()
                    .map(|q| {
                        SpsRequest::new(vec![q.instance_type.clone()], q.regions.clone(), 1)
                            .expect("planned queries are valid requests")
                            .single_availability_zone(true)
                    })
                    .collect(),
            })
            .collect();
        let sps = SpsCollector::new(plan, &pool, 1).expect("the pool is sized for the plan");

        let store = match durable_dir {
            None => {
                let mut db = Database::new();
                create_tables(&mut db);
                Store::Mem(db)
            }
            Some(dir) => {
                let keys: Vec<ShardKey> = TABLES
                    .iter()
                    .flat_map(|(table, _)| {
                        catalog
                            .regions()
                            .iter()
                            .map(move |r| ShardKey::new(table, r.code()))
                    })
                    .collect();
                let checkpoint_every =
                    spotlake_collector::CollectorConfig::default().checkpoint_every;
                let (archive, mut merged) =
                    ShardedArchive::open(&dir, &keys, checkpoint_every, None)
                        .expect("a fresh scratch directory opens");
                create_tables(&mut merged);
                Store::Durable {
                    archive: Box::new(archive),
                    merged,
                    dir,
                }
            }
        };

        Twin {
            sps,
            advisor: AdvisorCollector::new(),
            price: PriceCollector::new(),
            store,
            api_shards,
            api_advisor: AdvisorClient::new(),
            api_price: PriceClient::new(),
            api_price_from: SimTime::EPOCH,
            type_names: catalog.instance_types().iter().map(|t| t.name()).collect(),
            policy: RetryPolicy::default(),
            rounds: 0,
            offered: 0,
            stored: 0,
            sps_scores: 0,
            advisor_rows: 0,
            price_points: 0,
            checkpoints: 0,
            checkpoint_bytes: 0,
            checkpoints_seen: BTreeMap::new(),
            plan_ms,
            queries_planned: plan_stats.planned_queries,
            lower_bound,
        }
    }

    /// Points the twin store holds (its share of the process's memory).
    pub fn point_count(&self) -> usize {
        match &self.store {
            Store::Mem(db) => db.point_count(),
            Store::Durable { merged, .. } => merged.point_count(),
        }
    }

    /// Runs the twin round and the API probe for the cloud's current tick,
    /// as children of `root`.
    pub fn round(&mut self, tracer: &mut Tracer, cloud: &SimCloud, trace: u64, root: SpanId) {
        let tick = cloud.ticks();
        let twin = tracer.begin("twin.round", "", trace, Some(root));
        let parent = Some(twin);
        let policy = self.policy;
        let sps = tracer
            .leaf("collector.sps", "sps", trace, parent, || {
                self.sps.collect_with(cloud, &policy)
            })
            .expect("fault-free SPS collection")
            .records;
        let advisor = tracer
            .leaf("collector.advisor", "advisor", trace, parent, || {
                self.advisor.collect_with(cloud, &policy)
            })
            .expect("fault-free advisor collection")
            .records;
        let price = tracer
            .leaf("collector.price", "price", trace, parent, || {
                self.price.collect_with(cloud, &policy)
            })
            .expect("fault-free price collection")
            .records;
        // In `TABLES` order.
        let records: [&[Record]; 3] = [&sps, &advisor, &price];
        let batches = [0, 1, 2].map(|i| (TABLES[i].0, TABLES[i].1, records[i]));
        self.offered += batches.iter().map(|(_, _, r)| r.len() as u64).sum::<u64>();
        match &mut self.store {
            Store::Mem(db) => {
                self.stored += tracer.leaf("timestream.write", "", trace, parent, || {
                    batches
                        .iter()
                        .map(|(table, _, records)| {
                            db.write(table, records).expect("twin tables exist") as u64
                        })
                        .sum::<u64>()
                });
            }
            Store::Durable {
                archive, merged, ..
            } => {
                for (table, mode, records) in batches {
                    // The outcome carries a copy of every committed record;
                    // it is dropped inside the span so that cost has a name.
                    let (written, clean) =
                        tracer.leaf("timestream.commit", table, trace, parent, || {
                            let outcome = archive.commit(
                                merged,
                                table,
                                options(mode),
                                tick,
                                records,
                                policy.max_attempts,
                            );
                            (outcome.written as u64, outcome.failures.is_empty())
                        });
                    assert!(clean, "fault-free shard commit");
                    self.stored += written;
                }
                tracer
                    .leaf("timestream.maintain", "", trace, parent, || {
                        archive.maintain()
                    })
                    .expect("scratch manifest is writable");
            }
        }
        tracer.end(twin);
        if let Store::Durable { archive, dir, .. } = &self.store {
            let checkpoints = archive.wal_stats().checkpoints;
            if checkpoints > self.checkpoints {
                self.checkpoints = checkpoints;
                self.checkpoint_bytes +=
                    rewritten_checkpoint_bytes(dir, &mut self.checkpoints_seen);
            }
        }

        let probe = tracer.begin("api.probe", "", trace, Some(root));
        let parent = Some(probe);
        self.sps_scores += tracer.leaf("cloud-api.sps", "sps", trace, parent, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .api_shards
                    .iter_mut()
                    .map(|shard| {
                        scope.spawn(move || {
                            let mut scores = 0u64;
                            for request in &shard.requests {
                                scores += shard
                                    .client
                                    .get_spot_placement_scores(cloud, &shard.account, request)
                                    .expect("fault-free placement scores")
                                    .len() as u64;
                            }
                            scores
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe shard thread"))
                    .sum::<u64>()
            })
        });
        self.advisor_rows += tracer.leaf("cloud-api.advisor", "advisor", trace, parent, || {
            self.api_advisor
                .fetch(cloud)
                .expect("fault-free advisor page")
                .len() as u64
        });
        let (from, to) = (self.api_price_from, cloud.now());
        self.price_points += tracer.leaf("cloud-api.price", "price", trace, parent, || {
            let mut points = 0u64;
            for chunk in self.type_names.chunks(PRICE_BATCH) {
                let request =
                    PriceRequest::new(chunk.to_vec(), from, to).expect("a forward window");
                let mut token: Option<String> = None;
                loop {
                    let page = self
                        .api_price
                        .describe_spot_price_history(cloud, &request, token.as_deref())
                        .expect("fault-free price history");
                    points += page.records.len() as u64;
                    match page.next_token {
                        Some(next) => token = Some(next),
                        None => break,
                    }
                }
            }
            points
        });
        self.api_price_from = to + SimDuration::from_secs(1);
        tracer.end(probe);
        self.rounds += 1;
    }

    /// Derives the per-layer metrics of the write path from the spans and
    /// the totals, and checks that the twin round has no untraced gap.
    pub fn report(&self, tracer: &Tracer, report: &mut Report) {
        let rounds = self.rounds.max(1) as f64;
        let mean = |name: &str, class: &str| stats::mean(&tracer.durations_ms(name, class));
        let per_round = |name: &str| tracer.durations_ms(name, "").iter().sum::<f64>() / rounds;

        report.set(
            "cloud-sim.step_ms_p50",
            stats::median(&tracer.durations_ms("cloud-sim.step", "")),
        );
        report.set("binpack.plan_ms", self.plan_ms);
        report.set("binpack.queries_planned", self.queries_planned as f64);
        report.set("binpack.lower_bound", self.lower_bound as f64);

        let queries: usize = self.api_shards.iter().map(|s| s.requests.len()).sum();
        report.set("cloud-api.sps_queries_per_round", queries as f64);
        report.set(
            "cloud-api.sps_scores_per_round",
            self.sps_scores as f64 / rounds,
        );
        report.set("cloud-api.advisor_rows", self.advisor_rows as f64 / rounds);
        report.set("cloud-api.price_points", self.price_points as f64 / rounds);
        for dataset in ["sps", "advisor", "price"] {
            let api = mean(&format!("cloud-api.{dataset}"), "");
            let collector = mean(&format!("collector.{dataset}"), "");
            report.set(format!("cloud-api.{dataset}_ms_per_round"), api);
            report.set(
                format!("collector.{dataset}_ms_per_round"),
                (collector - api).max(0.0),
            );
        }
        report.set(
            "collector.records_offered_per_round",
            self.offered as f64 / rounds,
        );
        report.set(
            "timestream.records_stored_ratio",
            self.stored as f64 / self.offered.max(1) as f64,
        );
        report.set(
            "timestream.write_ms_per_round",
            per_round("timestream.write"),
        );

        if let Store::Durable { archive, .. } = &self.store {
            let wal = archive.wal_stats();
            report.set(
                "timestream.commit_ms_per_round",
                per_round("timestream.commit"),
            );
            report.set(
                "timestream.checkpoint_ms_per_round",
                per_round("timestream.maintain"),
            );
            report.set(
                "timestream.wal_frames_per_round",
                wal.frames_appended as f64 / rounds,
            );
            report.set(
                "timestream.wal_bytes_per_round",
                wal.bytes_appended as f64 / rounds,
            );
            report.set("timestream.checkpoints", wal.checkpoints as f64);
            report.set("timestream.checkpoint_bytes", self.checkpoint_bytes as f64);
            report.set(
                "timestream.disk_bytes_written_per_record",
                (wal.bytes_appended + self.checkpoint_bytes) as f64 / self.stored.max(1) as f64,
            );
        }

        let service = mean("service.collect_round", "");
        let twin = mean("twin.round", "");
        report.set("collector.round_unattributed_ms", service - twin);
        println!(
            "note collector.round_unattributed_ms is {:.1}% of the service round ({service:.3} ms); the rest is the twin's parts",
            (service - twin) / service.max(f64::MIN_POSITIVE) * 100.0
        );
        let (total, own) = tracer.total_and_self_ms("twin.round");
        let gap = own / total.max(f64::MIN_POSITIVE);
        report.check("twin_children_cover_the_twin_round", gap <= 0.01, || {
            format!("{:.3}% of the twin round is in no child span", gap * 100.0)
        });
    }
}

fn create_tables(db: &mut Database) {
    for (table, mode) in TABLES {
        // A recovered (never here) or already merged table is fine as it is.
        let _ = db.create_table(table, options(mode));
    }
}

/// Bytes of the shard checkpoints under `root` that were rewritten since
/// `seen` was last updated (shards reach their cadence on different rounds).
fn rewritten_checkpoint_bytes(root: &Path, seen: &mut BTreeMap<PathBuf, (u64, SystemTime)>) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else {
        return 0;
    };
    let mut bytes = 0;
    for entry in entries.flatten() {
        let path = entry.path().join("checkpoint.db");
        let Ok(meta) = std::fs::metadata(&path) else {
            continue;
        };
        let now = (
            meta.len(),
            meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
        );
        if seen.insert(path, now) != Some(now) {
            bytes += now.0;
        }
    }
    bytes
}
