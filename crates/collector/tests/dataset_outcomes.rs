//! Every way one dataset's round can end, for each of the three datasets.
//!
//! The table is dataset × outcome: a clean round, an API that fails after
//! its retries, an in-memory store that refuses the whole batch, the
//! dataset's only shard refusing its slice, and a breaker that skips the
//! round. Each row pins the dataset's status, records, retries, failed
//! operations, its breaker after the round and the round's
//! `CollectStats` record count — including the asymmetries between the
//! datasets: a refused write is one failed operation for a sweep (advisor,
//! price) but not for SPS, whose failed operations are plan slots.

use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{
    BreakerState, CollectStats, CollectorConfig, CollectorService, Dataset, DatasetStatus,
    FaultPlan, IoFaultPlan, RetryPolicy, RoundReport, PRICE_TABLE,
};
use spotlake_timestream::{Query, ShardKey};
use spotlake_types::{Catalog, CatalogBuilder, SimDuration};
use std::path::PathBuf;

const SEED: u64 = 20_220_901;
const REGION: &str = "us-test-1";

/// One region, so a dataset's only shard is the region's.
fn catalog() -> Catalog {
    let mut b = CatalogBuilder::new();
    b.region(REGION, 2)
        .instance_type("m5.large", 0.096)
        .instance_type("p3.2xlarge", 3.06);
    b.build().expect("valid catalog")
}

fn cloud() -> SimCloud {
    let mut sim = SimConfig::with_seed(SEED);
    sim.tick = SimDuration::from_mins(60);
    SimCloud::new(catalog(), sim)
}

/// How a row's round goes wrong, if it does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Clean,
    /// Every call on the dataset's API surface fails, retries included.
    ApiFailure,
    /// The in-memory store throttles every write of the round.
    StoreRefusal,
    /// The dataset's only shard fails every fsync, retries included.
    ShardRefusal,
    /// The dataset's breaker is forced open before the round.
    BreakerSkip,
}

/// What a row expects of its dataset after the round.
struct Expect {
    status: DatasetStatus,
    records: usize,
    retries: usize,
    failed_queries: usize,
    breaker: BreakerState,
}

fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spotlake-outcomes-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn api_failure(dataset: Dataset) -> FaultPlan {
    let mut plan = FaultPlan::none(SEED);
    match dataset {
        Dataset::Sps => plan.sps_rate = 1.0,
        Dataset::Advisor => plan.advisor_rate = 1.0,
        Dataset::Price => plan.price_rate = 1.0,
    }
    plan
}

fn config(dataset: Dataset, outcome: Outcome) -> CollectorConfig {
    match outcome {
        Outcome::ApiFailure => CollectorConfig {
            faults: Some(api_failure(dataset)),
            ..CollectorConfig::default()
        },
        Outcome::ShardRefusal => CollectorConfig {
            wal_dir: Some(scratch(dataset.name())),
            io_faults: Some(IoFaultPlan {
                fsync_fail_rate: 1.0,
                ..IoFaultPlan::none(SEED)
            }),
            io_fault_shard: Some(ShardKey::new(dataset.name(), REGION)),
            ..CollectorConfig::default()
        },
        Outcome::Clean | Outcome::StoreRefusal | Outcome::BreakerSkip => CollectorConfig::default(),
    }
}

/// Runs the first round of a fresh service under `outcome`, returning
/// the service (store faults lifted) and the round's report.
fn first_round(
    cloud: &mut SimCloud,
    dataset: Dataset,
    outcome: Outcome,
) -> (CollectorService, RoundReport) {
    let mut service =
        CollectorService::new(cloud.catalog(), config(dataset, outcome)).expect("service builds");
    cloud.step();
    match outcome {
        Outcome::StoreRefusal => service.database_mut().set_write_faults(1.0, SEED),
        Outcome::BreakerSkip => service.force_breaker_open(dataset, cloud.ticks()),
        _ => {}
    }
    let report = service.collect_round(cloud).expect("the round degrades");
    service.database_mut().set_write_faults(0.0, SEED);
    (service, report)
}

fn stats_records(stats: &CollectStats, dataset: Dataset) -> usize {
    match dataset {
        Dataset::Sps => stats.sps_records,
        Dataset::Advisor => stats.advisor_records,
        Dataset::Price => stats.price_records,
    }
}

/// The row's expectation. `queries` is the SPS plan's size; the other
/// numbers are this catalog's: 2 types × 2 zones of scores and prices,
/// 2 types × 1 region × (score, savings) advisor rows.
fn expect(dataset: Dataset, outcome: Outcome, queries: usize) -> Expect {
    let retries = RetryPolicy::default().max_attempts as usize - 1;
    let sweep = dataset != Dataset::Sps;
    let failed = |status, retries, failed_queries| Expect {
        status,
        records: 0,
        retries,
        failed_queries,
        breaker: BreakerState::Closed,
    };
    match outcome {
        Outcome::Clean => Expect {
            status: DatasetStatus::Ok,
            records: 4,
            retries: 0,
            failed_queries: 0,
            breaker: BreakerState::Closed,
        },
        Outcome::ApiFailure => match dataset {
            // Every plan slot fails after its retries.
            Dataset::Sps => failed(DatasetStatus::Failed, queries * retries, queries),
            // The one fetch fails after its retries.
            Dataset::Advisor | Dataset::Price => failed(DatasetStatus::Failed, retries, 1),
        },
        // A refused write is one failed operation for a sweep, none for
        // SPS.
        Outcome::StoreRefusal => failed(DatasetStatus::Failed, retries, usize::from(sweep)),
        // Every shard refusing its slice fails the dataset without a
        // failed operation.
        Outcome::ShardRefusal => failed(DatasetStatus::Failed, retries, 0),
        Outcome::BreakerSkip => Expect {
            breaker: BreakerState::Open,
            ..failed(DatasetStatus::Skipped, 0, 0)
        },
    }
}

#[test]
fn every_dataset_outcome_is_pinned() {
    let outcomes = [
        Outcome::Clean,
        Outcome::ApiFailure,
        Outcome::StoreRefusal,
        Outcome::ShardRefusal,
        Outcome::BreakerSkip,
    ];
    for dataset in Dataset::ALL {
        for outcome in outcomes {
            let row = format!("{} × {outcome:?}", dataset.name());
            let mut cloud = cloud();
            let (service, report) = first_round(&mut cloud, dataset, outcome);
            let queries = service.plan_stats().planned_queries;
            let want = expect(dataset, outcome, queries);
            let got = report.health.dataset(dataset);
            assert_eq!(got.status, want.status, "{row}: status");
            assert_eq!(got.records, want.records, "{row}: records");
            assert_eq!(got.retries, want.retries, "{row}: retries");
            assert_eq!(
                got.failed_queries, want.failed_queries,
                "{row}: failed queries"
            );
            assert_eq!(
                service.breaker_state(dataset),
                want.breaker,
                "{row}: breaker"
            );
            assert_eq!(
                stats_records(&report.stats, dataset),
                want.records,
                "{row}: CollectStats records"
            );
            assert_eq!(
                got.error.is_some(),
                !matches!(outcome, Outcome::Clean | Outcome::BreakerSkip),
                "{row}: error"
            );
            assert_eq!(
                report.health.shards_failed,
                usize::from(outcome == Outcome::ShardRefusal),
                "{row}: shards failed"
            );
            let dead_lettered = if (dataset, outcome) == (Dataset::Sps, Outcome::ApiFailure) {
                queries
            } else {
                0
            };
            assert_eq!(
                report.stats.dead_lettered, dead_lettered,
                "{row}: dead letters"
            );
            if let Outcome::ShardRefusal = outcome {
                std::fs::remove_dir_all(scratch(dataset.name())).ok();
            }
        }
    }
}

#[test]
fn three_failed_rounds_open_the_breaker() {
    for dataset in Dataset::ALL {
        let mut cloud = cloud();
        let config = config(dataset, Outcome::ApiFailure);
        let mut service = CollectorService::new(cloud.catalog(), config).expect("service builds");
        for round in 1..=3 {
            cloud.step();
            let report = service.collect_round(&cloud).expect("the round degrades");
            let health = report.health.dataset(dataset);
            assert_eq!(health.status, DatasetStatus::Failed, "{}", dataset.name());
            let want = if round < 3 {
                BreakerState::Closed
            } else {
                BreakerState::Open
            };
            assert_eq!(
                service.breaker_state(dataset),
                want,
                "{} after round {round}",
                dataset.name()
            );
        }
        cloud.step();
        let report = service.collect_round(&cloud).expect("the round degrades");
        assert_eq!(
            report.health.dataset(dataset).status,
            DatasetStatus::Skipped,
            "{}: an open breaker skips the next round",
            dataset.name()
        );
    }
}

#[test]
fn refused_price_points_land_exactly_once_in_the_next_round() {
    let mut cloud = cloud();
    let (mut service, first) = first_round(&mut cloud, Dataset::Price, Outcome::StoreRefusal);
    assert_eq!(first.health.price.records, 0);

    let mut twin_cloud = self::cloud();
    let mut twin =
        CollectorService::new(twin_cloud.catalog(), CollectorConfig::default()).expect("builds");
    let mut twin_records = Vec::new();
    for _ in 0..3 {
        twin_cloud.step();
        let report = twin.collect_round(&twin_cloud).expect("clean round");
        twin_records.push(report.health.price.records);
    }
    assert!(twin_records[0] > 0, "the first sweep has prices");

    // The parked points go first, then this round's: one batch, each
    // point once.
    cloud.step();
    let second = service.collect_round(&cloud).expect("clean round");
    assert_eq!(second.health.price.status, DatasetStatus::Ok);
    assert_eq!(
        second.health.price.records,
        twin_records[0] + twin_records[1]
    );
    assert_eq!(second.stats.price_records, second.health.price.records);
    // Nothing is parked twice: the round after holds only its own.
    cloud.step();
    let third = service.collect_round(&cloud).expect("clean round");
    assert_eq!(third.health.price.records, twin_records[2]);

    let prices = Query::measure("spot_price");
    assert_eq!(
        service.database().query(PRICE_TABLE, &prices).unwrap(),
        twin.database().query(PRICE_TABLE, &prices).unwrap(),
        "the archive holds what a service that never refused holds"
    );
}
