//! Collection fidelity: the archive checked against the simulator's own
//! ground truth.
//!
//! Every other suite checks the collector against itself (record counts,
//! same-seed bytes, `obs::quality`'s view of coverage). Here, after every
//! round of a fault-free run on the small test catalog, the truth is read
//! straight from `SimCloud` — `composite_score` and `price_history`, pure
//! reads that bypass the API clients, their rate limits and the collector —
//! and the archive must hold exactly that:
//!
//! * SPS: the (type, AZ) pairs archived at the round's timestamp are every
//!   supported pair the plan's types × regions cover — so the bin-packed
//!   plan loses no zone to the 10-result cap — and each value is what a
//!   one-type query answers at that moment.
//! * Price: each pool's stored change-points are its `price_history` over
//!   the archived span, none missing and none duplicated across the
//!   window-start padding every incremental sweep receives.

mod common;

use common::{sim_config, test_catalog, GPU_MENU};
use spotlake_cloud_sim::SimCloud;
use spotlake_collector::{CollectorConfig, CollectorService, QueryPlanner, PRICE_TABLE, SPS_TABLE};
use spotlake_timestream::{Database, Dimensions, Query};
use spotlake_types::{AzId, Catalog, InstanceTypeId, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Rounds of the run: two simulated days at the 30-minute tick.
const ROUNDS: u64 = 96;

/// The supported (type, AZ) pairs the collector's plan covers: each planned
/// query's type in every supporting zone of its regions.
fn planned_pairs(catalog: &Catalog, config: &CollectorConfig) -> BTreeSet<(InstanceTypeId, AzId)> {
    let plan = QueryPlanner::new(config.strategy).plan(catalog, config.type_filter.as_deref());
    let mut pairs = BTreeSet::new();
    for q in &plan {
        let ty = catalog
            .instance_type_id(&q.instance_type)
            .expect("the plan names catalog types");
        for code in &q.regions {
            let region = catalog
                .region_id(code)
                .expect("the plan names catalog regions");
            for &az in catalog.azs_of_region(region) {
                if catalog.supports(ty, az) {
                    pairs.insert((ty, az));
                }
            }
        }
    }
    pairs
}

/// The value of dimension `key` on a stored row.
fn dim<'r>(dims: Dimensions<'r>, key: &str) -> &'r str {
    dims.iter()
        .find(|&(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("stored row lacks `{key}`: {dims:?}"))
}

/// The SPS rows archived at `time`, as (type, AZ) → score.
fn archived_scores(
    db: &Database,
    catalog: &Catalog,
    time: u64,
) -> BTreeMap<(InstanceTypeId, AzId), f64> {
    let rows = db
        .query(SPS_TABLE, &Query::measure("sps").between(time, time))
        .expect("the sps table exists");
    let mut scores = BTreeMap::new();
    for row in rows {
        let ty = catalog
            .instance_type_id(dim(row.dimensions(), "instance_type"))
            .expect("archived types are catalog types");
        let az = catalog
            .az_id(dim(row.dimensions(), "az"))
            .expect("archived zones are catalog zones");
        let region = catalog.region(catalog.az(az).region()).code();
        assert_eq!(dim(row.dimensions(), "region"), region, "{row:?}");
        assert!(
            scores.insert((ty, az), row.value).is_none(),
            "one score per pool per round: {row:?}"
        );
    }
    scores
}

/// A pool's stored price change-points, oldest first.
fn archived_prices(
    db: &Database,
    catalog: &Catalog,
    ty: InstanceTypeId,
    az: AzId,
) -> Vec<(u64, f64)> {
    let q = Query::measure("spot_price")
        .filter("instance_type", catalog.ty(ty).name())
        .filter("az", catalog.az(az).name());
    db.query(PRICE_TABLE, &q)
        .expect("the price table exists")
        .iter()
        .map(|r| (r.time, r.value))
        .collect()
}

#[test]
fn the_archive_holds_exactly_what_the_simulator_published() {
    let catalog = test_catalog(GPU_MENU);
    let config = CollectorConfig::default();
    let pairs = planned_pairs(&catalog, &config);
    let supported: BTreeSet<(InstanceTypeId, AzId)> =
        catalog.supported_pools().into_iter().collect();
    assert_eq!(pairs, supported, "the plan covers every supported pool");

    let mut cloud = SimCloud::new(catalog.clone(), sim_config());
    let mut service = CollectorService::new(&catalog, config.clone()).expect("collector");
    let mut price_changes = 0usize;
    for round in 1..=ROUNDS {
        cloud.step();
        let report = service.collect_round(&cloud).expect("a fault-free round");
        assert!(
            !report.health.is_degraded(),
            "round {round}: {:?}",
            report.health
        );
        let now = cloud.now();
        let db = service.database();

        // SPS: exactly the planned pairs, each at its one-type answer.
        let scores = archived_scores(db, &catalog, now.as_secs());
        let archived: BTreeSet<_> = scores.keys().copied().collect();
        assert_eq!(archived, pairs, "round {round}: archived pairs");
        for (&(ty, az), &value) in &scores {
            let truth = cloud
                .composite_score(&[ty], az, config.target_capacity)
                .expect("a supported pool has a score");
            assert_eq!(
                value,
                f64::from(truth.value()),
                "round {round}: {} in {}",
                catalog.ty(ty).name(),
                catalog.az(az).name()
            );
        }

        // Price: each pool's change-points over the archived span.
        for &(ty, az) in &supported {
            let truth: Vec<(u64, f64)> = cloud
                .price_history(ty, az, SimTime::EPOCH, now)
                .iter()
                .map(|&(t, p)| (t.as_secs(), p.as_usd()))
                .collect();
            let stored = archived_prices(db, &catalog, ty, az);
            assert_eq!(
                stored,
                truth,
                "round {round}: price of {} in {}",
                catalog.ty(ty).name(),
                catalog.az(az).name()
            );
            if round == ROUNDS {
                price_changes += stored.len().saturating_sub(1);
            }
        }
    }
    // The comparison is only as strong as the history it covered.
    assert!(price_changes > 0, "two days move some price");
}
