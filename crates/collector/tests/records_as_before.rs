//! The collectors' record adapters build what the collectors always built.
//!
//! `collect_with(..).records` is now the id path's points spelled out from
//! each collector's series book. This suite rebuilds the records the way
//! the collectors built them before they booked series — straight from the
//! API answers, one `Record` per score, row or price change, the price
//! region cut from the zone name — and requires the same records in the
//! same order, round after round, for all three datasets. The advisor
//! collector, which fetches its page only when the advisor republished,
//! is also held to a client fetching the page every round, through
//! republishes and under faults.

use spotlake_cloud_api::{
    AccountId, AdvisorClient, AdvisorRow, ApiError, FaultInjector, FaultPlan, PriceClient,
    PriceRequest, SpsClient, SpsRequest,
};
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{
    AccountPool, AdvisorCollector, CollectError, PlannedQuery, PriceCollector, QueryPlanner,
    RetryPolicy, SpsCollector,
};
use spotlake_timestream::Record;
use spotlake_types::{CatalogBuilder, SimDuration, SimTime};

fn cloud() -> SimCloud {
    let mut b = CatalogBuilder::new();
    b.region("us-test-1", 3)
        .region("eu-test-1", 2)
        .region("ap-test-1", 4)
        .instance_type("m5.large", 0.096)
        .instance_type("c5.xlarge", 0.17)
        .instance_type("p3.2xlarge", 3.06);
    let mut sim = SimConfig::with_seed(7);
    sim.tick = SimDuration::from_mins(60);
    SimCloud::new(b.build().unwrap(), sim)
}

/// The placement-score records of one round, account by account, query by
/// query, score by score.
fn sps_records(
    cloud: &SimCloud,
    shards: &mut [(AccountId, SpsClient, Vec<PlannedQuery>)],
) -> Vec<Record> {
    let now = cloud.now().as_secs();
    let mut records = Vec::new();
    for (account, client, queries) in shards {
        for q in queries.iter() {
            let request = SpsRequest::new(vec![q.instance_type.clone()], q.regions.clone(), 1)
                .unwrap()
                .single_availability_zone(true);
            for s in client
                .get_spot_placement_scores(cloud, account, &request)
                .unwrap()
            {
                records.push(
                    Record::new(now, "sps", f64::from(s.score.value()))
                        .dimension("instance_type", &q.instance_type)
                        .dimension("region", s.region)
                        .dimension("az", s.availability_zone.unwrap()),
                );
            }
        }
    }
    records
}

/// The advisor records of one scrape: score, then savings, per row.
fn advisor_records(cloud: &SimCloud, client: &mut AdvisorClient) -> Vec<Record> {
    advisor_rows_as_records(cloud, client.fetch(cloud).unwrap())
}

/// Score, then savings, per row, at the cloud's time.
fn advisor_rows_as_records(cloud: &SimCloud, rows: Vec<AdvisorRow>) -> Vec<Record> {
    let now = cloud.now().as_secs();
    let mut records = Vec::new();
    for row in rows {
        records.push(
            Record::new(
                now,
                "if_score",
                row.bucket.interruption_free_score().as_f64(),
            )
            .dimension("instance_type", &row.instance_type)
            .dimension("region", &row.region),
        );
        records.push(
            Record::new(now, "savings", f64::from(row.savings.percent()))
                .dimension("instance_type", &row.instance_type)
                .dimension("region", &row.region),
        );
    }
    records
}

/// The price records since `from`, fifty types a request, page by page,
/// the window-start padding skipped.
fn price_records(
    cloud: &SimCloud,
    client: &mut PriceClient,
    types: &[String],
    from: SimTime,
) -> Vec<Record> {
    let mut records = Vec::new();
    for chunk in types.chunks(50) {
        let request = PriceRequest::new(chunk.to_vec(), from, cloud.now()).unwrap();
        let mut token: Option<String> = None;
        loop {
            let page = client
                .describe_spot_price_history(cloud, &request, token.as_deref())
                .unwrap();
            for p in page.records {
                if p.timestamp < from {
                    continue;
                }
                let az = p.availability_zone;
                let region = &az[..az.len() - 1];
                records.push(
                    Record::new(p.timestamp.as_secs(), "spot_price", p.price.as_usd())
                        .dimension("instance_type", p.instance_type)
                        .dimension("region", region)
                        .dimension("az", az),
                );
            }
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
    }
    records
}

#[test]
fn collect_with_returns_the_records_the_api_answers_spell() {
    let mut cloud = cloud();
    let catalog = cloud.catalog().clone();
    let plan = QueryPlanner::default().plan(&catalog, None);
    let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
    let mut shards: Vec<(AccountId, SpsClient, Vec<PlannedQuery>)> = pool
        .assign(&plan)
        .unwrap()
        .into_iter()
        .map(|(account, queries)| (account, SpsClient::new(), queries.to_vec()))
        .collect();
    let mut sps = SpsCollector::new(plan, &pool, 1).unwrap();
    let mut advisor = AdvisorCollector::new();
    let mut price = PriceCollector::new();
    let (mut advisor_client, mut price_client) = (AdvisorClient::new(), PriceClient::new());
    let types: Vec<String> = catalog.instance_types().iter().map(|t| t.name()).collect();
    let policy = RetryPolicy::default();
    let mut from = SimTime::EPOCH;
    let mut prices = 0;
    for round in 0..30 {
        cloud.step();
        let got = sps.collect_with(&cloud, &policy).unwrap();
        assert!(got.failed.is_empty());
        assert_eq!(
            got.records,
            sps_records(&cloud, &mut shards),
            "sps, round {round}"
        );
        let got = advisor.collect_with(&cloud, &policy).unwrap();
        assert_eq!(
            got.records,
            advisor_records(&cloud, &mut advisor_client),
            "advisor, round {round}"
        );
        let got = price.collect_with(&cloud, &policy).unwrap();
        let want = price_records(&cloud, &mut price_client, &types, from);
        assert_eq!(got.records, want, "price, round {round}");
        prices += want.len();
        from = cloud.now() + SimDuration::from_secs(1);
    }
    assert!(!sps.series().book().is_empty());
    assert!(prices > 0, "the sweeps saw price changes");
}

/// One advisor round fetching the page unconditionally, retried as the
/// collector retries: the records or the error the last attempt met, and
/// the retries spent.
fn advisor_round(
    cloud: &SimCloud,
    client: &mut AdvisorClient,
    policy: &RetryPolicy,
) -> (Result<Vec<Record>, ApiError>, usize) {
    let mut retries = 0;
    loop {
        match client.fetch(cloud) {
            Ok(rows) => return (Ok(advisor_rows_as_records(cloud, rows)), retries),
            Err(e) if retries + 1 < policy.max_attempts as usize => {
                assert!(e.is_retryable());
                retries += 1;
            }
            Err(e) => return (Err(e), retries),
        }
    }
}

#[test]
fn the_advisor_collector_answers_as_an_unconditional_fetch_through_republishes() {
    let mut b = CatalogBuilder::new();
    b.region("us-test-1", 3)
        .region("eu-test-1", 2)
        .instance_type("m5.large", 0.096)
        .instance_type("p3.2xlarge", 3.06);
    // The paper's ten-minute tick, the advisor republishing hourly.
    let mut sim = SimConfig::with_seed(11);
    sim.advisor_refresh = SimDuration::from_hours(1);
    let mut cloud = SimCloud::new(b.build().unwrap(), sim);
    let plan = FaultPlan::profile("moderate", 3).unwrap();
    let mut reference = AdvisorClient::new().with_faults(FaultInjector::new(plan));
    let (mut records, mut points) = (AdvisorCollector::new(), AdvisorCollector::new());
    records.set_fault_plan(plan);
    points.set_fault_plan(plan);
    // Every other round allows no retry: a retry at this rate all but
    // always succeeds, and a sweep should fail now and then.
    let (retrying, single) = (
        RetryPolicy::default(),
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
    );
    let (mut changed, mut retried, mut failed) = (0, 0, 0);
    let mut last_values: Option<Vec<f64>> = None;
    for round in 0..300 {
        cloud.step();
        let policy = if round % 2 == 0 { &retrying } else { &single };
        let (want, retries) = advisor_round(&cloud, &mut reference, policy);
        match (records.collect_with(&cloud, policy), &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(&got.records, want, "round {round}");
                assert_eq!(got.retries, retries, "round {round}");
            }
            (Err(CollectError::Api(got)), Err(want)) => assert_eq!(&got, want, "round {round}"),
            (got, want) => panic!("round {round}: {got:?} where {want:?}"),
        }
        let got = points.collect_points(&cloud, policy).unwrap();
        assert_eq!(got.retries, retries, "round {round}");
        assert_eq!(got.error.as_ref(), want.as_ref().err(), "round {round}");
        assert_eq!(got.points.len(), want.as_ref().map_or(0, Vec::len));
        if let Ok(want) = &want {
            let values: Vec<f64> = want.iter().map(|r| r.value).collect();
            changed += usize::from(last_values.as_ref().is_some_and(|v| *v != values));
            last_values = Some(values);
        }
        retried += usize::from(retries > 0);
        failed += usize::from(want.is_err());
    }
    assert!(changed > 0, "a republish changed the page");
    assert!(
        retried > 0 && failed > 0,
        "the weather showed: {retried} {failed}"
    );
}
