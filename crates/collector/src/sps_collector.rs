//! The placement-score collector.
//!
//! Owns the sharded query plan: each account re-issues its fixed shard of
//! packed queries every collection tick (repeats of a unique query are
//! free), in parallel across accounts. Transient API failures are retried
//! in-round per query; queries that exhaust the retry budget are reported
//! back so the service can dead-letter them — one flaky query must not
//! discard the rest of the round.

use crate::accounts::AccountPool;
use crate::error::CollectError;
use crate::planner::PlannedQuery;
use crate::retry::RetryPolicy;
use crate::series::{type_id, zone_id, PoolSeries};
use spotlake_cloud_api::{
    AccountId, ApiError, FaultInjector, FaultPlan, FaultSurface, SpsClient, SpsRequest, SpsScore,
};
use spotlake_cloud_sim::SimCloud;
use spotlake_timestream::{Point, Record};
use spotlake_types::{AzId, Catalog, InstanceTypeId};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Shard {
    account: AccountId,
    client: SpsClient,
    queries: Vec<PlannedQuery>,
}

/// A query that failed even after in-round retries. Identifies the plan
/// slot so the service can re-issue it from the dead-letter queue
/// (re-issuing the same fingerprint is free under the unique-query limit).
#[derive(Debug, Clone)]
pub struct FailedQuery {
    /// Index of the account shard that owns the query.
    pub shard: usize,
    /// Index of the query within the shard.
    pub query: usize,
    /// The error the final attempt died with.
    pub error: ApiError,
}

/// Result of one placement-score collection round: whatever was gathered,
/// plus how hard the round had to work for it.
#[derive(Debug, Clone, Default)]
pub struct SpsOutcome {
    /// Records collected (possibly from a subset of the plan).
    pub records: Vec<Record>,
    /// Retry attempts spent beyond each query's first call.
    pub retries: usize,
    /// Queries that exhausted the retry budget this round.
    pub failed: Vec<FailedQuery>,
}

/// [`SpsOutcome`] by series id: the points of the collector's
/// [`SpsCollector::series`], in the order the records would be.
#[derive(Debug, Clone, Default)]
pub struct SpsPoints {
    /// Points collected (possibly from a subset of the plan).
    pub points: Vec<Point>,
    /// Retry attempts spent beyond each query's first call.
    pub retries: usize,
    /// Queries that exhausted the retry budget this round.
    pub failed: Vec<FailedQuery>,
}

/// Result of re-issuing one dead-lettered query.
#[derive(Debug, Clone, Default)]
pub struct SpsQueryOutcome {
    /// Points collected, of the collector's [`SpsCollector::series`];
    /// empty on failure.
    pub points: Vec<Point>,
    /// Retry attempts spent beyond the first call.
    pub retries: usize,
    /// The error the final attempt died with, `None` on success.
    pub error: Option<ApiError>,
}

/// One query's answer in catalog ids: `(type, zone, score)` per zone,
/// in answer order.
type Scores = Vec<(InstanceTypeId, AzId, f64)>;

/// One query's outcome before its pools are booked — what an account's
/// thread hands back.
#[derive(Debug, Default)]
struct QueryScores {
    scores: Scores,
    retries: usize,
    error: Option<ApiError>,
}

/// Collects per-AZ placement scores for the whole planned catalog.
#[derive(Debug, Clone)]
pub struct SpsCollector {
    shards: Vec<Shard>,
    target_capacity: u32,
    series: PoolSeries,
}

impl SpsCollector {
    /// Builds the collector from a query plan, sharding it across the
    /// account pool.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::InsufficientAccounts`] when the pool cannot
    /// cover the plan.
    pub fn new(
        plan: Vec<PlannedQuery>,
        pool: &AccountPool,
        target_capacity: u32,
    ) -> Result<Self, CollectError> {
        let shards = pool
            .assign(&plan)?
            .into_iter()
            .map(|(account, queries)| Shard {
                account,
                client: SpsClient::new(),
                queries: queries.to_vec(),
            })
            .collect();
        Ok(SpsCollector {
            shards,
            target_capacity,
            series: PoolSeries::new(&["sps"]),
        })
    }

    /// The series the collector's points name: one per (type, zone) pool
    /// it has seen.
    pub fn series(&self) -> &PoolSeries {
        &self.series
    }

    pub(crate) fn series_mut(&mut self) -> &mut PoolSeries {
        &mut self.series
    }

    /// Installs fault injection on every shard's client. Call before the
    /// first round: replacing a client resets its rate-limit window.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for shard in &mut self.shards {
            shard.client = SpsClient::new().with_faults(FaultInjector::new(plan));
        }
    }

    /// Total queries issued per collection round.
    pub fn query_count(&self) -> usize {
        self.shards.iter().map(|s| s.queries.len()).sum()
    }

    /// Number of account shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Unique-query budget consumption per account as of the cloud's
    /// current time, as `(account name, unique queries used)` in shard
    /// order — drives the service's budget gauge.
    pub fn budget_used(&mut self, cloud: &SimCloud) -> Vec<(String, usize)> {
        let now = cloud.now();
        self.shards
            .iter_mut()
            .map(|s| {
                let used = s.client.unique_queries_used(&s.account, now);
                (s.account.name().to_owned(), used)
            })
            .collect()
    }

    /// Fault injections across all shard clients, merged by
    /// `(surface, kind)` and sorted; empty without fault injection.
    pub fn fault_counts(&self) -> Vec<(FaultSurface, &'static str, u64)> {
        let mut merged: BTreeMap<(FaultSurface, &'static str), u64> = BTreeMap::new();
        for shard in &self.shards {
            for (surface, kind, n) in shard.client.fault_counts() {
                *merged.entry((surface, kind)).or_insert(0) += n;
            }
        }
        merged.into_iter().map(|((s, k), n)| (s, k, n)).collect()
    }

    /// Runs one collection round: every shard issues its queries (in
    /// parallel across accounts) with `SingleAvailabilityZone` set, and the
    /// responses become `sps` records stamped with the cloud's current
    /// time. Transient failures are retried per query up to
    /// `policy.max_attempts`; queries still failing land in
    /// [`SpsOutcome::failed`] instead of sinking the round.
    ///
    /// The records are [`SpsCollector::collect_points`] spelled out.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] only for non-retryable errors
    /// (invalid parameters, unknown entities, a blown query budget) —
    /// those are caller bugs, not weather.
    pub fn collect_with(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SpsOutcome, CollectError> {
        let round = self.collect_points(cloud, policy)?;
        Ok(SpsOutcome {
            records: self.series.records(&round.points),
            retries: round.retries,
            failed: round.failed,
        })
    }

    /// [`SpsCollector::collect_with`] by series id: each score becomes a
    /// point of its (type, zone) pool's series, booked the first time a
    /// round sees the pool. A score naming a type or zone the catalog
    /// lacks, or no zone at all, is [`ApiError::UnknownEntity`]; no pool
    /// is booked for a round that fails.
    ///
    /// # Errors
    ///
    /// As [`SpsCollector::collect_with`].
    pub fn collect_points(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SpsPoints, CollectError> {
        let now = cloud.now().as_secs();
        let capacity = self.target_capacity;
        let shard_results = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(shard_idx, shard)| {
                    scope.spawn(move || -> Result<(Scores, SpsPoints), CollectError> {
                        let mut scores = Vec::new();
                        let mut outcome = SpsPoints::default();
                        for (query_idx, q) in shard.queries.iter().enumerate() {
                            let res = run_query(
                                &mut shard.client,
                                &shard.account,
                                q,
                                capacity,
                                cloud,
                                policy,
                            );
                            outcome.retries += res.retries;
                            match res.error {
                                None => scores.extend(res.scores),
                                Some(e) if e.is_retryable() => {
                                    outcome.failed.push(FailedQuery {
                                        shard: shard_idx,
                                        query: query_idx,
                                        error: e,
                                    });
                                }
                                Some(e) => return Err(e.into()),
                            }
                        }
                        Ok((scores, outcome))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("collector shard thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;

        let catalog = cloud.catalog();
        let mut total = SpsPoints::default();
        for (scores, o) in shard_results {
            total.points.extend(self.book_scores(catalog, now, &scores));
            total.retries += o.retries;
            total.failed.extend(o.failed);
        }
        Ok(total)
    }

    /// Runs one collection round with the default retry policy, failing
    /// the whole round if any query stays failed — the strict pre-fault
    /// behaviour, kept for callers that opt out of partial rounds.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] if any query fails (a correctly sized
    /// pool under a fault-free cloud never does).
    pub fn collect(&mut self, cloud: &SimCloud) -> Result<Vec<Record>, CollectError> {
        let outcome = self.collect_with(cloud, &RetryPolicy::default())?;
        if let Some(f) = outcome.failed.into_iter().next() {
            return Err(f.error.into());
        }
        Ok(outcome.records)
    }

    /// Re-issues one dead-lettered query identified by `(shard, query)`.
    /// Out-of-range indices (a plan change since the entry was queued)
    /// report an `UnknownEntity` error rather than panicking.
    pub fn retry_query(
        &mut self,
        cloud: &SimCloud,
        shard: usize,
        query: usize,
        policy: &RetryPolicy,
    ) -> SpsQueryOutcome {
        let capacity = self.target_capacity;
        let Some(s) = self.shards.get_mut(shard) else {
            return stale_slot_outcome("shard", shard);
        };
        let account = s.account.clone();
        let Some(q) = s.queries.get(query).cloned() else {
            return stale_slot_outcome("query slot", query);
        };
        let res = run_query(&mut s.client, &account, &q, capacity, cloud, policy);
        let points = self.book_scores(cloud.catalog(), cloud.now().as_secs(), &res.scores);
        SpsQueryOutcome {
            points,
            retries: res.retries,
            error: res.error,
        }
    }

    /// `scores` as points at `time`, booking each pool on first sight.
    fn book_scores(&mut self, catalog: &Catalog, time: u64, scores: &Scores) -> Vec<Point> {
        scores
            .iter()
            .map(|&(ty, az, value)| Point {
                series: self.series.zone_pool(catalog, ty, az),
                time,
                value,
            })
            .collect()
    }
}

fn stale_slot_outcome(kind: &'static str, index: usize) -> SpsQueryOutcome {
    SpsQueryOutcome {
        error: Some(ApiError::UnknownEntity {
            kind,
            name: index.to_string(),
        }),
        ..SpsQueryOutcome::default()
    }
}

/// Issues one planned query with in-round retries, converting the answer
/// to catalog ids.
fn run_query(
    client: &mut SpsClient,
    account: &AccountId,
    q: &PlannedQuery,
    capacity: u32,
    cloud: &SimCloud,
    policy: &RetryPolicy,
) -> QueryScores {
    let mut outcome = QueryScores::default();
    let request = match SpsRequest::new(vec![q.instance_type.clone()], q.regions.clone(), capacity)
    {
        Ok(r) => r.single_availability_zone(true),
        Err(e) => {
            outcome.error = Some(e);
            return outcome;
        }
    };
    let mut attempt = 0;
    loop {
        attempt += 1;
        match client.get_spot_placement_scores(cloud, account, &request) {
            Ok(scores) => {
                match in_catalog_ids(cloud.catalog(), &q.instance_type, &scores) {
                    Ok(scores) => outcome.scores = scores,
                    Err(e) => outcome.error = Some(e),
                }
                return outcome;
            }
            Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                outcome.retries += 1;
            }
            Err(e) => {
                outcome.error = Some(e);
                return outcome;
            }
        }
    }
}

/// A one-type per-zone answer in catalog ids. Every score must name a
/// zone of the catalog, in the region the answer gives; the first that
/// does not fails the whole answer.
fn in_catalog_ids(catalog: &Catalog, ty: &str, scores: &[SpsScore]) -> Result<Scores, ApiError> {
    let ty = type_id(catalog, ty)?;
    scores
        .iter()
        .map(|s| {
            let az = zone_id(catalog, s.availability_zone.as_deref())?;
            if catalog.region(catalog.az(az).region()).code() != s.region {
                return Err(ApiError::UnknownEntity {
                    kind: "region of availability zone",
                    name: s.region.clone(),
                });
            }
            Ok((ty, az, f64::from(s.score.value())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{PlannerStrategy, QueryPlanner};
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::CatalogBuilder;

    fn cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 3)
            .region("eu-test-1", 3)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn collects_one_record_per_supported_pool() {
        let cloud = cloud();
        let plan = QueryPlanner::new(PlannerStrategy::Exact).plan(cloud.catalog(), None);
        let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        let records = collector.collect(&cloud).unwrap();
        // Full support: 2 types × 6 AZs.
        assert_eq!(records.len(), 12);
        for r in &records {
            assert_eq!(r.measure, "sps");
            assert!((1.0..=3.0).contains(&r.value));
            assert!(r.dimension_value("instance_type").is_some());
            assert!(r.dimension_value("region").is_some());
            assert!(r.dimension_value("az").is_some());
        }
    }

    #[test]
    fn repeat_collection_rounds_stay_within_limits() {
        let mut cloud = cloud();
        let plan = QueryPlanner::default().plan(cloud.catalog(), None);
        let pool = AccountPool::with_size(1);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        // Many rounds over a day: the same unique queries are reissued, so
        // the 50-unique limit is never hit.
        for _ in 0..30 {
            cloud.step();
            collector.collect(&cloud).unwrap();
        }
    }

    #[test]
    fn insufficient_pool_is_rejected() {
        let cloud = cloud();
        let plan = QueryPlanner::new(PlannerStrategy::Naive).plan(cloud.catalog(), None);
        assert_eq!(plan.len(), 4);
        // Zero accounts cannot run a 4-query plan.
        let pool = AccountPool::with_size(0);
        assert!(SpsCollector::new(plan, &pool, 1).is_err());
    }

    #[test]
    fn transient_faults_degrade_instead_of_sinking_the_round() {
        let mut cloud = cloud();
        let plan = QueryPlanner::default().plan(cloud.catalog(), None);
        let pool = AccountPool::with_size(1);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        collector.set_fault_plan(FaultPlan::uniform(17, 0.5));
        let policy = RetryPolicy::default();
        let mut retries = 0;
        let mut failed = 0;
        let mut records = 0;
        for _ in 0..25 {
            cloud.step();
            let outcome = collector.collect_with(&cloud, &policy).unwrap();
            retries += outcome.retries;
            failed += outcome.failed.len();
            records += outcome.records.len();
        }
        assert!(retries > 0, "a 50% fault rate must trigger retries");
        assert!(records > 0, "partial rounds still deliver data");
        // Whatever failed is identified precisely enough to re-issue.
        let _ = failed;
    }

    #[test]
    fn a_score_the_catalog_cannot_place_fails_closed() {
        let cloud = cloud();
        let score = |region: &str, az: Option<&str>| SpsScore {
            region: region.to_owned(),
            availability_zone: az.map(str::to_owned),
            score: spotlake_types::PlacementScore::new(3).unwrap(),
        };
        let good = score("us-test-1", Some("us-test-1a"));
        let placed =
            in_catalog_ids(cloud.catalog(), "m5.large", std::slice::from_ref(&good)).unwrap();
        assert_eq!(placed.len(), 1);
        for (ty, bad) in [
            ("m5.large", score("us-test-1", None)),
            ("m5.large", score("us-test-1", Some("us-test-1z"))),
            ("m5.large", score("eu-test-1", Some("us-test-1a"))),
            ("m9.huge", good.clone()),
        ] {
            let e = in_catalog_ids(cloud.catalog(), ty, &[good.clone(), bad]).unwrap_err();
            assert!(matches!(e, ApiError::UnknownEntity { .. }), "{e}");
            assert!(!e.is_retryable());
        }
    }

    #[test]
    fn a_round_that_fails_closed_books_no_series() {
        let cloud = cloud();
        let mut plan = QueryPlanner::default().plan(cloud.catalog(), None);
        plan.push(PlannedQuery {
            instance_type: "m9.huge".to_owned(),
            regions: vec!["us-test-1".to_owned()],
            expected_results: 3,
        });
        let pool = AccountPool::with_size(1);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        let err = collector
            .collect_points(&cloud, &RetryPolicy::default())
            .unwrap_err();
        assert!(
            matches!(err, CollectError::Api(ApiError::UnknownEntity { .. })),
            "{err}"
        );
        assert!(collector.series().book().is_empty(), "nothing booked");
    }

    #[test]
    fn retry_query_reissues_a_single_slot() {
        let mut cloud = cloud();
        cloud.step();
        let plan = QueryPlanner::default().plan(cloud.catalog(), None);
        let pool = AccountPool::with_size(1);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        let policy = RetryPolicy::default();
        let good = collector.retry_query(&cloud, 0, 0, &policy);
        assert!(good.error.is_none());
        assert!(!good.points.is_empty());
        // Stale dead-letter entries report an error instead of panicking.
        let stale = collector.retry_query(&cloud, 99, 0, &policy);
        assert!(stale.error.is_some());
        let stale = collector.retry_query(&cloud, 0, 9_999, &policy);
        assert!(stale.error.is_some());
    }
}
