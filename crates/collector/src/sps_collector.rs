//! The placement-score collector.
//!
//! Owns the sharded query plan: each account re-issues its fixed shard of
//! packed queries every collection tick (repeats of a unique query are
//! free), one account after another. Transient API failures are retried
//! in-round per query; queries that exhaust the retry budget are reported
//! back so the service can dead-letter them — one flaky query must not
//! discard the rest of the round.
//!
//! A round has two halves. [`SpsCollector::query`] issues the queries and
//! returns the scores in catalog ids, booking nothing; it is what the
//! service runs on its SPS lane, beside the advisor and price sweeps.
//! [`SpsCollector::book`] turns those scores into points of the
//! collector's series, on the thread that owns them.

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

/// Answers in catalog ids: `(type, zone, score)` per zone, in answer
/// order.
type Scores = Vec<(InstanceTypeId, AzId, f64)>;

/// One query's outcome before its pools are booked.
#[derive(Debug, Default)]
struct QueryScores {
    scores: Scores,
    retries: usize,
    error: Option<ApiError>,
}

/// One round's placement scores before any pool is booked: what
/// [`SpsCollector::query`] returns and [`SpsCollector::book`] takes.
#[derive(Debug, Default)]
pub(crate) struct SpsScores {
    /// The cloud time the scores are stamped with.
    time: u64,
    /// Every answered query's scores, in shard order.
    scores: Scores,
    /// Retry attempts spent beyond each query's first call.
    retries: usize,
    /// Queries that exhausted the retry budget this round, in shard order.
    failed: Vec<FailedQuery>,
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

    /// Runs one collection round: every shard issues its queries, one
    /// account after another, with `SingleAvailabilityZone` set, and the
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

    /// [`SpsCollector::collect_with`] by series id: the round's queries,
    /// then the booking of their scores, both on the calling thread. Each
    /// score becomes a point of its (type, zone) pool's series, booked the
    /// first time a round sees the pool. A score naming a type or zone the
    /// catalog lacks, or no zone at all, is [`ApiError::UnknownEntity`];
    /// no pool is booked for a round that fails.
    ///
    /// # Errors
    ///
    /// As [`SpsCollector::collect_with`]; with several, the first in
    /// shard order.
    pub fn collect_points(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SpsPoints, CollectError> {
        let scores = self.query(cloud, policy)?;
        Ok(self.book(cloud.catalog(), scores))
    }

    /// The query half of a round: every shard issues its queries, one
    /// account after another, and the answers come back in catalog ids,
    /// stamped with the cloud's current time. Books nothing: the scores
    /// become points only in [`SpsCollector::book`].
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] for the first non-retryable error in
    /// shard order (invalid parameters, a blown query budget, or a score
    /// naming a type or zone the catalog lacks, or no zone at all —
    /// [`ApiError::UnknownEntity`]). A shard stops at its first such
    /// error; the other shards still issue theirs.
    pub(crate) fn query(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SpsScores, CollectError> {
        let mut round = SpsScores {
            time: cloud.now().as_secs(),
            ..SpsScores::default()
        };
        let mut first_error = None;
        for (shard_idx, shard) in self.shards.iter_mut().enumerate() {
            for (query_idx, q) in shard.queries.iter().enumerate() {
                let res = run_query(
                    &mut shard.client,
                    &shard.account,
                    q,
                    self.target_capacity,
                    cloud,
                    policy,
                );
                round.retries += res.retries;
                match res.error {
                    None => round.scores.extend(res.scores),
                    Some(e) if e.is_retryable() => round.failed.push(FailedQuery {
                        shard: shard_idx,
                        query: query_idx,
                        error: e,
                    }),
                    Some(e) => {
                        first_error.get_or_insert(e);
                        break;
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e.into()),
            None => Ok(round),
        }
    }

    /// The booking half of a round: `round`'s scores as points of the
    /// collector's series, in order, booking each pool on first sight.
    pub(crate) fn book(&mut self, catalog: &Catalog, round: SpsScores) -> SpsPoints {
        SpsPoints {
            points: self.book_scores(catalog, round.time, &round.scores),
            retries: round.retries,
            failed: round.failed,
        }
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
    fn the_query_half_books_nothing_and_booking_it_equals_collect_points() {
        let mut cloud = cloud();
        // The naive plan thirty times over: three account shards that
        // re-issue the same four unique queries.
        let naive = QueryPlanner::new(PlannerStrategy::Naive).plan(cloud.catalog(), None);
        let plan: Vec<_> = naive
            .iter()
            .cycle()
            .take(naive.len() * 30)
            .cloned()
            .collect();
        let pool = AccountPool::with_size(AccountPool::required_accounts(plan.len()));
        let faulted = || {
            let mut collector = SpsCollector::new(plan.clone(), &pool, 1).unwrap();
            collector.set_fault_plan(FaultPlan::uniform(17, 0.4));
            collector
        };
        let mut halves = faulted();
        let mut whole = faulted();
        assert_eq!(halves.shard_count(), 3);
        let policy = RetryPolicy::default();
        let slots = |round: &SpsPoints| -> Vec<(usize, usize, String)> {
            round
                .failed
                .iter()
                .map(|f| (f.shard, f.query, f.error.to_string()))
                .collect()
        };
        let (mut retries, mut failed) = (0, 0);
        for _ in 0..6 {
            cloud.step();
            // The book only grows: its length is what booking changes.
            let booked_before = halves.series().book().len();
            let scores = halves.query(&cloud, &policy).unwrap();
            assert_eq!(
                halves.series().book().len(),
                booked_before,
                "the query half books nothing"
            );
            let booked = halves.book(cloud.catalog(), scores);
            let want = whole.collect_points(&cloud, &policy).unwrap();
            assert_eq!(booked.points, want.points);
            assert_eq!(booked.retries, want.retries);
            assert_eq!(slots(&booked), slots(&want));
            retries += want.retries;
            failed += want.failed.len();
        }
        assert!(retries > 0 && failed > 0, "the weather showed");
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
