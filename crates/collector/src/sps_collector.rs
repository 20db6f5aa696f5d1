//! The placement-score collector.
//!
//! Owns the sharded query plan: each account re-issues its fixed shard of
//! packed queries every collection tick (repeats of a unique query are
//! free). Each plan slot's request is built once, with the collector.
//! Transient API failures are retried in-round per query; queries that
//! exhaust the retry budget are reported back so the service can
//! dead-letter them — one flaky query must not discard the rest of the
//! round.
//!
//! A round has two halves. The query half hands the account shards out
//! one at a time from a [`ShardQueue`] to whichever thread drains it —
//! the service's SPS lane, and the calling thread once its advisor and
//! price sweeps are done — and merges the answers in shard order, in
//! catalog ids, booking nothing. [`SpsCollector::book`] turns those
//! scores into points of the collector's series, on the thread that owns
//! them.

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
use std::iter::Enumerate;
use std::slice::IterMut;
use std::sync::{Mutex, PoisonError};

#[derive(Debug, Clone)]
struct Shard {
    account: AccountId,
    client: SpsClient,
    /// The shard's plan slots, each as the request it issues every round.
    requests: Vec<SpsRequest>,
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

/// One shard's part of a round: its answered queries' scores, the
/// retries, the failed slots, and the non-retryable error the shard
/// stopped at.
#[derive(Debug, Default)]
struct ShardScores {
    scores: Scores,
    retries: usize,
    failed: Vec<FailedQuery>,
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

/// One round's account shards, handed out one at a time to whichever
/// thread drains the queue; the answers merge in shard order.
#[derive(Debug)]
pub(crate) struct ShardQueue<'a> {
    /// The cloud time the scores are stamped with.
    time: u64,
    /// Shards not yet taken, with their indices.
    shards: Mutex<Enumerate<IterMut<'a, Shard>>>,
    /// Shards drained, in the order they finished.
    done: Mutex<Vec<(usize, ShardScores)>>,
}

impl<'a> ShardQueue<'a> {
    /// Issues the queries of one shard after another until none is left.
    /// Any number of threads may drain at once; no lock is held while a
    /// query runs.
    pub(crate) fn drain(&self, cloud: &SimCloud, policy: &RetryPolicy) {
        while let Some((index, shard)) = self.take() {
            self.put(index, shard.query(index, cloud, policy));
        }
    }

    fn take(&self) -> Option<(usize, &'a mut Shard)> {
        self.shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next()
    }

    fn put(&self, index: usize, scores: ShardScores) {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((index, scores));
    }

    /// The drained shards merged in shard order: scores, retries and
    /// failed slots as one thread issuing every shard in turn gives them.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] for the first non-retryable error in
    /// shard order, whichever thread met it.
    pub(crate) fn finish(self) -> Result<SpsScores, CollectError> {
        let mut done = self
            .done
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        done.sort_unstable_by_key(|&(index, _)| index);
        let mut round = SpsScores {
            time: self.time,
            ..SpsScores::default()
        };
        for (_, shard) in done {
            if let Some(e) = shard.error {
                return Err(e.into());
            }
            round.scores.extend(shard.scores);
            round.retries += shard.retries;
            round.failed.extend(shard.failed);
        }
        Ok(round)
    }
}

/// Collects per-AZ placement scores for the whole planned catalog.
#[derive(Debug, Clone)]
pub struct SpsCollector {
    shards: Vec<Shard>,
    series: PoolSeries,
}

impl SpsCollector {
    /// Builds the collector from a query plan, sharding it across the
    /// account pool, and builds each plan slot's request: the slot's type
    /// and regions, `target_capacity` instances, `SingleAvailabilityZone`
    /// set.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::InsufficientAccounts`] when the pool cannot
    /// cover the plan, and [`CollectError::Api`] with
    /// [`ApiError::InvalidParameter`] for a slot no request can carry (a
    /// zero `target_capacity`, a slot without regions).
    pub fn new(
        plan: Vec<PlannedQuery>,
        pool: &AccountPool,
        target_capacity: u32,
    ) -> Result<Self, CollectError> {
        let shards = pool
            .assign(&plan)?
            .into_iter()
            .map(|(account, queries)| {
                let requests = queries
                    .iter()
                    .map(|q| {
                        SpsRequest::new(
                            vec![q.instance_type.clone()],
                            q.regions.clone(),
                            target_capacity,
                        )
                        .map(|r| r.single_availability_zone(true))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Shard {
                    account,
                    client: SpsClient::new(),
                    requests,
                })
            })
            .collect::<Result<_, CollectError>>()?;
        Ok(SpsCollector {
            shards,
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
        self.shards.iter().map(|s| s.requests.len()).sum()
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

    /// Runs one collection round: every shard issues its queries, with
    /// `SingleAvailabilityZone` set, and the responses become `sps`
    /// records stamped with the cloud's current time. Transient failures
    /// are retried per query up to `policy.max_attempts`; queries still
    /// failing land in [`SpsOutcome::failed`] instead of sinking the
    /// round.
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

    /// The query half of a round, on the calling thread alone: every
    /// shard issues its queries, and the answers come back in catalog
    /// ids, stamped with the cloud's current time. Books nothing: the
    /// scores become points only in [`SpsCollector::book`].
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
        let queue = self.shard_queue(cloud);
        queue.drain(cloud, policy);
        queue.finish()
    }

    /// The query half of a round as a queue of its account shards, for
    /// one or more threads to drain ([`ShardQueue::drain`]) before
    /// [`ShardQueue::finish`] merges their answers as
    /// [`SpsCollector::query`] returns them.
    pub(crate) fn shard_queue(&mut self, cloud: &SimCloud) -> ShardQueue<'_> {
        ShardQueue {
            time: cloud.now().as_secs(),
            done: Mutex::new(Vec::with_capacity(self.shards.len())),
            shards: Mutex::new(self.shards.iter_mut().enumerate()),
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
        let Some(s) = self.shards.get_mut(shard) else {
            return stale_slot_outcome("shard", shard);
        };
        let Some(request) = s.requests.get(query) else {
            return stale_slot_outcome("query slot", query);
        };
        let res = run_query(&mut s.client, &s.account, request, cloud, policy);
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

impl Shard {
    /// Issues the shard's queries in slot order; the shard is `index` in
    /// its collector. Stops at the first non-retryable error.
    fn query(&mut self, index: usize, cloud: &SimCloud, policy: &RetryPolicy) -> ShardScores {
        let mut out = ShardScores::default();
        for (slot, request) in self.requests.iter().enumerate() {
            let res = run_query(&mut self.client, &self.account, request, cloud, policy);
            out.retries += res.retries;
            match res.error {
                None => out.scores.extend(res.scores),
                Some(e) if e.is_retryable() => out.failed.push(FailedQuery {
                    shard: index,
                    query: slot,
                    error: e,
                }),
                Some(e) => {
                    out.error = Some(e);
                    break;
                }
            }
        }
        out
    }
}

/// Issues one plan slot's request with in-round retries, converting the
/// answer to catalog ids.
fn run_query(
    client: &mut SpsClient,
    account: &AccountId,
    request: &SpsRequest,
    cloud: &SimCloud,
    policy: &RetryPolicy,
) -> QueryScores {
    let mut outcome = QueryScores::default();
    // A plan slot asks for its one instance type.
    let ty = &request.instance_types()[0];
    let mut attempt = 0;
    loop {
        attempt += 1;
        match client.get_spot_placement_scores(cloud, account, request) {
            Ok(scores) => {
                match in_catalog_ids(cloud.catalog(), ty, &scores) {
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
            let az = zone_id(catalog, s.availability_zone)?;
            if catalog.region(catalog.az(az).region()).code() != s.region {
                return Err(ApiError::UnknownEntity {
                    kind: "region of availability zone",
                    name: s.region.to_owned(),
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
        let score = |region: &'static str, az: Option<&'static str>| SpsScore {
            region,
            availability_zone: az,
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
            ("m9.huge", good),
        ] {
            let e = in_catalog_ids(cloud.catalog(), ty, &[good, bad]).unwrap_err();
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
        let mut pair = faulted();
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
            // Two threads draining one queue answer as one thread does.
            let shards = pair.shard_queue(&cloud);
            std::thread::scope(|scope| {
                let lane = scope.spawn(|| shards.drain(&cloud, &policy));
                shards.drain(&cloud, &policy);
                lane.join().unwrap();
            });
            let scores = shards.finish().unwrap();
            let drained = pair.book(cloud.catalog(), scores);
            assert_eq!(drained.points, want.points);
            assert_eq!(drained.retries, want.retries);
            assert_eq!(slots(&drained), slots(&want));
            retries += want.retries;
            failed += want.failed.len();
        }
        assert!(retries > 0 && failed > 0, "the weather showed");
    }

    #[test]
    fn the_first_error_in_shard_order_wins_whichever_thread_met_it() {
        let cloud = cloud();
        let good = QueryPlanner::default().plan(cloud.catalog(), None);
        let unknown = |ty: &str| PlannedQuery {
            instance_type: ty.to_owned(),
            regions: vec!["us-test-1".to_owned()],
            expected_results: 3,
        };
        // Three shards of 50 slots: the second ends on one unknown type,
        // the third starts on another.
        let mut plan: Vec<_> = good.iter().cycle().take(99).cloned().collect();
        plan.push(unknown("m8.huge"));
        plan.push(unknown("m9.huge"));
        let pool = AccountPool::with_size(3);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        assert_eq!(collector.shard_count(), 3);
        let policy = RetryPolicy::default();
        let want = collector.query(&cloud, &policy).unwrap_err().to_string();
        assert!(want.contains("m8.huge"), "{want}");
        // Take every shard, then finish them last to first, the third on
        // another thread: the error met first is the third shard's.
        let shards = collector.shard_queue(&cloud);
        let taken: Vec<_> = std::iter::from_fn(|| shards.take()).collect();
        assert_eq!(taken.len(), 3);
        let mut taken = taken.into_iter().rev();
        std::thread::scope(|scope| {
            let (index, shard) = taken.next().unwrap();
            let shards = &shards;
            let (cloud, policy) = (&cloud, &policy);
            scope
                .spawn(move || shards.put(index, shard.query(index, cloud, policy)))
                .join()
                .unwrap();
        });
        for (index, shard) in taken {
            shards.put(index, shard.query(index, &cloud, &policy));
        }
        assert_eq!(shards.finish().unwrap_err().to_string(), want);
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
