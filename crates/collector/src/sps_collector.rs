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
use spotlake_cloud_api::{
    AccountId, ApiError, FaultInjector, FaultPlan, FaultSurface, SpsClient, SpsRequest,
};
use spotlake_cloud_sim::SimCloud;
use spotlake_timestream::Record;
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

/// Result of re-issuing one dead-lettered query.
#[derive(Debug, Clone, Default)]
pub struct SpsQueryOutcome {
    /// Records collected, empty on failure.
    pub records: Vec<Record>,
    /// Retry attempts spent beyond the first call.
    pub retries: usize,
    /// The error the final attempt died with, `None` on success.
    pub error: Option<ApiError>,
}

/// Collects per-AZ placement scores for the whole planned catalog.
#[derive(Debug, Clone)]
pub struct SpsCollector {
    shards: Vec<Shard>,
    target_capacity: u32,
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
        })
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
        let now = cloud.now().as_secs();
        let capacity = self.target_capacity;
        let shard_results = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(shard_idx, shard)| {
                    scope.spawn(move || -> Result<SpsOutcome, CollectError> {
                        let mut outcome = SpsOutcome::default();
                        for (query_idx, q) in shard.queries.iter().enumerate() {
                            let res = run_query(
                                &mut shard.client,
                                &shard.account,
                                q,
                                capacity,
                                cloud,
                                now,
                                policy,
                            );
                            outcome.retries += res.retries;
                            match res.error {
                                None => outcome.records.extend(res.records),
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
                        Ok(outcome)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("collector shard thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;

        let mut total = SpsOutcome::default();
        for o in shard_results {
            total.records.extend(o.records);
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
        let now = cloud.now().as_secs();
        let capacity = self.target_capacity;
        let Some(s) = self.shards.get_mut(shard) else {
            return stale_slot_outcome("shard", shard);
        };
        let account = s.account.clone();
        let Some(q) = s.queries.get(query).cloned() else {
            return stale_slot_outcome("query slot", query);
        };
        run_query(&mut s.client, &account, &q, capacity, cloud, now, policy)
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

/// Issues one planned query with in-round retries, converting the scores
/// to `sps` records.
fn run_query(
    client: &mut SpsClient,
    account: &AccountId,
    q: &PlannedQuery,
    capacity: u32,
    cloud: &SimCloud,
    now: u64,
    policy: &RetryPolicy,
) -> SpsQueryOutcome {
    let mut outcome = SpsQueryOutcome::default();
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
                for s in scores {
                    let az = s
                        .availability_zone
                        .expect("single-AZ queries return zone names");
                    outcome.records.push(
                        Record::new(now, "sps", f64::from(s.score.value()))
                            .dimension("instance_type", &q.instance_type)
                            .dimension("region", &s.region)
                            .dimension("az", az),
                    );
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
    fn retry_query_reissues_a_single_slot() {
        let mut cloud = cloud();
        cloud.step();
        let plan = QueryPlanner::default().plan(cloud.catalog(), None);
        let pool = AccountPool::with_size(1);
        let mut collector = SpsCollector::new(plan, &pool, 1).unwrap();
        let policy = RetryPolicy::default();
        let good = collector.retry_query(&cloud, 0, 0, &policy);
        assert!(good.error.is_none());
        assert!(!good.records.is_empty());
        // Stale dead-letter entries report an error instead of panicking.
        let stale = collector.retry_query(&cloud, 99, 0, &policy);
        assert!(stale.error.is_some());
        let stale = collector.retry_query(&cloud, 0, 9_999, &policy);
        assert!(stale.error.is_some());
    }
}
