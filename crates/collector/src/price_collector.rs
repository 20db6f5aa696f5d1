//! The spot price collector.
//!
//! The price API already serves history, so this collector is incremental:
//! it remembers the end of its last window and asks only for newer change
//! events, batching instance types per request and following pagination
//! tokens. The watermark advances only after a fully successful sweep —
//! when a page fetch keeps failing, the round's price data is dropped
//! whole and the next round re-covers the same window, so faults cause
//! delay, never loss or partial double-collection.

use crate::error::CollectError;
use crate::retry::RetryPolicy;
use crate::series::{type_id, zone_id, PoolSeries, SweepPoints};
use spotlake_cloud_api::{
    ApiError, FaultInjector, FaultPlan, FaultSurface, PriceClient, PricePage, PriceRequest,
};
use spotlake_cloud_sim::SimCloud;
use spotlake_timestream::{Point, Record};
use spotlake_types::{SimDuration, SimTime};

/// Result of one price collection sweep.
#[derive(Debug, Clone, Default)]
pub struct PriceOutcome {
    /// Records collected since the previous successful sweep.
    pub records: Vec<Record>,
    /// Retry attempts spent beyond each page fetch's first call.
    pub retries: usize,
}

/// Collects spot price-change events incrementally.
#[derive(Debug, Clone)]
pub struct PriceCollector {
    client: PriceClient,
    last_collected: Option<SimTime>,
    batch: usize,
    type_filter: Option<Vec<String>>,
    /// The sweep's requests, `batch` type names each, named on the first
    /// sweep; each later sweep only moves their window.
    requests: Option<Vec<PriceRequest>>,
    series: PoolSeries,
}

impl Default for PriceCollector {
    fn default() -> Self {
        PriceCollector {
            client: PriceClient::new(),
            last_collected: None,
            batch: 50,
            type_filter: None,
            requests: None,
            series: PoolSeries::new(&["spot_price"]),
        }
    }
}

impl PriceCollector {
    /// Creates a collector over all instance types.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts collection to the named instance types.
    pub fn with_type_filter(mut self, types: Vec<String>) -> Self {
        self.type_filter = Some(types);
        self.requests = None;
        self
    }

    /// The series the collector's points name: one per (type, zone) pool
    /// it has seen a price of.
    pub fn series(&self) -> &PoolSeries {
        &self.series
    }

    pub(crate) fn series_mut(&mut self) -> &mut PoolSeries {
        &mut self.series
    }

    /// Installs fault injection on the price client.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.client = PriceClient::new().with_faults(FaultInjector::new(plan));
    }

    /// Fault injections rolled by the price client, as
    /// `(surface, kind, count)`; empty without fault injection.
    pub fn fault_counts(&self) -> Vec<(FaultSurface, &'static str, u64)> {
        self.client.fault_counts()
    }

    /// Collects price-change events since the previous successful call (or
    /// all retained history on the first call), retrying each page fetch
    /// up to `policy.max_attempts`. Records carry the change timestamp,
    /// not the collection time.
    ///
    /// On failure the watermark does not advance and nothing is returned:
    /// the next sweep re-reads the same window from scratch. The records
    /// are [`PriceCollector::collect_points`] spelled out.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] when a page fetch exhausts its
    /// retries (retryable error — the caller may degrade the round) or
    /// fails outright (non-retryable — a caller bug).
    pub fn collect_with(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<PriceOutcome, CollectError> {
        let (records, retries) = self
            .collect_points(cloud, policy)?
            .into_records(&self.series)?;
        Ok(PriceOutcome { records, retries })
    }

    /// [`PriceCollector::collect_with`] by series id: each change event
    /// becomes a point of its (type, zone) pool's series, booked the first
    /// time a sweep sees the pool; the region is the catalog's region of
    /// the zone. The type names the requests carry — the filter's, or
    /// every type of the first sweep's catalog — are named once. A page
    /// fetch that exhausts its retries fails the sweep: no points, the
    /// watermark kept, and the retryable error with every retry the
    /// sweep spent, earlier pages' included.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] for a non-retryable failure: an
    /// event naming a type or zone the catalog lacks is
    /// [`ApiError::UnknownEntity`], and no pool of that sweep is booked.
    pub fn collect_points(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SweepPoints, CollectError> {
        let catalog = cloud.catalog();
        let from = match self.last_collected {
            // Windows are inclusive; skip the instant we already covered.
            Some(t) => t + SimDuration::from_secs(1),
            None => SimTime::EPOCH,
        };
        let to = cloud.now();
        let mut outcome = SweepPoints::default();
        if from > to {
            return Ok(outcome);
        }
        let mut events = Vec::new();

        if self.requests.is_none() {
            let names: Vec<String> = match &self.type_filter {
                Some(f) => f.clone(),
                None => catalog.instance_types().iter().map(|t| t.name()).collect(),
            };
            let requests = names
                .chunks(self.batch)
                .map(|chunk| PriceRequest::new(chunk.to_vec(), from, to))
                .collect::<Result<_, _>>()?;
            self.requests = Some(requests);
        }

        for request in self.requests.iter_mut().flatten() {
            request.set_window(from, to)?;
            let request = &*request;
            let mut token: Option<String> = None;
            loop {
                let page = match fetch_page_with_retry(
                    &mut self.client,
                    cloud,
                    request,
                    token.as_deref(),
                    policy,
                    &mut outcome.retries,
                ) {
                    Ok(page) => page,
                    Err(e) if e.is_retryable() => {
                        outcome.error = Some(e);
                        return Ok(outcome);
                    }
                    Err(e) => return Err(e.into()),
                };
                for p in page.records {
                    // The API pads the window start with the price already
                    // in effect; skip events we have already stored.
                    if p.timestamp < from {
                        continue;
                    }
                    let ty = type_id(catalog, p.instance_type)?;
                    let az = zone_id(catalog, Some(p.availability_zone))?;
                    events.push((ty, az, p.timestamp.as_secs(), p.price.as_usd()));
                }
                match page.next_token {
                    Some(t) => token = Some(t),
                    None => break,
                }
            }
        }
        outcome.points = events
            .into_iter()
            .map(|(ty, az, time, value)| Point {
                series: self.series.zone_pool(catalog, ty, az),
                time,
                value,
            })
            .collect();
        self.last_collected = Some(to);
        Ok(outcome)
    }

    /// Collects with the default retry policy, returning records only.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] on API failures.
    pub fn collect(&mut self, cloud: &SimCloud) -> Result<Vec<Record>, CollectError> {
        Ok(self.collect_with(cloud, &RetryPolicy::default())?.records)
    }
}

fn fetch_page_with_retry<'a>(
    client: &mut PriceClient,
    cloud: &'a SimCloud,
    request: &'a PriceRequest,
    token: Option<&str>,
    policy: &RetryPolicy,
    retries: &mut usize,
) -> Result<PricePage<'a>, ApiError> {
    let mut attempt = 0;
    loop {
        attempt += 1;
        match client.describe_spot_price_history(cloud, request, token) {
            Ok(page) => return Ok(page),
            Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::CatalogBuilder;

    fn cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2).instance_type("m5.large", 0.096);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn first_collect_gets_initial_prices() {
        let cloud = cloud();
        let mut c = PriceCollector::new();
        let records = c.collect(&cloud).unwrap();
        // Initial price per AZ pool.
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.measure == "spot_price"));
        assert_eq!(
            records[0].dimension_value("region"),
            Some("us-test-1"),
            "the catalog's region of the AZ"
        );
    }

    #[test]
    fn incremental_collection_returns_only_new_events() {
        let mut cloud = cloud();
        let mut c = PriceCollector::new();
        let first = c.collect(&cloud).unwrap();
        assert!(!first.is_empty());
        // No time has passed: nothing new.
        let nothing = c.collect(&cloud).unwrap();
        assert!(nothing.is_empty());
        // After a month, new change events (and only new ones) arrive.
        cloud.run_days(30);
        let second = c.collect(&cloud).unwrap();
        assert!(!second.is_empty());
        let first_max = first.iter().map(|r| r.time).max().unwrap();
        assert!(second.iter().all(|r| r.time > first_max));
    }

    #[test]
    fn type_filter_limits_scope() {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 1)
            .instance_type("m5.large", 0.096)
            .instance_type("c5.large", 0.085);
        let cloud = SimCloud::new(b.build().unwrap(), SimConfig::default());
        let mut c = PriceCollector::new().with_type_filter(vec!["c5.large".into()]);
        let records = c.collect(&cloud).unwrap();
        assert!(records
            .iter()
            .all(|r| r.dimension_value("instance_type") == Some("c5.large")));
        assert!(!records.is_empty());
    }

    #[test]
    fn failed_sweep_keeps_the_watermark_so_nothing_is_lost() {
        let mut cloud = cloud();
        let mut faulty = PriceCollector::new();
        // Rate 1.0: every attempt fails, the sweep errors out.
        faulty.set_fault_plan(FaultPlan::uniform(23, 1.0));
        let policy = RetryPolicy::default();
        cloud.run_days(2);
        let err = faulty.collect_with(&cloud, &policy).unwrap_err();
        assert!(matches!(err, CollectError::Api(e) if e.is_retryable()));
        // Heal the network; the full window arrives on the next sweep.
        faulty.set_fault_plan(FaultPlan::none(23));
        let healed = faulty.collect_with(&cloud, &policy).unwrap();
        let mut clean = PriceCollector::new();
        let expected = clean.collect(&cloud).unwrap();
        assert_eq!(healed.records, expected);
    }

    #[test]
    fn a_failed_sweep_reports_every_retry_it_spent() {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("c5.large", 0.085)
            .instance_type("p3.2xlarge", 3.06);
        let mut cloud = SimCloud::new(b.build().unwrap(), SimConfig::default());
        let mut c = PriceCollector::new();
        c.batch = 1; // one request per type: a sweep fetches three pages
        c.set_fault_plan(FaultPlan::uniform(5, 0.5));
        let policy = RetryPolicy::default();
        let injected = |c: &PriceCollector| -> u64 { c.fault_counts().iter().map(|f| f.2).sum() };
        let mut failed_after_earlier_retries = 0;
        for _ in 0..40 {
            cloud.run_days(1);
            let before = injected(&c);
            let sweep = c.collect_points(&cloud, &policy).unwrap();
            // Every injected fault is one failed attempt: a retry, or the
            // last attempt of the fetch that failed the sweep.
            let failed = usize::from(sweep.error.is_some());
            assert_eq!(injected(&c) - before, (sweep.retries + failed) as u64);
            if let Some(e) = &sweep.error {
                assert!(e.is_retryable());
                assert!(sweep.points.is_empty());
                if sweep.retries >= policy.max_attempts as usize {
                    failed_after_earlier_retries += 1;
                }
            }
        }
        assert!(
            failed_after_earlier_retries > 0,
            "some sweep failed after retrying an earlier page"
        );
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let mut cloud = cloud();
        let mut c = PriceCollector::new();
        // Low enough that three attempts nearly always find a gap.
        c.set_fault_plan(FaultPlan::uniform(31, 0.3));
        let policy = RetryPolicy::default();
        let mut retries = 0;
        let mut records = 0;
        for _ in 0..20 {
            cloud.run_days(1);
            if let Ok(o) = c.collect_with(&cloud, &policy) {
                retries += o.retries;
                records += o.records.len();
            }
        }
        assert!(retries > 0, "a 30% fault rate must trigger retries");
        assert!(records > 0);
    }
}
