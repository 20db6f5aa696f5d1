//! The spot instance advisor collector.
//!
//! The advisor has no API, so this collector fetches the advisor *web
//! page* and scrapes its embedded JSON — the paper used the `spotinfo`
//! tool for exactly this (Section 4). Each scraped row yields two records:
//! the interruption-free score (the paper's numeric conversion of the
//! bucket) and the savings percentage. Scraping a website is the flakiest
//! leg of the pipeline — pages arrive truncated or garbled — so fetches
//! are retried in-round before the round is declared degraded.

use crate::error::CollectError;
use crate::retry::RetryPolicy;
use crate::series::{region_id, type_id, PoolSeries, SweepPoints};
use spotlake_cloud_api::{AdvisorClient, ApiError, FaultInjector, FaultPlan, FaultSurface};
use spotlake_cloud_sim::SimCloud;
use spotlake_timestream::{Point, Record};

/// Result of one advisor collection pass.
#[derive(Debug, Clone, Default)]
pub struct AdvisorOutcome {
    /// Records scraped from the page.
    pub records: Vec<Record>,
    /// Retry attempts spent beyond the first fetch.
    pub retries: usize,
}

/// Collects the advisor dataset by scraping the advisor page.
#[derive(Debug, Clone)]
pub struct AdvisorCollector {
    client: AdvisorClient,
    type_filter: Option<Vec<String>>,
    series: PoolSeries,
}

impl Default for AdvisorCollector {
    fn default() -> Self {
        AdvisorCollector {
            client: AdvisorClient::default(),
            type_filter: None,
            series: PoolSeries::new(&["if_score", "savings"]),
        }
    }
}

impl AdvisorCollector {
    /// Creates a collector over all instance types on the page.
    pub fn new() -> Self {
        AdvisorCollector::default()
    }

    /// Restricts collection to the named instance types (the page always
    /// carries everything; the filter drops rows after scraping).
    pub fn with_type_filter(mut self, types: Vec<String>) -> Self {
        self.type_filter = Some(types);
        self
    }

    /// The series the collector's points name: `if_score` and `savings`
    /// per (type, region) pool it has seen.
    pub fn series(&self) -> &PoolSeries {
        &self.series
    }

    pub(crate) fn series_mut(&mut self) -> &mut PoolSeries {
        &mut self.series
    }

    /// Installs fault injection on the page client.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.client = AdvisorClient::new().with_faults(FaultInjector::new(plan));
    }

    /// Fault injections rolled by the page client, as
    /// `(surface, kind, count)`; empty without fault injection.
    pub fn fault_counts(&self) -> Vec<(FaultSurface, &'static str, u64)> {
        self.client.fault_counts()
    }

    /// Fetches and scrapes the advisor page with in-round retries,
    /// returning `if_score` and `savings` records per (instance type,
    /// region), stamped with the cloud's current time — the points of
    /// [`AdvisorCollector::collect_points`] spelled out.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] when every attempt fails — a
    /// truncated or corrupted page counts as retryable, so the caller may
    /// degrade the round rather than abort it.
    pub fn collect_with(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<AdvisorOutcome, CollectError> {
        let (records, retries) = self
            .collect_points(cloud, policy)?
            .into_records(&self.series)?;
        Ok(AdvisorOutcome { records, retries })
    }

    /// [`AdvisorCollector::collect_with`] by series id: each row becomes a
    /// score and a savings point of its (type, region) pool, booked the
    /// first time a pass sees it — score, then savings, per row. A page
    /// that stays unreadable after its retries is a failed sweep: no
    /// points, the retryable error and the retries it spent.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] for a non-retryable failure: a row
    /// naming a type or region the catalog lacks is
    /// [`ApiError::UnknownEntity`], and no pool of that page is booked.
    pub fn collect_points(
        &mut self,
        cloud: &SimCloud,
        policy: &RetryPolicy,
    ) -> Result<SweepPoints, CollectError> {
        let mut outcome = SweepPoints::default();
        let mut attempt = 0;
        let rows = loop {
            attempt += 1;
            match self.client.fetch(cloud) {
                Ok(rows) => break rows,
                Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                    outcome.retries += 1;
                }
                Err(e) if e.is_retryable() => {
                    outcome.error = Some(e);
                    return Ok(outcome);
                }
                Err(e) => return Err(e.into()),
            }
        };
        let catalog = cloud.catalog();
        let pools = rows
            .iter()
            .filter(|row| {
                self.type_filter
                    .as_ref()
                    .is_none_or(|filter| filter.contains(&row.instance_type))
            })
            .map(|row| {
                let ty = type_id(catalog, &row.instance_type)?;
                let region = region_id(catalog, &row.region)?;
                let score = row.bucket.interruption_free_score().as_f64();
                Ok((ty, region, score, f64::from(row.savings.percent())))
            })
            .collect::<Result<Vec<_>, ApiError>>()?;
        let now = cloud.now().as_secs();
        outcome.points.reserve(pools.len() * 2);
        for (ty, region, score, savings) in pools {
            let id = self.series.region_pool(catalog, ty, region);
            outcome.points.push(Point {
                series: id,
                time: now,
                value: score,
            });
            outcome.points.push(Point {
                series: id + 1,
                time: now,
                value: savings,
            });
        }
        Ok(outcome)
    }

    /// Collects with the default retry policy, returning records only.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::Api`] when the page cannot be scraped.
    pub fn collect(&mut self, cloud: &SimCloud) -> Result<Vec<Record>, CollectError> {
        Ok(self.collect_with(cloud, &RetryPolicy::default())?.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::CatalogBuilder;

    fn cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .region("eu-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn collects_two_records_per_pair() {
        let cloud = cloud();
        let records = AdvisorCollector::new().collect(&cloud).unwrap();
        // 2 types × 2 regions × 2 measures.
        assert_eq!(records.len(), 8);
        let if_scores: Vec<_> = records.iter().filter(|r| r.measure == "if_score").collect();
        assert_eq!(if_scores.len(), 4);
        for r in if_scores {
            assert!([1.0, 1.5, 2.0, 2.5, 3.0].contains(&r.value));
        }
        let savings: Vec<_> = records.iter().filter(|r| r.measure == "savings").collect();
        for r in savings {
            assert!((0.0..100.0).contains(&r.value));
        }
    }

    #[test]
    fn retries_absorb_flaky_fetches_or_degrade_cleanly() {
        let mut cloud = cloud();
        let mut c = AdvisorCollector::new();
        c.set_fault_plan(FaultPlan::uniform(41, 0.4));
        let policy = RetryPolicy::default();
        let mut retries = 0;
        let mut successes = 0;
        let mut failures = 0;
        for _ in 0..30 {
            cloud.step();
            match c.collect_with(&cloud, &policy) {
                Ok(o) => {
                    successes += 1;
                    retries += o.retries;
                    assert_eq!(o.records.len(), 8);
                }
                Err(CollectError::Api(e)) => {
                    assert!(e.is_retryable(), "only exhausted transients may surface");
                    failures += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(successes > failures, "retries should win most rounds");
        assert!(retries > 0);
    }
}
