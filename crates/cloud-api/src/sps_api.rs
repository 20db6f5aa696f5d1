//! The `get-spot-placement-scores` API.

use crate::error::ApiError;
use crate::fault::{Fault, FaultInjector, FaultSurface};
use spotlake_cloud_sim::SimCloud;
use spotlake_types::{PlacementScore, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Maximum number of placement scores returned by one query; when more
/// would match, only the highest-scoring 10 are returned (Section 3.1).
pub const MAX_RESULTS: usize = 10;

/// Maximum number of *unique* queries an account may issue in 24 hours.
/// Re-issuing an already-counted query is free.
pub const UNIQUE_QUERY_LIMIT: usize = 50;

/// A cloud account, the unit of API rate limiting.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccountId(String);

impl AccountId {
    /// Creates an account id.
    pub fn new(name: impl Into<String>) -> Self {
        AccountId(name.into())
    }

    /// The account name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A placement-score request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpsRequest {
    instance_types: Vec<String>,
    regions: Vec<String>,
    target_capacity: u32,
    single_availability_zone: bool,
    /// [`SpsRequest::fingerprint`], spelled once per request.
    fingerprint: String,
}

impl SpsRequest {
    /// Creates a request for the given instance type names and region
    /// codes, asking for `target_capacity` instances.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidParameter`] for empty type/region lists or
    /// a zero capacity.
    pub fn new(
        instance_types: Vec<String>,
        regions: Vec<String>,
        target_capacity: u32,
    ) -> Result<Self, ApiError> {
        if instance_types.is_empty() {
            return Err(ApiError::InvalidParameter {
                parameter: "instance_types",
                reason: "at least one instance type is required".into(),
            });
        }
        if regions.is_empty() {
            return Err(ApiError::InvalidParameter {
                parameter: "regions",
                reason: "at least one region is required".into(),
            });
        }
        if target_capacity == 0 {
            return Err(ApiError::InvalidParameter {
                parameter: "target_capacity",
                reason: "must be at least 1".into(),
            });
        }
        let mut request = SpsRequest {
            instance_types,
            regions,
            target_capacity,
            single_availability_zone: false,
            fingerprint: String::new(),
        };
        request.fingerprint = request.spell_fingerprint();
        Ok(request)
    }

    /// Sets the `SingleAvailabilityZone` option: scores are returned per
    /// availability zone instead of per region.
    pub fn single_availability_zone(mut self, enabled: bool) -> Self {
        self.single_availability_zone = enabled;
        self.fingerprint = self.spell_fingerprint();
        self
    }

    /// The requested instance type names.
    pub fn instance_types(&self) -> &[String] {
        &self.instance_types
    }

    /// The requested region codes.
    pub fn regions(&self) -> &[String] {
        &self.regions
    }

    /// The requested capacity.
    pub fn target_capacity(&self) -> u32 {
        self.target_capacity
    }

    /// The uniqueness fingerprint: "the combination of regions, instance
    /// types, and the number of desired instances" (Section 3.1). Order
    /// does not matter.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn spell_fingerprint(&self) -> String {
        let mut types = self.instance_types.clone();
        types.sort();
        let mut regions = self.regions.clone();
        regions.sort();
        format!(
            "t={}/r={}/n={}/saz={}",
            types.join(","),
            regions.join(","),
            self.target_capacity,
            self.single_availability_zone
        )
    }
}

/// One returned placement score. Its names are the catalog's own,
/// borrowed from the cloud that answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpsScore<'c> {
    /// Region code.
    pub region: &'c str,
    /// Availability-zone name, when `SingleAvailabilityZone` was set.
    pub availability_zone: Option<&'c str>,
    /// The aggregated placement score.
    pub score: PlacementScore,
}

/// Sliding-window record of one account's unique queries.
#[derive(Debug, Clone, Default)]
struct AccountWindow {
    /// fingerprint → first time the query was counted inside the window.
    seen: BTreeMap<String, SimTime>,
    /// The time the window was last expired at.
    expired_at: Option<SimTime>,
}

impl AccountWindow {
    /// Drops the queries counted 24 hours or more before `now`. Once per
    /// distinct `now`: a query counted at `now` cannot expire at `now`, so
    /// a second pass at the same time would drop nothing.
    fn expire(&mut self, now: SimTime) {
        if self.expired_at == Some(now) {
            return;
        }
        self.expired_at = Some(now);
        self.seen.retain(|_, &mut t| {
            now.checked_since(t)
                .is_none_or(|d| d < SimDuration::from_hours(24))
        });
    }
}

/// Client for the placement-score API. Holds per-account rate-limit state;
/// the cloud itself is passed per call.
#[derive(Debug, Clone, Default)]
pub struct SpsClient {
    windows: BTreeMap<AccountId, AccountWindow>,
    faults: Option<FaultInjector>,
}

impl SpsClient {
    /// Creates a client with no rate-limit history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector: each query rolls a deterministic fault
    /// decision keyed by (account, query fingerprint, tick, attempt).
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Fault injections rolled by this client so far, as
    /// `(surface, kind, count)`; empty without an injector.
    pub fn fault_counts(&self) -> Vec<(FaultSurface, &'static str, u64)> {
        self.faults
            .as_ref()
            .map(FaultInjector::fault_counts)
            .unwrap_or_default()
    }

    /// Number of unique queries `account` has counted in the trailing 24
    /// hours as of `now`.
    pub fn unique_queries_used(&mut self, account: &AccountId, now: SimTime) -> usize {
        match self.windows.get_mut(account) {
            Some(w) => {
                w.expire(now);
                w.seen.len()
            }
            None => 0,
        }
    }

    /// Issues a placement-score query.
    ///
    /// Results are one score per region (or per availability zone when
    /// `SingleAvailabilityZone` is set), sorted by descending score and
    /// truncated to [`MAX_RESULTS`]. Regions/zones that support none of the
    /// requested types are omitted (the website shows them as N/A). The
    /// answers borrow their region and zone names from `cloud`'s catalog.
    ///
    /// # Errors
    ///
    /// * [`ApiError::UnknownEntity`] for unknown type or region names.
    /// * [`ApiError::QueryLimitExceeded`] when the query is new to the
    ///   account's 24-hour window and the window already holds
    ///   [`UNIQUE_QUERY_LIMIT`] unique queries.
    pub fn get_spot_placement_scores<'c>(
        &mut self,
        cloud: &'c SimCloud,
        account: &AccountId,
        request: &SpsRequest,
    ) -> Result<Vec<SpsScore<'c>>, ApiError> {
        let catalog = cloud.catalog();
        let mut type_ids = Vec::with_capacity(request.instance_types.len());
        for name in &request.instance_types {
            type_ids.push(catalog.instance_type_id(name).ok_or_else(|| {
                ApiError::UnknownEntity {
                    kind: "instance type",
                    name: name.clone(),
                }
            })?);
        }
        let mut region_ids = Vec::with_capacity(request.regions.len());
        for code in &request.regions {
            region_ids.push(
                catalog
                    .region_id(code)
                    .ok_or_else(|| ApiError::UnknownEntity {
                        kind: "region",
                        name: code.clone(),
                    })?,
            );
        }

        // Injected transport faults fire after validation — a malformed
        // request is the caller's bug regardless of network weather — and
        // before the unique-query window counts the attempt: a throttled or
        // timed-out call never reached the service.
        if let Some(faults) = &mut self.faults {
            let scope = format!("{}/{}", account.name(), request.fingerprint);
            if let Some(Fault::Error(e)) = faults.decide(FaultSurface::Sps, &scope, cloud.ticks()) {
                return Err(e);
            }
        }

        // Rate limiting on *unique* queries.
        let now = cloud.now();
        let window = match self.windows.get_mut(account) {
            Some(window) => window,
            None => self.windows.entry(account.clone()).or_default(),
        };
        window.expire(now);
        if !window.seen.contains_key(&request.fingerprint) {
            if window.seen.len() >= UNIQUE_QUERY_LIMIT {
                return Err(ApiError::QueryLimitExceeded {
                    account: account.name().to_owned(),
                    limit: UNIQUE_QUERY_LIMIT,
                });
            }
            window.seen.insert(request.fingerprint.clone(), now);
        }

        let count = request.target_capacity;
        let candidates = if request.single_availability_zone {
            region_ids
                .iter()
                .map(|&region| catalog.azs_of_region(region).len())
                .sum()
        } else {
            region_ids.len()
        };
        let mut results = Vec::with_capacity(candidates);
        for &region in &region_ids {
            let code = catalog.region(region).code();
            if request.single_availability_zone {
                for &az in catalog.azs_of_region(region) {
                    if let Some(score) = cloud.composite_score(&type_ids, az, count) {
                        results.push(SpsScore {
                            region: code,
                            availability_zone: Some(catalog.az(az).name()),
                            score,
                        });
                    }
                }
            } else if let Some(score) = cloud.composite_score_region(&type_ids, region, count) {
                results.push(SpsScore {
                    region: code,
                    availability_zone: None,
                    score,
                });
            }
        }

        // Highest scores first; stable tie-break on (region, az) for
        // determinism. Only the top MAX_RESULTS are returned.
        results.sort_by(|a, b| {
            b.score
                .cmp(&a.score)
                .then_with(|| a.region.cmp(b.region))
                .then_with(|| a.availability_zone.cmp(&b.availability_zone))
        });
        results.truncate(MAX_RESULTS);
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::{Catalog, CatalogBuilder};

    fn small_cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 4)
            .region("eu-test-1", 4)
            .region("ap-test-1", 4)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn request_validation() {
        assert!(SpsRequest::new(vec![], vec!["us-test-1".into()], 1).is_err());
        assert!(SpsRequest::new(vec!["m5.large".into()], vec![], 1).is_err());
        assert!(SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], 0).is_err());
    }

    #[test]
    fn fingerprint_is_order_insensitive() {
        let a = SpsRequest::new(
            vec!["m5.large".into(), "p3.2xlarge".into()],
            vec!["us-test-1".into(), "eu-test-1".into()],
            3,
        )
        .unwrap();
        let b = SpsRequest::new(
            vec!["p3.2xlarge".into(), "m5.large".into()],
            vec!["eu-test-1".into(), "us-test-1".into()],
            3,
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], 4).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn region_query_returns_one_score_per_region() {
        let cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        let req = SpsRequest::new(
            vec!["m5.large".into()],
            vec!["us-test-1".into(), "eu-test-1".into()],
            1,
        )
        .unwrap();
        let scores = client
            .get_spot_placement_scores(&cloud, &account, &req)
            .unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.availability_zone.is_none()));
        assert!(scores.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn single_az_truncates_to_max_results() {
        let cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        // 3 regions × 4 AZs = 12 candidate scores > MAX_RESULTS.
        let req = SpsRequest::new(
            vec!["m5.large".into()],
            vec!["us-test-1".into(), "eu-test-1".into(), "ap-test-1".into()],
            1,
        )
        .unwrap()
        .single_availability_zone(true);
        let scores = client
            .get_spot_placement_scores(&cloud, &account, &req)
            .unwrap();
        assert_eq!(scores.len(), MAX_RESULTS);
        assert!(scores.iter().all(|s| s.availability_zone.is_some()));
        assert!(scores.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        let req = SpsRequest::new(vec!["warp9.huge".into()], vec!["us-test-1".into()], 1).unwrap();
        assert!(matches!(
            client.get_spot_placement_scores(&cloud, &account, &req),
            Err(ApiError::UnknownEntity { .. })
        ));
        let req = SpsRequest::new(vec!["m5.large".into()], vec!["nowhere-1".into()], 1).unwrap();
        assert!(client
            .get_spot_placement_scores(&cloud, &account, &req)
            .is_err());
    }

    #[test]
    fn unique_query_limit_enforced_and_repeats_free() {
        let cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        // Exhaust the limit with distinct capacities.
        for n in 1..=UNIQUE_QUERY_LIMIT as u32 {
            let req =
                SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], n).unwrap();
            client
                .get_spot_placement_scores(&cloud, &account, &req)
                .unwrap();
        }
        assert_eq!(
            client.unique_queries_used(&account, cloud.now()),
            UNIQUE_QUERY_LIMIT
        );
        // Repeating a counted query is free...
        let repeat = SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], 1).unwrap();
        client
            .get_spot_placement_scores(&cloud, &account, &repeat)
            .unwrap();
        // ...but a new unique query is rejected.
        let fresh = SpsRequest::new(
            vec!["m5.large".into()],
            vec!["us-test-1".into()],
            UNIQUE_QUERY_LIMIT as u32 + 1,
        )
        .unwrap();
        assert!(matches!(
            client.get_spot_placement_scores(&cloud, &account, &fresh),
            Err(ApiError::QueryLimitExceeded { .. })
        ));
        // A different account is unaffected.
        let other = AccountId::new("b");
        client
            .get_spot_placement_scores(&cloud, &other, &fresh)
            .unwrap();
    }

    #[test]
    fn window_expires_after_24h() {
        let mut cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        for n in 1..=UNIQUE_QUERY_LIMIT as u32 {
            let req =
                SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], n).unwrap();
            client
                .get_spot_placement_scores(&cloud, &account, &req)
                .unwrap();
        }
        cloud.run_days(1);
        cloud.step();
        assert_eq!(client.unique_queries_used(&account, cloud.now()), 0);
        let fresh = SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], 99).unwrap();
        client
            .get_spot_placement_scores(&cloud, &account, &fresh)
            .unwrap();
    }

    #[test]
    fn a_full_window_empties_at_24h_and_refills_at_one_time() {
        let mut cloud = small_cloud();
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        let query = |n| SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], n);
        let fill = |client: &mut SpsClient, cloud: &SimCloud, from: u32| {
            for n in from..from + UNIQUE_QUERY_LIMIT as u32 {
                client
                    .get_spot_placement_scores(cloud, &account, &query(n).unwrap())
                    .unwrap();
            }
        };
        fill(&mut client, &cloud, 1);
        let counted = cloud.now();
        while cloud.now().checked_since(counted) < Some(SimDuration::from_hours(24)) {
            cloud.step();
        }
        // Every query of the window expires at once, and the window fills
        // again, query by query, at that one time.
        fill(&mut client, &cloud, 1_000);
        assert_eq!(
            client.unique_queries_used(&account, cloud.now()),
            UNIQUE_QUERY_LIMIT
        );
        assert!(matches!(
            client.get_spot_placement_scores(&cloud, &account, &query(1).unwrap()),
            Err(ApiError::QueryLimitExceeded { .. })
        ));
    }

    #[test]
    fn injected_faults_are_retryable_and_skip_the_window() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cloud = small_cloud();
        let mut client =
            SpsClient::new().with_faults(FaultInjector::new(FaultPlan::uniform(1, 1.0)));
        let account = AccountId::new("a");
        let req = SpsRequest::new(vec!["m5.large".into()], vec!["us-test-1".into()], 1).unwrap();
        let err = client
            .get_spot_placement_scores(&cloud, &account, &req)
            .unwrap_err();
        assert!(err.is_retryable());
        // A faulted call never reached the service: the unique-query
        // window must not count it.
        assert_eq!(client.unique_queries_used(&account, cloud.now()), 0);
    }

    #[test]
    fn composite_query_on_full_catalog_can_exceed_three() {
        let cloud = SimCloud::new(Catalog::aws_2022(), SimConfig::default());
        let mut client = SpsClient::new();
        let account = AccountId::new("a");
        let req = SpsRequest::new(
            vec!["m5.large".into(), "c5.large".into(), "r5.large".into()],
            vec!["us-east-1".into()],
            1,
        )
        .unwrap();
        let scores = client
            .get_spot_placement_scores(&cloud, &account, &req)
            .unwrap();
        assert_eq!(scores.len(), 1);
        assert!(
            scores[0].score.value() > 3,
            "three healthy types should composite above the single-type cap"
        );
    }
}
