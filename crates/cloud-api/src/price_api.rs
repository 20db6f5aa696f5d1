//! The `describe-spot-price-history` API.

use crate::error::ApiError;
use crate::fault::{Fault, FaultInjector, FaultSurface};
use spotlake_cloud_sim::SimCloud;
use spotlake_types::{SimDuration, SimTime, SpotPrice};

/// Maximum records per page.
const PAGE_SIZE: usize = 1000;
/// The API's lookback window: 90 days, as on AWS ("up to three months of
/// spot price history", Section 3.1).
const LOOKBACK: SimDuration = SimDuration::from_days(90);

/// A price-history request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriceRequest {
    instance_types: Vec<String>,
    availability_zone: Option<String>,
    start: SimTime,
    end: SimTime,
}

impl PriceRequest {
    /// Creates a request for the price-change history of the named types in
    /// `[start, end]`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidParameter`] for an empty type list or an
    /// inverted time range.
    pub fn new(
        instance_types: Vec<String>,
        start: SimTime,
        end: SimTime,
    ) -> Result<Self, ApiError> {
        if instance_types.is_empty() {
            return Err(ApiError::InvalidParameter {
                parameter: "instance_types",
                reason: "at least one instance type is required".into(),
            });
        }
        let mut request = PriceRequest {
            instance_types,
            availability_zone: None,
            start,
            end,
        };
        request.set_window(start, end)?;
        Ok(request)
    }

    /// Moves the request to the window `[start, end]`, keeping its types
    /// and zone: a collector re-issues the same request over each new
    /// window.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidParameter`] for an inverted time range,
    /// and leaves the window as it was.
    pub fn set_window(&mut self, start: SimTime, end: SimTime) -> Result<(), ApiError> {
        if start > end {
            return Err(ApiError::InvalidParameter {
                parameter: "start",
                reason: "start time is after end time".into(),
            });
        }
        self.start = start;
        self.end = end;
        Ok(())
    }

    /// Restricts the request to a single availability zone.
    pub fn availability_zone(mut self, az: impl Into<String>) -> Self {
        self.availability_zone = Some(az.into());
        self
    }
}

/// One price-change record. Its names are borrowed: the instance type
/// from the request, the zone from the cloud's catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PricePoint<'a> {
    /// When the price changed.
    pub timestamp: SimTime,
    /// Instance type name.
    pub instance_type: &'a str,
    /// Availability-zone name.
    pub availability_zone: &'a str,
    /// The new spot price.
    pub price: SpotPrice,
}

/// One page of price history plus an optional continuation token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PricePage<'a> {
    /// The records of this page, oldest first.
    pub records: Vec<PricePoint<'a>>,
    /// Pass back to [`PriceClient::describe_spot_price_history`] to fetch
    /// the next page; `None` when exhausted.
    pub next_token: Option<String>,
}

/// Client for the price-history API. Pagination is stateless (encoded in
/// the token); the client only carries the optional fault injector.
#[derive(Debug, Clone, Default)]
pub struct PriceClient {
    faults: Option<FaultInjector>,
}

impl PriceClient {
    /// Creates a client.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector: each page fetch rolls a deterministic
    /// fault decision keyed by (types, window, page token, tick, attempt).
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

    /// Fetches one page of spot price-change history. The effective start
    /// time is clamped to the API's 90-day lookback relative to the cloud's
    /// current time. The records borrow their type names from `request`
    /// and their zone names from `cloud`'s catalog.
    ///
    /// # Errors
    ///
    /// * [`ApiError::UnknownEntity`] for unknown type/zone names.
    /// * [`ApiError::BadPageToken`] for malformed tokens.
    /// * [`ApiError::Throttled`], [`ApiError::Timeout`], or
    ///   [`ApiError::ServiceUnavailable`] when a fault injector is
    ///   installed and fires (all retryable).
    pub fn describe_spot_price_history<'a>(
        &mut self,
        cloud: &'a SimCloud,
        request: &'a PriceRequest,
        page_token: Option<&str>,
    ) -> Result<PricePage<'a>, ApiError> {
        let catalog = cloud.catalog();
        let offset: usize = match page_token {
            None => 0,
            Some(t) => t.parse().map_err(|_| ApiError::BadPageToken)?,
        };

        // Transport faults fire after token validation (a malformed token
        // is a caller bug) but before any data is assembled.
        if let Some(faults) = &mut self.faults {
            let scope = format!(
                "{}/{}..{}/p{offset}",
                request.instance_types.join(","),
                request.start.as_secs(),
                request.end.as_secs()
            );
            if let Some(Fault::Error(e)) = faults.decide(FaultSurface::Price, &scope, cloud.ticks())
            {
                return Err(e);
            }
        }

        // Clamp the window to the lookback.
        let horizon = cloud
            .now()
            .checked_since(SimTime::EPOCH + LOOKBACK)
            .map_or(SimTime::EPOCH, |d| SimTime::EPOCH + d);
        let start = request.start.max(horizon);
        let end = request.end.min(cloud.now());

        let mut zones: Vec<_> = match &request.availability_zone {
            Some(name) => {
                let az = catalog.az_id(name).ok_or_else(|| ApiError::UnknownEntity {
                    kind: "availability zone",
                    name: name.clone(),
                })?;
                vec![az]
            }
            None => catalog.az_ids().collect(),
        };
        let types = request
            .instance_types
            .iter()
            .map(|name| {
                catalog
                    .instance_type_id(name)
                    .ok_or_else(|| ApiError::UnknownEntity {
                        kind: "instance type",
                        name: name.clone(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;

        // Records are ordered by (timestamp, type name, zone name). Rank the
        // names once, key each record by (timestamp, type rank, zone rank)
        // packed into one integer, and order only the records of the page,
        // which borrow their names. A type named twice shares its rank, so
        // its duplicate records stay adjacent, as a sort on the names would
        // leave them; equal keys are such duplicates, equal records.
        zones.sort_by(|&a, &b| catalog.az(a).name().cmp(catalog.az(b).name()));
        let mut ranked_names: Vec<&str> =
            request.instance_types.iter().map(String::as_str).collect();
        ranked_names.sort_unstable();
        ranked_names.dedup();

        let mut entries: Vec<(u128, SpotPrice)> = Vec::new();
        for (name, &ty) in request.instance_types.iter().zip(&types) {
            let rank = ranked_names
                .binary_search(&name.as_str())
                .expect("every requested name is ranked") as u128;
            for (zone_rank, &az) in zones.iter().enumerate() {
                for &(timestamp, price) in cloud.price_history(ty, az, start, end) {
                    let key =
                        u128::from(timestamp.as_secs()) << 64 | rank << 32 | zone_rank as u128;
                    entries.push((key, price));
                }
            }
        }
        let mut page_entries: &mut [(u128, SpotPrice)] = &mut [];
        if offset < entries.len() {
            entries.select_nth_unstable_by_key(offset, |e| e.0);
            let rest = &mut entries[offset..];
            let len = rest.len().min(PAGE_SIZE);
            if rest.len() > len {
                rest.select_nth_unstable_by_key(len, |e| e.0);
            }
            page_entries = &mut rest[..len];
            page_entries.sort_unstable_by_key(|e| e.0);
        }
        // The casts unpack the key's fields: the truncation is the point.
        let page: Vec<PricePoint> = page_entries
            .iter()
            .map(|&(key, price)| PricePoint {
                timestamp: SimTime::from_secs((key >> 64) as u64),
                instance_type: ranked_names[(key >> 32) as u32 as usize],
                availability_zone: catalog.az(zones[key as u32 as usize]).name(),
                price,
            })
            .collect();
        let next_token = if offset + page.len() < entries.len() {
            Some((offset + page.len()).to_string())
        } else {
            None
        };
        Ok(PricePage {
            records: page,
            next_token,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::CatalogBuilder;

    fn cloud_with_history() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2).instance_type("m5.large", 0.096);
        let mut cloud = SimCloud::new(b.build().unwrap(), SimConfig::default());
        cloud.run_days(10);
        cloud
    }

    #[test]
    fn request_validation() {
        assert!(PriceRequest::new(vec![], SimTime::EPOCH, SimTime::from_secs(10)).is_err());
        assert!(PriceRequest::new(
            vec!["m5.large".into()],
            SimTime::from_secs(10),
            SimTime::EPOCH
        )
        .is_err());
    }

    #[test]
    fn a_moved_window_is_the_request_built_for_it() {
        let cloud = cloud_with_history();
        let types = || vec!["m5.large".to_owned()];
        let mut moved = PriceRequest::new(types(), SimTime::EPOCH, SimTime::EPOCH).unwrap();
        assert!(moved.set_window(cloud.now(), SimTime::EPOCH).is_err());
        assert_eq!(
            moved,
            PriceRequest::new(types(), SimTime::EPOCH, SimTime::EPOCH).unwrap(),
            "an inverted window leaves the request as it was"
        );
        let mid = SimTime::from_secs(cloud.now().as_secs() / 2);
        moved.set_window(mid, cloud.now()).unwrap();
        let fresh = PriceRequest::new(types(), mid, cloud.now()).unwrap();
        assert_eq!(moved, fresh);
        let mut client = PriceClient::new();
        assert_eq!(
            client.describe_spot_price_history(&cloud, &moved, None),
            client.describe_spot_price_history(&cloud, &fresh, None)
        );
    }

    #[test]
    fn history_is_sorted_and_scoped() {
        let cloud = cloud_with_history();
        let req = PriceRequest::new(vec!["m5.large".into()], SimTime::EPOCH, cloud.now())
            .unwrap()
            .availability_zone("us-test-1a");
        let page = PriceClient::new()
            .describe_spot_price_history(&cloud, &req, None)
            .unwrap();
        assert!(!page.records.is_empty());
        assert!(page
            .records
            .iter()
            .all(|r| r.availability_zone == "us-test-1a"));
        assert!(page
            .records
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn unknown_entities_rejected() {
        let cloud = cloud_with_history();
        let req =
            PriceRequest::new(vec!["warp9.huge".into()], SimTime::EPOCH, cloud.now()).unwrap();
        assert!(matches!(
            PriceClient::new().describe_spot_price_history(&cloud, &req, None),
            Err(ApiError::UnknownEntity { .. })
        ));
        let req = PriceRequest::new(vec!["m5.large".into()], SimTime::EPOCH, cloud.now())
            .unwrap()
            .availability_zone("mars-1a");
        assert!(PriceClient::new()
            .describe_spot_price_history(&cloud, &req, None)
            .is_err());
    }

    #[test]
    fn bad_token_rejected_and_pagination_walks() {
        let cloud = cloud_with_history();
        let req = PriceRequest::new(vec!["m5.large".into()], SimTime::EPOCH, cloud.now()).unwrap();
        let mut client = PriceClient::new();
        assert!(matches!(
            client.describe_spot_price_history(&cloud, &req, Some("xyz")),
            Err(ApiError::BadPageToken)
        ));
        // Collect all pages; with few records this is a single page, but the
        // token protocol must terminate.
        let mut token: Option<String> = None;
        let mut total = 0;
        loop {
            let page = client
                .describe_spot_price_history(&cloud, &req, token.as_deref())
                .unwrap();
            total += page.records.len();
            match page.next_token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert!(total > 0);
    }

    #[test]
    fn injected_faults_are_retryable() {
        use crate::fault::{FaultInjector, FaultPlan};
        let cloud = cloud_with_history();
        let mut client =
            PriceClient::new().with_faults(FaultInjector::new(FaultPlan::uniform(1, 1.0)));
        let req = PriceRequest::new(vec!["m5.large".into()], SimTime::EPOCH, cloud.now()).unwrap();
        let err = client
            .describe_spot_price_history(&cloud, &req, None)
            .unwrap_err();
        assert!(err.is_retryable());
        // A malformed token still wins over the injector: caller bugs are
        // not transient.
        assert!(matches!(
            client.describe_spot_price_history(&cloud, &req, Some("xyz")),
            Err(ApiError::BadPageToken)
        ));
    }

    #[test]
    fn lookback_clamps_old_history() {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 1).instance_type("m5.large", 0.096);
        let config = SimConfig {
            tick: SimDuration::from_hours(4),
            ..SimConfig::default()
        };
        let mut cloud = SimCloud::new(b.build().unwrap(), config);
        cloud.run_days(120);
        let req = PriceRequest::new(vec!["m5.large".into()], SimTime::EPOCH, cloud.now()).unwrap();
        let page = PriceClient::new()
            .describe_spot_price_history(&cloud, &req, None)
            .unwrap();
        let horizon = cloud.now().as_secs() - LOOKBACK.as_secs();
        // Only the carried-forward change preceding the horizon may be
        // older; everything else must be inside the lookback.
        let older: Vec<_> = page
            .records
            .iter()
            .filter(|r| r.timestamp.as_secs() < horizon)
            .collect();
        assert!(
            older.len() <= 1,
            "at most the price in effect at the horizon"
        );
    }
}
