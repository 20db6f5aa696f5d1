//! AWS-shaped spot dataset APIs over the simulated cloud.
//!
//! The paper's data-collection challenges (Section 3.1) are all *interface*
//! constraints, so this crate reproduces the interfaces faithfully rather
//! than exposing the simulator's ground truth:
//!
//! * [`SpsClient`] — `get-spot-placement-scores`: multi-region, optional
//!   `SingleAvailabilityZone`, composite instance types, **at most 10
//!   returned scores** (highest first), and **at most 50 unique queries per
//!   account per 24 hours** (re-issuing a known query is free).
//! * [`PriceClient`] — `describe-spot-price-history`: change-event records
//!   with a 90-day lookback and page-token pagination.
//! * [`AdvisorPage`] — the spot instance advisor has **no programmatic
//!   API**; this type renders the advisor website's embedded JSON document,
//!   which collectors must scrape (the paper used the `spotinfo` tool;
//!   [`AdvisorPage::scrape`] is this reproduction's equivalent parser).
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic, seedable transient
//!   faults (throttling, timeouts, 503s, truncated or corrupted advisor
//!   bodies) layered over every surface, so collector resilience can be
//!   exercised reproducibly. A zero-rate plan is byte-for-byte inert.
//!
//! The placement-score and price answers carry the names AWS answers
//! with, but borrowed rather than owned: an [`SpsScore`] borrows its
//! region and zone from the cloud's catalog, and a [`PricePoint`] its
//! instance type from the request and its zone from the catalog. A
//! collection round then allocates per query, not per answered score or
//! price record; a caller that keeps an answer copies its names.
//!
//! # Example
//!
//! ```
//! use spotlake_cloud_api::{AccountId, SpsClient, SpsRequest};
//! use spotlake_cloud_sim::{SimCloud, SimConfig};
//! use spotlake_types::Catalog;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cloud = SimCloud::new(Catalog::aws_2022(), SimConfig::default());
//! let mut sps = SpsClient::new();
//! let account = AccountId::new("research-0");
//! let request = SpsRequest::new(vec!["p3.2xlarge".into()], vec!["us-east-1".into()], 1)?;
//! let scores = sps.get_spot_placement_scores(&cloud, &account, &request)?;
//! assert!(!scores.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor_page;
mod error;
mod fault;
mod price_api;
mod sps_api;

pub use advisor_page::{AdvisorClient, AdvisorFetch, AdvisorPage, AdvisorRow};
pub use error::ApiError;
pub use fault::{Fault, FaultInjector, FaultPlan, FaultSurface};
pub use price_api::{PriceClient, PricePage, PricePoint, PriceRequest};
pub use sps_api::{AccountId, SpsClient, SpsRequest, SpsScore, MAX_RESULTS, UNIQUE_QUERY_LIMIT};
