//! The SpotLake data collector.
//!
//! "The spot data collector server periodically executes collection tasks
//! for different data sources" (paper Section 4). This crate is that
//! collector:
//!
//! * [`QueryPlanner`] turns the catalog's support matrix into the minimal
//!   set of placement-score queries via bin packing (Section 3.2 /
//!   Figure 1: 9,299 naive queries → ≈2,226 packed queries).
//! * [`AccountPool`] shards the plan across cloud accounts so that no
//!   account exceeds the 50-unique-queries/24 h limit.
//! * [`SpsCollector`], [`AdvisorCollector`], and [`PriceCollector`] pull
//!   the three datasets — the advisor via the *scraped web page*, since it
//!   has no API — and write them to [`spotlake_timestream`] tables.
//! * [`CollectorService`] wires everything together and runs the periodic
//!   collection loop.
//! * The resilience layer keeps that loop alive under transient faults:
//!   [`RetryPolicy`] caps in-round retries with exponential backoff,
//!   [`CircuitBreaker`] stops hammering a dataset that keeps failing,
//!   failed SPS queries are parked in a dead-letter queue for later
//!   rounds, and every round reports a [`RoundHealth`] record instead of
//!   sinking the round on the first error. Inject deterministic faults via
//!   [`CollectorConfig::faults`] (a re-exported [`FaultPlan`]).
//!
//! # Example
//!
//! ```
//! use spotlake_collector::{CollectorConfig, CollectorService};
//! use spotlake_cloud_sim::{SimCloud, SimConfig};
//! use spotlake_types::CatalogBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CatalogBuilder::new();
//! b.region("us-test-1", 2).instance_type("m5.large", 0.096);
//! let mut cloud = SimCloud::new(b.build()?, SimConfig::default());
//! let mut service = CollectorService::new(cloud.catalog(), CollectorConfig::default())?;
//! cloud.step();
//! let stats = service.collect_once(&cloud)?;
//! assert!(stats.records_written > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounts;
mod advisor_collector;
mod durability;
mod error;
mod health;
mod planner;
mod price_collector;
mod retry;
mod series;
mod service;
mod sps_collector;
mod trace;

pub use accounts::AccountPool;
pub use advisor_collector::{AdvisorCollector, AdvisorOutcome};
pub use error::CollectError;
pub use health::{Dataset, DatasetHealth, DatasetStatus, RoundHealth};
pub use planner::{PlanStats, PlannedQuery, PlannerStrategy, QueryPlanner};
pub use price_collector::{PriceCollector, PriceOutcome};
pub use retry::{BreakerState, CircuitBreaker, RetryPolicy};
pub use series::{PoolSeries, SweepPoints};
pub use service::{CollectStats, CollectorConfig, CollectorService, RoundReport};
pub use sps_collector::{FailedQuery, SpsCollector, SpsOutcome, SpsPoints, SpsQueryOutcome};

// Re-exported so downstream crates (bench, CLI) can configure fault
// injection without a direct `spotlake-cloud-api` dependency.
pub use spotlake_cloud_api::FaultPlan;

// Re-exported so the CLI and pipeline can configure durability and read
// recovery/WAL state without a direct `spotlake-timestream` dependency.
pub use spotlake_timestream::{IoFaultPlan, RecoveryReport, WalStats};

/// Table name for placement scores.
pub const SPS_TABLE: &str = "sps";
/// Table name for advisor data (interruption-free score + savings).
pub const ADVISOR_TABLE: &str = "advisor";
/// Table name for spot prices.
pub const PRICE_TABLE: &str = "price";
