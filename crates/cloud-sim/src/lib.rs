//! A simulated multi-region public cloud with a spot market.
//!
//! SpotLake (the paper) collects spot datasets from the *live* AWS cloud.
//! This crate is the reproduction's stand-in for that cloud: a deterministic,
//! seedable simulator that maintains one capacity pool per supported
//! (instance type × availability zone) pair and derives from the pools'
//! state everything the real cloud publishes:
//!
//! * the **ground-truth placement score** (single-type, composite, and
//!   capacity-dependent — Sections 2.3 and 5.2 of the paper),
//! * the **spot instance advisor** statistics (interruption-frequency
//!   bucket and savings over on-demand — Section 2.2),
//! * the **spot price** under the post-2017 smoothed pricing policy
//!   (Section 2.1), and
//! * the full **spot request lifecycle** of Table 1, with
//!   capacity-driven fulfillment latency and interruption hazard
//!   (Section 5.4's real-world experiments run against this).
//!
//! The simulator is calibrated so the *shapes* the paper reports hold: the
//! placement score sits at 3.0 for the vast majority of pool-ticks
//! (Table 2), accelerated-computing pools are scarce (Figures 3, 4, 7),
//! larger sizes are scarcer (Figure 5), the advisor is a damped, lagged,
//! biased view of true interruption risk (so it decorrelates from the
//! placement score, Figures 8 and 9), and the smoothed price decorrelates
//! from both (Figure 8).
//!
//! # Example
//!
//! ```
//! use spotlake_cloud_sim::{SimCloud, SimConfig};
//! use spotlake_types::Catalog;
//!
//! let catalog = Catalog::aws_2022();
//! let mut cloud = SimCloud::new(catalog, SimConfig::default());
//! cloud.step(); // advance one collection tick
//! let ty = cloud.catalog().instance_type_id("m5.large").unwrap();
//! let az = cloud.catalog().az_id("us-east-1a").unwrap();
//! let score = cloud.placement_score(ty, az, 1).unwrap();
//! assert!((1..=3).contains(&score.value()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod cloud;
mod config;
mod lifecycle;
mod pool;
mod price;

pub use advisor::AdvisorEntry;
pub use cloud::{RequestId, SimCloud};
pub use config::SimConfig;
pub use lifecycle::RequestOutcome;
pub use pool::{Pool, PoolId, PoolParams, PoolState, TickInputs};
