//! The SpotLake archive web service.
//!
//! Section 4 of the paper describes a serverless front end: static files
//! from object storage, an API Gateway routing user queries to Lambda
//! handlers, and the Timestream database behind them. This crate reproduces
//! that slice in-process:
//!
//! * [`HttpRequest`] / [`HttpResponse`] — a minimal HTTP model (the
//!   "API Gateway" wire format).
//! * [`ArchiveService`] — the router plus the "Lambda" handlers:
//!   `/query`, `/latest`, `/at`, `/window`, `/correlate` (Section 5.3 as a
//!   service feature), `/stats`, `/tables`, `/health`, and the
//!   static front-end page.
//! * [`Gateway`] — the same router, plus observability: per-endpoint
//!   request metrics, a merged Prometheus `/metrics` document, a `/health`
//!   that reflects real readiness (store state plus whatever the operator
//!   lends through an [`OpsContext`]), and a `/stats` extended with
//!   collection totals.
//! * [`json`] — a small JSON encoder (the workspace deliberately avoids a
//!   JSON dependency), and CSV export for bulk downloads.
//! * [`server`] — the real thing: a dependency-light multithreaded TCP
//!   listener with admission control, deadlines, panic isolation, and
//!   graceful shutdown, plus the seeded load/chaos generator that writes
//!   `BENCH_serving.json`.
//!
//! Users "can query specifying the timestamp, regions, availability zones,
//! and instance types" — those are exactly the supported query parameters.
//!
//! # Example
//!
//! ```
//! use spotlake_serving::{ArchiveService, HttpRequest};
//! use spotlake_timestream::{Database, Record, TableOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut db = Database::new();
//! db.create_table("sps", TableOptions::default())?;
//! db.write("sps", &[Record::new(600, "sps", 3.0)
//!     .dimension("instance_type", "m5.large")
//!     .dimension("region", "us-east-1")])?;
//!
//! let request = HttpRequest::get("/query?table=sps&instance_type=m5.large")?;
//! let response = ArchiveService::handle(&db, &request);
//! assert_eq!(response.status, 200);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Request handlers fail closed, never fail loud: the native lint carries
// part of what `spotlake-lint`'s fail-closed rule enforces. Test modules
// are exempt — an assertion that unwraps is the point of a test.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod csv;
mod gateway;
mod http;
mod insights;
pub mod json;
mod ops;
mod pairs;
pub mod server;
mod traces;

pub use gateway::{ArchiveService, Gateway};
pub use http::{HttpRequest, HttpResponse, ServeError};
pub use ops::OpsContext;
pub use server::{Server, ServerConfig, ServerHandle, SharedArchive};
