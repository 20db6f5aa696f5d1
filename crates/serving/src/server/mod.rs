//! Real TCP serving for the archive gateway.
//!
//! Everything below `serving::server` turns the in-process
//! [`Gateway`](crate::Gateway) into a network service with an explicit
//! overload envelope:
//!
//! * [`wire`] — fail-closed HTTP/1.1 head parsing and response encoding,
//!   with hard byte limits; a head reader that carries pipelined bytes
//!   from one request to the next.
//! * [`SharedArchive`] — snapshot/epoch access to the database, so
//!   queries never block collection.
//! * [`Server`] / [`ServerHandle`] — listener, bounded admission queue
//!   with 503 + `Retry-After` shedding, worker pool with per-request
//!   deadlines and panic isolation, persistent connections under a
//!   fairness rule, and graceful drain on shutdown.
//! * [`ServerMetrics`] — the `spotlake_server_*` families.
//! * [`loadgen`] — the seeded closed/open-loop load and chaos generator
//!   that writes `BENCH_serving.json`.
//!
//! The threat model and shedding policy are documented in DESIGN.md
//! ("Serving under overload").

mod engine;
pub mod loadgen;
mod metrics;
mod shared;
pub mod wire;

pub use engine::{
    Server, ServerConfig, ServerHandle, ServerReport, KEEP_ALIVE_IDLE, KEEP_ALIVE_MAX_REQUESTS,
};
pub use loadgen::{ChaosProfile, LoadConfig, LoadMode, LoadReport};
pub use metrics::{PhaseStats, ServerMetrics, ServerTotals};
pub use shared::SharedArchive;
pub use wire::{WireError, WireLimits};
