//! Operational context handed to the gateway by whoever wires it up.
//!
//! The gateway is a stateless router over a [`Database`]; everything else
//! it can report — collector readiness, collection totals, metric
//! registries to merge into `/metrics` — is *lent* to it per request
//! through an [`OpsContext`]. The context borrows rather than owns so the
//! collector keeps sole ownership of its state, and a bare archive (no
//! collector at all, e.g. one loaded from disk) simply passes the default
//! empty context.
//!
//! [`Database`]: spotlake_timestream::Database

use spotlake_collector::{CollectStats, RoundHealth};
use spotlake_obs::{HealthReport, QualityReport, Registry};
use spotlake_timestream::{RecoveryReport, ShardSetHealth};

/// Borrowed operational state for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpsContext<'a> {
    /// Registries to merge into `/metrics`, in addition to the archive's
    /// own (`spotlake_store_*`) and the gateway's (`spotlake_http_*`).
    pub registries: &'a [&'a Registry],
    /// Collector readiness, surfaced through `/health`.
    pub health: Option<&'a HealthReport>,
    /// Running collection totals, surfaced through `/stats`.
    pub collect: Option<&'a CollectStats>,
    /// The most recent round's health record, surfaced through `/stats`.
    pub last_round: Option<&'a RoundHealth>,
    /// Simulation tick of the request (0 when no clock is wired) — stamped
    /// into query traces and flight-recorder entries.
    pub tick: u64,
    /// Wire-level request id assigned by the serving listener at accept
    /// (0 for in-process requests) — stamped into query traces and
    /// flight-recorder entries so they join to the server's request
    /// timeline and the `x-spotlake-request-id` response header.
    pub request_id: u64,
    /// Archive data-quality report, surfaced through `/quality`.
    pub quality: Option<&'a QualityReport>,
    /// What startup recovery replayed, when the archive runs durably —
    /// surfaced through `/stats`.
    pub recovery: Option<&'a RecoveryReport>,
    /// Per-shard health when the archive runs durably — drives the
    /// degraded-query annotation on data endpoints and the shard
    /// sections of `/quality` and `/stats`. Queries that touch a
    /// quarantined or failed shard still answer from the merged view,
    /// flagged rather than refused.
    pub shards: Option<&'a ShardSetHealth>,
}

impl OpsContext<'_> {
    /// An empty context: archive only, no collector attached.
    pub fn none() -> Self {
        OpsContext::default()
    }
}
