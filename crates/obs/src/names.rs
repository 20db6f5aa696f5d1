//! The canonical `spotlake_*` metric manifest.
//!
//! Every metric family the workspace emits is declared here, once: a
//! typed constant ([`Counter`], [`Gauge`] or [`Histogram`]) holding the
//! family's exposition name and the `# HELP` text `/metrics` renders for
//! it. [`Registry`](crate::Registry)'s recording and reading methods take
//! the constant, so an emitter names a family only by it: its help
//! cannot drift from the declaration, and recording a counter through a
//! gauge method does not compile:
//!
//! ```compile_fail
//! use spotlake_obs::{names, Registry};
//!
//! Registry::new().gauge_set(names::WAL_CHECKPOINTS_TOTAL, &[], 1.0);
//! ```
//!
//! The same table generates [`METRIC_FAMILIES`], the sorted slice of
//! every family that `spotlake-lint` (rule `metrics-contract`) checks
//! the workspace against in both directions: no `spotlake_*` literal in
//! non-test code outside this file, and no family here that no non-test
//! code names by its constant.
//!
//! Adding a metric means adding one row to the `families!` table below
//! — constant, kind, name, help, kept in name order — and recording
//! through the constant; removing one means deleting its row along with
//! its last use.

use crate::registry::MetricKind;

/// A counter family: a monotonically increasing count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The family name exactly as rendered in the text exposition.
    pub name: &'static str,
    /// The `# HELP` text rendered for the family.
    pub help: &'static str,
}

/// A gauge family: a point-in-time value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    /// The family name exactly as rendered in the text exposition.
    pub name: &'static str,
    /// The `# HELP` text rendered for the family.
    pub help: &'static str,
}

/// A histogram family: a distribution over the registry's one bucket
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// The family name exactly as rendered in the text exposition.
    pub name: &'static str,
    /// The `# HELP` text rendered for the family.
    pub help: &'static str,
}

/// One row of [`METRIC_FAMILIES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricFamilyDef {
    /// The name of the constant that declares the family.
    pub constant: &'static str,
    /// The family name exactly as rendered in the text exposition.
    pub name: &'static str,
    /// The kind the constant's type fixes.
    pub kind: MetricKind,
    /// The `# HELP` text rendered for the family.
    pub help: &'static str,
}

/// Declares one typed constant per row, documented by its help text,
/// and [`METRIC_FAMILIES`] listing every row in table order.
macro_rules! families {
    ($($constant:ident: $kind:ident = $name:literal, $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $constant: $kind = $kind { name: $name, help: $help };
        )*

        /// Every `spotlake_*` family the workspace emits, sorted by name.
        pub const METRIC_FAMILIES: &[MetricFamilyDef] = &[$(MetricFamilyDef {
            constant: stringify!($constant),
            name: $name,
            kind: MetricKind::$kind,
            help: $help,
        }),*];
    };
}

families! {
    API_FAULTS_INJECTED_TOTAL: Counter = "spotlake_api_faults_injected_total",
        "Faults injected per API surface and kind.";
    ARCHIVE_GAPS_TOTAL: Gauge = "spotlake_archive_gaps_total",
        "Distinct coverage gaps detected across keys.";
    ARCHIVE_KEYS_STALE: Gauge = "spotlake_archive_keys_stale",
        "Keys not observed in the most recent round.";
    ARCHIVE_KEYS_TRACKED: Gauge = "spotlake_archive_keys_tracked",
        "Distinct coverage keys ever observed per dataset.";
    ARCHIVE_MAX_STALENESS_TICKS: Gauge = "spotlake_archive_max_staleness_ticks",
        "Maximum per-key staleness in ticks.";
    ARCHIVE_MIN_COVERAGE: Gauge = "spotlake_archive_min_coverage",
        "Minimum per-key coverage ratio (observed / expected rounds).";
    ARCHIVE_MISSED_ROUNDS_TOTAL: Gauge = "spotlake_archive_missed_rounds_total",
        "Total missed rounds across keys.";
    COLLECTOR_BREAKER_STATE: Gauge = "spotlake_collector_breaker_state",
        "Circuit-breaker state per dataset: 0 closed, 1 half-open, 2 open.";
    COLLECTOR_DEAD_LETTER_DEPTH: Gauge = "spotlake_collector_dead_letter_depth",
        "Dead-letter queue depth after the most recent round.";
    COLLECTOR_DEAD_LETTERED_TOTAL: Counter = "spotlake_collector_dead_lettered_total",
        "SPS queries newly parked in the dead-letter queue.";
    COLLECTOR_DEGRADED_ROUNDS_TOTAL: Counter = "spotlake_collector_degraded_rounds_total",
        "Rounds in which at least one dataset fell short.";
    COLLECTOR_FAILED_QUERIES_TOTAL: Counter = "spotlake_collector_failed_queries_total",
        "Operations that failed even after retries, per dataset.";
    COLLECTOR_RECORDS_TOTAL: Counter = "spotlake_collector_records_total",
        "Records collected per dataset per round, summed.";
    COLLECTOR_RECORDS_WRITTEN_TOTAL: Counter = "spotlake_collector_records_written_total",
        "Records stored across all datasets (after change-point dedup).";
    COLLECTOR_RETRIES_TOTAL: Counter = "spotlake_collector_retries_total",
        "Retry attempts spent per dataset (API calls and store writes).";
    COLLECTOR_ROUND_OPS: Histogram = "spotlake_collector_round_ops",
        "API operations (first calls + retries) spent per dataset per round — \
         the deterministic stand-in for round duration.";
    COLLECTOR_ROUNDS_TOTAL: Counter = "spotlake_collector_rounds_total",
        "Collection rounds executed.";
    COLLECTOR_UNIQUE_QUERIES_USED: Gauge = "spotlake_collector_unique_queries_used",
        "Unique placement-score queries consumed per account in the trailing 24 h (limit 50).";
    HTTP_REQUESTS_TOTAL: Counter = "spotlake_http_requests_total",
        "Requests served per endpoint and status.";
    HTTP_RESPONSE_BYTES: Histogram = "spotlake_http_response_bytes",
        "Response body size per endpoint (deterministic latency proxy).";
    LOADGEN_LATENCY_MICROS: Histogram = "spotlake_loadgen_latency_micros",
        "Client-observed request latency in microseconds";
    LOADGEN_REQUESTS_TOTAL: Counter = "spotlake_loadgen_requests_total",
        "Load-generator actions executed, by kind and outcome";
    QUERY_CHUNKS_DECOMPRESSED: Histogram = "spotlake_query_chunks_decompressed",
        "Storage chunks decompressed per query.";
    QUERY_COST: Histogram = "spotlake_query_cost",
        "Deterministic cost proxy per completed query (work units).";
    QUERY_ROWS_DECODED: Histogram = "spotlake_query_rows_decoded",
        "Points decoded per query.";
    QUERY_ROWS_POST_FILTER: Histogram = "spotlake_query_rows_post_filter",
        "Result rows per query before response limits.";
    QUERY_SERIES_SCANNED: Histogram = "spotlake_query_series_scanned",
        "Series scanned per query after pruning.";
    RECOVERY_BYTES_TRUNCATED_TOTAL: Counter = "spotlake_recovery_bytes_truncated_total",
        "Torn-tail bytes truncated from the WAL at recovery.";
    RECOVERY_CHECKPOINT_LOADED: Gauge = "spotlake_recovery_checkpoint_loaded",
        "1 when recovery loaded a checkpoint snapshot.";
    RECOVERY_FRAMES_REPLAYED_TOTAL: Counter = "spotlake_recovery_frames_replayed_total",
        "WAL frames replayed by startup recovery.";
    RECOVERY_POINT_COUNT: Gauge = "spotlake_recovery_point_count",
        "Points in the archive immediately after recovery.";
    RECOVERY_RECORDS_REPLAYED_TOTAL: Counter = "spotlake_recovery_records_replayed_total",
        "Records replayed by startup recovery.";
    RECOVERY_ROUNDS_RECOVERED_TOTAL: Counter = "spotlake_recovery_rounds_recovered_total",
        "Distinct collection rounds recovered from the WAL.";
    SERVER_BAD_REQUESTS_TOTAL: Counter = "spotlake_server_bad_requests_total",
        "Requests rejected by the fail-closed wire parser";
    SERVER_CONNECTIONS_TOTAL: Counter = "spotlake_server_connections_total",
        "TCP connections accepted";
    SERVER_DEADLINE_EXCEEDED_TOTAL: Counter = "spotlake_server_deadline_exceeded_total",
        "Requests answered 504 past their deadline";
    SERVER_INFLIGHT: Gauge = "spotlake_server_inflight",
        "Requests currently being handled";
    SERVER_PHASE_MICROS: Histogram = "spotlake_server_phase_micros",
        "Per-request lifecycle phase durations in microseconds";
    SERVER_QUEUE_DEPTH: Gauge = "spotlake_server_queue_depth",
        "Connections waiting in the admission queue";
    SERVER_REQUEST_MICROS: Histogram = "spotlake_server_request_micros",
        "Server-side request wall time in microseconds";
    SERVER_REQUESTS_TOTAL: Counter = "spotlake_server_requests_total",
        "Requests answered on the TCP path, by status";
    SERVER_SHED_TOTAL: Counter = "spotlake_server_shed_total",
        "Connections answered 503 because the admission queue was full";
    SERVER_SLOW_CLIENTS_CLOSED_TOTAL: Counter = "spotlake_server_slow_clients_closed_total",
        "Connections closed for exceeding read/write timeouts";
    SERVER_WORKER_PANICS_TOTAL: Counter = "spotlake_server_worker_panics_total",
        "Handler panics caught by worker isolation";
    SHARD_COMMIT_FAILURES_TOTAL: Counter = "spotlake_shard_commit_failures_total",
        "Round batches a shard failed to commit (dropped for the round).";
    SHARD_COMMITS_TOTAL: Counter = "spotlake_shard_commits_total",
        "Round batches committed through the shard's WAL.";
    SHARD_COUNT: Gauge = "spotlake_shard_count",
        "Shards (dataset × region fault domains) in the archive.";
    SHARD_POINTS: Gauge = "spotlake_shard_points",
        "Points held by the shard's database.";
    SHARD_QUARANTINED_COUNT: Gauge = "spotlake_shard_quarantined_count",
        "Shards quarantined pending fsck --repair.";
    SHARD_STATE: Gauge = "spotlake_shard_state",
        "Shard state: 0 healthy, 1 failed (wal dead), 2 quarantined.";
    SLO_ALERT_STATE: Gauge = "spotlake_slo_alert_state",
        "Current alert state per objective (0 ok, 1 warning, 2 page)";
    SLO_ALERT_TRANSITIONS_TOTAL: Counter = "spotlake_slo_alert_transitions_total",
        "Alert state transitions, by objective and destination state";
    SLO_BUDGET_REMAINING_RATIO: Gauge = "spotlake_slo_budget_remaining_ratio",
        "Unspent error budget per objective, 0 through 1";
    SLO_EVALUATIONS_TOTAL: Counter = "spotlake_slo_evaluations_total",
        "Telemetry samples evaluated by the SLO tracker";
    STORE_COMPRESSION_RATIO: Gauge = "spotlake_store_compression_ratio",
        "Cumulative stored/submitted record ratio per table (lower = more change-point dedup).";
    STORE_QUERIES_TOTAL: Counter = "spotlake_store_queries_total",
        "Queries served per table and operation.";
    STORE_QUERY_ROWS: Histogram = "spotlake_store_query_rows",
        "Rows returned per query (deterministic latency proxy).";
    STORE_RECORDS_DEDUPED_TOTAL: Counter = "spotlake_store_records_deduped_total",
        "Records skipped by change-point deduplication per table.";
    STORE_RECORDS_STORED_TOTAL: Counter = "spotlake_store_records_stored_total",
        "Records actually stored per table.";
    STORE_RECORDS_SUBMITTED_TOTAL: Counter = "spotlake_store_records_submitted_total",
        "Records submitted to write batches per table.";
    STORE_WRITE_BATCH_RECORDS: Histogram = "spotlake_store_write_batch_records",
        "Records per accepted write batch.";
    STORE_WRITE_BATCHES_TOTAL: Counter = "spotlake_store_write_batches_total",
        "Write batches accepted per table.";
    STORE_WRITE_THROTTLED_TOTAL: Counter = "spotlake_store_write_throttled_total",
        "Write batches rejected by deterministic throttling.";
    TELEMETRY_EVICTED_TOTAL: Counter = "spotlake_telemetry_evicted_total",
        "Telemetry ring-buffer samples evicted to stay within capacity";
    TELEMETRY_SAMPLES_TOTAL: Counter = "spotlake_telemetry_samples_total",
        "Telemetry samples taken since server start";
    WAL_BYTES_APPENDED_TOTAL: Counter = "spotlake_wal_bytes_appended_total",
        "Bytes appended to the WAL, frame headers included.";
    WAL_CHECKPOINTS_TOTAL: Counter = "spotlake_wal_checkpoints_total",
        "Checkpoint snapshots rotated.";
    WAL_DEAD: Gauge = "spotlake_wal_dead",
        "1 when a crash fault has killed the WAL (restart required).";
    WAL_FAULTS_INJECTED_TOTAL: Counter = "spotlake_wal_faults_injected_total",
        "Disk faults injected into the WAL and checkpoint writers, per kind.";
    WAL_FRAMES_APPENDED_TOTAL: Counter = "spotlake_wal_frames_appended_total",
        "WAL frames appended and fsynced.";
    WAL_RECORDS_ELIDED_TOTAL: Counter = "spotlake_wal_records_elided_total",
        "Records committed without being logged: writing them leaves the store unchanged.";
    WAL_SIZE_BYTES: Gauge = "spotlake_wal_size_bytes",
        "Committed bytes currently in the WAL.";
}

/// Looks up a family definition by its exposition name.
pub fn lookup(name: &str) -> Option<&'static MetricFamilyDef> {
    METRIC_FAMILIES
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .and_then(|i| METRIC_FAMILIES.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_sorted_and_unique() {
        for pair in METRIC_FAMILIES.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "manifest out of order near {}",
                pair[1].name
            );
        }
    }

    #[test]
    fn every_family_is_namespaced_and_described() {
        for def in METRIC_FAMILIES {
            let suffix = def.name.strip_prefix("spotlake_");
            assert!(suffix.is_some(), "{}", def.name);
            assert!(!def.help.is_empty(), "{} lacks help", def.name);
            assert_eq!(
                suffix.map(str::to_ascii_uppercase).as_deref(),
                Some(def.constant),
                "{}'s constant is its name without the prefix, upper-cased",
                def.name
            );
        }
    }

    #[test]
    fn lookup_and_kind_checks_work() {
        let def = lookup(STORE_QUERY_ROWS.name).expect("declared");
        assert_eq!(def.kind, MetricKind::Histogram);
        assert_eq!(def.help, STORE_QUERY_ROWS.help);
        assert_eq!(def.constant, "STORE_QUERY_ROWS");
        assert_eq!(
            lookup(WAL_DEAD.name).map(|d| d.kind),
            Some(MetricKind::Gauge)
        );
        assert!(lookup("spotlake_nonexistent").is_none());
    }
}
