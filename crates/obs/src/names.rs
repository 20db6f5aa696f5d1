//! The canonical `spotlake_*` metric manifest.
//!
//! Every metric family the workspace may emit is declared here, once,
//! with its name, kind, and owning layer. Two consumers hold the wiring
//! to this table:
//!
//! * [`Registry`](crate::Registry) debug-asserts that any `spotlake_*`
//!   family recorded at runtime matches the manifest's name and kind, so
//!   a typo'd name or a counter re-recorded as a gauge fails the test
//!   suite immediately.
//! * `spotlake-lint` (rule `metrics-contract`) checks every `spotlake_*`
//!   string literal in the workspace source against this table at CI
//!   time, and conversely that every manifest entry is still emitted
//!   somewhere — name drift between collector/timestream/serving and
//!   `/metrics` cannot land.
//!
//! Adding a metric therefore means adding its row here first; removing
//! one means deleting its row in the same change.

use crate::registry::MetricKind;

/// One canonical metric family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricFamilyDef {
    /// The family name exactly as rendered in the text exposition.
    pub name: &'static str,
    /// The kind every emitter must record the family as.
    pub kind: MetricKind,
    /// The subsystem that owns (emits) the family.
    pub layer: &'static str,
    /// One-line description of what the family measures.
    pub help: &'static str,
}

use MetricKind::{Counter, Gauge, Histogram};

/// Every `spotlake_*` family the workspace may emit, sorted by name.
pub const METRIC_FAMILIES: &[MetricFamilyDef] = &[
    MetricFamilyDef {
        name: "spotlake_api_faults_injected_total",
        kind: Counter,
        layer: "cloud-api",
        help: "Injected API faults by surface and kind",
    },
    MetricFamilyDef {
        name: "spotlake_archive_gaps_total",
        kind: Gauge,
        layer: "quality",
        help: "Coverage gaps observed across all tracked keys",
    },
    MetricFamilyDef {
        name: "spotlake_archive_keys_stale",
        kind: Gauge,
        layer: "quality",
        help: "Tracked keys whose last observation is older than the staleness bound",
    },
    MetricFamilyDef {
        name: "spotlake_archive_keys_tracked",
        kind: Gauge,
        layer: "quality",
        help: "Distinct dataset keys the quality monitor tracks",
    },
    MetricFamilyDef {
        name: "spotlake_archive_max_staleness_ticks",
        kind: Gauge,
        layer: "quality",
        help: "Worst-case staleness across tracked keys, in ticks",
    },
    MetricFamilyDef {
        name: "spotlake_archive_min_coverage",
        kind: Gauge,
        layer: "quality",
        help: "Minimum per-dataset coverage ratio",
    },
    MetricFamilyDef {
        name: "spotlake_archive_missed_rounds_total",
        kind: Gauge,
        layer: "quality",
        help: "Collection rounds with at least one missing key",
    },
    MetricFamilyDef {
        name: "spotlake_collector_breaker_state",
        kind: Gauge,
        layer: "collector",
        help: "Circuit-breaker state per dataset (0 closed, 1 half-open, 2 open)",
    },
    MetricFamilyDef {
        name: "spotlake_collector_dead_letter_depth",
        kind: Gauge,
        layer: "collector",
        help: "Queries currently parked in the dead-letter queue",
    },
    MetricFamilyDef {
        name: "spotlake_collector_dead_lettered_total",
        kind: Counter,
        layer: "collector",
        help: "Queries ever parked in the dead-letter queue",
    },
    MetricFamilyDef {
        name: "spotlake_collector_degraded_rounds_total",
        kind: Counter,
        layer: "collector",
        help: "Rounds that completed with at least one dataset missing",
    },
    MetricFamilyDef {
        name: "spotlake_collector_failed_queries_total",
        kind: Counter,
        layer: "collector",
        help: "SPS queries that exhausted their in-round retries",
    },
    MetricFamilyDef {
        name: "spotlake_collector_records_total",
        kind: Counter,
        layer: "collector",
        help: "Records collected, by dataset",
    },
    MetricFamilyDef {
        name: "spotlake_collector_records_written_total",
        kind: Counter,
        layer: "collector",
        help: "Records written to the archive",
    },
    MetricFamilyDef {
        name: "spotlake_collector_retries_total",
        kind: Counter,
        layer: "collector",
        help: "API retries performed, by dataset",
    },
    MetricFamilyDef {
        name: "spotlake_collector_round_ops",
        kind: Histogram,
        layer: "collector",
        help: "API operations needed per collection round",
    },
    MetricFamilyDef {
        name: "spotlake_collector_rounds_total",
        kind: Counter,
        layer: "collector",
        help: "Collection rounds completed",
    },
    MetricFamilyDef {
        name: "spotlake_collector_unique_queries_used",
        kind: Gauge,
        layer: "collector",
        help: "Unique SPS queries consumed against the per-account daily limit",
    },
    MetricFamilyDef {
        name: "spotlake_http_requests_total",
        kind: Counter,
        layer: "serving",
        help: "HTTP requests served, by route and status",
    },
    MetricFamilyDef {
        name: "spotlake_http_response_bytes",
        kind: Histogram,
        layer: "serving",
        help: "HTTP response body sizes in bytes",
    },
    MetricFamilyDef {
        name: "spotlake_loadgen_latency_micros",
        kind: Histogram,
        layer: "loadgen",
        help: "Client-observed request latency in microseconds (open-loop: from scheduled start)",
    },
    MetricFamilyDef {
        name: "spotlake_loadgen_requests_total",
        kind: Counter,
        layer: "loadgen",
        help: "Load-generator actions executed, by kind and outcome",
    },
    MetricFamilyDef {
        name: "spotlake_query_chunks_decompressed",
        kind: Histogram,
        layer: "store",
        help: "Compressed chunks decompressed per query",
    },
    MetricFamilyDef {
        name: "spotlake_query_cost",
        kind: Histogram,
        layer: "serving",
        help: "Estimated cost units per served query",
    },
    MetricFamilyDef {
        name: "spotlake_query_rows_decoded",
        kind: Histogram,
        layer: "store",
        help: "Rows decoded per query before filtering",
    },
    MetricFamilyDef {
        name: "spotlake_query_rows_post_filter",
        kind: Histogram,
        layer: "store",
        help: "Rows surviving dimension/time filters per query",
    },
    MetricFamilyDef {
        name: "spotlake_query_series_scanned",
        kind: Histogram,
        layer: "store",
        help: "Series scanned per query",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_bytes_truncated_total",
        kind: Counter,
        layer: "recovery",
        help: "Torn-tail bytes truncated from the WAL at startup",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_checkpoint_loaded",
        kind: Gauge,
        layer: "recovery",
        help: "Whether startup recovery loaded a checkpoint snapshot (0/1)",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_frames_replayed_total",
        kind: Counter,
        layer: "recovery",
        help: "Intact WAL frames replayed at startup",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_point_count",
        kind: Gauge,
        layer: "recovery",
        help: "Points in the recovered database",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_records_replayed_total",
        kind: Counter,
        layer: "recovery",
        help: "Records carried by replayed WAL frames",
    },
    MetricFamilyDef {
        name: "spotlake_recovery_rounds_recovered_total",
        kind: Counter,
        layer: "recovery",
        help: "Distinct round ticks recovered from the WAL",
    },
    MetricFamilyDef {
        name: "spotlake_server_bad_requests_total",
        kind: Counter,
        layer: "server",
        help: "Requests rejected by the fail-closed wire parser, by status",
    },
    MetricFamilyDef {
        name: "spotlake_server_connections_total",
        kind: Counter,
        layer: "server",
        help: "TCP connections accepted by the listener",
    },
    MetricFamilyDef {
        name: "spotlake_server_deadline_exceeded_total",
        kind: Counter,
        layer: "server",
        help: "Requests answered 504 because the per-request deadline elapsed",
    },
    MetricFamilyDef {
        name: "spotlake_server_inflight",
        kind: Gauge,
        layer: "server",
        help: "Requests currently being handled by worker threads",
    },
    MetricFamilyDef {
        name: "spotlake_server_phase_micros",
        kind: Histogram,
        layer: "server",
        help:
            "Per-request lifecycle phase durations in microseconds (queue_wait|parse|handle|write)",
    },
    MetricFamilyDef {
        name: "spotlake_server_queue_depth",
        kind: Gauge,
        layer: "server",
        help: "Connections waiting in the bounded admission queue",
    },
    MetricFamilyDef {
        name: "spotlake_server_request_micros",
        kind: Histogram,
        layer: "server",
        help: "Server-side request wall time in microseconds",
    },
    MetricFamilyDef {
        name: "spotlake_server_requests_total",
        kind: Counter,
        layer: "server",
        help: "Requests answered on the TCP path, by status",
    },
    MetricFamilyDef {
        name: "spotlake_server_shed_total",
        kind: Counter,
        layer: "server",
        help: "Connections answered 503 because the admission queue was full",
    },
    MetricFamilyDef {
        name: "spotlake_server_slow_clients_closed_total",
        kind: Counter,
        layer: "server",
        help: "Connections closed for exceeding read/write timeouts",
    },
    MetricFamilyDef {
        name: "spotlake_server_worker_panics_total",
        kind: Counter,
        layer: "server",
        help: "Handler panics caught and converted to 500s by worker isolation",
    },
    MetricFamilyDef {
        name: "spotlake_shard_commit_failures_total",
        kind: Counter,
        layer: "store",
        help: "Round batches a shard failed to commit, by dataset and region",
    },
    MetricFamilyDef {
        name: "spotlake_shard_commits_total",
        kind: Counter,
        layer: "store",
        help: "Round batches committed through a shard's WAL, by dataset and region",
    },
    MetricFamilyDef {
        name: "spotlake_shard_count",
        kind: Gauge,
        layer: "store",
        help: "Shards (dataset x region fault domains) in the archive",
    },
    MetricFamilyDef {
        name: "spotlake_shard_points",
        kind: Gauge,
        layer: "store",
        help: "Points held by each shard's database",
    },
    MetricFamilyDef {
        name: "spotlake_shard_quarantined_count",
        kind: Gauge,
        layer: "store",
        help: "Shards quarantined pending fsck --repair",
    },
    MetricFamilyDef {
        name: "spotlake_shard_state",
        kind: Gauge,
        layer: "store",
        help: "Per-shard state (0 healthy, 1 failed, 2 quarantined)",
    },
    MetricFamilyDef {
        name: "spotlake_slo_alert_state",
        kind: Gauge,
        layer: "slo",
        help: "Current alert state per objective (0 ok, 1 warning, 2 page)",
    },
    MetricFamilyDef {
        name: "spotlake_slo_alert_transitions_total",
        kind: Counter,
        layer: "slo",
        help: "Alert state transitions, by objective and destination state",
    },
    MetricFamilyDef {
        name: "spotlake_slo_budget_remaining_ratio",
        kind: Gauge,
        layer: "slo",
        help: "Unspent error budget per objective, 0 through 1",
    },
    MetricFamilyDef {
        name: "spotlake_slo_evaluations_total",
        kind: Counter,
        layer: "slo",
        help: "Telemetry samples evaluated by the SLO tracker",
    },
    MetricFamilyDef {
        name: "spotlake_store_compression_ratio",
        kind: Gauge,
        layer: "store",
        help: "Raw-to-compressed size ratio of stored series",
    },
    MetricFamilyDef {
        name: "spotlake_store_queries_total",
        kind: Counter,
        layer: "store",
        help: "Queries executed against the store",
    },
    MetricFamilyDef {
        name: "spotlake_store_query_rows",
        kind: Histogram,
        layer: "store",
        help: "Rows returned per store query",
    },
    MetricFamilyDef {
        name: "spotlake_store_records_deduped_total",
        kind: Counter,
        layer: "store",
        help: "Records dropped as change-point duplicates",
    },
    MetricFamilyDef {
        name: "spotlake_store_records_stored_total",
        kind: Counter,
        layer: "store",
        help: "Records actually stored after dedup",
    },
    MetricFamilyDef {
        name: "spotlake_store_records_submitted_total",
        kind: Counter,
        layer: "store",
        help: "Records submitted to the store",
    },
    MetricFamilyDef {
        name: "spotlake_store_write_batch_records",
        kind: Histogram,
        layer: "store",
        help: "Records per write batch",
    },
    MetricFamilyDef {
        name: "spotlake_store_write_batches_total",
        kind: Counter,
        layer: "store",
        help: "Write batches accepted by the store",
    },
    MetricFamilyDef {
        name: "spotlake_store_write_throttled_total",
        kind: Counter,
        layer: "store",
        help: "Write batches rejected by injected throttling",
    },
    MetricFamilyDef {
        name: "spotlake_telemetry_evicted_total",
        kind: Counter,
        layer: "telemetry",
        help: "Telemetry ring-buffer samples evicted to stay within capacity",
    },
    MetricFamilyDef {
        name: "spotlake_telemetry_samples_total",
        kind: Counter,
        layer: "telemetry",
        help: "Telemetry samples taken since server start",
    },
    MetricFamilyDef {
        name: "spotlake_wal_bytes_appended_total",
        kind: Counter,
        layer: "wal",
        help: "Bytes appended to the write-ahead log",
    },
    MetricFamilyDef {
        name: "spotlake_wal_checkpoints_total",
        kind: Counter,
        layer: "wal",
        help: "Checkpoint rotations completed",
    },
    MetricFamilyDef {
        name: "spotlake_wal_dead",
        kind: Gauge,
        layer: "wal",
        help: "Whether a crash fault has killed the log (0/1)",
    },
    MetricFamilyDef {
        name: "spotlake_wal_faults_injected_total",
        kind: Counter,
        layer: "wal",
        help: "Injected WAL disk faults, by kind",
    },
    MetricFamilyDef {
        name: "spotlake_wal_frames_appended_total",
        kind: Counter,
        layer: "wal",
        help: "Frames appended to the write-ahead log",
    },
    MetricFamilyDef {
        name: "spotlake_wal_records_elided_total",
        kind: Counter,
        layer: "wal",
        help: "Records committed without being logged because they leave the store unchanged",
    },
    MetricFamilyDef {
        name: "spotlake_wal_size_bytes",
        kind: Gauge,
        layer: "wal",
        help: "Committed bytes in the write-ahead log",
    },
];

/// Looks up a family definition by its exposition name.
pub fn lookup(name: &str) -> Option<&'static MetricFamilyDef> {
    METRIC_FAMILIES
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .and_then(|i| METRIC_FAMILIES.get(i))
}

/// Whether `name` is a canonical family recorded with the right kind.
/// Names outside the `spotlake_` namespace are not the manifest's
/// business and always pass.
pub fn family_matches(name: &str, kind: MetricKind) -> bool {
    if !name.starts_with("spotlake_") {
        return true;
    }
    lookup(name).is_some_and(|def| def.kind == kind)
}

/// The manifest rendered as deterministic JSON — one object per family,
/// sorted by name — for tooling that wants the contract without linking
/// this crate.
pub fn manifest_json() -> String {
    let mut out = String::from("[");
    for (i, def) in METRIC_FAMILIES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"layer\":\"{}\",\"help\":\"{}\"}}",
            def.name,
            match def.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            },
            def.layer,
            def.help,
        ));
    }
    out.push(']');
    out
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
            assert!(def.name.starts_with("spotlake_"), "{}", def.name);
            assert!(!def.help.is_empty(), "{} lacks help", def.name);
            assert!(!def.layer.is_empty(), "{} lacks a layer", def.name);
        }
    }

    #[test]
    fn lookup_and_kind_checks_work() {
        assert!(lookup("spotlake_wal_dead").is_some());
        assert!(lookup("spotlake_nonexistent").is_none());
        assert!(family_matches("spotlake_wal_dead", MetricKind::Gauge));
        assert!(!family_matches("spotlake_wal_dead", MetricKind::Counter));
        assert!(!family_matches("spotlake_nonexistent", MetricKind::Gauge));
        assert!(family_matches("other_metric", MetricKind::Counter));
    }

    #[test]
    fn manifest_json_is_valid_enough() {
        let json = manifest_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("{\"name\":").count(), METRIC_FAMILIES.len());
    }
}
