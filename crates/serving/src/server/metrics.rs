//! Server-side metrics: the `spotlake_server_*` families.
//!
//! Every family lives in one shared [`Registry`] (merged into `/metrics`
//! through the gateway's [`OpsContext`](crate::OpsContext)), and the
//! counters the shutdown report needs are mirrored in atomics so the
//! engine can read totals without parsing the exposition text.

use spotlake_obs::{Registry, SloReport, REQUEST_PHASES};
use std::sync::atomic::{AtomicU64, Ordering};

const CONNECTIONS_TOTAL: &str = "spotlake_server_connections_total";
const REQUESTS_TOTAL: &str = "spotlake_server_requests_total";
const SHED_TOTAL: &str = "spotlake_server_shed_total";
const DEADLINE_TOTAL: &str = "spotlake_server_deadline_exceeded_total";
const SLOW_CLIENTS_TOTAL: &str = "spotlake_server_slow_clients_closed_total";
const BAD_REQUESTS_TOTAL: &str = "spotlake_server_bad_requests_total";
const PANICS_TOTAL: &str = "spotlake_server_worker_panics_total";
const INFLIGHT: &str = "spotlake_server_inflight";
const QUEUE_DEPTH: &str = "spotlake_server_queue_depth";
const REQUEST_MICROS: &str = "spotlake_server_request_micros";
const PHASE_MICROS: &str = "spotlake_server_phase_micros";
const TELEMETRY_SAMPLES_TOTAL: &str = "spotlake_telemetry_samples_total";
const TELEMETRY_EVICTED_TOTAL: &str = "spotlake_telemetry_evicted_total";
const SLO_STATE: &str = "spotlake_slo_alert_state";
const SLO_TRANSITIONS_TOTAL: &str = "spotlake_slo_alert_transitions_total";
const SLO_BUDGET_REMAINING: &str = "spotlake_slo_budget_remaining_ratio";
const SLO_EVALUATIONS_TOTAL: &str = "spotlake_slo_evaluations_total";

/// Shared counters and gauges for the TCP serving path.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    registry: Registry,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    slow_clients: AtomicU64,
    bad_requests: AtomicU64,
    panics: AtomicU64,
    inflight: AtomicU64,
    queued: AtomicU64,
}

impl ServerMetrics {
    /// Creates an empty metrics surface.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    /// The registry holding the `spotlake_server_*` families, for merging
    /// into `/metrics` and the shutdown report.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A connection was accepted by the listener.
    pub fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.registry
            .counter_add(CONNECTIONS_TOTAL, "TCP connections accepted", &[], 1);
    }

    /// A connection is entering the admission queue. Called *before* the
    /// channel send, so a fast worker's [`dequeued`](Self::dequeued)
    /// always observes the increment first.
    pub fn enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::SeqCst).saturating_add(1);
        self.registry.gauge_set(
            QUEUE_DEPTH,
            "Connections waiting in the admission queue",
            &[],
            depth as f64,
        );
    }

    /// A connection left the admission queue (a worker picked it up, or
    /// a full-queue send was rolled back). Saturating: a stray extra
    /// call must not wrap the gauge.
    pub fn dequeued(&self) {
        let depth = self
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            })
            .map_or(0, |prev| prev.saturating_sub(1));
        self.registry.gauge_set(
            QUEUE_DEPTH,
            "Connections waiting in the admission queue",
            &[],
            depth as f64,
        );
    }

    /// Connections waiting in the admission queue now. The engine's
    /// fairness rule reads it: while it is non-zero, a response closes
    /// its connection so the worker goes back to the queue.
    pub(crate) fn queued(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// A connection was answered 503 because the queue was full.
    pub fn shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.registry.counter_add(
            SHED_TOTAL,
            "Connections answered 503 because the admission queue was full",
            &[],
            1,
        );
    }

    /// A worker started handling a request.
    pub fn request_started(&self) {
        let inflight = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry.gauge_set(
            INFLIGHT,
            "Requests currently being handled",
            &[],
            inflight as f64,
        );
    }

    /// A worker finished a request: records the status-labelled counter
    /// and the wall-time histogram, and drops the in-flight gauge.
    pub fn request_finished(&self, status_label: &str, micros: f64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        let inflight = self
            .inflight
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        self.registry.gauge_set(
            INFLIGHT,
            "Requests currently being handled",
            &[],
            inflight as f64,
        );
        self.registry.counter_add(
            REQUESTS_TOTAL,
            "Requests answered on the TCP path, by status",
            &[("status", status_label)],
            1,
        );
        self.registry.histogram_record(
            REQUEST_MICROS,
            "Server-side request wall time in microseconds",
            &[],
            micros,
        );
    }

    /// One lifecycle phase of a request completed, taking `micros`.
    /// `phase` must be one of [`REQUEST_PHASES`].
    pub fn phase(&self, phase: &'static str, micros: f64) {
        debug_assert!(REQUEST_PHASES.contains(&phase), "unknown phase {phase:?}");
        self.registry.histogram_record(
            PHASE_MICROS,
            "Per-request lifecycle phase durations in microseconds",
            &[("phase", phase)],
            micros,
        );
    }

    /// Mirrors the telemetry recorder's running totals into counters, so
    /// the sampling progress is visible in `/metrics` and inside the
    /// samples themselves. Called by the sampler thread before each
    /// sample with the totals *including* the sample being taken.
    pub fn telemetry_progress(&self, samples_taken: u64, evicted: u64) {
        self.registry.counter_set(
            TELEMETRY_SAMPLES_TOTAL,
            "Telemetry samples taken since server start",
            &[],
            samples_taken,
        );
        self.registry.counter_set(
            TELEMETRY_EVICTED_TOTAL,
            "Telemetry ring-buffer samples evicted to stay within capacity",
            &[],
            evicted,
        );
    }

    /// Mirrors the SLO tracker's latest verdicts into the registry after
    /// each evaluated sample: one evaluation counter plus per-objective
    /// alert-state and budget gauges, so `/metrics` (and the telemetry
    /// samples themselves) carry the scoreboard.
    pub fn slo_progress(&self, report: &SloReport) {
        self.registry.counter_set(
            SLO_EVALUATIONS_TOTAL,
            "Telemetry samples evaluated by the SLO tracker",
            &[],
            report.samples,
        );
        for objective in &report.objectives {
            self.registry.gauge_set(
                SLO_STATE,
                "Current alert state per objective (0 ok, 1 warning, 2 page)",
                &[("objective", objective.name.as_str())],
                objective.state.severity() as f64,
            );
            self.registry.gauge_set(
                SLO_BUDGET_REMAINING,
                "Unspent error budget per objective, 0 through 1",
                &[("objective", objective.name.as_str())],
                objective.budget_remaining,
            );
        }
    }

    /// An objective's alert state machine moved to `to`.
    pub fn slo_transition(&self, objective: &str, to: &str) {
        self.registry.counter_add(
            SLO_TRANSITIONS_TOTAL,
            "Alert state transitions, by objective and destination state",
            &[("objective", objective), ("to", to)],
            1,
        );
    }

    /// Per-phase quantile summaries of the phase histogram, one entry per
    /// [`REQUEST_PHASES`] name that has observations, in wire order.
    /// Quantiles are rounded to whole microseconds — these feed the
    /// integer-quantile BENCH_serving.json v2 schema.
    pub fn phase_stats(&self) -> Vec<PhaseStats> {
        let summaries = self.registry.histogram_summaries(PHASE_MICROS);
        REQUEST_PHASES
            .iter()
            .filter_map(|phase| {
                let summary = summaries
                    .iter()
                    .find(|s| s.labels.iter().any(|(k, v)| k == "phase" && v == *phase))?;
                Some(PhaseStats {
                    phase,
                    count: summary.count,
                    p50_micros: summary.p50.round() as u64,
                    p90_micros: summary.p90.round() as u64,
                    p99_micros: summary.p99.round() as u64,
                })
            })
            .collect()
    }

    /// A request was answered 504 after its deadline elapsed.
    pub fn deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        self.registry.counter_add(
            DEADLINE_TOTAL,
            "Requests answered 504 past their deadline",
            &[],
            1,
        );
    }

    /// A connection was closed for blowing a read/write timeout. A kept
    /// connection closed for idling between requests is not counted.
    pub fn slow_client_closed(&self) {
        self.slow_clients.fetch_add(1, Ordering::Relaxed);
        self.registry.counter_add(
            SLOW_CLIENTS_TOTAL,
            "Connections closed for exceeding read/write timeouts",
            &[],
            1,
        );
    }

    /// The wire parser rejected a request with `status`.
    pub fn bad_request(&self, status: u16) {
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        let status = status.to_string();
        self.registry.counter_add(
            BAD_REQUESTS_TOTAL,
            "Requests rejected by the fail-closed wire parser",
            &[("status", status.as_str())],
            1,
        );
    }

    /// A handler panic was caught and converted to a 500.
    pub fn worker_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        self.registry.counter_add(
            PANICS_TOTAL,
            "Handler panics caught by worker isolation",
            &[],
            1,
        );
    }

    /// Point-in-time totals for the shutdown report.
    pub fn totals(&self) -> ServerTotals {
        ServerTotals {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            slow_clients_closed: self.slow_clients.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            worker_panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// One lifecycle phase's latency summary, rounded to whole microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase name (one of [`REQUEST_PHASES`]).
    pub phase: &'static str,
    /// Requests that recorded this phase.
    pub count: u64,
    /// Estimated median duration.
    pub p50_micros: u64,
    /// Estimated 90th percentile duration.
    pub p90_micros: u64,
    /// Estimated 99th percentile duration.
    pub p99_micros: u64,
}

/// Monotonic totals mirrored out of [`ServerMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTotals {
    /// Connections accepted by the listener.
    pub accepted: u64,
    /// Requests a worker finished (any status).
    pub served: u64,
    /// Connections answered 503 at admission.
    pub shed: u64,
    /// Requests answered 504 past their deadline.
    pub deadline_exceeded: u64,
    /// Connections closed for blowing a timeout.
    pub slow_clients_closed: u64,
    /// Requests the wire parser rejected.
    pub bad_requests: u64,
    /// Handler panics caught by worker isolation.
    pub worker_panics: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_mirror_the_registry() {
        let m = ServerMetrics::new();
        m.connection_accepted();
        m.enqueued();
        assert_eq!(m.queued(), 1);
        m.dequeued();
        assert_eq!(m.queued(), 0);
        m.request_started();
        m.request_finished("200", 1500.0);
        m.shed();
        m.deadline_exceeded();
        m.slow_client_closed();
        m.bad_request(400);
        m.worker_panic();

        let totals = m.totals();
        assert_eq!(totals.accepted, 1);
        assert_eq!(totals.served, 1);
        assert_eq!(totals.shed, 1);
        assert_eq!(totals.deadline_exceeded, 1);
        assert_eq!(totals.slow_clients_closed, 1);
        assert_eq!(totals.bad_requests, 1);
        assert_eq!(totals.worker_panics, 1);

        let text = m.registry().render();
        assert!(text.contains("spotlake_server_connections_total 1"));
        assert!(text.contains("spotlake_server_requests_total{status=\"200\"} 1"));
        assert!(text.contains("spotlake_server_shed_total 1"));
        assert!(text.contains("spotlake_server_deadline_exceeded_total 1"));
        assert!(text.contains("spotlake_server_slow_clients_closed_total 1"));
        assert!(text.contains("spotlake_server_bad_requests_total{status=\"400\"} 1"));
        assert!(text.contains("spotlake_server_worker_panics_total 1"));
        assert!(text.contains("spotlake_server_inflight 0"));
        assert!(text.contains("spotlake_server_queue_depth 0"));
        assert!(text.contains("spotlake_server_request_micros_count 1"));
    }

    #[test]
    fn phase_histogram_and_stats_round_trip() {
        let m = ServerMetrics::new();
        for micros in [100.0, 200.0, 400.0] {
            m.phase("queue_wait", micros);
        }
        m.phase("handle", 5_000.0);
        let text = m.registry().render();
        assert!(text.contains("spotlake_server_phase_micros_count{phase=\"queue_wait\"} 3"));
        assert!(text.contains("spotlake_server_phase_micros_count{phase=\"handle\"} 1"));

        let stats = m.phase_stats();
        // Wire order, only observed phases present.
        let phases: Vec<&str> = stats.iter().map(|s| s.phase).collect();
        assert_eq!(phases, ["queue_wait", "handle"]);
        let qw = stats[0];
        assert_eq!(qw.count, 3);
        assert!(qw.p50_micros <= qw.p90_micros && qw.p90_micros <= qw.p99_micros);
        assert!(qw.p50_micros > 0);
    }

    #[test]
    fn slo_progress_mirrors_verdicts_into_the_registry() {
        use spotlake_obs::{SloSet, SloTracker};
        let m = ServerMetrics::new();
        let tracker = SloTracker::new(SloSet::serving_defaults());
        m.slo_progress(&tracker.report());
        m.slo_transition("availability", "page");
        let text = m.registry().render();
        assert!(text.contains("spotlake_slo_evaluations_total 0"), "{text}");
        assert!(
            text.contains("spotlake_slo_alert_state{objective=\"availability\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("spotlake_slo_budget_remaining_ratio{objective=\"handle_latency\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "spotlake_slo_alert_transitions_total{objective=\"availability\",to=\"page\"} 1"
            ),
            "{text}"
        );
    }

    #[test]
    fn telemetry_progress_mirrors_monotonic_counters() {
        let m = ServerMetrics::new();
        m.telemetry_progress(3, 0);
        m.telemetry_progress(5, 2);
        let text = m.registry().render();
        assert!(text.contains("spotlake_telemetry_samples_total 5"));
        assert!(text.contains("spotlake_telemetry_evicted_total 2"));
    }
}
