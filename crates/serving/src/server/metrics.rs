//! Server-side metrics: the `spotlake_server_*` families.
//!
//! Every family lives in one shared [`Registry`] (merged into `/metrics`
//! through the gateway's [`OpsContext`](crate::OpsContext)); the
//! shutdown report's totals are read back out of it. Only the two live
//! levels the engine acts on — requests in flight and connections
//! queued — are kept in atomics as well.

use spotlake_obs::names::{
    SERVER_BAD_REQUESTS_TOTAL, SERVER_CONNECTIONS_TOTAL, SERVER_DEADLINE_EXCEEDED_TOTAL,
    SERVER_INFLIGHT, SERVER_PHASE_MICROS, SERVER_QUEUE_DEPTH, SERVER_REQUESTS_TOTAL,
    SERVER_REQUEST_MICROS, SERVER_SHED_TOTAL, SERVER_SLOW_CLIENTS_CLOSED_TOTAL,
    SERVER_WORKER_PANICS_TOTAL, SLO_ALERT_STATE, SLO_ALERT_TRANSITIONS_TOTAL,
    SLO_BUDGET_REMAINING_RATIO, SLO_EVALUATIONS_TOTAL, TELEMETRY_EVICTED_TOTAL,
    TELEMETRY_SAMPLES_TOTAL,
};
use spotlake_obs::{Registry, SloReport, REQUEST_PHASES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters and gauges for the TCP serving path.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    registry: Registry,
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
        self.registry.counter_add(SERVER_CONNECTIONS_TOTAL, &[], 1);
    }

    /// A connection is entering the admission queue. Called *before* the
    /// channel send, so a fast worker's [`dequeued`](Self::dequeued)
    /// always observes the increment first.
    pub fn enqueued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::SeqCst).saturating_add(1);
        self.registry
            .gauge_set(SERVER_QUEUE_DEPTH, &[], depth as f64);
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
        self.registry
            .gauge_set(SERVER_QUEUE_DEPTH, &[], depth as f64);
    }

    /// Connections waiting in the admission queue now. The engine's
    /// fairness rule reads it: while it is non-zero, a response closes
    /// its connection so the worker goes back to the queue.
    pub(crate) fn queued(&self) -> u64 {
        self.queued.load(Ordering::SeqCst)
    }

    /// A connection was answered 503 because the queue was full.
    pub fn shed(&self) {
        self.registry.counter_add(SERVER_SHED_TOTAL, &[], 1);
    }

    /// A worker started handling a request.
    pub fn request_started(&self) {
        let inflight = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.registry
            .gauge_set(SERVER_INFLIGHT, &[], inflight as f64);
    }

    /// A worker finished a request: records the status-labelled counter
    /// and the wall-time histogram, and drops the in-flight gauge.
    pub fn request_finished(&self, status_label: &str, micros: f64) {
        let inflight = self
            .inflight
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        self.registry
            .gauge_set(SERVER_INFLIGHT, &[], inflight as f64);
        self.registry
            .counter_add(SERVER_REQUESTS_TOTAL, &[("status", status_label)], 1);
        self.registry
            .histogram_record(SERVER_REQUEST_MICROS, &[], micros);
    }

    /// One lifecycle phase of a request completed, taking `micros`.
    /// `phase` must be one of [`REQUEST_PHASES`].
    pub fn phase(&self, phase: &'static str, micros: f64) {
        debug_assert!(REQUEST_PHASES.contains(&phase), "unknown phase {phase:?}");
        self.registry
            .histogram_record(SERVER_PHASE_MICROS, &[("phase", phase)], micros);
    }

    /// Mirrors the telemetry recorder's running totals into counters, so
    /// the sampling progress is visible in `/metrics` and inside the
    /// samples themselves. Called by the sampler thread before each
    /// sample with the totals *including* the sample being taken.
    pub fn telemetry_progress(&self, samples_taken: u64, evicted: u64) {
        self.registry
            .counter_set(TELEMETRY_SAMPLES_TOTAL, &[], samples_taken);
        self.registry
            .counter_set(TELEMETRY_EVICTED_TOTAL, &[], evicted);
    }

    /// Mirrors the SLO tracker's latest verdicts into the registry after
    /// each evaluated sample: one evaluation counter plus per-objective
    /// alert-state and budget gauges, so `/metrics` (and the telemetry
    /// samples themselves) carry the scoreboard.
    pub fn slo_progress(&self, report: &SloReport) {
        self.registry
            .counter_set(SLO_EVALUATIONS_TOTAL, &[], report.samples);
        for objective in &report.objectives {
            let labels = [("objective", objective.name.as_str())];
            self.registry
                .gauge_set(SLO_ALERT_STATE, &labels, objective.state.severity() as f64);
            self.registry.gauge_set(
                SLO_BUDGET_REMAINING_RATIO,
                &labels,
                objective.budget_remaining,
            );
        }
    }

    /// An objective's alert state machine moved to `to`.
    pub fn slo_transition(&self, objective: &str, to: &str) {
        self.registry.counter_add(
            SLO_ALERT_TRANSITIONS_TOTAL,
            &[("objective", objective), ("to", to)],
            1,
        );
    }

    /// Per-phase quantile summaries of the phase histogram, one entry per
    /// [`REQUEST_PHASES`] name that has observations, in wire order.
    /// Quantiles are rounded to whole microseconds — these feed the
    /// integer-quantile BENCH_serving.json v2 schema.
    pub fn phase_stats(&self) -> Vec<PhaseStats> {
        let summaries = self.registry.histogram_summaries(SERVER_PHASE_MICROS);
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
        self.registry
            .counter_add(SERVER_DEADLINE_EXCEEDED_TOTAL, &[], 1);
    }

    /// A connection was closed for blowing a read/write timeout. A kept
    /// connection closed for idling between requests is not counted.
    pub fn slow_client_closed(&self) {
        self.registry
            .counter_add(SERVER_SLOW_CLIENTS_CLOSED_TOTAL, &[], 1);
    }

    /// The wire parser rejected a request with `status`.
    pub fn bad_request(&self, status: u16) {
        let status = status.to_string();
        self.registry
            .counter_add(SERVER_BAD_REQUESTS_TOTAL, &[("status", status.as_str())], 1);
    }

    /// A handler panic was caught and converted to a 500.
    pub fn worker_panic(&self) {
        self.registry
            .counter_add(SERVER_WORKER_PANICS_TOTAL, &[], 1);
    }

    /// Point-in-time totals for the shutdown report, each the sum of its
    /// counter family over every label set.
    pub fn totals(&self) -> ServerTotals {
        let total = |family| self.registry.counter_total(family);
        ServerTotals {
            accepted: total(SERVER_CONNECTIONS_TOTAL),
            served: total(SERVER_REQUESTS_TOTAL),
            shed: total(SERVER_SHED_TOTAL),
            deadline_exceeded: total(SERVER_DEADLINE_EXCEEDED_TOTAL),
            slow_clients_closed: total(SERVER_SLOW_CLIENTS_CLOSED_TOTAL),
            bad_requests: total(SERVER_BAD_REQUESTS_TOTAL),
            worker_panics: total(SERVER_WORKER_PANICS_TOTAL),
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

/// Monotonic totals read out of [`ServerMetrics`]' counters.
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
