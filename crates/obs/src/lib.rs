//! Deterministic observability kernel for the SpotLake workspace.
//!
//! The paper's service runs unattended for months; its operators live off
//! telemetry, not post-mortem counters. This crate is the workspace's
//! shared observability substrate, built under one hard constraint: **a
//! replay under a fixed seed must produce bit-identical telemetry**. That
//! rules out wall clocks, randomized sampling, and hash-ordered output
//! anywhere in the kernel. Concretely:
//!
//! * [`Registry`] — counters, gauges, and log-linear-bucket histograms,
//!   addressed by `(family, sorted label set)` and rendered in the
//!   Prometheus text exposition format. Storage is `BTreeMap`-backed, so
//!   the rendered text is a pure function of the recorded observations.
//! * [`names`] — the one declaration of every `spotlake_*` family: a
//!   typed constant holding its name and help, which is all a recording
//!   call passes.
//! * [`TraceJournal`] — a structured journal of spans and events keyed on
//!   *simulation ticks*, rendered as JSON lines with sorted attribute
//!   keys. [`JournalWriter`] writes the same lines from a caller's own
//!   typed records (the gateway's bounded ring of query traces).
//! * [`Clock`] — the only way instrumented components learn what time it
//!   is. Production wiring drives a [`ManualClock`] from the simulator's
//!   tick counter; tests inject whatever they like. Nothing in this
//!   crate (or its users' instrumentation) reads the wall clock.
//! * [`HealthReport`] — a neutral readiness model (ready / degraded /
//!   unhealthy per component) that lets the collector describe breaker
//!   and round state to the gateway without the gateway reverse-engineering
//!   collector internals.
//! * [`FlightRecorder`] — a fixed-size top-N of the most expensive
//!   queries, ranked by a deterministic cost proxy; backs the gateway's
//!   `/debug/queries` dump and `/stats` slow-query listing.
//! * [`RequestRecorder`] — the wire-level counterpart: per-request phase
//!   timelines (queue wait, parse, handle, write) retained top-N by
//!   total time, backing the server's `/debug/requests`. Offsets are
//!   measured by the caller and passed in — this crate stays clock-free.
//!   Both recorders are one [`TopN`], ranked by a key the entry type
//!   supplies ([`Ranked`]), and build an entry only when it is retained.
//! * [`TelemetryRecorder`] — a fixed-capacity ring buffer of
//!   whole-registry samples (counters, gauges, histogram quantiles)
//!   stamped with caller-supplied timestamps, rendered as JSONL for the
//!   server's `/debug/telemetry` time series.
//! * [`QualityMonitor`] — archive data-quality tracking: per-(dataset ×
//!   key) coverage, staleness, and gap detection, exported as
//!   `spotlake_archive_*` gauges and the `/quality` report.
//! * [`SloTracker`] / [`BurnTracker`] — the deterministic SLO engine:
//!   declarative objectives ([`SloSet`]) evaluated over the telemetry
//!   sample stream with error-budget accounting and multi-window
//!   (fast/slow) burn-rate alerting, ok → warning → page. Verdicts are a
//!   pure function of the fed samples, so the live `/debug/slo` endpoint
//!   and the offline `spotlake slo-eval` replay agree byte-for-byte.
//! * [`PhaseSink`] — the phases of a collection round ([`Phase`]),
//!   announced to a sink the caller installs. The crates stay clock-free:
//!   a sink that times phases reads the clock in the caller.
//!
//! Durations recorded here are denominated in deterministic units — ticks
//! or work units (API calls, rows, bytes) — never nanoseconds, which is
//! what makes the `/metrics` byte-identity contract testable.
//!
//! # Example
//!
//! ```
//! use spotlake_obs::names::{COLLECTOR_ROUNDS_TOTAL, COLLECTOR_ROUND_OPS};
//! use spotlake_obs::{ManualClock, Clock, Registry, TraceJournal};
//!
//! let clock = ManualClock::new(3);
//! let registry = Registry::new();
//! registry.counter_add(COLLECTOR_ROUNDS_TOTAL, &[], 1);
//! registry.histogram_record(COLLECTOR_ROUND_OPS, &[("dataset", "sps")], 7.0);
//!
//! let mut journal = TraceJournal::new();
//! let span = journal.begin_span(clock.now(), "round");
//! journal.event(clock.now(), "dataset", &[("dataset", "sps".into())]);
//! journal.end_span(span, clock.now());
//!
//! let rounds = format!("{} 1\n", COLLECTOR_ROUNDS_TOTAL.name);
//! assert!(registry.render().contains(&rounds));
//! assert!(journal.render().contains("\"name\":\"round\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod burn;
mod clock;
mod flight;
mod health;
mod journal;
pub mod json;
mod lifecycle;
pub mod names;
mod phase;
mod quality;
mod registry;
mod slo;
mod telemetry;
mod topn;

pub use burn::{AlertState, AlertTransition, BurnPolicy, BurnTracker};
pub use clock::{Clock, ManualClock};
pub use flight::{FlightEntry, FlightRecorder, QueryCtx};
pub use health::{ComponentHealth, HealthReport, Readiness};
pub use journal::{
    JournalError, JournalWriter, SpanId, TraceJournal, JOURNAL_SCHEMA, JOURNAL_VERSION,
};
pub use lifecycle::{PhaseSpan, RequestRecord, RequestRecorder, REQUEST_PHASES};
pub use phase::{NoPhases, Phase, PhaseGuard, PhaseSink, SharedPhaseSink};
pub use quality::{DatasetQuality, KeyQuality, QualityKey, QualityMonitor, QualityReport};
pub use registry::{HistogramSummary, MetricKind, Registry};
pub use slo::{ObjectiveVerdict, SloReport, SloSet, SloSignal, SloSpec, SloTracker};
pub use telemetry::{TelemetryRecorder, TelemetrySample};
pub use topn::{Ranked, TopN};
