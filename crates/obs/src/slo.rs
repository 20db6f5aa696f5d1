//! Deterministic SLO engine: declarative objectives evaluated over the
//! telemetry sample stream.
//!
//! The serving layer's raw signals (status-labelled request counters,
//! per-phase latency histograms, queue-depth gauges, shed counters) say
//! what happened; an *objective* says what was supposed to happen. This
//! module turns [`TelemetrySample`] sequences into verdicts:
//!
//! * [`SloSpec`] declares one objective — availability by status class,
//!   a per-phase latency ceiling against the
//!   `spotlake_server_phase_micros` p99 estimate, a queue-depth ceiling,
//!   or a shed-rate ceiling — with a target success ratio.
//! * [`SloTracker`] folds samples into per-objective good/bad unit
//!   streams and feeds them to a [`BurnTracker`] each: error-budget
//!   accounting plus the multi-window ok → warning → page alert state
//!   machine from [`burn`](crate::burn).
//! * [`SloReport`] is the snapshot: budgets, burns, alert states, every
//!   recorded transition, and *exemplars* — the request ids from a
//!   [`RequestRecorder`](crate::RequestRecorder) snapshot that best
//!   explain an alerting objective, joinable at `/debug/requests`.
//!
//! Everything is a pure function of the fed sample sequence: no wall
//! clocks, no ambient state. Feeding the same samples (live from the
//! recorder, or parsed back from a dumped `telemetry.jsonl`) yields
//! byte-identical [`SloReport::render_json`] output, which is what makes
//! the online `/debug/slo` endpoint and the offline `spotlake slo-eval`
//! replay agree by construction.
//!
//! Counter-backed signals (availability, shed rate) are measured as
//! deltas between consecutive samples, so each step weighs by actual
//! traffic. Gauge- and quantile-backed signals (queue depth, phase
//! latency) contribute one unit per sample: good while under the
//! ceiling, bad while over. The phase p99 is a running estimate over the
//! whole run, so the latency objective measures sustained regressions,
//! not single slow requests.

use crate::burn::{AlertState, AlertTransition, BurnPolicy, BurnTracker};
use crate::lifecycle::RequestRecord;
use crate::registry::fmt_f64;
use crate::telemetry::TelemetrySample;
use crate::{json, names};
use std::fmt::Write as _;

/// How many exemplar request ids an alerting objective carries.
const EXEMPLARS_KEPT: usize = 3;

/// The signal one objective watches, and what counts as a bad unit.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// Responses in the 5xx status class are bad; other numeric statuses
    /// are good. Units are per-request (counter deltas).
    Availability,
    /// One unit per sample: bad while the running p99 of the named
    /// request phase exceeds `p99_micros_max`.
    PhaseLatency {
        /// Phase label of `spotlake_server_phase_micros` to watch.
        phase: String,
        /// Ceiling on the phase's p99 estimate, in microseconds.
        p99_micros_max: f64,
    },
    /// One unit per sample: bad while the admission-queue depth gauge
    /// exceeds `max_depth`.
    QueueDepth {
        /// Ceiling on `spotlake_server_queue_depth`.
        max_depth: f64,
    },
    /// Connections shed at admission are bad; admitted ones are good.
    /// Units are per-connection (counter deltas).
    ShedRate,
}

impl SloSignal {
    /// Stable label for rendering (`availability`, `phase_latency:handle`,
    /// `queue_depth`, `shed_rate`).
    pub fn label(&self) -> String {
        match self {
            SloSignal::Availability => "availability".to_owned(),
            SloSignal::PhaseLatency { phase, .. } => format!("phase_latency:{phase}"),
            SloSignal::QueueDepth { .. } => "queue_depth".to_owned(),
            SloSignal::ShedRate => "shed_rate".to_owned(),
        }
    }

    /// The numeric ceiling, for signals that have one.
    pub fn threshold(&self) -> Option<f64> {
        match self {
            SloSignal::PhaseLatency { p99_micros_max, .. } => Some(*p99_micros_max),
            SloSignal::QueueDepth { max_depth } => Some(*max_depth),
            SloSignal::Availability | SloSignal::ShedRate => None,
        }
    }
}

/// One declarative objective: a named signal with a target success ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name — the `objective` label on `spotlake_slo_*` metrics.
    pub name: String,
    /// Target good-unit ratio in `[0, 1]`; `1 - target` is the error
    /// budget.
    pub target: f64,
    /// What the objective watches.
    pub signal: SloSignal,
}

impl SloSpec {
    /// Creates a spec.
    pub fn new(name: &str, target: f64, signal: SloSignal) -> Self {
        SloSpec {
            name: name.to_owned(),
            target,
            signal,
        }
    }
}

/// A full SLO declaration: the objectives plus the shared burn policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSet {
    /// Objectives, evaluated and reported in this order.
    pub objectives: Vec<SloSpec>,
    /// Windows and thresholds for every objective's alert state machine.
    pub policy: BurnPolicy,
}

impl SloSet {
    /// The default serving objectives: 99% non-5xx availability, handle
    /// p99 under 50ms for 95% of samples, queue depth under 32 for 90%
    /// of samples, and at most 5% of connections shed.
    pub fn serving_defaults() -> Self {
        SloSet {
            objectives: vec![
                SloSpec::new("availability", 0.99, SloSignal::Availability),
                SloSpec::new(
                    "handle_latency",
                    0.95,
                    SloSignal::PhaseLatency {
                        phase: "handle".to_owned(),
                        p99_micros_max: 50_000.0,
                    },
                ),
                SloSpec::new(
                    "queue_depth",
                    0.90,
                    SloSignal::QueueDepth { max_depth: 32.0 },
                ),
                SloSpec::new("shed_rate", 0.95, SloSignal::ShedRate),
            ],
            policy: BurnPolicy::default(),
        }
    }
}

/// One objective's live evaluation state.
#[derive(Debug, Clone)]
struct ObjectiveTracker {
    spec: SloSpec,
    burn: BurnTracker,
    /// Cached sampled-value key for gauge/quantile signals.
    gauge_key: Option<String>,
    /// Previous cumulative (bad, total) for counter-delta signals.
    prev_bad: f64,
    prev_total: f64,
}

impl ObjectiveTracker {
    fn new(spec: SloSpec, policy: BurnPolicy) -> Self {
        let gauge_key = match &spec.signal {
            SloSignal::PhaseLatency { phase, .. } => Some(format!(
                "{}_p99{{phase=\"{phase}\"}}",
                names::SERVER_PHASE_MICROS.name
            )),
            SloSignal::QueueDepth { .. } => Some(names::SERVER_QUEUE_DEPTH.name.to_owned()),
            SloSignal::Availability | SloSignal::ShedRate => None,
        };
        ObjectiveTracker {
            burn: BurnTracker::new(spec.target, policy),
            spec,
            gauge_key,
            prev_bad: 0.0,
            prev_total: 0.0,
        }
    }

    /// The `(good, bad)` unit counts this sample contributes.
    fn step_units(&mut self, sample: &TelemetrySample) -> (f64, f64) {
        match &self.spec.signal {
            SloSignal::Availability => {
                let (bad, total) = status_class_totals(sample);
                self.counter_delta(bad, total)
            }
            SloSignal::ShedRate => {
                let bad = sample_value(sample, names::SERVER_SHED_TOTAL.name).unwrap_or(0.0);
                let total =
                    sample_value(sample, names::SERVER_CONNECTIONS_TOTAL.name).unwrap_or(0.0);
                self.counter_delta(bad, total)
            }
            SloSignal::PhaseLatency { p99_micros_max, .. } => {
                match self
                    .gauge_key
                    .as_deref()
                    .and_then(|k| sample_value(sample, k))
                {
                    // No observations yet: the sample carries no units.
                    None => (0.0, 0.0),
                    Some(v) if v > *p99_micros_max => (0.0, 1.0),
                    Some(_) => (1.0, 0.0),
                }
            }
            SloSignal::QueueDepth { max_depth } => {
                match self
                    .gauge_key
                    .as_deref()
                    .and_then(|k| sample_value(sample, k))
                {
                    None => (0.0, 0.0),
                    Some(v) if v > *max_depth => (0.0, 1.0),
                    Some(_) => (1.0, 0.0),
                }
            }
        }
    }

    /// Turns cumulative `(bad, total)` counters into this step's deltas.
    fn counter_delta(&mut self, bad_cum: f64, total_cum: f64) -> (f64, f64) {
        let bad = (bad_cum - self.prev_bad).max(0.0);
        let total = (total_cum - self.prev_total).max(0.0);
        self.prev_bad = bad_cum;
        self.prev_total = total_cum;
        (total - bad, bad)
    }
}

/// Looks up one key in a sample's sorted value list.
fn sample_value(sample: &TelemetrySample, key: &str) -> Option<f64> {
    sample
        .values
        .binary_search_by(|(k, _)| k.as_str().cmp(key))
        .ok()
        .map(|i| sample.values[i].1)
}

/// Cumulative `(bad, total)` over the status-labelled request counter:
/// numeric statuses count toward the total, the 5xx class is bad.
/// Non-numeric labels (aborted connections) are excluded — the client
/// vanished, the server answered nothing.
fn status_class_totals(sample: &TelemetrySample) -> (f64, f64) {
    let family = names::SERVER_REQUESTS_TOTAL.name;
    let start = sample.values.partition_point(|(k, _)| k.as_str() < family);
    let mut bad = 0.0;
    let mut total = 0.0;
    for (key, value) in &sample.values[start..] {
        let Some(series) = key.strip_prefix(family) else {
            break;
        };
        let Some(rest) = series.strip_prefix("{status=\"") else {
            continue;
        };
        let Some(first) = rest.chars().next() else {
            continue;
        };
        if !first.is_ascii_digit() {
            continue;
        }
        total += value;
        if first == '5' {
            bad += value;
        }
    }
    (bad, total)
}

/// Folds telemetry samples into per-objective budgets and alert states.
/// See the module docs for the evaluation model.
#[derive(Debug, Clone)]
pub struct SloTracker {
    objectives: Vec<ObjectiveTracker>,
    policy: BurnPolicy,
    samples: u64,
    last_at_micros: u64,
}

impl SloTracker {
    /// Creates a tracker for `set`, with every objective at Ok and a
    /// full budget.
    pub fn new(set: SloSet) -> Self {
        SloTracker {
            objectives: set
                .objectives
                .into_iter()
                .map(|spec| ObjectiveTracker::new(spec, set.policy))
                .collect(),
            policy: set.policy,
            samples: 0,
            last_at_micros: 0,
        }
    }

    /// Feeds one sample to every objective and returns the alert
    /// transitions it caused, as `(objective name, transition)` pairs in
    /// objective order. Samples must be fed oldest first.
    pub fn observe(&mut self, sample: &TelemetrySample) -> Vec<(String, AlertTransition)> {
        self.samples += 1;
        self.last_at_micros = sample.at_micros;
        let mut out = Vec::new();
        for objective in &mut self.objectives {
            let (good, bad) = objective.step_units(sample);
            if let Some(transition) =
                objective
                    .burn
                    .observe(sample.seq, sample.at_micros, good, bad)
            {
                out.push((objective.spec.name.clone(), transition));
            }
        }
        out
    }

    /// Samples observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The worst alert state across objectives, with a one-line detail
    /// naming the worst offender — the `/health` component summary.
    pub fn health_component(&self) -> (AlertState, String) {
        let worst = self
            .objectives
            .iter()
            .map(|o| o.burn.state())
            .max()
            .unwrap_or(AlertState::Ok);
        if worst == AlertState::Ok {
            return (
                worst,
                format!("{} objectives within budget", self.objectives.len()),
            );
        }
        let offender = self
            .objectives
            .iter()
            .find(|o| o.burn.state() == worst)
            .map(|o| {
                format!(
                    "{} {}: burn fast {:.1}x slow {:.1}x",
                    o.spec.name,
                    o.burn.state().as_str(),
                    o.burn.fast_burn(),
                    o.burn.slow_burn()
                )
            })
            .unwrap_or_default();
        (worst, offender)
    }

    /// Snapshots the tracker into a report. Exemplars start empty; see
    /// [`SloReport::attach_exemplars`].
    pub fn report(&self) -> SloReport {
        let objectives: Vec<ObjectiveVerdict> = self
            .objectives
            .iter()
            .map(|o| {
                let state = o.burn.state();
                let budget_remaining = o.burn.budget_remaining();
                ObjectiveVerdict {
                    name: o.spec.name.clone(),
                    signal: o.spec.signal.clone(),
                    target: o.spec.target,
                    good: o.burn.good(),
                    bad: o.burn.bad(),
                    budget_remaining,
                    fast_burn: o.burn.fast_burn(),
                    slow_burn: o.burn.slow_burn(),
                    state,
                    healthy: state == AlertState::Ok && budget_remaining > 0.0,
                    transitions: o.burn.transitions().to_vec(),
                    exemplar_request_ids: Vec::new(),
                }
            })
            .collect();
        SloReport {
            samples: self.samples,
            last_at_micros: self.last_at_micros,
            policy: self.policy,
            healthy: objectives.iter().all(|o| o.healthy),
            objectives,
        }
    }
}

/// One objective's verdict inside a [`SloReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveVerdict {
    /// Objective name from the spec.
    pub name: String,
    /// The watched signal.
    pub signal: SloSignal,
    /// Target good-unit ratio.
    pub target: f64,
    /// Cumulative good units.
    pub good: f64,
    /// Cumulative bad units.
    pub bad: f64,
    /// Error budget still unspent, in `[0, 1]`.
    pub budget_remaining: f64,
    /// Latest fast-window burn rate.
    pub fast_burn: f64,
    /// Latest slow-window burn rate.
    pub slow_burn: f64,
    /// Current alert state.
    pub state: AlertState,
    /// `true` iff the state is Ok and budget remains — the verdict the
    /// bench gate asserts.
    pub healthy: bool,
    /// Every alert transition recorded, oldest first.
    pub transitions: Vec<AlertTransition>,
    /// Request ids explaining the alert, joinable at `/debug/requests`.
    /// Empty until [`SloReport::attach_exemplars`] runs, and for
    /// objectives that never left Ok.
    pub exemplar_request_ids: Vec<u64>,
}

/// A deterministic snapshot of an [`SloTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Samples the tracker has observed.
    pub samples: u64,
    /// Timestamp of the newest observed sample.
    pub last_at_micros: u64,
    /// The burn policy the verdicts were evaluated under.
    pub policy: BurnPolicy,
    /// `true` iff every objective is healthy.
    pub healthy: bool,
    /// Per-objective verdicts, in spec order.
    pub objectives: Vec<ObjectiveVerdict>,
}

impl SloReport {
    /// The worst alert state across objectives.
    pub fn worst_state(&self) -> AlertState {
        self.objectives
            .iter()
            .map(|o| o.state)
            .max()
            .unwrap_or(AlertState::Ok)
    }

    /// Attaches exemplar request ids to every objective that is alerting
    /// or has alerted: the retained requests that best explain the
    /// objective's failure mode, ranked deterministically (worst first,
    /// ties by ascending id). `records` is a
    /// [`RequestRecorder`](crate::RequestRecorder) snapshot — the same
    /// rows `/debug/requests` serves, so every id returned here resolves
    /// there.
    pub fn attach_exemplars(&mut self, records: &[RequestRecord]) {
        for objective in &mut self.objectives {
            if objective.state == AlertState::Ok && objective.transitions.is_empty() {
                continue;
            }
            objective.exemplar_request_ids = pick_exemplars(records, &objective.signal);
        }
    }

    /// Renders the report as one deterministic JSON document: fixed key
    /// order, objectives in spec order, floats rounded to four decimals.
    /// Equal reports render byte-identically — the `/debug/slo` ↔
    /// `slo-eval` agreement contract.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"spotlake-slo\",\"version\":1");
        let _ = write!(
            out,
            ",\"samples\":{},\"last_at_micros\":{},\"healthy\":{},\"state\":\"{}\"",
            self.samples,
            self.last_at_micros,
            self.healthy,
            self.worst_state().as_str()
        );
        let _ = write!(
            out,
            ",\"policy\":{{\"fast_window_micros\":{},\"slow_window_micros\":{},\"warn_fast\":{},\"warn_slow\":{},\"page_fast\":{},\"page_slow\":{}}}",
            self.policy.fast_window_micros,
            self.policy.slow_window_micros,
            fmt_f64(round4(self.policy.warn_fast)),
            fmt_f64(round4(self.policy.warn_slow)),
            fmt_f64(round4(self.policy.page_fast)),
            fmt_f64(round4(self.policy.page_slow))
        );
        out.push_str(",\"objectives\":[");
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, &o.name);
            out.push_str(",\"signal\":");
            json::write_string(&mut out, &o.signal.label());
            let _ = write!(
                out,
                ",\"target\":{},\"threshold\":{}",
                fmt_f64(round4(o.target)),
                o.signal
                    .threshold()
                    .map_or("null".to_owned(), |t| fmt_f64(round4(t)))
            );
            let _ = write!(
                out,
                ",\"good\":{},\"bad\":{},\"budget_remaining\":{},\"fast_burn\":{},\"slow_burn\":{},\"state\":\"{}\",\"healthy\":{}",
                fmt_f64(round4(o.good)),
                fmt_f64(round4(o.bad)),
                fmt_f64(round4(o.budget_remaining)),
                fmt_f64(round4(o.fast_burn)),
                fmt_f64(round4(o.slow_burn)),
                o.state.as_str(),
                o.healthy
            );
            out.push_str(",\"transitions\":[");
            for (j, t) in o.transitions.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"at_micros\":{},\"from\":\"{}\",\"to\":\"{}\",\"fast_burn\":{},\"slow_burn\":{}}}",
                    t.seq,
                    t.at_micros,
                    t.from.as_str(),
                    t.to.as_str(),
                    fmt_f64(round4(t.fast_burn)),
                    fmt_f64(round4(t.slow_burn))
                );
            }
            out.push_str("],\"exemplar_request_ids\":[");
            for (j, id) in o.exemplar_request_ids.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{id}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Rounds to four decimal places so rendered burns and budgets are
/// byte-stable; non-finite values collapse to 0.
fn round4(v: f64) -> f64 {
    if v.is_finite() {
        (v * 10_000.0).round() / 10_000.0
    } else {
        0.0
    }
}

/// Picks up to [`EXEMPLARS_KEPT`] request ids explaining `signal`'s
/// failure mode: 5xx responses for availability/shed objectives, the
/// slowest offenders of the watched phase for latency, the longest queue
/// waits for queue depth. Falls back to the slowest requests overall
/// when no record matches the filter (e.g. shed connections never reach
/// a worker), so an alert always carries a joinable id when any request
/// was retained.
fn pick_exemplars(records: &[RequestRecord], signal: &SloSignal) -> Vec<u64> {
    let phase_micros = |r: &RequestRecord, phase: &str| {
        r.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.duration_micros())
            .unwrap_or(0)
    };
    let mut scored: Vec<(u64, u64)> = match signal {
        SloSignal::Availability | SloSignal::ShedRate => records
            .iter()
            .filter(|r| r.status.starts_with('5'))
            .map(|r| (r.total_micros, r.request_id))
            .collect(),
        SloSignal::PhaseLatency {
            phase,
            p99_micros_max,
        } => records
            .iter()
            .filter(|r| phase_micros(r, phase) as f64 > *p99_micros_max)
            .map(|r| (phase_micros(r, phase), r.request_id))
            .collect(),
        SloSignal::QueueDepth { .. } => records
            .iter()
            .filter(|r| phase_micros(r, "queue_wait") > 0)
            .map(|r| (phase_micros(r, "queue_wait"), r.request_id))
            .collect(),
    };
    if scored.is_empty() {
        scored = records
            .iter()
            .map(|r| (r.total_micros, r.request_id))
            .collect();
    }
    // Worst first; ties break toward the earlier request id.
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(EXEMPLARS_KEPT);
    scored.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::PhaseSpan;
    use crate::registry::Registry;
    use crate::telemetry::TelemetryRecorder;

    /// Drives a registry through `rounds` of traffic (10 good requests
    /// per round, plus 10 worker 503s per round from `bad_from` on),
    /// sampling every 200ms of stamped time.
    fn availability_run(rounds: u64, bad_from: u64) -> Vec<TelemetrySample> {
        let mut now = 0;
        let registry = Registry::new();
        let recorder = TelemetryRecorder::new(rounds as usize);
        for round in 0..rounds {
            now += 200_000;
            registry.counter_add(names::SERVER_REQUESTS_TOTAL, &[("status", "200")], 10);
            if round >= bad_from {
                registry.counter_add(names::SERVER_REQUESTS_TOTAL, &[("status", "503")], 10);
            }
            recorder.sample(now, [&registry]);
        }
        recorder.snapshot()
    }

    fn feed(samples: &[TelemetrySample]) -> (SloTracker, Vec<(String, AlertTransition)>) {
        let mut tracker = SloTracker::new(SloSet::serving_defaults());
        let mut transitions = Vec::new();
        for sample in samples {
            transitions.extend(tracker.observe(sample));
        }
        (tracker, transitions)
    }

    #[test]
    fn healthy_traffic_passes_every_objective() {
        let (tracker, transitions) = feed(&availability_run(10, u64::MAX));
        assert!(transitions.is_empty(), "{transitions:?}");
        let report = tracker.report();
        assert!(report.healthy, "{report:?}");
        assert_eq!(report.samples, 10);
        for o in &report.objectives {
            assert_eq!(o.state, AlertState::Ok, "{o:?}");
            assert_eq!(o.budget_remaining, 1.0, "{o:?}");
        }
        // Only the availability objective saw units: the run had no
        // phase histogram, queue gauge, or shed counters.
        assert_eq!(report.objectives[0].good, 100.0);
        assert_eq!(report.objectives[1].good + report.objectives[1].bad, 0.0);
    }

    #[test]
    fn status_class_burn_pages_the_availability_objective() {
        let (tracker, transitions) = feed(&availability_run(10, 5));
        let paged: Vec<_> = transitions
            .iter()
            .filter(|(name, t)| name == "availability" && t.to == AlertState::Page)
            .collect();
        assert_eq!(paged.len(), 1, "{transitions:?}");
        assert_eq!(paged[0].1.seq, 5, "pages on the first bad sample");
        let report = tracker.report();
        assert!(!report.healthy);
        let availability = &report.objectives[0];
        assert_eq!(availability.state, AlertState::Page);
        assert_eq!(availability.bad, 50.0);
        assert_eq!(availability.budget_remaining, 0.0);
        assert_eq!(report.worst_state(), AlertState::Page);
        let (health, detail) = tracker.health_component();
        assert_eq!(health, AlertState::Page);
        assert!(detail.starts_with("availability page"), "{detail}");
    }

    #[test]
    fn gauge_and_quantile_objectives_trip_on_their_ceilings() {
        let mut now = 0;
        let registry = Registry::new();
        let recorder = TelemetryRecorder::new(16);
        registry.histogram_record(
            names::SERVER_PHASE_MICROS,
            &[("phase", "handle")],
            400_000.0,
        );
        registry.gauge_set(names::SERVER_QUEUE_DEPTH, &[], 50.0);
        for _ in 0..8 {
            now += 200_000;
            recorder.sample(now, [&registry]);
        }
        let (tracker, _) = feed(&recorder.snapshot());
        let report = tracker.report();
        let by_name = |name: &str| {
            report
                .objectives
                .iter()
                .find(|o| o.name == name)
                .unwrap_or_else(|| panic!("no objective {name}"))
        };
        assert_eq!(by_name("handle_latency").state, AlertState::Page);
        assert_eq!(by_name("queue_depth").state, AlertState::Page);
        assert_eq!(by_name("handle_latency").bad, 8.0);
        // No requests and no sheds: those objectives stay healthy.
        assert!(by_name("availability").healthy);
        assert!(by_name("shed_rate").healthy);
    }

    #[test]
    fn shed_rate_objective_burns_on_admission_sheds() {
        let mut now = 0;
        let registry = Registry::new();
        let recorder = TelemetryRecorder::new(16);
        for round in 0..8u64 {
            now += 200_000;
            registry.counter_add(names::SERVER_CONNECTIONS_TOTAL, &[], 10);
            if round >= 2 {
                registry.counter_add(names::SERVER_SHED_TOTAL, &[], 8);
            }
            recorder.sample(now, [&registry]);
        }
        let (tracker, transitions) = feed(&recorder.snapshot());
        assert!(
            transitions
                .iter()
                .any(|(name, t)| name == "shed_rate" && t.to == AlertState::Page),
            "{transitions:?}"
        );
        let report = tracker.report();
        let shed = report
            .objectives
            .iter()
            .find(|o| o.name == "shed_rate")
            .unwrap();
        assert_eq!(shed.bad, 48.0);
        assert_eq!(shed.budget_remaining, 0.0);
    }

    #[test]
    fn exemplars_join_alerting_objectives_to_request_records() {
        fn record(id: u64, status: &str, handle: u64, queue: u64) -> RequestRecord {
            RequestRecord {
                request_id: id,
                target: "/query".to_owned(),
                status: status.to_owned(),
                total_micros: handle + queue,
                phases: vec![
                    PhaseSpan {
                        phase: "queue_wait",
                        start_micros: 0,
                        end_micros: queue,
                    },
                    PhaseSpan {
                        phase: "handle",
                        start_micros: queue,
                        end_micros: queue + handle,
                    },
                ],
            }
        }
        let records = vec![
            record(1, "200", 10, 5),
            record(2, "503", 900, 5),
            record(3, "503", 700, 5),
            record(4, "200", 80_000, 9_000),
        ];
        let (tracker, _) = feed(&availability_run(10, 5));
        let mut report = tracker.report();
        report.attach_exemplars(&records);
        let availability = &report.objectives[0];
        // 5xx records, slowest first.
        assert_eq!(availability.exemplar_request_ids, vec![2, 3]);
        // Healthy objectives carry none.
        let latency = &report.objectives[1];
        assert!(latency.exemplar_request_ids.is_empty(), "{latency:?}");
    }

    #[test]
    fn render_is_byte_identical_across_replays_and_parse_round_trips() {
        let samples = availability_run(10, 5);
        let (tracker, _) = feed(&samples);
        let direct = tracker.report().render_json();
        // Replaying the same samples yields the same bytes.
        let (replayed, _) = feed(&samples);
        assert_eq!(direct, replayed.report().render_json());
        // Replaying through the JSONL dump-and-parse path agrees too —
        // the /debug/slo ↔ slo-eval contract. `jsonl` is rebuilt in the
        // exact `render_jsonl` wire shape.
        let jsonl: String = samples.iter().map(render_one).collect();
        let parsed = TelemetrySample::parse_jsonl(&jsonl).expect("round-trip parse");
        assert_eq!(parsed, samples);
        let (from_disk, _) = feed(&parsed);
        assert_eq!(direct, from_disk.report().render_json());
        assert!(direct.starts_with("{\"schema\":\"spotlake-slo\",\"version\":1,"));
        assert!(direct.contains("\"to\":\"page\""), "{direct}");
    }

    /// Renders one sample the way `TelemetryRecorder::render_jsonl` does.
    fn render_one(sample: &TelemetrySample) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"at_micros\":{},\"metrics\":{{",
            sample.seq, sample.at_micros
        );
        for (i, (key, value)) in sample.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, key);
            let _ = write!(out, ":{}", fmt_f64(*value));
        }
        out.push_str("}}\n");
        out
    }
}
