//! The metric registry and its Prometheus text exposition.
//!
//! Families are stored in a `BTreeMap` keyed by family name, series in a
//! `BTreeMap` keyed by the sorted label set, so [`Registry::render`] is a
//! pure function of the recorded observations — the backbone of the
//! workspace's byte-identical `/metrics` contract. Recording goes through
//! shared references (`Mutex` inside): read paths like the store's query
//! handlers can count themselves without threading `&mut` through every
//! caller, and the serving layer's worker threads can share one registry.
//! A poisoned lock is recovered rather than propagated — a panic in one
//! worker must not take the whole metrics surface down with it (every
//! mutation here is a single whole-value update, so the protected map is
//! never observable in a half-written state).
//!
//! Recording into a series that exists allocates nothing: a family keeps
//! its series in one `Vec` sorted by label set, and a call's labels are
//! sorted in a stack copy and binary-searched against it. Only a new series
//! copies its labels into owned strings.

use crate::names::{Counter, Gauge, Histogram};
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock. See the module
/// docs for why poisoning is survivable here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Distribution over fixed buckets.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// A new series' value: zero, or an empty histogram.
    fn zero(self) -> Value {
        match self {
            MetricKind::Counter => Value::Counter(0),
            MetricKind::Gauge => Value::Gauge(0.0),
            MetricKind::Histogram => Value::Histogram {
                counts: vec![0; BUCKET_BOUNDS.len()],
                sum: 0.0,
                count: 0,
            },
        }
    }
}

/// Sorted `(key, value)` pairs identifying one series within a family.
type LabelSet = Vec<(String, String)>;

#[derive(Debug, Clone)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram {
        /// Per-bucket (non-cumulative) counts, one per bound.
        counts: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

#[derive(Debug, Clone)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Every series, sorted by label set.
    series: Vec<(LabelSet, Value)>,
}

impl Family {
    /// Where the series labelled `sorted` (sorted pairs) sits, or where
    /// it would be inserted.
    fn find(&self, sorted: &[(&str, &str)]) -> Result<usize, usize> {
        self.series
            .binary_search_by(|(set, _)| cmp_labels(set, sorted))
    }

    /// The series labelled `labels` (any order), if it exists.
    fn get(&self, labels: &[(&str, &str)]) -> Option<&Value> {
        with_sorted(labels, |sorted| self.find(sorted).ok()).map(|at| &self.series[at].1)
    }

    /// Adds `series` to this family, replacing any series of the same
    /// label set.
    fn merge(&mut self, series: Vec<(LabelSet, Value)>) {
        for (labels, value) in series {
            match self.series.binary_search_by(|(set, _)| set.cmp(&labels)) {
                Ok(at) => self.series[at].1 = value,
                Err(at) => self.series.insert(at, (labels, value)),
            }
        }
    }
}

/// The one histogram bucket layout: upper bounds 1..9, 10..90, up to
/// 100 000..900 000 — nine linear steps per decade over six decades.
/// `+Inf` is implicit.
const BUCKET_BOUNDS: [f64; 54] = log_linear_bounds();

const fn log_linear_bounds() -> [f64; 54] {
    let mut bounds = [0.0; 54];
    let mut scale = 1.0;
    let mut i = 0;
    while i < bounds.len() {
        bounds[i] = (i % 9 + 1) as f64 * scale;
        if i % 9 == 8 {
            scale *= 10.0;
        }
        i += 1;
    }
    bounds
}

/// A registry of metric families.
///
/// All recording methods take `&self`; see the module docs for why. The
/// registry is `Send + Sync`: the serving layer's worker threads record
/// into one shared instance. A family is named by its typed constant
/// (see [`names`](crate::names)), whose type fixes the kind; two
/// constants that share a name but not a kind are a programming error
/// and panic on the second recording.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            families: Mutex::new(lock(&self.families).clone()),
        }
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to a counter series, creating family and series on
    /// first use.
    pub fn counter_add(&self, family: Counter, labels: &[(&str, &str)], delta: u64) {
        self.with_series(family.name, family.help, MetricKind::Counter, labels, |v| {
            if let Value::Counter(c) = v {
                *c += delta;
            }
        });
    }

    /// Sets a counter series to an externally tracked running total —
    /// for scraping components that keep their own monotonic counts. The
    /// stored value never decreases.
    pub fn counter_set(&self, family: Counter, labels: &[(&str, &str)], total: u64) {
        self.with_series(family.name, family.help, MetricKind::Counter, labels, |v| {
            if let Value::Counter(c) = v {
                *c = (*c).max(total);
            }
        });
    }

    /// The sum of a counter family over all its series; 0 when nothing
    /// has been recorded.
    pub fn counter_total(&self, family: Counter) -> u64 {
        let families = lock(&self.families);
        let Some(family) = families.get(family.name) else {
            return 0;
        };
        family
            .series
            .iter()
            .map(|(_, v)| match v {
                Value::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Sets a gauge series.
    pub fn gauge_set(&self, family: Gauge, labels: &[(&str, &str)], value: f64) {
        self.with_series(family.name, family.help, MetricKind::Gauge, labels, |v| {
            if let Value::Gauge(g) = v {
                *g = value;
            }
        });
    }

    /// Records `value` into a histogram series over the one bucket
    /// layout (1 to 900 000 in 9 steps per decade).
    pub fn histogram_record(&self, family: Histogram, labels: &[(&str, &str)], value: f64) {
        let kind = MetricKind::Histogram;
        self.with_series(family.name, family.help, kind, labels, |v| {
            if let Value::Histogram { counts, sum, count } = v {
                if let Some(i) = BUCKET_BOUNDS.iter().position(|&b| value <= b) {
                    counts[i] += 1;
                }
                *sum += value;
                *count += 1;
            }
        });
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) of one histogram series
    /// by linear interpolation inside its log-linear buckets. Observations
    /// in the implicit `+Inf` bucket are clamped to the last finite bound —
    /// the estimate is a floor, not a fabricated tail. Returns `None` if
    /// the family or series is missing or empty.
    pub fn histogram_quantile(
        &self,
        family: Histogram,
        labels: &[(&str, &str)],
        q: f64,
    ) -> Option<f64> {
        let families = lock(&self.families);
        let series = families.get(family.name)?.get(labels);
        let Some(Value::Histogram { counts, count, .. }) = series else {
            return None;
        };
        quantile_from_buckets(counts, *count, q)
    }

    /// Quantile summaries (p50/p90/p99) for every series of a histogram
    /// family, sorted by label set. Returns an empty vector if the family
    /// is missing.
    pub fn histogram_summaries(&self, family: Histogram) -> Vec<HistogramSummary> {
        let families = lock(&self.families);
        let Some(family) = families.get(family.name) else {
            return Vec::new();
        };
        family
            .series
            .iter()
            .filter_map(|(labels, value)| {
                let Value::Histogram { counts, sum, count } = value else {
                    return None;
                };
                Some(HistogramSummary {
                    labels: labels.clone(),
                    count: *count,
                    sum: *sum,
                    p50: quantile_from_buckets(counts, *count, 0.50)?,
                    p90: quantile_from_buckets(counts, *count, 0.90)?,
                    p99: quantile_from_buckets(counts, *count, 0.99)?,
                })
            })
            .collect()
    }

    /// Flattens every series into `(key, value)` pairs for time-series
    /// sampling (the [`TelemetryRecorder`](crate::TelemetryRecorder)'s
    /// view of a registry). Counters and gauges yield one pair keyed
    /// `name{labels}`; histograms yield `name_count{labels}` plus
    /// interpolated `name_p50{labels}` / `name_p99{labels}` estimates.
    /// Keys come out sorted (BTreeMap iteration), so the flattening is a
    /// pure function of the recorded observations.
    pub fn sampled_values(&self) -> Vec<(String, f64)> {
        let families = lock(&self.families);
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, value) in &family.series {
                let series = render_labels(labels, None);
                match value {
                    Value::Counter(c) => out.push((format!("{name}{series}"), *c as f64)),
                    Value::Gauge(g) => out.push((format!("{name}{series}"), *g)),
                    Value::Histogram { counts, count, .. } => {
                        out.push((format!("{name}_count{series}"), *count as f64));
                        for (q, suffix) in [(0.50, "p50"), (0.99, "p99")] {
                            if let Some(v) = quantile_from_buckets(counts, *count, q) {
                                out.push((format!("{name}_{suffix}{series}"), v));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.families).is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Families are sorted by name, series by label set, so output is a
    /// deterministic function of the recorded observations.
    pub fn render(&self) -> String {
        Self::render_merged([self])
    }

    /// Renders several registries as one exposition document. Families are
    /// merged by name across registries (the wiring keeps them disjoint by
    /// prefix; a name collision with mismatched kinds panics), then sorted
    /// globally — callers get one coherent document regardless of which
    /// layer owns which family.
    pub fn render_merged<'a>(registries: impl IntoIterator<Item = &'a Registry>) -> String {
        let mut merged: BTreeMap<&'static str, Family> = BTreeMap::new();
        for registry in registries {
            // Hold each registry's lock only for the snapshot clone;
            // the merge and render below run against the copy, so a
            // scrape never stalls the threads recording metrics.
            let families = lock(&registry.families).clone();
            for (name, family) in families {
                match merged.entry(name) {
                    Entry::Vacant(e) => {
                        e.insert(family);
                    }
                    Entry::Occupied(mut e) => {
                        let existing = e.get_mut();
                        assert_eq!(
                            existing.kind, family.kind,
                            "metric family {name:?} has conflicting kinds across registries"
                        );
                        existing.merge(family.series);
                    }
                }
            }
        }

        let mut out = String::new();
        for (name, family) in &merged {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, value) in &family.series {
                match value {
                    Value::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {c}", render_labels(labels, None));
                    }
                    Value::Gauge(g) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, None), fmt_f64(*g));
                    }
                    Value::Histogram { counts, sum, count } => {
                        let mut cumulative = 0;
                        for (bound, bucket) in BUCKET_BOUNDS.iter().zip(counts) {
                            cumulative += bucket;
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(&fmt_f64(*bound)))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {count}",
                            render_labels(labels, Some("+Inf"))
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels, None),
                            fmt_f64(*sum)
                        );
                        let _ =
                            writeln!(out, "{name}_count{} {count}", render_labels(labels, None));
                    }
                }
            }
        }
        out
    }

    fn with_series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        update: impl FnOnce(&mut Value),
    ) {
        let mut families = lock(&self.families);
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: Vec::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name:?} already registered as {:?}",
            family.kind
        );
        let at = with_sorted(labels, |sorted| match family.find(sorted) {
            Ok(at) => at,
            Err(at) => {
                let owned = sorted
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                    .collect();
                family.series.insert(at, (owned, kind.zero()));
                at
            }
        });
        update(&mut family.series[at].1);
    }
}

/// One histogram series summarized as interpolated quantiles, as returned
/// by [`Registry::histogram_summaries`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Sorted `(key, value)` label pairs identifying the series.
    pub labels: Vec<(String, String)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Interpolates the `q`-quantile from per-bucket (non-cumulative) counts.
/// Standard Prometheus-style estimation: find the bucket holding the
/// target rank, interpolate linearly between its lower and upper bound.
/// Ranks landing in the `+Inf` bucket clamp to the last finite bound.
fn quantile_from_buckets(counts: &[u64], total: u64, q: f64) -> Option<f64> {
    let bounds = &BUCKET_BOUNDS;
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let target = q * total as f64;
    let mut cumulative = 0u64;
    for (i, (&bound, &bucket)) in bounds.iter().zip(counts).enumerate() {
        let prev = cumulative;
        cumulative += bucket;
        if (cumulative as f64) >= target {
            if bucket == 0 {
                return Some(bound);
            }
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let fraction = (target - prev as f64) / bucket as f64;
            return Some(lower + (bound - lower) * fraction.clamp(0.0, 1.0));
        }
    }
    // Rank falls in the +Inf bucket: clamp to the largest finite bound.
    bounds.last().copied()
}

/// Label pairs a call may pass and still be sorted on the stack; longer
/// sets (none today) sort in a heap copy.
const STACK_LABELS: usize = 8;

/// Calls `f` with a sorted copy of `labels`, on the stack.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.len() <= STACK_LABELS {
        let mut buf = [("", ""); STACK_LABELS];
        let sorted = &mut buf[..labels.len()];
        sorted.copy_from_slice(labels);
        sorted.sort_unstable();
        f(sorted)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        f(&sorted)
    }
}

/// Orders a stored label set against sorted borrowed pairs exactly as
/// two stored sets order (pair by pair, key then value, shorter first).
fn cmp_labels(stored: &LabelSet, sorted: &[(&str, &str)]) -> Ordering {
    stored
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .cmp(sorted.iter().copied())
}

/// Renders `{k="v",...}` (empty string for no labels); `le` — already
/// formatted — is appended last, per Prometheus convention.
fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a value the way Prometheus clients expect: integral values
/// without a trailing `.0`, everything else via the shortest-roundtrip
/// float formatting (deterministic in Rust). Shared with the telemetry
/// JSONL renderer so both surfaces format numbers identically.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Counter = Counter {
        name: "a_total",
        help: "A.",
    };
    const B: Counter = Counter {
        name: "b_total",
        help: "B.",
    };
    const T: Counter = Counter {
        name: "t",
        help: "T.",
    };
    const G: Gauge = Gauge {
        name: "g",
        help: "G.",
    };
    const H: Histogram = Histogram {
        name: "h",
        help: "H.",
    };

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let r = Registry::new();
        r.counter_add(B, &[("x", "2")], 1);
        r.counter_add(A, &[], 3);
        r.counter_add(A, &[], 2);
        r.counter_add(B, &[("x", "1")], 7);
        let text = r.render();
        assert!(text.contains("# HELP a_total A.\n# TYPE a_total counter\na_total 5\n"));
        // Families sorted by name, series by label set.
        let a = text.find("a_total 5").unwrap();
        let b1 = text.find("b_total{x=\"1\"} 7").unwrap();
        let b2 = text.find("b_total{x=\"2\"} 1").unwrap();
        assert!(a < b1 && b1 < b2);
    }

    #[test]
    fn counter_set_is_monotonic() {
        let r = Registry::new();
        r.counter_set(T, &[], 5);
        r.counter_set(T, &[], 3);
        assert!(r.render().contains("t 5"));
        r.counter_set(T, &[], 9);
        assert!(r.render().contains("t 9"));
    }

    #[test]
    fn counter_total_sums_every_series() {
        let r = Registry::new();
        assert_eq!(r.counter_total(B), 0);
        r.counter_add(B, &[("x", "1")], 7);
        r.counter_add(B, &[("x", "2")], 1);
        r.counter_set(A, &[], 4);
        assert_eq!(r.counter_total(B), 8);
        assert_eq!(r.counter_total(A), 4);
    }

    #[test]
    fn gauges_overwrite() {
        let r = Registry::new();
        r.gauge_set(G, &[("d", "sps")], 2.0);
        r.gauge_set(G, &[("d", "sps")], 0.5);
        assert!(r.render().contains("g{d=\"sps\"} 0.5"));
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.counter_add(T, &[("b", "2"), ("a", "1")], 1);
        r.counter_add(T, &[("a", "1"), ("b", "2")], 1);
        // Same series regardless of caller's label order.
        assert!(r.render().contains("t{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn help_and_label_values_are_escaped() {
        let r = Registry::new();
        let family = Counter {
            name: "t",
            help: "line\nbreak \\ slash",
        };
        r.counter_add(family, &[("v", "a\"b\\c\nd")], 1);
        let text = r.render();
        assert!(text.contains("# HELP t line\\nbreak \\\\ slash"));
        assert!(text.contains("t{v=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn histogram_invariants_hold() {
        let r = Registry::new();
        for v in [0.5, 3.0, 3.0, 7.0, 2_000_000.0] {
            r.histogram_record(H, &[], v);
        }
        let text = r.render();
        // _bucket counts are cumulative and end at the +Inf == _count value.
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"5\"} 3"));
        assert!(text.contains("h_bucket{le=\"10\"} 4"));
        assert!(text.contains("h_bucket{le=\"900000\"} 4"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("h_sum 2000013.5"));
        assert!(text.contains("h_count 5"));
        assert!(text.contains("# TYPE h histogram"));
    }

    #[test]
    fn default_buckets_are_log_linear() {
        assert_eq!(
            BUCKET_BOUNDS[..9],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        );
        assert_eq!(BUCKET_BOUNDS[9..12], [10.0, 20.0, 30.0]);
        assert_eq!(BUCKET_BOUNDS.last(), Some(&900_000.0));
        let r = Registry::new();
        r.histogram_record(H, &[], 250_000.0);
        assert!(r.render().contains("h_bucket{le=\"300000\"} 1"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter_add(T, &[], 1);
        r.gauge_set(
            Gauge {
                name: "t",
                help: "T.",
            },
            &[],
            1.0,
        );
    }

    #[test]
    fn poisoned_registry_recovers_for_later_readers_and_writers() {
        // The kind-mismatch assert fires while the families guard is
        // held, genuinely poisoning the Mutex — exactly what a worker
        // panic mid-record does. Every later acquisition must recover
        // via PoisonError::into_inner, not propagate the panic forever.
        let r = Registry::new();
        r.counter_add(T, &[], 1);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.gauge_set(
                Gauge {
                    name: "t",
                    help: "T.",
                },
                &[],
                1.0,
            );
        }));
        assert!(poison.is_err(), "mismatch must panic under the guard");
        // Reads recover and see the pre-panic state…
        assert!(r.render().contains("t 1"), "{}", r.render());
        // …and writes keep accumulating on the recovered lock.
        r.counter_add(T, &[], 2);
        assert!(r.render().contains("t 3"), "{}", r.render());
    }

    #[test]
    fn merged_render_combines_disjoint_families() {
        let a = Registry::new();
        a.counter_add(A, &[], 1);
        let b = Registry::new();
        b.gauge_set(G, &[], 2.0);
        let text = Registry::render_merged([&a, &b]);
        assert!(text.contains("a_total 1"));
        assert!(text.contains("g 2"));
        // Each family declared exactly once.
        assert_eq!(text.matches("# TYPE ").count(), 2);
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let r = Registry::new();
            for i in 0..50 {
                let label = format!("s{}", i % 7);
                r.counter_add(A, &[("shard", &label)], i);
                r.histogram_record(H, &[("shard", &label)], i as f64);
            }
            r
        };
        assert_eq!(build().render(), build().render());
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        // 10 observations spread over (0, 40]: above 10 the buckets are
        // 10 wide, and quantiles track the uniform distribution's inverse
        // CDF bucket by bucket.
        for v in [0.5, 6.0, 12.0, 16.0, 22.0, 26.0, 27.0, 32.0, 36.0, 38.0] {
            r.histogram_record(H, &[("op", "q")], v);
        }
        let p50 = r.histogram_quantile(H, &[("op", "q")], 0.50).unwrap();
        // Rank 5 lands in the (20,30] bucket (cumulative 4 → 7), one third in.
        assert!((p50 - (20.0 + 10.0 / 3.0)).abs() < 1e-9, "{p50}");
        let p90 = r.histogram_quantile(H, &[("op", "q")], 0.90).unwrap();
        assert!((30.0..=40.0).contains(&p90), "{p90}");
        let p0 = r.histogram_quantile(H, &[("op", "q")], 0.0).unwrap();
        assert_eq!(p0, 0.0, "zeroth quantile is the distribution floor");
        assert_eq!(r.histogram_quantile(H, &[("op", "q")], 1.5), None);
        assert_eq!(r.histogram_quantile(H, &[("op", "zzz")], 0.5), None);
        let absent = Histogram {
            name: "nope",
            help: "N.",
        };
        assert_eq!(r.histogram_quantile(absent, &[], 0.5), None);
    }

    #[test]
    fn quantiles_clamp_overflow_to_last_finite_bound() {
        let r = Registry::new();
        for v in [0.5, 5e6, 6e6, 7e6] {
            r.histogram_record(H, &[], v);
        }
        // p99 rank lands in +Inf: clamped, not extrapolated.
        assert_eq!(r.histogram_quantile(H, &[], 0.99), Some(900_000.0));
    }

    #[test]
    fn summaries_cover_every_series_sorted() {
        let r = Registry::new();
        for (shard, v) in [("b", 5.0), ("a", 3.0), ("a", 9.0)] {
            r.histogram_record(H, &[("shard", shard)], v);
        }
        let summaries = r.histogram_summaries(H);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].labels, vec![("shard".into(), "a".into())]);
        assert_eq!(summaries[0].count, 2);
        assert_eq!(summaries[0].sum, 12.0);
        assert!(summaries[0].p50 <= summaries[0].p90);
        assert!(summaries[0].p90 <= summaries[0].p99);
        assert_eq!(summaries[1].labels, vec![("shard".into(), "b".into())]);
        let absent = Histogram {
            name: "absent",
            help: "A.",
        };
        assert!(r.histogram_summaries(absent).is_empty());
    }

    #[test]
    fn quantile_estimates_are_not_rendered_into_the_exposition() {
        let r = Registry::new();
        r.histogram_record(H, &[], 5.0);
        let _ = r.histogram_summaries(H);
        let text = r.render();
        assert!(!text.contains("quantile"), "{text}");
        assert!(!text.contains("p50"), "{text}");
    }

    #[test]
    fn sampled_values_flatten_every_kind() {
        let r = Registry::new();
        r.counter_add(A, &[("k", "a")], 3);
        r.gauge_set(G, &[], 2.5);
        r.histogram_record(H, &[], 15.0);
        let values = r.sampled_values();
        let keys: Vec<&str> = values.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a_total{k=\"a\"}", "g", "h_count", "h_p50", "h_p99"]);
        let get = |key: &str| values.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        assert_eq!(get("a_total{k=\"a\"}"), Some(3.0));
        assert_eq!(get("g"), Some(2.5));
        assert_eq!(get("h_count"), Some(1.0));
        assert!(get("h_p50").is_some_and(|v| (10.0..=20.0).contains(&v)));
        // Pure function of the observations.
        assert_eq!(values, r.sampled_values());
    }

    /// The allocate-then-insert path recording took before lookups went
    /// allocation-free: every call copies its labels into a sorted
    /// `Vec<(String, String)>` and files it in a `BTreeMap`.
    #[derive(Default)]
    struct AllocatingRegistry {
        families: BTreeMap<&'static str, (&'static str, MetricKind, BTreeMap<LabelSet, Value>)>,
    }

    impl AllocatingRegistry {
        fn with_series(
            &mut self,
            name: &'static str,
            help: &'static str,
            kind: MetricKind,
            labels: &[(&str, &str)],
            update: impl FnOnce(&mut Value),
        ) {
            let family = self
                .families
                .entry(name)
                .or_insert_with(|| (help, kind, BTreeMap::new()));
            let mut set: LabelSet = labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect();
            set.sort();
            update(family.2.entry(set).or_insert_with(|| kind.zero()));
        }

        /// Renders through the one exposition writer, so only the series
        /// lookup and order are under test.
        fn render(&self) -> String {
            let families = self
                .families
                .iter()
                .map(|(name, (help, kind, series))| {
                    let series = series.iter().map(|(l, v)| (l.clone(), v.clone())).collect();
                    let family = Family {
                        help,
                        kind: *kind,
                        series,
                    };
                    (*name, family)
                })
                .collect();
            Registry {
                families: Mutex::new(families),
            }
            .render()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(u64),
        Set(u64),
        Gauge(f64),
        Observe(f64),
    }

    const KEYS: [&str; 4] = ["op", "table", "status", "path"];
    const VALUES: [&str; 4] = ["a", "b", "query", "x\"y"];

    proptest::proptest! {
        /// Any label order hits one series, and the rendered document is
        /// byte for byte what the allocate-then-insert path rendered.
        #[test]
        fn lookup_matches_the_allocating_registry(
            calls in proptest::collection::vec(
                (
                    0usize..4,
                    proptest::collection::vec((0usize..4, 0usize..4), 0..4),
                    0usize..16,
                    0u64..50,
                ),
                1..80,
            ),
        ) {
            let fresh = Registry::new();
            let mut reference = AllocatingRegistry::default();
            let mut sets = std::collections::BTreeSet::new();
            for (family, pairs, shuffle, n) in &calls {
                let mut labels: Vec<(&str, &str)> =
                    pairs.iter().map(|&(k, v)| (KEYS[k], VALUES[v])).collect();
                // A pseudo-random rotation and reversal of the caller's order.
                if !labels.is_empty() {
                    let by = shuffle % labels.len();
                    labels.rotate_left(by);
                    if *shuffle >= 8 {
                        labels.reverse();
                    }
                }
                let op = match family {
                    0 => Op::Add(*n),
                    1 => Op::Set(*n),
                    2 => Op::Gauge(*n as f64 / 4.0),
                    _ => Op::Observe(*n as f64 * 1.5),
                };
                // Counters `a_total` (add) and `b_total` (set) keep their kinds apart.
                let (name, help, kind) = match op {
                    Op::Add(_) => (A.name, A.help, MetricKind::Counter),
                    Op::Set(_) => (B.name, B.help, MetricKind::Counter),
                    Op::Gauge(_) => (G.name, G.help, MetricKind::Gauge),
                    Op::Observe(_) => (H.name, H.help, MetricKind::Histogram),
                };
                let update = |v: &mut Value| match (v, &op) {
                    (Value::Counter(c), Op::Add(d)) => *c += d,
                    (Value::Counter(c), Op::Set(t)) => *c = (*c).max(*t),
                    (Value::Gauge(g), Op::Gauge(x)) => *g = *x,
                    (Value::Histogram { counts, sum, count }, Op::Observe(x)) => {
                        if let Some(i) = BUCKET_BOUNDS.iter().position(|&b| *x <= b) {
                            counts[i] += 1;
                        }
                        *sum += x;
                        *count += 1;
                    }
                    _ => unreachable!("each family has one kind"),
                };
                reference.with_series(name, help, kind, &labels, update);
                match op {
                    Op::Add(d) => fresh.counter_add(A, &labels, d),
                    Op::Set(t) => fresh.counter_set(B, &labels, t),
                    Op::Gauge(x) => fresh.gauge_set(G, &labels, x),
                    Op::Observe(x) => fresh.histogram_record(H, &labels, x),
                }
                let mut sorted = labels.clone();
                sorted.sort();
                sets.insert((name, sorted));
            }
            let series: usize = lock(&fresh.families).values().map(|f| f.series.len()).sum();
            proptest::prop_assert_eq!(series, sets.len());
            proptest::prop_assert_eq!(fresh.render(), reference.render());
        }
    }

    #[test]
    fn float_formatting_drops_integral_fraction() {
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-3.0), "-3");
    }
}
