//! Telemetry time-series: a fixed-capacity ring buffer of whole-registry
//! samples.
//!
//! Point-in-time `/metrics` scrapes cannot answer "when during the run
//! did the queue start backing up?" — that needs a time series. The
//! [`TelemetryRecorder`] takes periodic samples of one or more
//! [`Registry`] instances (every counter and gauge, plus interpolated
//! p50/p99 estimates per histogram series via
//! [`Registry::sampled_values`]) and retains the most recent `capacity`
//! of them, oldest evicted first.
//!
//! Like everything in this crate, the recorder itself never reads a
//! clock: the caller stamps each sample with `at_micros` (the serving
//! layer passes elapsed wall micros since server start; tests pass
//! fixed steps). Two runs feeding identical
//! registries and timestamps produce byte-identical JSONL.

use crate::json;
use crate::registry::{fmt_f64, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock: a panicking
/// sampler thread must not take the telemetry surface down (mutations
/// are whole-value updates, never half-written).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One point-in-time capture of the sampled registries.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Monotonic sample number (0-based, never reused after eviction).
    pub seq: u64,
    /// Caller-supplied timestamp in microseconds.
    pub at_micros: u64,
    /// Flattened `(key, value)` pairs, sorted by key — the union of
    /// every sampled registry's [`Registry::sampled_values`].
    pub values: Vec<(String, f64)>,
}

impl TelemetrySample {
    /// Parses samples back from the [`TelemetryRecorder::render_jsonl`]
    /// wire format: one `{"seq":N,"at_micros":N,"metrics":{...}}` object
    /// per line, blank lines skipped. This is the offline half of the
    /// SLO determinism contract — `spotlake slo-eval` replays a dumped
    /// series through the same [`SloTracker`](crate::SloTracker) the
    /// live server runs. Errors name the offending 1-based line.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetrySample>, String> {
        let mut out = Vec::new();
        for (index, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            out.push(
                Self::parse_line(line).map_err(|e| format!("telemetry line {}: {e}", index + 1))?,
            );
        }
        Ok(out)
    }

    /// Parses one rendered sample line.
    fn parse_line(line: &str) -> Result<TelemetrySample, String> {
        let rest = line
            .strip_prefix("{\"seq\":")
            .ok_or("expected {\"seq\":...")?;
        let (seq, rest) = take_u64(rest)?;
        let rest = rest
            .strip_prefix(",\"at_micros\":")
            .ok_or("expected \"at_micros\"")?;
        let (at_micros, rest) = take_u64(rest)?;
        let mut rest = rest
            .strip_prefix(",\"metrics\":{")
            .ok_or("expected \"metrics\" object")?;
        let mut values: Vec<(String, f64)> = Vec::new();
        if let Some(after) = rest.strip_prefix("}}") {
            if !after.is_empty() {
                return Err("trailing data after sample object".to_owned());
            }
            return Ok(TelemetrySample {
                seq,
                at_micros,
                values,
            });
        }
        loop {
            let mut end = 0;
            let key = json::parse_string(rest, &mut end)?;
            let body = rest[end..]
                .strip_prefix(':')
                .ok_or("expected ':' after key")?;
            let (value, body) = take_f64(body)?;
            values.push((key, value));
            if let Some(next) = body.strip_prefix(',') {
                rest = next;
                continue;
            }
            let after = body
                .strip_prefix("}}")
                .ok_or("expected ',' or '}}' after value")?;
            if !after.is_empty() {
                return Err("trailing data after sample object".to_owned());
            }
            break;
        }
        // The renderer emits keys sorted; re-sorting makes parsed samples
        // safe for the binary-search lookups downstream even if the file
        // was assembled by hand.
        values.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(TelemetrySample {
            seq,
            at_micros,
            values,
        })
    }
}

/// Consumes a leading unsigned integer.
fn take_u64(s: &str) -> Result<(u64, &str), String> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, rest) = s.split_at(end);
    digits
        .parse()
        .map(|v| (v, rest))
        .map_err(|_| format!("expected integer, found {:?}", &s[..s.len().min(12)]))
}

/// Consumes a leading JSON number.
fn take_f64(s: &str) -> Result<(f64, &str), String> {
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(s.len());
    let (digits, rest) = s.split_at(end);
    digits
        .parse()
        .map(|v| (v, rest))
        .map_err(|_| format!("expected number, found {:?}", &s[..s.len().min(12)]))
}

#[derive(Debug, Default)]
struct Inner {
    samples: VecDeque<TelemetrySample>,
    taken: u64,
    evicted: u64,
}

/// Fixed-capacity ring buffer of [`TelemetrySample`]s, oldest evicted
/// first. Sampling goes through `&self` (`Mutex` inside) so a dedicated
/// sampler thread and readers can share one recorder.
#[derive(Debug)]
pub struct TelemetryRecorder {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for TelemetryRecorder {
    fn default() -> Self {
        TelemetryRecorder::new(1024)
    }
}

impl TelemetryRecorder {
    /// Creates a recorder retaining the `capacity` most recent samples.
    pub fn new(capacity: usize) -> Self {
        TelemetryRecorder {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Captures one sample of `registries` at `at_micros`, evicting the
    /// oldest retained sample when over capacity. When registries share
    /// a key (the wiring keeps them disjoint by family prefix), the
    /// last one sampled wins. Returns the sample's `seq`.
    pub fn sample<'a>(
        &self,
        at_micros: u64,
        registries: impl IntoIterator<Item = &'a Registry>,
    ) -> u64 {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for registry in registries {
            merged.extend(registry.sampled_values());
        }
        let mut inner = lock(&self.inner);
        let seq = inner.taken;
        inner.taken += 1;
        inner.samples.push_back(TelemetrySample {
            seq,
            at_micros,
            values: merged.into_iter().collect(),
        });
        while inner.samples.len() > self.capacity {
            inner.samples.pop_front();
            inner.evicted += 1;
        }
        seq
    }

    /// The retained samples, oldest first.
    pub fn snapshot(&self) -> Vec<TelemetrySample> {
        lock(&self.inner).samples.iter().cloned().collect()
    }

    /// The newest retained sample, if any — what incremental consumers
    /// (the [`SloTracker`](crate::SloTracker) wiring) feed forward right
    /// after [`sample`](Self::sample) returns.
    pub fn latest(&self) -> Option<TelemetrySample> {
        lock(&self.inner).samples.back().cloned()
    }

    /// Total samples ever taken (including those since evicted).
    pub fn samples_taken(&self) -> u64 {
        lock(&self.inner).taken
    }

    /// Samples evicted to stay within capacity.
    pub fn evicted(&self) -> u64 {
        lock(&self.inner).evicted
    }

    /// Maximum number of retained samples.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Renders the retained samples as JSON lines, one object per
    /// sample: `{"seq":N,"at_micros":N,"metrics":{key:value,...}}` with
    /// metric keys sorted. Values use the same formatting as the
    /// Prometheus exposition (integral floats render without `.0`).
    pub fn render_jsonl(&self) -> String {
        // Snapshot under the lock, format outside it: rendering the
        // whole series is O(samples) string work that the sampler
        // thread must never wait behind.
        let samples: Vec<TelemetrySample> = lock(&self.inner).samples.iter().cloned().collect();
        let mut out = String::new();
        for sample in &samples {
            out.push_str(&format!(
                "{{\"seq\":{},\"at_micros\":{},\"metrics\":{{",
                sample.seq, sample.at_micros
            ));
            for (i, (key, value)) in sample.values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(&mut out, key);
                out.push(':');
                out.push_str(&fmt_f64(*value));
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Counter, Gauge, Histogram};

    const ROUNDS: Counter = Counter {
        name: "rounds_total",
        help: "R.",
    };
    const DEPTH: Gauge = Gauge {
        name: "depth",
        help: "D.",
    };
    const LAT: Histogram = Histogram {
        name: "lat",
        help: "L.",
    };
    const SHARED: Gauge = Gauge {
        name: "shared",
        help: "S.",
    };

    fn registry_at(tick: u64) -> Registry {
        let r = Registry::new();
        r.counter_add(ROUNDS, &[], tick);
        r.gauge_set(DEPTH, &[("q", "admit")], tick as f64);
        r.histogram_record(LAT, &[], (tick * 10) as f64);
        r
    }

    #[test]
    fn sampling_under_an_injected_clock_is_deterministic() {
        let run = || {
            let mut now = 0;
            let recorder = TelemetryRecorder::new(8);
            for tick in 1..=4u64 {
                now += 250;
                recorder.sample(now, [&registry_at(tick)]);
            }
            recorder.render_jsonl()
        };
        let jsonl = run();
        assert_eq!(jsonl, run(), "same clock + registries => same bytes");
        assert_eq!(jsonl.lines().count(), 4);
        let first = jsonl.lines().next().unwrap();
        assert!(
            first.starts_with("{\"seq\":0,\"at_micros\":250,"),
            "{first}"
        );
        assert!(first.contains("\"depth{q=\\\"admit\\\"}\":1"), "{first}");
        assert!(first.contains("\"rounds_total\":1"), "{first}");
        assert!(first.contains("\"lat_count\":1"), "{first}");
        assert!(first.contains("\"lat_p50\":"), "{first}");
        assert!(first.contains("\"lat_p99\":"), "{first}");
    }

    #[test]
    fn ring_buffer_evicts_oldest_at_capacity() {
        let recorder = TelemetryRecorder::new(3);
        for at in 0..5u64 {
            recorder.sample(at * 100, [&registry_at(at + 1)]);
        }
        assert_eq!(recorder.samples_taken(), 5);
        assert_eq!(recorder.evicted(), 2);
        assert_eq!(recorder.capacity(), 3);
        let retained = recorder.snapshot();
        let seqs: Vec<u64> = retained.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [2, 3, 4], "oldest evicted first, seq never reused");
        assert_eq!(retained[0].at_micros, 200);
    }

    #[test]
    fn later_registries_win_shared_keys() {
        let a = Registry::new();
        a.gauge_set(SHARED, &[], 1.0);
        let b = Registry::new();
        b.gauge_set(SHARED, &[], 2.0);
        let recorder = TelemetryRecorder::new(2);
        recorder.sample(5, [&a, &b]);
        let snap = recorder.snapshot();
        assert_eq!(snap[0].values, vec![("shared".to_owned(), 2.0)]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let recorder = TelemetryRecorder::new(0);
        recorder.sample(1, [&registry_at(1)]);
        recorder.sample(2, [&registry_at(2)]);
        assert_eq!(recorder.snapshot().len(), 1);
        assert_eq!(recorder.snapshot()[0].seq, 1);
    }

    /// The serving sampler pattern: a dedicated thread samples until
    /// signalled, takes one final flush sample on the way out, and the
    /// join must observe that flush — no sample may be lost between the
    /// stop signal and thread exit.
    #[test]
    fn sampler_thread_join_loses_no_final_sample() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let recorder = Arc::new(TelemetryRecorder::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (recorder, stop) = (Arc::clone(&recorder), Arc::clone(&stop));
            std::thread::spawn(move || {
                let registry = registry_at(7);
                let mut at = 0u64;
                while !stop.load(Ordering::Acquire) {
                    at += 10;
                    recorder.sample(at, [&registry]);
                    std::thread::yield_now();
                }
                at += 10;
                (recorder.sample(at, [&registry]), at)
            })
        };
        while recorder.samples_taken() < 3 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        let (final_seq, final_at) = sampler.join().expect("sampler thread");

        assert_eq!(final_seq, recorder.samples_taken() - 1);
        let last = recorder.latest().expect("ring is non-empty");
        assert_eq!(last.seq, final_seq, "final flush sample was lost");
        assert_eq!(last.at_micros, final_at);
        assert_eq!(recorder.snapshot().last(), Some(&last));
    }

    /// Wraparound under an injected clock: far past capacity, the ring
    /// holds exactly the newest N samples with their original seq and
    /// timestamps intact.
    #[test]
    fn wraparound_keeps_the_newest_samples_under_manual_clock() {
        let mut now = 0;
        let recorder = TelemetryRecorder::new(4);
        for tick in 1..=10u64 {
            now += 250;
            recorder.sample(now, [&registry_at(tick)]);
        }
        assert_eq!(recorder.samples_taken(), 10);
        assert_eq!(recorder.evicted(), 6);
        let retained = recorder.snapshot();
        let seqs: Vec<u64> = retained.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9]);
        let stamps: Vec<u64> = retained.iter().map(|s| s.at_micros).collect();
        assert_eq!(stamps, [1750, 2000, 2250, 2500]);
        assert_eq!(recorder.latest().as_ref(), retained.last());
    }

    #[test]
    fn jsonl_round_trips_through_parse() {
        let mut now = 0;
        let recorder = TelemetryRecorder::new(8);
        for tick in 1..=3u64 {
            now += 250;
            recorder.sample(now, [&registry_at(tick)]);
        }
        let parsed =
            TelemetrySample::parse_jsonl(&recorder.render_jsonl()).expect("round-trip parse");
        assert_eq!(parsed, recorder.snapshot());
        // Label-carrying keys survive the escape round trip verbatim.
        assert!(parsed[0]
            .values
            .iter()
            .any(|(k, v)| k == "depth{q=\"admit\"}" && *v == 1.0));

        // Blank lines are tolerated; malformed lines are named.
        assert_eq!(TelemetrySample::parse_jsonl("\n\n"), Ok(Vec::new()));
        let err = TelemetrySample::parse_jsonl("{\"seq\":0}\n").unwrap_err();
        assert!(err.starts_with("telemetry line 1:"), "{err}");
        let err =
            TelemetrySample::parse_jsonl("{\"seq\":0,\"at_micros\":1,\"metrics\":{}}garbage\n")
                .unwrap_err();
        assert!(err.contains("trailing data"), "{err}");
    }

    #[test]
    fn keys_with_quotes_backslashes_and_control_characters_round_trip() {
        const ODD: Gauge = Gauge {
            name: "odd\"key\\with\nline\u{1}",
            help: "O.",
        };
        let r = Registry::new();
        r.gauge_set(ODD, &[], 3.0);
        let recorder = TelemetryRecorder::new(1);
        recorder.sample(7, [&r]);
        let jsonl = recorder.render_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "{jsonl}");
        let parsed = TelemetrySample::parse_jsonl(&jsonl).expect("round-trip parse");
        assert_eq!(parsed, recorder.snapshot());
        assert_eq!(parsed[0].values, [(ODD.name.to_owned(), 3.0)]);
    }
}
