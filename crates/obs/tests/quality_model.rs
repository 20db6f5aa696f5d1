//! `QualityMonitor` against a model: the `BTreeMap` monitor it replaced.
//!
//! The monitor indexes each dataset's keys densely — a key string is
//! spelled once, when its `QualityKey` is handed out, and observed by
//! index — and exports its gauges in one pass over running state; the
//! model below keeps every key in nested `BTreeMap`s, keyed by the string
//! on every observation, and builds each report from scratch, as the
//! monitor once did. Random `key` / `observe` / `observe_sweep` /
//! `round_complete` sequences must leave both with equal reports, and the
//! gauges `export` writes must equal the report's aggregates. Keys are
//! handed out ahead of their first observation, and some never are
//! observed: neither may show up as tracked.

use spotlake_obs::{names, DatasetQuality, KeyQuality, QualityMonitor, QualityReport, Registry};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct KeyState {
    first_tick: u64,
    last_tick: u64,
    observed: u64,
    gaps: u64,
    missed: u64,
}

/// The monitor as it was: per-dataset `BTreeMap`s of owned key strings,
/// and a report that clones and sorts every key.
struct Model {
    interval: u64,
    tick: u64,
    rounds: u64,
    keys: BTreeMap<String, BTreeMap<String, KeyState>>,
}

impl Model {
    fn new(interval: u64) -> Model {
        Model {
            interval: interval.max(1),
            tick: 0,
            rounds: 0,
            keys: BTreeMap::new(),
        }
    }

    fn observe(&mut self, dataset: &str, key: &str, tick: u64) {
        let interval = self.interval;
        let state = self
            .keys
            .entry(dataset.to_owned())
            .or_default()
            .entry(key.to_owned())
            .or_insert(KeyState {
                first_tick: tick,
                last_tick: tick,
                observed: 0,
                gaps: 0,
                missed: 0,
            });
        if state.observed > 0 {
            if tick == state.last_tick {
                return;
            }
            let delta = tick.saturating_sub(state.last_tick);
            if delta > interval {
                state.gaps += 1;
                state.missed += delta / interval - 1;
            }
        }
        state.observed += 1;
        state.last_tick = tick;
    }

    fn observe_sweep(&mut self, dataset: &str, tick: u64) {
        let interval = self.interval;
        if let Some(keys) = self.keys.get_mut(dataset) {
            for state in keys.values_mut() {
                if tick == state.last_tick {
                    continue;
                }
                let delta = tick.saturating_sub(state.last_tick);
                if delta > interval {
                    state.gaps += 1;
                    state.missed += delta / interval - 1;
                }
                state.observed += 1;
                state.last_tick = tick;
            }
        }
    }

    fn round_complete(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
        self.rounds += 1;
    }

    fn report(&self) -> QualityReport {
        let datasets = self
            .keys
            .iter()
            .map(|(dataset, keys)| {
                let mut worst: Vec<KeyQuality> = keys
                    .iter()
                    .map(|(key, s)| KeyQuality {
                        key: key.clone(),
                        observed: s.observed,
                        staleness: self.tick.saturating_sub(s.last_tick),
                        gaps: s.gaps,
                        missed: s.missed,
                    })
                    .collect();
                let keys_stale = worst.iter().filter(|k| k.staleness > 0).count() as u64;
                let gaps = worst.iter().map(|k| k.gaps).sum();
                let missed_rounds = worst.iter().map(|k| k.missed).sum();
                let max_staleness = worst.iter().map(|k| k.staleness).max().unwrap_or(0);
                let min_coverage = keys
                    .values()
                    .map(|s| {
                        let span = self.tick.saturating_sub(s.first_tick) / self.interval + 1;
                        s.observed as f64 / span.max(1) as f64
                    })
                    .fold(f64::INFINITY, f64::min);
                worst.sort_by(|a, b| {
                    b.staleness
                        .cmp(&a.staleness)
                        .then(b.gaps.cmp(&a.gaps))
                        .then(a.key.cmp(&b.key))
                });
                worst.truncate(QualityMonitor::WORST_KEYS);
                DatasetQuality {
                    dataset: dataset.clone(),
                    keys_tracked: keys.len() as u64,
                    keys_stale,
                    gaps,
                    missed_rounds,
                    min_coverage: if min_coverage.is_finite() {
                        min_coverage
                    } else {
                        0.0
                    },
                    max_staleness,
                    worst,
                }
            })
            .collect();
        QualityReport {
            tick: self.tick,
            interval: self.interval,
            rounds: self.rounds,
            datasets,
        }
    }
}

/// SplitMix64: a seeded stream for the generated sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const DATASETS: [&str; 3] = ["sps", "advisor", "price"];

/// The gauges `export` wrote for each dataset, as `(family, dataset) → value`.
fn exported(monitor: &QualityMonitor) -> BTreeMap<String, f64> {
    let registry = Registry::new();
    monitor.export(&registry);
    registry.sampled_values().into_iter().collect()
}

/// The same gauges, read off a report.
fn expected_gauges(report: &QualityReport) -> BTreeMap<String, f64> {
    let mut want = BTreeMap::new();
    for d in &report.datasets {
        let label = format!("{{dataset=\"{}\"}}", d.dataset);
        for (family, value) in [
            (names::ARCHIVE_KEYS_TRACKED.name, d.keys_tracked as f64),
            (names::ARCHIVE_KEYS_STALE.name, d.keys_stale as f64),
            (names::ARCHIVE_GAPS_TOTAL.name, d.gaps as f64),
            (
                names::ARCHIVE_MISSED_ROUNDS_TOTAL.name,
                d.missed_rounds as f64,
            ),
            (names::ARCHIVE_MIN_COVERAGE.name, d.min_coverage),
            (
                names::ARCHIVE_MAX_STALENESS_TICKS.name,
                d.max_staleness as f64,
            ),
        ] {
            want.insert(format!("{family}{label}"), value);
        }
    }
    want
}

/// One generated run: observations of a small key space (so keys repeat,
/// go stale, and tie on staleness and gaps) at ticks around the monitor's
/// clock — same-tick duplicates, late and backdated observations
/// included — with sweeps and rounds interleaved. Returns the final report.
fn run(seed: u64) -> QualityReport {
    let mut rng = Rng(seed);
    let interval = 1 + rng.below(3);
    let key_space = 2 + rng.below(30);
    let mut monitor = QualityMonitor::new(interval);
    let mut model = Model::new(interval);
    let mut tick = 0u64;
    for step in 0..400 {
        match rng.below(11) {
            0..=5 => {
                let dataset = DATASETS[rng.below(3) as usize];
                let key = format!("t{}:z{}", rng.below(key_space), rng.below(3));
                let at = match rng.below(8) {
                    0 => tick.saturating_sub(1 + rng.below(interval * 3)),
                    1 => tick + interval * rng.below(4),
                    _ => tick,
                };
                let k = monitor.key(dataset, &key);
                monitor.observe(k, at);
                model.observe(dataset, &key, at);
            }
            10 => {
                // Handed out, not (yet) observed: the model knows nothing.
                let dataset = DATASETS[rng.below(3) as usize];
                let key = format!("t{}:z{}", rng.below(key_space + 4), rng.below(3));
                monitor.key(dataset, &key);
            }
            6 => {
                let dataset = DATASETS[rng.below(3) as usize];
                monitor.observe_sweep(dataset, tick);
                model.observe_sweep(dataset, tick);
            }
            _ => {
                monitor.round_complete(tick);
                model.round_complete(tick);
                tick += interval * (1 + rng.below(3));
            }
        }
        if step % 16 == 15 {
            let report = monitor.report();
            assert_eq!(report, model.report(), "seed {seed}, step {step}");
            assert_eq!(
                exported(&monitor),
                expected_gauges(&report),
                "seed {seed}, step {step}"
            );
        }
    }
    let report = monitor.report();
    assert_eq!(report, model.report(), "seed {seed}, end");
    report
}

#[test]
fn reports_and_exported_gauges_match_the_btreemap_model() {
    // The comparison is only as strong as the states the runs reach.
    let (mut gaps, mut stale, mut truncated) = (false, false, false);
    for seed in 0..200 {
        for d in run(seed).datasets {
            gaps |= d.gaps > 0;
            stale |= d.keys_stale > 0;
            truncated |= d.keys_tracked as usize > QualityMonitor::WORST_KEYS;
        }
    }
    assert!(gaps && stale && truncated, "{gaps} {stale} {truncated}");
}
