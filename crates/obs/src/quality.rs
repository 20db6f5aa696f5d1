//! Archive data-quality monitoring: per-key coverage, staleness, and gap
//! detection for the collected datasets.
//!
//! The paper's archive is only as useful as it is *complete* — the authors
//! themselves report collection gaps and the workarounds they needed. This
//! module watches the write path: the collector reports every observed
//! (dataset × key) pair per round, the monitor tracks when each key was
//! last seen, counts rounds each key missed (gaps), and summarizes
//! coverage per dataset. Everything is keyed on simulation ticks, and no
//! output depends on the order keys are stored in, so reports and
//! exported gauges are byte-stable across same-seed runs.
//!
//! The collector observes every stored record, ~35 k a round at the
//! paper's catalog, so the per-record and per-round paths are kept cheap.
//! A key is indexed densely: its string is spelled and hashed once, when
//! [`QualityMonitor::key`] first hands out its [`QualityKey`], and
//! observing it is an index into a `Vec` — no lookup, no allocation.
//! [`QualityMonitor::export`] is one allocation-free pass over the running
//! state. The key-level [`QualityReport`] is built only when asked for.

use std::collections::{BTreeMap, HashMap};

use crate::{names, Registry};

/// Per-key tracking state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyState {
    /// Tick of the first observation.
    first_tick: u64,
    /// Tick of the most recent observation.
    last_tick: u64,
    /// Total observations (one per round at most).
    observed: u64,
    /// Distinct gaps: runs of one or more missed rounds.
    gaps: u64,
    /// Total rounds missed across all gaps.
    missed: u64,
}

impl KeyState {
    /// The state of a key first observed at `tick`.
    fn first(tick: u64) -> KeyState {
        KeyState {
            first_tick: tick,
            last_tick: tick,
            observed: 1,
            gaps: 0,
            missed: 0,
        }
    }

    /// Records a later observation at `tick`. A second observation at the
    /// same tick is a no-op; a delta greater than `interval` counts one
    /// gap and `delta / interval - 1` missed rounds.
    fn observe(&mut self, tick: u64, interval: u64) {
        if tick == self.last_tick {
            return; // Same-round duplicate (e.g. two measures per key).
        }
        let delta = tick.saturating_sub(self.last_tick);
        if delta > interval {
            self.gaps += 1;
            self.missed += delta / interval - 1;
        }
        self.observed += 1;
        self.last_tick = tick;
    }
}

/// Data-quality state for one key in a [`DatasetQuality`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyQuality {
    /// The coverage key, e.g. `"m5.large:us-test-1a"`.
    pub key: String,
    /// Rounds in which the key was observed.
    pub observed: u64,
    /// Ticks since the key was last observed (0 when current).
    pub staleness: u64,
    /// Distinct gaps detected in the key's history.
    pub gaps: u64,
    /// Total rounds missed across all gaps.
    pub missed: u64,
}

/// Aggregated data-quality report for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetQuality {
    /// Dataset name (`sps`, `advisor`, `price`).
    pub dataset: String,
    /// Number of distinct keys ever observed.
    pub keys_tracked: u64,
    /// Keys not observed in the most recent round.
    pub keys_stale: u64,
    /// Total distinct gaps across keys.
    pub gaps: u64,
    /// Total missed rounds across keys.
    pub missed_rounds: u64,
    /// Minimum per-key coverage ratio (observed / expected rounds).
    pub min_coverage: f64,
    /// Maximum per-key staleness in ticks.
    pub max_staleness: u64,
    /// Worst keys: staleness descending, then gaps descending, then key
    /// ascending. At most [`QualityMonitor::WORST_KEYS`] entries.
    pub worst: Vec<KeyQuality>,
}

/// A point-in-time quality report over all datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Tick the report was taken at.
    pub tick: u64,
    /// Expected ticks between observations of a live key.
    pub interval: u64,
    /// Completed collection rounds.
    pub rounds: u64,
    /// Per-dataset summaries, sorted by dataset name.
    pub datasets: Vec<DatasetQuality>,
}

/// A (dataset × key) pair's dense index in a [`QualityMonitor`]: what
/// [`QualityMonitor::key`] hands out once per key and
/// [`QualityMonitor::observe`] takes per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityKey {
    dataset: u32,
    key: u32,
}

/// One dataset's keys, indexed densely.
#[derive(Debug, Clone, Default)]
struct DatasetKeys {
    /// Key string → index into `states`; each key is spelled once, here.
    index: HashMap<Box<str>, u32>,
    /// Per key, its state once observed: a key handed out but never
    /// observed is not tracked.
    states: Vec<Option<KeyState>>,
    /// Keys observed at least once.
    tracked: u64,
}

/// Tracks per-(dataset × key) observation coverage.
///
/// The collector asks for each coverage key's [`QualityKey`] once
/// ([`QualityMonitor::key`]), then calls [`QualityMonitor::observe`] for
/// every record it successfully writes, [`QualityMonitor::observe_sweep`]
/// when a sweep semantically covers all known keys (the price collector
/// only reports *changes*, so a clean sweep refreshes every key it has
/// ever seen), and [`QualityMonitor::round_complete`] once per round.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    /// Expected ticks between observations of a live key.
    interval: u64,
    /// Tick of the last completed round.
    tick: u64,
    /// Completed rounds.
    rounds: u64,
    /// Every dataset a key was handed out for, indexed by
    /// [`QualityKey`]'s dataset.
    datasets: Vec<DatasetKeys>,
    /// Dataset name → index; its order is the order reports list
    /// datasets in. Hash order reaches no output: the aggregates are sums,
    /// counts, minima and maxima, and the worst list is sorted to a total
    /// order that ends on the key.
    by_name: BTreeMap<String, u32>,
}

/// One dataset's aggregates, read from the running state in one pass.
struct Aggregates {
    keys_tracked: u64,
    keys_stale: u64,
    gaps: u64,
    missed_rounds: u64,
    min_coverage: f64,
    max_staleness: u64,
}

impl QualityMonitor {
    /// Maximum worst-offender keys listed per dataset in a report.
    pub const WORST_KEYS: usize = 10;

    /// Creates a monitor expecting one observation per key every
    /// `interval` ticks.
    pub fn new(interval: u64) -> Self {
        QualityMonitor {
            interval: interval.max(1),
            tick: 0,
            rounds: 0,
            datasets: Vec::new(),
            by_name: BTreeMap::new(),
        }
    }

    /// The index of `key` in `dataset`: the same one every time the pair
    /// is asked for, so two spellings of one key are one key. Handing a key
    /// out does not track it; [`QualityMonitor::observe`] does.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` datasets or keys in one dataset.
    pub fn key(&mut self, dataset: &str, key: &str) -> QualityKey {
        let at = match self.by_name.get(dataset) {
            Some(&at) => at,
            None => {
                let at = u32::try_from(self.datasets.len()).expect("fewer than 2^32 datasets");
                self.datasets.push(DatasetKeys::default());
                self.by_name.insert(dataset.to_owned(), at);
                at
            }
        };
        let keys = &mut self.datasets[at as usize];
        let index = match keys.index.get(key) {
            Some(&index) => index,
            None => {
                let index = u32::try_from(keys.states.len()).expect("fewer than 2^32 keys");
                keys.states.push(None);
                keys.index.insert(key.into(), index);
                index
            }
        };
        QualityKey {
            dataset: at,
            key: index,
        }
    }

    /// Records that `key` was observed at `tick`. A second observation at
    /// the same tick is a no-op; a delta greater than the expected
    /// interval counts one gap and `delta / interval - 1` missed rounds.
    /// A key this monitor never handed out is ignored.
    pub fn observe(&mut self, key: QualityKey, tick: u64) {
        let Some(keys) = self.datasets.get_mut(key.dataset as usize) else {
            return;
        };
        match keys.states.get_mut(key.key as usize) {
            Some(Some(state)) => state.observe(tick, self.interval),
            Some(slot) => {
                *slot = Some(KeyState::first(tick));
                keys.tracked += 1;
            }
            None => {}
        }
    }

    /// Marks every key already observed for `dataset` as observed at
    /// `tick` — for sweep-style collectors whose successful pass covers all
    /// keys even when it reports no changes.
    pub fn observe_sweep(&mut self, dataset: &str, tick: u64) {
        let interval = self.interval;
        let Some(&at) = self.by_name.get(dataset) else {
            return;
        };
        if let Some(keys) = self.datasets.get_mut(at as usize) {
            for state in keys.states.iter_mut().flatten() {
                state.observe(tick, interval);
            }
        }
    }

    /// The datasets with at least one tracked key, in name order.
    fn tracked_datasets(&self) -> impl Iterator<Item = (&str, &DatasetKeys)> {
        self.by_name
            .iter()
            .filter_map(|(name, &at)| Some((name.as_str(), self.datasets.get(at as usize)?)))
            .filter(|(_, keys)| keys.tracked > 0)
    }

    /// Advances the monitor to the end of a round at `tick`.
    pub fn round_complete(&mut self, tick: u64) {
        self.tick = self.tick.max(tick);
        self.rounds += 1;
    }

    /// Staleness of `state` as of the last completed round.
    fn staleness(&self, state: &KeyState) -> u64 {
        self.tick.saturating_sub(state.last_tick)
    }

    /// One dataset's aggregates, in a single pass and without allocating.
    fn aggregate(&self, keys: &DatasetKeys) -> Aggregates {
        let mut a = Aggregates {
            keys_tracked: keys.tracked,
            keys_stale: 0,
            gaps: 0,
            missed_rounds: 0,
            min_coverage: f64::INFINITY,
            max_staleness: 0,
        };
        for s in keys.states.iter().flatten() {
            let staleness = self.staleness(s);
            a.keys_stale += u64::from(staleness > 0);
            a.gaps += s.gaps;
            a.missed_rounds += s.missed;
            a.max_staleness = a.max_staleness.max(staleness);
            // Rounds the key could have been observed in, from its first
            // sighting through the current tick.
            let span = self.tick.saturating_sub(s.first_tick) / self.interval + 1;
            a.min_coverage = a.min_coverage.min(s.observed as f64 / span.max(1) as f64);
        }
        if !a.min_coverage.is_finite() {
            a.min_coverage = 0.0;
        }
        a
    }

    /// Builds the current report: per-dataset aggregates plus the worst
    /// keys by staleness. A pure function of the observations — two
    /// same-seed runs produce identical reports.
    pub fn report(&self) -> QualityReport {
        let datasets = self
            .tracked_datasets()
            .map(|(dataset, keys)| {
                let a = self.aggregate(keys);
                let mut ranked: Vec<(&str, &KeyState)> = keys
                    .index
                    .iter()
                    .filter_map(|(key, &at)| {
                        Some((&**key, keys.states.get(at as usize)?.as_ref()?))
                    })
                    .collect();
                ranked.sort_unstable_by(|(ka, a), (kb, b)| {
                    self.staleness(b)
                        .cmp(&self.staleness(a))
                        .then(b.gaps.cmp(&a.gaps))
                        .then(ka.cmp(kb))
                });
                let worst = ranked
                    .into_iter()
                    .take(Self::WORST_KEYS)
                    .map(|(key, s)| KeyQuality {
                        key: key.to_owned(),
                        observed: s.observed,
                        staleness: self.staleness(s),
                        gaps: s.gaps,
                        missed: s.missed,
                    })
                    .collect();
                DatasetQuality {
                    dataset: dataset.to_owned(),
                    keys_tracked: a.keys_tracked,
                    keys_stale: a.keys_stale,
                    gaps: a.gaps,
                    missed_rounds: a.missed_rounds,
                    min_coverage: a.min_coverage,
                    max_staleness: a.max_staleness,
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

    /// Exports per-dataset aggregate gauges (`spotlake_archive_*`) into
    /// `registry`: the aggregates of [`QualityMonitor::report`], read in
    /// one pass over the running state without building the report.
    /// Aggregates only — per-key series would explode scrape cardinality
    /// with a production catalog; key-level detail lives in the
    /// `/quality` report.
    pub fn export(&self, registry: &Registry) {
        for (dataset, keys) in self.tracked_datasets() {
            let d = self.aggregate(keys);
            let labels = [("dataset", dataset)];
            registry.gauge_set(names::ARCHIVE_KEYS_TRACKED, &labels, d.keys_tracked as f64);
            registry.gauge_set(names::ARCHIVE_KEYS_STALE, &labels, d.keys_stale as f64);
            registry.gauge_set(names::ARCHIVE_GAPS_TOTAL, &labels, d.gaps as f64);
            registry.gauge_set(
                names::ARCHIVE_MISSED_ROUNDS_TOTAL,
                &labels,
                d.missed_rounds as f64,
            );
            registry.gauge_set(names::ARCHIVE_MIN_COVERAGE, &labels, d.min_coverage);
            registry.gauge_set(
                names::ARCHIVE_MAX_STALENESS_TICKS,
                &labels,
                d.max_staleness as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observes `key` of `dataset` at `tick`, asking for its index first.
    fn seen(m: &mut QualityMonitor, dataset: &str, key: &str, tick: u64) {
        let k = m.key(dataset, key);
        m.observe(k, tick);
    }

    #[test]
    fn a_key_handed_out_but_never_observed_is_not_tracked() {
        let mut m = QualityMonitor::new(1);
        let a = m.key("sps", "a");
        assert_eq!(m.key("sps", "a"), a, "one key, one index");
        let _ = m.key("price", "p");
        m.round_complete(1);
        assert!(m.report().datasets.is_empty(), "nothing observed yet");
        m.observe(a, 1);
        let _ = m.key("sps", "b");
        m.observe_sweep("sps", 2);
        m.round_complete(2);
        let report = m.report();
        assert_eq!(report.datasets.len(), 1, "price has no tracked key");
        assert_eq!(report.datasets[0].keys_tracked, 1);
        assert_eq!(
            report.datasets[0].worst[0].observed, 2,
            "the sweep refreshed a"
        );
    }

    #[test]
    fn continuous_observation_reports_full_coverage() {
        let mut m = QualityMonitor::new(1);
        for tick in 1..=5 {
            seen(&mut m, "sps", "m5.large:a", tick);
            seen(&mut m, "sps", "m5.large:b", tick);
            m.round_complete(tick);
        }
        let report = m.report();
        assert_eq!(report.tick, 5);
        assert_eq!(report.rounds, 5);
        let sps = &report.datasets[0];
        assert_eq!(sps.dataset, "sps");
        assert_eq!(sps.keys_tracked, 2);
        assert_eq!(sps.keys_stale, 0);
        assert_eq!(sps.gaps, 0);
        assert_eq!(sps.missed_rounds, 0);
        assert_eq!(sps.min_coverage, 1.0);
        assert_eq!(sps.max_staleness, 0);
    }

    #[test]
    fn a_skipped_round_counts_one_gap_and_its_missed_rounds() {
        let mut m = QualityMonitor::new(1);
        seen(&mut m, "sps", "k", 1);
        m.round_complete(1);
        // Rounds 2 and 3 miss the key entirely.
        m.round_complete(2);
        m.round_complete(3);
        seen(&mut m, "sps", "k", 4);
        m.round_complete(4);
        let d = &m.report().datasets[0];
        assert_eq!(d.gaps, 1, "one contiguous gap");
        assert_eq!(d.missed_rounds, 2, "rounds 2 and 3 missed");
        assert_eq!(d.keys_stale, 0, "key is current again");
        assert!((d.min_coverage - 0.5).abs() < 1e-9, "{}", d.min_coverage);
    }

    #[test]
    fn staleness_grows_while_a_key_is_unobserved() {
        let mut m = QualityMonitor::new(2);
        seen(&mut m, "advisor", "k", 2);
        m.round_complete(2);
        m.round_complete(4);
        m.round_complete(6);
        let d = &m.report().datasets[0];
        assert_eq!(d.keys_stale, 1);
        assert_eq!(d.max_staleness, 4);
        assert_eq!(d.worst[0].key, "k");
        assert_eq!(d.worst[0].staleness, 4);
    }

    #[test]
    fn same_tick_duplicates_are_no_ops() {
        let mut m = QualityMonitor::new(1);
        seen(&mut m, "advisor", "k", 1);
        seen(&mut m, "advisor", "k", 1); // score + savings measures, same round
        m.round_complete(1);
        seen(&mut m, "advisor", "k", 2);
        seen(&mut m, "advisor", "k", 2);
        m.round_complete(2);
        let d = &m.report().datasets[0];
        assert_eq!(d.gaps, 0);
        assert_eq!(d.min_coverage, 1.0);
        assert_eq!(d.worst[0].observed, 2, "one observation per round");
    }

    #[test]
    fn sweeps_refresh_all_known_keys() {
        let mut m = QualityMonitor::new(1);
        seen(&mut m, "price", "a", 1);
        seen(&mut m, "price", "b", 1);
        m.round_complete(1);
        // Round 2: only `a` changed, but the sweep covered both.
        seen(&mut m, "price", "a", 2);
        m.observe_sweep("price", 2);
        m.round_complete(2);
        let d = &m.report().datasets[0];
        assert_eq!(d.keys_stale, 0);
        assert_eq!(d.gaps, 0);
        assert_eq!(d.min_coverage, 1.0);
    }

    #[test]
    fn worst_keys_rank_stalest_first_and_truncate() {
        let mut m = QualityMonitor::new(1);
        for i in 0..15u64 {
            // Key i last observed at tick i+1 → staleness 15-(i+1).
            seen(&mut m, "sps", &format!("k{i:02}"), i + 1);
        }
        for tick in 1..=15 {
            m.round_complete(tick);
        }
        let d = &m.report().datasets[0];
        assert_eq!(d.keys_tracked, 15);
        assert_eq!(d.worst.len(), QualityMonitor::WORST_KEYS);
        assert_eq!(d.worst[0].key, "k00", "stalest first");
        assert!(d.worst[0].staleness > d.worst[9].staleness);
    }

    #[test]
    fn export_emits_aggregate_gauges_only() {
        let mut m = QualityMonitor::new(1);
        seen(&mut m, "sps", "k1", 1);
        seen(&mut m, "sps", "k2", 1);
        m.round_complete(1);
        m.round_complete(2);
        let r = Registry::new();
        m.export(&r);
        let text = r.render();
        assert!(text.contains("spotlake_archive_keys_tracked{dataset=\"sps\"} 2"));
        assert!(text.contains("spotlake_archive_keys_stale{dataset=\"sps\"} 2"));
        assert!(text.contains("spotlake_archive_max_staleness_ticks{dataset=\"sps\"} 1"));
        assert!(!text.contains("k1"), "no per-key series in the scrape");
    }

    #[test]
    fn reports_are_deterministic() {
        let build = || {
            let mut m = QualityMonitor::new(1);
            for tick in 1..=6 {
                for key in ["c", "a", "b"] {
                    if !(tick + key.len() as u64).is_multiple_of(3) {
                        seen(&mut m, "sps", key, tick);
                    }
                }
                m.round_complete(tick);
            }
            m.report()
        };
        assert_eq!(build(), build());
    }
}
