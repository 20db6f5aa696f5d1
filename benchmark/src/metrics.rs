//! The benchmark's vocabulary: workload names, the end-to-end metrics with
//! their regression bounds, the per-layer metric names, and the [`Report`]
//! a run fills in and prints. `BENCHMARK.json` is this file rendered; a unit
//! test holds the two together.

use crate::json::Json;
use crate::paths::Class;
use std::collections::BTreeMap;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("sim_experiment", "cloud-sim does all the work and every other layer none: full-catalog SimCloud stepping under 500 persistent requests, where an event-driven simulator shows"),
    ("collect_mem", "the in-memory archive-building round: cloud-api, collector and timestream ingest do the work, WAL and serving none"),
    ("collect_durable", "the production write path: the same round through sharded WALs with fsync per frame, so commit and checkpoint dominate and checkpoint rounds form the tail"),
    ("serve_point", "closed loop, 2 clients, selective queries with small responses: connection set-up, wire parse, routing and series resolve dominate; scan and encode cost must not show"),
    ("serve_scan", "closed loop, 2 clients, region and whole-table scans answering up to 1.2 MB: timestream scan, row materialisation, JSON encode and socket write dominate; connection cost must not show"),
    ("live", "collect, commit, publish and probe on one thread while an open-loop 100 req/s reader queries the same store: the only workload that sees publish cost and collector/server interference"),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off, and
/// gated by `bound` (the share of the parent's median it may worsen by).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports all five; what the unit of work and the timed wait
/// are on each workload is fixed in `benchmark/README.md`:
///
/// | workload | unit of work (`throughput_per_s`) | timed wait (`latency_*`) | tail |
/// |---|---|---|---|
/// | `sim_experiment` | simulator tick | one `step` | p95 |
/// | `collect_mem` | collection round | `step` + `collect_round` | p80 |
/// | `collect_durable` | collection round | `step` + `collect_round` | median checkpoint round |
/// | `serve_point`, `serve_scan` | correct response | client-observed request | p95 |
/// | `live` | published round | freshness: `step` start to first response carrying the round | median checkpoint round |
///
/// Every bound is at the driver's cap. The reference machine is a 2-vCPU
/// sandbox that drifts between fast and slow phases lasting minutes (the
/// same binary and seed: 98 to 161 ms a collection round), so ten back-to-back runs
/// spread by up to ~20 % on the memory-heavy workloads whatever the
/// benchmark does; `baseline/spread.md` has the measurements. Calm-phase
/// spreads are 2-8 %.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload with tracing on (0 where
/// the workload does not exercise the layer); never gated.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The per-layer metric names, in the order they are printed.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(Layer { name, unit, better });
    };
    for (name, unit) in [
        ("cloud-sim.step_ms_p50", "ms"),
        ("cloud-sim.pools_per_tick", "count"),
        ("cloud-sim.interruptions", "count"),
        ("cloud-sim.new_ms", "ms"),
        ("binpack.plan_ms", "ms"),
        ("binpack.queries_planned", "count"),
        ("binpack.lower_bound", "count"),
        ("cloud-api.sps_ms_per_round", "ms"),
        ("cloud-api.sps_queries_per_round", "count"),
        ("cloud-api.sps_scores_per_round", "count"),
        ("cloud-api.advisor_ms_per_round", "ms"),
        ("cloud-api.advisor_rows", "count"),
        ("cloud-api.price_ms_per_round", "ms"),
        ("cloud-api.price_points", "count"),
        ("collector.sps_ms_per_round", "ms"),
        ("collector.advisor_ms_per_round", "ms"),
        ("collector.price_ms_per_round", "ms"),
        ("collector.records_offered_per_round", "count"),
        ("collector.round_unattributed_ms", "ms"),
        ("collector.new_ms", "ms"),
        ("collector.retries", "count"),
        ("collector.queries_failed", "count"),
        ("collector.degraded_rounds", "count"),
        ("collector.round_ms_p50", "ms"),
        ("collector.checkpoint_round_ms_p50", "ms"),
        ("collector.recovery_s", "s"),
        ("timestream.write_ms_per_round", "ms"),
        ("timestream.records_stored_ratio", "ratio"),
        ("timestream.commit_ms_per_round", "ms"),
        ("timestream.wal_frames_per_round", "count"),
        ("timestream.wal_bytes_per_round", "B"),
        ("timestream.checkpoint_ms_per_round", "ms"),
        ("timestream.checkpoints", "count"),
        ("timestream.checkpoint_bytes", "B"),
        ("timestream.disk_bytes_written_per_record", "B"),
        ("timestream.disk_bytes_per_record", "B"),
        ("timestream.recover_ms", "ms"),
        ("timestream.recover_frames_replayed", "count"),
        ("timestream.recover_shards", "count"),
        ("timestream.clone_ms_p50", "ms"),
        ("timestream.mem_bytes_per_point", "B"),
    ] {
        add(name.to_owned(), unit, Lower);
    }
    for class in Class::DATA {
        let c = class.name();
        add(format!("timestream.{c}_us_p50"), "us", Lower);
        add(format!("timestream.{c}_series_scanned"), "count", Lower);
        add(format!("timestream.{c}_rows_decoded"), "count", Lower);
    }
    for class in Class::DATA {
        add(
            format!("serving.gateway_{}_us_p50", class.name()),
            "us",
            Lower,
        );
    }
    add("serving.wire_parse_us_p50".to_owned(), "us", Lower);
    add("serving.wire_encode_us_per_kb".to_owned(), "us", Lower);
    for class in Class::ALL {
        add(
            format!("serving.class_{}_ms_p50", class.name()),
            "ms",
            Lower,
        );
    }
    for (name, unit) in [
        ("serving.response_bytes_p50", "B"),
        ("serving.latency_p99_ms", "ms"),
        ("serving.queue_wait_us_p50", "us"),
        ("serving.queue_wait_us_p99", "us"),
        ("serving.parse_us_p50", "us"),
        ("serving.handle_us_p50", "us"),
        ("serving.handle_us_p99", "us"),
        ("serving.write_us_p50", "us"),
        ("serving.write_us_p99", "us"),
        ("serving.shed", "count"),
        ("serving.deadline_exceeded", "count"),
        ("serving.bad_requests", "count"),
        ("serving.worker_panics", "count"),
        ("serving.socket_overhead_us_p50", "us"),
        ("serving.publish_ms_p50", "ms"),
        ("serving.probe_ms_p50", "ms"),
        ("serving.freshness_ms_p50", "ms"),
        ("serving.read_latency_p50_ms", "ms"),
        ("serving.read_latency_p90_ms", "ms"),
        ("obs.render_metrics_us_p50", "us"),
        ("obs.metrics_bytes", "B"),
        ("loadgen.lateness_ms_p95", "ms"),
    ] {
        add(name.to_owned(), unit, Lower);
    }
    add("loadgen.sent".to_owned(), "count", Higher);
    add("loadgen.ok".to_owned(), "count", Higher);
    add("proc.cpu_ms_per_op".to_owned(), "ms", Lower);
    add("trace.overhead_pct".to_owned(), "%", Lower);
    out
}

/// What one run of one workload found. Metrics are set by name as the
/// workload measures them; `finish` prints them against the tables above.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    /// Operations attempted: rounds, ticks, requests, recoveries.
    pub attempted: u64,
    /// Operations that failed (see `benchmark/README.md` for what counts).
    pub failed: u64,
    /// Named checks that did not hold, in the order they failed.
    pub failed_checks: Vec<String>,
    /// Exact counts a same-seed run must reproduce, and sample counts.
    pub counts: Vec<(String, f64)>,
}

impl Report {
    /// Records a metric value (last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        // `+ 0.0` turns the `-0.0` an empty sum yields into plain zero.
        self.metrics.insert(name.into(), value + 0.0);
    }

    /// Records an exact count or a sample count, printed and kept in the
    /// `--out` file but not part of the driver's result line.
    pub fn count(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        println!("count {name} {value}");
        self.counts.push((name, value));
    }

    /// Records the outcome of a named correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            println!("check {name} ok");
        } else {
            let detail = detail();
            println!("check {name} FAILED: {detail}");
            self.failed_checks.push(format!("{name}: {detail}"));
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty()
    }

    /// Prints every metric of the pass by name with its unit, then the
    /// detail line the suite reads, then — last — the driver's result line.
    /// End-to-end metrics must all be present and non-zero; a per-layer
    /// metric the workload never set prints 0 ("layer not exercised").
    pub fn finish(mut self, traced: bool) -> bool {
        let mut metrics = Vec::new();
        if traced {
            for layer in per_layer() {
                let value = self.metrics.get(&layer.name).copied().unwrap_or(0.0);
                metrics.push((layer.name, value, layer.unit));
            }
        } else {
            for m in END_TO_END {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                if !(value.is_finite() && value > 0.0) {
                    self.check(&format!("{}_was_measured", m.name), false, || {
                        format!("value {value}")
                    });
                }
                metrics.push((m.name.to_owned(), value, m.unit));
            }
        }
        for (name, value, unit) in &metrics {
            println!("metric {name} {value} {unit}");
        }
        let correct = self.correct();
        let failed = self.failed.max(self.failed_checks.len() as u64);
        let attempted = self.attempted.max(failed).max(1);
        println!(
            "failed_share {} ({failed} of {attempted} operations)",
            failed as f64 / attempted as f64
        );
        let detail = Json::obj([
            (
                "counts",
                Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            (
                "failed_checks",
                Json::Arr(self.failed_checks.iter().map(Json::str).collect()),
            ),
        ]);
        println!("detail {}", detail.render_exact());
        let result = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                Json::obj(metrics.into_iter().map(|(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ]);
        println!("{}", result.render_exact());
        correct
    }
}

/// `BENCHMARK.json` as these tables define it.
#[cfg(test)]
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "spotlake-bench",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::Str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_driver_contract() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = layers.iter().map(|l| l.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|(name, _)| *name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_is_these_tables_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with the ignored test below"
        );
    }

    /// `cargo test -- --ignored --nocapture print_benchmark_json` prints the
    /// file a `benchmark` issue that changes the tables must commit.
    #[test]
    #[ignore = "prints BENCHMARK.json; not a check"]
    fn print_benchmark_json() {
        let doc = benchmark_json();
        println!("{{");
        let members = doc.members();
        for (i, (key, value)) in members.iter().enumerate() {
            let comma = if i + 1 < members.len() { "," } else { "" };
            match value {
                Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                    println!("  \"{key}\": [");
                    for (j, item) in items.iter().enumerate() {
                        let comma = if j + 1 < items.len() { "," } else { "" };
                        println!("    {}{comma}", item.render_exact());
                    }
                    println!("  ]{comma}");
                }
                other => println!("  \"{key}\": {}{comma}", other.render_exact()),
            }
        }
        println!("}}");
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut ok = Report {
            attempted: 10,
            ..Report::default()
        };
        ok.check("fine", true, String::new);
        assert!(ok.correct());
        let mut bad = Report::default();
        bad.check("digest", false, || "mismatch".to_owned());
        assert!(!bad.correct());
        let failed = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        assert!(!failed.correct());
    }
}
