//! Observability suite: the workspace-wide metric registry, trace journal,
//! and the `/metrics` + `/health` + `/stats` surfaces, driven through the
//! full `SpotLake` assembly.
//!
//! The headline contract: two same-seed runs under the same fault plan
//! render **byte-identical** `/metrics` documents and trace journals —
//! no wall clock or other ambient nondeterminism leaks into telemetry.

use spotlake::{CollectorConfig, SimConfig, SpotLake};
use spotlake_collector::{Dataset, FaultPlan};
use spotlake_obs::names;
use spotlake_types::{CatalogBuilder, SimDuration};

const SEED: u64 = 20_220_901;

fn lake(faults: Option<FaultPlan>) -> SpotLake {
    let mut b = CatalogBuilder::new();
    b.region("us-test-1", 3)
        .region("eu-test-1", 3)
        .instance_type("m5.large", 0.096)
        .instance_type("c5.xlarge", 0.17)
        .instance_type("p3.2xlarge", 3.06);
    let mut sim = SimConfig::with_seed(SEED);
    sim.tick = SimDuration::from_mins(30);
    SpotLake::builder()
        .catalog(b.build().expect("valid catalog"))
        .sim_config(sim)
        .collector_config(CollectorConfig {
            faults,
            ..CollectorConfig::default()
        })
        .build()
        .expect("pipeline builds")
}

fn body(lake: &SpotLake, path: &str) -> String {
    let response = lake.http_get(path).expect("request parses");
    assert_eq!(response.status, 200, "GET {path}");
    response.body_text()
}

#[test]
fn metrics_covers_every_layer_without_duplicate_families() {
    let mut lake = lake(Some(FaultPlan::uniform(SEED, 0.15)));
    lake.run_rounds(12).expect("faulty rounds complete");
    // Traffic before the scrape so the gateway's and the store's
    // read-path families exist.
    let _ = body(&lake, "/health");
    let _ = body(&lake, "/query?table=sps&instance_type=m5.large");
    let metrics = body(&lake, "/metrics");

    for family in [
        names::COLLECTOR_ROUNDS_TOTAL.name,
        names::COLLECTOR_RECORDS_TOTAL.name,
        names::COLLECTOR_BREAKER_STATE.name,
        names::STORE_WRITE_BATCHES_TOTAL.name,
        names::STORE_QUERY_ROWS.name,
        names::API_FAULTS_INJECTED_TOTAL.name,
        names::HTTP_REQUESTS_TOTAL.name,
        names::HTTP_RESPONSE_BYTES.name,
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {family} ")),
            "missing family {family} in:\n{metrics}"
        );
    }

    // Exactly one HELP and one TYPE line per family after the merge.
    let mut seen = std::collections::BTreeMap::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let family = rest.split(' ').next().unwrap_or_default().to_owned();
            *seen.entry(family).or_insert(0u32) += 1;
        }
    }
    assert!(!seen.is_empty(), "scrape must not be empty");
    for (family, count) in seen {
        assert_eq!(count, 1, "duplicate HELP for {family}");
    }
}

#[test]
fn same_seed_runs_scrape_byte_identical_metrics_and_traces() {
    let plan = FaultPlan::uniform(SEED, 0.20);
    let mut a = lake(Some(plan));
    let mut b = lake(Some(plan));
    for lake in [&mut a, &mut b] {
        lake.run_rounds(20).expect("run completes");
    }
    // Identical request sequences so the gateway registries match too.
    for path in [
        "/health",
        "/stats",
        "/query?table=sps&instance_type=m5.large",
    ] {
        let ra = body(&a, path);
        let rb = body(&b, path);
        assert_eq!(ra, rb, "response replay for {path}");
    }
    assert_eq!(
        body(&a, "/metrics"),
        body(&b, "/metrics"),
        "/metrics replays byte-for-byte"
    );
    let trace_a = a.trace_text();
    let trace_b = b.trace_text();
    assert!(!trace_a.is_empty(), "journal captured the rounds");
    assert_eq!(trace_a, trace_b, "trace journals replay byte-for-byte");
    assert_eq!(a.metrics_text(), b.metrics_text(), "CLI render replays too");
}

#[test]
fn health_reports_open_breaker_as_degraded_over_http() {
    let mut lake = lake(None);
    lake.run_rounds(1).expect("warm-up round");
    let healthy = body(&lake, "/health");
    assert!(healthy.contains("\"status\":\"ok\""), "{healthy}");

    let tick = lake.cloud().ticks();
    lake.collector_mut()
        .force_breaker_open(Dataset::Advisor, tick);
    lake.run_rounds(1).expect("round with open breaker");

    // Degraded still answers 200 — the archive serves what it has.
    let degraded = body(&lake, "/health");
    assert!(degraded.contains("\"status\":\"degraded\""), "{degraded}");
    assert!(degraded.contains("collector/advisor"), "{degraded}");
    assert!(degraded.contains("breaker open"), "{degraded}");
    // The other datasets stay individually ready.
    assert!(
        degraded.contains("\"name\":\"collector/sps\""),
        "{degraded}"
    );
}

#[test]
fn stats_exposes_collection_totals_and_last_round_over_http() {
    let mut lake = lake(Some(FaultPlan::uniform(SEED, 0.10)));
    lake.run_rounds(8).expect("rounds complete");
    let stats = body(&lake, "/stats");
    assert!(stats.contains("\"collection\""), "{stats}");
    assert!(stats.contains("\"rounds\":8"), "{stats}");
    assert!(stats.contains("\"last_round\""), "{stats}");
    assert!(stats.contains("\"tick\":8"), "{stats}");
    // The pre-existing store shape survives.
    assert!(stats.contains("total_points"), "{stats}");
    // The new sections ride along: histogram quantiles and the
    // slow-query listing (empty before any row query, populated after).
    assert!(stats.contains("\"quantiles\""), "{stats}");
    assert!(stats.contains("\"slow_queries\":[]"), "{stats}");
    let _ = body(&lake, "/query?table=sps&instance_type=m5.large");
    let stats = body(&lake, "/stats");
    assert!(stats.contains("\"spotlake_query_cost\""), "{stats}");
    assert!(stats.contains("\"p99\""), "{stats}");
    assert!(
        stats.contains("\"query\":\"/query?table=sps&instance_type=m5.large\""),
        "{stats}"
    );
}

#[test]
fn explain_and_debug_surfaces_replay_byte_identical() {
    let plan = FaultPlan::uniform(SEED, 0.20);
    let run = || {
        let mut lake = lake(Some(plan));
        lake.run_rounds(16).expect("run completes");
        // A fixed request mix: broad scan, pruned scan, latest, window.
        for path in [
            "/query?table=sps",
            "/query?table=sps&instance_type=m5.large&az=us-test-1a",
            "/latest?table=price",
            "/window?table=sps&window=3600&agg=mean",
        ] {
            let _ = body(&lake, path);
        }
        (
            body(&lake, "/query?table=sps&instance_type=m5.large&explain=1"),
            body(&lake, "/debug/queries"),
            body(&lake, "/quality"),
            lake.query_trace_text(),
        )
    };
    let (ea, da, qa, ta) = run();
    let (eb, db, qb, tb) = run();
    assert!(!ea.is_empty() && ea.contains("\"explain\""), "{ea}");
    assert_eq!(ea, eb, "EXPLAIN replays byte-for-byte");
    assert_eq!(da, db, "/debug/queries replays byte-for-byte");
    assert_eq!(qa, qb, "/quality replays byte-for-byte");
    assert!(!ta.is_empty(), "query journal captured the requests");
    assert_eq!(ta, tb, "query trace journals replay byte-for-byte");
    // The flight recorder saw all five row queries (EXPLAIN included).
    assert!(da.contains("\"observed\":5"), "{da}");
}

#[test]
fn explain_costs_reconcile_with_query_histograms() {
    let mut lake = lake(None);
    lake.run_rounds(10).expect("rounds complete");
    let explain = body(&lake, "/query?table=sps&instance_type=m5.large&explain=1");
    let pick = |key: &str| -> f64 {
        explain
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|s| s.split(['}', ',']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {explain}"))
    };
    let cost = pick("cost");
    let rows_decoded = pick("rows_decoded");
    assert!(cost > 0.0);
    let metrics = body(&lake, "/metrics");
    let sum_of = |family: &str| -> f64 {
        metrics
            .lines()
            .find(|l| l.starts_with(&format!("{family}_sum{{op=\"query\",table=\"sps\"}}")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {family} sum in metrics"))
    };
    assert_eq!(
        sum_of(names::QUERY_COST.name),
        cost,
        "single query: histogram sum equals EXPLAIN cost"
    );
    assert_eq!(sum_of(names::QUERY_ROWS_DECODED.name), rows_decoded);
}

#[test]
fn quality_reports_coverage_and_flags_faulted_gaps() {
    // Clean run: full coverage, nothing stale.
    let mut clean = lake(None);
    clean.run_rounds(12).expect("clean run");
    let q = body(&clean, "/quality");
    assert!(q.contains("\"dataset\":\"sps\""), "{q}");
    // 3 types × 6 AZs.
    assert!(q.contains("\"keys_tracked\":18"), "{q}");
    assert!(q.contains("\"min_coverage\":1"), "{q}");
    let metrics = body(&clean, "/metrics");
    assert!(
        metrics.contains("spotlake_archive_keys_tracked{dataset=\"sps\"} 18"),
        "{metrics}"
    );

    // Skipped rounds (breaker forced open) must show as staleness and a
    // coverage gap for exactly the skipped dataset.
    let mut faulty = lake(None);
    faulty.run_rounds(6).expect("warm-up");
    let tick = faulty.cloud().ticks();
    faulty
        .collector_mut()
        .force_breaker_open(Dataset::Advisor, tick);
    faulty.run_rounds(3).expect("rounds with open breaker");
    let q = body(&faulty, "/quality");
    // Keys render sorted, so the per-dataset aggregates are contiguous:
    // all 6 advisor keys (3 types × 2 regions) went stale for the 3
    // skipped rounds, while sps kept full coverage.
    assert!(
        q.contains("\"dataset\":\"advisor\",\"gaps_total\":0,\"keys_stale\":6,\"keys_tracked\":6,\"max_staleness_ticks\":3"),
        "{q}"
    );
    assert!(
        q.contains("\"dataset\":\"sps\",\"gaps_total\":0,\"keys_stale\":0"),
        "{q}"
    );
    let metrics = body(&faulty, "/metrics");
    let stale_line = metrics
        .lines()
        .find(|l| l.starts_with("spotlake_archive_keys_stale{dataset=\"advisor\"}"))
        .expect("staleness gauge exported");
    assert!(!stale_line.ends_with(" 0"), "{stale_line}");

    // Once the breaker cools down and the advisor recovers, the outage is
    // no longer staleness but a recorded *gap* with missed rounds.
    faulty.run_rounds(12).expect("recovery rounds");
    let q = body(&faulty, "/quality");
    assert!(
        q.contains("\"dataset\":\"advisor\",\"gaps_total\":6,\"keys_stale\":0"),
        "one gap per advisor key after recovery: {q}"
    );
    let missed: u64 = q
        .split("\"missed_rounds_total\":")
        .nth(1)
        .and_then(|s| s.split(['}', ',']).next())
        .and_then(|s| s.parse().ok())
        .expect("missed_rounds_total present");
    assert!(missed > 0, "{q}");
}

#[test]
fn http_content_types_are_correct_over_the_full_stack() {
    let mut lake = lake(None);
    lake.run_rounds(2).expect("rounds complete");
    let ct = |path: &str| {
        let r = lake.http_get(path).expect("request parses");
        assert_eq!(r.status, 200, "GET {path}");
        r.content_type
    };
    assert_eq!(ct("/metrics"), "text/plain; version=0.0.4");
    assert_eq!(ct("/debug/traces"), "text/plain");
    assert_eq!(ct("/debug/queries"), "application/json");
    assert_eq!(ct("/quality"), "application/json");
    assert_eq!(ct("/stats"), "application/json");
    assert_eq!(ct("/query?table=sps"), "application/json");
    assert_eq!(ct("/query?table=sps&format=csv"), "text/csv");
    assert_eq!(ct("/"), "text/html");
}
