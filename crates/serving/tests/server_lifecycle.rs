//! End-to-end tests of the request-lifecycle observability surface:
//! request-id echo on success and error paths, per-phase timelines via
//! `/debug/requests`, the telemetry ring buffer via `/debug/telemetry`,
//! and the client↔server correlation in the v2 bench document — all
//! driven over real loopback sockets.

use spotlake_obs::names;
use spotlake_serving::server::loadgen::{self, fetch, fetch_with_id, ChaosProfile, LoadConfig};
use spotlake_serving::server::{Server, ServerConfig, ServerHandle, SharedArchive};
use spotlake_timestream::{Database, Record, TableOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn archive() -> Database {
    let mut db = Database::new();
    db.create_table("sps", TableOptions::default()).unwrap();
    let records: Vec<Record> = (0..50u64)
        .map(|t| {
            Record::new(t * 100, "sps", (t % 9) as f64)
                .dimension("instance_type", "m5.large")
                .dimension("region", "us-east-1")
        })
        .collect();
    db.write("sps", &records).unwrap();
    db
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(SharedArchive::new(archive()), config).expect("bind loopback")
}

/// Sends raw bytes and returns the full response text.
fn send_raw(handle: &ServerHandle, payload: &[u8]) -> String {
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(payload).expect("write");
    let mut response = Vec::new();
    let _ = conn.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn request_ids_are_echoed_on_success_and_431_paths() {
    let handle = start(ServerConfig::default());

    // Clean 200: the header is present and parseable.
    let (status, _, id) = fetch_with_id(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let first = id.expect("200 response must echo x-spotlake-request-id");
    assert!(first >= 1, "ids start at 1, got {first}");

    // Ids are unique and increase across requests.
    let (_, _, second) = fetch_with_id(handle.addr(), "/health", Duration::from_secs(5)).unwrap();
    let second = second.expect("second response must echo an id");
    assert!(second > first, "expected {second} > {first}");

    // The 431 error path (oversized head) carries the header too.
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 * 1024));
    let response = send_raw(&handle, huge.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");

    handle.shutdown();
}

#[test]
fn shed_503_responses_carry_request_ids() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    // Pin the only worker and fill the queue with idle connections.
    let busy = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The next connection is shed at the listener — before any worker
    // touches it — and still gets an id.
    let mut shed = TcpStream::connect(handle.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = Vec::new();
    shed.read_to_end(&mut response).unwrap();
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    assert!(response.contains("retry-after: 1\r\n"), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");

    drop(busy);
    drop(queued);
    let report = handle.shutdown();
    assert!(report.totals.shed >= 1, "{:?}", report.totals);
}

#[test]
fn phase_timelines_are_monotonic_and_served_at_debug_requests() {
    let handle = start(ServerConfig::default());
    for path in ["/tables", "/query?table=sps&limit=5", "/metrics", "/health"] {
        let (status, _) = fetch(handle.addr(), path, Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200, "{path}");
    }

    // Structural invariants, straight from the recorder: four phases in
    // wire order, contiguous, monotonic, never overlapping.
    let records = handle.requests().snapshot();
    assert!(!records.is_empty(), "no request timelines recorded");
    for record in &records {
        assert!(record.request_id >= 1);
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, ["queue_wait", "parse", "handle", "write"]);
        let mut cursor = 0u64;
        for phase in &record.phases {
            assert_eq!(
                phase.start_micros, cursor,
                "phase {} of request {} does not start where the previous ended",
                phase.phase, record.request_id
            );
            assert!(
                phase.end_micros >= phase.start_micros,
                "phase {} of request {} runs backwards",
                phase.phase,
                record.request_id
            );
            cursor = phase.end_micros;
        }
        assert!(
            record.total_micros >= cursor,
            "request {} total {} < last phase end {}",
            record.request_id,
            record.total_micros,
            cursor
        );
    }

    // The same timelines are served over the wire as JSON.
    let (status, body) = fetch(handle.addr(), "/debug/requests", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    for key in [
        "\"capacity\":",
        "\"observed\":",
        "\"request_id\":",
        "\"queue_wait\"",
        "\"handle\"",
        "\"write\"",
        "\"total_micros\":",
    ] {
        assert!(body.contains(key), "{key} missing from {body}");
    }

    // /debug/queries joins on the same request id.
    let (status, body) = fetch(handle.addr(), "/debug/queries", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"request_id\":"), "{body}");

    let report = handle.shutdown();
    // Every phase summarized, with as many observations as requests.
    let phases: Vec<&str> = report.phases.iter().map(|p| p.phase).collect();
    assert_eq!(phases, ["queue_wait", "parse", "handle", "write"]);
    for phase in &report.phases {
        assert!(phase.count >= 4, "{phase:?}");
        assert!(phase.p50_micros <= phase.p99_micros, "{phase:?}");
    }
}

#[test]
fn telemetry_endpoint_serves_jsonl_and_404s_when_disabled() {
    // Without a sampler interval the endpoint fails closed.
    let disabled = start(ServerConfig::default());
    let (status, body) =
        fetch(disabled.addr(), "/debug/telemetry", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 404);
    assert!(body.contains("telemetry disabled"), "{body}");
    let report = disabled.shutdown();
    assert!(report.telemetry_jsonl.is_none());

    // With one, the ring buffer is served as one JSON object per line.
    let handle = start(ServerConfig {
        telemetry_interval: Some(Duration::from_millis(2)),
        ..ServerConfig::default()
    });
    let (status, _) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(30));
    let (status, body) = fetch(handle.addr(), "/debug/telemetry", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let first = body.lines().next().unwrap_or_default();
    assert!(first.starts_with("{\"seq\":0,\"at_micros\":"), "{first}");
    assert!(body.contains(names::SERVER_REQUESTS_TOTAL.name), "{body}");
    assert!(body.contains(names::TELEMETRY_SAMPLES_TOTAL.name), "{body}");

    let report = handle.shutdown();
    // The shutdown report carries the final buffer (plus a last sample).
    let jsonl = report.telemetry_jsonl.expect("telemetry was enabled");
    assert!(jsonl.lines().count() >= 2, "{jsonl}");
    assert!(jsonl.contains(names::HTTP_REQUESTS_TOTAL.name), "{jsonl}");
}

/// The acceptance scenario: a seeded loadgen run against an overloaded
/// server produces the v2 bench document with client *and* server phase
/// quantiles, plus a telemetry series whose samples show a visibly
/// nonzero queue depth during the shedding window.
#[test]
fn overloaded_run_correlates_bench_v2_and_telemetry() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(700),
        telemetry_interval: Some(Duration::from_millis(2)),
        ..ServerConfig::default()
    });

    // Pin the worker and the queue so everything else is shed while the
    // sampler watches the queue sit full.
    let busy = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let config = LoadConfig {
        seed: 42,
        clients: 3,
        requests_per_client: 6,
        chaos: ChaosProfile::None,
        ..LoadConfig::default()
    };
    let report = loadgen::run(handle.addr(), &config);

    // Release the pinned connections; let the worker drain, then land one
    // clean request so every phase has at least one fast observation.
    drop(busy);
    drop(queued);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match fetch(handle.addr(), "/tables", Duration::from_secs(5)) {
            Ok((200, _)) => break,
            _ if std::time::Instant::now() > deadline => panic!("server never drained"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }

    let server = handle.shutdown();
    assert!(server.totals.shed >= 1, "{:?}", server.totals);
    // Every shed 503 still carried a request id the client recorded.
    assert!(report.responses_with_id >= 1, "{report:?}");
    assert_eq!(report.responses_with_id, report.completed, "{report:?}");
    assert!(report.statuses.get(&503).copied().unwrap_or(0) >= 1);

    // The v3 document correlates both sides and carries the SLO verdict
    // block (telemetry was enabled, so the engine evaluated objectives).
    let slo = server.slo.as_ref().expect("slo report with telemetry on");
    let json = report.to_json(Some(&server.totals), &server.phases, Some(slo));
    for key in [
        "\"version\":3",
        "\"queue_wait_p99\":",
        "\"handle_p99\":",
        "\"write_p99\":",
        "\"responses_with_id\":",
        "\"shed\":",
        "\"slo\":{\"healthy\":",
        "\"name\":\"shed_rate\"",
        "\"page_transitions\":",
        "\"exemplar_request_ids\":",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    // Shedding most of the run's connections must exhaust the shed-rate
    // error budget: the verdict cannot be healthy.
    assert!(!slo.healthy, "{slo:?}");

    // The telemetry series saw the queue sitting nonzero while load was
    // being shed.
    let jsonl = server.telemetry_jsonl.expect("telemetry was enabled");
    let saw_queue_depth = jsonl.lines().any(|line| {
        line.contains("\"spotlake_server_queue_depth\":")
            && !line.contains("\"spotlake_server_queue_depth\":0")
    });
    assert!(
        saw_queue_depth,
        "no nonzero spotlake_server_queue_depth sample in:\n{jsonl}"
    );
}

/// Every error path the wire and deadline layers can produce — 400, 404,
/// 405, 408, and 504 — must echo `x-spotlake-request-id` like the
/// success paths do, or the exemplar join from SLO alerts back to
/// `/debug/requests` breaks exactly when it matters.
#[test]
fn error_paths_400_404_405_408_504_echo_request_ids() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // 400: a syntactically broken request line.
    let response = send_raw(&handle, b"GET badpath-without-a-slash\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");

    // 404: a well-formed request for a path nobody serves.
    let response = send_raw(&handle, b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");

    // 405: a method the wire layer refuses.
    let response = send_raw(&handle, b"POST /tables HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");

    // 408: a head that never finishes arriving (slowloris bound).
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(b"GET /hea").expect("partial head");
    let mut response = Vec::new();
    let _ = conn.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");
    handle.shutdown();

    // 504: a zero deadline answers every request past-deadline.
    let handle = start(ServerConfig {
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    });
    let response = send_raw(&handle, b"GET /tables HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 504 "), "{response}");
    assert!(response.contains("x-spotlake-request-id: "), "{response}");
    handle.shutdown();
}

/// The SLO loop end to end, deterministically: an objective whose
/// ceiling no real request can meet pages on the first evaluated
/// sample, `/health` degrades to 503-unhealthy, `/debug/slo` serves the
/// verdict with exemplars, and every exemplar id resolves at
/// `/debug/requests`.
#[test]
fn page_level_burn_degrades_health_and_links_exemplars() {
    use spotlake_obs::{BurnPolicy, SloSet, SloSignal, SloSpec};

    let handle = start(ServerConfig {
        telemetry_interval: Some(Duration::from_millis(2)),
        slo: SloSet {
            // An impossible ceiling: any observed handle p99 exceeds it,
            // so every sample after the first request is a bad unit and
            // the burn pages deterministically.
            objectives: vec![SloSpec::new(
                "handle_latency",
                0.95,
                SloSignal::PhaseLatency {
                    phase: "handle".to_owned(),
                    p99_micros_max: -1.0,
                },
            )],
            policy: BurnPolicy::default(),
        },
        ..ServerConfig::default()
    });

    // Before any request the phase histogram is empty: no units, no
    // alert, healthy /health.
    let (status, body) = fetch(handle.addr(), "/health", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"slo\""), "{body}");

    // One real request populates the handle p99; the next samples all
    // judge it over the ceiling and the burn pages.
    let (status, _) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let slo_body = loop {
        let (status, body) = fetch(handle.addr(), "/debug/slo", Duration::from_secs(5)).unwrap();
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"page\"") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never paged; last /debug/slo: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    // A page-level burn makes /health answer 503-unhealthy, naming the
    // slo component.
    let (status, body) = fetch(handle.addr(), "/health", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"status\":\"unhealthy\""), "{body}");
    assert!(body.contains("\"name\":\"slo\""), "{body}");
    assert!(body.contains("handle_latency page"), "{body}");

    // The paging objective carries exemplar request ids, and every one
    // of them resolves in /debug/requests.
    let ids = extract_exemplar_ids(&slo_body);
    assert!(!ids.is_empty(), "no exemplars in {slo_body}");
    let (status, requests_body) =
        fetch(handle.addr(), "/debug/requests", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    for id in &ids {
        assert!(
            requests_body.contains(&format!("\"request_id\":{id},")),
            "exemplar {id} not resolvable in {requests_body}"
        );
    }

    // The shutdown report agrees with the wire view: still paging, same
    // objective, exemplars attached.
    let report = handle.shutdown();
    let slo = report.slo.expect("slo report with telemetry on");
    assert!(!slo.healthy);
    assert_eq!(slo.objectives.len(), 1);
    assert_eq!(slo.objectives[0].name, "handle_latency");
    assert!(!slo.objectives[0].exemplar_request_ids.is_empty());
    assert!(!slo.objectives[0].transitions.is_empty());
    // The alert transition also landed in the trace journal.
    // (The journal is rendered through the gateway's trace endpoint at
    // runtime; here the report's metrics text proves the counter side.)
    assert!(
        report.metrics_text.contains(
            "spotlake_slo_alert_transitions_total{objective=\"handle_latency\",to=\"page\"} 1"
        ),
        "{}",
        report.metrics_text
    );
}

/// Pulls the ids out of the first `"exemplar_request_ids":[...]` array.
fn extract_exemplar_ids(body: &str) -> Vec<u64> {
    let start = body.find("\"exemplar_request_ids\":[").map(|i| i + 24);
    let Some(start) = start else {
        return Vec::new();
    };
    let end = body[start..].find(']').map(|i| start + i).unwrap_or(start);
    body[start..end]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}
