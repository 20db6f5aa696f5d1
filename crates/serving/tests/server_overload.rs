//! End-to-end tests of the TCP serving path's overload envelope: the
//! fail-closed wire surface, admission-control shedding, per-request
//! deadlines, slow-client timeouts, graceful shutdown, and the seeded
//! load generator's determinism. Every test drives a real listener over
//! loopback sockets.

use spotlake_obs::names;
use spotlake_serving::server::loadgen::{self, fetch, ActionKind, ChaosProfile, LoadConfig};
use spotlake_serving::server::{Server, ServerConfig, ServerHandle, SharedArchive};
use spotlake_timestream::{Database, Record, TableOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A small archive with realistic tables so the query mix hits data.
fn archive() -> Database {
    let mut db = Database::new();
    for table in ["sps", "price", "advisor"] {
        db.create_table(table, TableOptions::default()).unwrap();
        let mut records = Vec::new();
        for t in 0..40u64 {
            for (instance, region) in [
                ("m5.large", "us-east-1"),
                ("c5.large", "us-west-2"),
                ("r5.xlarge", "eu-west-1"),
            ] {
                records.push(
                    Record::new(t * 100, table, (t % 7) as f64)
                        .dimension("instance_type", instance)
                        .dimension("region", region),
                );
            }
        }
        db.write(table, &records).unwrap();
    }
    db
}

fn start(config: ServerConfig) -> ServerHandle {
    Server::start(SharedArchive::new(archive()), config).expect("bind loopback")
}

fn quick() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    }
}

/// Sends raw bytes and returns the full response text ("" if the server
/// just closed the connection).
fn send_raw(handle: &ServerHandle, payload: &[u8]) -> String {
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(payload).expect("write");
    let mut response = Vec::new();
    let _ = conn.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn hostile_wire_input_fails_closed_and_the_server_keeps_serving() {
    let handle = start(quick());

    // Malformed request line -> 400.
    let response = send_raw(&handle, b"GET no-leading-slash\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    // Binary garbage -> 400.
    let response = send_raw(&handle, b"\x00\x01\x02\x03\r\n\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    // Non-GET -> 405.
    let response = send_raw(&handle, b"DELETE /tables HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
    // Unsupported version -> 505.
    let response = send_raw(&handle, b"GET / HTTP/2.0\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 505 "), "{response}");
    // A request body -> 413 (the archive is read-only).
    let response = send_raw(&handle, b"POST / HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc");
    assert!(response.starts_with("HTTP/1.1 40"), "{response}");
    // An oversized head -> 431.
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 * 1024));
    let response = send_raw(&handle, huge.as_bytes());
    assert!(response.starts_with("HTTP/1.1 431 "), "{response}");
    // A truncated request (client hangs up mid-head) is survived silently.
    {
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.write_all(b"GET /hea").unwrap();
    }

    // After all of that, a clean request still gets a clean answer.
    let (status, body) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("sps"), "{body}");

    let report = handle.shutdown();
    assert_eq!(report.totals.worker_panics, 0);
    assert!(report.totals.bad_requests >= 5, "{:?}", report.totals);
}

#[test]
fn a_worker_panic_does_not_break_later_requests() {
    // Poison-recovery drill: a handler panic crosses the worker's
    // catch_unwind boundary; shared state must keep serving afterwards.
    let handle = start(ServerConfig {
        panic_route: Some("/boom".to_owned()),
        ..quick()
    });

    // The panicking request itself gets a clean 500 with its id echoed.
    let response = send_raw(&handle, b"GET /boom HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 500 "), "{response}");
    assert!(response.contains("x-spotlake-request-id:"), "{response}");

    // The post-panic regression: later requests still get 200s.
    let (status, body) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("sps"), "{body}");
    // The metrics surface (Mutex-backed registries) survived too, and
    // recorded the panic.
    let (status, metrics) = fetch(handle.addr(), "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains("spotlake_server_worker_panics_total 1"),
        "{metrics}"
    );

    let report = handle.shutdown();
    assert_eq!(report.totals.worker_panics, 1, "{:?}", report.totals);
    assert!(report.totals.served >= 2, "{:?}", report.totals);
}

#[test]
fn full_admission_queue_sheds_503_with_retry_after() {
    // One worker, a queue of one: the third idle connection must be shed.
    let handle = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });

    // Occupy the worker: a connection that sends nothing pins it until
    // the read timeout.
    let busy = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Fill the queue.
    let queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // This one has nowhere to go: 503 + Retry-After, connection closed.
    let mut shed = TcpStream::connect(handle.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut response = Vec::new();
    shed.read_to_end(&mut response).unwrap();
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 503 "), "{response}");
    assert!(response.contains("retry-after: 1\r\n"), "{response}");
    assert!(response.contains("admission queue full"), "{response}");

    // Release the pinned connections so shutdown drains immediately.
    drop(busy);
    drop(queued);
    let report = handle.shutdown();
    assert!(report.totals.shed >= 1, "{:?}", report.totals);
    assert_eq!(report.totals.worker_panics, 0);
}

#[test]
fn exhausted_deadline_answers_504() {
    let handle = start(ServerConfig {
        deadline: Duration::ZERO,
        ..quick()
    });
    let (status, body) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 504);
    assert!(body.contains("deadline"), "{body}");
    let report = handle.shutdown();
    assert!(report.totals.deadline_exceeded >= 1);
}

#[test]
fn slow_clients_are_timed_out_with_408() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_millis(60),
        ..quick()
    });
    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(b"GET /tables HT").unwrap();
    // Stall far past the server's read timeout.
    std::thread::sleep(Duration::from_millis(400));
    let mut response = Vec::new();
    let _ = conn.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    let report = handle.shutdown();
    assert!(
        report.totals.slow_clients_closed >= 1,
        "{:?}",
        report.totals
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_new_connections() {
    let handle = start(quick());
    let addr = handle.addr();

    // A client that is mid-request when shutdown begins.
    let inflight = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"GET /tables HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(250));
        conn.write_all(b"host: x\r\n\r\n").unwrap();
        let mut response = Vec::new();
        conn.read_to_end(&mut response).unwrap();
        String::from_utf8_lossy(&response).into_owned()
    });

    // Let the worker pick the connection up, then drain.
    std::thread::sleep(Duration::from_millis(100));
    let report = handle.shutdown();

    // The in-flight request completed normally during the drain.
    let response = inflight.join().unwrap();
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    assert!(response.contains("sps"), "{response}");
    assert!(report.totals.served >= 1);

    // The listener is gone: new connections are refused (or reset
    // without a response on the rare accept-backlog race).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut conn) => {
            conn.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = conn.write_all(b"GET / HTTP/1.1\r\n\r\n");
            let mut buf = Vec::new();
            let n = conn.read_to_end(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "shutdown server answered: {buf:?}");
        }
    }

    // The shutdown report carries the flushed metrics document.
    assert!(report
        .metrics_text
        .contains(names::SERVER_REQUESTS_TOTAL.name));
    assert!(report
        .metrics_text
        .contains(names::HTTP_REQUESTS_TOTAL.name));
}

#[test]
fn metrics_endpoint_merges_server_families() {
    let handle = start(quick());
    let (status, _) = fetch(handle.addr(), "/health", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let (status, body) = fetch(handle.addr(), "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    // Server, gateway, and store families in one document.
    assert!(
        body.contains(names::SERVER_CONNECTIONS_TOTAL.name),
        "{body}"
    );
    assert!(body.contains(names::SERVER_INFLIGHT.name), "{body}");
    assert!(body.contains(names::HTTP_REQUESTS_TOTAL.name), "{body}");
    handle.shutdown();
}

#[test]
fn seeded_loadgen_runs_are_deterministic_and_panic_free() {
    let config = LoadConfig {
        seed: 20_220_901,
        clients: 4,
        requests_per_client: 30,
        chaos: ChaosProfile::Light,
        ..LoadConfig::default()
    };

    // The plan is a pure function of the seed: same seed, same actions.
    let planned = loadgen::plan(&config);
    assert_eq!(planned, loadgen::plan(&config));
    let dropped_by_design = planned
        .iter()
        .flatten()
        .filter(|a| matches!(a.kind, ActionKind::Churn | ActionKind::MidDisconnect))
        .count() as u64;
    let malformed_planned = planned
        .iter()
        .flatten()
        .filter(|a| a.kind == ActionKind::Malformed)
        .count() as u64;

    let handle = start(ServerConfig {
        workers: 4,
        queue_depth: 64,
        ..ServerConfig::default()
    });
    let report = loadgen::run(handle.addr(), &config);
    let server = handle.shutdown();

    assert_eq!(report.planned, 120);
    // Every action that expects a response got one; hangups are the
    // only planned non-responses.
    assert_eq!(report.completed + dropped_by_design, report.planned);
    assert_eq!(report.io_errors, 0);
    // Planned malformed requests came back as the planned 400s.
    assert_eq!(
        report.statuses.get(&400).copied().unwrap_or(0),
        malformed_planned
    );
    // No worker panic ever surfaced as a 5xx.
    assert_eq!(server.totals.worker_panics, 0);
    assert_eq!(report.statuses.get(&500).copied().unwrap_or(0), 0);
    // Latency quantiles are real measurements.
    assert!(report.p50_micros > 0.0);
    assert!(report.p50_micros <= report.p90_micros);
    assert!(report.p90_micros <= report.p99_micros);
    assert!(report.throughput_rps > 0.0);

    // The scoreboard document carries the acceptance keys.
    let json = report.to_json(Some(&server.totals), &server.phases, server.slo.as_ref());
    for key in [
        "\"bench\":\"serving\"",
        "\"version\":3",
        "\"seed\":20220901",
        "\"p50\":",
        "\"p90\":",
        "\"p99\":",
        "\"throughput_rps\":",
        "\"worker_panics\":0",
        "\"queue_wait_p99\":",
        "\"handle_p99\":",
        "\"write_p99\":",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
}

#[test]
fn collection_keeps_publishing_while_the_server_reads() {
    // Snapshot semantics: a query never blocks a publish, and a publish
    // never corrupts a running query's view.
    let handle = start(quick());
    let before = handle.archive().epoch();

    let (status, body) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("advisor"), "{body}");

    // Publish a new epoch with an extra table while the server runs.
    let mut next = archive();
    next.create_table("ondemand", TableOptions::default())
        .unwrap();
    handle.archive().replace(next);
    assert_eq!(handle.archive().epoch(), before + 1);

    let (status, body) = fetch(handle.addr(), "/tables", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("ondemand"), "{body}");
    handle.shutdown();
}
