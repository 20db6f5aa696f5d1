//! End-to-end tests of persistent connections: one test per contract of
//! the keep-alive loop — who closes and when, per-request ids and phases,
//! the idle and slowloris bounds, the fairness rule on a two-worker pool,
//! and shutdown with a kept client. Every test drives a real listener
//! over loopback sockets, reading responses framed by `content-length`
//! the way a keep-alive client must.

use spotlake_serving::server::{
    Server, ServerConfig, ServerHandle, SharedArchive, KEEP_ALIVE_IDLE, KEEP_ALIVE_MAX_REQUESTS,
};
use spotlake_timestream::{Database, Record, TableOptions};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

fn two_workers() -> ServerConfig {
    ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    }
}

/// The gap a busy test client leaves between requests: far under the
/// idle bound, so its socket never idles, and long enough that reaching
/// [`KEEP_ALIVE_MAX_REQUESTS`] takes seconds. A worker such a client
/// gives back within a test is given back by the rule under test.
const PACE: Duration = Duration::from_millis(3);

/// Spins until `ready` holds; a client thread that died first fails the
/// test instead of hanging it.
fn wait_until(ready: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !ready() {
        assert!(Instant::now() < give_up, "the client threads never started");
        std::thread::yield_now();
    }
}

/// One parsed response.
#[derive(Debug)]
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.split("\r\n").skip(1).find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }

    /// The `connection` header, which the server sends on every response.
    fn connection(&self) -> &str {
        self.header("connection").expect("a connection header")
    }

    fn request_id(&self) -> u64 {
        self.header("x-spotlake-request-id")
            .and_then(|v| v.parse().ok())
            .expect("an x-spotlake-request-id header")
    }
}

/// A client socket that reads responses framed by `content-length`,
/// keeping bytes past one response for the next.
struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        Conn {
            stream,
            carry: Vec::new(),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    fn get(&mut self, path: &str) -> Response {
        self.send(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes());
        self.response().expect("a response")
    }

    /// The next response, or `None` when the server closed (or reset)
    /// the connection before sending a byte of one.
    fn response(&mut self) -> Option<Response> {
        let head_end = loop {
            if let Some(i) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            if !self.fill() {
                assert!(self.carry.is_empty(), "cut mid-head: {:?}", self.carry);
                return None;
            }
        };
        let head = String::from_utf8(self.carry[..head_end].to_vec()).unwrap();
        let length: usize = head
            .split("\r\n")
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.parse().ok())
            .expect("content-length");
        while self.carry.len() < head_end + length {
            assert!(self.fill(), "cut mid-body");
        }
        let body = String::from_utf8(self.carry[head_end..head_end + length].to_vec()).unwrap();
        self.carry.drain(..head_end + length);
        let status = head[9..12].parse().unwrap();
        Some(Response { status, head, body })
    }

    /// Reads once more; `false` at EOF or reset.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => false,
            Ok(n) => {
                self.carry.extend_from_slice(&chunk[..n]);
                true
            }
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {
                false
            }
            Err(e) => panic!("read: {e}"),
        }
    }

    /// Asserts the server closed the connection with nothing more to say.
    fn assert_closed(&mut self) {
        assert!(!self.fill(), "expected EOF, got {:?}", self.carry);
        assert!(self.carry.is_empty());
    }
}

#[test]
fn requests_on_one_socket_get_distinct_increasing_ids_and_one_connection() {
    let handle = start(two_workers());
    let mut conn = Conn::open(handle.addr());
    let mut last = 0;
    for path in ["/tables", "/health", "/query?table=sps&limit=3", "/tables"]
        .iter()
        .cycle()
        .take(20)
    {
        let response = conn.get(path);
        assert_eq!(response.status, 200, "{path}: {}", response.body);
        assert_eq!(response.connection(), "keep-alive");
        let id = response.request_id();
        assert!(id > last, "id {id} after {last}");
        last = id;
    }
    let metrics = conn.get("/metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("spotlake_server_connections_total 1\n"),
        "{}",
        metrics.body
    );
    drop(conn);
    let report = handle.shutdown();
    assert_eq!(report.totals.accepted, 1, "{:?}", report.totals);
    assert_eq!(report.totals.served, 21, "{:?}", report.totals);
}

#[test]
fn the_last_request_a_connection_may_carry_says_close() {
    let handle = start(two_workers());
    let mut conn = Conn::open(handle.addr());
    for n in 1..=KEEP_ALIVE_MAX_REQUESTS {
        let response = conn.get("/health");
        assert_eq!(response.status, 200);
        let want = if n < KEEP_ALIVE_MAX_REQUESTS {
            "keep-alive"
        } else {
            "close"
        };
        assert_eq!(response.connection(), want, "request {n}");
    }
    conn.assert_closed();
    assert_eq!(handle.shutdown().totals.accepted, 1);
}

#[test]
fn connection_close_and_bare_http_1_0_are_honoured() {
    let handle = start(two_workers());
    for head in [
        "GET /tables HTTP/1.1\r\nconnection: close\r\n\r\n",
        "GET /tables HTTP/1.1\r\nConnection: Close\r\n\r\n",
        "GET /tables HTTP/1.0\r\n\r\n",
    ] {
        let mut conn = Conn::open(handle.addr());
        conn.send(head.as_bytes());
        let response = conn.response().expect("a response");
        assert_eq!(response.status, 200, "{head:?}");
        assert_eq!(response.connection(), "close", "{head:?}");
        conn.assert_closed();
    }
    // HTTP/1.0 that asks for keep-alive gets it.
    let mut conn = Conn::open(handle.addr());
    conn.send(b"GET /tables HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
    assert_eq!(conn.response().unwrap().connection(), "keep-alive");
    assert_eq!(conn.get("/health").status, 200);
    drop(conn);
    handle.shutdown();
}

#[test]
fn wire_errors_500s_and_504s_close_the_connection() {
    let handle = start(ServerConfig {
        panic_route: Some("/boom".to_owned()),
        ..two_workers()
    });
    let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64 * 1024));
    for (bad, status) in [
        (&b"GET no-leading-slash\r\n\r\n"[..], 400),
        (b"DELETE /tables HTTP/1.1\r\n\r\n", 405),
        (b"GET /tables HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc", 413),
        (oversized.as_bytes(), 431),
        (b"GET /tables HTTP/2.0\r\n\r\n", 505),
        (b"GET /boom HTTP/1.1\r\n\r\n", 500),
    ] {
        // A kept connection first, so the close is the error's doing.
        let mut conn = Conn::open(handle.addr());
        assert_eq!(conn.get("/tables").connection(), "keep-alive");
        conn.send(bad);
        let response = conn.response().expect("an error response");
        assert_eq!(response.status, status, "{}", response.body);
        assert_eq!(response.connection(), "close", "{status}");
        conn.assert_closed();
    }
    handle.shutdown();

    let handle = start(ServerConfig {
        deadline: Duration::ZERO,
        ..two_workers()
    });
    let mut conn = Conn::open(handle.addr());
    let response = conn.get("/tables");
    assert_eq!(response.status, 504);
    assert_eq!(response.connection(), "close");
    conn.assert_closed();
    handle.shutdown();
}

#[test]
fn a_gateway_404_or_400_keeps_the_connection() {
    let handle = start(two_workers());
    let mut conn = Conn::open(handle.addr());
    let response = conn.get("/nope");
    assert_eq!(response.status, 404);
    assert_eq!(response.connection(), "keep-alive");
    let response = conn.get("/query?table=sps&limit=x");
    assert_eq!(response.status, 400);
    assert_eq!(response.connection(), "keep-alive");
    assert_eq!(conn.get("/tables").status, 200);
    drop(conn);
    assert_eq!(handle.shutdown().totals.accepted, 1);
}

#[test]
fn an_inverted_range_is_a_400_and_the_worker_serves_the_next_request() {
    let handle = start(two_workers());
    let mut conn = Conn::open(handle.addr());
    // 1000 > 500, and both bounds fall inside the series (0..4900).
    let response = conn.get("/query?table=sps&instance_type=m5.large&from=1000&to=500");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("from must not exceed to"),
        "{}",
        response.body
    );
    assert_eq!(response.connection(), "keep-alive");
    let response = conn.get("/query?table=sps&instance_type=m5.large&from=500&to=1000");
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"time\":1000"), "{}", response.body);
    drop(conn);
    let report = handle.shutdown();
    assert_eq!(report.totals.worker_panics, 0);
    assert_eq!(report.totals.accepted, 1);
}

#[test]
fn an_idle_kept_socket_closes_silently_within_the_idle_bound() {
    // A read timeout far above the idle bound: if idling fell under the
    // slowloris rule, this socket would wait 2 s and then get a 408.
    let handle = start(ServerConfig {
        read_timeout: Duration::from_secs(2),
        ..two_workers()
    });
    let mut conn = Conn::open(handle.addr());
    assert_eq!(conn.get("/tables").connection(), "keep-alive");
    let idle_from = Instant::now();
    conn.assert_closed();
    let idled = idle_from.elapsed();
    assert!(
        idled >= KEEP_ALIVE_IDLE - Duration::from_millis(10),
        "closed after {idled:?}"
    );
    assert!(
        idled < KEEP_ALIVE_IDLE + Duration::from_millis(500),
        "closed after {idled:?}"
    );

    let report = handle.shutdown();
    assert_eq!(report.totals.served, 1, "{:?}", report.totals);
    assert_eq!(report.totals.slow_clients_closed, 0, "{:?}", report.totals);
    assert!(
        !report.metrics_text.contains("status=\"aborted\""),
        "{}",
        report.metrics_text
    );
    assert!(!report.metrics_text.contains("status=\"408\""));
}

#[test]
fn a_head_started_on_a_kept_socket_is_under_the_slowloris_rule() {
    let handle = start(ServerConfig {
        read_timeout: KEEP_ALIVE_IDLE * 4,
        ..two_workers()
    });
    // A head that pauses longer than the idle bound, but within the read
    // timeout, once it has started, is still served.
    let mut conn = Conn::open(handle.addr());
    assert_eq!(conn.get("/tables").status, 200);
    conn.send(b"GET /hea");
    std::thread::sleep(KEEP_ALIVE_IDLE * 2);
    conn.send(b"lth HTTP/1.1\r\n\r\n");
    let response = conn.response().expect("the paused head is answered");
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.connection(), "keep-alive");

    // One that stalls past the read timeout gets its 408, and the close.
    conn.send(b"GET /tab");
    let response = conn.response().expect("a 408");
    assert_eq!(response.status, 408, "{}", response.body);
    assert_eq!(response.connection(), "close");
    conn.assert_closed();
    let report = handle.shutdown();
    assert_eq!(report.totals.slow_clients_closed, 1, "{:?}", report.totals);
}

#[test]
fn two_idle_kept_clients_cannot_starve_a_third_on_two_workers() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_secs(2),
        ..two_workers()
    });
    // Each idle client pins one of the two workers. They connect one at
    // a time: a connection still queued while the other's response is
    // written would (rightly) get that response closed.
    let mut idle = Vec::new();
    for _ in 0..2 {
        let mut conn = Conn::open(handle.addr());
        assert_eq!(conn.get("/tables").connection(), "keep-alive");
        idle.push(conn);
    }
    let asked = Instant::now();
    let mut third = Conn::open(handle.addr());
    let response = third.get("/tables");
    let waited = asked.elapsed();
    assert_eq!(response.status, 200);
    assert!(
        waited < Duration::from_secs(1),
        "the third client waited {waited:?} of a 2 s deadline"
    );
    for conn in &mut idle {
        conn.assert_closed();
    }
    drop(third);
    handle.shutdown();
}

#[test]
fn two_busy_kept_clients_yield_a_worker_to_a_third_on_two_workers() {
    let handle = start(two_workers());
    let addr = handle.addr();
    let done = AtomicBool::new(false);
    let looping = AtomicU64::new(0);
    let told_to_close = AtomicU64::new(0);
    let waited = std::thread::scope(|scope| {
        // Two closed loops, each on a kept socket that never idles: they
        // reconnect only when a response tells them to.
        for _ in 0..2 {
            scope.spawn(|| {
                let give_up = Instant::now() + Duration::from_secs(3);
                let mut conn = Conn::open(addr);
                let mut served = 0;
                while !done.load(Ordering::SeqCst) && Instant::now() < give_up {
                    let response = conn.get("/tables");
                    assert_eq!(response.status, 200);
                    served += 1;
                    if served == 1 {
                        looping.fetch_add(1, Ordering::SeqCst);
                    }
                    if response.connection() == "close" {
                        told_to_close.fetch_add(1, Ordering::SeqCst);
                        conn = Conn::open(addr);
                    }
                    std::thread::sleep(PACE);
                }
            });
        }
        // Both workers are taken before the third client connects.
        wait_until(|| looping.load(Ordering::SeqCst) == 2);
        let asked = Instant::now();
        let mut third = Conn::open(addr);
        let response = third.get("/tables");
        let waited = asked.elapsed();
        done.store(true, Ordering::SeqCst);
        assert_eq!(response.status, 200);
        waited
    });
    assert!(
        waited < Duration::from_secs(1),
        "the third client waited {waited:?} behind two busy kept clients"
    );
    assert!(told_to_close.load(Ordering::SeqCst) >= 1);
    handle.shutdown();
}

#[test]
fn shutdown_with_kept_clients_returns_promptly_and_counts_every_request() {
    let handle = start(ServerConfig {
        read_timeout: Duration::from_secs(2),
        ..two_workers()
    });
    let addr = handle.addr();
    // One client idles on its kept socket; another keeps its socket busy
    // and must be told to close, or its worker would never come back.
    let mut idle = Conn::open(addr);
    for _ in 0..3 {
        assert_eq!(idle.get("/tables").connection(), "keep-alive");
    }
    let started = AtomicBool::new(false);
    let (took, report, busy_served) = std::thread::scope(|scope| {
        let busy = scope.spawn(|| {
            let give_up = Instant::now() + Duration::from_secs(3);
            let mut conn = Conn::open(addr);
            let mut served = 0u64;
            while Instant::now() < give_up {
                let response = conn.get("/tables");
                assert_eq!(response.status, 200);
                served += 1;
                started.store(true, Ordering::SeqCst);
                if response.connection() == "close" {
                    conn.assert_closed();
                    return served;
                }
                std::thread::sleep(PACE);
            }
            panic!("never told to close");
        });
        wait_until(|| started.load(Ordering::SeqCst));
        let asked = Instant::now();
        let report = handle.shutdown();
        (asked.elapsed(), report, busy.join().unwrap())
    });
    assert!(
        took < KEEP_ALIVE_IDLE + Duration::from_millis(500),
        "shutdown took {took:?}"
    );
    assert_eq!(report.totals.served, 3 + busy_served, "{:?}", report.totals);
    idle.assert_closed();
}

#[test]
fn kept_requests_have_no_queue_wait_and_contiguous_phases() {
    let handle = start(two_workers());
    let mut conn = Conn::open(handle.addr());
    let mut ids = Vec::new();
    for _ in 0..3 {
        ids.push(conn.get("/tables").request_id());
        // Idle between requests, well inside the idle bound: a kept
        // request's timeline starts at its first byte, so none of this
        // may show up in any phase.
        std::thread::sleep(KEEP_ALIVE_IDLE * 3 / 5);
    }
    let response = conn.get("/debug/requests");
    assert_eq!(response.status, 200);
    assert!(
        response
            .body
            .contains("\"end_micros\":0,\"phase\":\"queue_wait\",\"start_micros\":0}"),
        "{}",
        response.body
    );

    let records = handle.requests().snapshot();
    for &id in &ids {
        let record = records
            .iter()
            .find(|r| r.request_id == id)
            .unwrap_or_else(|| panic!("request {id} not recorded"));
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase).collect();
        assert_eq!(names, ["queue_wait", "parse", "handle", "write"]);
        let mut cursor = 0;
        for phase in &record.phases {
            assert_eq!(phase.start_micros, cursor, "request {id}: {record:?}");
            assert!(phase.end_micros >= phase.start_micros);
            cursor = phase.end_micros;
        }
        assert!(record.total_micros >= cursor);
        if id != ids[0] {
            assert_eq!(record.phases[0].end_micros, 0, "kept request {id} queued");
            let idle = (KEEP_ALIVE_IDLE * 3 / 5).as_micros() as u64;
            assert!(
                record.total_micros < idle,
                "kept request {id} counts idle time: {record:?}"
            );
        }
    }
    drop(conn);
    handle.shutdown();
}
