//! The serving engine: listener, bounded worker pool, and the overload
//! envelope.
//!
//! The design goal is that *no client behaviour can take the server
//! down*, and overload degrades service predictably instead of
//! collapsing it:
//!
//! * **Admission control** — accepted connections enter a bounded queue
//!   (`queue_depth`); when it is full the listener answers `503` with a
//!   `Retry-After` header and closes, shedding load at the cheapest
//!   possible point instead of queueing unboundedly.
//! * **Concurrency cap** — `workers` threads bound in-flight handling,
//!   so at most `workers + queue_depth + 1` connections are ever open. A
//!   worker serves one connection at a time, request after request.
//! * **Persistent connections, with a fairness rule** — a response keeps
//!   its connection open (HTTP/1.1 keep-alive, pipelining included)
//!   unless the client asked to close, the status came from the wire
//!   layer or is a `500`/`504`, it is the [`KEEP_ALIVE_MAX_REQUESTS`]-th
//!   request, the server is stopping, or *a connection is waiting in the
//!   admission queue*. That last rule is the fairness rule: a busy kept
//!   connection hands its worker back after at most one more request, an
//!   idle one after [`KEEP_ALIVE_IDLE`]. It is race-free because the
//!   client is told, in the response's `connection: close`, rather than
//!   cut off mid-request.
//! * **Deadlines** — each request gets `deadline` of wall time; requests
//!   that blow it are answered `504` rather than holding a worker
//!   indefinitely from the client's point of view.
//! * **Slowloris protection** — socket read/write timeouts bound how
//!   long a slow client can pin a worker; a head that does not arrive in
//!   time is answered `408` and the connection closed. A kept connection
//!   whose next head does not start within [`KEEP_ALIVE_IDLE`] is closed
//!   silently: no `408`, nothing recorded. Once its first byte arrives,
//!   the head is under the same `read_timeout` as a first request.
//! * **Panic isolation** — handler panics are caught per request,
//!   answered `500`, counted, and the worker keeps serving.
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepting,
//!   drains queued and in-flight requests (each answered `connection:
//!   close`), waits at most [`KEEP_ALIVE_IDLE`] for idle kept sockets,
//!   joins every thread, and returns a [`ServerReport`] with flushed
//!   metrics.
//!
//! The engine is also where the request lifecycle is observed: every
//! request gets its own id (echoed back in the `x-spotlake-request-id`
//! header on every response) and a phase timeline — queue wait, parse,
//! handle, write — recorded into the `spotlake_server_phase_micros`
//! histogram and the slow-request recorder behind `/debug/requests`. A
//! connection's first request is stamped at accept, so shed 503s carry
//! an id too; a later request on the same connection is stamped when its
//! first byte arrives, so its queue wait is zero and idle time is in no
//! phase. When telemetry is enabled, a dedicated sampler thread snapshots
//! every registry into a ring buffer served at `/debug/telemetry` as
//! JSONL.

use super::metrics::{PhaseStats, ServerMetrics, ServerTotals};
use super::shared::SharedArchive;
use super::wire::{self, HeadReader, WireLimits};
use crate::gateway::Gateway;
use crate::http::{status_label, HttpResponse};
use crate::json::Json;
use crate::ops::OpsContext;
use spotlake_obs::{
    AlertState, HealthReport, PhaseSpan, Readiness, Registry, RequestRecord, RequestRecorder,
    SloReport, SloSet, SloTracker, TelemetryRecorder,
};
use std::fmt::Display;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a kept connection may sit idle between requests before its
/// worker closes it. Well under the default 2 s deadline, so an idle
/// client delays a queued one by at most this much, and above the 10 ms
/// gap of a client polling at 100 requests a second.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_millis(100);

/// The most requests one connection may carry; the last one is answered
/// `connection: close`.
pub const KEEP_ALIVE_MAX_REQUESTS: u32 = 1000;

/// Locks `m`, recovering the guard from a poisoned lock (workers share
/// the receiver; a panicking worker must not wedge the pool).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded admission-queue depth; beyond it connections are shed.
    pub queue_depth: usize,
    /// Per-request wall-time budget before a `504`.
    pub deadline: Duration,
    /// Socket read timeout (slow-client bound for the request head).
    pub read_timeout: Duration,
    /// Socket write timeout (slow-client bound for the response).
    pub write_timeout: Duration,
    /// Seconds advertised in the `Retry-After` header of shed responses.
    pub retry_after_secs: u32,
    /// Wire-parser byte/count limits.
    pub limits: WireLimits,
    /// Simulation tick stamped into query traces (0 when unclocked).
    pub tick: u64,
    /// When set, a dedicated sampler thread snapshots every registry at
    /// this interval into the telemetry ring buffer (`/debug/telemetry`).
    pub telemetry_interval: Option<Duration>,
    /// Telemetry ring-buffer capacity in samples (oldest evicted beyond it).
    pub telemetry_capacity: usize,
    /// How many of the slowest requests `/debug/requests` retains.
    pub request_log: usize,
    /// Fault-injection hook: a request for exactly this path panics
    /// inside the worker's `catch_unwind` boundary, exercising the same
    /// poison-recovery path a real handler bug would. `None` (the
    /// default) disables the hook; tests and drills set it.
    pub panic_route: Option<String>,
    /// The SLO objectives evaluated over the telemetry stream. Active
    /// only when `telemetry_interval` is set (the engine has no sample
    /// stream to judge otherwise); served at `/debug/slo`, folded into
    /// `/health`, and reported at shutdown.
    pub slo: SloSet,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            read_timeout: Duration::from_secs(1),
            write_timeout: Duration::from_secs(1),
            retry_after_secs: 1,
            limits: WireLimits::default(),
            tick: 0,
            telemetry_interval: None,
            telemetry_capacity: 1024,
            request_log: 64,
            panic_route: None,
            slo: SloSet::serving_defaults(),
        }
    }
}

/// What the server did over its lifetime, returned by
/// [`ServerHandle::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Monotonic totals from the serving path.
    pub totals: ServerTotals,
    /// The final merged Prometheus exposition (server + gateway +
    /// archive-snapshot families), flushed at shutdown.
    pub metrics_text: String,
    /// Per-phase latency summaries (`queue_wait`/`parse`/`handle`/`write`)
    /// over every request the server finished.
    pub phases: Vec<PhaseStats>,
    /// The telemetry ring buffer rendered as JSONL, when telemetry was
    /// enabled (one final sample is taken at shutdown).
    pub telemetry_jsonl: Option<String>,
    /// The final SLO verdicts (covering the shutdown flush sample), with
    /// exemplar request ids attached — present iff telemetry was enabled.
    pub slo: Option<SloReport>,
}

/// The serving engine. Construct with [`Server::start`].
#[derive(Debug)]
pub struct Server;

/// Shared state every listener/worker thread holds an `Arc` to.
#[derive(Debug)]
struct ServerState {
    archive: SharedArchive,
    gateway: Gateway,
    metrics: ServerMetrics,
    deadline: Duration,
    read_timeout: Duration,
    write_timeout: Duration,
    limits: WireLimits,
    tick: u64,
    /// Slowest-request timeline recorder behind `/debug/requests`.
    requests: RequestRecorder,
    /// Telemetry ring buffer behind `/debug/telemetry` (None = disabled).
    telemetry: Option<TelemetryRecorder>,
    /// SLO tracker fed one sample at a time by [`take_sample`] (None
    /// when telemetry is disabled — no stream, no verdicts).
    slo: Option<Mutex<SloTracker>>,
    /// Fault-injection path that panics inside the worker (see
    /// [`ServerConfig::panic_route`]).
    panic_route: Option<String>,
    /// Request ids, from 1: a connection's first request takes one at
    /// accept, a later request when its first byte arrives.
    next_request_id: AtomicU64,
    /// Set by [`ServerHandle::shutdown`]: the listener stops accepting,
    /// and every later response closes its connection.
    stopping: AtomicBool,
    /// Epoch for telemetry sample timestamps (micros since start).
    started: Instant,
}

/// One admitted connection in flight from the listener to a worker.
#[derive(Debug)]
struct Admitted {
    conn: TcpStream,
    /// Request id assigned at accept, echoed as `x-spotlake-request-id`.
    request_id: u64,
    /// When the listener accepted the connection — the epoch every phase
    /// timestamp of this request is an offset from.
    accepted: Instant,
}

impl Server {
    /// Binds `config.addr`, spawns the listener and worker pool, and
    /// returns a handle to the running server.
    pub fn start(archive: SharedArchive, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            archive,
            gateway: Gateway::new(),
            metrics: ServerMetrics::new(),
            deadline: config.deadline,
            read_timeout: config.read_timeout.max(Duration::from_millis(1)),
            write_timeout: config.write_timeout.max(Duration::from_millis(1)),
            limits: config.limits,
            tick: config.tick,
            requests: RequestRecorder::new(config.request_log),
            telemetry: config
                .telemetry_interval
                .map(|_| TelemetryRecorder::new(config.telemetry_capacity)),
            slo: config
                .telemetry_interval
                .map(|_| Mutex::new(SloTracker::new(config.slo.clone()))),
            panic_route: config.panic_route.clone(),
            next_request_id: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<Admitted>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            let handle = std::thread::Builder::new()
                .name(format!("spotlake-worker-{i}"))
                .spawn(move || worker_loop(&state, &rx))?;
            workers.push(handle);
        }

        let accept_state = Arc::clone(&state);
        let retry_after = config.retry_after_secs;
        let acceptor = std::thread::Builder::new()
            .name("spotlake-listener".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state, tx, retry_after))?;

        let sampler = match config.telemetry_interval {
            Some(interval) => {
                let sampler_state = Arc::clone(&state);
                Some(
                    std::thread::Builder::new()
                        .name("spotlake-telemetry".to_owned())
                        .spawn(move || sampler_loop(&sampler_state, interval))?,
                )
            }
            None => None,
        };

        Ok(ServerHandle {
            addr,
            acceptor: Some(acceptor),
            workers,
            sampler,
            state,
        })
    }
}

/// A running server. Dropping the handle shuts the server down
/// (discarding the report); call [`ServerHandle::shutdown`] to get one.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway serving this listener (for trace/flight inspection).
    pub fn gateway(&self) -> &Gateway {
        &self.state.gateway
    }

    /// The shared archive this server queries.
    pub fn archive(&self) -> &SharedArchive {
        &self.state.archive
    }

    /// The slowest-request timeline recorder (`/debug/requests`).
    pub fn requests(&self) -> &RequestRecorder {
        &self.state.requests
    }

    /// The telemetry ring buffer, when telemetry is enabled.
    pub fn telemetry(&self) -> Option<&TelemetryRecorder> {
        self.state.telemetry.as_ref()
    }

    /// Stops accepting, drains queued and in-flight requests, joins all
    /// threads, and returns the final report with flushed metrics.
    pub fn shutdown(mut self) -> ServerReport {
        self.stop_and_join();
        // One last sample so the archived time series covers the full run
        // even when the interval is longer than the server's lifetime.
        if let Some(telemetry) = &self.state.telemetry {
            take_sample(&self.state, telemetry);
        }
        let snapshot = self.state.archive.snapshot();
        let registries: [&Registry; 3] = [
            self.state.metrics.registry(),
            self.state.gateway.http_metrics(),
            snapshot.metrics(),
        ];
        ServerReport {
            totals: self.state.metrics.totals(),
            metrics_text: Registry::render_merged(registries),
            phases: self.state.metrics.phase_stats(),
            telemetry_jsonl: self.state.telemetry.as_ref().map(|t| t.render_jsonl()),
            slo: self.state.slo.as_ref().map(|slo| {
                let mut report = lock(slo).report();
                report.attach_exemplars(&self.state.requests.snapshot());
                report
            }),
        }
    }

    /// Idempotent: signals stop, wakes the blocked `accept`, and joins
    /// the listener (which closes the admission queue) then the workers
    /// (which drain it, and close kept connections after their current
    /// request or idle wait).
    fn stop_and_join(&mut self) {
        self.state.stopping.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // accept() has no native timeout; nudge it with a throwaway
            // connection so it observes the stop flag.
            for _ in 0..4 {
                if acceptor.is_finished() {
                    break;
                }
                let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &ServerState,
    tx: SyncSender<Admitted>,
    retry_after_secs: u32,
) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        if state.stopping.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client): refuse by close.
            drop(conn);
            break;
        }
        let request_id = state.next_request_id.fetch_add(1, Ordering::Relaxed);
        state.metrics.connection_accepted();
        // Count the admission before the send: the receiving worker's
        // matching `dequeued` is ordered after it by the channel.
        state.metrics.enqueued();
        let admitted = Admitted {
            conn,
            request_id,
            accepted: Instant::now(),
        };
        match tx.try_send(admitted) {
            Ok(()) => {}
            Err(TrySendError::Full(admitted)) => {
                state.metrics.dequeued();
                state.metrics.shed();
                let mut conn = admitted.conn;
                let _ = conn.set_write_timeout(Some(state.write_timeout));
                let response = HttpResponse::error(503, "admission queue full; retry shortly");
                let headers: [(&str, &dyn Display); 3] = [
                    ("connection", &"close"),
                    ("retry-after", &retry_after_secs),
                    ("x-spotlake-request-id", &admitted.request_id),
                ];
                let _ = wire::write_response(&mut conn, &response, &headers);
                // The client's request head may still be in flight. The
                // listener must get back to accepting, so it drains less
                // than a worker does.
                linger_close(&mut conn, 8);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` closes the queue: workers drain what is left, then
    // their `recv` errors out and they exit.
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<Admitted>>) {
    loop {
        // Hold the receiver lock only for the dequeue, not the handling,
        // so the pool keeps pulling work while this thread serves.
        let admitted = match lock(rx).recv() {
            Ok(admitted) => admitted,
            Err(_) => break,
        };
        state.metrics.dequeued();
        serve_connection(state, admitted);
    }
}

/// Microseconds elapsed since `epoch`, saturating into `u64`.
fn elapsed_micros(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One request's identity and the epoch its phase offsets count from.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    request_id: u64,
    /// Accept for a connection's first request, first byte for a later
    /// one.
    epoch: Instant,
    /// Where `queue_wait` ends: the worker's pick-up for a first request,
    /// 0 for a later one.
    dequeued_micros: u64,
}

/// The read timeout last set on a socket, so moving between the idle
/// wait and a head read costs a syscall only when the bound changes.
#[derive(Debug, Default)]
struct ReadTimeout(Option<Duration>);

impl ReadTimeout {
    fn set(&mut self, conn: &TcpStream, timeout: Duration) {
        if self.0 != Some(timeout) {
            let _ = conn.set_read_timeout(Some(timeout));
            self.0 = Some(timeout);
        }
    }
}

/// Serves one accepted connection, request after request, until a
/// response closes it, the client leaves, or it idles past
/// [`KEEP_ALIVE_IDLE`]. A one-request connection is the loop's first
/// iteration.
fn serve_connection(state: &ServerState, admitted: Admitted) {
    let Admitted {
        mut conn,
        request_id,
        accepted,
    } = admitted;
    let _ = conn.set_nodelay(true);
    let _ = conn.set_write_timeout(Some(state.write_timeout));
    let mut heads = HeadReader::default();
    let mut timeout = ReadTimeout::default();
    let mut stamp = Stamp {
        request_id,
        epoch: accepted,
        dequeued_micros: elapsed_micros(accepted),
    };
    for served in 1..=KEEP_ALIVE_MAX_REQUESTS {
        let may_keep = served < KEEP_ALIVE_MAX_REQUESTS;
        if !serve_request(state, &mut conn, &mut heads, &mut timeout, stamp, may_keep) {
            return;
        }
        match await_request(state, &mut conn, &mut heads, &mut timeout) {
            Some(next) => stamp = next,
            None => return,
        }
    }
}

/// Waits up to [`KEEP_ALIVE_IDLE`] for the first byte of a kept
/// connection's next request (none when a pipelined one is already
/// buffered) and stamps the request when it comes. `None` is the idle
/// close: nothing arrived, or the client left. It is silent — no
/// response, no id taken, nothing recorded.
fn await_request(
    state: &ServerState,
    conn: &mut TcpStream,
    heads: &mut HeadReader,
    timeout: &mut ReadTimeout,
) -> Option<Stamp> {
    if !heads.has_buffered() {
        timeout.set(conn, KEEP_ALIVE_IDLE);
        heads.fill(conn).ok()?;
    }
    Some(Stamp {
        request_id: state.next_request_id.fetch_add(1, Ordering::Relaxed),
        epoch: Instant::now(),
        dequeued_micros: 0,
    })
}

/// Handles one request end to end and says whether its connection stays
/// open. Never panics outward: the handler is wrapped in `catch_unwind`,
/// and every wire error maps to a status or a silent close.
///
/// Every phase timestamp is an offset in microseconds from the stamp's
/// epoch, sampled through a single forward-moving cursor so the recorded
/// spans are contiguous and can never overlap or run backwards:
/// `queue_wait` ends where `parse` starts, `parse` where `handle`
/// starts, `handle` where `write` starts.
fn serve_request(
    state: &ServerState,
    conn: &mut TcpStream,
    heads: &mut HeadReader,
    timeout: &mut ReadTimeout,
    stamp: Stamp,
    may_keep: bool,
) -> bool {
    let Stamp {
        request_id,
        epoch,
        dequeued_micros,
    } = stamp;
    let start = Instant::now();
    state.metrics.request_started();

    let parsed = loop {
        if let Some(head) = heads.take_head(&state.limits) {
            break head.and_then(|head| wire::parse_head(&head, &state.limits));
        }
        timeout.set(conn, state.read_timeout);
        if let Err(err) = heads.fill(conn) {
            break Err(err);
        }
    };
    let parse_end = elapsed_micros(epoch).max(dequeued_micros);
    // Only a well-formed request that did not ask to close may keep the
    // connection: after a wire error the framing of whatever follows
    // cannot be trusted.
    let client_keeps = parsed.as_ref().is_ok_and(|request| !request.wants_close());

    // The status label is static for every status the server answers
    // with; the slow-request record copies it only if it keeps the
    // request.
    let (response, status) = match &parsed {
        Err(err) => match err.status() {
            Some(408) => {
                state.metrics.slow_client_closed();
                (Some(HttpResponse::error(408, &err.reason())), "408".into())
            }
            Some(status) => {
                state.metrics.bad_request(status);
                (
                    Some(HttpResponse::error(status, &err.reason())),
                    status_label(status),
                )
            }
            None => (None, "aborted".into()),
        },
        Ok(request) => {
            // The debug surfaces are exempt from the request deadline:
            // an operator diagnosing an overloaded server needs them
            // most exactly when the data plane is timing out.
            if request.path() == "/debug/requests" {
                let resp = debug_requests_json(state);
                let label = status_label(resp.status);
                (Some(resp), label)
            } else if request.path() == "/debug/telemetry" {
                let resp = debug_telemetry(state);
                let label = status_label(resp.status);
                (Some(resp), label)
            } else if request.path() == "/debug/slo" {
                let resp = debug_slo(state);
                let label = status_label(resp.status);
                (Some(resp), label)
            } else if start.elapsed() >= state.deadline {
                state.metrics.deadline_exceeded();
                (
                    Some(HttpResponse::error(
                        504,
                        "deadline exceeded before handling",
                    )),
                    "504".into(),
                )
            } else {
                let snapshot = state.archive.snapshot();
                let slo_health = slo_health_report(state);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    // Deliberate fault hook: the injected panic crosses
                    // the same unwind boundary a real handler bug would,
                    // so the poison-recovery drill below tests the
                    // genuine article.
                    assert!(
                        state.panic_route.as_deref() != Some(request.path()),
                        "injected worker panic (panic_route)"
                    );
                    let registries: [&Registry; 1] = [state.metrics.registry()];
                    let ops = OpsContext {
                        registries: &registries,
                        health: slo_health.as_ref(),
                        tick: state.tick,
                        request_id,
                        ..OpsContext::default()
                    };
                    state.gateway.handle(&snapshot, request, &ops)
                }));
                match outcome {
                    Ok(_) if start.elapsed() > state.deadline => {
                        // Computed too late to be useful: the client-visible
                        // contract is the deadline, so answer 504.
                        state.metrics.deadline_exceeded();
                        (
                            Some(HttpResponse::error(504, "deadline exceeded")),
                            "504".into(),
                        )
                    }
                    Ok(resp) => {
                        let label = status_label(resp.status);
                        (Some(resp), label)
                    }
                    Err(_) => {
                        state.metrics.worker_panic();
                        (
                            Some(HttpResponse::error(500, "internal error")),
                            "500".into(),
                        )
                    }
                }
            }
        }
    };
    let handle_end = elapsed_micros(epoch).max(parse_end);

    let mut keep = false;
    if let Some(response) = &response {
        // Decided as the response is written, so the client learns it
        // from the response itself and never races a close.
        keep = may_keep
            && client_keeps
            && !matches!(response.status, 500 | 504)
            && !state.stopping.load(Ordering::SeqCst)
            && state.metrics.queued() == 0;
        let connection = if keep { "keep-alive" } else { "close" };
        let headers: [(&str, &dyn Display); 2] = [
            ("connection", &connection),
            ("x-spotlake-request-id", &request_id),
        ];
        if let Err(e) = wire::write_response(conn, response, &headers) {
            keep = false;
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
                state.metrics.slow_client_closed();
            }
        }
    }
    let write_end = elapsed_micros(epoch).max(handle_end);
    let micros = start.elapsed().as_secs_f64() * 1_000_000.0;
    state.metrics.request_finished(&status, micros);

    let phases = [
        span("queue_wait", 0, dequeued_micros),
        span("parse", dequeued_micros, parse_end),
        span("handle", parse_end, handle_end),
        span("write", handle_end, write_end),
    ];
    for phase in &phases {
        state
            .metrics
            .phase(phase.phase, phase.duration_micros() as f64);
    }
    let total_micros = elapsed_micros(epoch);
    state
        .requests
        .record_with((total_micros, request_id), || RequestRecord {
            request_id,
            target: match &parsed {
                Ok(request) => request.path_and_query(),
                Err(_) => "-".to_owned(),
            },
            status: status.into_owned(),
            total_micros,
            phases: phases.to_vec(),
        });
    if response.is_some() && !keep {
        linger_close(conn, 32);
    }
    keep
}

/// Closes after a response without resetting it away: the client may
/// still be sending (the rest of an oversized head, a body, pipelined
/// requests), and closing over unread bytes would send an RST that can
/// destroy the response in the client's receive buffer. So half-close
/// first, then drain until the client closes too, for at most `reads`
/// reads of at most 50 ms each.
fn linger_close(conn: &mut TcpStream, reads: usize) {
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 4096];
    for _ in 0..reads {
        match io::Read::read(conn, &mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Builds one phase span from cursor offsets.
fn span(phase: &'static str, start_micros: u64, end_micros: u64) -> PhaseSpan {
    PhaseSpan {
        phase,
        start_micros,
        end_micros,
    }
}

/// `/debug/requests`: the slowest request timelines as JSON.
fn debug_requests_json(state: &ServerState) -> HttpResponse {
    let entries: Vec<Json> = state
        .requests
        .snapshot()
        .iter()
        .map(|r| {
            let phases: Vec<Json> = r
                .phases
                .iter()
                .map(|p| {
                    Json::object([
                        ("phase", Json::from(p.phase)),
                        ("start_micros", Json::from(p.start_micros)),
                        ("end_micros", Json::from(p.end_micros)),
                        ("duration_micros", Json::from(p.duration_micros())),
                    ])
                })
                .collect();
            Json::object([
                ("request_id", Json::from(r.request_id)),
                ("target", Json::from(r.target.as_str())),
                ("status", Json::from(r.status.as_str())),
                ("total_micros", Json::from(r.total_micros)),
                ("phases", Json::Array(phases)),
            ])
        })
        .collect();
    HttpResponse::json(
        Json::object([
            ("capacity", Json::from(state.requests.capacity() as u64)),
            ("observed", Json::from(state.requests.observed())),
            ("requests", Json::Array(entries)),
        ])
        .render(),
    )
}

/// `/debug/telemetry`: the telemetry ring buffer as JSONL (404 when the
/// server runs without a sampler).
fn debug_telemetry(state: &ServerState) -> HttpResponse {
    match &state.telemetry {
        Some(telemetry) => HttpResponse::plain(telemetry.render_jsonl()),
        None => HttpResponse::error(404, "telemetry disabled; start with a telemetry interval"),
    }
}

/// `/debug/slo`: the current SLO report as deterministic JSON, with
/// exemplar request ids (joinable at `/debug/requests`) attached to
/// alerting objectives. 404 when telemetry — and with it the SLO
/// engine — is disabled.
fn debug_slo(state: &ServerState) -> HttpResponse {
    match &state.slo {
        Some(slo) => {
            let mut report = lock(slo).report();
            report.attach_exemplars(&state.requests.snapshot());
            HttpResponse::json(report.render_json())
        }
        None => HttpResponse::error(404, "slo engine disabled; start with a telemetry interval"),
    }
}

/// The SLO engine's contribution to `/health`: worst alert state mapped
/// onto readiness — a page-level burn makes the server report unhealthy
/// (503) so orchestrators stop routing to it before users feel it.
fn slo_health_report(state: &ServerState) -> Option<HealthReport> {
    let slo = state.slo.as_ref()?;
    let (alert, detail) = lock(slo).health_component();
    let readiness = match alert {
        AlertState::Ok => Readiness::Ready,
        AlertState::Warning => Readiness::Degraded,
        AlertState::Page => Readiness::Unhealthy,
    };
    let mut report = HealthReport::new();
    report.push("slo", readiness, detail);
    Some(report)
}

/// One telemetry sample: progress counters first so the sample sees its
/// own sequence number, then a snapshot of every registry the server
/// owns (server, gateway HTTP, archive store).
fn take_sample(state: &ServerState, telemetry: &TelemetryRecorder) {
    state
        .metrics
        .telemetry_progress(telemetry.samples_taken() + 1, telemetry.evicted());
    let snapshot = state.archive.snapshot();
    let at_micros = elapsed_micros(state.started);
    telemetry.sample(
        at_micros,
        [
            state.metrics.registry(),
            state.gateway.http_metrics(),
            snapshot.metrics(),
        ],
    );
    // Feed the sample just taken to the SLO tracker. The verdict gauges
    // written back here land in the *next* sample, so the evaluated
    // stream itself stays a pure function of the serving signals.
    if let Some(slo) = &state.slo {
        let Some(sample) = telemetry.latest() else {
            return;
        };
        // Narrow the tracker guard to the pure observe/report work:
        // recording the progress gauges takes the registry lock, and
        // nesting that under the SLO lock would order the two.
        let mut tracker = lock(slo);
        let transitions = tracker.observe(&sample);
        let report = tracker.report();
        drop(tracker);
        state.metrics.slo_progress(&report);
        for (objective, transition) in &transitions {
            state
                .metrics
                .slo_transition(objective, transition.to.as_str());
            state
                .gateway
                .record_alert(state.tick, objective, transition);
        }
    }
}

/// The dedicated telemetry sampler thread: samples every `interval`,
/// sleeping in short slices so shutdown is honored promptly.
fn sampler_loop(state: &ServerState, interval: Duration) {
    let interval = interval.max(Duration::from_millis(1));
    let Some(telemetry) = &state.telemetry else {
        return;
    };
    while !state.stopping.load(Ordering::SeqCst) {
        take_sample(state, telemetry);
        let mut slept = Duration::ZERO;
        while slept < interval {
            if state.stopping.load(Ordering::SeqCst) {
                return;
            }
            let slice = (interval - slept).min(Duration::from_millis(10));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}
