//! Seeded, deterministic load and chaos generator for the TCP server.
//!
//! The generator is the repo's serving scoreboard: it drives the *real*
//! listener with a realistic query mix (the archive's tables, instance
//! types, and regions from the paper's collection scope), measures
//! client-observed latency into an `obs` histogram, and renders
//! `BENCH_serving.json`. Two properties make its numbers trustworthy:
//!
//! * **Determinism** — the action plan (which request each client sends,
//!   and where chaos strikes) is a pure function of the seed, so two
//!   same-seed runs issue byte-identical request sequences.
//! * **Coordinated-omission correction** — in open-loop mode latency is
//!   measured from each request's *scheduled* start, not its send time,
//!   so a stalled server cannot hide queueing delay from the quantiles.
//!
//! Chaos modes exercise the overload envelope end to end: slow clients
//! (drip-fed heads), malformed and oversized requests, connection churn,
//! and mid-request disconnects.
//!
//! Since schema version 2 the report also *correlates* client and server
//! views: every response's echoed `x-spotlake-request-id` is recorded,
//! the slowest clean GETs are listed with their server-side request ids
//! (joinable against `/debug/requests`), and the rendered JSON folds in
//! the server's per-phase quantiles (`queue_wait`/`parse`/`handle`/
//! `write`) so one document answers "where did the latency go".
//!
//! Schema version 3 adds the SLO verdict block — per-objective alert
//! states, error budgets, burn rates, and exemplar request ids from the
//! server's final [`SloReport`] — and rounds every float field to fixed
//! precision so regenerated documents are byte-stable.

use super::metrics::{PhaseStats, ServerTotals};
use crate::json::Json;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spotlake_obs::{names, Registry, SloReport};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How clients pace their requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Each client sends its next request as soon as the previous one
    /// completes (throughput-seeking).
    Closed,
    /// Each client fires on a fixed schedule regardless of completions;
    /// latency is measured from the scheduled start.
    Open {
        /// Gap between one client's consecutive scheduled requests.
        interval: Duration,
    },
}

impl LoadMode {
    fn as_str(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }
}

/// How much chaos to mix into the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// Clean requests only.
    None,
    /// ~10% of actions are hostile (2% per chaos kind).
    Light,
    /// ~30% of actions are hostile (6% per chaos kind).
    Heavy,
}

impl ChaosProfile {
    fn as_str(&self) -> &'static str {
        match self {
            ChaosProfile::None => "none",
            ChaosProfile::Light => "light",
            ChaosProfile::Heavy => "heavy",
        }
    }

    /// Per-kind probability in percent (five kinds total).
    fn per_kind_percent(&self) -> u32 {
        match self {
            ChaosProfile::None => 0,
            ChaosProfile::Light => 2,
            ChaosProfile::Heavy => 6,
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for the deterministic action plan.
    pub seed: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Actions per client.
    pub requests_per_client: usize,
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Chaos mix.
    pub chaos: ChaosProfile,
    /// Connect / read / write timeout per request.
    pub io_timeout: Duration,
    /// Delay between drip-fed chunks of a slow-client head.
    pub slow_chunk_delay: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 7,
            clients: 4,
            requests_per_client: 50,
            mode: LoadMode::Closed,
            chaos: ChaosProfile::None,
            io_timeout: Duration::from_secs(5),
            slow_chunk_delay: Duration::from_millis(10),
        }
    }
}

/// One planned client action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    /// What to do on the wire.
    pub kind: ActionKind,
    /// Path-and-query for clean/slow requests.
    pub path: String,
}

/// The wire behaviour of an [`Action`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// A clean GET (latency is recorded for these only).
    Get,
    /// The same GET with the head drip-fed slowly.
    Slow,
    /// A syntactically broken request line (expect 400).
    Malformed,
    /// A request line far over the head limit (expect 431).
    Oversized,
    /// Connect and immediately hang up.
    Churn,
    /// Send half a head, then hang up.
    MidDisconnect,
}

impl ActionKind {
    fn as_str(self) -> &'static str {
        match self {
            ActionKind::Get => "get",
            ActionKind::Slow => "slow",
            ActionKind::Malformed => "malformed",
            ActionKind::Oversized => "oversized",
            ActionKind::Churn => "churn",
            ActionKind::MidDisconnect => "mid_disconnect",
        }
    }
}

/// Instance types in the generated query mix (SpotLake's collection
/// scope: general, compute, memory, and accelerator families).
const INSTANCE_TYPES: &[&str] = &[
    "m5.large",
    "m5.xlarge",
    "c5.large",
    "r5.xlarge",
    "t3.medium",
    "p3.2xlarge",
];

/// Regions in the generated query mix.
const REGIONS: &[&str] = &["us-east-1", "us-west-2", "eu-west-1", "ap-northeast-2"];

/// Tables in the generated query mix (weighted towards SPS, like the
/// paper's workload).
const TABLES: &[&str] = &["sps", "sps", "sps", "price", "advisor"];

/// Generates the per-client action plans — a pure function of the
/// config, so identical configs yield identical plans.
pub fn plan(config: &LoadConfig) -> Vec<Vec<Action>> {
    (0..config.clients)
        .map(|client| {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            (0..config.requests_per_client)
                .map(|_| plan_action(&mut rng, config.chaos))
                .collect()
        })
        .collect()
}

fn plan_action(rng: &mut StdRng, chaos: ChaosProfile) -> Action {
    let per_kind = chaos.per_kind_percent();
    let roll = rng.gen_range(0u32..100);
    let kind = match roll {
        r if r < per_kind => ActionKind::Slow,
        r if r < per_kind * 2 => ActionKind::Malformed,
        r if r < per_kind * 3 => ActionKind::Oversized,
        r if r < per_kind * 4 => ActionKind::Churn,
        r if r < per_kind * 5 => ActionKind::MidDisconnect,
        _ => ActionKind::Get,
    };
    Action {
        kind,
        path: plan_path(rng),
    }
}

fn plan_path(rng: &mut StdRng) -> String {
    let pick = |rng: &mut StdRng, options: &[&str]| -> String {
        options
            .choose(rng)
            .copied()
            .unwrap_or("m5.large")
            .to_owned()
    };
    match rng.gen_range(0u32..100) {
        // Filtered range queries dominate, like real archive traffic.
        r if r < 45 => {
            let table = pick(rng, TABLES);
            let mut path = format!("/query?table={table}");
            if rng.gen_bool(0.7) {
                path.push_str(&format!("&instance_type={}", pick(rng, INSTANCE_TYPES)));
            }
            if rng.gen_bool(0.5) {
                path.push_str(&format!("&region={}", pick(rng, REGIONS)));
            }
            if rng.gen_bool(0.3) {
                let from = rng.gen_range(0u64..5_000);
                let span = rng.gen_range(100u64..2_000);
                path.push_str(&format!("&from={from}&to={}", from + span));
            }
            if rng.gen_bool(0.2) {
                path.push_str(&format!("&limit={}", rng.gen_range(1u64..200)));
            }
            path
        }
        r if r < 60 => format!("/latest?table={}", pick(rng, TABLES)),
        r if r < 70 => {
            let window = [60u64, 300, 600].choose(rng).copied().unwrap_or(60);
            format!(
                "/window?table={}&agg=mean&window={window}",
                pick(rng, TABLES)
            )
        }
        r if r < 80 => format!(
            "/at?table={}&timestamp={}",
            pick(rng, TABLES),
            rng.gen_range(0u64..10_000)
        ),
        r if r < 85 => "/stats".to_owned(),
        r if r < 90 => "/tables".to_owned(),
        r if r < 95 => "/health".to_owned(),
        _ => "/metrics".to_owned(),
    }
}

/// What one finished load run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// Client threads.
    pub clients: usize,
    /// Actions per client.
    pub requests_per_client: usize,
    /// Pacing discipline (`closed` / `open`).
    pub mode: String,
    /// Chaos profile name.
    pub chaos_profile: String,
    /// Total planned actions (deterministic per seed).
    pub planned: u64,
    /// Actions that received a complete HTTP response.
    pub completed: u64,
    /// Actions that failed with a socket error.
    pub io_errors: u64,
    /// Response-status histogram.
    pub statuses: BTreeMap<u16, u64>,
    /// Chaos actions sent, by kind (deterministic per seed).
    pub chaos_sent: BTreeMap<String, u64>,
    /// Responses carrying an `x-spotlake-request-id` header (every
    /// server-originated response should; a shortfall vs `completed`
    /// means a non-spotlake hop answered).
    pub responses_with_id: u64,
    /// The slowest clean GETs with their echoed server request ids,
    /// slowest first — joinable against the server's `/debug/requests`.
    pub slowest: Vec<SlowSample>,
    /// Client-observed latency quantiles over clean GETs, microseconds.
    pub p50_micros: f64,
    /// 90th percentile, microseconds.
    pub p90_micros: f64,
    /// 99th percentile, microseconds.
    pub p99_micros: f64,
    /// Completed responses per second of wall time.
    pub throughput_rps: f64,
    /// Run wall time in microseconds.
    pub duration_micros: u64,
}

/// One slow clean GET, correlated to the server by request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSample {
    /// Client-observed latency in whole microseconds.
    pub latency_micros: u64,
    /// The server-assigned id echoed in `x-spotlake-request-id`.
    pub request_id: u64,
    /// The path-and-query that was requested.
    pub path: String,
}

/// How many slow samples the report keeps.
const SLOWEST_KEPT: usize = 5;

impl LoadReport {
    /// Responses in the 5xx range (shed 503s included).
    pub fn fivexx(&self) -> u64 {
        self.statuses
            .iter()
            .filter(|(s, _)| (500..600).contains(*s))
            .map(|(_, n)| n)
            .sum()
    }

    /// Renders the `BENCH_serving.json` document (schema version 3),
    /// optionally folding in the server's own totals, per-phase latency
    /// summaries, and final SLO verdicts (when the caller owns the
    /// server too).
    ///
    /// All exported latency quantiles are rounded to whole microseconds
    /// and every remaining float (throughput, burns, budgets) to fixed
    /// decimal precision, so regenerated documents are byte-stable
    /// across identical runs.
    pub fn to_json(
        &self,
        server: Option<&ServerTotals>,
        phases: &[PhaseStats],
        slo: Option<&SloReport>,
    ) -> String {
        let statuses = Json::Object(
            self.statuses
                .iter()
                .map(|(status, n)| (status.to_string(), Json::from(*n)))
                .collect(),
        );
        let chaos = Json::Object(
            self.chaos_sent
                .iter()
                .map(|(kind, n)| (kind.clone(), Json::from(*n)))
                .collect(),
        );
        let server = match server {
            Some(totals) => Json::object([
                ("accepted", Json::from(totals.accepted)),
                ("served", Json::from(totals.served)),
                ("shed", Json::from(totals.shed)),
                ("deadline_exceeded", Json::from(totals.deadline_exceeded)),
                (
                    "slow_clients_closed",
                    Json::from(totals.slow_clients_closed),
                ),
                ("bad_requests", Json::from(totals.bad_requests)),
                ("worker_panics", Json::from(totals.worker_panics)),
            ]),
            None => Json::Null,
        };
        // Flat `{phase}_{stat}` keys so dashboards can address
        // `queue_wait_p99` etc. without nested lookups.
        let server_phases = Json::Object(
            phases
                .iter()
                .flat_map(|p| {
                    [
                        (format!("{}_count", p.phase), Json::from(p.count)),
                        (format!("{}_p50", p.phase), Json::from(p.p50_micros)),
                        (format!("{}_p90", p.phase), Json::from(p.p90_micros)),
                        (format!("{}_p99", p.phase), Json::from(p.p99_micros)),
                    ]
                })
                .collect(),
        );
        let slowest = Json::Array(
            self.slowest
                .iter()
                .map(|s| {
                    Json::object([
                        ("latency_micros", Json::from(s.latency_micros)),
                        ("request_id", Json::from(s.request_id)),
                        ("path", Json::from(s.path.as_str())),
                    ])
                })
                .collect(),
        );
        // Fixed-precision float rounding: 4 decimals for ratios/burns,
        // 3 for throughput — enough resolution, byte-stable diffs.
        let round4 = |v: f64| {
            Json::Number(if v.is_finite() {
                (v * 10_000.0).round() / 10_000.0
            } else {
                0.0
            })
        };
        let slo_json = match slo {
            Some(report) => {
                let objectives: Vec<Json> = report
                    .objectives
                    .iter()
                    .map(|o| {
                        let exemplars: Vec<Json> = o
                            .exemplar_request_ids
                            .iter()
                            .map(|id| Json::from(*id))
                            .collect();
                        let page_transitions = o
                            .transitions
                            .iter()
                            .filter(|t| t.to == spotlake_obs::AlertState::Page)
                            .count() as u64;
                        Json::object([
                            ("name", Json::from(o.name.as_str())),
                            ("signal", Json::string(o.signal.label())),
                            ("target", round4(o.target)),
                            ("state", Json::from(o.state.as_str())),
                            ("healthy", Json::from(o.healthy)),
                            ("good", round4(o.good)),
                            ("bad", round4(o.bad)),
                            ("budget_remaining", round4(o.budget_remaining)),
                            ("fast_burn", round4(o.fast_burn)),
                            ("slow_burn", round4(o.slow_burn)),
                            ("page_transitions", Json::from(page_transitions)),
                            ("exemplar_request_ids", Json::Array(exemplars)),
                        ])
                    })
                    .collect();
                Json::object([
                    ("healthy", Json::from(report.healthy)),
                    ("state", Json::from(report.worst_state().as_str())),
                    ("samples", Json::from(report.samples)),
                    ("objectives", Json::Array(objectives)),
                ])
            }
            None => Json::Null,
        };
        let round = |micros: f64| Json::from(micros.round().max(0.0) as u64);
        Json::object([
            ("bench", Json::from("serving")),
            ("version", Json::from(3u64)),
            ("seed", Json::from(self.seed)),
            ("mode", Json::string(&self.mode)),
            ("chaos", Json::string(&self.chaos_profile)),
            ("clients", Json::from(self.clients as u64)),
            (
                "requests_per_client",
                Json::from(self.requests_per_client as u64),
            ),
            ("planned", Json::from(self.planned)),
            ("completed", Json::from(self.completed)),
            ("io_errors", Json::from(self.io_errors)),
            ("statuses", statuses),
            ("chaos_sent", chaos),
            (
                "latency_micros",
                Json::object([
                    ("p50", round(self.p50_micros)),
                    ("p90", round(self.p90_micros)),
                    ("p99", round(self.p99_micros)),
                ]),
            ),
            ("server_phases", server_phases),
            (
                "request_correlation",
                Json::object([
                    ("responses_with_id", Json::from(self.responses_with_id)),
                    ("slowest", slowest),
                ]),
            ),
            (
                "throughput_rps",
                Json::Number(if self.throughput_rps.is_finite() {
                    (self.throughput_rps * 1_000.0).round() / 1_000.0
                } else {
                    0.0
                }),
            ),
            ("duration_micros", Json::from(self.duration_micros)),
            ("server", server),
            ("slo", slo_json),
        ])
        .render()
    }
}

#[derive(Debug, Default)]
struct ClientTally {
    completed: u64,
    io_errors: u64,
    statuses: BTreeMap<u16, u64>,
    chaos_sent: BTreeMap<String, u64>,
    responses_with_id: u64,
    /// Clean-GET samples with an echoed request id, for the slowest-N cut.
    samples: Vec<SlowSample>,
}

/// Runs the configured load against `addr` and summarizes what came
/// back. Blocks until every client finishes its plan.
pub fn run(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    run_with(addr, config, &Registry::new())
}

/// [`run`], recording the `spotlake_loadgen_*` families into `registry`
/// so the caller can scrape them afterwards.
pub fn run_with(addr: SocketAddr, config: &LoadConfig, registry: &Registry) -> LoadReport {
    let plans = plan(config);
    let planned: u64 = plans.iter().map(|p| p.len() as u64).sum();
    let started = Instant::now();

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|actions| scope.spawn(move || run_client(addr, config, actions, registry)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let duration = started.elapsed();
    let mut statuses = BTreeMap::new();
    let mut chaos_sent = BTreeMap::new();
    let mut completed = 0u64;
    let mut io_errors = 0u64;
    let mut responses_with_id = 0u64;
    let mut slowest: Vec<SlowSample> = Vec::new();
    for tally in tallies {
        completed += tally.completed;
        io_errors += tally.io_errors;
        responses_with_id += tally.responses_with_id;
        slowest.extend(tally.samples);
        for (status, n) in tally.statuses {
            *statuses.entry(status).or_insert(0) += n;
        }
        for (kind, n) in tally.chaos_sent {
            *chaos_sent.entry(kind).or_insert(0) += n;
        }
    }
    // Slowest first; ties break on request id so same-seed runs against a
    // deterministic server render the same list.
    slowest.sort_by(|a, b| {
        b.latency_micros
            .cmp(&a.latency_micros)
            .then(a.request_id.cmp(&b.request_id))
    });
    slowest.truncate(SLOWEST_KEPT);

    let quantile = |q: f64| {
        registry
            .histogram_quantile(names::LOADGEN_LATENCY_MICROS, &[], q)
            .unwrap_or(0.0)
    };
    LoadReport {
        seed: config.seed,
        clients: config.clients,
        requests_per_client: config.requests_per_client,
        mode: config.mode.as_str().to_owned(),
        chaos_profile: config.chaos.as_str().to_owned(),
        planned,
        completed,
        io_errors,
        statuses,
        chaos_sent,
        responses_with_id,
        slowest,
        p50_micros: quantile(0.50),
        p90_micros: quantile(0.90),
        p99_micros: quantile(0.99),
        throughput_rps: if duration.as_secs_f64() > 0.0 {
            completed as f64 / duration.as_secs_f64()
        } else {
            0.0
        },
        duration_micros: duration.as_micros() as u64,
    }
}

fn run_client(
    addr: SocketAddr,
    config: &LoadConfig,
    actions: &[Action],
    registry: &Registry,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let base = Instant::now();
    for (i, action) in actions.iter().enumerate() {
        let scheduled = match config.mode {
            LoadMode::Closed => Instant::now(),
            LoadMode::Open { interval } => {
                let at = base + interval * (i as u32);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                at
            }
        };
        let outcome = execute(addr, config, action);
        let latency = scheduled.elapsed();
        record(registry, action, &outcome, latency, &mut tally);
    }
    tally
}

enum Outcome {
    /// A complete response came back, with the server's echoed request
    /// id when the `x-spotlake-request-id` header was present.
    Status {
        status: u16,
        request_id: Option<u64>,
    },
    /// The socket failed (connect, write, or read).
    IoError,
    /// The action hung up on purpose; no response expected.
    Dropped,
}

impl Outcome {
    fn as_str(&self) -> &'static str {
        match self {
            Outcome::Status { .. } => "response",
            Outcome::IoError => "io_error",
            Outcome::Dropped => "dropped",
        }
    }
}

fn record(
    registry: &Registry,
    action: &Action,
    outcome: &Outcome,
    latency: Duration,
    tally: &mut ClientTally,
) {
    registry.counter_add(
        names::LOADGEN_REQUESTS_TOTAL,
        &[
            ("kind", action.kind.as_str()),
            ("outcome", outcome.as_str()),
        ],
        1,
    );
    if action.kind != ActionKind::Get {
        *tally
            .chaos_sent
            .entry(action.kind.as_str().to_owned())
            .or_insert(0) += 1;
    }
    match outcome {
        Outcome::Status { status, request_id } => {
            tally.completed += 1;
            *tally.statuses.entry(*status).or_insert(0) += 1;
            if request_id.is_some() {
                tally.responses_with_id += 1;
            }
            if action.kind == ActionKind::Get {
                let micros = latency.as_secs_f64() * 1_000_000.0;
                registry.histogram_record(names::LOADGEN_LATENCY_MICROS, &[], micros);
                if let Some(id) = request_id {
                    tally.samples.push(SlowSample {
                        latency_micros: micros.round().max(0.0) as u64,
                        request_id: *id,
                        path: action.path.clone(),
                    });
                }
            }
        }
        Outcome::IoError => tally.io_errors += 1,
        Outcome::Dropped => {}
    }
}

fn execute(addr: SocketAddr, config: &LoadConfig, action: &Action) -> Outcome {
    match action.kind {
        ActionKind::Get => {
            let head = format!(
                "GET {} HTTP/1.1\r\nhost: spotlake\r\nconnection: close\r\n\r\n",
                action.path
            );
            match exchange(addr, head.as_bytes(), config.io_timeout, None) {
                Ok((status, request_id)) => Outcome::Status { status, request_id },
                Err(_) => Outcome::IoError,
            }
        }
        ActionKind::Slow => {
            let head = format!(
                "GET {} HTTP/1.1\r\nhost: spotlake\r\nconnection: close\r\n\r\n",
                action.path
            );
            send_raw_chunked(addr, head.as_bytes(), config, 4)
        }
        ActionKind::Malformed => send_raw(
            addr,
            b"GET badpath-without-a-slash\r\n\r\n",
            config.io_timeout,
        ),
        ActionKind::Oversized => {
            let head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(16 * 1024));
            send_raw(addr, head.as_bytes(), config.io_timeout)
        }
        ActionKind::Churn => match TcpStream::connect_timeout(&addr, config.io_timeout) {
            Ok(conn) => {
                drop(conn);
                Outcome::Dropped
            }
            Err(_) => Outcome::IoError,
        },
        ActionKind::MidDisconnect => match TcpStream::connect_timeout(&addr, config.io_timeout) {
            Ok(mut conn) => {
                let _ = conn.write_all(b"GET /hea");
                drop(conn);
                Outcome::Dropped
            }
            Err(_) => Outcome::IoError,
        },
    }
}

/// Sends `payload` and reads a full response.
fn send_raw(addr: SocketAddr, payload: &[u8], timeout: Duration) -> Outcome {
    match exchange(addr, payload, timeout, None) {
        Ok((status, request_id)) => Outcome::Status { status, request_id },
        Err(_) => Outcome::IoError,
    }
}

/// Sends `payload` drip-fed in `chunks` pieces with the configured delay
/// between them, then reads a full response.
fn send_raw_chunked(
    addr: SocketAddr,
    payload: &[u8],
    config: &LoadConfig,
    chunks: usize,
) -> Outcome {
    match exchange(
        addr,
        payload,
        config.io_timeout,
        Some((chunks, config.slow_chunk_delay)),
    ) {
        Ok((status, request_id)) => Outcome::Status { status, request_id },
        Err(_) => Outcome::IoError,
    }
}

fn exchange(
    addr: SocketAddr,
    payload: &[u8],
    timeout: Duration,
    drip: Option<(usize, Duration)>,
) -> io::Result<(u16, Option<u64>)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    match drip {
        None => conn.write_all(payload)?,
        Some((chunks, delay)) => {
            let size = payload.len().div_ceil(chunks.max(1));
            for chunk in payload.chunks(size.max(1)) {
                conn.write_all(chunk)?;
                conn.flush()?;
                std::thread::sleep(delay);
            }
        }
    }
    let mut response = Vec::new();
    // A shed or error response can be followed by an RST (the server
    // closes while our request bytes are still in flight); whatever was
    // buffered before the reset still counts as the answer.
    let read_result = conn.read_to_end(&mut response);
    match parse_status(&response) {
        Some(status) => Ok((status, parse_request_id(&response))),
        None => {
            read_result?;
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unparseable response",
            ))
        }
    }
}

/// Issues one clean GET and returns `(status, body)`. Shared by the
/// loadgen, the CLI, and the integration tests.
pub fn fetch(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let (status, body, _) = fetch_with_id(addr, path, timeout)?;
    Ok((status, body))
}

/// Issues one clean GET and returns `(status, body, request_id)`, where
/// `request_id` is the server's echoed `x-spotlake-request-id` (None if
/// the header was missing or unparseable).
pub fn fetch_with_id(
    addr: SocketAddr,
    path: &str,
    timeout: Duration,
) -> io::Result<(u16, String, Option<u64>)> {
    let mut conn = TcpStream::connect_timeout(&addr, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nhost: spotlake\r\nconnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = Vec::new();
    conn.read_to_end(&mut response)?;
    let status = parse_status(&response)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable response"))?;
    let body = match find_body(&response) {
        Some(at) => String::from_utf8_lossy(&response[at..]).into_owned(),
        None => String::new(),
    };
    Ok((status, body, parse_request_id(&response)))
}

/// Pulls the echoed `x-spotlake-request-id` out of a raw response head.
fn parse_request_id(response: &[u8]) -> Option<u64> {
    let head_end = find_body(response).unwrap_or(response.len());
    let head = std::str::from_utf8(response.get(..head_end)?).ok()?;
    for line in head.split("\r\n").skip(1) {
        let (name, value) = match line.split_once(':') {
            Some(pair) => pair,
            None => continue,
        };
        if name.trim().eq_ignore_ascii_case("x-spotlake-request-id") {
            return value.trim().parse().ok();
        }
    }
    None
}

fn parse_status(response: &[u8]) -> Option<u16> {
    let text = std::str::from_utf8(response.get(..response.len().min(64))?).ok()?;
    let mut parts = text.split(' ');
    if !parts.next()?.starts_with("HTTP/1.") {
        return None;
    }
    parts.next()?.parse().ok()
}

fn find_body(response: &[u8]) -> Option<usize> {
    response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let config = LoadConfig {
            chaos: ChaosProfile::Heavy,
            clients: 3,
            requests_per_client: 40,
            ..LoadConfig::default()
        };
        assert_eq!(plan(&config), plan(&config));
        let other = LoadConfig {
            seed: config.seed + 1,
            ..config.clone()
        };
        assert_ne!(plan(&config), plan(&other));
    }

    #[test]
    fn clients_get_distinct_streams() {
        let config = LoadConfig {
            clients: 2,
            requests_per_client: 20,
            ..LoadConfig::default()
        };
        let plans = plan(&config);
        assert_eq!(plans.len(), 2);
        assert_ne!(plans[0], plans[1]);
    }

    #[test]
    fn chaos_free_plans_are_all_clean_gets() {
        let config = LoadConfig {
            clients: 4,
            requests_per_client: 50,
            chaos: ChaosProfile::None,
            ..LoadConfig::default()
        };
        for action in plan(&config).iter().flatten() {
            assert_eq!(action.kind, ActionKind::Get);
            assert!(action.path.starts_with('/'), "{}", action.path);
        }
    }

    #[test]
    fn heavy_chaos_plans_include_every_kind() {
        let config = LoadConfig {
            clients: 8,
            requests_per_client: 200,
            chaos: ChaosProfile::Heavy,
            ..LoadConfig::default()
        };
        let kinds: std::collections::BTreeSet<&'static str> = plan(&config)
            .iter()
            .flatten()
            .map(|a| a.kind.as_str())
            .collect();
        for kind in [
            "get",
            "slow",
            "malformed",
            "oversized",
            "churn",
            "mid_disconnect",
        ] {
            assert!(kinds.contains(kind), "no {kind} action in 1600 draws");
        }
    }

    #[test]
    fn status_line_parsing() {
        assert_eq!(parse_status(b"HTTP/1.1 200 OK\r\n\r\n"), Some(200));
        assert_eq!(
            parse_status(b"HTTP/1.1 503 Service Unavailable\r\n"),
            Some(503)
        );
        assert_eq!(parse_status(b"garbage"), None);
        assert_eq!(parse_status(b""), None);
        assert_eq!(find_body(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
    }

    #[test]
    fn report_json_has_the_scoreboard_keys() {
        let report = LoadReport {
            seed: 7,
            clients: 2,
            requests_per_client: 10,
            mode: "closed".into(),
            chaos_profile: "none".into(),
            planned: 20,
            completed: 20,
            io_errors: 0,
            statuses: [(200u16, 19u64), (503, 1)].into_iter().collect(),
            chaos_sent: BTreeMap::new(),
            responses_with_id: 20,
            slowest: vec![SlowSample {
                latency_micros: 901,
                request_id: 17,
                path: "/query?table=sps".into(),
            }],
            p50_micros: 120.4,
            p90_micros: 400.5,
            p99_micros: 900.9,
            throughput_rps: 1234.5,
            duration_micros: 16_000,
        };
        let phases = [PhaseStats {
            phase: "queue_wait",
            count: 20,
            p50_micros: 3,
            p90_micros: 9,
            p99_micros: 14,
        }];
        let json = report.to_json(Some(&ServerTotals::default()), &phases, None);
        for key in [
            "\"bench\":\"serving\"",
            "\"version\":3",
            "\"seed\":7",
            // Quantiles export as whole microseconds (rounded).
            "\"p50\":120",
            "\"p90\":401",
            "\"p99\":901",
            "\"throughput_rps\":1234.5",
            "\"statuses\":{\"200\":19,\"503\":1}",
            "\"worker_panics\":0",
            "\"queue_wait_count\":20",
            "\"queue_wait_p99\":14",
            "\"responses_with_id\":20",
            "\"request_id\":17",
            "\"slo\":null",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(report.fivexx(), 1);
        assert!(report.to_json(None, &[], None).contains("\"server\":null"));
        assert!(report
            .to_json(None, &[], None)
            .contains("\"server_phases\":{}"));

        // Float fields are rounded to fixed precision so regenerated
        // documents diff byte-stably.
        let noisy = LoadReport {
            throughput_rps: 1_234.567_891_23,
            ..report.clone()
        };
        let json = noisy.to_json(None, &[], None);
        assert!(json.contains("\"throughput_rps\":1234.568"), "{json}");

        // With an SLO report attached, the verdict block is rendered.
        let tracker = spotlake_obs::SloTracker::new(spotlake_obs::SloSet::serving_defaults());
        let json = noisy.to_json(None, &[], Some(&tracker.report()));
        for key in [
            "\"slo\":{\"healthy\":true",
            "\"state\":\"ok\"",
            "\"name\":\"availability\"",
            "\"signal\":\"phase_latency:handle\"",
            "\"budget_remaining\":1",
            "\"page_transitions\":0",
            "\"exemplar_request_ids\":[]",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn request_id_header_parsing() {
        let with =
            b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\nx-spotlake-request-id: 42\r\n\r\nok";
        assert_eq!(parse_request_id(with), Some(42));
        let cased = b"HTTP/1.1 503 Unavailable\r\nX-Spotlake-Request-Id: 7\r\n\r\n";
        assert_eq!(parse_request_id(cased), Some(7));
        let without = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\n\r\nok";
        assert_eq!(parse_request_id(without), None);
        // An id in the body must not count.
        let body_only = b"HTTP/1.1 200 OK\r\n\r\nx-spotlake-request-id: 9";
        assert_eq!(parse_request_id(body_only), None);
    }
}
