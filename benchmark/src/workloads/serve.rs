//! `serve_point` and `serve_scan`: a static archive behind the real TCP
//! server (`workers: 2`), queried closed-loop by two clients, every response
//! checked against the oracle.
//!
//! `serve_point` keeps responses small, so connection set-up, wire parse,
//! routing and series resolve dominate — where keep-alive, a series index
//! or cheaper handle-phase bookkeeping show, and where scan and encode
//! changes must not. `serve_scan` asks for up to 1.2 MB at a time, so the
//! store's scan, row materialisation, JSON encode and the socket write
//! dominate — where shared dimensions or a streamed encoder show, and where
//! connection-level changes must not.

use super::{collect, ms_since, report_timing, Ctx, Stretch, StretchClock, Tail};
use crate::http::Client;
use crate::metrics::Report;
use crate::paths::{Class, Mix, Oracle, PathPool, TimeAxis, POINT_MIX, SCAN_MIX};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use spotlake_obs::QueryCtx;
use spotlake_serving::server::wire;
use spotlake_serving::server::WireLimits;
use spotlake_serving::{
    Gateway, HttpRequest, OpsContext, Server, ServerConfig, ServerHandle, SharedArchive,
};
use spotlake_timestream::{Aggregate, Database, Query, QueryProfile};
use spotlake_types::Catalog;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Closed-loop clients (and connections in flight): one per core.
pub const CLIENTS: usize = 2;
/// Worker threads the server is started with.
pub const WORKERS: usize = 2;
/// Correct `serve_point` responses per second of `--seconds`.
const POINT_RPS: f64 = 1900.0;
/// Correct `serve_scan` responses per second of `--seconds`.
const SCAN_RPS: f64 = 120.0;
/// In-process layer probes per class and second of `--seconds` (traced).
const POINT_PROBES_PER_S: f64 = 4.0;
const SCAN_PROBES_PER_S: f64 = 0.6;

/// The running server and what its archive was built from.
pub struct Serving {
    pub handle: ServerHandle,
    pub catalog: Catalog,
    pub axis: TimeAxis,
}

/// Starts the server over `archive` with the default configuration and
/// [`WORKERS`] workers.
pub fn start_server(archive: SharedArchive) -> ServerHandle {
    Server::start(
        archive,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("binding a loopback port")
}

/// Builds the static archive from `rounds` in-memory collection rounds and
/// starts the server over it.
pub fn set_up(seed: u64, catalog: Catalog, rounds: usize) -> Serving {
    let mut pipeline = collect::set_up(seed, catalog, None);
    let mut off = Tracer::new(Instant::now());
    let root = off.begin("setup", "", 0, None);
    let step = pipeline.cloud.config().tick.as_secs();
    for _ in 0..rounds {
        assert!(pipeline.round(&mut off, root).ok, "set-up round failed");
    }
    let axis = TimeAxis {
        first: step,
        last: pipeline.cloud.now().as_secs(),
        step,
    };
    let catalog = pipeline.cloud.catalog().clone();
    let handle = start_server(SharedArchive::new(pipeline.service.into_database()));
    Serving {
        handle,
        catalog,
        axis,
    }
}

/// One request as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub ms: f64,
    pub bytes: usize,
    pub ok: bool,
}

/// Issues `total` requests from [`CLIENTS`] closed-loop clients, each
/// drawing paths from `pool` with its own seeded stream and sending its
/// next request only when the previous response is complete, and none after
/// `deadline`. A response is `ok` when the oracle accepts it.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &PathPool,
    oracle: &Oracle,
    seed: u64,
    total: usize,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client_no| {
                let mut spans = tracer.sibling();
                let next = &next;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 0xC11E + client_no as u64);
                    let mut client = Client::new(addr);
                    let mut samples = Vec::new();
                    loop {
                        let ticket = next.fetch_add(1, Ordering::Relaxed);
                        if ticket >= total || Instant::now() > deadline {
                            break;
                        }
                        let entry = pool.draw(&mut rng);
                        let (class, path) = &pool.entries[entry];
                        let root = spans.begin("request", class.name(), ticket as u64, None);
                        let t = Instant::now();
                        let (ok, bytes) = match client.get(path) {
                            Ok(reply) => (
                                oracle.accepts(entry, reply.status, reply.body),
                                reply.body.len(),
                            ),
                            Err(_) => (false, 0),
                        };
                        samples.push(Sample {
                            class: *class,
                            ms: ms_since(t),
                            bytes,
                            ok,
                        });
                        spans.end(root);
                    }
                    (samples, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut samples = Vec::with_capacity(total);
    for (client_samples, spans) in per_client {
        samples.extend(client_samples);
        tracer.absorb(spans);
    }
    samples
}

/// The client-side breakdown every serving workload reports: per-class
/// medians, response size, p99 (reported, not gated), and counts.
pub fn report_client_side(report: &mut Report, samples: &[Sample]) {
    for class in Class::ALL {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        if !ms.is_empty() {
            report.set(
                format!("serving.class_{}_ms_p50", class.name()),
                stats::median(&ms),
            );
        }
    }
    let bytes: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    report.set("serving.response_bytes_p50", stats::median(&bytes));
    let all = stats::sorted(samples.iter().map(|s| s.ms).collect());
    if let Some(p99) = stats::percentile(&all, 0.99) {
        report.set("serving.latency_p99_ms", p99);
    }
    report.set("loadgen.sent", samples.len() as f64);
    report.set("loadgen.ok", samples.iter().filter(|s| s.ok).count() as f64);
}

/// Shuts the server down and reports what it saw: phase timings from its
/// own report, and the four counts that must be zero on a clean run.
pub fn report_server_side(report: &mut Report, handle: ServerHandle, client_p50_ms: f64) {
    let server = handle.shutdown();
    for phase in &server.phases {
        let name = phase.phase;
        report.set(format!("serving.{name}_us_p50"), phase.p50_micros as f64);
        if name != "parse" {
            report.set(format!("serving.{name}_us_p99"), phase.p99_micros as f64);
        }
        if name == "handle" {
            report.set(
                "serving.socket_overhead_us_p50",
                client_p50_ms * 1e3 - phase.p50_micros as f64,
            );
        }
    }
    let t = server.totals;
    report.set("serving.shed", t.shed as f64);
    report.set("serving.deadline_exceeded", t.deadline_exceeded as f64);
    report.set("serving.bad_requests", t.bad_requests as f64);
    report.set("serving.worker_panics", t.worker_panics as f64);
    let refused = t.shed + t.deadline_exceeded + t.bad_requests + t.worker_panics;
    report.failed += refused;
    report.check("server_refused_nothing", refused == 0, || {
        format!(
            "{} shed, {} past deadline, {} bad requests, {} worker panics",
            t.shed, t.deadline_exceeded, t.bad_requests, t.worker_panics
        )
    });
}

/// The store call behind a data-class path, made directly: the class's
/// query built from the path's own parameters, as the gateway builds it.
fn store_call(db: &Database, class: Class, request: &HttpRequest) -> QueryProfile {
    let table = request.param("table").expect("data paths name a table");
    let measure = match table {
        "advisor" => "if_score",
        "price" => "spot_price",
        _ => "sps",
    };
    let mut q = Query::measure(measure);
    for key in ["instance_type", "region", "az"] {
        if let Some(value) = request.param(key) {
            q = q.filter(key, value);
        }
    }
    let number = |key: &str| request.param(key).and_then(|v| v.parse::<u64>().ok());
    let q = q.between(
        number("from").unwrap_or(0),
        number("to").unwrap_or(u64::MAX),
    );
    let ctx = QueryCtx::default();
    use Class::*;
    match class {
        LatestPoint | LatestRegion | LatestAll => db.latest_profiled(table, &q, ctx).map(|r| r.1),
        AtPoint => db
            .value_at_profiled(table, &q, number("timestamp").unwrap_or(0), ctx)
            .map(|r| r.1),
        WindowPoint | WindowRegion => {
            let agg = match request.param("agg") {
                Some("min") => Aggregate::Min,
                Some("max") => Aggregate::Max,
                _ => Aggregate::Mean,
            };
            db.query_window_profiled(table, &q, number("window").unwrap_or(86_400), agg, ctx)
                .map(|r| r.1)
        }
        _ => db.query_profiled(table, &q, ctx).map(|r| r.1),
    }
    .expect("the archive has the three tables")
}

/// The traced pass's layer probes: for `per_class` pooled paths of each
/// data class in `mix`, the store call, `Gateway::handle`, response encode
/// and request parse, each in-process under its own span. Counts come from
/// `QueryProfile` and repeat exactly.
fn probe_layers(ctx: &mut Ctx, db: &Database, pool: &PathPool, mix: Mix, per_class: usize) {
    let gateway = Gateway::new();
    let limits = WireLimits::default();
    let mut encode_us_per_kb = Vec::new();
    let mut seq = 0u64;
    ctx.tracer.set_enabled(true);
    for &(class, _) in mix {
        let name = class.name();
        let (mut scanned, mut decoded) = (Vec::new(), Vec::new());
        let paths = pool
            .entries
            .iter()
            .filter(|(c, _)| *c == class)
            .take(per_class);
        for (_, path) in paths {
            seq += 1;
            let request = HttpRequest::get(path).expect("pool paths are well formed");
            let root = ctx.tracer.begin("probe", name, seq, None);
            let parent = Some(root);
            let profile = ctx.tracer.leaf("timestream.query", name, seq, parent, || {
                store_call(db, class, &request)
            });
            scanned.push(profile.series_scanned as f64);
            decoded.push(profile.rows_decoded as f64);
            let response = ctx.tracer.leaf("serving.gateway", name, seq, parent, || {
                gateway.handle(db, &request, &OpsContext::none())
            });
            let t = Instant::now();
            let encoded = ctx
                .tracer
                .leaf("serving.wire_encode", name, seq, parent, || {
                    wire::encode_response(&response, &[("x-spotlake-request-id", seq.to_string())])
                });
            encode_us_per_kb.push(ms_since(t) * 1e3 / (encoded.len() as f64 / 1024.0));
            let head = format!("GET {path} HTTP/1.1\r\nhost: spotlake-bench\r\n\r\n");
            ctx.tracer
                .leaf("serving.wire_parse", name, seq, parent, || {
                    wire::read_head(&mut head.as_bytes(), &limits)
                        .and_then(|head| wire::parse_head(&head, &limits))
                        .expect("the client's own request head parses")
                });
            ctx.tracer.end(root);
        }
        let us = |span: &str| stats::median(&ctx.tracer.durations_ms(span, name)) * 1e3;
        ctx.report
            .set(format!("timestream.{name}_us_p50"), us("timestream.query"));
        ctx.report.set(
            format!("serving.gateway_{name}_us_p50"),
            us("serving.gateway"),
        );
        ctx.report.set(
            format!("timestream.{name}_series_scanned"),
            stats::median(&scanned),
        );
        ctx.report.set(
            format!("timestream.{name}_rows_decoded"),
            stats::median(&decoded),
        );
        ctx.report.count(
            format!("exact.probe.{name}_rows_decoded_sum"),
            decoded.iter().sum(),
        );
    }
    ctx.tracer.set_enabled(false);
    let parse = ctx.tracer.durations_ms("serving.wire_parse", "");
    ctx.report
        .set("serving.wire_parse_us_p50", stats::median(&parse) * 1e3);
    ctx.report.set(
        "serving.wire_encode_us_per_kb",
        stats::median(&encode_us_per_kb),
    );
}

pub fn run(ctx: &mut Ctx, scan: bool) {
    let (mix, pool_size, rps, probes_per_s) = if scan {
        (SCAN_MIX, ctx.scale.scan_pool, SCAN_RPS, SCAN_PROBES_PER_S)
    } else {
        (
            POINT_MIX,
            ctx.scale.point_pool,
            POINT_RPS,
            POINT_PROBES_PER_S,
        )
    };
    let (seed, rounds) = (ctx.seed, ctx.scale.archive_rounds);
    let serving = ctx.setup(|_| set_up(seed, Catalog::aws_2022(), rounds));
    let addr = serving.handle.addr();
    let db = serving.handle.archive().snapshot();

    // The oracle is the benchmark's own preparation, not the program's
    // set-up, so it is outside `setup_s`.
    let pool = PathPool::generate(seed, &serving.catalog, serving.axis, mix, pool_size);
    let oracle = Oracle::precompute(&db, &pool);
    ctx.report
        .count("exact.serve.archive_points", db.point_count() as f64);

    let planned = ctx.split(ctx.scale.ops(rps, 1));
    let mut samples = Vec::new();
    let mut load = |ctx: &mut Ctx, total: usize, traced: bool| {
        ctx.tracer.set_enabled(traced);
        let clock = StretchClock::start();
        let deadline = ctx.deadline();
        let batch = closed_loop(addr, &pool, &oracle, seed, total, deadline, &mut ctx.tracer);
        ctx.tracer.set_enabled(false);
        let stretch = clock.finish(batch.iter().filter(|s| s.ok).count());
        samples.extend(batch);
        stretch
    };
    let plain = load(ctx, planned.0, false);
    let traced = if planned.1 > 0 {
        load(ctx, planned.1, true)
    } else {
        Stretch::default()
    };
    ctx.book(planned, &plain, &traced);
    let wrong = samples.iter().filter(|s| !s.ok).count() as u64;
    ctx.report.failed += wrong;
    ctx.report
        .check("every_response_matches_the_oracle", wrong == 0, || {
            format!("{wrong} of {} responses failed or differed", samples.len())
        });

    let waits: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let client_p50 = stats::median(&waits);
    if ctx.traced {
        probe_layers(ctx, &db, &pool, mix, ctx.scale.ops(probes_per_s, 1));
    } else {
        report_timing(&mut ctx.report, &plain, waits, Tail::Percentile(0.95));
    }
    report_client_side(&mut ctx.report, &samples);
    drop(db);
    report_server_side(&mut ctx.report, serving.handle, client_p50);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::tiny_catalog;

    fn tiny_serving() -> (Serving, PathPool, Oracle) {
        let serving = set_up(11, tiny_catalog(), 4);
        let pool = PathPool::generate(11, &serving.catalog, serving.axis, POINT_MIX, 24);
        let oracle = Oracle::precompute(&serving.handle.archive().snapshot(), &pool);
        (serving, pool, oracle)
    }

    #[test]
    fn socket_responses_match_the_in_process_oracle() {
        let (serving, pool, oracle) = tiny_serving();
        let mut tracer = Tracer::new(Instant::now());
        tracer.set_enabled(true);
        let soon = Instant::now() + std::time::Duration::from_secs(60);
        let samples = closed_loop(
            serving.handle.addr(),
            &pool,
            &oracle,
            11,
            120,
            soon,
            &mut tracer,
        );
        assert_eq!(samples.len(), 120);
        assert!(samples.iter().all(|s| s.ok && s.bytes > 0));
        assert_eq!(tracer.durations_ms("request", "").len(), 120);
        let mut report = Report::default();
        report_server_side(&mut report, serving.handle, 1.0);
        assert!(report.correct());
    }

    #[test]
    fn a_corrupted_expected_digest_fails_the_run() {
        let (serving, pool, mut oracle) = tiny_serving();
        let first = oracle.0.iter_mut().flatten().next().unwrap();
        first.digest ^= 1;
        let mut tracer = Tracer::new(Instant::now());
        let soon = Instant::now() + std::time::Duration::from_secs(60);
        let samples = closed_loop(
            serving.handle.addr(),
            &pool,
            &oracle,
            11,
            400,
            soon,
            &mut tracer,
        );
        let wrong = samples.iter().filter(|s| !s.ok).count() as u64;
        assert!(
            wrong > 0,
            "the corrupted entry is drawn within 400 requests"
        );
        let mut report = Report::default();
        report.failed += wrong;
        assert!(
            !report.correct(),
            "and main exits non-zero on an incorrect report"
        );
    }

    #[test]
    fn store_calls_mirror_the_gateways_queries() {
        let (serving, ..) = tiny_serving();
        let db = serving.handle.archive().snapshot();
        for mix in [POINT_MIX, SCAN_MIX] {
            let pool = PathPool::generate(3, &serving.catalog, serving.axis, mix, 20);
            for (class, path) in &pool.entries {
                let request = HttpRequest::get(path).unwrap();
                let profile = store_call(&db, *class, &request);
                assert!(profile.series_scanned > 0, "{path} scans nothing");
            }
        }
    }
}
