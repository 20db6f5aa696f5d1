//! `live`: reads beside writes on the same store and cores.
//!
//! Thread A runs the whole write path in a loop — `step` → `collect_round`
//! on the durable sharded service → publish (`database().clone()` +
//! `SharedArchive::replace`) → one probe `GET /latest` that must carry the
//! round's own timestamp. Thread B is an open-loop reader at 100 req/s on
//! one connection (90 % the `serve_point` mix, 10 % operator surfaces),
//! timed from each request's due time. It is the only workload that sees
//! publish cost, epoch swaps and collector/server interference, so a
//! read-side gain paid for at ingest or publish shows here: in published
//! rounds per second and in freshness, the wait this workload gates.

use super::collect::{self, Pipeline};
use super::serve::{self, Sample};
use super::twin::Twin;
use super::{ms_since, report_timing, Ctx, Stretch, StretchClock, Tail};
use crate::http::Client;
use crate::paths::{newest_time, Class, PathPool, TimeAxis, LIVE_MIX};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use spotlake_obs::Registry;
use spotlake_serving::{ServerHandle, SharedArchive};
use spotlake_types::Catalog;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Publish cycles per second of `--seconds` (~330 ms a cycle on the
/// reference machine, beside the reader).
const CYCLES_PER_S: f64 = 3.0;
/// The open-loop reader's schedule: one request every 10 ms.
const READER_INTERVAL: Duration = Duration::from_millis(10);
/// `/metrics` renders timed for `obs.render_metrics_us_p50`.
const RENDERS: usize = 20;

struct Live {
    pipeline: Pipeline,
    handle: ServerHandle,
}

/// A durable sharded collector with `warmup` rounds behind it (so the first
/// reads find data) and the server over its first published snapshot.
fn set_up(seed: u64, catalog: Catalog, wal_dir: PathBuf, warmup: usize) -> Live {
    let mut pipeline = collect::set_up(seed, catalog, Some(wal_dir));
    let mut off = Tracer::new(Instant::now());
    let root = off.begin("setup", "", 0, None);
    for _ in 0..warmup {
        assert!(pipeline.round(&mut off, root).ok, "warm-up round failed");
    }
    let archive = SharedArchive::new(pipeline.service.database().clone());
    Live {
        pipeline,
        handle: serve::start_server(archive),
    }
}

/// What the reader thread brings back from one stretch.
struct Reader {
    samples: Vec<Sample>,
    lateness_ms: Vec<f64>,
    /// Responses whose newest timestamp was older than one already seen.
    went_backwards: u64,
    spans: Tracer,
}

/// The open-loop reader: request `i` is due at `start + i * interval`
/// whether or not request `i - 1` has been answered in time, and its latency
/// counts from that due time, so a stall is charged to every request it
/// delays. The generator's own lateness is how long after it could have sent
/// (the due time, or the previous response on this one connection, whichever
/// is later) the request actually left.
fn read_until_stopped(
    addr: SocketAddr,
    pool: &PathPool,
    seed: u64,
    stop: &AtomicBool,
    mut spans: Tracer,
    newest_seen: &mut u64,
) -> Reader {
    let mut rng = Rng::new(seed, 0x4EAD);
    let mut client = Client::new(addr);
    let (mut samples, mut lateness_ms, mut went_backwards) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let mut free_at = start;
    let mut i = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + READER_INTERVAL * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness_ms.push(ms_since(due.max(free_at)));
        let (class, path) = &pool.entries[pool.draw(&mut rng)];
        let root = spans.begin("request", class.name(), u64::from(i), None);
        let (ok, bytes) = match client.get(path) {
            Ok(reply) => {
                // Dense SPS series all end at the newest published round,
                // so on one connection that timestamp may never go back.
                if *class == Class::LatestPoint {
                    if let Some(t) = newest_time(reply.body) {
                        went_backwards += u64::from(t < *newest_seen);
                        *newest_seen = (*newest_seen).max(t);
                    }
                }
                (
                    reply.status == 200 && !reply.body.is_empty(),
                    reply.body.len(),
                )
            }
            Err(_) => (false, 0),
        };
        spans.end(root);
        free_at = Instant::now();
        samples.push(Sample {
            class: *class,
            ms: ms_since(due),
            bytes,
            ok,
        });
        i += 1;
    }
    Reader {
        samples,
        lateness_ms,
        went_backwards,
        spans,
    }
}

/// Thread A's per-cycle measurements. A cycle's freshness runs from the
/// start of its `step` to the first socket response carrying its timestamp.
#[derive(Default)]
struct Writer {
    freshness_ms: Vec<f64>,
    /// Freshness of the cycles whose round rotated shard checkpoints.
    checkpoint_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    clone_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    bad_cycles: u64,
}

pub fn run(ctx: &mut Ctx) {
    let (seed, warmup) = (ctx.seed, ctx.scale.warmup_rounds);
    let Live {
        mut pipeline,
        handle,
    } = ctx.setup(|ctx| set_up(seed, Catalog::aws_2022(), ctx.scratch.fresh("wal"), warmup));
    let addr = handle.addr();
    let archive = handle.archive().clone();
    let step = pipeline.cloud.config().tick.as_secs();
    let axis = TimeAxis {
        first: step,
        last: pipeline.cloud.now().as_secs(),
        step,
    };
    let pool = PathPool::generate(
        seed,
        pipeline.cloud.catalog(),
        axis,
        LIVE_MIX,
        ctx.scale.point_pool,
    );
    let probe_path = {
        let catalog = pipeline.cloud.catalog();
        let (ty, az) = catalog.supported_pools()[0];
        format!(
            "/latest?table=sps&instance_type={}&az={}",
            catalog.ty(ty).name(),
            catalog.az(az).name()
        )
    };
    let mut twin = ctx
        .traced
        .then(|| Twin::new(pipeline.cloud.catalog(), Some(ctx.scratch.fresh("twin"))));
    let planned = ctx.split(ctx.scale.ops(CYCLES_PER_S, 1));

    let mut writer = Writer::default();
    let mut probe = Client::new(addr);
    let mut reads: Vec<Sample> = Vec::new();
    let mut lateness_ms = Vec::new();
    let mut went_backwards = 0;
    let mut newest_seen = 0u64;
    let mut stretch = |ctx: &mut Ctx, cycles: usize, traced: bool| -> Stretch {
        ctx.tracer.set_enabled(traced);
        let stop = AtomicBool::new(false);
        let reader_spans = ctx.tracer.sibling();
        let clock = StretchClock::start();
        let mut done = 0;
        let reader = std::thread::scope(|scope| {
            let (pool, stop, newest_seen) = (&pool, &stop, &mut newest_seen);
            let reader = scope.spawn(move || {
                read_until_stopped(addr, pool, seed, stop, reader_spans, newest_seen)
            });
            while done < cycles && !ctx.over_budget() {
                let trace = pipeline.cloud.ticks() + 1;
                let root = ctx.tracer.begin("cycle", "", trace, None);
                let t0 = Instant::now();
                let round = pipeline.round(&mut ctx.tracer, root);

                let t = Instant::now();
                let publish = ctx.tracer.begin("serving.publish", "", trace, Some(root));
                let snapshot =
                    ctx.tracer
                        .leaf("timestream.clone", "", trace, Some(publish), || {
                            pipeline.service.database().clone()
                        });
                writer.clone_ms.push(ms_since(t));
                archive.replace(snapshot);
                ctx.tracer.end(publish);
                writer.publish_ms.push(ms_since(t));

                // The first response carrying this round's timestamp ends
                // the round's freshness interval.
                let t = Instant::now();
                let now = pipeline.cloud.now().as_secs();
                let carried = ctx.tracer.leaf("serving.probe", "", trace, Some(root), || {
                    probe
                        .get(&probe_path)
                        .ok()
                        .filter(|reply| reply.status == 200)
                        .and_then(|reply| newest_time(reply.body))
                });
                writer.probe_ms.push(ms_since(t));
                let fresh_ms = ms_since(t0);
                writer.freshness_ms.push(fresh_ms);
                if round.checkpointed {
                    writer.checkpoint_ms.push(fresh_ms);
                }
                writer.bad_cycles += u64::from(!round.ok || carried != Some(now));

                if let Some(twin) = twin.as_mut().filter(|_| traced) {
                    twin.round(&mut ctx.tracer, &pipeline.cloud, trace, root);
                }
                ctx.tracer.end(root);
                done += 1;
            }
            stop.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread")
        });
        ctx.tracer.set_enabled(false);
        let stretch = clock.finish(done);
        ctx.tracer.absorb(reader.spans);
        reads.extend(reader.samples);
        lateness_ms.extend(reader.lateness_ms);
        went_backwards += reader.went_backwards;
        stretch
    };
    let plain = stretch(ctx, planned.0, false);
    let traced = if planned.1 > 0 {
        stretch(ctx, planned.1, true)
    } else {
        Stretch::default()
    };
    ctx.book(planned, &plain, &traced);

    let failed_reads = reads.iter().filter(|s| !s.ok).count() as u64;
    ctx.report.attempted += reads.len() as u64;
    ctx.report.failed += writer.bad_cycles + failed_reads + went_backwards;
    ctx.report.check(
        "every_probe_returned_its_own_round",
        writer.bad_cycles == 0,
        || {
            format!(
                "{} cycles degraded or probed a stale epoch",
                writer.bad_cycles
            )
        },
    );
    ctx.report
        .check("every_read_succeeded", failed_reads == 0, || {
            format!("{failed_reads} of {} reads failed", reads.len())
        });
    ctx.report.check(
        "newest_timestamp_never_went_backwards",
        went_backwards == 0,
        || format!("{went_backwards} reads saw an older epoch than an earlier read"),
    );
    ctx.report
        .count("exact.live.cycles", (plain.done + traced.done) as f64);
    ctx.report.count(
        "exact.live.point_count",
        pipeline.service.database().point_count() as f64,
    );

    // An open-loop run is only as good as its schedule: if requests left
    // late by a large part of the interval, the latencies are the
    // generator's, not the server's.
    let late = stats::sorted(lateness_ms);
    let (late_p95, _) = stats::tail(&late, 0.95);
    let interval_ms = READER_INTERVAL.as_secs_f64() * 1e3;
    println!("note open-loop generator lateness p95 {late_p95:.3} ms against a {interval_ms} ms interval");
    if late_p95 > interval_ms / 2.0 {
        println!("note live run INVALID as an open loop: its latencies are the generator's, not the server's");
    }

    if let Some(twin) = &twin {
        twin.report(&ctx.tracer, &mut ctx.report);
        ctx.report.set("loadgen.lateness_ms_p95", late_p95);
        ctx.report.set(
            "collector.round_ms_p50",
            stats::median(&writer.freshness_ms),
        );
        ctx.report.set(
            "serving.freshness_ms_p50",
            stats::median(&writer.freshness_ms),
        );
        ctx.report
            .set("serving.publish_ms_p50", stats::median(&writer.publish_ms));
        ctx.report
            .set("serving.probe_ms_p50", stats::median(&writer.probe_ms));
        ctx.report
            .set("timestream.clone_ms_p50", stats::median(&writer.clone_ms));
        let snapshot = archive.snapshot();
        let mut render_us = Vec::new();
        let mut bytes = 0;
        for _ in 0..RENDERS {
            let t = Instant::now();
            let text =
                Registry::render_merged([handle.gateway().http_metrics(), snapshot.metrics()]);
            render_us.push(ms_since(t) * 1e3);
            bytes = text.len();
        }
        ctx.report
            .set("obs.render_metrics_us_p50", stats::median(&render_us));
        ctx.report.set("obs.metrics_bytes", bytes as f64);
    } else {
        report_timing(
            &mut ctx.report,
            &plain,
            writer.freshness_ms,
            Tail::MedianOf(&writer.checkpoint_ms),
        );
    }
    // Read latency beside the writer is reported, not gated: it sits on the
    // knee between "served at once" and "queued behind a collector phase",
    // and its p50 moves 20 % between back-to-back sets on this machine.
    let waits = stats::sorted(reads.iter().map(|s| s.ms).collect());
    ctx.report
        .set("serving.read_latency_p50_ms", stats::median(&waits));
    ctx.report
        .set("serving.read_latency_p90_ms", stats::tail(&waits, 0.90).0);
    serve::report_client_side(&mut ctx.report, &reads);
    serve::report_server_side(&mut ctx.report, handle, stats::median(&waits));
}
