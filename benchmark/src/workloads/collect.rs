//! `collect_mem` and `collect_durable`: the full-catalog collection round
//! (`SimCloud::step` + `CollectorService::collect_round`, exact plan, three
//! datasets, no faults), in memory and through the sharded durable archive.
//!
//! `collect_mem` is the archive-building path every experiment pays:
//! `cloud-api`, `collector` and `timestream` ingest do the work, WAL and
//! serving none. `collect_durable` is the operator's production write path:
//! the same ingest, but WAL append (fsync per frame — the code's own flush
//! policy), shard fan-out and checkpoints now dominate, checkpoint rounds
//! form the tail, and recovery and on-disk bytes become measurable.

use super::twin::Twin;
use super::{ms_since, report_timing, Ctx, Tail};
use crate::paths::digest;
use crate::proc;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_collector::{CollectorConfig, CollectorService};
use spotlake_serving::{Gateway, HttpRequest, OpsContext};
use spotlake_timestream::Database;
use spotlake_types::Catalog;
use std::path::PathBuf;
use std::time::Instant;

/// In-memory rounds per second of `--seconds` (~140 ms a round, growing with the archive, on the
/// reference machine).
const MEM_ROUNDS_PER_S: f64 = 7.0;
/// Durable rounds per second of `--seconds` (~280 ms a round).
const DURABLE_ROUNDS_PER_S: f64 = 4.0;
/// Whole-table query whose digest must survive recovery.
const SURVIVOR_QUERY: &str = "/latest?table=sps";

/// A cloud and the collection service over its catalog.
pub struct Pipeline {
    pub cloud: SimCloud,
    pub service: CollectorService,
    pub config: CollectorConfig,
    pub new_ms: f64,
}

/// Catalog, cloud, planner and collector; durable and sharded under
/// `wal_dir` when one is given.
pub fn set_up(seed: u64, catalog: Catalog, wal_dir: Option<PathBuf>) -> Pipeline {
    let cloud = SimCloud::new(catalog, SimConfig::with_seed(seed));
    let config = CollectorConfig {
        shards: wal_dir.is_some(),
        wal_dir,
        ..CollectorConfig::default()
    };
    let t = Instant::now();
    let service = CollectorService::new(cloud.catalog(), config.clone())
        .expect("a fresh collector over the catalog");
    Pipeline {
        cloud,
        service,
        config,
        new_ms: ms_since(t),
    }
}

/// What one measured round found.
pub struct Round {
    pub ms: f64,
    pub ok: bool,
    pub checkpointed: bool,
}

impl Pipeline {
    /// One collection round under `root`, timed from the start of `step`.
    /// `ok` is false for a round that wrote nothing, degraded, or failed
    /// outright.
    pub fn round(&mut self, tracer: &mut Tracer, root: SpanId) -> Round {
        let checkpoints = |s: &CollectorService| s.wal_stats().map_or(0, |w| w.checkpoints);
        let before = checkpoints(&self.service);
        let trace = self.cloud.ticks() + 1;
        let t = Instant::now();
        tracer.leaf("cloud-sim.step", "", trace, Some(root), || {
            self.cloud.step()
        });
        let outcome = tracer.leaf("service.collect_round", "", trace, Some(root), || {
            self.service.collect_round(&self.cloud)
        });
        let ms = ms_since(t);
        Round {
            ms,
            ok: outcome.is_ok_and(|r| r.stats.records_written > 0 && r.stats.degraded_rounds == 0),
            checkpointed: checkpoints(&self.service) > before,
        }
    }
}

/// Digest of the survivor query's body over `db`, through the gateway.
fn survivor_digest(db: &Database) -> (u16, u64) {
    let request = HttpRequest::get(SURVIVOR_QUERY).expect("a well-formed path");
    let response = Gateway::new().handle(db, &request, &OpsContext::none());
    (response.status, digest(&response.body))
}

pub fn run(ctx: &mut Ctx, durable: bool) {
    let seed = ctx.seed;
    let mut pipeline = ctx.setup(|ctx| {
        set_up(
            seed,
            Catalog::aws_2022(),
            durable.then(|| ctx.scratch.fresh("wal")),
        )
    });
    let every = pipeline.config.checkpoint_every as usize;
    // Durable runs end on a checkpoint boundary, so the bytes on disk are
    // a checkpoint's, not a half-grown log's.
    let rounds = if durable {
        ctx.scale.ops(DURABLE_ROUNDS_PER_S, every)
    } else {
        ctx.scale.ops(MEM_ROUNDS_PER_S, 1)
    };
    let planned = ctx.split(rounds);

    // The twin exists only in the traced pass; it is built before either
    // stretch so both run with the same memory behind them.
    let mut twin = ctx.traced.then(|| {
        Twin::new(
            pipeline.cloud.catalog(),
            durable.then(|| ctx.scratch.fresh("twin")),
        )
    });
    let mut round_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut failed = 0u64;
    let mut traced_from = None;
    let mut one_round = |ctx: &mut Ctx, with_twin: bool| {
        let trace = pipeline.cloud.ticks() + 1;
        let root = ctx.tracer.begin("round", "", trace, None);
        let round = pipeline.round(&mut ctx.tracer, root);
        failed += u64::from(!round.ok);
        round_ms.push(round.ms);
        if round.checkpointed {
            checkpoint_ms.push(round.ms);
        }
        if let Some(twin) = twin.as_mut().filter(|_| with_twin) {
            traced_from.get_or_insert_with(|| {
                (proc::rss_bytes(), pipeline.service.database().point_count())
            });
            twin.round(&mut ctx.tracer, &pipeline.cloud, trace, root);
        }
        ctx.tracer.end(root);
    };
    let plain = ctx.stretch(planned.0, false, |ctx| one_round(ctx, false));
    let traced = ctx.stretch(planned.1, true, |ctx| one_round(ctx, true));
    ctx.book(planned, &plain, &traced);

    if let Some(twin) = &twin {
        if let Some((rss_before, points_before)) = traced_from {
            // Both stores grew over the traced stretch; the first traced
            // round's own growth is the part this misses.
            let added =
                pipeline.service.database().point_count() - points_before + twin.point_count();
            ctx.report.set(
                "timestream.mem_bytes_per_point",
                (proc::rss_bytes() - rss_before).max(0.0) / added.max(1) as f64,
            );
        }
        twin.report(&ctx.tracer, &mut ctx.report);
        ctx.report.set(
            "cloud-sim.pools_per_tick",
            pipeline.cloud.pool_count() as f64,
        );
        ctx.report.set("collector.new_ms", pipeline.new_ms);
        ctx.report
            .set("collector.round_ms_p50", stats::median(&round_ms));
        ctx.report.set(
            "collector.checkpoint_round_ms_p50",
            stats::median(&checkpoint_ms),
        );
    } else {
        report_timing(
            &mut ctx.report,
            &plain,
            round_ms,
            Tail::MedianOf(&checkpoint_ms),
        );
    }

    let done = plain.done + traced.done;
    let totals = pipeline.service.stats();
    ctx.report.failed += failed;
    ctx.report.set("collector.retries", totals.retries as f64);
    ctx.report
        .set("collector.queries_failed", totals.queries_failed as f64);
    ctx.report
        .set("collector.degraded_rounds", totals.degraded_rounds as f64);
    ctx.report.check(
        "collect_every_round_wrote_and_none_degraded",
        failed == 0 && totals.degraded_rounds == 0 && totals.queries_failed == 0,
        || {
            format!(
                "{failed} bad rounds, {} degraded, {} queries failed",
                totals.degraded_rounds, totals.queries_failed
            )
        },
    );
    let points = pipeline.service.database().point_count();
    ctx.report.count("exact.collect.rounds", done as f64);
    ctx.report.count("exact.collect.point_count", points as f64);

    if durable {
        crash_and_recover(ctx, pipeline, points);
    }
}

/// Drops the service without any shutdown, then times cold
/// `CollectorService::new` over the same directory: every recovery must
/// rebuild the pre-crash point count and the same survivor-query digest.
///
/// The process, not the machine, "crashes": the OS page cache stays warm, so
/// recovery time here is a lower bound on a cold restart's.
fn crash_and_recover(ctx: &mut Ctx, pipeline: Pipeline, points: usize) {
    let Pipeline {
        cloud,
        service,
        config,
        ..
    } = pipeline;
    let dir = config
        .wal_dir
        .clone()
        .expect("durable runs have a directory");
    let want = survivor_digest(service.database());
    let disk_bytes = proc::dir_bytes(&dir);
    ctx.report
        .count("exact.collect.disk_bytes", disk_bytes as f64);
    ctx.report.set(
        "timestream.disk_bytes_per_record",
        disk_bytes as f64 / points.max(1) as f64,
    );
    drop(service);

    let recoveries = if ctx.traced { ctx.scale.recoveries } else { 1 };
    let mut seconds = Vec::new();
    let mut last_report = None;
    for i in 0..recoveries {
        let root = ctx.tracer.begin("recovery", "", i as u64, None);
        let t = Instant::now();
        let recovered = CollectorService::new(cloud.catalog(), config.clone());
        seconds.push(t.elapsed().as_secs_f64());
        ctx.tracer.end(root);
        ctx.report.attempted += 1;
        let ok = recovered.as_ref().is_ok_and(|s| {
            s.database().point_count() == points && survivor_digest(s.database()) == want
        });
        ctx.report.failed += u64::from(!ok);
        ctx.report.check(
            "recovery_rebuilds_the_pre_crash_archive",
            ok,
            || match &recovered {
                Ok(s) => format!(
                    "{} points (want {points}), survivor digest {:?} (want {want:?})",
                    s.database().point_count(),
                    survivor_digest(s.database())
                ),
                Err(e) => format!("recovery failed: {e}"),
            },
        );
        last_report = recovered.ok().and_then(|s| s.recovery_report().cloned());
    }
    ctx.report
        .set("collector.recovery_s", stats::median(&seconds));
    ctx.report.count("recovery.samples", seconds.len() as f64);

    if ctx.traced {
        // The store's share of recovery, without the collector around it.
        let mut open_ms = Vec::new();
        for _ in 0..recoveries {
            let t = Instant::now();
            let opened =
                spotlake_timestream::ShardedArchive::open(&dir, &[], config.checkpoint_every, None);
            open_ms.push(ms_since(t));
            if let Ok((archive, _)) = opened {
                ctx.report
                    .set("timestream.recover_shards", archive.health().total() as f64);
            }
        }
        ctx.report
            .set("timestream.recover_ms", stats::median(&open_ms));
        if let Some(r) = last_report {
            ctx.report.set(
                "timestream.recover_frames_replayed",
                r.frames_replayed as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::tiny_catalog;
    use crate::proc::ScratchDir;

    #[test]
    fn durable_rounds_checkpoint_on_cadence_and_survive_a_crash() {
        let scratch = ScratchDir::create().unwrap();
        let mut pipeline = set_up(5, tiny_catalog(), Some(scratch.fresh("wal")));
        let mut off = Tracer::new(Instant::now());
        let root = off.begin("test", "", 0, None);
        let rounds: Vec<Round> = (0..16).map(|_| pipeline.round(&mut off, root)).collect();
        assert!(rounds.iter().all(|r| r.ok));
        assert_eq!(rounds.iter().filter(|r| r.checkpointed).count(), 2);
        let points = pipeline.service.database().point_count();
        let want = survivor_digest(pipeline.service.database());
        let config = pipeline.config.clone();
        drop(pipeline.service);
        let recovered = CollectorService::new(pipeline.cloud.catalog(), config).unwrap();
        assert_eq!(recovered.database().point_count(), points);
        assert_eq!(survivor_digest(recovered.database()), want);
    }

    #[test]
    fn same_seed_builds_the_same_archive() {
        let build = |seed| {
            let mut p = set_up(seed, tiny_catalog(), None);
            let mut off = Tracer::new(Instant::now());
            let root = off.begin("test", "", 0, None);
            for _ in 0..6 {
                assert!(p.round(&mut off, root).ok);
            }
            (
                p.service.database().point_count(),
                survivor_digest(p.service.database()),
            )
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9).1, build(10).1);
    }
}
