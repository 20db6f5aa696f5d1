//! The six workloads and what they share: how a run is sized, how set-up is
//! timed, and how the three timing metrics every workload reports are derived
//! from its samples.
//!
//! A run is sized by work, not by the clock: `--seconds` times a per-workload
//! rate (calibrated on the 2-core reference machine, see [`Scale`]) gives the
//! number of operations, so a given seed always does the same work and the
//! exact counts, the archive size and the peak memory repeat. The clock only
//! caps a run that a slower machine would stretch past 2.5x its budget.

use crate::metrics::Report;
use crate::proc::{self, ScratchDir};
use crate::stats;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

pub mod collect;
pub mod live;
pub mod serve;
pub mod sim;
pub mod twin;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `--seconds`: the wall time the measured part should take here.
    pub seconds: f64,
    /// How many times set-up is repeated (`setup_s` is the median).
    pub setup_reps: usize,
    /// In-memory collection rounds behind the static serving archive.
    pub archive_rounds: usize,
    /// Durable rounds collected before `live` starts serving.
    pub warmup_rounds: usize,
    /// Paths pooled for `serve_point` and `live`.
    pub point_pool: usize,
    /// Paths pooled for `serve_scan`.
    pub scan_pool: usize,
    /// Cold recoveries timed after the crash in `collect_durable`'s traced
    /// pass (the end-to-end pass does one, for the check).
    pub recoveries: usize,
}

impl Scale {
    /// The sizes of a measured run.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            setup_reps: 3,
            archive_rounds: 24,
            warmup_rounds: 4,
            point_pool: 512,
            scan_pool: 96,
            recoveries: 3,
        }
    }

    /// `--smoke`: every workload at about a twentieth of the work, one
    /// set-up, same checks.
    pub fn smoke() -> Scale {
        Scale {
            seconds: 0.5,
            setup_reps: 1,
            archive_rounds: 3,
            warmup_rounds: 1,
            point_pool: 48,
            scan_pool: 12,
            recoveries: 1,
        }
    }

    /// Operations in the measured part of a run whose workload completes
    /// `rate` operations per second on the reference machine, rounded up to
    /// a multiple of `multiple`.
    pub fn ops(&self, rate: f64, multiple: usize) -> usize {
        let ops = ((rate * self.seconds).round() as usize).max(1);
        ops.div_ceil(multiple) * multiple
    }
}

/// Cheap set-ups (tens of milliseconds) are repeated beyond `setup_reps`
/// until they add up to this much, or there are this many of them.
const SETUP_FLOOR_S: f64 = 1.0;
const MAX_SETUP_REPS: usize = 15;

/// What a workload runs with.
pub struct Ctx<'a> {
    pub seed: u64,
    pub scale: Scale,
    /// `--trace 1`: record spans, run the twin and the layer probes.
    pub traced: bool,
    pub scratch: &'a ScratchDir,
    pub report: Report,
    pub tracer: Tracer,
    started: Instant,
}

impl<'a> Ctx<'a> {
    pub fn new(seed: u64, scale: Scale, traced: bool, scratch: &'a ScratchDir) -> Ctx<'a> {
        let started = Instant::now();
        Ctx {
            seed,
            scale,
            traced,
            scratch,
            report: Report::default(),
            tracer: Tracer::new(started),
            started,
        }
    }

    /// Splits a run's operations into a plain stretch and a traced one. The
    /// end-to-end pass is all plain. The traced pass does an eighth plain —
    /// the rate `trace.overhead_pct` compares against — then a third traced
    /// (the twin and the API probe make a round ~2.5x as long, so the pass
    /// takes about as long as the end-to-end one).
    pub fn split(&self, ops: usize) -> (usize, usize) {
        if self.traced {
            (ops.div_ceil(8), (ops / 3).max(1))
        } else {
            (ops, 0)
        }
    }

    /// When a run that a slow machine has stretched must stop measuring:
    /// 2.5x its budget, plus half a minute for set-up, after it started.
    pub fn deadline(&self) -> Instant {
        self.started + Duration::from_secs_f64(self.scale.seconds * 2.5 + 30.0)
    }

    /// Whether the deadline has passed. A run cut short fails its
    /// `run_completed_its_operations` check: it is not comparable.
    pub fn over_budget(&self) -> bool {
        Instant::now() > self.deadline()
    }

    /// Runs set-up `setup_reps` times — and, while set-ups are so short
    /// that three of them make a noisy median, up to [`MAX_SETUP_REPS`]
    /// times or [`SETUP_FLOOR_S`] in total. Each result is dropped before
    /// the next is built, so peak memory is one set-up's. Keeps the last and
    /// records the median wall time as `setup_s`.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ctx<'a>) -> T) -> T {
        let mut times: Vec<f64> = Vec::new();
        let mut last = None;
        let reps = self.scale.setup_reps.max(1);
        while times.len() < reps
            || (reps > 1
                && times.len() < MAX_SETUP_REPS
                && times.iter().sum::<f64>() < SETUP_FLOOR_S)
        {
            drop(last.take());
            let t = Instant::now();
            last = Some(build(self));
            times.push(t.elapsed().as_secs_f64());
        }
        self.report.set("setup_s", stats::median(&times));
        self.report.count("setup.samples", times.len() as f64);
        last.expect("set-up ran at least once")
    }
}

/// A measured stretch of operations: how many completed, in how much wall
/// and process-CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stretch {
    pub done: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Times a stretch whose operations the caller drives.
pub struct StretchClock {
    wall: Instant,
    cpu: f64,
}

impl StretchClock {
    pub fn start() -> StretchClock {
        StretchClock {
            wall: Instant::now(),
            cpu: proc::cpu_seconds(),
        }
    }

    /// Closes the stretch after `done` operations.
    pub fn finish(self, done: usize) -> Stretch {
        Stretch {
            done,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: proc::cpu_seconds() - self.cpu,
        }
    }
}

impl Ctx<'_> {
    /// Runs `op` `n` times with span recording on or off, stopping early
    /// only at the time cap.
    pub fn stretch(&mut self, n: usize, traced: bool, mut op: impl FnMut(&mut Self)) -> Stretch {
        self.tracer.set_enabled(traced);
        let clock = StretchClock::start();
        let mut done = 0;
        while done < n && !self.over_budget() {
            op(self);
            done += 1;
        }
        self.tracer.set_enabled(false);
        clock.finish(done)
    }

    /// Books both stretches of a run: operations attempted, the check that
    /// the time cap cut nothing short, and — in the traced pass —
    /// `trace.overhead_pct`: how much slower one operation is with the twin,
    /// probes and spans than without.
    pub fn book(&mut self, planned: (usize, usize), plain: &Stretch, traced: &Stretch) {
        let done = plain.done + traced.done;
        self.report.attempted += done as u64;
        self.report.check(
            "run_completed_its_operations",
            (plain.done, traced.done) == planned,
            || format!("{done} of {} before the time cap", planned.0 + planned.1),
        );
        if plain.done > 0 {
            // Process CPU (user + system, every thread, load generator
            // included) per unit of work, over the plain stretch.
            self.report
                .set("proc.cpu_ms_per_op", plain.cpu_s * 1e3 / plain.done as f64);
        }
        if traced.done > 0 && plain.done > 0 {
            let per_op = |s: &Stretch| s.wall_s / s.done as f64;
            self.report.set(
                "trace.overhead_pct",
                (per_op(traced) / per_op(plain) - 1.0) * 100.0,
            );
        }
    }
}

/// How a workload's `latency_tail_ms` is taken from its samples.
pub enum Tail<'a> {
    /// This percentile of the timed waits, or the next lower rung the sample
    /// supports.
    Percentile(f64),
    /// The median of these waits — the checkpoint rounds of a durable
    /// path, one in `checkpoint_every`, which no percentile over ~40 rounds
    /// can name — when there are at least three; else a p80.
    MedianOf(&'a [f64]),
}

/// Sets the three timing metrics of an end-to-end pass from its plain
/// [`Stretch`] and the `waits_ms` the workload's user saw (see the table on
/// [`crate::metrics::END_TO_END`]).
pub fn report_timing(report: &mut Report, stretch: &Stretch, waits_ms: Vec<f64>, tail: Tail) {
    let ops = stretch.done.max(1) as f64;
    let waits = stats::sorted(waits_ms);
    let (tail_ms, used) = match tail {
        Tail::MedianOf(rounds) if rounds.len() >= 3 => {
            report.count("checkpoint_rounds.samples", rounds.len() as f64);
            (stats::median(rounds), 0.5)
        }
        Tail::MedianOf(_) => stats::tail(&waits, 0.80),
        Tail::Percentile(p) => stats::tail(&waits, p),
    };
    report.set("throughput_per_s", ops / stretch.wall_s);
    report.set("latency_p50_ms", stats::median(&waits));
    report.set("latency_tail_ms", tail_ms);
    report.count("measured.ops", ops);
    report.count("measured.wall_s", stretch.wall_s);
    report.count("latency.samples", waits.len() as f64);
    report.count("latency_tail.percentile", used * 100.0);
    for p in [0.75, 0.90, 0.95, 0.99] {
        if let Some(v) = stats::percentile(&waits, p) {
            report.count(format!("latency.p{:.0}_ms", p * 100.0), v);
        }
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
