//! `spotlake-bench`: the repository's benchmark.
//!
//! Six seeded workloads cover the collect → commit → publish → query path
//! end to end and layer by layer (see `benchmark/README.md`). The program
//! under test is measured only from outside — through the layer crates'
//! public functions and the TCP socket — and receives only inputs generated
//! from `--seed`.
//!
//! ```text
//! spotlake-bench --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! spotlake-bench [--seed N] [--seconds S] [--workload NAME]
//!                [--pass e2e|traced|both] [--out FILE] [--smoke]     every workload, each in a child process
//! spotlake-bench --compare A.json B.json                            two --out files against the bounds
//! ```
//!
//! One run prints every metric of its pass by name with its unit, then one
//! `detail` line (exact counts, failed checks), then — last — the result
//! object the driver reads. It exits non-zero when a correctness check
//! fails.

mod http;
mod json;
mod metrics;
mod paths;
mod proc;
mod stats;
mod suite;
mod trace;
mod workloads;

use proc::ScratchDir;
use std::process::ExitCode;
use workloads::{Ctx, Scale};

/// `run_seconds` in `BENCHMARK.json`, and the suite's default `--seconds`.
pub const RUN_SECONDS: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    pass: Option<String>,
    out: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--pass" => {
                let pass = value()?;
                if !["e2e", "traced", "both"].contains(&pass.as_str()) {
                    return Err("--pass takes e2e, traced or both".to_owned());
                }
                args.pass = Some(pass);
            }
            "--out" => args.out = Some(value()?),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result. Returns
/// whether every check held.
fn run_one(workload: &str, seed: u64, scale: Scale, traced: bool) -> Result<bool, String> {
    let scratch = ScratchDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "run workload={workload} seed={seed} seconds={} trace={} nproc={} clients<={} server_workers={}",
        scale.seconds,
        u8::from(traced),
        proc::nproc(),
        workloads::serve::CLIENTS,
        workloads::serve::WORKERS,
    );
    println!("note flush policy is the program's own: one fsync per WAL frame");
    let mut ctx = Ctx::new(seed, scale, traced, &scratch);
    match workload {
        "sim_experiment" => workloads::sim::run(&mut ctx),
        "collect_mem" => workloads::collect::run(&mut ctx, false),
        "collect_durable" => workloads::collect::run(&mut ctx, true),
        "serve_point" => workloads::serve::run(&mut ctx, false),
        "serve_scan" => workloads::serve::run(&mut ctx, true),
        "live" => workloads::live::run(&mut ctx),
        other => return Err(format!("unknown workload {other:?}")),
    }
    let Ctx {
        mut report, tracer, ..
    } = ctx;
    if traced {
        let path = proc::target_dir()
            .join("spotlake-bench")
            .join(format!("trace.{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("note {} spans written to {}", tracer.len(), path.display()),
            Err(e) => report.check("trace_written", false, || e.to_string()),
        }
    } else {
        report.set("peak_rss_mb", proc::peak_rss_mb());
    }
    Ok(report.finish(traced))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("spotlake-bench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        suite::compare(a, b)
    } else if let (Some(workload), Some(traced)) = (&args.workload, args.trace) {
        let scale = if args.smoke {
            Scale::smoke()
        } else {
            Scale::full(args.seconds.unwrap_or(RUN_SECONDS))
        };
        run_one(workload, args.seed, scale, traced)
    } else {
        suite::run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("spotlake-bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_invocation_parses() {
        let args = parse("--workload live --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("live"));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (7, Some(10.0), Some(true))
        );
    }

    #[test]
    fn bad_invocations_are_refused() {
        for line in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seconds 600",
            "--seed x",
            "--pass all",
            "--compare only-one",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        assert_eq!(parse("").unwrap().seed, 42);
    }
}
