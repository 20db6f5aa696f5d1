//! The whole benchmark in one command, and the comparison of two of its
//! output files.
//!
//! Each workload and pass runs in a child process re-exec'd from this
//! binary, so every run starts with a cold allocator and its `VmHWM` is its
//! own. The suite echoes each child's lines, keeps its result object and
//! detail line, and writes them with the run's identity (seed, `nproc`, git
//! revision, run lengths) as fixed-precision JSON.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};
use crate::{proc, Args, RUN_SECONDS};
use std::process::{Command, Stdio};

/// Schema tag of the `--out` file.
const SCHEMA: &str = "spotlake-bench/1";

/// The revision the numbers belong to, when the checkout is a git clone.
fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs one workload pass in a child and returns its record for the file.
fn run_child(workload: &str, args: &Args, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::Obj(Vec::new());
    let mut result = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("detail ") {
            detail = Json::parse(rest)?;
        } else if line.starts_with('{') {
            result = Some(Json::parse(line)?);
        } else {
            println!("  {line}");
        }
    }
    let result = result.ok_or_else(|| {
        format!(
            "{workload} (trace {}) printed no result and exited with {}",
            u8::from(traced),
            output.status
        )
    })?;
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let correct =
        output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("seconds", Json::Num(seconds)),
        ("attempted", Json::Num(number("attempted"))),
        ("failed", Json::Num(number("failed"))),
        (
            "failed_share",
            Json::Num(number("failed") / number("attempted").max(1.0)),
        ),
        (
            "metrics",
            result.get("metrics").cloned().unwrap_or(Json::Null),
        ),
        (
            "counts",
            detail.get("counts").cloned().unwrap_or(Json::Null),
        ),
        (
            "failed_checks",
            detail.get("failed_checks").cloned().unwrap_or(Json::Null),
        ),
    ]))
}

/// Runs every selected workload and pass, prints a summary, writes `--out`.
/// Returns whether every run was correct.
pub fn run(args: &Args) -> Result<bool, String> {
    let seconds = if args.smoke {
        crate::workloads::Scale::smoke().seconds
    } else {
        args.seconds.unwrap_or(RUN_SECONDS)
    };
    let passes: &[(&str, bool)] = match args.pass.as_deref() {
        Some("e2e") => &[("e2e", false)],
        Some("traced") => &[("traced", true)],
        _ => &[("e2e", false), ("traced", true)],
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let mut records = Vec::new();
        for &(pass, traced) in passes {
            // Both passes get the same `--seconds`: the traced one sizes
            // itself to take about as long (see `Ctx::split`).
            println!("== {workload} · {pass} pass");
            let record = run_child(workload, args, seconds, traced)?;
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            records.push((pass, record));
        }
        workloads.push((workload, Json::obj(records)));
    }

    println!("== summary (end-to-end pass)");
    for (workload, record) in &workloads {
        let Some(e2e) = record.get("e2e") else {
            continue;
        };
        let line: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                let value = metric(e2e, m.name).unwrap_or(f64::NAN);
                format!("{}={value:.4}{}", m.name, m.unit)
            })
            .collect();
        let verdict = if e2e.get("correct").and_then(Json::as_bool) == Some(true) {
            "correct"
        } else {
            "INCORRECT"
        };
        println!("{workload}: {} [{verdict}]", line.join(" "));
    }

    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("seed", Json::Num(args.seed as f64)),
            ("nproc", Json::Num(proc::nproc() as f64)),
            ("git_revision", Json::str(git_revision())),
            ("seconds", Json::Num(seconds)),
            ("smoke", Json::Bool(args.smoke)),
            ("workloads", Json::obj(workloads)),
        ]);
        std::fs::write(path, doc.render_fixed(6) + "\n")
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path} is not a {SCHEMA} file"));
    }
    Ok(doc)
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares file B against base A: per workload and end-to-end metric, both
/// values, the relative difference with its base, and the bound. Returns
/// false when any pair is outside its bound or any `failed_share` rose.
/// Exact counts that differ are listed: between two runs of one commit and
/// seed that is a determinism bug, between two commits it is information.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_seed = a.get("seed") == b.get("seed");
    println!("base A = {a_path}, B = {b_path}; a positive difference is B worse than A");
    let mut within = true;
    for (workload, _) in WORKLOADS {
        let record = |doc: &Json| doc.get("workloads")?.get(workload)?.get("e2e").cloned();
        let (Some(ra), Some(rb)) = (record(&a), record(&b)) else {
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric(&ra, m.name), metric(&rb, m.name)) else {
                return Err(format!("{workload}: {} missing from a file", m.name));
            };
            let worse = worsening(m.better, va, vb);
            let ok = worse <= m.bound;
            within &= ok;
            println!(
                "{workload:<16} {:<18} A={va:<14.6} B={vb:<14.6} {:+.2}% of A={va:.6} {}  bound {:.0}%  {}",
                m.name,
                worse * 100.0,
                m.unit,
                m.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" },
            );
        }
        let share = |r: &Json| r.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let rose = share(&rb) > share(&ra);
        within &= !rose;
        println!(
            "{workload:<16} {:<18} A={:<14.6} B={:<14.6} {}",
            "failed_share",
            share(&ra),
            share(&rb),
            if rose { "ROSE" } else { "ok" }
        );
        if same_seed {
            for pass in ["e2e", "traced"] {
                let counts = |doc: &Json| {
                    doc.get("workloads")?
                        .get(workload)?
                        .get(pass)?
                        .get("counts")
                        .cloned()
                };
                let (Some(ca), Some(cb)) = (counts(&a), counts(&b)) else {
                    continue;
                };
                for (key, va) in ca.members().iter().filter(|(k, _)| k.starts_with("exact.")) {
                    if cb.get(key) != Some(va) {
                        println!(
                            "{workload:<16} {pass} {key} DIFFERS: A={} B={}",
                            va.render_exact(),
                            cb.get(key)
                                .map_or_else(|| "absent".to_owned(), Json::render_exact)
                        );
                    }
                }
            }
        }
    }
    println!(
        "{}",
        if within {
            "every pair within its bound"
        } else {
            "NOT within bounds"
        }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(
        dir: &std::path::Path,
        name: &str,
        throughput: f64,
        latency: f64,
        failed_share: f64,
    ) -> String {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let value = match m.name {
                "throughput_per_s" => throughput,
                "latency_p50_ms" => latency,
                _ => 1.0,
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }));
        let doc = Json::obj([
            ("schema", Json::str(SCHEMA)),
            ("seed", Json::Num(42.0)),
            (
                "workloads",
                Json::obj([(
                    "collect_mem",
                    Json::obj([(
                        "e2e",
                        Json::obj([
                            ("failed_share", Json::Num(failed_share)),
                            ("metrics", metrics),
                            (
                                "counts",
                                Json::obj([("exact.collect.rounds", Json::Num(90.0))]),
                            ),
                        ]),
                    )]),
                )]),
            ),
        ]);
        let path = dir.join(name);
        std::fs::write(&path, doc.render_fixed(6)).unwrap();
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn compare_applies_each_metrics_direction_and_bound() {
        let scratch = crate::proc::ScratchDir::create().unwrap();
        let dir = scratch.fresh("compare");
        std::fs::create_dir_all(&dir).unwrap();
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (up, lat) = (bound("throughput_per_s"), bound("latency_p50_ms"));
        let base = file(&dir, "a.json", 10.0, 100.0, 0.0);
        // Within: throughput lower and latency higher by half their bounds.
        let near = file(
            &dir,
            "b.json",
            10.0 * (1.0 - up / 2.0),
            100.0 * (1.0 + lat / 2.0),
            0.0,
        );
        assert_eq!(compare(&base, &near), Ok(true));
        // Better in both directions is never a regression.
        let better = file(&dir, "c.json", 20.0, 50.0, 0.0);
        assert_eq!(compare(&base, &better), Ok(true));
        // Throughput lower by more than its bound is outside; so is latency
        // higher by more than its own.
        let slow = file(&dir, "d.json", 10.0 * (1.0 - up * 1.2), 100.0, 0.0);
        assert_eq!(compare(&base, &slow), Ok(false));
        let laggy = file(&dir, "e.json", 10.0, 100.0 * (1.0 + lat * 1.2), 0.0);
        assert_eq!(compare(&base, &laggy), Ok(false));
        // Any rise in failed_share fails, however small.
        let failing = file(&dir, "f.json", 10.0, 100.0, 0.001);
        assert_eq!(compare(&base, &failing), Ok(false));
        assert!(compare(&base, "/nonexistent.json").is_err());
    }
}
