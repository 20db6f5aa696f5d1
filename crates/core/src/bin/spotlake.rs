//! The `spotlake` command-line tool.
//!
//! ```text
//! spotlake plan    [--strategy exact|ffd|bfd|naive]
//! spotlake collect --out FILE [--days N] [--tick-minutes N] [--types a,b,c]
//! spotlake get     --archive FILE PATH
//! spotlake experiment [--cases N] [--warmup-days N] [--history-days N]
//! ```
//!
//! `collect` runs the full pipeline and persists the archive — with
//! `--wal-dir` it commits every round through the write-ahead logs of a
//! dataset × region sharded archive first, so a crash (or `--io-faults
//! crash` injection) loses nothing that was committed; `fsck` checks
//! that archive offline, shard by shard, and reports what recovery
//! would do; `get` serves one gateway request (e.g.
//! `"/query?table=sps&instance_type=m5.large"`) against a saved archive;
//! `query` builds the row request from flags and, with `--explain`,
//! prints the query plan and per-stage cost profile instead of rows;
//! `plan` prints the Figure 1 query-plan numbers; `experiment` runs a
//! scaled-down Section 5.4 experiment and prints Tables 3 and 4;
//! `slo-eval` replays a dumped telemetry time-series through the SLO
//! engine offline and prints the same verdict document `/debug/slo`
//! serves.

use spotlake::experiment::{ExperimentConfig, FulfillmentExperiment};
use spotlake::prediction;
use spotlake::{CollectorConfig, SimCloud, SimConfig, SpotLake};
use spotlake_collector::{AccountPool, FaultPlan, IoFaultPlan, PlannerStrategy, QueryPlanner};
use spotlake_obs::{SloSet, SloTracker, TelemetrySample};
use spotlake_serving::server::{loadgen, ChaosProfile, LoadConfig, LoadMode};
use spotlake_serving::{ArchiveService, HttpRequest, Server, ServerConfig, SharedArchive};
use spotlake_timestream::{Database, ShardKey};
use spotlake_types::{Catalog, SimDuration};
use std::collections::HashMap;
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "spotlake — diverse spot instance dataset archive service (reproduction)

USAGE:
  spotlake plan [--strategy exact|ffd|bfd|naive]
  spotlake collect --out FILE [--days N] [--tick-minutes N] [--types a,b,c] [--seed N]
                   [--faults none|light|moderate|heavy]
                   [--wal-dir DIR] [--checkpoint-every N] [--io-faults none|transient|crash]
                   [--io-fault-shard DATASET/REGION] [--health]
                   [--metrics] [--trace FILE]
  spotlake fsck --wal-dir DIR [--repair]
  spotlake get --archive FILE PATH
  spotlake query --archive FILE --table NAME [--measure M] [--instance-type T]
                 [--region R] [--az Z] [--from N] [--to N] [--limit N] [--explain]
  spotlake experiment [--cases N] [--warmup-days N] [--history-days N] [--seed N]
  spotlake mc [--rounds N]
  spotlake serve --archive FILE [--addr HOST:PORT] [--workers N] [--queue-depth N]
                 [--deadline-ms N] [--read-timeout-ms N] [--write-timeout-ms N]
                 [--telemetry-interval-ms N] [--telemetry-capacity N]
  spotlake loadgen (--addr HOST:PORT | --archive FILE) [--seed N] [--clients N]
                   [--requests N] [--mode closed|open] [--interval-ms N]
                   [--chaos none|light|heavy] [--out FILE]
                   [--telemetry-out FILE] [--telemetry-interval-ms N]
  spotlake slo-eval --telemetry FILE
  spotlake help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one command. `Ok(code)` is the process exit code — nonzero only
/// from `fsck`, whose verdict ladder (0 clean, 1 degraded, 2 corrupt or
/// quarantined) scripts branch on; every other command is 0-or-`Err`.
fn run(args: &[String]) -> Result<u8, String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    let parsed = Args::parse(&args[1..])?;
    if command.as_str() == "fsck" {
        return cmd_fsck(&parsed);
    }
    match command.as_str() {
        "plan" => cmd_plan(&parsed),
        "collect" => cmd_collect(&parsed),
        "get" => cmd_get(&parsed),
        "query" => cmd_query(&parsed),
        "experiment" => cmd_experiment(&parsed),
        "mc" => cmd_mc(&parsed),
        "serve" => cmd_serve(&parsed),
        "loadgen" => cmd_loadgen(&parsed),
        "slo-eval" => cmd_slo_eval(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command: {other}")),
    }
    .map(|()| 0)
}

/// Parsed `--key value` flags plus positional arguments.
struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// Flags that take no value (presence is the value).
const SWITCHES: [&str; 4] = ["metrics", "explain", "repair", "health"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if SWITCHES.contains(&key) {
                    flags.insert(key.to_owned(), "true".to_owned());
                    continue;
                }
                // A value that is itself a flag means this one was given
                // none: taking it would swallow the next flag.
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.insert(key.to_owned(), value.clone());
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} must be an integer, got {v:?}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let strategy = match args.get("strategy").unwrap_or("exact") {
        "exact" => PlannerStrategy::Exact,
        "ffd" => PlannerStrategy::Ffd,
        "bfd" => PlannerStrategy::Bfd,
        "naive" => PlannerStrategy::Naive,
        other => return Err(format!("unknown strategy: {other}")),
    };
    let catalog = Catalog::aws_2022();
    let (plan, stats) = QueryPlanner::new(strategy).plan_with_stats(&catalog, None);
    let all_pairs = catalog.instance_types().len() * catalog.regions().len();
    println!(
        "strategy {:<6} {} queries cover {} (type, region) pairs ({:.2}x fewer than the {} all-pairs scans)",
        strategy.name(),
        stats.planned_queries,
        stats.pairs_covered,
        all_pairs as f64 / stats.planned_queries as f64,
        all_pairs
    );
    println!(
        "accounts needed at 50 unique queries per day: {}",
        AccountPool::required_accounts(plan.len())
    );
    Ok(())
}

fn cmd_collect(args: &Args) -> Result<(), String> {
    let out = args.require("out")?.to_owned();
    let days = args.get_u64("days", 1)?;
    let tick_minutes = args.get_u64("tick-minutes", 30)?;
    if days == 0 || tick_minutes == 0 {
        return Err("--days and --tick-minutes must be at least 1".into());
    }
    let seed = args.get_u64("seed", 20_220_901)?;
    let type_filter: Option<Vec<String>> = args
        .get("types")
        .map(|v| v.split(',').map(str::to_owned).collect());
    let faults = match args.get("faults") {
        None => None,
        Some(profile) => Some(FaultPlan::profile(profile, seed).ok_or_else(|| {
            format!("unknown fault profile: {profile} (expected none, light, moderate, or heavy)")
        })?),
    };
    let wal_dir = args.get("wal-dir").map(std::path::PathBuf::from);
    let checkpoint_every = args.get_u64("checkpoint-every", 8)?;
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let io_faults = match args.get("io-faults") {
        None => None,
        Some(profile) => Some(IoFaultPlan::profile(profile, seed).ok_or_else(|| {
            format!("unknown io-fault profile: {profile} (expected none, transient, or crash)")
        })?),
    };
    if io_faults.is_some() && wal_dir.is_none() {
        return Err("--io-faults needs --wal-dir (disk faults target the write-ahead log)".into());
    }
    let io_fault_shard = match args.get("io-fault-shard") {
        None => None,
        Some(spec) => Some(ShardKey::parse(spec).ok_or_else(|| {
            format!("bad --io-fault-shard {spec:?} (expected DATASET/REGION, e.g. sps/us-east-1)")
        })?),
    };
    if io_fault_shard.is_some() && wal_dir.is_none() {
        return Err("--io-fault-shard needs --wal-dir (shards are on-disk fault domains)".into());
    }

    let sim = SimConfig {
        tick: SimDuration::from_mins(tick_minutes),
        ..SimConfig::with_seed(seed)
    };
    let mut lake = SpotLake::builder()
        .sim_config(sim)
        .collector_config(CollectorConfig {
            type_filter,
            faults,
            wal_dir,
            checkpoint_every,
            io_faults,
            io_fault_shard,
            ..CollectorConfig::default()
        })
        .build()
        .map_err(|e| e.to_string())?;
    if let Some(report) = lake.recovery_report() {
        if report.recovered_anything() {
            eprintln!("{}", report.render());
        }
    }
    let rounds = days * 24 * 60 / tick_minutes;
    eprintln!(
        "collecting {days} simulated day(s) at a {tick_minutes}-minute tick ({rounds} rounds, {} planned queries/round)...",
        lake.plan_stats().planned_queries
    );
    let stats = lake.run_rounds(rounds).map_err(|e| e.to_string())?;
    lake.save_archive(&out).map_err(|e| e.to_string())?;
    // With --metrics, stdout carries the Prometheus document alone (so it
    // pipes straight into a scrape file); the human summary moves to stderr.
    let emit_metrics = args.get("metrics").is_some();
    let say = |line: String| {
        if emit_metrics {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    say(format!(
        "wrote {out}: {} sps, {} advisor, {} price records over {} rounds",
        stats.sps_records, stats.advisor_records, stats.price_records, stats.rounds
    ));
    if faults.is_some() {
        say(format!(
            "resilience: {} retries, {} failed operations, {} degraded rounds, {} dead-lettered queries ({} still queued)",
            stats.retries,
            stats.queries_failed,
            stats.degraded_rounds,
            stats.dead_lettered,
            lake.collector().dead_letter_depth()
        ));
    }
    if let Some(wal) = lake.collector().wal_stats() {
        say(format!(
            "durability: {} WAL frames appended ({} bytes), {} checkpoints, log now {} bytes",
            wal.frames_appended, wal.bytes_appended, wal.checkpoints, wal.wal_bytes
        ));
    }
    if let Some(h) = lake.collector().shard_health() {
        let impaired: Vec<String> = h
            .impaired()
            .map(|r| format!("{}/{} {}", r.dataset, r.region, r.state.as_str()))
            .collect();
        say(format!(
            "shards: {}/{} healthy{}",
            h.healthy(),
            h.total(),
            if impaired.is_empty() {
                String::new()
            } else {
                format!("; impaired: {}", impaired.join(", "))
            }
        ));
    }
    if emit_metrics {
        print!("{}", lake.metrics_text());
    }
    // With --health, stdout (additionally) carries the `/health` JSON
    // body — what the shard-loss drill greps for `degraded`.
    if args.get("health").is_some() {
        let response = lake.http_get("/health").map_err(|e| e.to_string())?;
        println!("{}", response.body_text());
    }
    if let Some(trace) = args.get("trace") {
        std::fs::write(trace, lake.trace_text())
            .map_err(|e| format!("cannot write trace {trace}: {e}"))?;
        eprintln!("wrote trace journal to {trace}");
    }
    Ok(())
}

/// `fsck`: offline integrity check of a durable archive directory: a
/// per-shard verdict table and the 0/1/2 exit ladder (clean / degraded /
/// corrupt-or-quarantined). `--repair` truncates every shard to its
/// committed prefix and clears quarantine markers, re-admitting the
/// shard on the next `collect --wal-dir`.
fn cmd_fsck(args: &Args) -> Result<u8, String> {
    let dir = std::path::PathBuf::from(args.require("wal-dir")?);
    if !dir.is_dir() {
        return Err(format!("no archive directory at {}", dir.display()));
    }
    let report = if args.get("repair").is_some() {
        spotlake_timestream::repair_shards(&dir)
    } else {
        spotlake_timestream::fsck_shards(&dir)
    }
    .map_err(|e| e.to_string())?;
    println!("{}", report.render());
    Ok(report.exit_code())
}

fn cmd_get(args: &Args) -> Result<(), String> {
    let archive = args.require("archive")?;
    let path = args
        .positional
        .first()
        .ok_or("missing request path, e.g. \"/query?table=sps\"")?;
    let db = Database::load(archive).map_err(|e| e.to_string())?;
    let request = HttpRequest::get(path).map_err(|e| e.to_string())?;
    let response = ArchiveService::handle(&db, &request);
    eprintln!("HTTP {} ({})", response.status, response.content_type);
    println!("{}", response.body_text());
    if response.status >= 400 {
        return Err(format!("request failed with status {}", response.status));
    }
    Ok(())
}

/// `query`: builds the `/query` request from flags — no hand-assembled
/// query strings — and serves it against a saved archive. With
/// `--explain`, the response is the executed plan plus the per-stage cost
/// profile instead of rows.
fn cmd_query(args: &Args) -> Result<(), String> {
    let archive = args.require("archive")?;
    let table = args.require("table")?;
    let mut path = format!("/query?table={table}");
    for (flag, param) in [
        ("measure", "measure"),
        ("instance-type", "instance_type"),
        ("region", "region"),
        ("az", "az"),
        ("from", "from"),
        ("to", "to"),
        ("limit", "limit"),
    ] {
        if let Some(v) = args.get(flag) {
            path.push_str(&format!("&{param}={v}"));
        }
    }
    if args.get("explain").is_some() {
        path.push_str("&explain=1");
    }
    let db = Database::load(archive).map_err(|e| e.to_string())?;
    let request = HttpRequest::get(&path).map_err(|e| e.to_string())?;
    let response = ArchiveService::handle(&db, &request);
    eprintln!("GET {path} -> HTTP {}", response.status);
    println!("{}", response.body_text());
    if response.status >= 400 {
        return Err(format!("request failed with status {}", response.status));
    }
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    let cases = args.get_u64("cases", 30)? as usize;
    let warmup = args.get_u64("warmup-days", 10)?;
    let history = args.get_u64("history-days", 8)?;
    let seed = args.get_u64("seed", 0x5107_1a3e)?;

    let sim = SimConfig {
        tick: SimDuration::from_mins(20),
        shock_day: None,
        ..SimConfig::with_seed(seed)
    };
    let mut cloud = SimCloud::new(Catalog::aws_2022(), sim);
    eprintln!("warming up the advisor window ({warmup} simulated days)...");
    cloud.run_days(warmup);
    eprintln!("recording history and running the 24h experiment...");
    let (report, _) = FulfillmentExperiment::new(ExperimentConfig {
        cases_per_stratum: cases,
        history: SimDuration::from_days(history),
        seed,
        ..ExperimentConfig::default()
    })
    .run(&mut cloud);

    println!("Table 3 ({} cases):", report.cases.len());
    for row in report.table3() {
        println!(
            "  {}  n={:<4} not-fulfilled {:>6.2}%  interrupted {:>6.2}%",
            row.stratum.label(),
            row.cases,
            row.not_fulfilled_pct,
            row.interrupted_pct
        );
    }
    if report.cases.len() >= 10 {
        println!("\nTable 4:");
        for row in prediction::evaluate(&report.cases, seed).rows {
            println!(
                "  {:<10} accuracy {:.2}  F1 {:.2}",
                row.method, row.accuracy, row.f1
            );
        }
    }
    Ok(())
}

/// Builds a [`ServerConfig`] from the shared serving flags.
fn server_config_from(args: &Args) -> Result<ServerConfig, String> {
    let defaults = ServerConfig::default();
    let workers = args.get_u64("workers", defaults.workers as u64)? as usize;
    let queue_depth = args.get_u64("queue-depth", defaults.queue_depth as u64)? as usize;
    if workers == 0 || queue_depth == 0 {
        return Err("--workers and --queue-depth must be at least 1".into());
    }
    // 0 (the default) leaves the telemetry sampler off.
    let telemetry_ms = args.get_u64("telemetry-interval-ms", 0)?;
    Ok(ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers,
        queue_depth,
        deadline: Duration::from_millis(
            args.get_u64("deadline-ms", defaults.deadline.as_millis() as u64)?,
        ),
        read_timeout: Duration::from_millis(
            args.get_u64("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?,
        ),
        write_timeout: Duration::from_millis(args.get_u64(
            "write-timeout-ms",
            defaults.write_timeout.as_millis() as u64,
        )?),
        telemetry_interval: (telemetry_ms > 0).then(|| Duration::from_millis(telemetry_ms)),
        telemetry_capacity: args
            .get_u64("telemetry-capacity", defaults.telemetry_capacity as u64)?
            .max(1) as usize,
        ..defaults
    })
}

/// `serve`: load a saved archive and serve it over real TCP until stdin
/// reaches EOF, then drain gracefully and report what happened.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let archive = args.require("archive")?;
    let db = Database::load(archive).map_err(|e| e.to_string())?;
    let config = server_config_from(args)?;
    let handle = Server::start(SharedArchive::new(db), config).map_err(|e| e.to_string())?;
    // The address goes to stdout alone so scripts can capture it.
    println!("{}", handle.addr());
    eprintln!(
        "serving {archive} on {} — send EOF (ctrl-d) to stop",
        handle.addr()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let report = handle.shutdown();
    let t = report.totals;
    eprintln!(
        "drained: {} accepted, {} served, {} shed, {} deadline-exceeded, {} bad requests, {} slow clients closed, {} worker panics",
        t.accepted, t.served, t.shed, t.deadline_exceeded, t.bad_requests, t.slow_clients_closed, t.worker_panics
    );
    Ok(())
}

/// `loadgen`: drive a server (an external one via `--addr`, or a
/// self-served archive via `--archive`) with the seeded load/chaos plan
/// and write the `BENCH_serving.json` scoreboard.
fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let chaos = match args.get("chaos").unwrap_or("none") {
        "none" => ChaosProfile::None,
        "light" => ChaosProfile::Light,
        "heavy" => ChaosProfile::Heavy,
        other => return Err(format!("unknown chaos profile: {other}")),
    };
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => LoadMode::Closed,
        "open" => LoadMode::Open {
            interval: Duration::from_millis(args.get_u64("interval-ms", 10)?.max(1)),
        },
        other => return Err(format!("unknown mode: {other} (expected closed or open)")),
    };
    let load = LoadConfig {
        seed: args.get_u64("seed", 7)?,
        clients: args.get_u64("clients", 4)?.max(1) as usize,
        requests_per_client: args.get_u64("requests", 50)?.max(1) as usize,
        mode,
        chaos,
        ..LoadConfig::default()
    };
    let out = args.get("out").unwrap_or("BENCH_serving.json").to_owned();
    let telemetry_out = args.get("telemetry-out").map(str::to_owned);

    let (report, server_report, telemetry_jsonl) = match (args.get("addr"), args.get("archive")) {
        (Some(addr), _) => {
            let addr: SocketAddr = addr
                .parse()
                .map_err(|e| format!("bad --addr {addr:?}: {e}"))?;
            let report = loadgen::run(addr, &load);
            // An external server keeps its own ring buffer; pull it over
            // the wire when the caller wants the artifact.
            let telemetry = match &telemetry_out {
                Some(_) => match loadgen::fetch(addr, "/debug/telemetry", load.io_timeout) {
                    Ok((200, body)) => Some(body),
                    Ok((status, _)) => {
                        return Err(format!(
                            "--telemetry-out: server answered {status} for /debug/telemetry \
                             (was it started with --telemetry-interval-ms?)"
                        ))
                    }
                    Err(e) => return Err(format!("--telemetry-out: {e}")),
                },
                None => None,
            };
            (report, None, telemetry)
        }
        (None, Some(archive)) => {
            let db = Database::load(archive).map_err(|e| e.to_string())?;
            let mut config = server_config_from(args)?;
            // Asking for the telemetry artifact implies sampling.
            if telemetry_out.is_some() && config.telemetry_interval.is_none() {
                config.telemetry_interval = Some(Duration::from_millis(50));
            }
            let sampling = config.telemetry_interval.is_some();
            let handle =
                Server::start(SharedArchive::new(db), config).map_err(|e| e.to_string())?;
            eprintln!("self-serving {archive} on {}", handle.addr());
            let report = loadgen::run(handle.addr(), &load);
            if sampling {
                probe_slo_exemplars(handle.addr(), load.io_timeout)?;
            }
            let server = handle.shutdown();
            let telemetry = server.telemetry_jsonl.clone();
            (report, Some(server), telemetry)
        }
        (None, None) => return Err("loadgen needs --addr HOST:PORT or --archive FILE".into()),
    };

    // The SLO verdict must be a pure function of the telemetry stream:
    // replaying the dumped series offline has to reproduce the live
    // report byte for byte (exemplars excepted — those join the request
    // ring, which telemetry does not carry).
    if let (Some(server), Some(jsonl)) = (&server_report, &telemetry_jsonl) {
        if let Some(live) = &server.slo {
            let mut tracker = SloTracker::new(SloSet::serving_defaults());
            for sample in &TelemetrySample::parse_jsonl(jsonl)? {
                tracker.observe(sample);
            }
            let offline = tracker.report();
            if offline.samples == live.samples {
                let mut live = live.clone();
                for objective in &mut live.objectives {
                    objective.exemplar_request_ids.clear();
                }
                if live.render_json() != offline.render_json() {
                    return Err("slo offline replay disagrees with the live report".into());
                }
                eprintln!(
                    "slo offline replay agrees with the live report ({} samples)",
                    offline.samples
                );
            } else {
                // The ring evicted early samples, so the replay starts
                // mid-stream and counter deltas cannot line up.
                eprintln!(
                    "slo offline replay skipped: ring holds {} of {} samples",
                    offline.samples, live.samples
                );
            }
        }
    }

    let totals = server_report.as_ref().map(|r| r.totals);
    let phases = server_report
        .as_ref()
        .map(|r| r.phases.as_slice())
        .unwrap_or(&[]);
    let slo = server_report.as_ref().and_then(|r| r.slo.as_ref());
    let json = report.to_json(totals.as_ref(), phases, slo);
    std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    if let Some(path) = &telemetry_out {
        let jsonl = telemetry_jsonl
            .ok_or_else(|| "--telemetry-out: the run produced no telemetry".to_owned())?;
        std::fs::write(path, jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("telemetry time-series -> {path}");
    }
    eprintln!(
        "loadgen seed {}: {}/{} completed, {} io errors, p50 {:.0}us p90 {:.0}us p99 {:.0}us, {:.0} rps -> {out}",
        report.seed,
        report.completed,
        report.planned,
        report.io_errors,
        report.p50_micros,
        report.p90_micros,
        report.p99_micros,
        report.throughput_rps
    );
    println!("{json}");
    if let Some(totals) = totals {
        if totals.worker_panics > 0 {
            return Err(format!(
                "{} handler panic(s) surfaced as 500s during the run",
                totals.worker_panics
            ));
        }
    }
    Ok(())
}

/// Fetches `/debug/slo` from a live server and checks that every
/// exemplar request id the verdict cites resolves to a record at
/// `/debug/requests` — the join an operator would follow by hand.
fn probe_slo_exemplars(addr: SocketAddr, timeout: Duration) -> Result<(), String> {
    let (status, slo_body) = loadgen::fetch(addr, "/debug/slo", timeout)
        .map_err(|e| format!("/debug/slo probe: {e}"))?;
    if status != 200 {
        return Err(format!(
            "/debug/slo answered {status} with telemetry sampling on"
        ));
    }
    let ids = exemplar_ids(&slo_body);
    if ids.is_empty() {
        eprintln!("slo probe: no exemplars cited (every objective within budget)");
        return Ok(());
    }
    let (status, requests_body) = loadgen::fetch(addr, "/debug/requests", timeout)
        .map_err(|e| format!("/debug/requests probe: {e}"))?;
    if status != 200 {
        return Err(format!("/debug/requests answered {status}"));
    }
    for id in &ids {
        if !requests_body.contains(&format!("\"request_id\":{id},")) {
            return Err(format!(
                "exemplar request {id} cited by /debug/slo is missing from /debug/requests"
            ));
        }
    }
    eprintln!(
        "slo probe: {} exemplar id(s) resolved at /debug/requests",
        ids.len()
    );
    Ok(())
}

/// Pulls every id out of the `"exemplar_request_ids":[...]` arrays of a
/// `/debug/slo` body.
fn exemplar_ids(slo_body: &str) -> Vec<u64> {
    let needle = "\"exemplar_request_ids\":[";
    let mut ids = Vec::new();
    let mut rest = slo_body;
    while let Some(pos) = rest.find(needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find(']').unwrap_or(0);
        for part in rest[..end].split(',') {
            if let Ok(id) = part.trim().parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `slo-eval`: replay a dumped telemetry time-series (the JSONL that
/// `loadgen --telemetry-out` or `/debug/telemetry` produces) through
/// the SLO engine offline and print the verdict document. The replay
/// is deterministic — the same input always yields byte-identical
/// output — and matches the server's live `/debug/slo` except for
/// exemplars, which only the live request ring can supply.
fn cmd_slo_eval(args: &Args) -> Result<(), String> {
    let path = args.require("telemetry")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let samples = TelemetrySample::parse_jsonl(&text)?;
    let mut tracker = SloTracker::new(SloSet::serving_defaults());
    for sample in &samples {
        tracker.observe(sample);
    }
    let report = tracker.report();
    eprintln!(
        "replayed {} sample(s): verdict {} (worst state {})",
        report.samples,
        if report.healthy {
            "healthy"
        } else {
            "unhealthy"
        },
        report.worst_state().as_str()
    );
    println!("{}", report.render_json());
    Ok(())
}

/// The Section 7 multi-vendor comparison, as a command.
fn cmd_mc(args: &Args) -> Result<(), String> {
    let rounds = args.get_u64("rounds", 12)?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let mut collector =
        spotlake_multicloud::MultiCloudCollector::demo_scale().map_err(|e| e.to_string())?;
    eprintln!("collecting {rounds} rounds from 3 vendors on a shared clock...");
    let totals = collector.run_rounds(rounds).map_err(|e| e.to_string())?;
    for s in &totals {
        println!(
            "{:<6} price {:>6}  availability {:>6}  eviction {:>6}",
            s.vendor.tag(),
            s.price_records,
            s.availability_records,
            s.eviction_records
        );
    }
    let report = collector.compare_vendors().map_err(|e| e.to_string())?;
    println!(
        "
cross-vendor rows on shapes offered by 2+ vendors:"
    );
    let contested = report.contested_shapes();
    for row in report.rows.iter().filter(|r| contested.contains(&r.shape)) {
        println!(
            "  {:<6} {:<14} savings {:>5.1}%  availability {}",
            row.vendor.tag(),
            row.shape,
            row.mean_savings_pct,
            row.mean_availability
                .map_or("n/a".to_owned(), |v| format!("{v:.2}")),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_obs::names;

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_and_positionals() {
        let args = Args::parse(&strings(&["--out", "a.db", "--days", "2", "/query"])).unwrap();
        assert_eq!(args.get("out"), Some("a.db"));
        assert_eq!(args.get_u64("days", 1).unwrap(), 2);
        assert_eq!(args.get_u64("tick-minutes", 30).unwrap(), 30);
        assert_eq!(args.positional, vec!["/query"]);
        assert!(args.require("missing").is_err());
    }

    #[test]
    fn parse_switches_take_no_value() {
        // `--metrics` is a switch: the following flag is not swallowed.
        let args = Args::parse(&strings(&["--metrics", "--days", "2"])).unwrap();
        assert_eq!(args.get("metrics"), Some("true"));
        assert_eq!(args.get_u64("days", 1).unwrap(), 2);
        // And it can end the argument list.
        let args = Args::parse(&strings(&["--out", "a.db", "--metrics"])).unwrap();
        assert_eq!(args.get("metrics"), Some("true"));
    }

    #[test]
    fn parse_never_takes_a_flag_as_a_value() {
        // `--wal-dir` was given no value: the switch after it must not
        // become the directory and vanish as a flag.
        let err = Args::parse(&strings(&["--wal-dir", "--health"]))
            .err()
            .expect("a flag is not a value");
        assert_eq!(err, "flag --wal-dir needs a value");
        // A retired switch is now a value-taking flag and fails the same way.
        assert!(Args::parse(&strings(&["--shards", "--health"])).is_err());
        // Values that merely start with one dash still parse.
        let args = Args::parse(&strings(&["--from", "-5", "--health"])).unwrap();
        assert_eq!(args.get("from"), Some("-5"));
        assert_eq!(args.get("health"), Some("true"));
    }

    #[test]
    fn parse_rejects_dangling_flag_and_bad_numbers() {
        assert!(Args::parse(&strings(&["--out"])).is_err());
        let args = Args::parse(&strings(&["--days", "two"])).unwrap();
        assert!(args.get_u64("days", 1).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&strings(&[])).is_err());
        assert!(run(&strings(&["help"])).is_ok());
    }

    #[test]
    fn collect_rejects_zero_tick() {
        assert!(run(&strings(&[
            "collect",
            "--out",
            "x.db",
            "--tick-minutes",
            "0"
        ]))
        .is_err());
        assert!(run(&strings(&["collect", "--out", "x.db", "--days", "0"])).is_err());
    }

    #[test]
    fn collect_validates_fault_profile() {
        assert!(run(&strings(&[
            "collect",
            "--out",
            "x.db",
            "--faults",
            "apocalyptic"
        ]))
        .is_err());
        let mut out = std::env::temp_dir();
        out.push(format!("spotlake-cli-faults-{}.db", std::process::id()));
        let out_str = out.to_string_lossy().into_owned();
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
            "--faults",
            "moderate",
        ]))
        .unwrap();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn collect_accepts_metrics_switch_and_writes_trace() {
        let pid = std::process::id();
        let mut out = std::env::temp_dir();
        out.push(format!("spotlake-cli-obs-{pid}.db"));
        let mut trace = std::env::temp_dir();
        trace.push(format!("spotlake-cli-obs-{pid}.jsonl"));
        let out_str = out.to_string_lossy().into_owned();
        let trace_str = trace.to_string_lossy().into_owned();
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
            "--faults",
            "moderate",
            "--metrics",
            "--trace",
            &trace_str,
        ]))
        .unwrap();
        let journal = std::fs::read_to_string(&trace).unwrap();
        assert!(
            journal
                .lines()
                .any(|l| l.contains("\"kind\":\"span\"") && l.contains("\"name\":\"round\"")),
            "trace journal records round spans: {journal}"
        );
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn collect_with_wal_dir_is_durable_and_fsck_is_clean() {
        let pid = std::process::id();
        let mut out = std::env::temp_dir();
        out.push(format!("spotlake-cli-wal-{pid}.db"));
        let mut wal = std::env::temp_dir();
        wal.push(format!("spotlake-cli-wal-{pid}"));
        std::fs::remove_dir_all(&wal).ok();
        let out_str = out.to_string_lossy().into_owned();
        let wal_str = wal.to_string_lossy().into_owned();
        // io-faults without a wal-dir is a config error.
        assert!(run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--io-faults",
            "crash"
        ]))
        .is_err());
        assert!(run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--wal-dir",
            &wal_str,
            "--io-faults",
            "catastrophic"
        ]))
        .is_err());
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
            "--wal-dir",
            &wal_str,
            "--checkpoint-every",
            "2",
        ]))
        .unwrap();
        // Every shard passes fsck and a second collect recovers them.
        assert_eq!(run(&strings(&["fsck", "--wal-dir", &wal_str])), Ok(0));
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
            "--wal-dir",
            &wal_str,
        ]))
        .unwrap();
        assert!(run(&strings(&["fsck"])).is_err(), "fsck requires --wal-dir");
        // So does a single-shard fault drill.
        assert!(run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--io-fault-shard",
            "sps/us-east-1"
        ]))
        .is_err());
        std::fs::remove_file(&out).ok();
        std::fs::remove_dir_all(&wal).ok();
    }

    #[test]
    fn loadgen_self_serves_an_archive_and_writes_the_bench_file() {
        let pid = std::process::id();
        let mut out = std::env::temp_dir();
        out.push(format!("spotlake-cli-loadgen-{pid}.db"));
        let mut bench = std::env::temp_dir();
        bench.push(format!("spotlake-cli-loadgen-{pid}.json"));
        let mut telemetry = std::env::temp_dir();
        telemetry.push(format!("spotlake-cli-loadgen-{pid}.jsonl"));
        let out_str = out.to_string_lossy().into_owned();
        let bench_str = bench.to_string_lossy().into_owned();
        let telemetry_str = telemetry.to_string_lossy().into_owned();
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
        ]))
        .unwrap();
        run(&strings(&[
            "loadgen",
            "--archive",
            &out_str,
            "--clients",
            "2",
            "--requests",
            "8",
            "--seed",
            "11",
            "--out",
            &bench_str,
            "--telemetry-out",
            &telemetry_str,
            "--telemetry-interval-ms",
            "5",
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&bench).unwrap();
        assert!(json.contains("\"bench\":\"serving\""), "{json}");
        assert!(json.contains("\"version\":3"), "{json}");
        assert!(json.contains("\"planned\":16"), "{json}");
        assert!(json.contains("\"worker_panics\":0"), "{json}");
        assert!(json.contains("\"queue_wait_p99\":"), "{json}");
        // Sampling was on, so the scoreboard carries the SLO verdict.
        assert!(json.contains("\"slo\":{"), "{json}");
        assert!(json.contains("\"name\":\"availability\""), "{json}");
        assert!(json.contains("\"budget_remaining\":"), "{json}");
        // The telemetry artifact is JSONL with registry samples.
        let jsonl = std::fs::read_to_string(&telemetry).unwrap();
        let first = jsonl.lines().next().unwrap_or_default();
        assert!(first.starts_with("{\"seq\":0,"), "{first}");
        assert!(jsonl.contains(names::SERVER_REQUESTS_TOTAL.name), "{jsonl}");
        // The offline evaluator replays that artifact; its verdict
        // document opens with the SLO schema header.
        run(&strings(&["slo-eval", "--telemetry", &telemetry_str])).unwrap();
        assert!(run(&strings(&["slo-eval"])).is_err());
        assert!(run(&strings(&[
            "slo-eval",
            "--telemetry",
            "/nonexistent/telemetry.jsonl"
        ]))
        .is_err());
        // Bad knobs are rejected before any socket work.
        assert!(run(&strings(&["loadgen", "--chaos", "cosmic"])).is_err());
        assert!(run(&strings(&["loadgen", "--mode", "sideways"])).is_err());
        assert!(run(&strings(&["loadgen"])).is_err());
        assert!(run(&strings(&["loadgen", "--addr", "not-an-address",])).is_err());
        std::fs::remove_file(&out).ok();
        std::fs::remove_file(&bench).ok();
        std::fs::remove_file(&telemetry).ok();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        assert!(run(&strings(&[
            "serve",
            "--archive",
            "nonexistent.db",
            "--workers",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn plan_command_runs() {
        run(&strings(&["plan", "--strategy", "ffd"])).unwrap();
        assert!(run(&strings(&["plan", "--strategy", "quantum"])).is_err());
    }

    #[test]
    fn mc_command_runs_and_validates() {
        assert!(run(&strings(&["mc", "--rounds", "0"])).is_err());
        run(&strings(&["mc", "--rounds", "1"])).unwrap();
    }

    #[test]
    fn collect_and_get_roundtrip() {
        let mut out = std::env::temp_dir();
        out.push(format!("spotlake-cli-{}.db", std::process::id()));
        let out_str = out.to_string_lossy().into_owned();
        run(&strings(&[
            "collect",
            "--out",
            &out_str,
            "--days",
            "1",
            "--tick-minutes",
            "240",
            "--types",
            "m5.large",
        ]))
        .unwrap();
        run(&strings(&[
            "get",
            "--archive",
            &out_str,
            "/query?table=sps&instance_type=m5.large&limit=3",
        ]))
        .unwrap();
        // A failing request propagates as an error.
        assert!(run(&strings(&[
            "get",
            "--archive",
            &out_str,
            "/query?table=zzz"
        ]))
        .is_err());
        // The query subcommand builds the same request from flags, with
        // and without --explain.
        run(&strings(&[
            "query",
            "--archive",
            &out_str,
            "--table",
            "sps",
            "--instance-type",
            "m5.large",
            "--limit",
            "3",
        ]))
        .unwrap();
        run(&strings(&[
            "query",
            "--archive",
            &out_str,
            "--table",
            "sps",
            "--instance-type",
            "m5.large",
            "--explain",
        ]))
        .unwrap();
        assert!(run(&strings(&["query", "--archive", &out_str])).is_err());
        std::fs::remove_file(&out).ok();
    }
}
