//! The paper's tables and figures, regenerated from one collected archive.
//!
//! Every experiment in [`EXPERIMENTS`] regenerates one table or figure of
//! the paper (see `DESIGN.md`'s per-experiment index) and reads its inputs
//! from one shared [`Fixtures`] value, which builds each input at most once
//! per process:
//!
//! * the [`ArchiveFixture`] — a full pipeline (cloud + collector + archive)
//!   run for the configured [`Scale`], read by Table 2 and Figures 3–5, 8–10;
//! * the Section 5.4 fulfillment experiment, read by Table 3, Figure 11 and
//!   Table 4;
//! * a two-day warmed cloud, queried by Figures 6 and 7.
//!
//! [`Scale`] is read from five environment variables, so the same run can be
//! a quick smoke test or a paper-scale sweep:
//! `SPOTLAKE_DAYS` (archive length, default 30),
//! `SPOTLAKE_TICK_MINUTES` (collection tick, default 120 — the paper's
//! 10-minute tick over 181 days is reproducible but takes far longer),
//! `SPOTLAKE_STRIDE` (keep every n-th instance type, default 2),
//! `SPOTLAKE_SEED` (default 20220901) and `SPOTLAKE_WARMUP_DAYS` (the
//! fulfillment experiment's advisor warm-up, default 31).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod catalog;
mod fulfillment;
mod sps;

use spotlake::experiment::{ExperimentConfig, ExperimentReport, FulfillmentExperiment};
use spotlake::{CollectorConfig, SimCloud, SimConfig, SpotLake};
use spotlake_analysis::Ecdf;
use spotlake_types::{Catalog, SimDuration};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Scale knobs for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Days of archive to collect.
    pub days: u64,
    /// Collection tick in minutes.
    pub tick_minutes: u64,
    /// Keep every n-th instance type (1 = full catalog).
    pub stride: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Days the fulfillment experiment's cloud runs before the protocol,
    /// to fill the advisor's trailing window.
    pub warmup_days: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            days: 30,
            tick_minutes: 120,
            stride: 2,
            seed: 20_220_901,
            warmup_days: 31,
        }
    }
}

impl Scale {
    /// Reads the scale from the process environment; see [`Scale::parse`].
    ///
    /// # Errors
    ///
    /// As [`Scale::parse`].
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(|key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Reads the five `SPOTLAKE_*` variables through `lookup`. An unset
    /// variable takes its default.
    ///
    /// # Errors
    ///
    /// A set value that is not an unsigned integer, or a zero anywhere but
    /// `SPOTLAKE_SEED`, is an error naming the variable: a silent fallback
    /// would report a scale that did not run.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let read = |key: &str, default: u64, min: u64| match lookup(key) {
            None => Ok(default),
            Some(value) => match value.parse::<u64>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("{key}={value:?} must be an integer >= {min}")),
            },
        };
        let d = Scale::default();
        Ok(Scale {
            days: read("SPOTLAKE_DAYS", d.days, 1)?,
            tick_minutes: read("SPOTLAKE_TICK_MINUTES", d.tick_minutes, 1)?,
            stride: usize::try_from(read("SPOTLAKE_STRIDE", d.stride as u64, 1)?)
                .map_err(|_| "SPOTLAKE_STRIDE does not fit this platform's usize".to_owned())?,
            seed: read("SPOTLAKE_SEED", d.seed, 0)?,
            warmup_days: read("SPOTLAKE_WARMUP_DAYS", d.warmup_days, 1)?,
        })
    }

    /// The collection tick as a duration.
    pub(crate) fn tick(&self) -> SimDuration {
        SimDuration::from_mins(self.tick_minutes)
    }

    /// Prints the standard scale header every scaled experiment emits.
    pub(crate) fn print_header(&self, experiment: &str) {
        println!("== {experiment} ==");
        println!(
            "scale: {} days, {}-minute tick, type stride {}, seed {}",
            self.days, self.tick_minutes, self.stride, self.seed
        );
        println!(
            "(paper scale: 181 days, 10-minute tick, full 547-type catalog; set\n SPOTLAKE_DAYS/SPOTLAKE_TICK_MINUTES/SPOTLAKE_STRIDE to change)"
        );
        println!();
    }
}

/// A fully collected archive at a given scale.
#[derive(Debug)]
pub struct ArchiveFixture {
    /// The pipeline after collection.
    pub lake: SpotLake,
    /// Names of the instance types that were collected (stride-filtered).
    pub types: Vec<String>,
}

impl ArchiveFixture {
    /// Builds the AWS-2022 catalog (restricted by the scale's stride),
    /// runs the collector for the scale's horizon, and returns the
    /// pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline cannot be built (impossible at these
    /// configurations) — experiments prefer a crash over silent
    /// misreporting.
    fn collect(scale: Scale) -> ArchiveFixture {
        let catalog = Catalog::aws_2022();
        let types: Vec<String> = catalog
            .instance_types()
            .iter()
            .step_by(scale.stride)
            .map(|t| t.name())
            .collect();

        let mut sim_config = SimConfig::with_seed(scale.seed);
        sim_config.tick = scale.tick();
        // Place the demand shock inside the window when it is long enough
        // (the paper's dip fell on day 152 of 181).
        sim_config.shock_day = (scale.days >= 20).then_some(scale.days * 5 / 6);

        let collector_config = CollectorConfig {
            type_filter: (scale.stride > 1).then(|| types.clone()),
            ..CollectorConfig::default()
        };
        let mut lake = SpotLake::builder()
            .catalog(catalog)
            .sim_config(sim_config)
            .collector_config(collector_config)
            .build()
            .expect("auto-sized account pool always suffices");

        let rounds = SimDuration::from_days(scale.days).div_duration(scale.tick());
        lake.run_rounds(rounds)
            .expect("collection cannot hit rate limits");
        ArchiveFixture { lake, types }
    }
}

/// The inputs every experiment reads, each built on first use and at most
/// once per process.
#[derive(Debug)]
pub struct Fixtures {
    scale: Scale,
    /// The Section 5.4 experiment's full-catalog cloud and protocol.
    protocol: (SimConfig, ExperimentConfig),
    archive: OnceCell<ArchiveFixture>,
    experiment: OnceCell<ExperimentReport>,
    warm_cloud: OnceCell<SimCloud>,
}

impl Fixtures {
    /// The fixtures at `scale`. The fulfillment experiment always uses a
    /// 10-minute tick (interruptions and latencies need the resolution)
    /// and the paper's protocol, seeded with the scale's seed.
    pub fn new(scale: Scale) -> Fixtures {
        let config = ExperimentConfig {
            seed: scale.seed,
            ..ExperimentConfig::default()
        };
        Fixtures::with_protocol(scale, scale.seed, SimDuration::from_mins(10), config)
    }

    /// The fixtures at a small scale for tests and smoke runs (3 days,
    /// 4-hour tick, every 12th type), with a reduced fulfillment experiment
    /// (hourly tick, 8 warm-up days, 25 cases per stratum, a week of
    /// history) that runs in seconds.
    pub fn smoke() -> Fixtures {
        let scale = Scale {
            days: 3,
            tick_minutes: 240,
            stride: 12,
            seed: 7,
            warmup_days: 8,
        };
        let config = ExperimentConfig {
            cases_per_stratum: 25,
            history: SimDuration::from_days(7),
            record_every: SimDuration::from_hours(6),
            ..ExperimentConfig::default()
        };
        Fixtures::with_protocol(scale, 5, SimDuration::from_hours(1), config)
    }

    fn with_protocol(
        scale: Scale,
        sim_seed: u64,
        tick: SimDuration,
        config: ExperimentConfig,
    ) -> Fixtures {
        let mut sim = SimConfig::with_seed(sim_seed);
        sim.tick = tick;
        sim.shock_day = None; // the experiment window should be shock-free
        Fixtures {
            scale,
            protocol: (sim, config),
            archive: OnceCell::new(),
            experiment: OnceCell::new(),
            warm_cloud: OnceCell::new(),
        }
    }

    /// The scale every experiment runs at.
    pub(crate) fn scale(&self) -> Scale {
        self.scale
    }

    /// The collected archive.
    pub fn archive(&self) -> &ArchiveFixture {
        self.archive
            .get_or_init(|| ArchiveFixture::collect(self.scale))
    }

    /// The completed Section 5.4 fulfillment experiment: a full-catalog
    /// cloud warmed for the scale's warm-up days to fill the advisor's
    /// trailing window, then the paper's protocol (stratified sampling →
    /// history → persistent requests → 24 h observation).
    pub fn experiment(&self) -> &ExperimentReport {
        self.experiment.get_or_init(|| {
            let (sim, config) = &self.protocol;
            let mut cloud = SimCloud::new(Catalog::aws_2022(), sim.clone());
            let warmup = self.scale.warmup_days;
            eprintln!("[experiment] warming up the advisor window: {warmup} days...");
            cloud.run_days(warmup);
            eprintln!("[experiment] recording history and running the protocol...");
            let (report, _) = FulfillmentExperiment::new(config.clone()).run(&mut cloud);
            eprintln!("[experiment] {} cases completed", report.cases.len());
            report
        })
    }

    /// A full-catalog cloud at the scale's seed and tick, run for two days
    /// to move off the deterministic initial state.
    pub(crate) fn warm_cloud(&self) -> &SimCloud {
        self.warm_cloud.get_or_init(|| {
            let mut config = SimConfig::with_seed(self.scale.seed);
            config.tick = self.scale.tick();
            let mut cloud = SimCloud::new(Catalog::aws_2022(), config);
            cloud.run_days(2);
            cloud
        })
    }
}

/// One table or figure: its name and the function that prints it.
pub type Experiment = (&'static str, fn(&Fixtures));

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table01", catalog::table01),
    ("figure01", catalog::figure01),
    ("table02", archive::table02),
    ("figure03", archive::figure03),
    ("figure04", archive::figure04),
    ("figure05", archive::figure05),
    ("figure06", sps::figure06),
    ("figure07", sps::figure07),
    ("figure08", archive::figure08),
    ("figure09", archive::figure09),
    ("figure10", archive::figure10),
    ("table03", fulfillment::table03),
    ("figure11", fulfillment::figure11),
    ("table04", fulfillment::table04),
];

/// The experiments `names` asks for, in the paper's order; no names asks
/// for all of them.
///
/// # Errors
///
/// An unknown name is an error that lists the valid names.
pub fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == n))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment {unknown:?}; valid names: {}",
            valid.join(" ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name))
        .copied()
        .collect())
}

/// Runs `experiments` in order over `fixtures`. A panicking experiment is
/// reported by name and the rest still run. Returns the process exit code:
/// 0 when every experiment completed, 1 otherwise.
pub fn run(experiments: &[Experiment], fixtures: &Fixtures) -> i32 {
    let mut failures = Vec::new();
    for (name, experiment) in experiments {
        println!("\n################################################################");
        println!("# {name}");
        println!("################################################################\n");
        if catch_unwind(AssertUnwindSafe(|| experiment(fixtures))).is_err() {
            eprintln!("!! {name} panicked");
            failures.push(*name);
        }
    }
    println!("\n================================================================");
    if failures.is_empty() {
        println!("all {} experiments completed", experiments.len());
        0
    } else {
        println!("failed experiments: {failures:?}");
        1
    }
}

/// Prints an aligned text table.
pub(crate) fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("  {}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", line.join("  "));
    }
    println!();
}

/// Prints a CDF as quantile rows (the series a plot would draw).
pub(crate) fn print_cdf(name: &str, cdf: &Ecdf) {
    if cdf.is_empty() {
        println!("{name}: (no samples)");
        return;
    }
    let qs = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];
    let cells: Vec<String> = qs
        .iter()
        .map(|&q| format!("p{:02.0}={:.3}", q * 100.0, cdf.quantile(q)))
        .collect();
    println!("{name} (n={}): {}", cdf.len(), cells.join(" "));
}

/// Formats a percentage cell.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{v:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn parse(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(|key| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn scale_env_fallbacks() {
        // Unset variables fall back to the defaults.
        assert_eq!(parse(&[]), Ok(Scale::default()));
    }

    #[test]
    fn scale_env_reads_every_variable() {
        let scale = parse(&[
            ("SPOTLAKE_DAYS", "3"),
            ("SPOTLAKE_TICK_MINUTES", "240"),
            ("SPOTLAKE_STRIDE", "12"),
            ("SPOTLAKE_SEED", "0"),
            ("SPOTLAKE_WARMUP_DAYS", "2"),
        ]);
        let expected = Scale {
            days: 3,
            tick_minutes: 240,
            stride: 12,
            seed: 0,
            warmup_days: 2,
        };
        assert_eq!(scale, Ok(expected));
    }

    #[test]
    fn scale_env_rejects_garbage_naming_the_variable() {
        for key in [
            "SPOTLAKE_DAYS",
            "SPOTLAKE_TICK_MINUTES",
            "SPOTLAKE_STRIDE",
            "SPOTLAKE_SEED",
            "SPOTLAKE_WARMUP_DAYS",
        ] {
            for garbage in ["3d", "", "-1", "1.5"] {
                let err = parse(&[(key, garbage)]).expect_err("garbage must not parse");
                assert!(err.contains(key), "{err:?} does not name {key}");
            }
        }
    }

    #[test]
    fn scale_env_rejects_zero_naming_the_variable() {
        for key in [
            "SPOTLAKE_DAYS",
            "SPOTLAKE_TICK_MINUTES",
            "SPOTLAKE_STRIDE",
            "SPOTLAKE_WARMUP_DAYS",
        ] {
            let err = parse(&[(key, "0")]).expect_err("zero must be rejected");
            assert!(err.contains(key), "{err:?} does not name {key}");
        }
    }

    #[test]
    fn select_finds_names_in_paper_order() {
        let names = |selected: Vec<Experiment>| -> Vec<&str> {
            selected.into_iter().map(|(name, _)| name).collect()
        };
        let all = names(select(&[]).expect("no names selects all"));
        assert_eq!(all.len(), 14);
        assert_eq!(all.first(), Some(&"table01"));
        assert_eq!(all.last(), Some(&"table04"));
        let asked = ["table04".to_owned(), "figure03".to_owned()];
        assert_eq!(
            names(select(&asked).expect("known names")),
            ["figure03", "table04"]
        );
    }

    #[test]
    fn select_rejects_an_unknown_name_listing_the_valid_ones() {
        let err = select(&["table05".to_owned()]).expect_err("unknown name");
        assert!(err.contains("table05"), "{err}");
        for (name, _) in EXPERIMENTS {
            assert!(err.contains(name), "{err} does not list {name}");
        }
    }

    static AFTER_PANIC_RAN: AtomicBool = AtomicBool::new(false);

    #[test]
    fn a_panicking_experiment_does_not_stop_the_rest() {
        fn fine(_: &Fixtures) {}
        fn broken(_: &Fixtures) {
            panic!("deliberate");
        }
        fn after(_: &Fixtures) {
            AFTER_PANIC_RAN.store(true, Ordering::SeqCst);
        }
        let fixtures = Fixtures::smoke();
        assert_eq!(run(&[("fine", fine)], &fixtures), 0);
        let code = run(&[("broken", broken), ("after", after)], &fixtures);
        assert_eq!(code, 1);
        assert!(AFTER_PANIC_RAN.load(Ordering::SeqCst));
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        print_cdf("empty", &Ecdf::new(vec![]));
        print_cdf("one", &Ecdf::new(vec![1.0]));
    }
}
