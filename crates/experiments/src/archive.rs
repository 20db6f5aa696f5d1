//! The archive-driven experiments: Table 2 and Figures 3–5, 8–10 read the
//! one collected archive.

use crate::{fmt_pct, print_cdf, print_table, ArchiveFixture, Fixtures, Scale};
use spotlake_analysis::{
    align_step, pearson, resample_step, update_intervals, Ecdf, Heatmap, Histogram,
};
use spotlake_timestream::{Aggregate, Query, WindowRow};
use spotlake_types::{Catalog, InstanceFamily, InstanceGroup, InstanceSize};
use std::collections::BTreeMap;

/// A dataset's table and measure in the archive.
type Dataset = (&'static str, &'static str);
const SPS: Dataset = ("sps", "sps");
const IF: Dataset = ("advisor", "if_score");
const PRICE: Dataset = ("price", "spot_price");

impl ArchiveFixture {
    /// `dataset`'s points that match every `(dimension, value)` filter, as
    /// `(time, value)` pairs.
    fn series(&self, (table, measure): Dataset, filters: &[(&str, &str)]) -> Vec<(u64, f64)> {
        let rows = self.lake.archive().query(table, &query(measure, filters));
        let rows = rows.expect("the collector creates every dataset's table");
        rows.iter().map(|r| (r.time, r.value)).collect()
    }

    /// `dataset`'s mean over tumbling windows of `width` seconds.
    fn means(
        &self,
        (table, measure): Dataset,
        filters: &[(&str, &str)],
        width: u64,
    ) -> Vec<WindowRow> {
        let db = self.lake.archive();
        db.query_window(table, &query(measure, filters), width, Aggregate::Mean)
            .expect("the collector creates every dataset's table")
    }
}

fn query(measure: &str, filters: &[(&str, &str)]) -> Query {
    filters
        .iter()
        .fold(Query::measure(measure), |q, &(dimension, value)| {
            q.filter(dimension, value)
        })
}

/// The collection ticks of the scale's horizon, in seconds.
fn tick_grid(scale: Scale) -> Vec<u64> {
    let tick = scale.tick().as_secs();
    (1..=scale.days * 86_400 / tick).map(|i| i * tick).collect()
}

/// The upper-cased family prefix of a collected type: its heatmap row.
fn class_of(catalog: &Catalog, ty: &str) -> String {
    let ty = catalog
        .instance_type(ty)
        .expect("collected types are cataloged");
    ty.family().prefix().to_uppercase()
}

/// A placement-score and an interruption-free heatmap, each with one row per
/// instance class in the paper's family order and the given columns.
fn class_heatmaps(cols: &[String]) -> (Heatmap, Heatmap) {
    let rows: Vec<String> = InstanceFamily::ALL
        .iter()
        .map(|f| f.prefix().to_uppercase())
        .collect();
    let heatmap = || {
        let mut map = Heatmap::new();
        map.declare_rows(rows.iter().cloned());
        map.declare_cols(cols.iter().cloned());
        map
    };
    (heatmap(), heatmap())
}

/// Hours between a series' value changes.
fn update_hours(series: &[(u64, f64)]) -> impl Iterator<Item = f64> {
    update_intervals(series)
        .into_iter()
        .map(|s| s as f64 / 3600.0)
}

/// Table 2: value distribution of the spot placement score and the
/// interruption-free score.
///
/// Paper reference (181 days, 10-minute samples):
///
/// | value | placement score | interruption-free score |
/// |-------|-----------------|-------------------------|
/// | 3.0   | 87.88%          | 33.05%                  |
/// | 2.5   | NA              | 25.92%                  |
/// | 2.0   | 3.81%           | 13.86%                  |
/// | 1.5   | NA              | 6.33%                   |
/// | 1.0   | 8.31%           | 20.84%                  |
pub(crate) fn table02(fx: &Fixtures) {
    let scale = fx.scale();
    scale.print_header("Table 2: score value distributions");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    // Placement score: stored densely, one record per (pool, tick).
    let mut sps_hist = Histogram::score_bins();
    for ty in &fixture.types {
        let series = fixture.series(SPS, &[("instance_type", ty)]);
        sps_hist.extend(series.iter().map(|&(_, v)| v));
    }

    // Interruption-free score: stored as change events, so expand each
    // (type, region) series back onto the collection tick grid to recover
    // the time-share the paper reports.
    let grid = tick_grid(scale);
    let mut if_hist = Histogram::score_bins();
    for ty in &fixture.types {
        for region in catalog.regions() {
            let series = fixture.series(IF, &[("instance_type", ty), ("region", region.code())]);
            if series.is_empty() {
                continue;
            }
            if_hist.extend(resample_step(&series, &grid));
        }
    }

    let paper_sps = [8.31, f64::NAN, 3.81, f64::NAN, 87.88];
    let paper_if = [20.84, 6.33, 13.86, 25.92, 33.05];
    let sps_shares = sps_hist.shares();
    let if_shares = if_hist.shares();
    let mut rows = Vec::new();
    for (i, &center) in sps_hist.centers().iter().enumerate().rev() {
        let sps_cell = if paper_sps[i].is_nan() {
            ("NA".to_owned(), "NA".to_owned())
        } else {
            (fmt_pct(sps_shares[i]), fmt_pct(paper_sps[i]))
        };
        rows.push(vec![
            format!("{center:.1}"),
            sps_cell.0,
            sps_cell.1,
            fmt_pct(if_shares[i]),
            fmt_pct(paper_if[i]),
        ]);
    }
    print_table(
        "Table 2: score value distribution (measured vs paper)",
        &["value", "SPS", "SPS paper", "IF", "IF paper"],
        &rows,
    );
    println!(
        "samples: {} placement-score, {} interruption-free",
        sps_hist.total(),
        if_hist.total()
    );
}

/// Figure 3: temporal variation of the spot placement score (3a) and the
/// interruption-free score (3b).
///
/// One row per instance class (in the paper's family order), one column per
/// day: daily mean score. The paper's headline observations: the placement
/// score is much brighter (higher) than the interruption-free score
/// (fleet averages 2.8 vs 2.22); the accelerated-computing family is
/// darkest; a fleet-wide dip appears around day 152 (June 2, 2022) in the
/// placement score.
pub(crate) fn figure03(fx: &Fixtures) {
    let scale = fx.scale();
    scale.print_header("Figure 3: temporal variation of spot instance scores");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    let day_cols: Vec<String> = (0..scale.days).map(|d| format!("d{d:02}")).collect();
    let (mut sps_map, mut if_map) = class_heatmaps(&day_cols);
    let day_grid = tick_grid(scale);

    for ty_name in &fixture.types {
        let family = class_of(catalog, ty_name);

        // Daily mean placement score across this type's pools, from the
        // archive's windowed aggregation.
        for w in fixture.means(SPS, &[("instance_type", ty_name)], 86_400) {
            let day = w.window_start / 86_400;
            sps_map.add(&family, &format!("d{day:02}"), w.value);
        }

        // Interruption-free score: expand change events onto the tick grid
        // per region, then fold into daily means.
        for region in catalog.regions() {
            let series =
                fixture.series(IF, &[("instance_type", ty_name), ("region", region.code())]);
            if series.is_empty() {
                continue;
            }
            let values = resample_step(&series, &day_grid);
            let offset = day_grid.len() - values.len();
            for (i, v) in values.iter().enumerate() {
                let day = day_grid[offset + i] / 86_400;
                if_map.add(&family, &format!("d{day:02}"), *v);
            }
        }
    }

    println!("--- Figure 3a: spot placement score, daily means per class ---");
    print!("{}", sps_map.render(6));
    println!();
    println!("--- Figure 3b: interruption-free score, daily means per class ---");
    print!("{}", if_map.render(6));
    println!();

    let sps_avg = sps_map.grand_mean().unwrap_or(f64::NAN);
    let if_avg = if_map.grand_mean().unwrap_or(f64::NAN);
    println!("fleet average placement score:       {sps_avg:.2} (paper: 2.80)");
    println!("fleet average interruption-free:     {if_avg:.2} (paper: 2.22)");

    let accel_avg = |map: &Heatmap| {
        let mut sum = 0.0;
        let mut n = 0;
        for f in InstanceFamily::ALL {
            if f.group() == InstanceGroup::AcceleratedComputing {
                if let Some(v) = map.row_mean(&f.prefix().to_uppercase()) {
                    sum += v;
                    n += 1;
                }
            }
        }
        sum / n.max(1) as f64
    };
    let a_sps = accel_avg(&sps_map);
    let a_if = accel_avg(&if_map);
    println!(
        "accelerated-computing:  SPS {a_sps:.2} ({:+.2}% vs fleet; paper: -12.07%), IF {a_if:.2} ({:+.2}% vs fleet; paper: -34.98%)",
        100.0 * (a_sps - sps_avg) / sps_avg,
        100.0 * (a_if - if_avg) / if_avg
    );
    if scale.days >= 20 {
        let shock_day = scale.days * 5 / 6;
        println!(
            "(a demand shock is scheduled on day {shock_day} — look for the darker column, the paper's June 2 dip)"
        );
    }
}

/// Figure 4: spatial variation of the spot placement score (4a) and the
/// interruption-free score (4b).
///
/// One row per instance class, one column per region: mean score over the
/// whole measurement, with NA where a class is not offered in a region.
/// The paper's observations: spatial variation exceeds temporal variation,
/// and the general-purpose GPU classes (G, P) are dark almost everywhere.
pub(crate) fn figure04(fx: &Fixtures) {
    fx.scale()
        .print_header("Figure 4: spatial variation of spot instance scores");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    let region_cols: Vec<String> = catalog
        .regions()
        .iter()
        .map(|r| r.code().to_owned())
        .collect();
    let (mut sps_map, mut if_map) = class_heatmaps(&region_cols);

    for ty_name in &fixture.types {
        let family = class_of(catalog, ty_name);
        for region in catalog.regions() {
            // Whole-measurement mean via one giant window.
            let filters = [
                ("instance_type", ty_name.as_str()),
                ("region", region.code()),
            ];
            for w in fixture.means(SPS, &filters, u64::MAX / 2) {
                sps_map.add(&family, region.code(), w.value);
            }
            for w in fixture.means(IF, &filters, u64::MAX / 2) {
                if_map.add(&family, region.code(), w.value);
            }
        }
    }

    println!("--- Figure 4a: spot placement score by class x region ---");
    print!("{}", sps_map.render(14));
    println!();
    println!("--- Figure 4b: interruption-free score by class x region ---");
    print!("{}", if_map.render(14));
    println!();

    // Spatial vs temporal variation: the paper observes "a higher degree of
    // score variations across different regions". Quantify as the std of
    // per-region class means.
    let spatial_spread = |map: &Heatmap| {
        let mut spreads = Vec::new();
        for row in map.rows().to_vec() {
            let vals: Vec<f64> = map
                .cols()
                .to_vec()
                .iter()
                .filter_map(|c| map.cell(&row, c))
                .collect();
            if let Some(sd) = spotlake_analysis::stddev(&vals) {
                spreads.push(sd);
            }
        }
        spotlake_analysis::mean(&spreads).unwrap_or(f64::NAN)
    };
    println!(
        "mean cross-region spread (std of class means): SPS {:.3}, IF {:.3}",
        spatial_spread(&sps_map),
        spatial_spread(&if_map)
    );
    for class in ["G", "P"] {
        if let Some(v) = sps_map.row_mean(class) {
            println!(
                "general-purpose GPU class {class}: mean SPS {v:.2} (paper: relatively low in most regions)"
            );
        }
    }
}

/// Figure 5: spot placement and interruption-free scores grouped by
/// instance size.
///
/// The paper plots, for sizes with more than 10 instance types, the mean of
/// both scores (primary axis) and the number of instance types (secondary
/// axis), finding both scores decrease as the size grows.
pub(crate) fn figure05(fx: &Fixtures) {
    let scale = fx.scale();
    scale.print_header("Figure 5: scores grouped by instance size");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    // size -> (sps sum, sps n, if sum, if n, type count)
    let mut by_size: BTreeMap<usize, (f64, u64, f64, u64, u64)> = BTreeMap::new();
    let size_index = |s: InstanceSize| {
        InstanceSize::ALL
            .iter()
            .position(|&x| x == s)
            .expect("all sizes enumerated")
    };

    for ty_name in &fixture.types {
        let size = catalog
            .instance_type(ty_name)
            .expect("collected types are cataloged")
            .size();
        let entry = by_size.entry(size_index(size)).or_default();
        entry.4 += 1;

        let filters = [("instance_type", ty_name.as_str())];
        for w in fixture.means(SPS, &filters, u64::MAX / 2) {
            entry.0 += w.value * w.count as f64;
            entry.1 += w.count as u64;
        }
        for w in fixture.means(IF, &filters, u64::MAX / 2) {
            entry.2 += w.value * w.count as f64;
            entry.3 += w.count as u64;
        }
    }

    // The paper keeps sizes with more than 10 instance types. The stride
    // reduces type counts proportionally, so scale the cut with it.
    let min_types = (10 / scale.stride).max(2) as u64;
    let mut rows = Vec::new();
    let mut series: Vec<(f64, f64)> = Vec::new();
    for (idx, (sps_sum, sps_n, if_sum, if_n, n_types)) in &by_size {
        if *n_types < min_types || *sps_n == 0 {
            continue;
        }
        let size = InstanceSize::ALL[*idx];
        let sps_mean = sps_sum / *sps_n as f64;
        let if_mean = if *if_n > 0 {
            if_sum / *if_n as f64
        } else {
            f64::NAN
        };
        series.push((sps_mean, if_mean));
        rows.push(vec![
            size.suffix().to_owned(),
            format!("{sps_mean:.3}"),
            format!("{if_mean:.3}"),
            n_types.to_string(),
        ]);
    }
    print_table(
        &format!("Figure 5 (sizes with >= {min_types} collected types)"),
        &["size", "SPS mean", "IF mean", "types"],
        &rows,
    );

    // Trend check: both scores should decrease from the small-size to the
    // large-size end.
    if series.len() >= 3 {
        let k = series.len() / 3;
        let head_sps: f64 = series[..k].iter().map(|p| p.0).sum::<f64>() / k as f64;
        let tail_sps: f64 = series[series.len() - k..].iter().map(|p| p.0).sum::<f64>() / k as f64;
        println!(
            "small-size SPS mean {head_sps:.3} vs large-size {tail_sps:.3} ({})",
            if tail_sps < head_sps {
                "decreasing, as the paper reports"
            } else {
                "NOT decreasing — check calibration"
            }
        );
    }
}

/// Figure 8: CDF of the Pearson correlation coefficient between any two of
/// the spot placement score, the interruption-free score, and the spot
/// price.
///
/// The paper computes, per (instance type, location) series pair, the
/// correlation over the 181-day archive, and finds all three CDFs
/// concentrated near 0 — with the price-involved pairs the most
/// concentrated. Quantified: for SPS×IF, 62.57% of |r| < 0.25 and 87.64%
/// of |r| < 0.5.
pub(crate) fn figure08(fx: &Fixtures) {
    fx.scale()
        .print_header("Figure 8: Pearson correlation of dataset pairs");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    let mut sps_if = Vec::new();
    let mut if_price = Vec::new();
    let mut sps_price = Vec::new();

    for ty in &fixture.types {
        for region in catalog.regions() {
            // The advisor series lives at (type, region); SPS and price at
            // (type, AZ). Pair each AZ's series with the region's advisor
            // series, matching the paper's composite analysis.
            let if_series = fixture.series(IF, &[("instance_type", ty), ("region", region.code())]);

            let region_id = catalog.region_id(region.code()).expect("cataloged region");
            for &az in catalog.azs_of_region(region_id) {
                let filters = [
                    ("instance_type", ty.as_str()),
                    ("az", catalog.az(az).name()),
                ];
                let sps_series = fixture.series(SPS, &filters);
                if sps_series.len() < 8 {
                    continue;
                }
                let price_series = fixture.series(PRICE, &filters);

                let (a, b) = align_step(&sps_series, &if_series);
                if let Some(r) = pearson(&a, &b) {
                    sps_if.push(r);
                }
                let (a, b) = align_step(&sps_series, &price_series);
                if let Some(r) = pearson(&a, &b) {
                    sps_price.push(r);
                }
                // IF (step) against price (step): sample both on the SPS
                // tick grid for a common clock.
                let ticks: Vec<(u64, f64)> = sps_series.clone();
                let (if_t, price_t) = (
                    align_step(&ticks, &if_series).1,
                    align_step(&ticks, &price_series).1,
                );
                let n = if_t.len().min(price_t.len());
                if let Some(r) = pearson(&if_t[if_t.len() - n..], &price_t[price_t.len() - n..]) {
                    if_price.push(r);
                }
            }
        }
    }

    let sps_if_cdf = Ecdf::new(sps_if);
    let if_price_cdf = Ecdf::new(if_price);
    let sps_price_cdf = Ecdf::new(sps_price);
    print_cdf("SPS x IF      r", &sps_if_cdf);
    print_cdf("IF  x price   r", &if_price_cdf);
    print_cdf("SPS x price   r", &sps_price_cdf);
    println!();

    let share = |cdf: &Ecdf, cut: f64| {
        if cdf.is_empty() {
            f64::NAN
        } else {
            100.0 * (cdf.eval(cut) - cdf.eval(-cut))
        }
    };
    let rows = vec![
        vec![
            "SPS x IF |r| < 0.25".to_owned(),
            fmt_pct(share(&sps_if_cdf, 0.25)),
            "62.57%".to_owned(),
        ],
        vec![
            "SPS x IF |r| < 0.5".to_owned(),
            fmt_pct(share(&sps_if_cdf, 0.5)),
            "87.64%".to_owned(),
        ],
        vec![
            "IF x price |r| < 0.25".to_owned(),
            fmt_pct(share(&if_price_cdf, 0.25)),
            "(densest near 0)".to_owned(),
        ],
        vec![
            "SPS x price |r| < 0.25".to_owned(),
            fmt_pct(share(&sps_price_cdf, 0.25)),
            "(densest near 0)".to_owned(),
        ],
    ];
    print_table(
        "Figure 8 headline shares",
        &["statistic", "measured", "paper"],
        &rows,
    );
    println!("finding: no dataset pair carries the other's information; price carries the least.");
}

/// Figure 9: histogram of the absolute difference between the spot
/// placement score and the interruption-free score.
///
/// The paper pairs the two scores at every observation instant and counts
/// |SPS − IF| into 0.0 … 2.0 bins (0.5 steps). Differences of 0.0 dominate,
/// but ~17.41% of observations show the full contradiction of 2.0 and ~24%
/// differ by at least 1.5.
pub(crate) fn figure09(fx: &Fixtures) {
    fx.scale()
        .print_header("Figure 9: |SPS - IF| score difference distribution");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    let mut hist = Histogram::difference_bins();
    for ty in &fixture.types {
        for region in catalog.regions() {
            let filters = [("instance_type", ty.as_str()), ("region", region.code())];
            let if_series = fixture.series(IF, &filters);
            if if_series.is_empty() {
                continue;
            }
            let sps_series = fixture.series(SPS, &filters);
            let (sps, ifs) = align_step(&sps_series, &if_series);
            hist.extend(sps.iter().zip(&ifs).map(|(a, b)| (a - b).abs()));
        }
    }

    let paper = [f64::NAN, f64::NAN, f64::NAN, f64::NAN, 17.41];
    let shares = hist.shares();
    let rows: Vec<Vec<String>> = hist
        .centers()
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            vec![
                format!("{c:.1}"),
                fmt_pct(shares[i]),
                if paper[i].is_nan() {
                    "(dominant at 0.0)".to_owned()
                } else {
                    fmt_pct(paper[i])
                },
            ]
        })
        .collect();
    print_table(
        &format!("Figure 9 over {} paired observations", hist.total()),
        &["|SPS - IF|", "measured", "paper"],
        &rows,
    );
    let ge_15 = shares[3] + shares[4];
    println!(
        "difference >= 1.5: {} (paper: ~24%) — the contradictory-information share",
        fmt_pct(ge_15)
    );
}

/// Figure 10: CDF of the elapsed time between value-change events for the
/// spot placement score, the interruption-free score, and the spot price.
///
/// The paper finds the placement score updating most frequently and the
/// interruption-free score least frequently (consistent with its
/// trailing-month window), with the price in between.
pub(crate) fn figure10(fx: &Fixtures) {
    fx.scale()
        .print_header("Figure 10: elapsed time between dataset updates");
    let fixture = fx.archive();
    let catalog = fixture.lake.cloud().catalog();

    let mut sps_hours = Vec::new();
    let mut if_hours = Vec::new();
    let mut price_hours = Vec::new();

    for ty in &fixture.types {
        for region in catalog.regions() {
            let region_id = catalog.region_id(region.code()).expect("cataloged region");
            // Advisor at (type, region).
            let series = fixture.series(IF, &[("instance_type", ty), ("region", region.code())]);
            if_hours.extend(update_hours(&series));
            // SPS and price at (type, AZ).
            for &az in catalog.azs_of_region(region_id) {
                let filters = [
                    ("instance_type", ty.as_str()),
                    ("az", catalog.az(az).name()),
                ];
                for (dataset, out) in [(SPS, &mut sps_hours), (PRICE, &mut price_hours)] {
                    out.extend(update_hours(&fixture.series(dataset, &filters)));
                }
            }
        }
    }

    let sps = Ecdf::new(sps_hours);
    let ifs = Ecdf::new(if_hours);
    let price = Ecdf::new(price_hours);
    println!("inter-update times, hours:");
    print_cdf("  placement score   ", &sps);
    print_cdf("  spot price        ", &price);
    print_cdf("  interruption-free ", &ifs);
    println!();
    let med = |c: &Ecdf| if c.is_empty() { f64::NAN } else { c.median() };
    println!(
        "medians: SPS {:.1}h < price {:.1}h < IF {:.1}h  ({})",
        med(&sps),
        med(&price),
        med(&ifs),
        if med(&sps) < med(&price) && med(&price) < med(&ifs) {
            "ordering matches the paper"
        } else {
            "ordering differs from the paper — check calibration"
        }
    );
    println!("(the collection tick is the resolution floor for the SPS series)");
}
