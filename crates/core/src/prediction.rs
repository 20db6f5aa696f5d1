//! The spot-instance status prediction task of Section 5.5 (Table 4).
//!
//! Target classes: `NoInterrupt`, `Interrupted`, `NoFulfill`. Four methods
//! are compared:
//!
//! * **IF** — a heuristic over the current interruption-free score, with
//!   thresholds fit on the training split ("set ... empirically after
//!   numerous trials").
//! * **SPS** — the paper's fixed placement-score heuristic (3.0 →
//!   NoInterrupt, 2.0 → Interrupted, 1.0 → NoFulfill).
//! * **CostSave** — a threshold heuristic over the current savings
//!   percentage, thresholds fit like IF.
//! * **RF** — a random forest over features extracted from the archived
//!   month of score history — the method only SpotLake's historical
//!   archive makes possible.

use crate::experiment::ExperimentCase;
use spotlake_cloud_sim::RequestOutcome;
use spotlake_ml::metrics::{accuracy, f1_macro};
use spotlake_ml::{Dataset, RandomForest, ThresholdHeuristic};

/// Class indices used throughout the task.
pub const CLASS_NO_INTERRUPT: usize = 0;
/// Class index for interrupted requests.
pub const CLASS_INTERRUPTED: usize = 1;
/// Class index for never-fulfilled requests.
pub const CLASS_NO_FULFILL: usize = 2;
/// Number of target classes.
pub const N_CLASSES: usize = 3;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Method name (`IF`, `SPS`, `Cost Save`, `RF`).
    pub method: &'static str,
    /// Test-set accuracy.
    pub accuracy: f64,
    /// Test-set macro-averaged F1.
    pub f1: f64,
}

/// The full Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionReport {
    /// Rows in the paper's column order: IF, SPS, Cost Save, RF.
    pub rows: Vec<MethodRow>,
    /// Training cases used.
    pub train_cases: usize,
    /// Test cases used.
    pub test_cases: usize,
}

impl PredictionReport {
    /// The row for a method name.
    pub fn row(&self, method: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// The class label of a request outcome.
pub fn label_of(outcome: RequestOutcome) -> usize {
    match outcome {
        RequestOutcome::NoInterrupt => CLASS_NO_INTERRUPT,
        RequestOutcome::Interrupted => CLASS_INTERRUPTED,
        RequestOutcome::NoFulfill => CLASS_NO_FULFILL,
    }
}

/// Summary statistics of one history vector.
fn history_features(series: &[f64]) -> [f64; 4] {
    if series.is_empty() {
        return [0.0; 4];
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let var = series.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let last = *series.last().expect("nonempty");
    [mean, min, var.sqrt(), last]
}

/// Extracts the RF feature row of one case: current scores plus the
/// trailing month's summary statistics of the SPS and IF histories.
pub fn feature_row(case: &ExperimentCase) -> Vec<f64> {
    let sps_h = history_features(&case.history.sps);
    let if_h = history_features(&case.history.if_score);
    let frac = |series: &[f64], pred: fn(f64) -> bool| {
        if series.is_empty() {
            0.0
        } else {
            series.iter().filter(|&&v| pred(v)).count() as f64 / series.len() as f64
        }
    };
    // How often the pool was comfortable (score 3) / starved (score 1)
    // over the whole month, and over the most recent week — the dip-rate
    // signals only the archive can provide.
    let frac_sps_high = frac(&case.history.sps, |v| v >= 3.0);
    let frac_sps_low = frac(&case.history.sps, |v| v <= 1.0);
    let week = case.history.sps.len() / 4;
    let recent = &case.history.sps[case.history.sps.len().saturating_sub(week.max(1))..];
    let recent_low = frac(recent, |v| v <= 1.0);
    // Run-length signals: how long the pool has *currently* been starved
    // (an ongoing outage dwarfs a transient dip — this is what separates
    // never-fulfilled low-score cases from quickly-fulfilled ones), and how
    // often the pool churns in and out of the comfortable band.
    let trailing_low_run = case
        .history
        .sps
        .iter()
        .rev()
        .take_while(|&&v| v <= 1.0)
        .count() as f64;
    let trailing_sub_high_run = case
        .history
        .sps
        .iter()
        .rev()
        .take_while(|&&v| v < 3.0)
        .count() as f64;
    let dip_transitions = case
        .history
        .sps
        .windows(2)
        .filter(|w| w[0] >= 3.0 && w[1] < 3.0)
        .count() as f64;
    vec![
        case.sps_at_submit,
        case.if_at_submit,
        case.savings_at_submit,
        sps_h[0],
        sps_h[1],
        sps_h[2],
        frac_sps_high,
        frac_sps_low,
        recent_low,
        trailing_low_run,
        trailing_sub_high_run,
        dip_transitions,
        if_h[0],
        if_h[1],
        if_h[2],
    ]
}

/// Names of the columns [`feature_row`] produces, for importance reports.
pub const FEATURE_NAMES: [&str; 15] = [
    "sps_current",
    "if_current",
    "savings_current",
    "sps_mean_30d",
    "sps_min_30d",
    "sps_std_30d",
    "frac_sps_high",
    "frac_sps_low",
    "recent_week_low",
    "trailing_low_run",
    "trailing_sub3_run",
    "dip_transitions",
    "if_mean_30d",
    "if_min_30d",
    "if_std_30d",
];

/// Fits the Table 4 random forest on all cases and reports permutation
/// feature importance — which archive signals the model actually uses.
/// Returns `(feature name, importance)` sorted descending.
pub fn feature_importance(cases: &[ExperimentCase], seed: u64) -> Vec<(&'static str, f64)> {
    let features: Vec<Vec<f64>> = cases.iter().map(feature_row).collect();
    let labels: Vec<usize> = cases.iter().map(|c| label_of(c.outcome)).collect();
    let data = Dataset::new(features, labels, N_CLASSES).expect("rows built uniformly");
    let forest = RandomForest::default().with_max_depth(10).fit(&data, seed);
    let importances = forest.permutation_importance(&data, 3, seed ^ 0xF00D);
    let mut named: Vec<(&'static str, f64)> =
        FEATURE_NAMES.iter().copied().zip(importances).collect();
    named.sort_by(|a, b| b.1.total_cmp(&a.1));
    named
}

/// Runs the Table 4 comparison over completed experiment cases.
///
/// Cases are split 70/30 (train/test) with `seed`; the IF and CostSave
/// thresholds are fit on the training split, the SPS heuristic is fixed,
/// and the random forest trains on the full feature rows.
///
/// # Panics
///
/// Panics if fewer than ten cases are supplied (the comparison would be
/// meaningless).
pub fn evaluate(cases: &[ExperimentCase], seed: u64) -> PredictionReport {
    assert!(
        cases.len() >= 10,
        "need at least 10 cases, got {}",
        cases.len()
    );

    let features: Vec<Vec<f64>> = cases.iter().map(feature_row).collect();
    let labels: Vec<usize> = cases.iter().map(|c| label_of(c.outcome)).collect();
    let data = Dataset::new(features, labels, N_CLASSES).expect("rows built uniformly");
    let (train, test) = data.split(0.3, seed);

    // Column indices into the feature row.
    const COL_SPS: usize = 0;
    const COL_IF: usize = 1;
    const COL_SAVE: usize = 2;
    let column =
        |d: &Dataset, col: usize| -> Vec<f64> { (0..d.len()).map(|i| d.row(i)[col]).collect() };

    let truth: Vec<usize> = test.labels().to_vec();
    let mut rows = Vec::with_capacity(4);

    // IF heuristic: thresholds fit on the training split.
    let if_heuristic = ThresholdHeuristic::fit(
        &column(&train, COL_IF),
        train.labels(),
        CLASS_NO_INTERRUPT,
        CLASS_INTERRUPTED,
        CLASS_NO_FULFILL,
    );
    let pred = if_heuristic.predict_all(&column(&test, COL_IF));
    rows.push(MethodRow {
        method: "IF",
        accuracy: accuracy(&truth, &pred),
        f1: f1_macro(&truth, &pred, N_CLASSES),
    });

    // SPS heuristic: the paper's fixed mapping.
    let sps_heuristic =
        ThresholdHeuristic::sps(CLASS_NO_INTERRUPT, CLASS_INTERRUPTED, CLASS_NO_FULFILL);
    let pred = sps_heuristic.predict_all(&column(&test, COL_SPS));
    rows.push(MethodRow {
        method: "SPS",
        accuracy: accuracy(&truth, &pred),
        f1: f1_macro(&truth, &pred, N_CLASSES),
    });

    // CostSave heuristic.
    let save_heuristic = ThresholdHeuristic::fit(
        &column(&train, COL_SAVE),
        train.labels(),
        CLASS_NO_INTERRUPT,
        CLASS_INTERRUPTED,
        CLASS_NO_FULFILL,
    );
    let pred = save_heuristic.predict_all(&column(&test, COL_SAVE));
    rows.push(MethodRow {
        method: "Cost Save",
        accuracy: accuracy(&truth, &pred),
        f1: f1_macro(&truth, &pred, N_CLASSES),
    });

    // Random forest over the archived history. A mild depth cap keeps the
    // forest from memorizing the (noisy) training outcomes — scikit-learn's
    // deeper default trees behave similarly thanks to its larger leaves.
    let forest = RandomForest::default().with_max_depth(10).fit(&train, seed);
    let pred = forest.predict_all(&test);
    rows.push(MethodRow {
        method: "RF",
        accuracy: accuracy(&truth, &pred),
        f1: f1_macro(&truth, &pred, N_CLASSES),
    });

    PredictionReport {
        rows,
        train_cases: train.len(),
        test_cases: test.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{CaseHistory, ExperimentCase, Stratum};

    /// Synthetic cases where history is genuinely informative: outcome is
    /// driven by the hidden pool quality, which history reflects better
    /// than the single current value.
    fn synthetic_cases(n: usize) -> Vec<ExperimentCase> {
        (0..n)
            .map(|i| {
                let quality = (i % 10) as f64 / 9.0; // 0..=1
                let noise = ((i * 7919) % 13) as f64 / 13.0 - 0.5;
                let outcome = if quality > 0.7 {
                    RequestOutcome::NoInterrupt
                } else if quality > 0.3 {
                    RequestOutcome::Interrupted
                } else {
                    RequestOutcome::NoFulfill
                };
                let current_sps = (1.0 + 2.0 * (quality + noise * 0.8).clamp(0.0, 1.0)).round();
                let hist_mean = 1.0 + 2.0 * quality;
                ExperimentCase {
                    instance_type: format!("m5.{i}"),
                    az: "us-test-1a".into(),
                    region: "us-test-1".into(),
                    stratum: Stratum::HH,
                    sps_at_submit: current_sps,
                    if_at_submit: 2.0,
                    savings_at_submit: 60.0,
                    outcome,
                    fulfillment_latency_secs: None,
                    first_run_secs: None,
                    history: CaseHistory {
                        sps: vec![hist_mean; 20],
                        if_score: vec![2.0; 20],
                        savings: vec![60.0; 20],
                    },
                }
            })
            .collect()
    }

    #[test]
    fn rf_beats_current_value_heuristics_on_history_driven_outcomes() {
        let cases = synthetic_cases(300);
        let report = evaluate(&cases, 42);
        assert_eq!(report.rows.len(), 4);
        let rf = report.row("RF").unwrap();
        let sps = report.row("SPS").unwrap();
        assert!(
            rf.accuracy > sps.accuracy,
            "RF ({:.2}) should beat SPS ({:.2}) when history carries signal",
            rf.accuracy,
            sps.accuracy
        );
        for row in &report.rows {
            assert!((0.0..=1.0).contains(&row.accuracy), "{row:?}");
            assert!((0.0..=1.0).contains(&row.f1), "{row:?}");
        }
        assert_eq!(report.train_cases + report.test_cases, 300);
    }

    #[test]
    fn feature_row_width_is_stable() {
        let cases = synthetic_cases(3);
        let w = feature_row(&cases[0]).len();
        assert!(cases.iter().all(|c| feature_row(c).len() == w));
    }

    #[test]
    fn empty_history_features_are_zero() {
        let mut case = synthetic_cases(1).remove(0);
        case.history = CaseHistory::default();
        let row = feature_row(&case);
        assert_eq!(row.len(), 15);
        assert!(row[3..].iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn evaluate_requires_enough_cases() {
        evaluate(&synthetic_cases(5), 0);
    }
}
