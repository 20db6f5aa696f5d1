//! Smoke-scale checks that the paper's qualitative shapes hold end to end,
//! and one run of every experiment over the same smoke [`Fixtures`].
//!
//! Nothing asserts the quantitative versions at full scale: the
//! experiments print the paper's numbers beside the measured ones. These
//! run in seconds and protect the shapes against regressions.

use spotlake::experiment::Stratum;
use spotlake::{RequestOutcome, SimCloud, SimConfig};
use spotlake_collector::{AccountPool, PlannerStrategy, QueryPlanner};
use spotlake_experiments::{run, Fixtures, EXPERIMENTS};
use spotlake_types::Catalog;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// One smoke fixture per test process, so the archive is collected and the
/// fulfillment experiment runs once however many tests read them. A test
/// that panicked holding the lock left them valid: an input that failed to
/// build stays unbuilt, and a built one is only read.
fn smoke() -> MutexGuard<'static, Fixtures> {
    static SMOKE: OnceLock<Mutex<Fixtures>> = OnceLock::new();
    SMOKE
        .get_or_init(|| Mutex::new(Fixtures::smoke()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Every table and figure runs to completion over the smoke fixtures.
#[test]
fn every_experiment_runs_on_the_smoke_fixtures() {
    let fixtures = smoke();
    assert_eq!(run(EXPERIMENTS, &fixtures), 0, "an experiment failed");
    assert!(fixtures.archive().lake.archive().point_count() > 0);
}

/// Figure 1's shape: the packed plan beats the naive per-(type, region)
/// scan by a large factor and fits in tens of accounts.
#[test]
fn figure1_shape_packing_wins() {
    let catalog = Catalog::aws_2022();
    let (exact_plan, stats) =
        QueryPlanner::new(PlannerStrategy::Exact).plan_with_stats(&catalog, None);
    let all_pairs = catalog.instance_types().len() * catalog.regions().len();
    assert_eq!(all_pairs, 9_299);
    let improvement = all_pairs as f64 / stats.planned_queries as f64;
    assert!(
        improvement > 3.5,
        "packing should beat all-pairs by ~4.5x (got {improvement:.2}x)"
    );
    let accounts = AccountPool::required_accounts(exact_plan.len());
    assert!(
        (30..=60).contains(&accounts),
        "the plan should need ~45 accounts, got {accounts}"
    );
}

/// Section 5.4's headline orderings, on the smoke fixtures' reduced
/// experiment (seed 5, hourly tick, 8 warm-up days, 25 cases per stratum,
/// a week of history recorded every 6 hours).
#[test]
fn table3_shape_orderings() {
    let fixtures = smoke();
    let report = fixtures.experiment();
    assert!(
        report.cases.len() >= 50,
        "experiment produced too few cases"
    );

    let row = |s: Stratum| {
        report
            .table3()
            .into_iter()
            .find(|r| r.stratum == s)
            .expect("all strata reported")
    };
    // High placement score -> always fulfilled.
    assert_eq!(row(Stratum::HH).not_fulfilled_pct, 0.0);
    assert_eq!(row(Stratum::HL).not_fulfilled_pct, 0.0);
    // Low placement score -> fulfillment failure is common.
    assert!(row(Stratum::LH).not_fulfilled_pct > 20.0);
    assert!(row(Stratum::LL).not_fulfilled_pct > 20.0);
    // The advisor carries real interruption signal: H-L interrupts more
    // than H-H.
    assert!(
        row(Stratum::HL).interrupted_pct > row(Stratum::HH).interrupted_pct,
        "H-L ({:.1}%) must interrupt more than H-H ({:.1}%)",
        row(Stratum::HL).interrupted_pct,
        row(Stratum::HH).interrupted_pct
    );

    // Figure 11a's shape: fulfilled H-H requests place fast.
    let hh = report.fulfillment_latencies(Stratum::HH);
    assert!(!hh.is_empty());
    let fast = hh.iter().filter(|&&l| l <= 135.0).count() as f64 / hh.len() as f64;
    assert!(
        fast > 0.7,
        "H-H should mostly fulfill within 135s ({fast:.2})"
    );

    // Outcome labels partition the cases.
    for case in &report.cases {
        match case.outcome {
            RequestOutcome::NoFulfill => assert!(case.fulfillment_latency_secs.is_none()),
            _ => assert!(case.fulfillment_latency_secs.is_some()),
        }
    }
}

/// Section 5.2's shape: composite multi-type queries floor at the sum of
/// the individual scores and never exceed 10.
#[test]
fn figure6_shape_composite_floor() {
    let mut cloud = SimCloud::new(Catalog::aws_2022(), SimConfig::with_seed(3));
    cloud.run_days(1);
    let catalog = cloud.catalog().clone();
    let types: Vec<_> = ["m5.large", "c5.large", "r5.large"]
        .iter()
        .map(|n| catalog.instance_type_id(n).expect("cataloged"))
        .collect();
    let mut checked = 0;
    let mut sub_additive = 0;
    for az in catalog.az_ids() {
        let Some(composite) = cloud.composite_score(&types, az, 1) else {
            continue;
        };
        let sum: u32 = types
            .iter()
            .filter_map(|&t| cloud.placement_score(t, az, 1))
            .map(|s| u32::from(s.value()))
            .sum();
        assert!(composite.value() <= 10);
        if u32::from(composite.value()) < sum {
            sub_additive += 1;
        }
        checked += 1;
    }
    assert!(
        checked > 30,
        "expected most AZs to support the general types"
    );
    assert!(
        sub_additive * 20 <= checked,
        "sub-additive composites must be rare exceptions ({sub_additive}/{checked})"
    );
}
