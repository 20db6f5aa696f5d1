//! The catalog experiments: Table 1 and Figure 1 read no fixture.

use crate::{print_table, Fixtures};
use spotlake_collector::{PlannerStrategy, QueryPlanner};
use spotlake_types::{Catalog, RequestState};
use std::time::Instant;

/// Table 1: possible spot instance request status and description.
///
/// Prints the lifecycle table and verifies the legal transition structure
/// the rest of the system enforces.
pub(crate) fn table01(_: &Fixtures) {
    println!("== Table 1: spot instance request status ==\n");
    let rows: Vec<Vec<String>> = RequestState::ALL
        .iter()
        .map(|s| vec![s.label().to_owned(), s.description().to_owned()])
        .collect();
    print_table(
        "Status lifecycle (Table 1)",
        &["Status", "Description"],
        &rows,
    );

    println!("Legal transitions:");
    for from in RequestState::ALL {
        let tos: Vec<&str> = RequestState::ALL
            .iter()
            .filter(|&&to| from.can_transition_to(to))
            .map(|t| t.label())
            .collect();
        println!(
            "  {:<20} -> {}",
            from.label(),
            if tos.is_empty() {
                "(terminal)".to_owned()
            } else {
                tos.join(", ")
            }
        );
    }
    println!(
        "  (persistent requests additionally re-enter pending-evaluation after an interruption)"
    );
}

/// Figure 1: spot placement score query optimization via bin packing.
///
/// Reproduces both the worked example (the regions supporting `p3.2xlarge`
/// packed into few queries) and the headline full-catalog numbers: the
/// paper reduced 9,299 all-pairs queries to 2,226 (≈ 4.5×) with the CBC
/// MIP solver; we report the same statistics for the reconstruction's
/// support matrix, for every packing strategy.
pub(crate) fn figure01(_: &Fixtures) {
    println!("== Figure 1: query optimization via bin packing ==\n");
    let catalog = Catalog::aws_2022();
    let all_pairs = catalog.instance_types().len() * catalog.regions().len();
    println!(
        "catalog: {} instance types x {} regions = {} all-pairs queries (paper: 9,299)\n",
        catalog.instance_types().len(),
        catalog.regions().len(),
        all_pairs
    );

    // The worked example: p3.2xlarge's supporting regions and AZ counts.
    let ty = catalog
        .instance_type_id("p3.2xlarge")
        .expect("p3.2xlarge is in the catalog");
    let support = catalog.support_map(ty);
    let rows: Vec<Vec<String>> = support
        .iter()
        .map(|(&region, &azs)| vec![catalog.region(region).code().to_owned(), azs.to_string()])
        .collect();
    print_table(
        "p3.2xlarge region support (Figure 1 example input)",
        &["Region", "AZs"],
        &rows,
    );
    let planner = QueryPlanner::new(PlannerStrategy::Exact);
    let plan = planner.plan(&catalog, Some(&["p3.2xlarge".to_string()]));
    println!("packed into {} queries:", plan.len());
    for q in &plan {
        println!(
            "  [{}] -> {} expected scores",
            q.regions.join(", "),
            q.expected_results
        );
    }
    println!();

    // Full-catalog statistics per strategy.
    let mut rows = Vec::new();
    for strategy in PlannerStrategy::ALL {
        let start = Instant::now();
        let (_, stats) = QueryPlanner::new(strategy).plan_with_stats(&catalog, None);
        let elapsed = start.elapsed();
        rows.push(vec![
            strategy.name().to_owned(),
            stats.planned_queries.to_string(),
            format!("{:.2}x", all_pairs as f64 / stats.planned_queries as f64),
            format!("{:.1?}", elapsed),
        ]);
    }
    let lb = QueryPlanner::default().plan_lower_bound(&catalog);
    print_table(
        "Full-catalog query plans (paper: 2,226 packed queries, 4.5x)",
        &["strategy", "queries", "vs all-pairs", "plan time"],
        &rows,
    );
    println!("Martello-Toth L2 lower bound on any plan: {lb} queries");
    println!(
        "accounts needed at 50 unique queries/day: {}",
        spotlake_collector::AccountPool::required_accounts(
            QueryPlanner::default().plan(&catalog, None).len()
        )
    );
}
