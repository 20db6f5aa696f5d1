//! The placement-score API experiments: Figures 6 and 7 query one warmed
//! cloud.

use crate::{fmt_pct, print_table, Fixtures};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spotlake_cloud_api::{AccountId, SpsClient, SpsRequest};
use spotlake_types::{AzId, InstanceTypeId};
use std::collections::BTreeMap;

/// Queries per individual-sum bucket (paper: "the same number of instance
/// type and availability zone combinations in each summed score value").
const PER_BUCKET: usize = 120;

/// Figure 6: composite instance type queries.
///
/// The paper issued placement-score queries naming three arbitrary instance
/// types and compared the returned composite score against the sum of the
/// three types' individual scores, choosing type/AZ combinations so the
/// individual-score sums 3..=9 are uniformly represented. Findings:
/// ~38.81% of queries sit exactly on the y = x line, ~60.62% are
/// super-additive, and two cases were sub-additive.
pub(crate) fn figure06(fx: &Fixtures) {
    let scale = fx.scale();
    scale.print_header("Figure 6: composite instance type queries");

    let cloud = fx.warm_cloud();
    let catalog = cloud.catalog();
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xF16);

    // Enumerate candidate (3 types, AZ) combinations and bucket them by the
    // sum of individual scores so each sum 3..=9 is equally represented.
    let type_ids: Vec<InstanceTypeId> = catalog.type_ids().collect();
    let az_ids: Vec<AzId> = catalog.az_ids().collect();
    let mut buckets: BTreeMap<u32, Vec<(Vec<InstanceTypeId>, AzId)>> = BTreeMap::new();
    'outer: for _ in 0..300_000 {
        let az = *az_ids.choose(&mut rng).expect("catalog has AZs");
        let mut types = Vec::with_capacity(3);
        let mut sum = 0u32;
        for _ in 0..3 {
            let ty = *type_ids.choose(&mut rng).expect("catalog has types");
            let Some(score) = cloud.placement_score(ty, az, 1) else {
                continue 'outer; // unsupported in this AZ; resample
            };
            if types.contains(&ty) {
                continue 'outer;
            }
            sum += u32::from(score.value());
            types.push(ty);
        }
        let bucket = buckets.entry(sum).or_default();
        if bucket.len() < PER_BUCKET {
            bucket.push((types, az));
        }
        if buckets.len() == 7 && buckets.values().all(|b| b.len() >= PER_BUCKET) {
            break;
        }
    }

    // Issue the composite queries through the real API client.
    let mut client = SpsClient::new();
    let mut on_line = 0usize;
    let mut above = 0usize;
    let mut below = 0usize;
    let mut total = 0usize;
    let mut scatter: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for (sum, combos) in &buckets {
        for (i, (types, az)) in combos.iter().enumerate() {
            let names: Vec<String> = types.iter().map(|&t| catalog.ty(t).name()).collect();
            let region = catalog.az(*az).region();
            let request = SpsRequest::new(names, vec![catalog.region(region).code().to_owned()], 1)
                .expect("non-empty request")
                .single_availability_zone(true);
            // Each bucket cycles through fresh accounts to stay inside the
            // 50-unique-query limit, exactly as a real measurement would.
            let account = AccountId::new(format!("fig6-{sum}-{}", i / 40));
            let scores = client
                .get_spot_placement_scores(cloud, &account, &request)
                .expect("catalog names are valid");
            let Some(row) = scores
                .iter()
                .find(|s| s.availability_zone == Some(catalog.az(*az).name()))
            else {
                continue; // truncated out of the top-10 for this region
            };
            let composite = u32::from(row.score.value());
            total += 1;
            *scatter.entry((composite, *sum)).or_default() += 1;
            match composite.cmp(sum) {
                std::cmp::Ordering::Equal => on_line += 1,
                std::cmp::Ordering::Greater => above += 1,
                std::cmp::Ordering::Less => below += 1,
            }
        }
    }

    println!("scatter (composite score, sum of individual scores) -> count:");
    for ((comp, sum), n) in &scatter {
        println!("  composite={comp:>2}  sum={sum}  n={n}");
    }
    println!();
    let rows = vec![
        vec![
            "composite == sum (on y=x)".to_owned(),
            fmt_pct(100.0 * on_line as f64 / total as f64),
            "38.81%".to_owned(),
        ],
        vec![
            "composite > sum (super-additive)".to_owned(),
            fmt_pct(100.0 * above as f64 / total as f64),
            "60.62%".to_owned(),
        ],
        vec![
            "composite < sum (exceptions)".to_owned(),
            fmt_pct(100.0 * below as f64 / total as f64),
            "2 cases".to_owned(),
        ],
    ];
    print_table(
        &format!("Figure 6 composite-query outcomes over {total} queries"),
        &["case", "measured", "paper"],
        &rows,
    );
    println!("finding: the sum of individual scores is the floor of the composite score.");
}

/// Representative types per family (xlarge where available, as in the
/// paper).
const REPRESENTATIVES: &[&str] = &[
    "t3.xlarge",
    "m5.xlarge",
    "a1.xlarge",
    "c5.xlarge",
    "r5.xlarge",
    "x1e.xlarge",
    "z1d.xlarge",
    "p2.xlarge",
    "g4dn.xlarge",
    "dl1.24xlarge",
    "inf1.xlarge",
    "f1.2xlarge",
    "vt1.3xlarge",
    "i3.xlarge",
    "d2.xlarge",
    "h1.2xlarge",
];

const CAPACITIES: &[u32] = &[1, 5, 10, 20, 50, 100];

/// Figure 7: placement score versus the number of requested instances.
///
/// The paper picked representative `xlarge`-sized types from each family
/// (smallest available size where `xlarge` does not exist, e.g. P4's
/// 24xlarge) and swept the query's target capacity, finding accelerated
/// (P, G, Inf) and dense-storage (D) types lose score fastest.
pub(crate) fn figure07(fx: &Fixtures) {
    fx.scale()
        .print_header("Figure 7: placement score vs requested capacity");

    let cloud = fx.warm_cloud();
    let mut client = SpsClient::new();

    let mut rows = Vec::new();
    let mut drops: Vec<(String, f64)> = Vec::new();
    for name in REPRESENTATIVES {
        let account = AccountId::new(format!("fig7-{name}"));
        let mut cells = vec![name.to_string()];
        let mut first = None;
        let mut last = None;
        for &capacity in CAPACITIES {
            let request = SpsRequest::new(
                vec![name.to_string()],
                vec!["us-east-1".to_owned()],
                capacity,
            )
            .expect("non-empty request");
            let scores = client
                .get_spot_placement_scores(cloud, &account, &request)
                .expect("representative types exist");
            match scores.first() {
                Some(s) => {
                    let v = f64::from(s.score.value());
                    if first.is_none() {
                        first = Some(v);
                    }
                    last = Some(v);
                    cells.push(format!("{v:.0}"));
                }
                None => cells.push("NA".to_owned()),
            }
        }
        if let (Some(f), Some(l)) = (first, last) {
            drops.push((name.to_string(), f - l));
        }
        rows.push(cells);
    }

    let mut headers = vec!["type"];
    let capacity_labels: Vec<String> = CAPACITIES.iter().map(|c| format!("n={c}")).collect();
    headers.extend(capacity_labels.iter().map(String::as_str));
    print_table(
        "Figure 7: us-east-1 placement score by requested capacity",
        &headers,
        &rows,
    );

    drops.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("largest score drops from n=1 to n=100 (paper: P, G, Inf, and D drop hardest):");
    for (name, drop) in drops.iter().take(6) {
        println!("  {name:<14} -{drop:.0}");
    }
}
