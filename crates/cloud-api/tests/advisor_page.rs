//! The advisor page renders and scrapes exactly as the reference does.
//!
//! `AdvisorPage::render` orders rows by precomputed region and type ranks
//! and writes numbers straight into the document; `AdvisorPage::scrape`
//! matches fixed field patterns. The references below are the
//! string-sorting renderer and the `format!`-per-field scraper they
//! replaced. Rendered documents must be byte-identical — so a truncation
//! or corruption fault lands on the same bytes — and the scrapers must
//! agree on every document, clean or damaged, errors included.
//!
//! The conditional fetch is held to the unconditional one: the validator
//! moves exactly when the advisor republishes, "not modified" comes back
//! only for a clean call with a matching validator, and every fault
//! returns what an unconditional fetch returns.

use proptest::prelude::*;
use spotlake_cloud_api::{
    AdvisorClient, AdvisorFetch, AdvisorPage, AdvisorRow, ApiError, FaultInjector, FaultPlan,
};
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_types::{Catalog, CatalogBuilder, InterruptionBucket, Savings, SimDuration};
use std::collections::BTreeSet;

/// The renderer before ranks: one owned (region, type) string pair per
/// row, sorted as strings.
fn reference_render(cloud: &SimCloud) -> String {
    let catalog = cloud.catalog();
    let mut rows: Vec<(String, String, u8, usize)> = cloud
        .advisor_table()
        .into_iter()
        .map(|((ty, region), entry)| {
            let range = InterruptionBucket::ALL
                .iter()
                .position(|b| *b == entry.bucket)
                .expect("bucket is one of the five");
            (
                catalog.region(region).code().to_owned(),
                catalog.ty(ty).name(),
                entry.savings.percent(),
                range,
            )
        })
        .collect();
    rows.sort();
    let mut out = String::new();
    out.push_str("{\n  \"updated\": ");
    out.push_str(&cloud.now().as_secs().to_string());
    out.push_str(",\n  \"rows\": [\n");
    for (i, (region, ty, savings, range)) in rows.iter().enumerate() {
        out.push_str("    {\"instance_type\": \"");
        out.push_str(ty);
        out.push_str("\", \"region\": \"");
        out.push_str(region);
        out.push_str("\", \"savings\": ");
        out.push_str(&savings.to_string());
        out.push_str(", \"interruption_range\": ");
        out.push_str(&range.to_string());
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// The scraper before fixed patterns: a `format!`-built pattern per field.
fn reference_scrape(document: &str) -> Result<Vec<AdvisorRow>, ApiError> {
    let failed = |detail: String| ApiError::ScrapeFailed { detail };
    let rows_start = document
        .find("\"rows\"")
        .ok_or_else(|| failed("missing rows array".into()))?;
    let body = &document[rows_start..];
    let open = body
        .find('[')
        .ok_or_else(|| failed("rows is not an array".into()))?;
    let close = body
        .rfind(']')
        .ok_or_else(|| failed("unterminated rows array".into()))?;
    let rows_body = &body[open + 1..close];
    let mut rows = Vec::new();
    for chunk in rows_body.split('{').skip(1) {
        let end = chunk
            .find('}')
            .ok_or_else(|| failed("unterminated row object".into()))?;
        let obj = &chunk[..end];
        let instance_type = reference_str(obj, "instance_type")?;
        let region = reference_str(obj, "region")?;
        let savings_pct: u8 = reference_num(obj, "savings")?;
        let range: usize = reference_num(obj, "interruption_range")?;
        let bucket = *InterruptionBucket::ALL
            .get(range)
            .ok_or_else(|| failed(format!("interruption_range {range} out of range")))?;
        let savings = Savings::from_percent(savings_pct)
            .map_err(|_| failed(format!("savings {savings_pct} out of range")))?;
        rows.push(AdvisorRow {
            instance_type,
            region,
            savings,
            bucket,
        });
    }
    Ok(rows)
}

fn reference_str(obj: &str, key: &str) -> Result<String, ApiError> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat).ok_or_else(|| ApiError::ScrapeFailed {
        detail: format!("missing field {key}"),
    })? + pat.len();
    let rest = &obj[start..];
    let end = rest.find('"').ok_or_else(|| ApiError::ScrapeFailed {
        detail: format!("unterminated string for {key}"),
    })?;
    Ok(rest[..end].to_owned())
}

fn reference_num<T: std::str::FromStr>(obj: &str, key: &str) -> Result<T, ApiError> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat).ok_or_else(|| ApiError::ScrapeFailed {
        detail: format!("missing field {key}"),
    })? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| ApiError::ScrapeFailed {
        detail: format!("bad number for {key}"),
    })
}

/// A small cloud, its types and regions added out of name order so ids
/// and ranks disagree, stepped `days` days (the advisor republishes
/// weekly).
fn small_cloud(days: u64) -> SimCloud {
    let mut b = CatalogBuilder::new();
    b.region("us-test-1", 2)
        .region("eu-test-1", 3)
        .region("ap-test-1", 1)
        .instance_type("r5.large", 0.126)
        .instance_type("c5.xlarge", 0.17)
        .instance_type("m5.large", 0.096)
        .instance_type("p3.2xlarge", 3.06)
        .hashed_support(true);
    let config = SimConfig {
        tick: SimDuration::from_hours(6),
        ..SimConfig::with_seed(days)
    };
    let mut cloud = SimCloud::new(b.build().expect("a valid test catalog"), config);
    cloud.run_days(days);
    cloud
}

/// Checks that both scrapers give the same result on `document`.
fn assert_scrapes_agree(document: &str, what: &str) {
    assert_eq!(
        AdvisorPage::scrape(document),
        reference_scrape(document),
        "{what}"
    );
}

#[test]
fn render_is_byte_identical_to_the_reference() {
    for days in [0, 3, 8, 30] {
        let cloud = small_cloud(days);
        assert_eq!(
            AdvisorPage::render(&cloud),
            reference_render(&cloud),
            "day {days}"
        );
    }
    let full = SimCloud::new(Catalog::aws_2022(), SimConfig::with_seed(42));
    let page = AdvisorPage::render(&full);
    assert_eq!(page, reference_render(&full));
    assert_eq!(AdvisorPage::scrape(&page).map(|r| r.len()), Ok(6981));
}

#[test]
fn scrapers_agree_on_clean_truncated_and_corrupted_pages() {
    for days in [0, 8] {
        let page = AdvisorPage::render(&small_cloud(days));
        assert_scrapes_agree(&page, "clean");
        // Every cut, including the fault's own (half the document).
        for cut in 0..=page.len() {
            assert_scrapes_agree(&page[..cut], &format!("cut at {cut}"));
        }
        // The corruption fault garbles one field name in every row.
        let garbled = page.replace("\"savings\"", "\"sav~ngs\"");
        assert!(AdvisorPage::scrape(&garbled).is_err());
        assert_scrapes_agree(&garbled, "sav~ngs");
        for cut in [garbled.len() / 3, garbled.len() / 2] {
            assert_scrapes_agree(&garbled[..cut], &format!("sav~ngs cut at {cut}"));
        }
    }
    let full = AdvisorPage::render(&SimCloud::new(
        Catalog::aws_2022(),
        SimConfig::with_seed(42),
    ));
    assert_scrapes_agree(&full.replace("\"savings\"", "\"sav~ngs\""), "full sav~ngs");
    for i in 0..8 {
        let cut = full.len() * i / 7;
        assert_scrapes_agree(&full[..cut], &format!("full cut at {cut}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary damage — a few bytes overwritten with the characters the
    /// scraper keys on — fails or succeeds identically.
    #[test]
    fn scrapers_agree_on_damaged_pages(
        days in 0u64..10,
        edits in prop::collection::vec((any::<u64>(), 0usize..12), 1..4),
    ) {
        let mut page = AdvisorPage::render(&small_cloud(days)).into_bytes();
        for (at, pick) in edits {
            let i = (at % page.len() as u64) as usize;
            page[i] = b"{}[]\":, 0a9~"[pick];
        }
        let page = String::from_utf8(page).expect("ASCII edits of an ASCII page");
        prop_assert_eq!(AdvisorPage::scrape(&page), reference_scrape(&page));
    }
}

/// Injections `client` has rolled so far, of every kind.
fn faults_rolled(client: &AdvisorClient) -> u64 {
    client.fault_counts().iter().map(|&(_, _, n)| n).sum()
}

/// What an unconditional fetch answers, as a conditional fetch spells it.
fn as_page(
    cloud: &SimCloud,
    fetched: Result<Vec<AdvisorRow>, ApiError>,
) -> Result<AdvisorFetch, ApiError> {
    fetched.map(|rows| AdvisorFetch::Page {
        etag: cloud.advisor_etag(),
        rows,
    })
}

#[test]
fn the_validator_changes_exactly_when_a_stepped_cloud_republishes() {
    let mut cloud = small_cloud(0);
    let published_at = |cloud: &SimCloud| cloud.advisor_table()[0].1.published_at;
    let mut republishes = 0;
    for _ in 0..4 * 40 {
        let (etag, at) = (cloud.advisor_etag(), published_at(&cloud));
        cloud.step();
        let republished = published_at(&cloud) != at;
        assert_eq!(
            cloud.advisor_etag() != etag,
            republished,
            "at {}",
            cloud.now().as_secs()
        );
        republishes += usize::from(republished);
    }
    assert!(republishes >= 5, "forty days hold five weekly republishes");
}

#[test]
fn not_modified_comes_back_exactly_when_the_validator_matches_and_no_fault_fires() {
    let plan = FaultPlan::uniform(5, 0.5);
    let client = || AdvisorClient::new().with_faults(FaultInjector::new(plan));
    // One client per validator, and one fetching unconditionally: all
    // four roll the same faults.
    let (mut plain, mut none, mut current, mut stale) = (client(), client(), client(), client());
    let mut cloud = small_cloud(0);
    let mut last = cloud.advisor_etag();
    let (mut not_modified, mut faulted) = (0, 0);
    for _ in 0..4 * 20 {
        cloud.step();
        let etag = cloud.advisor_etag();
        let old = if etag == last {
            etag.wrapping_add(1)
        } else {
            last
        };
        let before = faults_rolled(&plain);
        let want = as_page(&cloud, plain.fetch(&cloud));
        let fired = faults_rolled(&plain) > before;
        assert_eq!(none.fetch_if_none_match(&cloud, None), want);
        assert_eq!(stale.fetch_if_none_match(&cloud, Some(old)), want);
        let got = current.fetch_if_none_match(&cloud, Some(etag));
        if fired {
            assert_eq!(got, want, "a faulted call answers as an unconditional one");
            faulted += 1;
        } else {
            assert_eq!(got, Ok(AdvisorFetch::NotModified));
            not_modified += 1;
        }
        last = etag;
    }
    assert!(not_modified > 0 && faulted > 0, "both branches ran");
}

#[test]
fn every_fault_answers_as_the_unconditional_fetch_does() {
    let mut kinds = BTreeSet::new();
    for seed in 0..4 {
        let plan = FaultPlan::uniform(seed, 1.0);
        let client = || AdvisorClient::new().with_faults(FaultInjector::new(plan));
        let (mut plain, mut none, mut matching) = (client(), client(), client());
        let mut cloud = small_cloud(seed);
        for _ in 0..20 {
            cloud.step();
            let want = plain.fetch(&cloud);
            assert!(want.is_err(), "every call faults");
            let want = as_page(&cloud, want);
            let etag = cloud.advisor_etag();
            for (got, with) in [
                (none.fetch_if_none_match(&cloud, None), "no validator"),
                (
                    matching.fetch_if_none_match(&cloud, Some(etag)),
                    "a matching validator",
                ),
            ] {
                assert_eq!(got, want, "with {with}");
                assert_eq!(
                    got.unwrap_err().to_string(),
                    want.clone().unwrap_err().to_string(),
                    "with {with}"
                );
            }
        }
        kinds.extend(plain.fault_counts().into_iter().map(|(_, kind, _)| kind));
    }
    assert_eq!(
        kinds,
        BTreeSet::from([
            "corrupted",
            "throttled",
            "timeout",
            "truncated",
            "unavailable"
        ]),
        "every fault kind was met"
    );
}

#[test]
fn a_clone_that_diverges_and_republishes_never_shares_the_validator() {
    let mut cloud = small_cloud(3);
    let mut twin = cloud.clone();
    let shared = cloud.advisor_etag();
    assert_eq!(twin.advisor_etag(), shared, "one table, one validator");
    // The twin runs a tick ahead, so every republish lands on another
    // table.
    twin.step();
    let (mut seen, mut seen_by_twin) = (BTreeSet::new(), BTreeSet::new());
    for _ in 0..4 * 30 {
        cloud.step();
        twin.step();
        seen.insert(cloud.advisor_etag());
        seen_by_twin.insert(twin.advisor_etag());
    }
    // Both show the shared table until their first republish.
    assert!(seen.remove(&shared) && seen_by_twin.remove(&shared));
    assert!(seen_by_twin.len() > 3, "the twin republished");
    assert!(seen.is_disjoint(&seen_by_twin));
    // A cloud over another catalog neither.
    let other = SimCloud::new(Catalog::aws_2022(), SimConfig::with_seed(42));
    assert!(!seen.contains(&other.advisor_etag()));
    assert!(!seen_by_twin.contains(&other.advisor_etag()));
    // So a validator from one cloud fetches the other's page.
    let got = AdvisorClient::new().fetch_if_none_match(&twin, Some(cloud.advisor_etag()));
    assert_eq!(got, as_page(&twin, AdvisorClient::new().fetch(&twin)));
}
