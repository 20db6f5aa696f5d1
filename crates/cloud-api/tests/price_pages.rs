//! Price pages equal a reference assembler's, page by page.
//!
//! `PriceClient::describe_spot_price_history` orders a request's records by
//! (timestamp, type name, zone name) through integer ranks and names only
//! the page it returns, with names borrowed from the request and the
//! catalog. The reference below is the assembler it replaced: every record
//! of the window materialised with its names, string-sorted, then paged.
//! Pages compare by the names' text, so the reference borrows its own. Over generated catalogs, histories,
//! windows, type lists and zone filters, every page and every continuation
//! token must come out the same, errors included.

use proptest::prelude::*;
use spotlake_cloud_api::{
    ApiError, FaultInjector, FaultPlan, PriceClient, PricePage, PricePoint, PriceRequest,
};
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_types::{CatalogBuilder, SimDuration, SimTime};

/// The API's page size and lookback, as the reference assumes them.
const PAGE_SIZE: usize = 1000;
const LOOKBACK: SimDuration = SimDuration::from_days(90);

/// Instance types a generated catalog draws from, deliberately not in
/// name order, so catalog ids and name ranks disagree.
const TYPES: [&str; 6] = [
    "r5.large",
    "c5.xlarge",
    "m5.large",
    "p3.2xlarge",
    "a1.medium",
    "g4dn.xlarge",
];
/// Regions, likewise out of code order.
const REGIONS: [&str; 3] = ["us-test-1", "eu-test-1", "ap-test-1"];

/// The string-sorting page assembler the API used before ranks: clamp the
/// window, materialise every record, sort on the strings, then page.
fn reference_page<'a>(
    cloud: &'a SimCloud,
    instance_types: &'a [String],
    availability_zone: Option<&str>,
    start: SimTime,
    end: SimTime,
    page_token: Option<&str>,
) -> Result<PricePage<'a>, ApiError> {
    let catalog = cloud.catalog();
    let offset: usize = match page_token {
        None => 0,
        Some(t) => t.parse().map_err(|_| ApiError::BadPageToken)?,
    };
    let horizon = cloud
        .now()
        .checked_since(SimTime::EPOCH + LOOKBACK)
        .map_or(SimTime::EPOCH, |d| SimTime::EPOCH + d);
    let start = start.max(horizon);
    let end = end.min(cloud.now());
    let zones: Vec<_> = match availability_zone {
        Some(name) => vec![catalog.az_id(name).ok_or_else(|| ApiError::UnknownEntity {
            kind: "availability zone",
            name: name.to_owned(),
        })?],
        None => catalog.az_ids().collect(),
    };
    let mut records = Vec::new();
    for name in instance_types {
        let ty = catalog
            .instance_type_id(name)
            .ok_or_else(|| ApiError::UnknownEntity {
                kind: "instance type",
                name: name.clone(),
            })?;
        for &az in &zones {
            for &(timestamp, price) in cloud.price_history(ty, az, start, end) {
                records.push(PricePoint {
                    timestamp,
                    instance_type: name,
                    availability_zone: catalog.az(az).name(),
                    price,
                });
            }
        }
    }
    records.sort_by(|a, b| {
        a.timestamp
            .cmp(&b.timestamp)
            .then_with(|| a.instance_type.cmp(b.instance_type))
            .then_with(|| a.availability_zone.cmp(b.availability_zone))
    });
    let page: Vec<PricePoint> = records
        .iter()
        .skip(offset)
        .take(PAGE_SIZE)
        .copied()
        .collect();
    let next_token = if offset + page.len() < records.len() {
        Some((offset + page.len()).to_string())
    } else {
        None
    };
    Ok(PricePage {
        records: page,
        next_token,
    })
}

/// A small catalog: the first `regions` regions with `azs` zones each and
/// the first `types` instance types, optionally with partial support (so
/// some (type, zone) pairs have no pool and no history), stepped `days`
/// days at a 6-hour tick — one price refresh per tick.
fn cloud(regions: usize, azs: u8, types: usize, partial: bool, days: u64) -> SimCloud {
    let mut b = CatalogBuilder::new();
    for code in &REGIONS[..regions] {
        b.region(code, azs);
    }
    for name in &TYPES[..types] {
        b.instance_type(name, 0.25);
    }
    b.hashed_support(partial);
    let config = SimConfig {
        tick: SimDuration::from_hours(6),
        ..SimConfig::with_seed(days)
    };
    let mut cloud = SimCloud::new(b.build().expect("a valid test catalog"), config);
    cloud.run_days(days);
    cloud
}

/// The request window for `shape`: the whole history, a single instant, a
/// window before any change after the epoch, or an arbitrary window that
/// may run past the cloud's clock.
fn window(cloud: &SimCloud, shape: u8, a: u64, b: u64) -> (SimTime, SimTime) {
    let now = cloud.now().as_secs();
    match shape {
        0 => (SimTime::EPOCH, cloud.now()),
        1 => {
            let t = SimTime::from_secs(a % (now + 1));
            (t, t)
        }
        2 => (SimTime::from_secs(1), SimTime::from_secs(1 + a % 3600)),
        _ => {
            let (lo, hi) = (a % (now + 86_400), b % (now + 86_400));
            (
                SimTime::from_secs(lo.min(hi)),
                SimTime::from_secs(lo.max(hi)),
            )
        }
    }
}

/// Walks every page of `request` through `client`, comparing each page and
/// token with the reference's, then checks a token past the end.
fn walk(
    cloud: &SimCloud,
    client: &mut PriceClient,
    request: &PriceRequest,
    types: &[String],
    zone: Option<&str>,
    (start, end): (SimTime, SimTime),
) -> Result<usize, TestCaseError> {
    let mut token: Option<String> = None;
    let mut pages = 0;
    loop {
        let got = client.describe_spot_price_history(cloud, request, token.as_deref());
        let want = reference_page(cloud, types, zone, start, end, token.as_deref());
        prop_assert_eq!(&got, &want, "page {} (token {:?})", pages, token);
        pages += 1;
        match got {
            Ok(PricePage {
                next_token: Some(next),
                ..
            }) => token = Some(next),
            _ => break,
        }
    }
    let past = Some("1000000");
    prop_assert_eq!(
        client.describe_spot_price_history(cloud, request, past),
        reference_page(cloud, types, zone, start, end, past)
    );
    Ok(pages)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pages_and_tokens_equal_the_string_sorted_reference(
        (regions, azs, types, partial) in (1usize..=3, 1u8..=4, 1usize..=6, any::<bool>()),
        days in prop_oneof![Just(0u64), 1u64..40, 91u64..130],
        (shape, a, b) in (0u8..4, any::<u64>(), any::<u64>()),
        picks in prop::collection::vec(0usize..6, 1..7),
        unknown_type in 0usize..10,
        zone_pick in 0usize..16,
    ) {
        let cloud = cloud(regions, azs, types, partial, days);
        let catalog = cloud.catalog();
        // Picks repeat names freely; an unknown name lands in the list one
        // case in five, at a position the picks choose.
        let mut names: Vec<String> = picks.iter().map(|&i| TYPES[i % types].to_owned()).collect();
        if unknown_type < names.len() && unknown_type % 2 == 0 {
            names.insert(unknown_type, "warp9.huge".to_owned());
        }
        let az_names: Vec<&str> = catalog.azs().iter().map(|az| az.name()).collect();
        let zone = match zone_pick {
            i if i < az_names.len() => Some(az_names[i]),
            15 => Some("mars-1a"),
            _ => None,
        };
        let (start, end) = window(&cloud, shape, a, b);
        let mut request = PriceRequest::new(names.clone(), start, end).expect("start <= end");
        if let Some(z) = zone {
            request = request.availability_zone(z);
        }
        let mut client = PriceClient::new();
        walk(&cloud, &mut client, &request, &names, zone, (start, end))?;

        // A malformed token is the caller's bug: rejected before the fault
        // injector rolls anything, even at a 100 % fault rate.
        let mut faulty = PriceClient::new().with_faults(FaultInjector::new(FaultPlan::uniform(a, 1.0)));
        prop_assert_eq!(
            faulty.describe_spot_price_history(&cloud, &request, Some("p2")),
            Err(ApiError::BadPageToken)
        );
        prop_assert!(faulty.fault_counts().iter().all(|&(_, _, n)| n == 0));
    }
}

/// The generator reaches what it is for: multi-page walks, and the window
/// clamp cutting into a history older than the lookback.
#[test]
fn generated_shapes_include_multi_page_walks_and_the_lookback_clamp() {
    let cloud = cloud(3, 4, 6, false, 120);
    let names: Vec<String> = TYPES.iter().map(|&t| t.to_owned()).collect();
    let (start, end) = (SimTime::EPOCH, cloud.now());
    let request = PriceRequest::new(names.clone(), start, end).expect("start <= end");
    let pages = walk(
        &cloud,
        &mut PriceClient::new(),
        &request,
        &names,
        None,
        (start, end),
    )
    .expect("pages equal the reference");
    assert!(pages > 2, "{pages} pages");
    let first = PriceClient::new()
        .describe_spot_price_history(&cloud, &request, None)
        .expect("a valid request");
    // Only the price in effect at the clamped start, one per pool, may
    // predate the lookback.
    let horizon = cloud.now().as_secs() - LOOKBACK.as_secs();
    let older = first
        .records
        .iter()
        .filter(|r| r.timestamp.as_secs() < horizon)
        .count();
    assert!(
        older > 0 && older <= cloud.pool_count(),
        "{older} older records"
    );
}
