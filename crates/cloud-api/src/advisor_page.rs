//! The spot instance advisor "web page".
//!
//! The advisor "is officially accessible via the website only, and it does
//! not support the programmatic access" (Section 2.2). The paper worked
//! around this with the open-source `spotinfo` scraper. This module
//! reproduces both sides: [`AdvisorPage::render`] produces the JSON document
//! the advisor website embeds, and [`AdvisorPage::scrape`] is the
//! `spotinfo`-equivalent parser that turns the document back into rows.
//!
//! The document format mirrors the real `spot-advisor-data.json` in spirit:
//! a flat row list with the savings percentage and the interruption-range
//! *index* (0 = `<5%` … 4 = `>20%`).

use crate::error::ApiError;
use crate::fault::{Fault, FaultInjector, FaultSurface};
use spotlake_cloud_sim::SimCloud;
use spotlake_types::{InterruptionBucket, Savings};
use std::fmt::Write;

/// One advisor row as shown on the website.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvisorRow {
    /// Instance type name.
    pub instance_type: String,
    /// Region code.
    pub region: String,
    /// Savings over on-demand.
    pub savings: Savings,
    /// Interruption frequency bucket.
    pub bucket: InterruptionBucket,
}

/// The advisor page: render and scrape.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvisorPage;

impl AdvisorPage {
    /// Renders the advisor website's embedded JSON document from the
    /// cloud's currently published advisor table. Rows are sorted by
    /// (region, instance type) — the website is stable between refreshes.
    pub fn render(cloud: &SimCloud) -> String {
        let catalog = cloud.catalog();
        let type_names: Vec<String> = catalog.instance_types().iter().map(|t| t.name()).collect();
        let type_rank = ranks(&type_names);
        let region_rank = ranks(
            &catalog
                .regions()
                .iter()
                .map(|r| r.code())
                .collect::<Vec<_>>(),
        );
        // (region, type) pairs are unique, so their ranks order the rows
        // totally: the order a sort on the code and name strings gives.
        let mut rows: Vec<_> = cloud
            .advisor_table()
            .into_iter()
            .map(|((ty, region), entry)| {
                let range = InterruptionBucket::ALL
                    .iter()
                    .position(|b| *b == entry.bucket)
                    .expect("bucket is one of the five");
                (
                    (region_rank[region.0 as usize], type_rank[ty.0 as usize]),
                    type_names[ty.0 as usize].as_str(),
                    catalog.region(region).code(),
                    entry.savings.percent(),
                    range,
                )
            })
            .collect();
        rows.sort_unstable_by_key(|row| row.0);

        let mut out = String::with_capacity(rows.len() * 96 + 64);
        out.push_str("{\n  \"updated\": ");
        let _ = write!(out, "{}", cloud.now().as_secs());
        out.push_str(",\n  \"rows\": [\n");
        for (i, &(_, ty, region, savings, range)) in rows.iter().enumerate() {
            out.push_str("    {\"instance_type\": \"");
            out.push_str(ty);
            out.push_str("\", \"region\": \"");
            out.push_str(region);
            out.push_str("\", \"savings\": ");
            let _ = write!(out, "{savings}");
            out.push_str(", \"interruption_range\": ");
            let _ = write!(out, "{range}");
            out.push('}');
            if i + 1 < rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Scrapes a rendered advisor document back into rows — the
    /// reproduction's `spotinfo`.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::ScrapeFailed`] when the document does not have
    /// the expected structure.
    pub fn scrape(document: &str) -> Result<Vec<AdvisorRow>, ApiError> {
        let rows_start = document
            .find("\"rows\"")
            .ok_or_else(|| ApiError::ScrapeFailed {
                detail: "missing rows array".into(),
            })?;
        let body = &document[rows_start..];
        let open = body.find('[').ok_or_else(|| ApiError::ScrapeFailed {
            detail: "rows is not an array".into(),
        })?;
        let close = body.rfind(']').ok_or_else(|| ApiError::ScrapeFailed {
            detail: "unterminated rows array".into(),
        })?;
        let rows_body = &body[open + 1..close];

        let mut rows = Vec::new();
        for chunk in rows_body.split('{').skip(1) {
            let end = chunk.find('}').ok_or_else(|| ApiError::ScrapeFailed {
                detail: "unterminated row object".into(),
            })?;
            let obj = &chunk[..end];
            let instance_type = extract_str(obj, &INSTANCE_TYPE)?;
            let region = extract_str(obj, &REGION)?;
            let savings_pct: u8 = extract_num(obj, &SAVINGS)?;
            let range: usize = extract_num(obj, &INTERRUPTION_RANGE)?;
            let bucket =
                *InterruptionBucket::ALL
                    .get(range)
                    .ok_or_else(|| ApiError::ScrapeFailed {
                        detail: format!("interruption_range {range} out of range"),
                    })?;
            let savings =
                Savings::from_percent(savings_pct).map_err(|_| ApiError::ScrapeFailed {
                    detail: format!("savings {savings_pct} out of range"),
                })?;
            rows.push(AdvisorRow {
                instance_type,
                region,
                savings,
                bucket,
            });
        }
        Ok(rows)
    }
}

/// What a conditional advisor fetch gets back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvisorFetch {
    /// `304 Not Modified`: the published table still carries the caller's
    /// validator, so the rows it scraped last are current.
    NotModified,
    /// The page, scraped, with the validator of the table it shows.
    Page {
        /// The published table's validator ([`SimCloud::advisor_etag`]).
        etag: u64,
        /// The scraped rows.
        rows: Vec<AdvisorRow>,
    },
}

/// Fetches the advisor page over the (simulated) network and scrapes it.
///
/// [`AdvisorPage`] models the page itself; this client models *getting*
/// it. With a fault injector installed, a fetch may fail in transit
/// (throttle / timeout / 503) or deliver a damaged body — truncated
/// mid-document or with a mangled field — which then fails in
/// [`AdvisorPage::scrape`] with [`ApiError::ScrapeFailed`], exactly as a
/// real scraper run against a flaky website would.
///
/// The client keeps no page: a caller that wants to skip unchanged pages
/// holds the validator itself and fetches with
/// [`AdvisorClient::fetch_if_none_match`], as an HTTP client sends
/// `If-None-Match`.
#[derive(Debug, Clone, Default)]
pub struct AdvisorClient {
    faults: Option<FaultInjector>,
}

impl AdvisorClient {
    /// Creates a client that fetches cleanly.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fault injector for fetches.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Fault injections rolled by this client so far, as
    /// `(surface, kind, count)`; empty without an injector.
    pub fn fault_counts(&self) -> Vec<(FaultSurface, &'static str, u64)> {
        self.faults
            .as_ref()
            .map(FaultInjector::fault_counts)
            .unwrap_or_default()
    }

    /// Fetches and scrapes the advisor page:
    /// [`AdvisorClient::fetch_if_none_match`] without a validator.
    ///
    /// # Errors
    ///
    /// * [`ApiError::Throttled`], [`ApiError::Timeout`], or
    ///   [`ApiError::ServiceUnavailable`] when the injected fetch fails in
    ///   transit.
    /// * [`ApiError::ScrapeFailed`] when the (possibly damaged) body does
    ///   not parse.
    ///
    /// All of these are retryable; see [`ApiError::is_retryable`].
    pub fn fetch(&mut self, cloud: &SimCloud) -> Result<Vec<AdvisorRow>, ApiError> {
        match self.fetch_if_none_match(cloud, None)? {
            AdvisorFetch::Page { rows, .. } => Ok(rows),
            AdvisorFetch::NotModified => unreachable!("a fetch without a validator gets the page"),
        }
    }

    /// Fetches the advisor page unless the published table still carries
    /// `etag`, the validator of the caller's last page.
    ///
    /// The fault roll comes first, once per call, as for an unconditional
    /// fetch. An injected transport error is returned as is; a damaged
    /// body is rendered, damaged and scraped in full — a matching
    /// validator does not spare it — so the same [`ApiError::ScrapeFailed`]
    /// comes back. Only a clean call whose validator matches gets
    /// [`AdvisorFetch::NotModified`].
    ///
    /// # Errors
    ///
    /// As [`AdvisorClient::fetch`].
    pub fn fetch_if_none_match(
        &mut self,
        cloud: &SimCloud,
        etag: Option<u64>,
    ) -> Result<AdvisorFetch, ApiError> {
        let fault = self
            .faults
            .as_mut()
            .and_then(|faults| faults.decide(FaultSurface::Advisor, "advisor-page", cloud.ticks()));
        let current = cloud.advisor_etag();
        let page = match fault {
            Some(Fault::Error(e)) => return Err(e),
            None if etag == Some(current) => return Ok(AdvisorFetch::NotModified),
            None => AdvisorPage::render(cloud),
            Some(Fault::TruncatedBody) => {
                // The connection dropped mid-transfer: keep a prefix.
                let mut page = AdvisorPage::render(cloud);
                page.truncate(page.len() / 2);
                page
            }
            Some(Fault::CorruptedBody) => {
                // A field name arrives garbled; every row is affected.
                AdvisorPage::render(cloud).replace("\"savings\"", "\"sav~ngs\"")
            }
        };
        Ok(AdvisorFetch::Page {
            etag: current,
            rows: AdvisorPage::scrape(&page)?,
        })
    }
}

/// Each entry's position in the sorted order of `names`.
fn ranks<S: AsRef<str>>(names: &[S]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_unstable_by(|&a, &b| names[a].as_ref().cmp(names[b].as_ref()));
    let mut rank = vec![0; names.len()];
    for (r, i) in order.into_iter().enumerate() {
        rank[i] = r as u32;
    }
    rank
}

/// A row field of the advisor document: its name, for error details, and
/// the text its value follows.
struct Field {
    name: &'static str,
    prefix: &'static str,
}

const INSTANCE_TYPE: Field = Field {
    name: "instance_type",
    prefix: "\"instance_type\": \"",
};
const REGION: Field = Field {
    name: "region",
    prefix: "\"region\": \"",
};
const SAVINGS: Field = Field {
    name: "savings",
    prefix: "\"savings\": ",
};
const INTERRUPTION_RANGE: Field = Field {
    name: "interruption_range",
    prefix: "\"interruption_range\": ",
};

fn extract_str(obj: &str, field: &Field) -> Result<String, ApiError> {
    let start = obj
        .find(field.prefix)
        .ok_or_else(|| ApiError::ScrapeFailed {
            detail: format!("missing field {}", field.name),
        })?
        + field.prefix.len();
    let rest = &obj[start..];
    let end = rest.find('"').ok_or_else(|| ApiError::ScrapeFailed {
        detail: format!("unterminated string for {}", field.name),
    })?;
    Ok(rest[..end].to_owned())
}

fn extract_num<T: std::str::FromStr>(obj: &str, field: &Field) -> Result<T, ApiError> {
    let start = obj
        .find(field.prefix)
        .ok_or_else(|| ApiError::ScrapeFailed {
            detail: format!("missing field {}", field.name),
        })?
        + field.prefix.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| ApiError::ScrapeFailed {
        detail: format!("bad number for {}", field.name),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_cloud_sim::SimConfig;
    use spotlake_types::CatalogBuilder;

    fn small_cloud() -> SimCloud {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .region("eu-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        SimCloud::new(b.build().unwrap(), SimConfig::default())
    }

    #[test]
    fn render_scrape_roundtrip() {
        let cloud = small_cloud();
        let page = AdvisorPage::render(&cloud);
        let rows = AdvisorPage::scrape(&page).unwrap();
        // 2 types × 2 regions.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let ty = cloud
                .catalog()
                .instance_type_id(&row.instance_type)
                .unwrap();
            let region = cloud.catalog().region_id(&row.region).unwrap();
            let entry = cloud.advisor_entry(ty, region).unwrap();
            assert_eq!(entry.bucket, row.bucket);
            assert_eq!(entry.savings, row.savings);
        }
    }

    #[test]
    fn render_is_stable() {
        let cloud = small_cloud();
        assert_eq!(AdvisorPage::render(&cloud), AdvisorPage::render(&cloud));
    }

    #[test]
    fn scrape_rejects_garbage() {
        assert!(AdvisorPage::scrape("<html>not the advisor</html>").is_err());
        assert!(AdvisorPage::scrape("{\"rows\": [{\"instance_type\": \"x\"}]}").is_err());
        assert!(AdvisorPage::scrape(
            "{\"rows\": [{\"instance_type\": \"a\", \"region\": \"r\", \"savings\": 10, \"interruption_range\": 9}]}"
        )
        .is_err());
    }

    #[test]
    fn client_without_faults_matches_direct_scrape() {
        let cloud = small_cloud();
        let direct = AdvisorPage::scrape(&AdvisorPage::render(&cloud)).unwrap();
        let fetched = AdvisorClient::new().fetch(&cloud).unwrap();
        assert_eq!(direct, fetched);
    }

    #[test]
    fn faulted_client_fails_retryably_and_can_damage_bodies() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut cloud = small_cloud();
        let mut client =
            AdvisorClient::new().with_faults(FaultInjector::new(FaultPlan::uniform(2, 1.0)));
        let mut scrape_failures = 0;
        for _ in 0..40 {
            cloud.step();
            let err = client.fetch(&cloud).unwrap_err();
            assert!(err.is_retryable());
            if matches!(err, ApiError::ScrapeFailed { .. }) {
                scrape_failures += 1;
            }
        }
        assert!(
            scrape_failures > 0,
            "body damage should surface as scrape failures"
        );
    }

    #[test]
    fn scrape_empty_rows() {
        let rows = AdvisorPage::scrape("{\"updated\": 0, \"rows\": []}").unwrap();
        assert!(rows.is_empty());
    }
}
