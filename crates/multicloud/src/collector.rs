//! The multi-vendor collection loop.
//!
//! One [`MultiCloudCollector`] owns one simulated cloud per vendor, steps
//! them on a shared clock, and writes everything into a single archive
//! whose records carry `vendor`, `sku`, `shape`, and `region` dimensions —
//! "we are currently developing data collection for multiple vendors using
//! the timestamp as a global key" (Section 7). What gets collected per
//! vendor follows the access matrix: a dataset a vendor does not publish is
//! simply absent from the archive.

use crate::catalogs::{aws_skus, azure_catalog, gcp_catalog};
use crate::sku::VendorSku;
use crate::vendor::Vendor;
use spotlake_cloud_api::AdvisorPage;
use spotlake_cloud_sim::{SimCloud, SimConfig};
use spotlake_timestream::{Database, Record, TableOptions, TsError, WriteMode};
use spotlake_types::{Catalog, SimDuration, TypesError};
use std::error::Error;
use std::fmt;

/// Table holding all vendors' spot prices and savings.
pub const MC_PRICE_TABLE: &str = "mc_price";
/// Table holding availability scores (vendors that publish them).
pub const MC_AVAILABILITY_TABLE: &str = "mc_availability";
/// Table holding eviction/interruption scores (vendors that publish them).
pub const MC_EVICTION_TABLE: &str = "mc_eviction";

/// Errors from the multi-vendor pipeline.
#[derive(Debug)]
pub enum MultiCloudError {
    /// Catalog construction failed.
    Types(TypesError),
    /// Archive writes failed.
    Store(TsError),
    /// The advisor portal scrape failed.
    Api(spotlake_cloud_api::ApiError),
}

impl fmt::Display for MultiCloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MultiCloudError::Types(e) => write!(f, "catalog error: {e}"),
            MultiCloudError::Store(e) => write!(f, "store error: {e}"),
            MultiCloudError::Api(e) => write!(f, "portal error: {e}"),
        }
    }
}

impl Error for MultiCloudError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MultiCloudError::Types(e) => Some(e),
            MultiCloudError::Store(e) => Some(e),
            MultiCloudError::Api(e) => Some(e),
        }
    }
}

impl From<TypesError> for MultiCloudError {
    fn from(e: TypesError) -> Self {
        MultiCloudError::Types(e)
    }
}

impl From<TsError> for MultiCloudError {
    fn from(e: TsError) -> Self {
        MultiCloudError::Store(e)
    }
}

impl From<spotlake_cloud_api::ApiError> for MultiCloudError {
    fn from(e: spotlake_cloud_api::ApiError) -> Self {
        MultiCloudError::Api(e)
    }
}

/// Per-vendor collection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorStats {
    /// The vendor.
    pub vendor: Vendor,
    /// Price records written.
    pub price_records: usize,
    /// Availability records written.
    pub availability_records: usize,
    /// Eviction records written.
    pub eviction_records: usize,
}

struct VendorRuntime {
    vendor: Vendor,
    cloud: SimCloud,
    skus: Vec<VendorSku>,
}

/// The multi-vendor collector: shared clock, one archive.
pub struct MultiCloudCollector {
    runtimes: Vec<VendorRuntime>,
    db: Database,
}

impl fmt::Debug for MultiCloudCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiCloudCollector")
            .field("vendors", &self.runtimes.len())
            .field("points", &self.db.point_count())
            .finish()
    }
}

impl MultiCloudCollector {
    /// Builds the demo-scale pipeline: a small AWS slice plus the full
    /// Azure and GCP demo fleets, all on a 30-minute tick.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCloudError::Types`] if a builtin catalog table is
    /// inconsistent (a bug).
    pub fn demo_scale() -> Result<Self, MultiCloudError> {
        let aws_watchlist: Vec<String> = [
            "m5.large",
            "m5.xlarge",
            "m5.2xlarge",
            "c5.xlarge",
            "r5.xlarge",
            "p3.2xlarge",
            "g4dn.xlarge",
            "i3.xlarge",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        Self::new(&aws_watchlist, SimDuration::from_mins(30), 20_220_901)
    }

    /// Builds the pipeline with an explicit AWS watchlist, tick, and seed.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCloudError::Types`] if a builtin catalog table is
    /// inconsistent (a bug).
    pub fn new(
        aws_watchlist: &[String],
        tick: SimDuration,
        seed: u64,
    ) -> Result<Self, MultiCloudError> {
        let config = |seed_salt: u64| SimConfig {
            tick,
            shock_day: None,
            ..SimConfig::with_seed(seed ^ seed_salt)
        };

        let aws_catalog = Catalog::aws_2022();
        let skus = aws_skus(&aws_catalog, aws_watchlist);
        let aws = VendorRuntime {
            vendor: Vendor::Aws,
            cloud: SimCloud::new(aws_catalog, config(0)),
            skus,
        };
        let (azure_cat, azure_skus) = azure_catalog()?;
        let azure = VendorRuntime {
            vendor: Vendor::Azure,
            cloud: SimCloud::new(azure_cat, config(0xA2)),
            skus: azure_skus,
        };
        let (gcp_cat, gcp_skus) = gcp_catalog()?;
        let gcp = VendorRuntime {
            vendor: Vendor::Gcp,
            cloud: SimCloud::new(gcp_cat, config(0x6C)),
            skus: gcp_skus,
        };

        let mut db = Database::new();
        db.create_table(
            MC_PRICE_TABLE,
            TableOptions {
                mode: WriteMode::ChangePoint,
                retention: None,
            },
        )
        .expect("fresh database");
        db.create_table(
            MC_AVAILABILITY_TABLE,
            TableOptions {
                mode: WriteMode::Dense,
                retention: None,
            },
        )
        .expect("fresh database");
        db.create_table(
            MC_EVICTION_TABLE,
            TableOptions {
                mode: WriteMode::ChangePoint,
                retention: None,
            },
        )
        .expect("fresh database");

        Ok(MultiCloudCollector {
            runtimes: vec![aws, azure, gcp],
            db,
        })
    }

    /// The unified archive.
    pub fn archive(&self) -> &Database {
        &self.db
    }

    /// The vendors being collected.
    pub fn vendors(&self) -> Vec<Vendor> {
        self.runtimes.iter().map(|r| r.vendor).collect()
    }

    /// The SKU table of one vendor.
    pub fn skus(&self, vendor: Vendor) -> &[VendorSku] {
        self.runtimes
            .iter()
            .find(|r| r.vendor == vendor)
            .map(|r| r.skus.as_slice())
            .unwrap_or(&[])
    }

    /// Steps every vendor's cloud one tick (the shared global clock) and
    /// collects whatever each vendor publishes, `rounds` times. Returns the
    /// per-vendor totals.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCloudError`] on portal-scrape or store failures.
    pub fn run_rounds(&mut self, rounds: u64) -> Result<Vec<VendorStats>, MultiCloudError> {
        let mut totals: Vec<VendorStats> = self
            .runtimes
            .iter()
            .map(|r| VendorStats {
                vendor: r.vendor,
                price_records: 0,
                availability_records: 0,
                eviction_records: 0,
            })
            .collect();
        for _ in 0..rounds {
            for (i, runtime) in self.runtimes.iter_mut().enumerate() {
                runtime.cloud.step();
                let stats = collect_vendor(&mut self.db, runtime)?;
                totals[i].price_records += stats.price_records;
                totals[i].availability_records += stats.availability_records;
                totals[i].eviction_records += stats.eviction_records;
            }
        }
        Ok(totals)
    }
}

/// One vendor's collection round, honoring its dataset-access matrix.
fn collect_vendor(
    db: &mut Database,
    runtime: &mut VendorRuntime,
) -> Result<VendorStats, MultiCloudError> {
    let access = runtime.vendor.dataset_access();
    let cloud = &runtime.cloud;
    let catalog = cloud.catalog();
    let now = cloud.now().as_secs();
    let vendor = runtime.vendor.tag();

    let mut price_records = Vec::new();
    let mut availability_records = Vec::new();

    for sku in &runtime.skus {
        let Some(ty) = catalog.instance_type_id(&sku.internal_type) else {
            continue;
        };
        for region in catalog.region_ids() {
            let code = catalog.region(region).code();
            // Price: every vendor publishes it somewhere (API or portal).
            // Portal-only vendors (GCP) expose only the *current* price —
            // which is precisely why archiving it adds value.
            if access.price.is_collectable() {
                let Some(&az) = catalog
                    .azs_of_region(region)
                    .iter()
                    .find(|&&az| catalog.supports(ty, az))
                else {
                    continue;
                };
                if let Some(price) = cloud.spot_price(ty, az) {
                    let od = catalog.od_price_in(ty, region);
                    let savings = price.savings_over(od);
                    price_records.push(
                        Record::new(now, "spot_price", price.as_usd())
                            .dimension("vendor", vendor)
                            .dimension("sku", &sku.native_name)
                            .dimension("shape", sku.shape.key())
                            .dimension("region", code),
                    );
                    price_records.push(
                        Record::new(now, "savings", f64::from(savings.percent()))
                            .dimension("vendor", vendor)
                            .dimension("sku", &sku.native_name)
                            .dimension("shape", sku.shape.key())
                            .dimension("region", code),
                    );
                }
            }
            // Availability: AWS via API, Azure via portal, GCP not at all.
            if access.availability.is_collectable() {
                if let Some(score) = cloud.placement_score_region(ty, region, 1) {
                    availability_records.push(
                        Record::new(now, "availability", f64::from(score.value()))
                            .dimension("vendor", vendor)
                            .dimension("sku", &sku.native_name)
                            .dimension("shape", sku.shape.key())
                            .dimension("region", code),
                    );
                }
            }
        }
    }

    // Eviction/interruption: scraped from the vendor's portal page where
    // published (AWS advisor, Azure eviction rates).
    let mut eviction_records = Vec::new();
    if access.interruption.is_collectable() {
        let page = AdvisorPage::render(cloud);
        let sku_by_internal: std::collections::HashMap<&str, &VendorSku> = runtime
            .skus
            .iter()
            .map(|s| (s.internal_type.as_str(), s))
            .collect();
        for row in AdvisorPage::scrape(&page)? {
            let Some(sku) = sku_by_internal.get(row.instance_type.as_str()) else {
                continue;
            };
            eviction_records.push(
                Record::new(
                    now,
                    "eviction_score",
                    row.bucket.interruption_free_score().as_f64(),
                )
                .dimension("vendor", vendor)
                .dimension("sku", &sku.native_name)
                .dimension("shape", sku.shape.key())
                .dimension("region", &row.region),
            );
        }
    }

    let price_n = price_records.len();
    let avail_n = availability_records.len();
    let evict_n = eviction_records.len();
    db.write(MC_PRICE_TABLE, &price_records)?;
    db.write(MC_AVAILABILITY_TABLE, &availability_records)?;
    db.write(MC_EVICTION_TABLE, &eviction_records)?;
    Ok(VendorStats {
        vendor: runtime.vendor,
        price_records: price_n,
        availability_records: avail_n,
        eviction_records: evict_n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_timestream::Query;

    #[test]
    fn demo_pipeline_collects_per_access_matrix() {
        let mut collector = MultiCloudCollector::demo_scale().expect("builtin catalogs");
        let totals = collector.run_rounds(3).expect("collection runs");
        assert_eq!(totals.len(), 3);

        let by_vendor = |v: Vendor| *totals.iter().find(|s| s.vendor == v).expect("present");
        // Everyone has prices.
        for v in Vendor::ALL {
            assert!(by_vendor(v).price_records > 0, "{v} has no prices");
        }
        // GCP publishes neither availability nor eviction data.
        assert_eq!(by_vendor(Vendor::Gcp).availability_records, 0);
        assert_eq!(by_vendor(Vendor::Gcp).eviction_records, 0);
        // AWS and Azure publish both.
        assert!(by_vendor(Vendor::Aws).availability_records > 0);
        assert!(by_vendor(Vendor::Azure).availability_records > 0);
        assert!(by_vendor(Vendor::Aws).eviction_records > 0);
        assert!(by_vendor(Vendor::Azure).eviction_records > 0);
    }

    #[test]
    fn archive_joins_on_vendor_and_shape() {
        let mut collector = MultiCloudCollector::demo_scale().expect("builtin catalogs");
        collector.run_rounds(2).expect("collection runs");
        let db = collector.archive();

        // The 4c-16g shape exists for all three vendors in the price table.
        for v in Vendor::ALL {
            let rows = db
                .query(
                    MC_PRICE_TABLE,
                    &Query::measure("spot_price")
                        .filter("vendor", v.tag())
                        .filter("shape", "4c-16g"),
                )
                .expect("price table exists");
            assert!(!rows.is_empty(), "no 4c-16g prices for {v}");
        }
        // Azure rows carry native SKU names.
        let azure = db
            .query(
                MC_PRICE_TABLE,
                &Query::measure("spot_price").filter("vendor", "azure"),
            )
            .expect("price table exists");
        assert!(azure.iter().any(|r| r
            .dimensions()
            .iter()
            .any(|(k, v)| k == "sku" && v.starts_with("Standard_"))));
    }

    #[test]
    fn skus_accessible() {
        let collector = MultiCloudCollector::demo_scale().expect("builtin catalogs");
        assert!(!collector.skus(Vendor::Azure).is_empty());
        assert!(!collector.skus(Vendor::Gcp).is_empty());
        assert_eq!(
            collector.vendors(),
            vec![Vendor::Aws, Vendor::Azure, Vendor::Gcp]
        );
    }
}
