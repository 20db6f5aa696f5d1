//! One id per series, from the first sight of its pool.
//!
//! Each dataset collector keeps a [`PoolSeries`]: its series in a
//! [`SeriesBook`], and a dense table from pool — (instance type, zone) for
//! placement scores and prices, (instance type, region) for the advisor —
//! to the pool's ids. The first time a round observes a pool, its series
//! are booked under names spelled from the catalog; every later
//! observation is an index into the table. Nothing is booked before a
//! round observes it, so building a collector costs nothing per pool.
//!
//! The API answers with names. They become catalog ids through the
//! catalog's own name tables — a name the catalog lacks, or a zone missing
//! from a per-zone answer, is [`ApiError::UnknownEntity`], never a panic
//! and never a new series.

use spotlake_cloud_api::ApiError;
use spotlake_timestream::{Point, Record, SeriesBook, SeriesRef};
use spotlake_types::{AzId, Catalog, InstanceTypeId, RegionId};

/// A pool no round has observed yet.
const UNSEEN: SeriesRef = SeriesRef::MAX;

/// One dataset's series, each with one dense id, and which pool's series
/// each id is: booked when a round first observes the pool.
#[derive(Debug, Clone)]
pub struct PoolSeries {
    /// The measures of a pool's series, in booking order: a pool's ids
    /// are consecutive, this many from its first.
    measures: &'static [&'static str],
    book: SeriesBook,
    /// Pool (type × location) → the id of its first series, or
    /// [`UNSEEN`].
    first: Vec<SeriesRef>,
    /// Locations per type in `first`.
    locations: usize,
}

impl PoolSeries {
    /// An empty table for a dataset whose pools carry `measures`.
    pub(crate) fn new(measures: &'static [&'static str]) -> Self {
        PoolSeries {
            measures,
            book: SeriesBook::new(),
            first: Vec::new(),
            locations: 0,
        }
    }

    /// The book every id indexes.
    pub fn book(&self) -> &SeriesBook {
        &self.book
    }

    /// The book, for a write that resolves its series in the store.
    pub(crate) fn book_mut(&mut self) -> &mut SeriesBook {
        &mut self.book
    }

    /// The id of the first series of pool (`ty`, zone `az`), booked now —
    /// dimensions `az`, `instance_type`, `region` — if no round saw the
    /// pool before.
    pub(crate) fn zone_pool(
        &mut self,
        catalog: &Catalog,
        ty: InstanceTypeId,
        az: AzId,
    ) -> SeriesRef {
        let zones = catalog.azs().len();
        self.first_id(catalog, ty, zones, usize::from(az.0), |book, measure| {
            let zone = catalog.az(az);
            book.define(
                measure,
                [
                    ("az", zone.name()),
                    ("instance_type", catalog.ty(ty).name().as_str()),
                    ("region", catalog.region(zone.region()).code()),
                ],
            )
        })
    }

    /// The id of the first series of pool (`ty`, `region`), booked now —
    /// dimensions `instance_type`, `region` — if no round saw the pool
    /// before.
    pub(crate) fn region_pool(
        &mut self,
        catalog: &Catalog,
        ty: InstanceTypeId,
        region: RegionId,
    ) -> SeriesRef {
        let (regions, at) = (catalog.regions().len(), usize::from(region.0));
        self.first_id(catalog, ty, regions, at, |book, measure| {
            book.define(
                measure,
                [
                    ("instance_type", catalog.ty(ty).name().as_str()),
                    ("region", catalog.region(region).code()),
                ],
            )
        })
    }

    /// The id of the first series of pool (`ty`, `location`): booked now,
    /// if no round saw the pool before, by `define` for the first measure
    /// and over the same dimensions for the others.
    fn first_id(
        &mut self,
        catalog: &Catalog,
        ty: InstanceTypeId,
        locations: usize,
        location: usize,
        define: impl FnOnce(&mut SeriesBook, &str) -> SeriesRef,
    ) -> SeriesRef {
        let pools = catalog.instance_types().len() * locations;
        if self.locations != locations || self.first.len() != pools {
            // Sized for the catalog of the first round. Another catalog's
            // pools are booked afresh: the ids they had stay in the book,
            // and the store resolves both to the same series by key.
            self.first = vec![UNSEEN; pools];
            self.locations = locations;
        }
        let slot = ty.0 as usize * locations + location;
        match self.first.get(slot) {
            Some(&id) if id != UNSEEN => id,
            _ => {
                let Some((first, others)) = self.measures.split_first() else {
                    return UNSEEN;
                };
                let id = define(&mut self.book, first);
                for m in others {
                    self.book.define_sharing(m, id);
                }
                if let Some(slot) = self.first.get_mut(slot) {
                    *slot = id;
                }
                id
            }
        }
    }

    /// `points` spelled as the records they stand for, in order — what
    /// the collectors' `collect_with` return.
    pub(crate) fn records(&self, points: &[Point]) -> Vec<Record> {
        points.iter().map(|p| self.book.record(p)).collect()
    }
}

/// One advisor or price sweep by series id: the points of the
/// collector's [`PoolSeries`], or — when a fetch kept failing after its
/// retries — no points and the retryable error that ended the sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepPoints {
    /// Points collected (none when the sweep failed).
    pub points: Vec<Point>,
    /// Retry attempts spent beyond each fetch's first call, the failed
    /// fetch's included.
    pub retries: usize,
    /// The retryable error the sweep failed with, after its retries.
    pub error: Option<ApiError>,
}

impl SweepPoints {
    /// The sweep as the records it stands for, or its error.
    pub(crate) fn into_records(
        self,
        series: &PoolSeries,
    ) -> Result<(Vec<Record>, usize), ApiError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((series.records(&self.points), self.retries)),
        }
    }
}

/// The catalog id of instance type `name`.
pub(crate) fn type_id(catalog: &Catalog, name: &str) -> Result<InstanceTypeId, ApiError> {
    catalog
        .instance_type_id(name)
        .ok_or_else(|| unknown("instance type", name))
}

/// The catalog id of zone `name`; a per-zone answer without one is as
/// unusable as an unknown zone.
pub(crate) fn zone_id(catalog: &Catalog, name: Option<&str>) -> Result<AzId, ApiError> {
    let name = name.ok_or_else(|| unknown("availability zone", "(missing)"))?;
    catalog
        .az_id(name)
        .ok_or_else(|| unknown("availability zone", name))
}

/// The catalog id of region `code`.
pub(crate) fn region_id(catalog: &Catalog, code: &str) -> Result<RegionId, ApiError> {
    catalog
        .region_id(code)
        .ok_or_else(|| unknown("region", code))
}

fn unknown(kind: &'static str, name: &str) -> ApiError {
    ApiError::UnknownEntity {
        kind,
        name: name.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_types::CatalogBuilder;

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .region("eu-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        b.build().unwrap()
    }

    #[test]
    fn names_map_to_catalog_ids_or_fail_closed() {
        let c = catalog();
        let ty = type_id(&c, "p3.2xlarge").unwrap();
        assert_eq!(c.ty(ty).name(), "p3.2xlarge");
        let az = zone_id(&c, Some("eu-test-1b")).unwrap();
        assert_eq!(c.az(az).name(), "eu-test-1b");
        assert_eq!(c.region(c.az(az).region()).code(), "eu-test-1");
        let region = region_id(&c, "us-test-1").unwrap();
        assert_eq!(c.region(region).code(), "us-test-1");
        for err in [
            type_id(&c, "m9.huge").map(drop),
            zone_id(&c, Some("us-test-1z")).map(drop),
            zone_id(&c, None).map(drop),
            region_id(&c, "mars-1").map(drop),
        ] {
            let e = err.unwrap_err();
            assert!(matches!(e, ApiError::UnknownEntity { .. }), "{e}");
            assert!(!e.is_retryable(), "the non-retryable path");
        }
    }

    #[test]
    fn a_pool_is_booked_once_with_consecutive_ids_per_measure() {
        let c = catalog();
        let ty = type_id(&c, "m5.large").unwrap();
        let mut zones = PoolSeries::new(&["sps"]);
        let a = zone_id(&c, Some("us-test-1b")).unwrap();
        let b = zone_id(&c, Some("eu-test-1a")).unwrap();
        let first = zones.zone_pool(&c, ty, a);
        assert_eq!(zones.zone_pool(&c, ty, b), first + 1);
        assert_eq!(zones.zone_pool(&c, ty, a), first, "seen before: same id");
        assert_eq!(zones.book().len(), 2);
        let spelled = zones.records(&[Point {
            series: first,
            time: 600,
            value: 3.0,
        }]);
        let want = Record::new(600, "sps", 3.0)
            .dimension("instance_type", "m5.large")
            .dimension("region", "us-test-1")
            .dimension("az", "us-test-1b");
        assert_eq!(spelled, vec![want]);

        let mut regions = PoolSeries::new(&["if_score", "savings"]);
        let eu = region_id(&c, "eu-test-1").unwrap();
        let id = regions.region_pool(&c, ty, eu);
        assert_eq!(regions.region_pool(&c, ty, eu), id);
        assert_eq!(regions.book().len(), 2, "both measures booked at once");
        assert_eq!(regions.book().measure(id), Some("if_score"));
        assert_eq!(regions.book().measure(id + 1), Some("savings"));
        assert_eq!(
            regions.book().dimensions(id),
            regions.book().dimensions(id + 1)
        );
    }
}
