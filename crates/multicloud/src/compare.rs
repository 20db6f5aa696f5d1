//! Cross-vendor comparison — Section 7's payoff.
//!
//! "Comparing spot instances of multiple vendors in a single place can
//! provide a great opportunity for optimal resource usage": join the
//! unified archive on the hardware-shape global key and rank vendors per
//! shape by savings and availability.

use crate::collector::{
    MultiCloudCollector, MultiCloudError, MC_AVAILABILITY_TABLE, MC_PRICE_TABLE,
};
use crate::sku::HardwareShape;
use crate::vendor::Vendor;
use spotlake_timestream::Query;
use std::collections::BTreeMap;

/// One (vendor, shape) comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossVendorRow {
    /// The vendor.
    pub vendor: Vendor,
    /// The shape key, e.g. `"4c-16g"`.
    pub shape: String,
    /// Mean savings over on-demand, percent.
    pub mean_savings_pct: f64,
    /// Mean availability score, when the vendor publishes one.
    pub mean_availability: Option<f64>,
    /// Price samples behind the means.
    pub samples: usize,
}

/// The full cross-vendor comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossVendorReport {
    /// Rows sorted by (shape, vendor).
    pub rows: Vec<CrossVendorRow>,
}

impl CrossVendorReport {
    /// The vendor with the best mean savings for `shape`, if any vendor
    /// offers it.
    pub fn best_savings_for(&self, shape: &HardwareShape) -> Option<&CrossVendorRow> {
        self.rows
            .iter()
            .filter(|r| r.shape == shape.key())
            .max_by(|a, b| a.mean_savings_pct.total_cmp(&b.mean_savings_pct))
    }

    /// All shapes offered by at least two vendors — the comparable set.
    pub fn contested_shapes(&self) -> Vec<String> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for row in &self.rows {
            *counts.entry(row.shape.as_str()).or_default() += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n >= 2)
            .map(|(s, _)| s.to_owned())
            .collect()
    }
}

impl MultiCloudCollector {
    /// Builds the cross-vendor comparison from the unified archive.
    ///
    /// # Errors
    ///
    /// Returns [`MultiCloudError::Store`] on archive query failures.
    pub fn compare_vendors(&self) -> Result<CrossVendorReport, MultiCloudError> {
        let db = self.archive();
        // (vendor, shape) -> (savings sum, n, availability sum, n).
        let mut cells: BTreeMap<(Vendor, String), (f64, usize, f64, usize)> = BTreeMap::new();

        for vendor in Vendor::ALL {
            let savings = db.query(
                MC_PRICE_TABLE,
                &Query::measure("savings").filter("vendor", vendor.tag()),
            )?;
            for row in savings {
                let Some(shape) = row
                    .dimensions()
                    .iter()
                    .find(|&(k, _)| k == "shape")
                    .map(|(_, v)| v.to_owned())
                else {
                    continue;
                };
                let cell = cells.entry((vendor, shape)).or_insert((0.0, 0, 0.0, 0));
                cell.0 += row.value;
                cell.1 += 1;
            }
            let availability = db.query(
                MC_AVAILABILITY_TABLE,
                &Query::measure("availability").filter("vendor", vendor.tag()),
            )?;
            for row in availability {
                let Some(shape) = row
                    .dimensions()
                    .iter()
                    .find(|&(k, _)| k == "shape")
                    .map(|(_, v)| v.to_owned())
                else {
                    continue;
                };
                let cell = cells.entry((vendor, shape)).or_insert((0.0, 0, 0.0, 0));
                cell.2 += row.value;
                cell.3 += 1;
            }
        }

        let rows = cells
            .into_iter()
            .filter(|(_, (_, sn, _, _))| *sn > 0)
            .map(
                |((vendor, shape), (s_sum, s_n, a_sum, a_n))| CrossVendorRow {
                    vendor,
                    shape,
                    mean_savings_pct: s_sum / s_n as f64,
                    mean_availability: (a_n > 0).then(|| a_sum / a_n as f64),
                    samples: s_n,
                },
            )
            .collect();
        Ok(CrossVendorReport { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogs::common_demo_shape;

    #[test]
    fn comparison_covers_contested_shapes() {
        let mut collector = MultiCloudCollector::demo_scale().expect("builtin catalogs");
        collector.run_rounds(3).expect("collection runs");
        let report = collector.compare_vendors().expect("archive queries");

        assert!(!report.rows.is_empty());
        // The 4c-16g shape is offered by all three vendors.
        let contested = report.contested_shapes();
        assert!(
            contested.contains(&"4c-16g".to_string()),
            "4c-16g missing from {contested:?}"
        );
        let best = report
            .best_savings_for(&common_demo_shape())
            .expect("someone offers 4c-16g");
        assert!((0.0..100.0).contains(&best.mean_savings_pct));

        // GCP rows exist but carry no availability (not published).
        let gcp_row = report
            .rows
            .iter()
            .find(|r| r.vendor == Vendor::Gcp)
            .expect("gcp collected");
        assert!(gcp_row.mean_availability.is_none());
        // AWS rows do carry availability.
        let aws_row = report
            .rows
            .iter()
            .find(|r| r.vendor == Vendor::Aws && r.shape == "4c-16g")
            .expect("aws collected");
        assert!(aws_row.mean_availability.is_some());
    }
}
