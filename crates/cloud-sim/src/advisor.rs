//! The spot instance advisor's statistics engine.
//!
//! The advisor publishes, per (instance type, region), the interruption
//! frequency of "the preceding month" as a five-way bucket plus the savings
//! over on-demand (Section 2.2). It is deliberately modeled as a *damped,
//! lagged, biased* estimator of true interruption risk: it integrates each
//! pool's trailing stress history over a 30-day window, republishes only
//! every [`crate::SimConfig::advisor_refresh`], and adds a per-pool bias.
//! That is what makes the advisor's interruption-free score decorrelate
//! from the instantaneous placement score (paper Figures 8 and 9) while
//! still carrying usable signal for a learned predictor (Table 4).

use crate::pool::Pool;
use spotlake_types::{InstanceTypeId, InterruptionBucket, RegionId, Savings, SimTime};
use std::collections::BTreeMap;

/// One published advisor row: interruption bucket and savings for an
/// (instance type, region) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdvisorEntry {
    /// Interruption frequency over the preceding month.
    pub bucket: InterruptionBucket,
    /// Savings of the current spot price over on-demand.
    pub savings: Savings,
    /// When this row was last (re)published.
    pub published_at: SimTime,
}

/// Trailing per-pool stress windows plus the published advisor table.
#[derive(Debug, Clone)]
pub(crate) struct AdvisorBoard {
    /// Ring buffer of daily stress-hours per pool; stride = `window_days`.
    daily: Vec<f64>,
    window_days: usize,
    cursor: usize,
    published: BTreeMap<(InstanceTypeId, RegionId), AdvisorEntry>,
    last_day_roll: SimTime,
    last_publish: SimTime,
}

impl AdvisorBoard {
    pub(crate) fn new(pools: usize, window_days: usize) -> Self {
        AdvisorBoard {
            daily: vec![0.0; pools * window_days],
            window_days,
            cursor: 0,
            published: BTreeMap::new(),
            last_day_roll: SimTime::EPOCH,
            last_publish: SimTime::EPOCH,
        }
    }

    pub(crate) fn last_publish(&self) -> SimTime {
        self.last_publish
    }

    pub(crate) fn set_last_publish(&mut self, at: SimTime) {
        self.last_publish = at;
    }

    pub(crate) fn last_day_roll(&self) -> SimTime {
        self.last_day_roll
    }

    /// Rolls the daily window: harvests each pool's stress-hours
    /// accumulator into the current day slot and advances the cursor.
    pub(crate) fn roll_day(&mut self, pools: &mut [Pool], at: SimTime) {
        self.cursor = (self.cursor + 1) % self.window_days;
        for (i, pool) in pools.iter_mut().enumerate() {
            self.daily[i * self.window_days + self.cursor] = pool.take_stress_hours();
        }
        self.last_day_roll = at;
    }

    /// Fraction of the trailing window pool `i` spent stressed.
    pub(crate) fn stress_fraction(&self, i: usize) -> f64 {
        let total: f64 = self.daily[i * self.window_days..(i + 1) * self.window_days]
            .iter()
            .sum();
        total / (self.window_days as f64 * 24.0)
    }

    /// The reported (biased, damped) monthly interruption ratio for pool
    /// `i`.
    pub(crate) fn reported_ratio(&self, i: usize, pool: &Pool) -> f64 {
        let f = self.stress_fraction(i);
        (0.05 * f.powf(0.7) + pool.params().advisor_bias).clamp(0.0, 0.33)
    }

    pub(crate) fn publish(&mut self, key: (InstanceTypeId, RegionId), entry: AdvisorEntry) {
        self.published.insert(key, entry);
    }

    pub(crate) fn entry(&self, ty: InstanceTypeId, region: RegionId) -> Option<AdvisorEntry> {
        self.published.get(&(ty, region)).copied()
    }

    /// Iterates over all published rows.
    pub(crate) fn entries(
        &self,
    ) -> impl Iterator<Item = (&(InstanceTypeId, RegionId), &AdvisorEntry)> {
        self.published.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::pool::TickInputs;
    use spotlake_types::{Catalog, SimDuration};

    #[test]
    fn stress_fraction_integrates_daily_rolls() {
        let catalog = Catalog::aws_2022();
        let config = SimConfig::default();
        let ty = catalog.instance_type_id("m5.large").unwrap();
        let az = catalog.az_id("us-east-1a").unwrap();
        let mut pools = vec![Pool::new(&catalog, &config, ty, az)];
        let mut board = AdvisorBoard::new(1, 30);

        // A fully stressed day: 24h under a crushing shock.
        for _ in 0..24 {
            pools[0].step(&TickInputs::new(SimDuration::from_hours(1), 0.0001));
        }
        board.roll_day(&mut pools, SimTime::EPOCH + SimDuration::from_days(1));
        let f = board.stress_fraction(0);
        // One fully stressed day out of a 30-day window.
        assert!((f - 1.0 / 30.0).abs() < 0.005, "stress fraction {f}");
        let r = board.reported_ratio(0, &pools[0]);
        assert!(r > 0.0 && r <= 0.33);
    }

    #[test]
    fn window_rolls_over_and_forgets() {
        let catalog = Catalog::aws_2022();
        let config = SimConfig::default();
        let ty = catalog.instance_type_id("m5.large").unwrap();
        let az = catalog.az_id("us-east-1a").unwrap();
        let mut pools = vec![Pool::new(&catalog, &config, ty, az)];
        let mut board = AdvisorBoard::new(1, 3);

        for _ in 0..12 {
            pools[0].step(&TickInputs::new(SimDuration::from_hours(1), 0.0001));
        }
        board.roll_day(&mut pools, SimTime::EPOCH + SimDuration::from_days(1));
        assert!(board.stress_fraction(0) > 0.0);
        // Three calm days push the stressed day out of the window.
        for day in 2..=4 {
            pools[0].step(&TickInputs::new(SimDuration::from_hours(1), 1.0));
            pools[0].take_stress_hours();
            board.roll_day(&mut pools, SimTime::EPOCH + SimDuration::from_days(day));
        }
        assert_eq!(board.stress_fraction(0), 0.0);
    }

    #[test]
    fn publish_and_lookup() {
        let mut board = AdvisorBoard::new(0, 30);
        let key = (InstanceTypeId(1), RegionId(2));
        let entry = AdvisorEntry {
            bucket: InterruptionBucket::Lt5,
            savings: Savings::from_percent(70).unwrap(),
            published_at: SimTime::EPOCH,
        };
        board.publish(key, entry);
        assert_eq!(board.entry(InstanceTypeId(1), RegionId(2)), Some(entry));
        assert_eq!(board.entry(InstanceTypeId(9), RegionId(2)), None);
        assert_eq!(board.entries().count(), 1);
    }
}
