//! Prices: on-demand, spot, and savings over on-demand.
//!
//! Prices are hourly USD amounts stored as integer micro-dollars so that
//! equality, hashing, and ordering are exact — a spot *price change event*
//! (the unit of the price-history dataset) is defined by inequality of
//! consecutive values.

use crate::error::TypesError;
use std::fmt;

/// An hourly on-demand price in micro-USD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OnDemandPrice(u64);

impl OnDemandPrice {
    /// Creates an on-demand price from fractional USD per hour.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::OutOfRange`] if `usd_per_hour` is not a finite,
    /// positive amount.
    pub fn from_usd(usd_per_hour: f64) -> Result<Self, TypesError> {
        micro_from_usd(usd_per_hour, "on-demand price").map(OnDemandPrice)
    }

    /// The price in micro-USD per hour.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// The price in fractional USD per hour.
    pub fn as_usd(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl fmt::Display for OnDemandPrice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4}/h", self.as_usd())
    }
}

/// An hourly spot price in micro-USD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpotPrice(u64);

impl SpotPrice {
    /// Creates a spot price from fractional USD per hour.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::OutOfRange`] if `usd_per_hour` is not a finite,
    /// positive amount.
    pub fn from_usd(usd_per_hour: f64) -> Result<Self, TypesError> {
        micro_from_usd(usd_per_hour, "spot price").map(SpotPrice)
    }

    /// Creates a spot price directly from micro-USD per hour.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::OutOfRange`] if `micros` is zero.
    pub fn from_micros(micros: u64) -> Result<Self, TypesError> {
        if micros == 0 {
            return Err(TypesError::OutOfRange {
                what: "spot price",
                expected: "positive micro-USD",
                got: "0".into(),
            });
        }
        Ok(SpotPrice(micros))
    }

    /// The price in micro-USD per hour.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// The price in fractional USD per hour.
    pub fn as_usd(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Savings of this spot price relative to `on_demand`.
    pub fn savings_over(self, on_demand: OnDemandPrice) -> Savings {
        Savings::between(self, on_demand)
    }
}

impl fmt::Display for SpotPrice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4}/h", self.as_usd())
    }
}

fn micro_from_usd(usd: f64, what: &'static str) -> Result<u64, TypesError> {
    if !usd.is_finite() || usd <= 0.0 || usd > 1e6 {
        return Err(TypesError::OutOfRange {
            what,
            expected: "finite positive USD/hour",
            got: format!("{usd}"),
        });
    }
    Ok((usd * 1e6).round() as u64)
}

/// Cost savings of the spot price over the on-demand price, as published by
/// the spot instance advisor (a whole percentage, e.g. "70%").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Savings(u8);

impl Savings {
    /// Computes the savings percentage of `spot` relative to `on_demand`,
    /// clamped to 0–99% (a spot price above on-demand reports 0%).
    pub fn between(spot: SpotPrice, on_demand: OnDemandPrice) -> Savings {
        if on_demand.micros() == 0 || spot.micros() >= on_demand.micros() {
            return Savings(0);
        }
        let saved = on_demand.micros() - spot.micros();
        let pct = (saved * 100) / on_demand.micros();
        Savings(pct.min(99) as u8)
    }

    /// Creates a savings percentage directly.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::OutOfRange`] if `pct > 99`.
    pub fn from_percent(pct: u8) -> Result<Self, TypesError> {
        if pct > 99 {
            return Err(TypesError::OutOfRange {
                what: "savings",
                expected: "0..=99 percent",
                got: pct.to_string(),
            });
        }
        Ok(Savings(pct))
    }

    /// The whole savings percentage.
    pub fn percent(self) -> u8 {
        self.0
    }

    /// The savings as a fraction in 0.0–1.0.
    pub fn as_fraction(self) -> f64 {
        f64::from(self.0) / 100.0
    }
}

impl fmt::Display for Savings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_store_micro_usd_exactly() {
        let p = SpotPrice::from_usd(0.0928).unwrap();
        assert_eq!(p.micros(), 92_800);
        assert!((p.as_usd() - 0.0928).abs() < 1e-9);
    }

    #[test]
    fn price_rejects_nonpositive_and_nonfinite() {
        assert!(SpotPrice::from_usd(0.0).is_err());
        assert!(SpotPrice::from_usd(-1.0).is_err());
        assert!(SpotPrice::from_usd(f64::NAN).is_err());
        assert!(SpotPrice::from_usd(f64::INFINITY).is_err());
        assert!(OnDemandPrice::from_usd(0.0).is_err());
        assert!(SpotPrice::from_micros(0).is_err());
    }

    #[test]
    fn savings_computation() {
        let od = OnDemandPrice::from_usd(1.0).unwrap();
        let spot = SpotPrice::from_usd(0.30).unwrap();
        assert_eq!(spot.savings_over(od).percent(), 70);
        // Spot above on-demand -> 0% savings, not negative.
        let expensive = SpotPrice::from_usd(2.0).unwrap();
        assert_eq!(expensive.savings_over(od).percent(), 0);
    }

    #[test]
    fn savings_bounds() {
        assert!(Savings::from_percent(99).is_ok());
        assert!(Savings::from_percent(100).is_err());
        assert_eq!(Savings::from_percent(70).unwrap().as_fraction(), 0.70);
        assert_eq!(Savings::from_percent(70).unwrap().to_string(), "70%");
    }

    #[test]
    fn spot_price_equality_is_exact() {
        let a = SpotPrice::from_usd(0.1).unwrap();
        let b = SpotPrice::from_micros(100_000).unwrap();
        assert_eq!(a, b);
    }
}
