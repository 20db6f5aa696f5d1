//! Spot dataset value types: placement scores and interruption buckets.
//!
//! Two of the three spot datasets carry discrete "scores":
//!
//! * The **spot placement score** ([`PlacementScore`]) is an integer from 1
//!   to 10 returned by the placement-score API; the paper observed that
//!   queries naming a *single* instance type never return more than 3
//!   (Section 5.2).
//! * The **spot instance advisor** reports the preceding month's
//!   interruption frequency as one of five buckets ([`InterruptionBucket`]).
//!   Section 5 converts those buckets into the *interruption-free score*
//!   ([`InterruptionFreeScore`]): `<5%` → 3.0 down to `>20%` → 1.0 in steps
//!   of 0.5, so that both datasets share the 1.0–3.0 range.

use crate::error::TypesError;
use std::fmt;

/// A spot placement score: an integer between 1 and 10, higher meaning a
/// greater likelihood of spot request success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlacementScore(u8);

impl PlacementScore {
    /// The minimum score the API can return.
    pub const MIN: PlacementScore = PlacementScore(1);
    /// The maximum score the API can return (only observed for composite,
    /// multi-type queries).
    pub const MAX: PlacementScore = PlacementScore(10);
    /// The maximum score observed for single-instance-type queries
    /// (paper Section 5.2).
    pub const SINGLE_TYPE_MAX: PlacementScore = PlacementScore(3);

    /// Creates a placement score.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::OutOfRange`] unless `1 <= value <= 10`.
    pub fn new(value: u8) -> Result<Self, TypesError> {
        if (1..=10).contains(&value) {
            Ok(PlacementScore(value))
        } else {
            Err(TypesError::OutOfRange {
                what: "placement score",
                expected: "1..=10",
                got: value.to_string(),
            })
        }
    }

    /// The raw integer value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The score as a float, for comparison with interruption-free scores.
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// Saturating sum of two scores, clamped to the API maximum of 10.
    pub fn saturating_add(self, other: PlacementScore) -> PlacementScore {
        PlacementScore((self.0 + other.0).min(10))
    }

    /// The coarse High/Medium/Low categorization used by the paper's
    /// fulfillment experiments (Section 5.4): 3 → High, 2 → Medium,
    /// 1 → Low. Scores above 3 (composite queries) also map to High.
    pub fn level(self) -> ScoreLevel {
        match self.0 {
            1 => ScoreLevel::Low,
            2 => ScoreLevel::Medium,
            _ => ScoreLevel::High,
        }
    }
}

impl fmt::Display for PlacementScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The five interruption-frequency buckets published by the spot instance
/// advisor (Section 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InterruptionBucket {
    /// Less than 5% of instances interrupted in the preceding month.
    Lt5,
    /// Between 5% and 10%.
    Pct5To10,
    /// Between 10% and 15%.
    Pct10To15,
    /// Between 15% and 20%.
    Pct15To20,
    /// More than 20%.
    Gt20,
}

impl InterruptionBucket {
    /// All buckets, most reliable first.
    pub const ALL: [InterruptionBucket; 5] = [
        InterruptionBucket::Lt5,
        InterruptionBucket::Pct5To10,
        InterruptionBucket::Pct10To15,
        InterruptionBucket::Pct15To20,
        InterruptionBucket::Gt20,
    ];

    /// Buckets a raw monthly interruption ratio (0.0–1.0).
    pub fn from_ratio(ratio: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of [0,1]");
        if ratio < 0.05 {
            InterruptionBucket::Lt5
        } else if ratio < 0.10 {
            InterruptionBucket::Pct5To10
        } else if ratio < 0.15 {
            InterruptionBucket::Pct10To15
        } else if ratio < 0.20 {
            InterruptionBucket::Pct15To20
        } else {
            InterruptionBucket::Gt20
        }
    }

    /// The advisor's display label, e.g. `"<5%"`.
    pub fn label(self) -> &'static str {
        match self {
            InterruptionBucket::Lt5 => "<5%",
            InterruptionBucket::Pct5To10 => "5-10%",
            InterruptionBucket::Pct10To15 => "10-15%",
            InterruptionBucket::Pct15To20 => "15-20%",
            InterruptionBucket::Gt20 => ">20%",
        }
    }

    /// Converts the bucket to the paper's interruption-free score
    /// (Section 5: `<5%` → 3.0, then 2.5, 2.0, 1.5, `>20%` → 1.0).
    pub fn interruption_free_score(self) -> InterruptionFreeScore {
        match self {
            InterruptionBucket::Lt5 => InterruptionFreeScore::S30,
            InterruptionBucket::Pct5To10 => InterruptionFreeScore::S25,
            InterruptionBucket::Pct10To15 => InterruptionFreeScore::S20,
            InterruptionBucket::Pct15To20 => InterruptionFreeScore::S15,
            InterruptionBucket::Gt20 => InterruptionFreeScore::S10,
        }
    }
}

impl fmt::Display for InterruptionBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The interruption-free score: the advisor bucket mapped onto the placement
/// score's 1.0–3.0 range (higher = more stable), in steps of 0.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InterruptionFreeScore {
    /// 1.0 — interruption frequency above 20%.
    S10,
    /// 1.5.
    S15,
    /// 2.0.
    S20,
    /// 2.5.
    S25,
    /// 3.0 — interruption frequency below 5%.
    S30,
}

impl InterruptionFreeScore {
    /// All score values, least stable first.
    pub const ALL: [InterruptionFreeScore; 5] = [
        InterruptionFreeScore::S10,
        InterruptionFreeScore::S15,
        InterruptionFreeScore::S20,
        InterruptionFreeScore::S25,
        InterruptionFreeScore::S30,
    ];

    /// The numeric score value (1.0, 1.5, 2.0, 2.5, or 3.0).
    pub fn as_f64(self) -> f64 {
        match self {
            InterruptionFreeScore::S10 => 1.0,
            InterruptionFreeScore::S15 => 1.5,
            InterruptionFreeScore::S20 => 2.0,
            InterruptionFreeScore::S25 => 2.5,
            InterruptionFreeScore::S30 => 3.0,
        }
    }

    /// The advisor bucket this score came from.
    pub fn bucket(self) -> InterruptionBucket {
        match self {
            InterruptionFreeScore::S10 => InterruptionBucket::Gt20,
            InterruptionFreeScore::S15 => InterruptionBucket::Pct15To20,
            InterruptionFreeScore::S20 => InterruptionBucket::Pct10To15,
            InterruptionFreeScore::S25 => InterruptionBucket::Pct5To10,
            InterruptionFreeScore::S30 => InterruptionBucket::Lt5,
        }
    }

    /// High/Medium/Low categorization per Section 5.4 (3.0 → High,
    /// 2.0 → Medium, 1.0 → Low; the half-steps round toward Medium).
    pub fn level(self) -> ScoreLevel {
        match self {
            InterruptionFreeScore::S30 => ScoreLevel::High,
            InterruptionFreeScore::S10 => ScoreLevel::Low,
            _ => ScoreLevel::Medium,
        }
    }
}

impl fmt::Display for InterruptionFreeScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.as_f64())
    }
}

/// Coarse High/Medium/Low categorization of either score, used to form the
/// H-H, H-L, M-M, L-H, L-L experiment strata of Section 5.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScoreLevel {
    /// Score 1.0.
    Low,
    /// Score 2.0 (and the advisor half-steps 1.5 / 2.5).
    Medium,
    /// Score 3.0.
    High,
}

impl ScoreLevel {
    /// Single-letter code used in stratum names (`H`, `M`, `L`).
    pub fn letter(self) -> char {
        match self {
            ScoreLevel::High => 'H',
            ScoreLevel::Medium => 'M',
            ScoreLevel::Low => 'L',
        }
    }
}

impl fmt::Display for ScoreLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_score_bounds() {
        assert!(PlacementScore::new(0).is_err());
        assert!(PlacementScore::new(11).is_err());
        assert_eq!(PlacementScore::new(3).unwrap().value(), 3);
        assert_eq!(PlacementScore::MIN.value(), 1);
        assert_eq!(PlacementScore::MAX.value(), 10);
    }

    #[test]
    fn placement_score_levels() {
        assert_eq!(PlacementScore::new(1).unwrap().level(), ScoreLevel::Low);
        assert_eq!(PlacementScore::new(2).unwrap().level(), ScoreLevel::Medium);
        assert_eq!(PlacementScore::new(3).unwrap().level(), ScoreLevel::High);
        assert_eq!(PlacementScore::new(9).unwrap().level(), ScoreLevel::High);
    }

    #[test]
    fn saturating_add_clamps_at_api_max() {
        let s = PlacementScore::new(7).unwrap();
        assert_eq!(
            s.saturating_add(PlacementScore::new(9).unwrap()).value(),
            10
        );
        assert_eq!(s.saturating_add(PlacementScore::new(2).unwrap()).value(), 9);
    }

    #[test]
    fn bucket_boundaries_match_advisor_categories() {
        assert_eq!(InterruptionBucket::from_ratio(0.0), InterruptionBucket::Lt5);
        assert_eq!(
            InterruptionBucket::from_ratio(0.049),
            InterruptionBucket::Lt5
        );
        assert_eq!(
            InterruptionBucket::from_ratio(0.05),
            InterruptionBucket::Pct5To10
        );
        assert_eq!(
            InterruptionBucket::from_ratio(0.149),
            InterruptionBucket::Pct10To15
        );
        assert_eq!(
            InterruptionBucket::from_ratio(0.2),
            InterruptionBucket::Gt20
        );
        assert_eq!(
            InterruptionBucket::from_ratio(1.0),
            InterruptionBucket::Gt20
        );
    }

    #[test]
    fn score_conversion_matches_paper_mapping() {
        // Section 5: lowest interruption frequency -> 3.0, highest -> 1.0,
        // with 2.5, 2.0, 1.5 in between.
        let expected = [3.0, 2.5, 2.0, 1.5, 1.0];
        for (bucket, want) in InterruptionBucket::ALL.iter().zip(expected) {
            assert_eq!(bucket.interruption_free_score().as_f64(), want);
        }
    }

    #[test]
    fn bucket_score_roundtrip() {
        for b in InterruptionBucket::ALL {
            assert_eq!(b.interruption_free_score().bucket(), b);
        }
    }

    #[test]
    fn if_score_levels() {
        assert_eq!(InterruptionFreeScore::S30.level(), ScoreLevel::High);
        assert_eq!(InterruptionFreeScore::S25.level(), ScoreLevel::Medium);
        assert_eq!(InterruptionFreeScore::S20.level(), ScoreLevel::Medium);
        assert_eq!(InterruptionFreeScore::S15.level(), ScoreLevel::Medium);
        assert_eq!(InterruptionFreeScore::S10.level(), ScoreLevel::Low);
    }

    #[test]
    fn displays() {
        assert_eq!(InterruptionBucket::Lt5.to_string(), "<5%");
        assert_eq!(InterruptionFreeScore::S25.to_string(), "2.5");
        assert_eq!(ScoreLevel::High.to_string(), "H");
        assert_eq!(PlacementScore::new(3).unwrap().to_string(), "3");
    }
}
