//! Geographic entities: regions and availability zones.
//!
//! The paper's measurement covers "about ... 17 regions, and 63 availability
//! zones" (Section 3.1). [`Region`] and [`Az`] are interned into a
//! [`crate::Catalog`]; the compact [`RegionId`] / [`AzId`] indices are what
//! the rest of the system passes around.

use crate::error::ParseEntityError;
use std::fmt;
use std::str::FromStr;

/// Compact index of a region within a [`crate::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u16);

/// Compact index of an availability zone within a [`crate::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AzId(pub u16);

/// A cloud region, e.g. `us-east-1`.
///
/// A region code is "expressed in the continent-coordinate-id combination"
/// (paper Section 5.1), e.g. `ap-northeast-2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    code: String,
}

impl Region {
    /// Creates a region from its code.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntityError`] if `code` is not of the form
    /// `continent-coordinate-id` (e.g. `us-east-1`), all lowercase ASCII.
    pub fn new(code: impl Into<String>) -> Result<Self, ParseEntityError> {
        let code = code.into();
        if Self::is_valid_code(&code) {
            Ok(Region { code })
        } else {
            Err(ParseEntityError::new("region", code))
        }
    }

    fn is_valid_code(code: &str) -> bool {
        let parts: Vec<&str> = code.split('-').collect();
        parts.len() == 3
            && parts[0].chars().all(|c| c.is_ascii_lowercase())
            && !parts[0].is_empty()
            && parts[1].chars().all(|c| c.is_ascii_lowercase())
            && !parts[1].is_empty()
            && parts[2].chars().all(|c| c.is_ascii_digit())
            && !parts[2].is_empty()
    }

    /// The region code, e.g. `"eu-west-1"`.
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The continent prefix of the code, e.g. `"eu"`.
    pub fn continent(&self) -> &str {
        self.code
            .split('-')
            .next()
            .expect("validated at construction")
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.code)
    }
}

impl FromStr for Region {
    type Err = ParseEntityError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Region::new(s)
    }
}

/// An availability zone within a region, e.g. `us-east-1a`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Az {
    region: RegionId,
    name: String,
}

impl Az {
    /// Creates an availability zone named `name` (e.g. `"us-east-1a"`)
    /// belonging to the region with id `region`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntityError`] if `name` does not end in an ASCII
    /// lowercase zone letter.
    pub fn new(region: RegionId, name: impl Into<String>) -> Result<Self, ParseEntityError> {
        let name = name.into();
        match name.chars().last() {
            Some(c) if c.is_ascii_lowercase() && name.len() > 1 => Ok(Az { region, name }),
            _ => Err(ParseEntityError::new("availability zone", name)),
        }
    }

    /// The id of the region this zone belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The zone name, e.g. `"us-east-1a"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The single-letter zone suffix, e.g. `'a'`.
    pub fn letter(&self) -> char {
        self.name.chars().last().expect("validated at construction")
    }
}

impl fmt::Display for Az {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_roundtrip() {
        let r: Region = "ap-northeast-2".parse().unwrap();
        assert_eq!(r.code(), "ap-northeast-2");
        assert_eq!(r.continent(), "ap");
        assert_eq!(r.to_string(), "ap-northeast-2");
    }

    #[test]
    fn region_rejects_malformed_codes() {
        for bad in [
            "useast1",
            "us-east",
            "us-east-",
            "US-east-1",
            "us-east-1a",
            "",
        ] {
            assert!(Region::new(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn az_carries_region_and_letter() {
        let az = Az::new(RegionId(3), "eu-west-1b").unwrap();
        assert_eq!(az.region(), RegionId(3));
        assert_eq!(az.letter(), 'b');
        assert_eq!(az.to_string(), "eu-west-1b");
    }

    #[test]
    fn az_rejects_names_without_zone_letter() {
        assert!(Az::new(RegionId(0), "us-east-1").is_err());
        assert!(Az::new(RegionId(0), "").is_err());
        assert!(Az::new(RegionId(0), "a").is_err());
    }
}
