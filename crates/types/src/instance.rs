//! Instance families, sizes, and types.
//!
//! The paper groups AWS instance classes into five families (Section 5.1):
//! *general* (T, M, A), *compute-optimized* (C), *memory-optimized*
//! (R, X, Z), *accelerated-computing* (P, G, DL, Inf, F, VT), and
//! *storage-optimized* (I, D, H). [`InstanceFamily`] models the letter
//! class, [`InstanceGroup`] the five-way grouping, and [`InstanceType`] a
//! concrete purchasable type such as `p3.2xlarge`.

use crate::error::ParseEntityError;
use std::fmt;
use std::str::FromStr;

/// Compact index of an instance type within a [`crate::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceTypeId(pub u32);

/// The letter class of an instance type (`T`, `M`, `C`, `P`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InstanceFamily {
    T,
    M,
    A,
    C,
    R,
    X,
    Z,
    P,
    G,
    Dl,
    Inf,
    F,
    Vt,
    I,
    D,
    H,
}

impl InstanceFamily {
    /// All families, in the paper's presentation order (Figure 3's vertical
    /// axis): general, compute-optimized, memory-optimized,
    /// accelerated-computing, storage-optimized.
    pub const ALL: [InstanceFamily; 16] = [
        InstanceFamily::T,
        InstanceFamily::M,
        InstanceFamily::A,
        InstanceFamily::C,
        InstanceFamily::R,
        InstanceFamily::X,
        InstanceFamily::Z,
        InstanceFamily::P,
        InstanceFamily::G,
        InstanceFamily::Dl,
        InstanceFamily::Inf,
        InstanceFamily::F,
        InstanceFamily::Vt,
        InstanceFamily::I,
        InstanceFamily::D,
        InstanceFamily::H,
    ];

    /// The five-way grouping this family belongs to.
    pub fn group(self) -> InstanceGroup {
        use InstanceFamily::*;
        match self {
            T | M | A => InstanceGroup::General,
            C => InstanceGroup::ComputeOptimized,
            R | X | Z => InstanceGroup::MemoryOptimized,
            P | G | Dl | Inf | F | Vt => InstanceGroup::AcceleratedComputing,
            I | D | H => InstanceGroup::StorageOptimized,
        }
    }

    /// Whether this family belongs to the accelerated-computing group, which
    /// the paper finds has "noticeably lower availability than other
    /// instance families".
    pub fn is_accelerated(self) -> bool {
        self.group() == InstanceGroup::AcceleratedComputing
    }

    /// The lowercase prefix this family uses in type names (`"t"`, `"dl"`,
    /// `"inf"`, ...).
    pub fn prefix(self) -> &'static str {
        use InstanceFamily::*;
        match self {
            T => "t",
            M => "m",
            A => "a",
            C => "c",
            R => "r",
            X => "x",
            Z => "z",
            P => "p",
            G => "g",
            Dl => "dl",
            Inf => "inf",
            F => "f",
            Vt => "vt",
            I => "i",
            D => "d",
            H => "h",
        }
    }
}

impl fmt::Display for InstanceFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix())
    }
}

/// The five instance-family groups used throughout the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstanceGroup {
    /// T, M, A.
    General,
    /// C.
    ComputeOptimized,
    /// R, X, Z.
    MemoryOptimized,
    /// P, G, DL, Inf, F, VT.
    AcceleratedComputing,
    /// I, D, H.
    StorageOptimized,
}

impl InstanceGroup {
    /// All groups in presentation order.
    pub const ALL: [InstanceGroup; 5] = [
        InstanceGroup::General,
        InstanceGroup::ComputeOptimized,
        InstanceGroup::MemoryOptimized,
        InstanceGroup::AcceleratedComputing,
        InstanceGroup::StorageOptimized,
    ];

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            InstanceGroup::General => "general",
            InstanceGroup::ComputeOptimized => "compute-optimized",
            InstanceGroup::MemoryOptimized => "memory-optimized",
            InstanceGroup::AcceleratedComputing => "accelerated-computing",
            InstanceGroup::StorageOptimized => "storage-optimized",
        }
    }
}

impl fmt::Display for InstanceGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The size suffix of an instance type (`nano` ... `32xlarge`, `metal`).
///
/// Figure 5 of the paper orders sizes by their resource footprint; the
/// [`InstanceSize::weight`] method returns that ordering's numeric weight
/// (number of `xlarge`-equivalents, with sub-`xlarge` sizes as fractions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum InstanceSize {
    Nano,
    Micro,
    Small,
    Medium,
    Large,
    Xlarge,
    X2large,
    X3large,
    X4large,
    X6large,
    X8large,
    X9large,
    X10large,
    X12large,
    X16large,
    X18large,
    X24large,
    X32large,
    Metal,
}

impl InstanceSize {
    /// All sizes, smallest first.
    pub const ALL: [InstanceSize; 19] = [
        InstanceSize::Nano,
        InstanceSize::Micro,
        InstanceSize::Small,
        InstanceSize::Medium,
        InstanceSize::Large,
        InstanceSize::Xlarge,
        InstanceSize::X2large,
        InstanceSize::X3large,
        InstanceSize::X4large,
        InstanceSize::X6large,
        InstanceSize::X8large,
        InstanceSize::X9large,
        InstanceSize::X10large,
        InstanceSize::X12large,
        InstanceSize::X16large,
        InstanceSize::X18large,
        InstanceSize::X24large,
        InstanceSize::X32large,
        InstanceSize::Metal,
    ];

    /// The suffix as it appears in a type name, e.g. `"2xlarge"`.
    pub fn suffix(self) -> &'static str {
        use InstanceSize::*;
        match self {
            Nano => "nano",
            Micro => "micro",
            Small => "small",
            Medium => "medium",
            Large => "large",
            Xlarge => "xlarge",
            X2large => "2xlarge",
            X3large => "3xlarge",
            X4large => "4xlarge",
            X6large => "6xlarge",
            X8large => "8xlarge",
            X9large => "9xlarge",
            X10large => "10xlarge",
            X12large => "12xlarge",
            X16large => "16xlarge",
            X18large => "18xlarge",
            X24large => "24xlarge",
            X32large => "32xlarge",
            Metal => "metal",
        }
    }

    /// Resource weight in `xlarge` units (an `xlarge` is 1.0; a `metal`
    /// host counts as a large multiple). Used by the capacity model: larger
    /// sizes consume more of a pool and are harder to place, reproducing the
    /// size trend of Figure 5.
    pub fn weight(self) -> f64 {
        use InstanceSize::*;
        match self {
            Nano => 0.0625,
            Micro => 0.125,
            Small => 0.25,
            Medium => 0.5,
            Large => 0.5,
            Xlarge => 1.0,
            X2large => 2.0,
            X3large => 3.0,
            X4large => 4.0,
            X6large => 6.0,
            X8large => 8.0,
            X9large => 9.0,
            X10large => 10.0,
            X12large => 12.0,
            X16large => 16.0,
            X18large => 18.0,
            X24large => 24.0,
            X32large => 32.0,
            Metal => 24.0,
        }
    }

    /// Parses a size suffix.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntityError`] for unknown suffixes.
    pub fn parse(s: &str) -> Result<Self, ParseEntityError> {
        Self::ALL
            .iter()
            .copied()
            .find(|sz| sz.suffix() == s)
            .ok_or_else(|| ParseEntityError::new("instance size", s))
    }
}

impl fmt::Display for InstanceSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

impl FromStr for InstanceSize {
    type Err = ParseEntityError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InstanceSize::parse(s)
    }
}

/// A concrete instance type such as `p3.2xlarge`.
///
/// An instance type is identified by a *class* (family letter + generation +
/// variant suffix, e.g. `g4dn`) and a [`InstanceSize`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstanceType {
    family: InstanceFamily,
    class: String,
    size: InstanceSize,
}

impl InstanceType {
    /// Creates an instance type from a class string (e.g. `"g4dn"`) and a
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntityError`] if `class` does not start with a known
    /// family prefix followed by a generation digit.
    pub fn new(class: impl Into<String>, size: InstanceSize) -> Result<Self, ParseEntityError> {
        let class = class.into();
        let family = Self::family_of_class(&class)
            .ok_or_else(|| ParseEntityError::new("instance class", class.clone()))?;
        Ok(InstanceType {
            family,
            class,
            size,
        })
    }

    /// Determines the family of a class string by longest-prefix match on
    /// the leading letter run (`"inf1"` → `Inf`, not `I`; `"im4gn"` → `I`).
    fn family_of_class(class: &str) -> Option<InstanceFamily> {
        let letters_end = class
            .find(|c: char| !c.is_ascii_lowercase())
            .unwrap_or(class.len());
        let letters = &class[..letters_end];
        if letters.is_empty() || !class[letters_end..].starts_with(|c: char| c.is_ascii_digit()) {
            return None;
        }
        let mut best: Option<InstanceFamily> = None;
        for fam in InstanceFamily::ALL {
            let p = fam.prefix();
            if letters.starts_with(p) && best.is_none_or(|b| b.prefix().len() < p.len()) {
                best = Some(fam);
            }
        }
        best
    }

    /// Parses a full type name like `"p3.2xlarge"`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseEntityError`] if the name is not
    /// `<class>.<size>` with a known class prefix and size suffix.
    pub fn parse(name: &str) -> Result<Self, ParseEntityError> {
        let (class, size) = name
            .split_once('.')
            .ok_or_else(|| ParseEntityError::new("instance type", name))?;
        let size =
            InstanceSize::parse(size).map_err(|_| ParseEntityError::new("instance type", name))?;
        InstanceType::new(class, size).map_err(|_| ParseEntityError::new("instance type", name))
    }

    /// The family letter class.
    pub fn family(&self) -> InstanceFamily {
        self.family
    }

    /// The class string (family + generation + variant), e.g. `"g4dn"`.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The size suffix.
    pub fn size(&self) -> InstanceSize {
        self.size
    }

    /// The full type name, e.g. `"g4dn.xlarge"`.
    pub fn name(&self) -> String {
        format!("{}.{}", self.class, self.size.suffix())
    }

    /// The hardware generation digit of the class (e.g. `4` for `g4dn`).
    pub fn generation(&self) -> u8 {
        self.class
            .chars()
            .find_map(|c| c.to_digit(10))
            .expect("validated at construction") as u8
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.size.suffix())
    }
}

impl FromStr for InstanceType {
    type Err = ParseEntityError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InstanceType::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_grouping_matches_paper() {
        assert_eq!(InstanceFamily::T.group(), InstanceGroup::General);
        assert_eq!(InstanceFamily::C.group(), InstanceGroup::ComputeOptimized);
        assert_eq!(InstanceFamily::X.group(), InstanceGroup::MemoryOptimized);
        assert_eq!(
            InstanceFamily::Inf.group(),
            InstanceGroup::AcceleratedComputing
        );
        assert_eq!(InstanceFamily::D.group(), InstanceGroup::StorageOptimized);
        assert!(InstanceFamily::P.is_accelerated());
        assert!(!InstanceFamily::M.is_accelerated());
    }

    #[test]
    fn longest_prefix_wins_for_ambiguous_classes() {
        // "inf1" must resolve to Inf, not I; "dl1" to Dl, not D.
        assert_eq!(
            InstanceType::parse("inf1.xlarge").unwrap().family(),
            InstanceFamily::Inf
        );
        assert_eq!(
            InstanceType::parse("dl1.24xlarge").unwrap().family(),
            InstanceFamily::Dl
        );
        assert_eq!(
            InstanceType::parse("i3.large").unwrap().family(),
            InstanceFamily::I
        );
        assert_eq!(
            InstanceType::parse("d2.xlarge").unwrap().family(),
            InstanceFamily::D
        );
    }

    #[test]
    fn parse_roundtrips_through_display() {
        for name in ["p3.2xlarge", "t3.nano", "m5.metal", "g4dn.16xlarge"] {
            let it = InstanceType::parse(name).unwrap();
            assert_eq!(it.to_string(), name);
            assert_eq!(it.name(), name);
        }
    }

    #[test]
    fn parse_rejects_malformed_names() {
        for bad in ["p3", "p3.", ".xlarge", "q9.xlarge", "p.xlarge", "p3.huge"] {
            assert!(InstanceType::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn generation_extracts_first_digit() {
        assert_eq!(InstanceType::parse("g4dn.xlarge").unwrap().generation(), 4);
        assert_eq!(InstanceType::parse("x1e.32xlarge").unwrap().generation(), 1);
    }

    #[test]
    fn size_weights_are_monotone_through_xlarge_multiples() {
        let mut prev = 0.0;
        for sz in [
            InstanceSize::Xlarge,
            InstanceSize::X2large,
            InstanceSize::X4large,
            InstanceSize::X8large,
            InstanceSize::X12large,
            InstanceSize::X16large,
            InstanceSize::X24large,
            InstanceSize::X32large,
        ] {
            assert!(sz.weight() > prev);
            prev = sz.weight();
        }
    }

    #[test]
    fn size_parse_roundtrip() {
        for sz in InstanceSize::ALL {
            assert_eq!(InstanceSize::parse(sz.suffix()).unwrap(), sz);
        }
        assert!(InstanceSize::parse("gigantic").is_err());
    }
}
