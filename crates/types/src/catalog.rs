//! The instance-type / region / availability-zone catalog.
//!
//! At the time of the paper "there are about 547 instance types, 17 regions,
//! and 63 availability zones in AWS" (Section 3.1). [`Catalog::aws_2022`]
//! reconstructs a catalog of exactly that shape: 547 instance types across
//! the paper's sixteen families, 17 regions, and 63 availability zones,
//! together with a deterministic *support matrix* recording which
//! availability zones offer which instance types (not all do — this is what
//! makes the placement-score query-packing problem of Section 3.2
//! non-trivial) and per-type on-demand prices.
//!
//! The catalog is pure data: all randomness is a deterministic hash of the
//! entity names, so every build of the crate sees the identical cloud.

use crate::error::TypesError;
use crate::instance::{InstanceFamily, InstanceSize, InstanceType, InstanceTypeId};
use crate::price::OnDemandPrice;
use crate::region::{Az, AzId, Region, RegionId};
use std::collections::{BTreeMap, HashMap};

/// A dense bitset recording which (instance type, availability zone) pairs
/// are offered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupportMatrix {
    azs: usize,
    bits: Vec<u64>,
}

impl SupportMatrix {
    fn new(types: usize, azs: usize) -> Self {
        let words_per_row = azs.div_ceil(64);
        SupportMatrix {
            azs,
            bits: vec![0; types * words_per_row],
        }
    }

    fn words_per_row(&self) -> usize {
        self.azs.div_ceil(64)
    }

    fn set(&mut self, ty: usize, az: usize) {
        let w = self.words_per_row();
        self.bits[ty * w + az / 64] |= 1 << (az % 64);
    }

    /// Whether instance type `ty` is offered in availability zone `az`.
    pub fn supports(&self, ty: InstanceTypeId, az: AzId) -> bool {
        let w = self.words_per_row();
        let (t, a) = (ty.0 as usize, az.0 as usize);
        self.bits[t * w + a / 64] & (1 << (a % 64)) != 0
    }

    /// Number of availability zones offering instance type `ty`.
    pub fn supported_az_count(&self, ty: InstanceTypeId) -> u32 {
        let w = self.words_per_row();
        let t = ty.0 as usize;
        self.bits[t * w..(t + 1) * w]
            .iter()
            .map(|x| x.count_ones())
            .sum()
    }
}

use crate::hash::hash01;

/// The immutable catalog of regions, availability zones, and instance types.
///
/// Obtain the paper-scale catalog with [`Catalog::aws_2022`] or build a
/// custom one with [`CatalogBuilder`].
#[derive(Debug, Clone)]
pub struct Catalog {
    regions: Vec<Region>,
    azs: Vec<Az>,
    region_azs: Vec<Vec<AzId>>,
    types: Vec<InstanceType>,
    type_names: HashMap<String, InstanceTypeId>,
    region_codes: HashMap<String, RegionId>,
    az_names: HashMap<String, AzId>,
    support: SupportMatrix,
    od_micros: Vec<u64>,
}

impl Catalog {
    /// Builds the AWS catalog as of the paper's measurement period: 547
    /// instance types, 17 regions, 63 availability zones.
    pub fn aws_2022() -> Catalog {
        let mut b = CatalogBuilder::new();
        for &(code, az_count) in AWS_REGIONS {
            b.region(code, az_count);
        }
        for &(class, sizes) in AWS_CLASSES {
            for &size in sizes {
                let ty = InstanceType::new(class, size).expect("catalog class table is valid");
                let usd = od_price_usd(&ty);
                b.instance_type(&ty.name(), usd);
            }
        }
        b.hashed_support(true);
        b.build().expect("builtin catalog data is valid")
    }

    /// All regions, indexed by [`RegionId`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All availability zones, indexed by [`AzId`].
    pub fn azs(&self) -> &[Az] {
        &self.azs
    }

    /// All instance types, indexed by [`InstanceTypeId`].
    pub fn instance_types(&self) -> &[InstanceType] {
        &self.types
    }

    /// The region with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// The availability zone with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn az(&self, id: AzId) -> &Az {
        &self.azs[id.0 as usize]
    }

    /// The instance type with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn ty(&self, id: InstanceTypeId) -> &InstanceType {
        &self.types[id.0 as usize]
    }

    /// Looks up an instance type by full name, e.g. `"p3.2xlarge"`.
    pub fn instance_type(&self, name: &str) -> Option<&InstanceType> {
        self.instance_type_id(name).map(|id| self.ty(id))
    }

    /// Looks up an instance type id by full name.
    pub fn instance_type_id(&self, name: &str) -> Option<InstanceTypeId> {
        self.type_names.get(name).copied()
    }

    /// Looks up a region id by code, e.g. `"us-east-1"`.
    pub fn region_id(&self, code: &str) -> Option<RegionId> {
        self.region_codes.get(code).copied()
    }

    /// Looks up an availability-zone id by name, e.g. `"us-east-1a"`.
    pub fn az_id(&self, name: &str) -> Option<AzId> {
        self.az_names.get(name).copied()
    }

    /// The availability zones of region `region`.
    pub fn azs_of_region(&self, region: RegionId) -> &[AzId] {
        &self.region_azs[region.0 as usize]
    }

    /// Iterator over all region ids.
    pub fn region_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len() as u16).map(RegionId)
    }

    /// Iterator over all availability-zone ids.
    pub fn az_ids(&self) -> impl Iterator<Item = AzId> + '_ {
        (0..self.azs.len() as u16).map(AzId)
    }

    /// Iterator over all instance-type ids.
    pub fn type_ids(&self) -> impl Iterator<Item = InstanceTypeId> + '_ {
        (0..self.types.len() as u32).map(InstanceTypeId)
    }

    /// Whether `ty` is offered in availability zone `az`.
    pub fn supports(&self, ty: InstanceTypeId, az: AzId) -> bool {
        self.support.supports(ty, az)
    }

    /// Number of availability zones in `region` offering `ty`.
    pub fn supported_az_count(&self, ty: InstanceTypeId, region: RegionId) -> u32 {
        self.azs_of_region(region)
            .iter()
            .filter(|&&az| self.supports(ty, az))
            .count() as u32
    }

    /// The "nested dictionary" of Section 3.2: for instance type `ty`, a map
    /// from each supporting region to the number of its availability zones
    /// that offer the type. This is the input of the query bin-packing
    /// problem (Figure 1).
    pub fn support_map(&self, ty: InstanceTypeId) -> BTreeMap<RegionId, u32> {
        let mut m = BTreeMap::new();
        for region in self.region_ids() {
            let n = self.supported_az_count(ty, region);
            if n > 0 {
                m.insert(region, n);
            }
        }
        m
    }

    /// All supported (instance type, availability zone) pairs — the
    /// simulator instantiates one capacity pool per pair.
    pub fn supported_pools(&self) -> Vec<(InstanceTypeId, AzId)> {
        let mut v = Vec::new();
        for ty in self.type_ids() {
            for az in self.az_ids() {
                if self.supports(ty, az) {
                    v.push((ty, az));
                }
            }
        }
        v
    }

    /// The on-demand price of `ty` in the baseline region (`us-east-1`).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is out of range.
    pub fn od_price(&self, ty: InstanceTypeId) -> OnDemandPrice {
        OnDemandPrice::from_usd(self.od_micros[ty.0 as usize] as f64 / 1e6)
            .expect("catalog prices are positive")
    }

    /// The on-demand price of `ty` in `region` (regions carry a
    /// deterministic price multiplier between 1.0 and 1.3).
    pub fn od_price_in(&self, ty: InstanceTypeId, region: RegionId) -> OnDemandPrice {
        let base = self.od_micros[ty.0 as usize] as f64 / 1e6;
        let mult = self.region_price_multiplier(region);
        OnDemandPrice::from_usd(base * mult).expect("catalog prices are positive")
    }

    /// The deterministic per-region price multiplier.
    pub fn region_price_multiplier(&self, region: RegionId) -> f64 {
        let code = self.region(region).code();
        if code == "us-east-1" {
            1.0
        } else {
            1.0 + 0.3 * hash01(&["region-price", code])
        }
    }
}

/// Builder for custom [`Catalog`]s (tests and small experiments use this to
/// avoid the full 547-type catalog).
///
/// # Example
///
/// ```
/// use spotlake_types::CatalogBuilder;
///
/// # fn main() -> Result<(), spotlake_types::TypesError> {
/// let mut b = CatalogBuilder::new();
/// b.region("us-test-1", 2).instance_type("m5.large", 0.096);
/// let catalog = b.build()?;
/// assert_eq!(catalog.azs().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CatalogBuilder {
    regions: Vec<(String, u8)>,
    types: Vec<(String, f64)>,
    hashed_support: bool,
}

impl CatalogBuilder {
    /// Creates an empty builder. By default every type is supported in
    /// every availability zone; call [`CatalogBuilder::hashed_support`] for
    /// the deterministic partial-support model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a region with `az_count` availability zones (lettered `a`,
    /// `b`, ...).
    pub fn region(&mut self, code: &str, az_count: u8) -> &mut Self {
        self.regions.push((code.to_owned(), az_count));
        self
    }

    /// Adds an instance type by full name with its baseline on-demand price
    /// in USD per hour.
    pub fn instance_type(&mut self, name: &str, od_usd_per_hour: f64) -> &mut Self {
        self.types.push((name.to_owned(), od_usd_per_hour));
        self
    }

    /// Enables (or disables) the deterministic partial-support model used by
    /// [`Catalog::aws_2022`]; when disabled (the default) every type is
    /// supported everywhere.
    pub fn hashed_support(&mut self, enabled: bool) -> &mut Self {
        self.hashed_support = enabled;
        self
    }

    /// Builds the catalog.
    ///
    /// # Errors
    ///
    /// Returns an error if any region code, AZ count, instance type name, or
    /// price is invalid, or if a name is duplicated.
    pub fn build(&self) -> Result<Catalog, TypesError> {
        let mut regions = Vec::new();
        let mut azs = Vec::new();
        let mut region_azs = Vec::new();
        let mut region_codes = HashMap::new();
        let mut az_names = HashMap::new();

        for (code, az_count) in &self.regions {
            let rid = RegionId(regions.len() as u16);
            let region = Region::new(code.clone())?;
            if region_codes.insert(code.clone(), rid).is_some() {
                return Err(TypesError::UnknownEntity {
                    kind: "duplicate region",
                    name: code.clone(),
                });
            }
            if *az_count == 0 || *az_count > 26 {
                return Err(TypesError::OutOfRange {
                    what: "availability zone count",
                    expected: "1..=26",
                    got: az_count.to_string(),
                });
            }
            let mut ids = Vec::new();
            for i in 0..*az_count {
                let letter = (b'a' + i) as char;
                let name = format!("{code}{letter}");
                let azid = AzId(azs.len() as u16);
                azs.push(Az::new(rid, name.clone())?);
                az_names.insert(name, azid);
                ids.push(azid);
            }
            regions.push(region);
            region_azs.push(ids);
        }

        let mut types = Vec::new();
        let mut type_names = HashMap::new();
        let mut od_micros = Vec::new();
        for (name, usd) in &self.types {
            let tid = InstanceTypeId(types.len() as u32);
            let ty = InstanceType::parse(name)?;
            if type_names.insert(name.clone(), tid).is_some() {
                return Err(TypesError::UnknownEntity {
                    kind: "duplicate instance type",
                    name: name.clone(),
                });
            }
            od_micros.push(OnDemandPrice::from_usd(*usd)?.micros());
            types.push(ty);
        }

        let mut support = SupportMatrix::new(types.len(), azs.len());
        for (t, ty) in types.iter().enumerate() {
            for (a, az) in azs.iter().enumerate() {
                let supported = if self.hashed_support {
                    hashed_supports(ty, &regions[az.region().0 as usize], az)
                } else {
                    true
                };
                if supported {
                    support.set(t, a);
                }
            }
        }

        Ok(Catalog {
            regions,
            azs,
            region_azs,
            types,
            type_names,
            region_codes,
            az_names,
            support,
            od_micros,
        })
    }
}

/// Per-family support breadth: (fraction of regions, fraction of AZs within
/// a supported region). Accelerated and specialty hardware is scarce;
/// previous-generation general-purpose types are everywhere.
fn support_fracs(ty: &InstanceType) -> (f64, f64) {
    use InstanceFamily::*;
    match ty.family() {
        T | M | C | R => {
            if ty.generation() >= 6 {
                (0.55, 0.68)
            } else {
                (1.0, 0.69)
            }
        }
        A => (0.55, 0.70),
        X => (0.45, 0.65),
        Z => (0.38, 0.62),
        P => (0.42, 0.55),
        G => (0.55, 0.60),
        Dl => (0.15, 0.50),
        Inf => (0.42, 0.55),
        F => (0.25, 0.50),
        Vt => (0.20, 0.50),
        I => (0.70, 0.72),
        D => (0.62, 0.68),
        H => (0.33, 0.62),
    }
}

fn hashed_supports(ty: &InstanceType, region: &Region, az: &Az) -> bool {
    let (region_frac, az_frac) = support_fracs(ty);
    // Region support is decided per class so all sizes of a class share the
    // region footprint, as in Figure 1 of the paper.
    let region_supported = region.code() == "us-east-1"
        || hash01(&["region-support", ty.class(), region.code()]) < region_frac;
    if !region_supported {
        return false;
    }
    // Guarantee at least the region's first zone.
    if az.letter() == 'a' {
        return true;
    }
    hash01(&["az-support", ty.class(), az.name()]) < az_frac
}

/// Baseline (us-east-1) on-demand USD/hour for a type: per-family price per
/// `xlarge`-equivalent, scaled by the size weight, with suffix modifiers
/// (AMD cheaper, Graviton cheapest, local-NVMe and network variants dearer).
fn od_price_usd(ty: &InstanceType) -> f64 {
    use InstanceFamily::*;
    let per_xlarge = match ty.family() {
        T => 0.1664,
        M => 0.192,
        A => 0.102,
        C => 0.17,
        R => 0.252,
        X => 0.834,
        Z => 0.372,
        P => 3.06,
        G => 0.526,
        Dl => 0.55,
        Inf => 0.236,
        F => 1.65,
        Vt => 0.65,
        I => 0.312,
        D => 0.69,
        H => 0.468,
    };
    // Suffix letters after the generation digit modify the price.
    let digits_end = ty
        .class()
        .find(|c: char| c.is_ascii_digit())
        .map(|i| {
            ty.class()[i..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(ty.class().len(), |j| i + j)
        })
        .unwrap_or(ty.class().len());
    let suffix = &ty.class()[digits_end..];
    let mut modifier = 1.0;
    if suffix.contains('a') {
        modifier *= 0.90;
    }
    if suffix.contains('g') {
        modifier *= 0.80;
    }
    if suffix.contains('d') {
        modifier *= 1.15;
    }
    if suffix.contains('n') {
        modifier *= 1.10;
    }
    per_xlarge * ty.size().weight() * modifier
}

use InstanceSize::*;

const T7: &[InstanceSize] = &[Nano, Micro, Small, Medium, Large, Xlarge, X2large];
const STD8: &[InstanceSize] = &[
    Large, Xlarge, X2large, X4large, X8large, X12large, X16large, X24large,
];
const STD9: &[InstanceSize] = &[
    Large, Xlarge, X2large, X4large, X8large, X12large, X16large, X24large, Metal,
];
const STD10: &[InstanceSize] = &[
    Large, Xlarge, X2large, X4large, X8large, X12large, X16large, X24large, X32large, Metal,
];
const GRAV9: &[InstanceSize] = &[
    Medium, Large, Xlarge, X2large, X4large, X8large, X12large, X16large, Metal,
];
const GRAV8: &[InstanceSize] = &[
    Medium, Large, Xlarge, X2large, X4large, X8large, X12large, X16large,
];
const C5ISH: &[InstanceSize] = &[
    Large, Xlarge, X2large, X4large, X9large, X12large, X18large, X24large, Metal,
];
const ZN7: &[InstanceSize] = &[Large, Xlarge, X2large, X3large, X6large, X12large, Metal];

/// The 2022 AWS class table: 547 instance types in total.
const AWS_CLASSES: &[(&str, &[InstanceSize])] = &[
    // T family (general).
    ("t1", &[Micro]),
    ("t2", T7),
    ("t3", T7),
    ("t3a", T7),
    ("t4g", T7),
    // M family (general).
    ("m4", &[Large, Xlarge, X2large, X4large, X10large, X16large]),
    ("m5", STD9),
    ("m5a", STD8),
    ("m5ad", STD8),
    ("m5d", STD9),
    ("m5dn", STD9),
    ("m5n", STD9),
    ("m5zn", ZN7),
    ("m6a", STD10),
    ("m6g", GRAV9),
    ("m6gd", GRAV9),
    ("m6i", STD10),
    ("m6id", STD10),
    ("m6idn", STD10),
    ("m6in", STD10),
    // A family (general, Arm).
    ("a1", &[Medium, Large, Xlarge, X2large, X4large, Metal]),
    // C family (compute-optimized).
    ("c4", &[Large, Xlarge, X2large, X4large, X8large]),
    ("c5", C5ISH),
    ("c5a", STD8),
    ("c5ad", STD8),
    ("c5d", C5ISH),
    (
        "c5n",
        &[Large, Xlarge, X2large, X4large, X9large, X18large, Metal],
    ),
    ("c6a", STD10),
    ("c6g", GRAV9),
    ("c6gd", GRAV9),
    ("c6gn", GRAV8),
    ("c6i", STD10),
    ("c6id", STD10),
    ("c7g", GRAV8),
    // R family (memory-optimized).
    ("r4", &[Large, Xlarge, X2large, X4large, X8large, X16large]),
    ("r5", STD9),
    ("r5a", STD8),
    ("r5ad", STD8),
    ("r5b", STD9),
    ("r5d", STD9),
    ("r5dn", STD9),
    ("r5n", STD9),
    ("r6g", GRAV9),
    ("r6gd", GRAV9),
    ("r6i", STD10),
    ("r6id", STD10),
    ("r6idn", STD10),
    ("r6in", STD10),
    // X family (memory-optimized, large).
    ("x1", &[X16large, X32large]),
    (
        "x1e",
        &[Xlarge, X2large, X4large, X8large, X16large, X32large],
    ),
    ("x2gd", GRAV9),
    ("x2idn", &[X16large, X24large, X32large, Metal]),
    (
        "x2iedn",
        &[
            Xlarge, X2large, X4large, X8large, X16large, X24large, X32large, Metal,
        ],
    ),
    (
        "x2iezn",
        &[X2large, X4large, X6large, X8large, X12large, Metal],
    ),
    // Z family (memory-optimized, high frequency).
    ("z1d", ZN7),
    // P family (accelerated, NVIDIA training GPUs).
    ("p2", &[Xlarge, X8large, X16large]),
    ("p3", &[X2large, X8large, X16large]),
    ("p3dn", &[X24large]),
    ("p4d", &[X24large]),
    ("p4de", &[X24large]),
    // G family (accelerated, graphics / inference GPUs).
    ("g3", &[X4large, X8large, X16large]),
    ("g3s", &[Xlarge]),
    ("g4ad", &[Xlarge, X2large, X4large, X8large, X16large]),
    (
        "g4dn",
        &[Xlarge, X2large, X4large, X8large, X12large, X16large, Metal],
    ),
    (
        "g5",
        &[
            Xlarge, X2large, X4large, X8large, X12large, X16large, X24large,
        ],
    ),
    ("g5g", &[Xlarge, X2large, X4large, X8large, X16large, Metal]),
    // DL family (accelerated, Habana Gaudi).
    ("dl1", &[X24large]),
    // Inf family (accelerated, AWS Inferentia).
    ("inf1", &[Xlarge, X2large, X6large, X24large]),
    // F family (accelerated, FPGA).
    ("f1", &[X2large, X4large, X16large]),
    // VT family (accelerated, video transcoding).
    ("vt1", &[X3large, X6large, X24large]),
    // I family (storage-optimized, NVMe).
    (
        "i3",
        &[Large, Xlarge, X2large, X4large, X8large, X16large, Metal],
    ),
    (
        "i3en",
        &[
            Large, Xlarge, X2large, X3large, X6large, X12large, X24large, Metal,
        ],
    ),
    (
        "i4i",
        &[
            Large, Xlarge, X2large, X4large, X8large, X16large, X32large, Metal,
        ],
    ),
    (
        "im4gn",
        &[Large, Xlarge, X2large, X4large, X8large, X16large],
    ),
    (
        "is4gen",
        &[Medium, Large, Xlarge, X2large, X4large, X8large],
    ),
    // D family (storage-optimized, dense HDD).
    ("d2", &[Xlarge, X2large, X4large, X8large]),
    ("d3", &[Xlarge, X2large, X4large, X8large]),
    (
        "d3en",
        &[Xlarge, X2large, X4large, X6large, X8large, X12large],
    ),
    // H family (storage-optimized).
    ("h1", &[X2large, X4large, X8large, X16large]),
];

/// The 17 regions of the measurement with their availability-zone counts
/// (63 zones in total).
const AWS_REGIONS: &[(&str, u8)] = &[
    ("us-east-1", 6),
    ("us-east-2", 3),
    ("us-west-1", 3),
    ("us-west-2", 4),
    ("ca-central-1", 4),
    ("sa-east-1", 3),
    ("eu-west-1", 4),
    ("eu-west-2", 3),
    ("eu-west-3", 3),
    ("eu-central-1", 4),
    ("eu-north-1", 3),
    ("ap-northeast-1", 4),
    ("ap-northeast-2", 4),
    ("ap-northeast-3", 3),
    ("ap-southeast-1", 4),
    ("ap-southeast-2", 4),
    ("ap-south-1", 4),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceGroup;

    #[test]
    fn aws_2022_matches_paper_shape() {
        let c = Catalog::aws_2022();
        assert_eq!(c.instance_types().len(), 547, "paper: about 547 types");
        assert_eq!(c.regions().len(), 17, "paper: 17 regions");
        assert_eq!(c.azs().len(), 63, "paper: 63 availability zones");
    }

    #[test]
    fn every_family_group_is_populated() {
        let c = Catalog::aws_2022();
        for group in InstanceGroup::ALL {
            assert!(
                c.instance_types()
                    .iter()
                    .any(|t| t.family().group() == group),
                "group {group} has no types"
            );
        }
    }

    #[test]
    fn lookups_are_consistent() {
        let c = Catalog::aws_2022();
        let id = c.instance_type_id("p3.2xlarge").unwrap();
        assert_eq!(c.ty(id).name(), "p3.2xlarge");
        let rid = c.region_id("eu-west-1").unwrap();
        assert_eq!(c.region(rid).code(), "eu-west-1");
        let azid = c.az_id("eu-west-1b").unwrap();
        assert_eq!(c.az(azid).region(), rid);
        assert!(c.instance_type("warp9.huge").is_none());
    }

    #[test]
    fn every_type_is_supported_somewhere() {
        let c = Catalog::aws_2022();
        for ty in c.type_ids() {
            assert!(
                c.support.supported_az_count(ty) > 0,
                "{} has no supporting AZ",
                c.ty(ty)
            );
            // us-east-1a is the guaranteed floor.
            let az = c.az_id("us-east-1a").unwrap();
            assert!(c.supports(ty, az));
        }
    }

    #[test]
    fn support_map_counts_match_bitset() {
        let c = Catalog::aws_2022();
        let ty = c.instance_type_id("m5.large").unwrap();
        let map = c.support_map(ty);
        let total: u32 = map.values().sum();
        assert_eq!(total, c.support.supported_az_count(ty));
        for (&region, &n) in &map {
            assert!(n >= 1);
            assert!(n <= c.azs_of_region(region).len() as u32);
        }
    }

    #[test]
    fn accelerated_types_are_scarcer_than_general() {
        let c = Catalog::aws_2022();
        let avg = |group: InstanceGroup| {
            let (sum, n) = c
                .type_ids()
                .filter(|&t| c.ty(t).family().group() == group)
                .fold((0u32, 0u32), |(s, n), t| {
                    (s + c.support.supported_az_count(t), n + 1)
                });
            f64::from(sum) / f64::from(n)
        };
        assert!(
            avg(InstanceGroup::AcceleratedComputing) < avg(InstanceGroup::General) * 0.75,
            "accelerated ({:.1}) should be scarcer than general ({:.1})",
            avg(InstanceGroup::AcceleratedComputing),
            avg(InstanceGroup::General)
        );
    }

    #[test]
    fn od_prices_scale_with_size() {
        let c = Catalog::aws_2022();
        let small = c.od_price(c.instance_type_id("m5.large").unwrap());
        let big = c.od_price(c.instance_type_id("m5.24xlarge").unwrap());
        assert!(big.as_usd() > small.as_usd() * 10.0);
    }

    #[test]
    fn region_price_multiplier_baseline_is_one() {
        let c = Catalog::aws_2022();
        let us = c.region_id("us-east-1").unwrap();
        assert_eq!(c.region_price_multiplier(us), 1.0);
        for r in c.region_ids() {
            let m = c.region_price_multiplier(r);
            assert!((1.0..=1.3).contains(&m), "multiplier {m} out of range");
        }
    }

    #[test]
    fn builder_full_support_by_default() {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        let c = b.build().unwrap();
        for ty in c.type_ids() {
            for az in c.az_ids() {
                assert!(c.supports(ty, az));
            }
        }
    }

    #[test]
    fn builder_rejects_duplicates_and_bad_input() {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2).region("us-test-1", 2);
        assert!(b.build().is_err());

        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 0);
        assert!(b.build().is_err());

        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 1).instance_type("bogus", 1.0);
        assert!(b.build().is_err());

        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 1).instance_type("m5.large", -3.0);
        assert!(b.build().is_err());
    }

    #[test]
    fn catalog_is_deterministic() {
        let a = Catalog::aws_2022();
        let b = Catalog::aws_2022();
        assert_eq!(a.support, b.support);
        assert_eq!(a.od_micros, b.od_micros);
    }

    #[test]
    fn hash01_is_uniform_ish_and_stable() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| hash01(&["test", &i.to_string()]))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} too far from 0.5");
        assert_eq!(hash01(&["a", "b"]), hash01(&["a", "b"]));
        assert_ne!(hash01(&["a", "b"]), hash01(&["ab"]));
    }
}
