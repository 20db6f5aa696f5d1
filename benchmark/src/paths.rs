//! Request classes, the seeded pool of request paths each serving workload
//! draws from, and the oracle that says what every pooled path must return.

use crate::stats::Rng;
use spotlake_serving::{Gateway, HttpRequest, OpsContext};
use spotlake_timestream::Database;
use spotlake_types::Catalog;

/// One kind of request. The first eleven query archive data and have
/// deterministic bodies; the last four are the operator surfaces, whose
/// bodies change with every request served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    QueryPoint,
    QueryRange,
    LatestPoint,
    AtPoint,
    WindowPoint,
    AdvisorPoint,
    RegionScan,
    LatestRegion,
    LatestAll,
    WindowRegion,
    AdvisorRegion,
    Metrics,
    Stats,
    Health,
    Tables,
}

use Class::*;

impl Class {
    /// Every class, data classes first.
    pub const ALL: [Class; 15] = [
        QueryPoint,
        QueryRange,
        LatestPoint,
        AtPoint,
        WindowPoint,
        AdvisorPoint,
        RegionScan,
        LatestRegion,
        LatestAll,
        WindowRegion,
        AdvisorRegion,
        Metrics,
        Stats,
        Health,
        Tables,
    ];
    /// The classes that query archive data.
    pub const DATA: [Class; 11] = [
        QueryPoint,
        QueryRange,
        LatestPoint,
        AtPoint,
        WindowPoint,
        AdvisorPoint,
        RegionScan,
        LatestRegion,
        LatestAll,
        WindowRegion,
        AdvisorRegion,
    ];

    /// The name used in metric names and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            QueryPoint => "query_point",
            QueryRange => "query_range",
            LatestPoint => "latest_point",
            AtPoint => "at_point",
            WindowPoint => "window_point",
            AdvisorPoint => "advisor_point",
            RegionScan => "region_scan",
            LatestRegion => "latest_region",
            LatestAll => "latest_all",
            WindowRegion => "window_region",
            AdvisorRegion => "advisor_region",
            Metrics => "metrics",
            Stats => "stats",
            Health => "health",
            Tables => "tables",
        }
    }

    /// Whether the class's body is a function of the archive alone.
    pub fn is_data(self) -> bool {
        self < Metrics
    }

    /// Whether the class scans one whole region, so that its cost is the
    /// region's size.
    fn scans_a_region(self) -> bool {
        matches!(
            self,
            RegionScan | LatestRegion | WindowRegion | AdvisorRegion
        )
    }
}

/// A traffic mix: classes with integer weights.
pub type Mix = &'static [(Class, u32)];

/// `serve_point`: small responses of one series or one hour.
pub const POINT_MIX: Mix = &[
    (QueryPoint, 35),
    (QueryRange, 20),
    (LatestPoint, 15),
    (AtPoint, 10),
    (WindowPoint, 10),
    (AdvisorPoint, 10),
];

/// `serve_scan`: responses of up to 1.2 MB, or scans that size folded into a
/// few windows.
pub const SCAN_MIX: Mix = &[
    (RegionScan, 20),
    (LatestRegion, 25),
    (LatestAll, 15),
    (WindowRegion, 20),
    (AdvisorRegion, 20),
];

/// `live`: 90 % the `serve_point` mix, 10 % operator surfaces.
pub const LIVE_MIX: Mix = &[
    (QueryPoint, 315),
    (QueryRange, 180),
    (LatestPoint, 135),
    (AtPoint, 90),
    (WindowPoint, 90),
    (AdvisorPoint, 90),
    (Metrics, 25),
    (Stats, 25),
    (Health, 25),
    (Tables, 25),
];

/// The archive's time axis: collection timestamps `first, first + step, …,
/// last` in seconds.
#[derive(Debug, Clone, Copy)]
pub struct TimeAxis {
    pub first: u64,
    pub last: u64,
    pub step: u64,
}

/// A seeded pool of request paths with the mix they are drawn by.
#[derive(Debug, Clone)]
pub struct PathPool {
    /// `(class, path)`; an entry's index identifies it to the [`Oracle`].
    pub entries: Vec<(Class, String)>,
    /// `(cumulative weight, indices into entries)` per class of the mix.
    classes: Vec<(u32, Vec<usize>)>,
    total_weight: u32,
}

impl PathPool {
    /// Generates `size` data paths for `mix` from `seed`, shared among the
    /// data classes by weight (at least one each; what rounding leaves over
    /// goes to the first classes), plus the one path of each operator class.
    pub fn generate(
        seed: u64,
        catalog: &Catalog,
        axis: TimeAxis,
        mix: Mix,
        size: usize,
    ) -> PathPool {
        let mut rng = Rng::new(seed, 0x9A7B);
        let pools = catalog.supported_pools();
        let total_weight: u32 = mix.iter().map(|(_, w)| w).sum();
        let data_weight: u32 = mix
            .iter()
            .filter(|(c, _)| c.is_data())
            .map(|(_, w)| w)
            .sum();
        let share = |weight: u32| (size * weight as usize / data_weight as usize).max(1);
        let shared: usize = mix
            .iter()
            .filter(|(c, _)| c.is_data())
            .map(|(_, w)| share(*w))
            .sum();
        let mut spare = size.saturating_sub(shared);
        let mut entries = Vec::new();
        let mut classes = Vec::new();
        let mut cumulative = 0;
        for &(class, weight) in mix {
            let count = if class.is_data() {
                let extra = usize::from(spare > 0);
                spare -= extra;
                share(weight) + extra
            } else {
                1
            };
            let start = entries.len();
            // Regions differ tenfold in size. A region-scanning class walks
            // them round-robin from a seeded start, so every seed's pool
            // covers every region and costs the same; sampling them would
            // make the seed, not the program, set the workload's weight.
            let regions = catalog.regions();
            let first_region = rng.below(regions.len());
            for i in 0..count {
                let &(ty, az) = rng.pick(&pools);
                let region = if class.scans_a_region() {
                    regions[(first_region + i) % regions.len()].code()
                } else {
                    catalog.region(catalog.az(az).region()).code()
                };
                let path = path_for(class, &mut rng, catalog, axis, ty, az, region);
                entries.push((class, path));
            }
            cumulative += weight;
            classes.push((cumulative, (start..entries.len()).collect()));
        }
        PathPool {
            entries,
            classes,
            total_weight,
        }
    }

    /// Draws one entry index: a class by weight, then a path of that class
    /// uniformly.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let ticket = (rng.next_u64() % u64::from(self.total_weight)) as u32;
        let (_, indices) = self
            .classes
            .iter()
            .find(|(cumulative, _)| ticket < *cumulative)
            .expect("ticket is below the total weight");
        *rng.pick(indices)
    }
}

/// One path of `class` about the pool `(ty, az)` or about `region`, with
/// any remaining parameters drawn from `rng`.
fn path_for(
    class: Class,
    rng: &mut Rng,
    catalog: &Catalog,
    axis: TimeAxis,
    ty: spotlake_types::InstanceTypeId,
    az: spotlake_types::AzId,
    region: &str,
) -> String {
    let ty = catalog.ty(ty).name();
    let az = catalog.az(az).name();
    let steps = (axis.last - axis.first) / axis.step;
    let instant = axis.first + axis.step * (rng.next_u64() % (steps + 1));
    let table = |rng: &mut Rng, tables: &[&'static str]| *rng.pick(tables);
    match class {
        QueryPoint => format!("/query?table=sps&instance_type={ty}&az={az}"),
        QueryRange => format!(
            "/query?table=sps&instance_type={ty}&az={az}&from={instant}&to={}",
            instant + 3600
        ),
        LatestPoint => format!("/latest?table=sps&instance_type={ty}&az={az}"),
        AtPoint => format!("/at?table=price&instance_type={ty}&az={az}&timestamp={instant}"),
        WindowPoint => format!("/window?table=sps&instance_type={ty}&az={az}&window=3600&agg=mean"),
        AdvisorPoint => format!("/query?table=advisor&instance_type={ty}&region={region}"),
        RegionScan => format!("/query?table=sps&region={region}"),
        LatestRegion => format!(
            "/latest?table={}&region={region}",
            table(rng, &["sps", "price"])
        ),
        LatestAll => format!("/latest?table={}", table(rng, &["sps", "advisor", "price"])),
        WindowRegion => format!(
            "/window?table=sps&region={region}&window={}&agg={}",
            rng.pick(&[1800, 3600, 7200]),
            rng.pick(&["mean", "min", "max"])
        ),
        AdvisorRegion => format!("/query?table=advisor&region={region}"),
        Metrics => "/metrics".to_owned(),
        Stats => "/stats".to_owned(),
        Health => "/health".to_owned(),
        Tables => "/tables".to_owned(),
    }
}

/// FNV-1a folded over 8-byte words (the tail byte-wise): a digest cheap
/// enough that checking a 1 MB body does not compete with the server for
/// the two cores.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunk of eight bytes"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

/// What a pooled path must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub status: u16,
    pub len: usize,
    pub digest: u64,
}

/// The expected response of every pool entry against a static archive,
/// computed in-process through [`Gateway::handle`] before the socket is
/// used. Operator classes have no fixed body: they must answer 200 with a
/// non-empty one.
#[derive(Debug, Clone)]
pub struct Oracle(pub Vec<Option<Expected>>);

impl Oracle {
    /// Computes the expectations of `pool` over `db`.
    pub fn precompute(db: &Database, pool: &PathPool) -> Oracle {
        let gateway = Gateway::new();
        Oracle(
            pool.entries
                .iter()
                .map(|(class, path)| {
                    class.is_data().then(|| {
                        let request = HttpRequest::get(path).expect("pool paths are well formed");
                        let response = gateway.handle(db, &request, &OpsContext::none());
                        Expected {
                            status: response.status,
                            len: response.body.len(),
                            digest: digest(&response.body),
                        }
                    })
                })
                .collect(),
        )
    }

    /// Whether a socket response for entry `index` is the expected one.
    pub fn accepts(&self, index: usize, status: u16, body: &[u8]) -> bool {
        match self.0[index] {
            Some(want) => {
                want.status == 200
                    && status == want.status
                    && body.len() == want.len
                    && digest(body) == want.digest
            }
            None => status == 200 && !body.is_empty(),
        }
    }
}

/// The largest `"time":N` in a row response body, if any.
pub fn newest_time(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"time\":";
    let mut newest = None;
    let mut rest = body;
    while let Some(at) = rest.windows(KEY.len()).position(|w| w == KEY) {
        rest = &rest[at + KEY.len()..];
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if let Some(t) = std::str::from_utf8(&rest[..digits])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            newest = newest.max(Some(t));
        }
    }
    newest
}

/// A two-region, three-type catalog: small enough that unit tests run the
/// real pipeline in milliseconds.
#[cfg(test)]
pub fn tiny_catalog() -> Catalog {
    let mut b = spotlake_types::CatalogBuilder::new();
    b.region("us-test-1", 3)
        .region("eu-test-1", 2)
        .instance_type("m5.large", 0.096)
        .instance_type("c5.xlarge", 0.17)
        .instance_type("p3.2xlarge", 3.06);
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    const AXIS: TimeAxis = TimeAxis {
        first: 600,
        last: 14_400,
        step: 600,
    };

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let catalog = Catalog::aws_2022();
        let paths = |seed| PathPool::generate(seed, &catalog, AXIS, POINT_MIX, 512).entries;
        assert_eq!(paths(42), paths(42));
        assert_ne!(paths(42), paths(7));
        assert_eq!(paths(42).len(), 512);
    }

    #[test]
    fn every_class_of_a_mix_is_pooled_and_drawn() {
        let full = Catalog::aws_2022();
        let scans = PathPool::generate(9, &full, AXIS, SCAN_MIX, 96);
        for region in full.regions() {
            let needle = format!("/query?table=sps&region={}", region.code());
            assert!(scans.entries.iter().any(|(_, p)| *p == needle), "{needle}");
        }
        let catalog = tiny_catalog();
        for mix in [POINT_MIX, SCAN_MIX, LIVE_MIX] {
            let pool = PathPool::generate(1, &catalog, AXIS, mix, 64);
            let mut rng = Rng::new(1, 1);
            let mut drawn = std::collections::BTreeSet::new();
            for _ in 0..4000 {
                drawn.insert(pool.entries[pool.draw(&mut rng)].0);
            }
            let wanted: std::collections::BTreeSet<Class> = mix.iter().map(|(c, _)| *c).collect();
            assert_eq!(drawn, wanted);
            for (_, path) in &pool.entries {
                HttpRequest::get(path).unwrap();
            }
        }
    }

    #[test]
    fn digest_depends_on_every_byte_and_on_length() {
        let body = b"{\"rows\":[{\"time\":600,\"value\":3}]}".to_vec();
        for i in 0..body.len() {
            let mut other = body.clone();
            other[i] ^= 1;
            assert_ne!(digest(&body), digest(&other), "byte {i}");
        }
        assert_ne!(digest(&body), digest(&body[..body.len() - 1]));
    }

    #[test]
    fn newest_time_scans_every_row() {
        let body = br#"{"rows":[{"time":600,"value":1},{"time":1800,"value":2},{"time":1200}]}"#;
        assert_eq!(newest_time(body), Some(1800));
        assert_eq!(newest_time(b"{\"rows\":[]}"), None);
    }
}
