//! Helpers shared by the integration suites (`mod common;` from each
//! test file). Each suite exercises the same two-region simulated cloud
//! under the same seed, so the fixtures live here once.

#![allow(dead_code)] // each suite uses a different subset

use spotlake_cloud_sim::SimConfig;
use spotlake_types::{Catalog, CatalogBuilder, SimDuration};
use std::path::{Path, PathBuf};

/// The workspace-wide replay seed (the paper's archive launch month).
pub const SEED: u64 = 20_220_901;

/// The instance menu for suites that only need two price points.
pub const SMALL_MENU: &[(&str, f64)] = &[("m5.large", 0.096), ("c5.xlarge", 0.17)];

/// [`SMALL_MENU`] plus a GPU type, for suites asserting price spread.
pub const GPU_MENU: &[(&str, f64)] = &[
    ("m5.large", 0.096),
    ("c5.xlarge", 0.17),
    ("p3.2xlarge", 3.06),
];

/// The two-region, three-AZ test catalog with the given instance menu
/// (`(type name, on-demand price)` pairs).
pub fn test_catalog(menu: &[(&str, f64)]) -> Catalog {
    let mut b = CatalogBuilder::new();
    b.region("us-test-1", 3).region("eu-test-1", 3);
    for (name, price) in menu {
        b.instance_type(name, *price);
    }
    b.build().expect("valid catalog")
}

/// The shared simulator config: fixed seed, 30-minute tick (the paper's
/// SPS collection cadence).
pub fn sim_config() -> SimConfig {
    let mut sim = SimConfig::with_seed(SEED);
    sim.tick = SimDuration::from_mins(30);
    sim
}

/// A process-unique scratch path under the system temp dir, with any
/// stale leftover from a previous run removed first. Works for both
/// file and directory use; callers clean up on success.
pub fn scratch_path(suite: &str, tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spotlake-{suite}-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// The committed golden file `tests/golden/<name>.txt`.
pub fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.txt"))
}

/// The committed `tests/golden/<name>.txt`, or `None` after rewriting it
/// with `got` under `SPOTLAKE_BLESS=1`.
pub fn golden_or_bless(name: &str, got: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var_os("SPOTLAKE_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden file");
        return None;
    }
    Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; bless it with SPOTLAKE_BLESS=1 cargo test -p spotlake",
            path.display()
        )
    }))
}
