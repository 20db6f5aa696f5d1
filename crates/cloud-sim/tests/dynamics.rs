//! Behavioral tests for the simulator's dynamic mechanisms: capacity
//! outages, score flicker, stress memory, and the advisor-coupled hazard.

use spotlake_cloud_sim::{Pool, SimCloud, SimConfig, TickInputs};
use spotlake_types::{Catalog, CatalogBuilder, SimDuration};

fn full_catalog_pool(type_name: &str, az: &str, seed: u64) -> Pool {
    let catalog = Catalog::aws_2022();
    let ty = catalog.instance_type_id(type_name).expect("cataloged");
    let az = catalog.az_id(az).expect("cataloged");
    Pool::new(&catalog, &SimConfig::with_seed(seed), ty, az)
}

/// Outages happen on scarce pools, last at least their minimum dwell, and
/// pin the effective margin to (far) below one instance.
#[test]
fn outages_pin_scarce_pools() {
    // Sweep several scarce GPU pools; at least one must fall into an
    // outage within a simulated month, and during outages the pool must be
    // unfulfillable.
    let catalog = Catalog::aws_2022();
    let mut saw_outage = false;
    for az in ["us-east-1a", "us-east-1b", "eu-west-1a", "ap-south-1a"] {
        if catalog.az_id(az).is_none() {
            continue;
        }
        let mut pool = full_catalog_pool("p3.2xlarge", az, 9);
        for _ in 0..(30 * 144) {
            pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
            if pool.state().outage_hours_left > 0.0 {
                saw_outage = true;
                assert!(
                    pool.fulfillment_ratio(1) < 1.0,
                    "an outage pool must not fulfill (ratio {})",
                    pool.fulfillment_ratio(1)
                );
                assert!(pool.is_stressed(), "outage implies stress");
            }
        }
    }
    assert!(saw_outage, "no scarce pool saw an outage in a month");
}

/// Comfortable general-purpose pools essentially never see outages.
#[test]
fn healthy_pools_avoid_outages() {
    let mut pool = full_catalog_pool("m5.large", "us-east-1a", 9);
    let mut outage_ticks = 0u32;
    for _ in 0..(30 * 144) {
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        if pool.state().outage_hours_left > 0.0 {
            outage_ticks += 1;
        }
    }
    assert_eq!(outage_ticks, 0, "an m5 pool fell into an outage");
}

/// The per-tick flicker moves the effective margin around the slow margin
/// but stays centered on it.
#[test]
fn flicker_is_centered_on_slow_margin() {
    let mut pool = full_catalog_pool("m5.large", "us-east-1a", 4);
    let mut ratio_sum = 0.0;
    let n = 5000;
    for _ in 0..n {
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        let s = pool.state();
        ratio_sum += s.effective_margin / s.slow_margin;
    }
    let mean_ratio = ratio_sum / f64::from(n);
    // E[exp(0.18 Z)] = exp(0.0162) ≈ 1.016.
    assert!(
        (0.95..1.10).contains(&mean_ratio),
        "flicker mean ratio {mean_ratio} is biased"
    );
}

/// Stress memory: hazard stays elevated for hours after a crunch passes.
#[test]
fn stress_memory_decays_slowly() {
    let mut pool = full_catalog_pool("g4dn.xlarge", "us-east-1a", 4);
    pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
    let calm = pool.hazard_per_hour();
    // Crush for two hours.
    for _ in 0..12 {
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 0.0001));
    }
    let crushed = pool.hazard_per_hour();
    assert!(crushed > calm * 5.0);
    // One hour after recovery the memory still holds most of the hazard.
    for _ in 0..6 {
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
    }
    let soon_after = pool.hazard_per_hour();
    assert!(
        soon_after > calm * 2.0,
        "hazard forgot the crunch too fast: calm {calm:.5}, 1h after {soon_after:.5}"
    );
    // A day later it is essentially calm again.
    for _ in 0..144 {
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
    }
    let next_day = pool.hazard_per_hour();
    assert!(
        next_day < crushed / 5.0,
        "hazard never recovered: crushed {crushed:.4}, next day {next_day:.4}"
    );
}

/// The advisor-coupled hazard: among equal-margin pools, the ones the
/// advisor reports as interruption-heavy face a strictly larger multiplier.
#[test]
fn advisor_bias_multiplies_hazard() {
    let catalog = Catalog::aws_2022();
    let config = SimConfig::default();
    let mut low_bias: Option<f64> = None;
    let mut high_bias: Option<f64> = None;
    for ty in catalog.type_ids() {
        for az in catalog.az_ids() {
            if !catalog.supports(ty, az) {
                continue;
            }
            let pool = Pool::new(&catalog, &config, ty, az);
            let p = pool.params();
            if p.advisor_bias < 0.02 {
                low_bias.get_or_insert(p.hazard_mult);
            }
            if p.advisor_bias > 0.25 {
                high_bias.get_or_insert(p.hazard_mult);
            }
            if let (Some(lo), Some(hi)) = (low_bias, high_bias) {
                assert!(hi > lo * 2.0, "bias coupling too weak: {lo} vs {hi}");
                return;
            }
        }
    }
    panic!("catalog did not produce both low- and high-bias pools");
}

/// Determinism across the whole cloud: same seed, same trajectory; a
/// different seed diverges.
#[test]
fn cloud_trajectories_are_seed_determined() {
    let build = |seed| {
        let mut b = CatalogBuilder::new();
        b.region("us-test-1", 2)
            .instance_type("m5.large", 0.096)
            .instance_type("p3.2xlarge", 3.06);
        let mut cloud = SimCloud::new(b.build().unwrap(), SimConfig::with_seed(seed));
        cloud.run_days(5);
        let catalog = cloud.catalog().clone();
        let ty = catalog.instance_type_id("p3.2xlarge").unwrap();
        let az = catalog.az_id("us-test-1a").unwrap();
        (
            cloud.pool(cloud.pool_id(ty, az).unwrap()).state().margin,
            cloud.spot_price(ty, az).unwrap(),
        )
    };
    assert_eq!(build(1), build(1));
    assert_ne!(build(1), build(2));
}
