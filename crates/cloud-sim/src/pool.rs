//! Capacity pools: one per supported (instance type × availability zone).
//!
//! A pool models the surplus capacity the provider can sell as spot. Its
//! free *margin* (fraction of capacity not consumed by on-demand/reserved
//! load) follows a mean-reverting stochastic process; everything the cloud
//! publishes is derived from it:
//!
//! * the placement score is a thresholded function of the pool's headroom
//!   relative to the requested target capacity,
//! * the interruption hazard rises sharply when the margin falls below the
//!   stress cut (capacity crunch → reclaim events), and
//! * the advisor's trailing-month statistics integrate the stress history.
//!
//! All per-pool parameters are deterministic functions of the pool's name
//! (via [`spotlake_types::hash`]) and the [`SimConfig`] seed, so the fleet
//! is identical across runs.

use crate::config::SimConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spotlake_types::hash::{hash01, hash_u64};
use spotlake_types::{AzId, Catalog, InstanceFamily, InstanceTypeId, SimDuration, SpotPrice};

/// Compact index of a pool within a [`crate::SimCloud`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

/// Immutable per-pool parameters, derived deterministically from the pool's
/// identity.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolParams {
    /// The instance type this pool serves.
    pub ty: InstanceTypeId,
    /// The availability zone this pool lives in.
    pub az: AzId,
    /// Pool capacity, in instances of this type.
    pub capacity: f64,
    /// Long-run mean of the free-margin fraction.
    pub margin_mean: f64,
    /// Mean-reversion rate of the margin process, per hour.
    pub ou_theta: f64,
    /// Volatility of the margin process, per √hour.
    pub ou_sigma: f64,
    /// Margin below which the pool is *stressed* (reclaim events likely).
    pub stress_cut: f64,
    /// Baseline interruption hazard when calm, per hour.
    pub hazard_base: f64,
    /// Additional hazard at full stress, per hour.
    pub hazard_peak: f64,
    /// Additive bias of the advisor's reported interruption ratio for this
    /// pool (the advisor is a biased, damped estimator — Section 5.3's
    /// dataset contradictions come from this).
    pub advisor_bias: f64,
    /// Multiplier the advisor bias applies to the pool's whole hazard:
    /// pairs the advisor reports as interruption-heavy genuinely are
    /// (Table 3's H-L row), while the time-series correlation with the
    /// placement score stays near zero (Figure 8).
    pub hazard_mult: f64,
    /// Margin below which the pool may fall into a capacity *outage* — a
    /// long stretch with no sellable headroom. Outages are what keep the
    /// paper's low-score requests unfulfilled for a whole day (Table 3)
    /// while the fulfilled ones place within minutes (Figure 11a).
    pub outage_enter_cut: f64,
    /// Rate of entering an outage while below the cut, per hour.
    pub outage_rate: f64,
    /// Median outage dwell time, hours.
    pub outage_dwell_h: f64,
    /// Long-run mean of the spot savings fraction over on-demand.
    pub savings_mean: f64,
    /// On-demand price of the type in this pool's region, micro-USD/hour.
    pub od_micros: u64,
}

/// Mutable per-pool state.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolState {
    /// Current free-margin fraction (before any global shock factor).
    pub margin: f64,
    /// Free-margin fraction after the global shock factor, as seen by all
    /// published datasets this tick.
    pub effective_margin: f64,
    /// Current savings fraction of the smoothed spot price.
    pub savings: f64,
    /// Current spot price.
    pub price: SpotPrice,
    /// Hours spent stressed since the advisor last rolled its daily bucket.
    pub stress_hours_today: f64,
    /// Remaining hours of the current capacity outage (0 = none).
    pub outage_hours_left: f64,
    /// Effective margin without the per-tick flicker: the slow component
    /// used for stress/hazard accounting, so one tick of flicker does not
    /// register as a capacity crunch.
    pub slow_margin: f64,
    /// Exponentially decaying memory of recent stress (12 h half-life-ish):
    /// a pool that was starved this morning stays fragile all day, which is
    /// why nearly every fulfilled low-score request in the paper's Table 3
    /// got interrupted within its 24-hour window.
    pub recent_stress: f64,
}

/// What one tick hands every pool's margin step: the tick length and the
/// constants derived from it, computed once per tick rather than once per
/// pool, and the global demand-shock multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickInputs {
    /// Tick length, hours.
    dt_h: f64,
    /// `√dt_h`, the margin noise's scale.
    sqrt_dt_h: f64,
    /// `exp(−dt_h / 6)`, the per-tick decay of the recent-stress memory.
    stress_decay: f64,
    /// The global demand-shock multiplier (1.0 outside shock windows).
    shock_factor: f64,
}

impl TickInputs {
    /// The inputs for a tick of length `dt` under `shock_factor`.
    pub fn new(dt: SimDuration, shock_factor: f64) -> TickInputs {
        let dt_h = dt.as_secs() as f64 / 3600.0;
        TickInputs {
            dt_h,
            sqrt_dt_h: dt_h.sqrt(),
            stress_decay: (-dt_h / 6.0).exp(),
            shock_factor,
        }
    }
}

/// A capacity pool: parameters, state, and a private RNG stream.
#[derive(Debug, Clone)]
pub struct Pool {
    params: PoolParams,
    state: PoolState,
    rng: StdRng,
}

/// Per-family base capacity, in `xlarge`-equivalents per pool (before the
/// region factor). Accelerated and specialty hardware is far scarcer than
/// general-purpose fleets.
fn family_capacity(f: InstanceFamily) -> f64 {
    use InstanceFamily::*;
    match f {
        T => 520.0,
        M => 440.0,
        A => 180.0,
        C => 420.0,
        R => 360.0,
        X => 64.0,
        Z => 56.0,
        P => 26.0,
        G => 88.0,
        Dl => 150.0,
        Inf => 60.0,
        F => 30.0,
        Vt => 32.0,
        I => 130.0,
        D => 110.0,
        H => 64.0,
    }
}

/// Per-family long-run mean free margin. The ordering encodes the paper's
/// Figure 3/4 findings: accelerated GPU families (P, G) scarcest; the
/// recently released Gaudi (DL) underused and therefore plentiful; general
/// families comfortable.
fn family_margin(f: InstanceFamily) -> f64 {
    use InstanceFamily::*;
    match f {
        T => 0.32,
        M => 0.28,
        A => 0.27,
        C => 0.26,
        R => 0.22,
        X => 0.15,
        Z => 0.15,
        P => 0.07,
        G => 0.11,
        Dl => 0.24,
        Inf => 0.11,
        F => 0.09,
        Vt => 0.19,
        I => 0.18,
        D => 0.13,
        H => 0.14,
    }
}

/// Per-family long-run mean savings fraction over on-demand.
fn family_savings(f: InstanceFamily) -> f64 {
    use InstanceFamily::*;
    match f {
        T => 0.70,
        M => 0.62,
        A => 0.62,
        C => 0.60,
        R => 0.60,
        X => 0.50,
        Z => 0.50,
        P => 0.33,
        G => 0.45,
        Dl => 0.60,
        Inf => 0.50,
        F => 0.40,
        Vt => 0.50,
        I => 0.55,
        D => 0.55,
        H => 0.50,
    }
}

impl Pool {
    /// Builds the pool for `(ty, az)` with parameters derived from the
    /// catalog and the configuration seed.
    pub fn new(catalog: &Catalog, config: &SimConfig, ty: InstanceTypeId, az: AzId) -> Pool {
        let it = catalog.ty(ty);
        let region = catalog.az(az).region();
        let pool_name = format!("{}@{}", it.name(), catalog.az(az).name());
        let seed_str = config.seed.to_string();
        let h = |salt: &str| hash01(&[salt, &pool_name, &seed_str]);

        let family = it.family();
        let weight = it.size().weight();
        let region_factor = if catalog.region(region).code() == "us-east-1" {
            2.0
        } else {
            0.5 + 1.5 * h("region-capacity")
        };
        let capacity =
            (family_capacity(family) * region_factor * config.capacity_scale / weight).max(10.0);

        // Long-run margin: family base × size penalty × per-pool jitter.
        let size_penalty = 1.0 - 0.15 * (weight / 32.0).min(1.0);
        let margin_mean =
            (family_margin(family) * size_penalty * (0.5 + 1.0 * h("margin"))).clamp(0.02, 0.60);

        // Hazard and dynamics scale with pool quality (long-run margin).
        let quality = ((margin_mean - 0.05) / 0.30).clamp(0.0, 1.0);

        // Mean reversion: comfortable pools drift slowly (up to three
        // days); tight specialty pools churn within hours as reclaim and
        // re-release cycles pass through. Stationary std 30–80% of mean.
        let tau_hours = 6.0 + (26.0 + 40.0 * quality) * h("tau");
        let ou_theta = 1.0 / tau_hours;
        let stationary_std = margin_mean * (0.30 + 0.50 * h("vol"));
        let ou_sigma = stationary_std * (2.0 * ou_theta).sqrt();

        let hazard_base = 10f64.powf(-2.2 - 1.1 * quality);
        let hazard_peak = (0.27 + 0.45 * h("hazard-peak")) * (1.0 + 1.4 * (1.0 - quality));

        // Advisor bias is shared by every AZ pool of a (type, region) pair
        // — the advisor reports at region granularity, so a per-AZ bias
        // would average away. The distribution is bimodal: most pairs are
        // reported as reliable, a minority as heavily interrupted,
        // reproducing Table 2's interruption-free score spread.
        let region_code = catalog.region(region).code();
        let type_name = it.name();
        let hb = |salt: &str| hash01(&[salt, &type_name, region_code, &seed_str]);
        // The advisor skews worse for accelerated/specialty hardware and
        // for larger sizes (Figures 3b, 4b, 5): shift the bucket draw
        // toward higher interruption ranges for those pairs.
        let family_shift = match family {
            InstanceFamily::P | InstanceFamily::G | InstanceFamily::Inf | InstanceFamily::F => 0.26,
            InstanceFamily::Vt => 0.12,
            InstanceFamily::X | InstanceFamily::Z => 0.10,
            InstanceFamily::I | InstanceFamily::D | InstanceFamily::H => 0.08,
            InstanceFamily::Dl => -0.10,
            _ => 0.0,
        };
        let size_shift = 0.08 * (weight / 16.0).min(1.0);
        let mode = (hb("advisor-mode") + family_shift + size_shift).clamp(0.0, 0.999);
        let advisor_bias = advisor_bias_from(mode, hb("advisor-level"));
        let hazard_mult = 1.0 + 16.0 * advisor_bias.max(0.0);
        let savings_mean =
            (family_savings(family) * (0.85 + 0.30 * h("savings"))).clamp(0.05, 0.85);

        let od_micros = catalog.od_price_in(ty, region).micros();
        let price = initial_price(od_micros, savings_mean);

        let rng_seed = config.seed ^ hash_u64(&["pool-rng", &pool_name]);
        let mut rng = StdRng::seed_from_u64(rng_seed);

        // Start the margin at a random draw from (roughly) its stationary
        // distribution so day 0 is already in steady state.
        let margin = (margin_mean + stationary_std * normal(&mut rng)).clamp(0.001, 0.97);

        // A pool is stressed when its headroom shrinks to about one
        // instance of its own type — for small pools (specialty hardware)
        // that happens at much higher margin fractions, which is exactly
        // why their spot instances are reclaimed more (Figures 3, 7;
        // Table 3's L rows).
        let stress_cut = (1.1 / capacity).max(0.003);

        Pool {
            params: PoolParams {
                ty,
                az,
                capacity,
                margin_mean,
                ou_theta,
                ou_sigma,
                stress_cut,
                hazard_base,
                hazard_peak,
                advisor_bias,
                hazard_mult,
                outage_enter_cut: 0.55 / capacity,
                outage_rate: 0.02 + 0.05 * h("outage-rate"),
                // Churny pools (high advisor bias) see short outages and
                // frequent reclaims; shortage pools (score 1 despite a
                // clean advisor record) stay out for much longer — the
                // paper's L-H row goes unfulfilled more than L-L.
                outage_dwell_h: (18.0 + 42.0 * h("outage-dwell"))
                    * (1.0 + 3.0 * (0.25 - advisor_bias).clamp(0.0, 0.25)),
                savings_mean,
                od_micros,
            },
            state: PoolState {
                margin,
                effective_margin: margin,
                savings: savings_mean,
                price,
                stress_hours_today: 0.0,
                outage_hours_left: 0.0,
                slow_margin: margin,
                recent_stress: 0.0,
            },
            rng,
        }
    }

    /// The pool's immutable parameters.
    pub fn params(&self) -> &PoolParams {
        &self.params
    }

    /// The pool's current state.
    pub fn state(&self) -> &PoolState {
        &self.state
    }

    /// Advances the margin process by one tick of `tick`.
    pub fn step(&mut self, tick: &TickInputs) {
        let dt_h = tick.dt_h;
        let eps = normal(&mut self.rng);
        let p = &self.params;
        let m = self.state.margin;
        let next = m + p.ou_theta * (p.margin_mean - m) * dt_h + p.ou_sigma * tick.sqrt_dt_h * eps;
        self.state.margin = next.clamp(0.001, 0.97);
        // Fast per-tick flicker on top of the slow OU component: real pools
        // gain and lose a few instances between collection ticks, so a pool
        // scored 1 can fulfill minutes later (Figure 11a's fast L-side
        // fulfillments) and the placement score updates far more often than
        // the advisor (Figure 10).
        let jitter = (0.18 * normal(&mut self.rng)).exp();
        let shock_factor = tick.shock_factor;
        self.state.slow_margin = (self.state.margin * shock_factor).clamp(0.001, 0.97);
        self.state.effective_margin =
            (self.state.margin * jitter * shock_factor).clamp(0.001, 0.97);

        // Capacity outages: while headroom is thin the pool may fall into a
        // long stretch with no sellable capacity at all.
        if self.state.outage_hours_left > 0.0 {
            self.state.outage_hours_left = (self.state.outage_hours_left - dt_h).max(0.0);
        } else if self.state.slow_margin < self.params.outage_enter_cut {
            let enter = self.rng.gen::<f64>() < self.params.outage_rate * dt_h;
            if enter {
                let z = normal(&mut self.rng);
                self.state.outage_hours_left =
                    (self.params.outage_dwell_h * (0.8 * z).exp()).clamp(6.0, 240.0);
            }
        }
        if self.state.outage_hours_left > 0.0 {
            let pinned = 0.3 / self.params.capacity;
            self.state.effective_margin = self.state.effective_margin.min(pinned);
            self.state.slow_margin = self.state.slow_margin.min(pinned);
        }

        let p = &self.params;
        let stress_now = ((p.stress_cut - self.state.slow_margin) / p.stress_cut).clamp(0.0, 1.0);
        self.state.recent_stress = stress_now.max(self.state.recent_stress * tick.stress_decay);
        if self.is_stressed() {
            self.state.stress_hours_today += dt_h;
        }
    }

    /// Free capacity, in instances of this pool's type.
    pub fn headroom(&self) -> f64 {
        self.state.effective_margin * self.params.capacity
    }

    /// Headroom divided by the requested instance count — the quantity the
    /// placement score thresholds.
    pub fn fulfillment_ratio(&self, count: u32) -> f64 {
        debug_assert!(
            count > 0,
            "a spot request must ask for at least one instance"
        );
        self.headroom() / f64::from(count.max(1))
    }

    /// The ground-truth single-type placement score for a request of
    /// `count` instances: 3 / 2 / 1 by headroom ratio (the paper observed
    /// single-type queries never exceed 3 — Section 5.2).
    pub fn score_for(&self, count: u32) -> u8 {
        let r = self.fulfillment_ratio(count);
        if r >= 1.6 {
            3
        } else if r >= 1.0 {
            2
        } else {
            1
        }
    }

    /// Whether the pool is currently in a capacity crunch.
    pub fn is_stressed(&self) -> bool {
        self.state.slow_margin < self.params.stress_cut
    }

    /// Current interruption hazard, per hour of running time.
    pub fn hazard_per_hour(&self) -> f64 {
        let p = &self.params;
        let stress_now = ((p.stress_cut - self.state.slow_margin) / p.stress_cut).clamp(0.0, 1.0);
        let stress = stress_now.max(0.75 * self.state.recent_stress);
        // Cubic in stress: shallow grazes below the cut barely matter, deep
        // starvation is lethal — this separates the paper's M-M row from
        // its L rows.
        (p.hazard_base + p.hazard_peak * stress * stress * stress) * p.hazard_mult
    }

    /// Probability that a running instance in this pool is interrupted
    /// within the next `dt`.
    pub fn interruption_prob(&self, dt: SimDuration) -> f64 {
        let dt_h = dt.as_secs() as f64 / 3600.0;
        1.0 - (-self.hazard_per_hour() * dt_h).exp()
    }

    /// Samples a fulfillment latency, in seconds, for a request whose
    /// current headroom ratio is `ratio` (must be ≥ 1.0: callers hold the
    /// request otherwise). Richer pools fulfill almost immediately; tight
    /// pools take minutes (Figure 11a).
    pub fn sample_fulfillment_latency(&mut self, ratio: f64) -> f64 {
        debug_assert!(ratio >= 1.0);
        let median = (2.0 * (3.0 / ratio.min(3.0)).powf(2.8)).clamp(0.4, 600.0);
        let z = normal(&mut self.rng);
        (median * (1.0_f64 * z).exp()).clamp(0.2, 7200.0)
    }

    /// Draws a uniform value in `[0, 1)` from the pool's RNG stream.
    pub fn draw(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Takes (and resets) the stress-hours accumulator; the advisor calls
    /// this when rolling its daily window.
    pub fn take_stress_hours(&mut self) -> f64 {
        std::mem::take(&mut self.state.stress_hours_today)
    }

    /// Updates the smoothed spot price process. Returns the new price if it
    /// changed enough to be recorded as a price-change event.
    pub fn step_price(&mut self) -> Option<SpotPrice> {
        let p = &self.params;
        // Slow mean-reverting walk of the savings fraction; deliberately
        // driven by its own noise, not the margin, reproducing the paper's
        // finding that the post-2017 price carries little availability
        // information (Figure 8).
        let eps = normal(&mut self.rng);
        let s = self.state.savings;
        let next = (s + 0.02 * (p.savings_mean - s) + 0.004 * eps).clamp(0.05, 0.85);
        self.state.savings = next;
        let new_price = initial_price(p.od_micros, next);
        let old = self.state.price.micros() as f64;
        if (new_price.micros() as f64 - old).abs() / old > 0.02 {
            self.state.price = new_price;
            Some(new_price)
        } else {
            None
        }
    }
}

/// Inverse-CDF draw of the advisor's base reported interruption ratio for a
/// (type, region) pair, matched to Table 2's interruption-free score
/// distribution (33.05 / 25.92 / 13.86 / 6.33 / 20.84% for buckets
/// `<5%` .. `>20%`). `mode` selects the bucket, `level` the position within
/// it; the small trailing stress term added at report time shifts a share of
/// pairs one bucket up, which the slightly lowered bucket shares below
/// pre-compensate.
fn advisor_bias_from(mode: f64, level: f64) -> f64 {
    let (lo, hi) = if mode < 0.36 {
        (-0.01, 0.045)
    } else if mode < 0.62 {
        (0.05, 0.095)
    } else if mode < 0.75 {
        (0.10, 0.145)
    } else if mode < 0.81 {
        (0.15, 0.195)
    } else {
        (0.20, 0.30)
    };
    lo + (hi - lo) * level
}

fn initial_price(od_micros: u64, savings: f64) -> SpotPrice {
    let micros = ((od_micros as f64) * (1.0 - savings)).round().max(1.0) as u64;
    SpotPrice::from_micros(micros).expect("derived spot price is positive")
}

/// Standard normal draw via Box–Muller.
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlake_types::Catalog;

    fn test_pool(type_name: &str) -> (Catalog, Pool) {
        let catalog = Catalog::aws_2022();
        let ty = catalog.instance_type_id(type_name).unwrap();
        let az = catalog.az_id("us-east-1a").unwrap();
        let pool = Pool::new(&catalog, &SimConfig::default(), ty, az);
        (catalog, pool)
    }

    #[test]
    fn pool_construction_is_deterministic() {
        let (_, a) = test_pool("m5.large");
        let (_, b) = test_pool("m5.large");
        assert_eq!(a.params(), b.params());
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn different_seeds_give_different_pools() {
        let catalog = Catalog::aws_2022();
        let ty = catalog.instance_type_id("m5.large").unwrap();
        let az = catalog.az_id("us-east-1a").unwrap();
        let a = Pool::new(&catalog, &SimConfig::with_seed(1), ty, az);
        let b = Pool::new(&catalog, &SimConfig::with_seed(2), ty, az);
        assert_ne!(a.state().margin, b.state().margin);
    }

    #[test]
    fn margin_stays_in_bounds_over_long_run() {
        let (_, mut pool) = test_pool("p3.2xlarge");
        for _ in 0..5000 {
            pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
            let m = pool.state().margin;
            assert!((0.001..=0.97).contains(&m), "margin {m} escaped bounds");
        }
    }

    #[test]
    fn margin_mean_reverts() {
        let (_, mut pool) = test_pool("m5.large");
        let target = pool.params().margin_mean;
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
            sum += pool.state().margin;
        }
        let mean = sum / f64::from(n);
        assert!(
            (mean - target).abs() < target * 0.35,
            "long-run mean {mean:.3} too far from target {target:.3}"
        );
    }

    #[test]
    fn accelerated_pools_are_scarcer() {
        let (_, gpu) = test_pool("p3.2xlarge");
        let (_, general) = test_pool("m5.2xlarge");
        assert!(gpu.params().capacity < general.params().capacity);
    }

    #[test]
    fn score_thresholds() {
        // A scarce GPU pool: crushing its margin leaves headroom below one
        // instance → score 1. (A general-purpose m5 pool is so large that
        // even a crushed margin still covers single-instance requests —
        // which is why Table 2 sees score 1 mostly on specialty hardware.)
        let (_, mut pool) = test_pool("p3.2xlarge");
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 0.0001));
        assert_eq!(pool.score_for(1), 1);

        let (_, mut pool) = test_pool("m5.large");
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        assert_eq!(pool.score_for(1), 3);
        // Requesting absurd capacity pushes any pool to score 1.
        assert_eq!(pool.score_for(1_000_000), 1);
    }

    #[test]
    fn score_is_monotone_in_count() {
        let (_, mut pool) = test_pool("g4dn.xlarge");
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        let mut prev = 3;
        for count in [1u32, 2, 5, 10, 20, 50, 100, 1000] {
            let s = pool.score_for(count);
            assert!(s <= prev, "score must not increase with count");
            prev = s;
        }
    }

    #[test]
    fn hazard_rises_under_stress() {
        let (_, mut pool) = test_pool("m5.large");
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        let calm = pool.hazard_per_hour();
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 0.0001));
        let stressed = pool.hazard_per_hour();
        assert!(
            stressed > calm * 10.0,
            "stressed hazard {stressed} should dwarf calm hazard {calm}"
        );
        assert!(pool.is_stressed());
    }

    #[test]
    fn interruption_prob_scales_with_dt() {
        let (_, mut pool) = test_pool("m5.large");
        pool.step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        let p1 = pool.interruption_prob(SimDuration::from_hours(1));
        let p24 = pool.interruption_prob(SimDuration::from_hours(24));
        assert!(p24 > p1);
        assert!((0.0..1.0).contains(&p1));
    }

    #[test]
    fn fulfillment_latency_shorter_for_richer_pools() {
        let (_, mut pool) = test_pool("m5.large");
        let rich: f64 = (0..200).map(|_| pool.sample_fulfillment_latency(3.0)).sum();
        let tight: f64 = (0..200).map(|_| pool.sample_fulfillment_latency(1.0)).sum();
        assert!(tight > rich * 2.0, "tight {tight:.0}s vs rich {rich:.0}s");
    }

    #[test]
    fn price_process_stays_bounded_and_changes_occasionally() {
        let (_, mut pool) = test_pool("m5.large");
        let od = pool.params().od_micros;
        let mut changes = 0;
        for _ in 0..1000 {
            if pool.step_price().is_some() {
                changes += 1;
            }
            let price = pool.state().price.micros();
            assert!(price < od, "spot stays below on-demand");
            assert!(price > od / 20, "spot does not collapse to zero");
        }
        assert!(changes > 10, "price should change sometimes ({changes})");
        assert!(
            changes < 800,
            "post-2017 price must be sticky ({changes} changes in 1000 steps)"
        );
    }

    #[test]
    fn stress_hours_accumulate_and_reset() {
        let (_, mut pool) = test_pool("m5.large");
        pool.step(&TickInputs::new(SimDuration::from_hours(1), 0.0001));
        assert!(pool.state().stress_hours_today > 0.9);
        let taken = pool.take_stress_hours();
        assert!(taken > 0.9);
        assert_eq!(pool.state().stress_hours_today, 0.0);
    }
}
