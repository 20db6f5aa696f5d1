//! `sim_experiment`: the full-catalog simulator stepping under 500
//! persistent one-instance spot requests (bid = on-demand), the shape of the
//! paper's Section 5.4 experiments. `cloud-sim` does all the work and every
//! other layer none, so this is where an event-driven simulator core shows —
//! and, a tick being ~2 % of a collection round, where it must not show on
//! `collect_*`.

use super::{ms_since, report_timing, Ctx, Tail};
use crate::stats::{self, Rng};
use spotlake_cloud_sim::{RequestId, SimCloud, SimConfig};
use spotlake_types::{Catalog, RequestState, SpotPrice, SpotRequestConfig};
use std::time::Instant;

/// Ticks per second of `--seconds` (a tick is ~2.9 ms on the reference
/// machine with 500 requests live).
const TICKS_PER_S: f64 = 320.0;
/// Persistent requests submitted at set-up.
const REQUESTS: usize = 500;

struct Experiment {
    cloud: SimCloud,
    requests: Vec<RequestId>,
    new_ms: f64,
}

/// Catalog, cloud, and `requests` requests on seeded-sampled distinct pools.
fn set_up(seed: u64, catalog: Catalog, requests: usize) -> Experiment {
    let t = Instant::now();
    let mut cloud = SimCloud::new(catalog, SimConfig::with_seed(seed));
    let new_ms = ms_since(t);
    let mut pools = cloud.catalog().supported_pools();
    let mut rng = Rng::new(seed, 0x51A1);
    let mut ids = Vec::with_capacity(requests);
    for i in 0..requests.min(pools.len()) {
        // Partial Fisher–Yates: the first `requests` slots end up a uniform
        // sample without replacement.
        let j = i + rng.below(pools.len() - i);
        pools.swap(i, j);
        let (ty, az) = pools[i];
        let catalog = cloud.catalog();
        let od = catalog.od_price_in(ty, catalog.az(az).region());
        let bid = SpotPrice::from_micros(od.micros()).expect("on-demand prices are positive");
        let id = cloud
            .submit_request(SpotRequestConfig {
                instance_type: ty,
                az,
                bid,
                count: 1,
                persistent: true,
            })
            .expect("sampled pools are offered");
        ids.push(id);
    }
    Experiment {
        cloud,
        requests: ids,
        new_ms,
    }
}

pub fn run(ctx: &mut Ctx) {
    let seed = ctx.seed;
    let mut exp = ctx.setup(|_| set_up(seed, Catalog::aws_2022(), REQUESTS));
    let planned = ctx.split(ctx.scale.ops(TICKS_PER_S, 1));

    let mut waits = Vec::with_capacity(planned.0);
    let mut tick = |ctx: &mut Ctx| {
        let n = exp.cloud.ticks() + 1;
        let root = ctx.tracer.begin("tick", "", n, None);
        let t = Instant::now();
        ctx.tracer
            .leaf("cloud-sim.step", "", n, Some(root), || exp.cloud.step());
        waits.push(ms_since(t));
        ctx.tracer.end(root);
    };
    let plain = ctx.stretch(planned.0, false, &mut tick);
    let traced = ctx.stretch(planned.1, true, &mut tick);
    ctx.book(planned, &plain, &traced);

    if ctx.traced {
        let steps = ctx.tracer.durations_ms("cloud-sim.step", "");
        ctx.report
            .set("cloud-sim.step_ms_p50", stats::median(&steps));
        ctx.report
            .set("cloud-sim.pools_per_tick", exp.cloud.pool_count() as f64);
        ctx.report.set("cloud-sim.new_ms", exp.new_ms);
    } else {
        report_timing(&mut ctx.report, &plain, waits, Tail::Percentile(0.95));
    }

    let done = (plain.done + traced.done) as u64;
    ctx.report.check(
        "sim_ticks_advance_one_per_step",
        exp.cloud.ticks() == done,
        || format!("{} ticks after {done} steps", exp.cloud.ticks()),
    );

    // Request-state counts and interruptions: exact for a seed and a tick
    // count, so two runs of one commit must print the same lines.
    ctx.report.count("exact.sim.ticks", done as f64);
    let mut interruptions = 0u64;
    let mut by_state = [0u32; 4];
    for id in &exp.requests {
        let request = exp.cloud.request(*id).expect("request was submitted");
        interruptions += u64::from(request.interruptions());
        let slot = RequestState::ALL
            .iter()
            .position(|s| *s == request.state())
            .expect("every state is listed");
        by_state[slot] += 1;
    }
    for (state, n) in RequestState::ALL.iter().zip(by_state) {
        ctx.report.count(
            format!("exact.sim.requests_{}", state.label()),
            f64::from(n),
        );
    }
    ctx.report
        .count("exact.sim.interruptions", interruptions as f64);
    ctx.report
        .set("cloud-sim.interruptions", interruptions as f64);
    ctx.report.check(
        "sim_requests_all_accounted",
        by_state.iter().sum::<u32>() as usize == exp.requests.len(),
        || "a request is in no state".to_owned(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_request_schedule_and_outcome() {
        let outcome = |seed| {
            let mut exp = set_up(seed, crate::paths::tiny_catalog(), 6);
            exp.cloud.run_ticks(200);
            exp.requests
                .iter()
                .map(|id| {
                    let r = exp.cloud.request(*id).unwrap();
                    (r.config().clone(), r.state(), r.interruptions())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(outcome(3), outcome(3));
        assert_ne!(outcome(3), outcome(4));
        assert_eq!(outcome(3).len(), 6);
    }
}
