//! Spot request lifecycle management (paper Table 1, Section 5.4).
//!
//! Requests live in the [`Lifecycle`] registry. Once per simulation tick the
//! registry re-evaluates every request against its pool:
//!
//! * `PendingEvaluation` / `Holding` requests fulfill when the pool's
//!   headroom covers the requested count, with a latency sampled from the
//!   pool (richer pools fulfill in seconds — Figure 11a); otherwise they
//!   (remain in) `Holding`.
//! * `Fulfilled` requests face the pool's interruption hazard each tick
//!   (Figure 11b); *persistent* requests re-enter evaluation right after an
//!   interruption, as in the paper's 24-hour experiments.

use crate::pool::{Pool, PoolId};
use spotlake_types::{RequestState, SimDuration, SimTime, SpotRequest, SpotRequestConfig};

/// Final classification of an experiment request, the target classes of the
/// paper's prediction task (Section 5.5): `NoFulfill`, `Interrupted`, or
/// `NoInterrupt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestOutcome {
    /// The request was never fulfilled during the observation window.
    NoFulfill,
    /// The request was fulfilled and interrupted at least once.
    Interrupted,
    /// The request was fulfilled and never interrupted.
    NoInterrupt,
}

impl RequestOutcome {
    /// Classifies a request's observed history.
    pub fn of(request: &SpotRequest) -> RequestOutcome {
        if !request.was_fulfilled() {
            RequestOutcome::NoFulfill
        } else if request.was_interrupted() {
            RequestOutcome::Interrupted
        } else {
            RequestOutcome::NoInterrupt
        }
    }

    /// Short label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::NoFulfill => "NoFulfill",
            RequestOutcome::Interrupted => "Interrupted",
            RequestOutcome::NoInterrupt => "NoInterrupt",
        }
    }
}

impl std::fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ActiveRequest {
    pub(crate) request: SpotRequest,
    pub(crate) pool: PoolId,
    pub(crate) cancelled: bool,
    /// Headroom ratio this particular request needs to place. Most
    /// requests place at ratio 1.0; a minority lands on fragmented hosts
    /// and needs up to 1.5x (the paper cites resource fragmentation [13] as
    /// the reason larger/tighter placements fail) — this is what leaves a
    /// share of medium-score requests unfulfilled for a whole day
    /// (Table 3's M-M row).
    pub(crate) required_ratio: f64,
}

/// Registry of all spot requests in the cloud.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lifecycle {
    requests: Vec<ActiveRequest>,
}

impl Lifecycle {
    pub(crate) fn submit(
        &mut self,
        config: SpotRequestConfig,
        pool: PoolId,
        at: SimTime,
        required_ratio: f64,
    ) -> usize {
        let id = self.requests.len();
        self.requests.push(ActiveRequest {
            request: SpotRequest::submit(config, at),
            pool,
            cancelled: false,
            required_ratio,
        });
        id
    }

    pub(crate) fn request(&self, id: usize) -> Option<&SpotRequest> {
        self.requests.get(id).map(|a| &a.request)
    }

    pub(crate) fn len(&self) -> usize {
        self.requests.len()
    }

    /// Cancels a request: it transitions to `Terminal` (if not already) and
    /// will not be resubmitted even if persistent.
    pub(crate) fn cancel(&mut self, id: usize, at: SimTime) -> bool {
        let Some(active) = self.requests.get_mut(id) else {
            return false;
        };
        active.cancelled = true;
        if active.request.state() != RequestState::Terminal {
            active
                .request
                .transition(RequestState::Terminal, at)
                .expect("every non-terminal state may terminate");
        }
        true
    }

    /// Advances every live request by one tick. `now` is the tick start and
    /// `dt` the tick length; event timestamps fall inside `[now, now + dt)`.
    pub(crate) fn step(&mut self, pools: &mut [Pool], now: SimTime, dt: SimDuration) {
        for active in &mut self.requests {
            if active.cancelled {
                continue;
            }
            let pool = &mut pools[active.pool.0 as usize];
            let count = active.request.config().count;
            match active.request.state() {
                RequestState::PendingEvaluation | RequestState::Holding => {
                    let ratio = pool.fulfillment_ratio(count);
                    if ratio >= active.required_ratio {
                        let latency = pool
                            .sample_fulfillment_latency(ratio)
                            .min(dt.as_secs().saturating_sub(1) as f64);
                        let at = now + SimDuration::from_secs(latency.round() as u64);
                        active
                            .request
                            .transition(RequestState::Fulfilled, at)
                            .expect("pending/holding -> fulfilled is legal");
                    } else if active.request.state() == RequestState::PendingEvaluation {
                        let at = now + SimDuration::from_secs(1);
                        active
                            .request
                            .transition(RequestState::Holding, at)
                            .expect("pending -> holding is legal");
                    }
                }
                RequestState::Fulfilled => {
                    // Newest-first reclaim: freshly placed instances face a
                    // multiple of the pool hazard that decays over the
                    // first hours (this is what clusters the paper's
                    // Figure 11b interruptions early in the run).
                    let age_h = active
                        .request
                        .history()
                        .iter()
                        .rev()
                        .find(|e| e.state == RequestState::Fulfilled)
                        .map(|e| now.checked_since(e.at).map_or(0.0, |d| d.as_hours_f64()))
                        .unwrap_or(0.0);
                    let age_mult = 1.0 + 3.0 * (-age_h / 4.0).exp();
                    let dt_h = dt.as_secs() as f64 / 3600.0;
                    let q = 1.0 - (-pool.hazard_per_hour() * age_mult * dt_h).exp();
                    if pool.draw() < q {
                        let offset = (pool.draw() * dt.as_secs() as f64) as u64;
                        let at = now + SimDuration::from_secs(offset.max(1));
                        active
                            .request
                            .transition(RequestState::Terminal, at)
                            .expect("fulfilled -> terminal is legal");
                        if active.request.config().persistent {
                            active.request.resubmit(at + SimDuration::from_secs(2));
                        }
                    }
                }
                RequestState::Terminal => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::pool::TickInputs;
    use spotlake_types::{AzId, Catalog, SpotPrice};

    fn setup(type_name: &str) -> (Catalog, Vec<Pool>) {
        let catalog = Catalog::aws_2022();
        let config = SimConfig::default();
        let ty = catalog.instance_type_id(type_name).unwrap();
        let az = catalog.az_id("us-east-1a").unwrap();
        let pools = vec![Pool::new(&catalog, &config, ty, az)];
        (catalog, pools)
    }

    fn request_config(catalog: &Catalog, type_name: &str, persistent: bool) -> SpotRequestConfig {
        SpotRequestConfig {
            instance_type: catalog.instance_type_id(type_name).unwrap(),
            az: AzId(0),
            bid: SpotPrice::from_usd(1.0).unwrap(),
            count: 1,
            persistent,
        }
    }

    #[test]
    fn healthy_pool_fulfills_quickly() {
        let (catalog, mut pools) = setup("m5.large");
        let mut lc = Lifecycle::default();
        let id = lc.submit(
            request_config(&catalog, "m5.large", false),
            PoolId(0),
            SimTime::EPOCH,
            1.0,
        );
        pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        lc.step(&mut pools, SimTime::EPOCH, SimDuration::from_mins(10));
        let req = lc.request(id).unwrap();
        assert_eq!(req.state(), RequestState::Fulfilled);
        let latency = req.fulfillment_latency().unwrap();
        assert!(latency < SimDuration::from_mins(10));
    }

    #[test]
    fn crushed_pool_holds() {
        // A scarce GPU pool: crushed margin leaves headroom below one
        // instance, so the request must hold.
        let (catalog, mut pools) = setup("g4dn.xlarge");
        let mut lc = Lifecycle::default();
        let id = lc.submit(
            request_config(&catalog, "g4dn.xlarge", false),
            PoolId(0),
            SimTime::EPOCH,
            1.0,
        );
        pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 0.00001));
        lc.step(&mut pools, SimTime::EPOCH, SimDuration::from_mins(10));
        assert_eq!(lc.request(id).unwrap().state(), RequestState::Holding);
        // Capacity recovers -> fulfilled on a later tick.
        pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        lc.step(
            &mut pools,
            SimTime::EPOCH + SimDuration::from_mins(10),
            SimDuration::from_mins(10),
        );
        assert_eq!(lc.request(id).unwrap().state(), RequestState::Fulfilled);
    }

    #[test]
    fn stressed_pool_interrupts_and_persistent_resubmits() {
        let (catalog, mut pools) = setup("m5.large");
        let mut lc = Lifecycle::default();
        let id = lc.submit(
            request_config(&catalog, "m5.large", true),
            PoolId(0),
            SimTime::EPOCH,
            1.0,
        );
        pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        lc.step(&mut pools, SimTime::EPOCH, SimDuration::from_mins(10));
        assert_eq!(lc.request(id).unwrap().state(), RequestState::Fulfilled);

        // Crush the pool; with the hazard near its peak an interruption
        // should land within a simulated day.
        let mut t = SimTime::EPOCH + SimDuration::from_mins(10);
        for _ in 0..144 {
            pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 0.00001));
            lc.step(&mut pools, t, SimDuration::from_mins(10));
            t += SimDuration::from_mins(10);
        }
        let req = lc.request(id).unwrap();
        assert!(
            req.was_interrupted(),
            "no interruption in 24h of full stress"
        );
        // Persistent: after the interruption the request re-entered the
        // lifecycle rather than staying terminal.
        assert_ne!(req.state(), RequestState::Terminal);
    }

    #[test]
    fn cancel_terminates_and_sticks() {
        let (catalog, mut pools) = setup("m5.large");
        let mut lc = Lifecycle::default();
        let id = lc.submit(
            request_config(&catalog, "m5.large", true),
            PoolId(0),
            SimTime::EPOCH,
            1.0,
        );
        assert!(lc.cancel(id, SimTime::from_secs(5)));
        assert_eq!(lc.request(id).unwrap().state(), RequestState::Terminal);
        pools[0].step(&TickInputs::new(SimDuration::from_mins(10), 1.0));
        lc.step(&mut pools, SimTime::EPOCH, SimDuration::from_mins(10));
        assert_eq!(
            lc.request(id).unwrap().state(),
            RequestState::Terminal,
            "cancelled request must not resubmit"
        );
        assert!(!lc.cancel(999, SimTime::EPOCH));
    }

    #[test]
    fn outcome_classification() {
        let (catalog, _) = setup("m5.large");
        let mut req =
            SpotRequest::submit(request_config(&catalog, "m5.large", false), SimTime::EPOCH);
        assert_eq!(RequestOutcome::of(&req), RequestOutcome::NoFulfill);
        req.transition(RequestState::Fulfilled, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(RequestOutcome::of(&req), RequestOutcome::NoInterrupt);
        req.transition(RequestState::Terminal, SimTime::from_secs(20))
            .unwrap();
        assert_eq!(RequestOutcome::of(&req), RequestOutcome::Interrupted);
        assert_eq!(RequestOutcome::Interrupted.to_string(), "Interrupted");
    }
}
