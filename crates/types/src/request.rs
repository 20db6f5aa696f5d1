//! The spot request lifecycle (paper Table 1).
//!
//! | Status             | Description                                            |
//! |--------------------|--------------------------------------------------------|
//! | Pending Evaluation | A valid spot request is submitted                      |
//! | Holding            | Some request constraints cannot be met                 |
//! | Fulfilled          | All constraints met; instance running                  |
//! | Terminal           | Request disabled (outbid, capacity, user, ...)         |
//!
//! [`RequestState`] encodes the states and [`RequestState::can_transition_to`]
//! the legal transitions; [`SpotRequest`] tracks one request's history so the
//! fulfillment experiments of Section 5.4 can measure time-to-fulfillment and
//! time-to-interruption.

use crate::price::SpotPrice;
use crate::region::AzId;
use crate::time::{SimDuration, SimTime};
use crate::InstanceTypeId;
use std::fmt;

/// The status of a spot instance request, per Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RequestState {
    /// A valid spot request has been submitted and is being evaluated.
    PendingEvaluation,
    /// Some request constraint cannot currently be met (price too low,
    /// capacity unavailable, ...); the request waits.
    Holding,
    /// All constraints are met and an instance is running.
    Fulfilled,
    /// The request is disabled: outbid, capacity reclaimed, or cancelled by
    /// the user.
    Terminal,
}

impl RequestState {
    /// All states in lifecycle order.
    pub const ALL: [RequestState; 4] = [
        RequestState::PendingEvaluation,
        RequestState::Holding,
        RequestState::Fulfilled,
        RequestState::Terminal,
    ];

    /// The status label AWS displays, e.g. `"pending-evaluation"`.
    pub fn label(self) -> &'static str {
        match self {
            RequestState::PendingEvaluation => "pending-evaluation",
            RequestState::Holding => "holding",
            RequestState::Fulfilled => "fulfilled",
            RequestState::Terminal => "terminal",
        }
    }

    /// The description column of Table 1.
    pub fn description(self) -> &'static str {
        match self {
            RequestState::PendingEvaluation => "A valid spot request is submitted",
            RequestState::Holding => {
                "Some request constraints cannot be met (price, location, resource availability)"
            }
            RequestState::Fulfilled => {
                "All the spot request constraints are met, and instance status being updated to running"
            }
            RequestState::Terminal => {
                "A spot request is disabled possibly by price outbid, resource unavailability, user"
            }
        }
    }

    /// Whether the lifecycle may move from `self` directly to `next`.
    ///
    /// Legal transitions: `PendingEvaluation` → {`Holding`, `Fulfilled`,
    /// `Terminal`}, `Holding` → {`Fulfilled`, `Terminal`}, `Fulfilled` →
    /// {`Terminal`}, and — for *persistent* requests only, which re-enter
    /// evaluation after an interruption — `Fulfilled`/`Holding`/`Terminal` →
    /// `PendingEvaluation` is handled by [`SpotRequest::resubmit`], not here.
    pub fn can_transition_to(self, next: RequestState) -> bool {
        use RequestState::*;
        matches!(
            (self, next),
            (PendingEvaluation, Holding)
                | (PendingEvaluation, Fulfilled)
                | (PendingEvaluation, Terminal)
                | (Holding, Fulfilled)
                | (Holding, Terminal)
                | (Fulfilled, Terminal)
        )
    }
}

impl fmt::Display for RequestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a fulfilled request left the `Fulfilled` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InterruptionReason {
    /// The spot price rose above the bid price.
    PriceOutbid,
    /// The provider reclaimed capacity.
    CapacityReclaim,
    /// The user cancelled the request.
    UserCancelled,
}

impl fmt::Display for InterruptionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterruptionReason::PriceOutbid => "price-outbid",
            InterruptionReason::CapacityReclaim => "capacity-reclaim",
            InterruptionReason::UserCancelled => "user-cancelled",
        })
    }
}

/// Configuration of a spot instance request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpotRequestConfig {
    /// Requested instance type.
    pub instance_type: InstanceTypeId,
    /// Target availability zone.
    pub az: AzId,
    /// Maximum hourly price the requester will pay. The paper's experiments
    /// set the bid equal to the on-demand price (Section 5.4, citing its
    /// reference 45, "How not to bid the cloud").
    pub bid: SpotPrice,
    /// Number of instances requested.
    pub count: u32,
    /// Whether the request is *persistent*: re-submitted automatically after
    /// an interruption, as in the paper's 24-hour experiments.
    pub persistent: bool,
}

/// One state-change event in a request's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// The state entered.
    pub state: RequestState,
}

/// A spot instance request with its full state history.
///
/// The history is what the Section 5.4 experiments record "every five
/// seconds"; [`SpotRequest::fulfillment_latency`] and
/// [`SpotRequest::first_run_duration`] derive the Figure 11 metrics from it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpotRequest {
    config: SpotRequestConfig,
    state: RequestState,
    history: Vec<RequestEvent>,
    interruptions: u32,
}

impl SpotRequest {
    /// Submits a new request at time `at`; it starts in
    /// [`RequestState::PendingEvaluation`].
    pub fn submit(config: SpotRequestConfig, at: SimTime) -> Self {
        SpotRequest {
            config,
            state: RequestState::PendingEvaluation,
            history: vec![RequestEvent {
                at,
                state: RequestState::PendingEvaluation,
            }],
            interruptions: 0,
        }
    }

    /// The request's configuration.
    pub fn config(&self) -> &SpotRequestConfig {
        &self.config
    }

    /// The current state.
    pub fn state(&self) -> RequestState {
        self.state
    }

    /// The full state-change history, oldest first.
    pub fn history(&self) -> &[RequestEvent] {
        &self.history
    }

    /// Number of interruptions (transitions out of `Fulfilled` not caused by
    /// the user) observed so far.
    pub fn interruptions(&self) -> u32 {
        self.interruptions
    }

    /// Moves the request to `next` at time `at`.
    ///
    /// # Errors
    ///
    /// Returns the illegal `(from, to)` pair if Table 1 does not allow the
    /// transition.
    pub fn transition(
        &mut self,
        next: RequestState,
        at: SimTime,
    ) -> Result<(), (RequestState, RequestState)> {
        if !self.state.can_transition_to(next) {
            return Err((self.state, next));
        }
        if self.state == RequestState::Fulfilled && next == RequestState::Terminal {
            self.interruptions += 1;
        }
        self.state = next;
        self.history.push(RequestEvent { at, state: next });
        Ok(())
    }

    /// Re-submits a persistent request after an interruption: the request
    /// re-enters `PendingEvaluation`.
    ///
    /// # Panics
    ///
    /// Panics if the request is not persistent.
    pub fn resubmit(&mut self, at: SimTime) {
        assert!(
            self.config.persistent,
            "resubmit is only valid for persistent requests"
        );
        self.state = RequestState::PendingEvaluation;
        self.history.push(RequestEvent {
            at,
            state: RequestState::PendingEvaluation,
        });
    }

    /// Time from submission until the *first* fulfillment, or `None` if the
    /// request was never fulfilled (Figure 11a).
    pub fn fulfillment_latency(&self) -> Option<SimDuration> {
        let submitted = self.history.first()?.at;
        self.history
            .iter()
            .find(|e| e.state == RequestState::Fulfilled)
            .map(|e| e.at.since(submitted))
    }

    /// Duration of the first fulfilled run: from first fulfillment to the
    /// next state change, or `None` if never fulfilled or still running
    /// (Figure 11b).
    pub fn first_run_duration(&self) -> Option<SimDuration> {
        let idx = self
            .history
            .iter()
            .position(|e| e.state == RequestState::Fulfilled)?;
        let start = self.history[idx].at;
        self.history.get(idx + 1).map(|e| e.at.since(start))
    }

    /// Whether the request was ever fulfilled.
    pub fn was_fulfilled(&self) -> bool {
        self.history
            .iter()
            .any(|e| e.state == RequestState::Fulfilled)
    }

    /// Whether the request was interrupted at least once.
    pub fn was_interrupted(&self) -> bool {
        self.interruptions > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(persistent: bool) -> SpotRequestConfig {
        SpotRequestConfig {
            instance_type: InstanceTypeId(0),
            az: AzId(0),
            bid: SpotPrice::from_usd(1.0).unwrap(),
            count: 1,
            persistent,
        }
    }

    #[test]
    fn table1_legal_transitions() {
        use RequestState::*;
        assert!(PendingEvaluation.can_transition_to(Holding));
        assert!(PendingEvaluation.can_transition_to(Fulfilled));
        assert!(PendingEvaluation.can_transition_to(Terminal));
        assert!(Holding.can_transition_to(Fulfilled));
        assert!(Holding.can_transition_to(Terminal));
        assert!(Fulfilled.can_transition_to(Terminal));
    }

    #[test]
    fn table1_illegal_transitions() {
        use RequestState::*;
        assert!(!Terminal.can_transition_to(Fulfilled));
        assert!(!Terminal.can_transition_to(PendingEvaluation));
        assert!(!Fulfilled.can_transition_to(Holding));
        assert!(!Fulfilled.can_transition_to(PendingEvaluation));
        assert!(!Holding.can_transition_to(PendingEvaluation));
        for s in RequestState::ALL {
            assert!(!s.can_transition_to(s), "{s} -> {s} must be illegal");
        }
    }

    #[test]
    fn fulfillment_latency_measures_first_fulfillment() {
        let mut r = SpotRequest::submit(config(false), SimTime::from_secs(100));
        assert_eq!(r.fulfillment_latency(), None);
        r.transition(RequestState::Holding, SimTime::from_secs(110))
            .unwrap();
        r.transition(RequestState::Fulfilled, SimTime::from_secs(160))
            .unwrap();
        assert_eq!(r.fulfillment_latency(), Some(SimDuration::from_secs(60)));
        assert!(r.was_fulfilled());
    }

    #[test]
    fn interruption_counting_and_run_duration() {
        let mut r = SpotRequest::submit(config(true), SimTime::EPOCH);
        r.transition(RequestState::Fulfilled, SimTime::from_secs(5))
            .unwrap();
        r.transition(RequestState::Terminal, SimTime::from_secs(3605))
            .unwrap();
        assert_eq!(r.interruptions(), 1);
        assert!(r.was_interrupted());
        assert_eq!(r.first_run_duration(), Some(SimDuration::from_secs(3600)));

        // Persistent requests can resubmit and be fulfilled again.
        r.resubmit(SimTime::from_secs(3610));
        assert_eq!(r.state(), RequestState::PendingEvaluation);
        r.transition(RequestState::Fulfilled, SimTime::from_secs(3620))
            .unwrap();
        // First-run metrics are unchanged by later cycles.
        assert_eq!(r.first_run_duration(), Some(SimDuration::from_secs(3600)));
        assert_eq!(r.fulfillment_latency(), Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn illegal_transition_is_reported() {
        let mut r = SpotRequest::submit(config(false), SimTime::EPOCH);
        r.transition(RequestState::Terminal, SimTime::from_secs(1))
            .unwrap();
        let err = r
            .transition(RequestState::Fulfilled, SimTime::from_secs(2))
            .unwrap_err();
        assert_eq!(err, (RequestState::Terminal, RequestState::Fulfilled));
    }

    #[test]
    #[should_panic(expected = "persistent")]
    fn resubmit_requires_persistent() {
        let mut r = SpotRequest::submit(config(false), SimTime::EPOCH);
        r.resubmit(SimTime::from_secs(1));
    }

    #[test]
    fn table1_rows_render() {
        for s in RequestState::ALL {
            assert!(!s.label().is_empty());
            assert!(!s.description().is_empty());
        }
    }
}
