//! Multi-window burn-rate alerting over an error-budget stream.
//!
//! An SLO target like "99% of requests succeed" grants an *error budget*:
//! the 1% of units that may go bad before the objective is violated. The
//! **burn rate** is how fast that budget is being consumed relative to
//! plan — a burn of 1.0 spends exactly the budget over the evaluation
//! period, 10.0 spends it ten times too fast. Alerting on a single
//! window is either noisy (short window, one blip pages) or slow (long
//! window, a full outage takes minutes to notice); the standard fix is
//! *multi-window* alerting: page only when both a fast window (is it
//! happening right now?) and a slow window (has it been happening long
//! enough to matter?) exceed their thresholds.
//!
//! [`BurnTracker`] implements that as a pure function of an observed
//! step sequence: callers feed `(at_micros, good, bad)` unit counts —
//! timestamps are caller-stamped, exactly like the telemetry recorder —
//! and the tracker maintains windowed burn rates plus an
//! ok → warning → page state machine whose transitions are recorded with
//! the sample sequence number and timestamp that triggered them. Nothing
//! here reads a clock; two identical step sequences produce identical
//! states, burns, and transition lists.

use std::collections::VecDeque;

/// Alert state of one objective, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Burn is within policy on at least one window.
    Ok,
    /// Both windows exceed the warning burn thresholds.
    Warning,
    /// Both windows exceed the page burn thresholds.
    Page,
}

impl AlertState {
    /// Stable lowercase label (`ok` / `warning` / `page`).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Warning => "warning",
            AlertState::Page => "page",
        }
    }

    /// Numeric severity for gauges: 0 ok, 1 warning, 2 page.
    pub fn severity(self) -> u64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Warning => 1,
            AlertState::Page => 2,
        }
    }
}

/// Window lengths and burn thresholds for the alert state machine.
///
/// A state fires only when *both* windows exceed its thresholds: the
/// fast window confirms the burn is still happening, the slow window
/// that it is sustained. Severities are evaluated page-first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnPolicy {
    /// Fast ("is it happening now") window length in sample micros.
    pub fast_window_micros: u64,
    /// Slow ("is it sustained") window length in sample micros.
    pub slow_window_micros: u64,
    /// Warning threshold for the fast-window burn rate.
    pub warn_fast: f64,
    /// Warning threshold for the slow-window burn rate.
    pub warn_slow: f64,
    /// Page threshold for the fast-window burn rate.
    pub page_fast: f64,
    /// Page threshold for the slow-window burn rate.
    pub page_slow: f64,
}

impl Default for BurnPolicy {
    /// 1s/5s windows tuned for the serving benches: warning at 2x/1x
    /// budget speed, page at 10x/5x.
    fn default() -> Self {
        BurnPolicy {
            fast_window_micros: 1_000_000,
            slow_window_micros: 5_000_000,
            warn_fast: 2.0,
            warn_slow: 1.0,
            page_fast: 10.0,
            page_slow: 5.0,
        }
    }
}

/// One recorded state-machine transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlertTransition {
    /// Sequence number of the sample that triggered the transition.
    pub seq: u64,
    /// Caller-stamped timestamp of that sample.
    pub at_micros: u64,
    /// State before the transition.
    pub from: AlertState,
    /// State after the transition.
    pub to: AlertState,
    /// Fast-window burn rate at the transition.
    pub fast_burn: f64,
    /// Slow-window burn rate at the transition.
    pub slow_burn: f64,
}

/// One observed step retained inside the slow window.
#[derive(Debug, Clone, Copy)]
struct Step {
    at_micros: u64,
    good: f64,
    bad: f64,
}

/// Windowed burn-rate computation plus the alert state machine for one
/// objective. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct BurnTracker {
    policy: BurnPolicy,
    /// Budget fraction the target allows to go bad (`1 - target`),
    /// floored so a 100% target cannot divide by zero.
    allowed: f64,
    /// Steps inside the slow window, oldest first.
    steps: VecDeque<Step>,
    cum_good: f64,
    cum_bad: f64,
    state: AlertState,
    transitions: Vec<AlertTransition>,
    fast_burn: f64,
    slow_burn: f64,
}

impl BurnTracker {
    /// Creates a tracker for an objective with the given `target`
    /// success ratio (e.g. `0.99`) under `policy`.
    pub fn new(target: f64, policy: BurnPolicy) -> Self {
        BurnTracker {
            policy,
            allowed: (1.0 - target.clamp(0.0, 1.0)).max(1e-9),
            steps: VecDeque::new(),
            cum_good: 0.0,
            cum_bad: 0.0,
            state: AlertState::Ok,
            transitions: Vec::new(),
            fast_burn: 0.0,
            slow_burn: 0.0,
        }
    }

    /// Feeds one step — `good`/`bad` unit counts observed at sample
    /// `seq`, stamped `at_micros` — updates the windowed burns and the
    /// state machine, and returns the transition this step caused, if
    /// any. Timestamps must be non-decreasing (they come from one
    /// monotonic sample stream).
    pub fn observe(
        &mut self,
        seq: u64,
        at_micros: u64,
        good: f64,
        bad: f64,
    ) -> Option<AlertTransition> {
        let good = good.max(0.0);
        let bad = bad.max(0.0);
        self.cum_good += good;
        self.cum_bad += bad;
        self.steps.push_back(Step {
            at_micros,
            good,
            bad,
        });
        let slow_floor = at_micros.saturating_sub(self.policy.slow_window_micros);
        while self
            .steps
            .front()
            .is_some_and(|s| s.at_micros <= slow_floor)
        {
            self.steps.pop_front();
        }
        self.fast_burn = self.burn_over(at_micros, self.policy.fast_window_micros);
        self.slow_burn = self.burn_over(at_micros, self.policy.slow_window_micros);

        let next = if self.fast_burn >= self.policy.page_fast
            && self.slow_burn >= self.policy.page_slow
        {
            AlertState::Page
        } else if self.fast_burn >= self.policy.warn_fast && self.slow_burn >= self.policy.warn_slow
        {
            AlertState::Warning
        } else {
            AlertState::Ok
        };
        if next == self.state {
            return None;
        }
        let transition = AlertTransition {
            seq,
            at_micros,
            from: self.state,
            to: next,
            fast_burn: self.fast_burn,
            slow_burn: self.slow_burn,
        };
        self.state = next;
        self.transitions.push(transition);
        Some(transition)
    }

    /// Burn rate over the half-open window `(now - window, now]`: the
    /// bad-unit ratio inside it divided by the allowed ratio. Zero when
    /// the window holds no units.
    fn burn_over(&self, now_micros: u64, window_micros: u64) -> f64 {
        let floor = now_micros.saturating_sub(window_micros);
        let (mut good, mut bad) = (0.0, 0.0);
        for step in self.steps.iter().rev() {
            if step.at_micros <= floor {
                break;
            }
            good += step.good;
            bad += step.bad;
        }
        let total = good + bad;
        if total <= 0.0 {
            return 0.0;
        }
        (bad / total) / self.allowed
    }

    /// Current alert state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Latest fast-window burn rate.
    pub fn fast_burn(&self) -> f64 {
        self.fast_burn
    }

    /// Latest slow-window burn rate.
    pub fn slow_burn(&self) -> f64 {
        self.slow_burn
    }

    /// Every transition recorded so far, in order.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Cumulative good units observed.
    pub fn good(&self) -> f64 {
        self.cum_good
    }

    /// Cumulative bad units observed.
    pub fn bad(&self) -> f64 {
        self.cum_bad
    }

    /// Fraction of the error budget still unspent over the whole
    /// observed stream, clamped to `[0, 1]`: `1` with no bad units,
    /// `0` once the cumulative bad ratio reaches the allowed ratio.
    pub fn budget_remaining(&self) -> f64 {
        let total = self.cum_good + self.cum_bad;
        if total <= 0.0 {
            return 1.0;
        }
        (1.0 - (self.cum_bad / total) / self.allowed).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BurnPolicy {
        BurnPolicy::default()
    }

    #[test]
    fn clean_stream_never_alerts_and_keeps_full_budget() {
        let mut now = 0;
        let mut t = BurnTracker::new(0.99, policy());
        for seq in 0..50 {
            now += 100_000;
            assert_eq!(t.observe(seq, now, 10.0, 0.0), None);
        }
        assert_eq!(t.state(), AlertState::Ok);
        assert_eq!(t.fast_burn(), 0.0);
        assert_eq!(t.budget_remaining(), 1.0);
        assert!(t.transitions().is_empty());
    }

    #[test]
    fn total_outage_pages_immediately_and_recovers_after_the_window() {
        let mut now = 0;
        let mut t = BurnTracker::new(0.99, policy());
        now += 100_000;
        let tr = t
            .observe(0, now, 0.0, 10.0)
            .expect("100% bad at 100x budget speed must page");
        assert_eq!(tr.from, AlertState::Ok);
        assert_eq!(tr.to, AlertState::Page);
        assert_eq!(tr.seq, 0);
        assert_eq!(tr.at_micros, 100_000);
        assert!(tr.fast_burn >= 10.0 && tr.slow_burn >= 5.0, "{tr:?}");
        assert_eq!(t.state(), AlertState::Page);
        assert_eq!(t.budget_remaining(), 0.0);

        // Healthy traffic dilutes the windows; once the bad step ages out
        // of both windows the state returns to Ok (one transition).
        let mut recovered = Vec::new();
        for seq in 1..80 {
            now += 100_000;
            if let Some(tr) = t.observe(seq, now, 10.0, 0.0) {
                recovered.push(tr);
            }
        }
        assert_eq!(t.state(), AlertState::Ok);
        assert_eq!(t.transitions().last().map(|t| t.to), Some(AlertState::Ok));
        // Budget stays spent even after the alert clears: the bad ratio
        // over the whole stream exceeded the allowance.
        assert_eq!(t.budget_remaining(), 0.0);
        assert!(
            !recovered.is_empty() && recovered.iter().all(|t| t.to != AlertState::Page),
            "{recovered:?}"
        );
    }

    #[test]
    fn moderate_burn_warns_without_paging() {
        // 5% bad at a 1% allowance is a 5x burn: above warn (2x/1x),
        // below page on the fast window (10x).
        let mut now = 0;
        let mut t = BurnTracker::new(0.99, policy());
        for seq in 0..30 {
            now += 100_000;
            t.observe(seq, now, 19.0, 1.0);
        }
        assert_eq!(t.state(), AlertState::Warning);
        assert!(
            t.fast_burn() > 2.0 && t.fast_burn() < 10.0,
            "{}",
            t.fast_burn()
        );
        assert_eq!(t.transitions().len(), 1);
    }

    #[test]
    fn page_requires_both_windows() {
        // A long healthy history keeps the slow window below page level
        // when a short burst goes bad: warning (slow >= 1x) but no page.
        let mut now = 0;
        let mut t = BurnTracker::new(0.9, policy());
        for seq in 0..48 {
            now += 100_000;
            t.observe(seq, now, 10.0, 0.0);
        }
        assert_eq!(t.state(), AlertState::Ok);
        for seq in 48..52 {
            now += 100_000;
            t.observe(seq, now, 0.0, 10.0);
        }
        // Fast window (1s ≈ 10 steps) is ~40% bad → burn 4 < 10;
        // slow window (5s) is ~8% bad → burn 0.8 < 1. Still Ok.
        assert_eq!(
            t.state(),
            AlertState::Ok,
            "fast {} slow {}",
            t.fast_burn(),
            t.slow_burn()
        );
        assert!(t.fast_burn() > t.slow_burn());
    }

    #[test]
    fn identical_streams_produce_identical_trackers() {
        let run = || {
            let mut t = BurnTracker::new(0.95, policy());
            let mut out = Vec::new();
            for seq in 0..40u64 {
                let bad = if (20..26).contains(&seq) { 8.0 } else { 0.0 };
                if let Some(tr) = t.observe(seq, (seq + 1) * 137_000, 8.0 - bad, bad) {
                    out.push(tr);
                }
            }
            (
                out,
                t.state(),
                t.fast_burn(),
                t.slow_burn(),
                t.budget_remaining(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_windows_and_perfect_targets_stay_finite() {
        let mut t = BurnTracker::new(1.0, policy());
        assert_eq!(t.budget_remaining(), 1.0);
        t.observe(0, 1_000, 0.0, 0.0);
        assert_eq!(t.state(), AlertState::Ok);
        assert_eq!(t.fast_burn(), 0.0);
        // target 1.0 means any bad unit instantly exhausts the budget,
        // but the math stays finite.
        t.observe(1, 2_000, 0.0, 1.0);
        assert!(t.fast_burn().is_finite());
        assert_eq!(t.budget_remaining(), 0.0);
        assert_eq!(t.state(), AlertState::Page);
    }
}
