//! Spot price-change history.
//!
//! The real cloud keeps "up to three months of spot price history"
//! (Section 3.1). [`PriceBook`] stores, per pool, only the *change events*
//! (timestamp, new price) — the same representation the
//! `describe-spot-price-history` API exposes — and prunes anything older
//! than the retention window.

use crate::pool::PoolId;
use spotlake_types::{SimDuration, SimTime, SpotPrice};

/// Retention of the price history: three months, as on AWS.
pub(crate) const PRICE_RETENTION: SimDuration = SimDuration::from_days(90);

/// Per-pool price-change history with AWS-like 90-day retention.
#[derive(Debug, Clone, Default)]
pub(crate) struct PriceBook {
    // One Vec of (time, price) change events per pool, oldest first.
    changes: Vec<Vec<(SimTime, SpotPrice)>>,
}

impl PriceBook {
    pub(crate) fn new(pools: usize) -> Self {
        PriceBook {
            changes: vec![Vec::new(); pools],
        }
    }

    /// Records a price change for `pool` at `at`.
    pub(crate) fn record(&mut self, pool: PoolId, at: SimTime, price: SpotPrice) {
        self.changes[pool.0 as usize].push((at, price));
    }

    /// All change events for `pool` in `[from, to]`, oldest first, plus the
    /// last change *before* `from` (so callers know the price in effect at
    /// the start of the window), subject to retention.
    pub(crate) fn history(
        &self,
        pool: PoolId,
        from: SimTime,
        to: SimTime,
    ) -> &[(SimTime, SpotPrice)] {
        let all = &self.changes[pool.0 as usize];
        let start = all.partition_point(|(t, _)| *t < from);
        let end = all.partition_point(|(t, _)| *t <= to).max(start);
        &all[start.saturating_sub(1)..end]
    }

    /// Drops events older than the retention window relative to `now`,
    /// always keeping the most recent event per pool.
    pub(crate) fn prune(&mut self, now: SimTime) {
        let Some(cutoff) = now.checked_since(SimTime::EPOCH + PRICE_RETENTION) else {
            return;
        };
        let cutoff = SimTime::EPOCH + cutoff;
        for v in &mut self.changes {
            if v.len() <= 1 {
                continue;
            }
            let keep_from = v.partition_point(|(t, _)| *t < cutoff);
            let keep_from = keep_from.min(v.len() - 1);
            v.drain(..keep_from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn price(usd: f64) -> SpotPrice {
        SpotPrice::from_usd(usd).unwrap()
    }

    #[test]
    fn history_includes_preceding_change() {
        let mut book = PriceBook::new(1);
        let p = PoolId(0);
        book.record(p, SimTime::from_secs(100), price(0.10));
        book.record(p, SimTime::from_secs(200), price(0.11));
        book.record(p, SimTime::from_secs(300), price(0.12));
        let h = book.history(p, SimTime::from_secs(250), SimTime::from_secs(400));
        assert_eq!(h.len(), 2);
        assert_eq!(
            h[0].0,
            SimTime::from_secs(200),
            "price in effect at window start"
        );
        assert_eq!(h[1].0, SimTime::from_secs(300));
    }

    #[test]
    fn history_empty_pool() {
        let book = PriceBook::new(1);
        assert!(book
            .history(PoolId(0), SimTime::EPOCH, SimTime::from_secs(1000))
            .is_empty());
    }

    #[test]
    fn prune_respects_retention_and_keeps_latest() {
        let mut book = PriceBook::new(1);
        let p = PoolId(0);
        book.record(p, SimTime::from_secs(0), price(0.10));
        book.record(p, SimTime::from_secs(10), price(0.11));
        // Far beyond retention.
        let now = SimTime::EPOCH + SimDuration::from_days(365);
        book.prune(now);
        let h = book.history(p, SimTime::EPOCH, now);
        assert_eq!(h.len(), 1, "latest change survives pruning");
        assert_eq!(h[0].1, price(0.11));
    }

    #[test]
    fn prune_noop_before_retention_elapses() {
        let mut book = PriceBook::new(1);
        let p = PoolId(0);
        book.record(p, SimTime::from_secs(0), price(0.10));
        book.prune(SimTime::from_secs(1000));
        assert_eq!(
            book.history(p, SimTime::EPOCH, SimTime::from_secs(2000))
                .len(),
            1
        );
    }
}
