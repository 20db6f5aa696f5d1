//! Per-round health reporting for the collection pipeline.
//!
//! A round no longer either fully succeeds or returns `Err`: each dataset
//! is isolated, so an advisor outage must not discard the round's SPS and
//! price data. [`RoundHealth`] is the structured record of what actually
//! happened — per-dataset status, record and retry counts, and the
//! dead-letter queue depth after the round.

/// The three archived datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Spot placement scores.
    Sps,
    /// The scraped advisor page.
    Advisor,
    /// Spot price history.
    Price,
}

impl Dataset {
    /// All datasets, in reporting order.
    pub const ALL: [Dataset; 3] = [Dataset::Sps, Dataset::Advisor, Dataset::Price];

    /// Stable lowercase name, used as a metric label and table name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Sps => "sps",
            Dataset::Advisor => "advisor",
            Dataset::Price => "price",
        }
    }
}

/// Outcome of one dataset within one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DatasetStatus {
    /// Collection is disabled in the configuration.
    #[default]
    Disabled,
    /// Everything collected and stored.
    Ok,
    /// Stored, but some queries failed after retries (dead-lettered) or
    /// succeeded only on retry.
    Degraded,
    /// The circuit breaker was open; the dataset was not attempted.
    Skipped,
    /// The dataset produced nothing this round (retries exhausted).
    Failed,
}

/// One dataset's health within a round.
#[derive(Debug, Clone, Default)]
pub struct DatasetHealth {
    /// What happened.
    pub status: DatasetStatus,
    /// Records stored this round.
    pub records: usize,
    /// Retry attempts spent (API calls beyond each operation's first).
    pub retries: usize,
    /// Queries that failed even after retries.
    pub failed_queries: usize,
    /// The final error, for `Failed` (and the last one seen for
    /// `Degraded`).
    pub error: Option<String>,
}

impl DatasetStatus {
    /// Stable lowercase name, used in trace journals and `/stats` bodies.
    pub fn as_str(self) -> &'static str {
        match self {
            DatasetStatus::Disabled => "disabled",
            DatasetStatus::Ok => "ok",
            DatasetStatus::Degraded => "degraded",
            DatasetStatus::Skipped => "skipped",
            DatasetStatus::Failed => "failed",
        }
    }
}

impl DatasetHealth {
    /// Whether the dataset delivered everything it was asked for.
    pub fn is_healthy(&self) -> bool {
        matches!(self.status, DatasetStatus::Ok | DatasetStatus::Disabled)
    }
}

/// Health record for one collection round.
#[derive(Debug, Clone, Default)]
pub struct RoundHealth {
    /// Simulation tick the round ran at.
    pub tick: u64,
    /// Placement-score dataset health.
    pub sps: DatasetHealth,
    /// Advisor dataset health.
    pub advisor: DatasetHealth,
    /// Price dataset health.
    pub price: DatasetHealth,
    /// Dead-letter queue depth after the round.
    pub dead_letter_depth: usize,
    /// Shard commits refused or failed this round (sharded archive
    /// only): each is one dataset×region batch dropped while every
    /// other shard committed normally.
    pub shards_failed: usize,
}

impl RoundHealth {
    /// Whether any dataset fell short of a clean round.
    pub fn is_degraded(&self) -> bool {
        !(self.sps.is_healthy() && self.advisor.is_healthy() && self.price.is_healthy())
    }

    /// The health entry for `dataset`.
    pub fn dataset(&self, dataset: Dataset) -> &DatasetHealth {
        match dataset {
            Dataset::Sps => &self.sps,
            Dataset::Advisor => &self.advisor,
            Dataset::Price => &self.price,
        }
    }

    /// The mutable health entry for `dataset`.
    pub fn dataset_mut(&mut self, dataset: Dataset) -> &mut DatasetHealth {
        match dataset {
            Dataset::Sps => &mut self.sps,
            Dataset::Advisor => &mut self.advisor,
            Dataset::Price => &mut self.price,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_reflects_dataset_status() {
        let mut h = RoundHealth::default();
        assert!(!h.is_degraded(), "all-disabled is not degraded");
        h.sps.status = DatasetStatus::Ok;
        h.price.status = DatasetStatus::Ok;
        assert!(!h.is_degraded());
        h.advisor.status = DatasetStatus::Failed;
        assert!(h.is_degraded());
        assert_eq!(h.dataset(Dataset::Advisor).status, DatasetStatus::Failed);
        h.advisor.status = DatasetStatus::Skipped;
        assert!(h.is_degraded(), "a skipped dataset is not a healthy round");
    }
}
