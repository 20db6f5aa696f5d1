//! The collector's trace journal: one typed record per round, and one for
//! startup recovery, kept in a [`TraceRing`] and formatted as journal
//! lines only when it renders.
//!
//! A completed round renders as a closed `round` span (`degraded`,
//! `records_written`) and one `dataset` event per collected dataset; a
//! round that returned `Err` as its span left open (`"end":null`, no
//! attributes); recovery as a `recovery` span at the last committed tick.
//!
//! [`TraceRing`]: spotlake_obs::TraceRing

use crate::health::{Dataset, RoundHealth};
use crate::retry::BreakerState;
use spotlake_obs::{JournalWriter, TraceRecord};
use spotlake_timestream::RecoveryReport;

/// One record of the collector's trace ring.
#[derive(Debug, Clone)]
pub enum CollectorTrace {
    /// A round at a tick, and what it did: `None` if it returned `Err`.
    Round(u64, Option<RoundOutcome>),
    /// What startup recovery replayed, stamped at the last committed tick.
    Recovery(RecoveryReport),
}

/// What a completed round records.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The round's health record.
    pub health: RoundHealth,
    /// Each collected dataset's breaker after the round, by [`Dataset`];
    /// `None` for a dataset the service does not collect.
    pub breakers: [Option<BreakerState>; 3],
    /// Points the round stored.
    pub records_written: usize,
}

impl TraceRecord for CollectorTrace {
    fn entries(&self) -> u64 {
        match self {
            CollectorTrace::Round(_, Some(o)) => 1 + o.breakers.iter().flatten().count() as u64,
            _ => 1,
        }
    }

    fn write(&self, seq: u64, out: &mut JournalWriter) {
        match self {
            CollectorTrace::Round(tick, None) => out.span(seq, *tick, None, "round", None, &mut []),
            CollectorTrace::Round(tick, Some(o)) => {
                let tick = *tick;
                let degraded = o.health.is_degraded().to_string();
                let written = o.records_written.to_string();
                out.span(
                    seq,
                    tick,
                    Some(tick),
                    "round",
                    None,
                    &mut [("degraded", &degraded), ("records_written", &written)],
                );
                let collected = Dataset::ALL.into_iter().zip(o.breakers);
                let collected = collected.filter_map(|(dataset, b)| Some((dataset, b?)));
                for (seq, (dataset, breaker)) in (seq + 1..).zip(collected) {
                    let d = o.health.dataset(dataset);
                    let records = d.records.to_string();
                    let retries = d.retries.to_string();
                    let failed = d.failed_queries.to_string();
                    out.event(
                        seq,
                        tick,
                        "dataset",
                        &mut [
                            ("dataset", dataset.name()),
                            ("status", d.status.as_str()),
                            ("records", &records),
                            ("retries", &retries),
                            ("failed_queries", &failed),
                            ("breaker", breaker.as_str()),
                        ],
                    );
                }
            }
            CollectorTrace::Recovery(r) => {
                let tick = r.last_tick.unwrap_or(0);
                let frames = r.frames_replayed.to_string();
                let rounds = r.rounds_recovered.to_string();
                let truncated = r.bytes_truncated.to_string();
                let points = r.point_count.to_string();
                out.span(
                    seq,
                    tick,
                    Some(tick),
                    "recovery",
                    None,
                    &mut [
                        ("frames_replayed", &frames),
                        ("rounds_recovered", &rounds),
                        ("bytes_truncated", &truncated),
                        ("point_count", &points),
                    ],
                );
            }
        }
    }
}
