//! Request-lifecycle records: per-request phase timelines and the
//! slow-request recorder behind the server's `/debug/requests`.
//!
//! The slow-query flight recorder only sees the query stage; tail
//! latency under load is usually dominated by what happens *around* it —
//! queue wait, head parsing, response writing. A [`RequestRecord`]
//! captures the whole wire-level timeline as contiguous [`PhaseSpan`]s
//! (offsets in microseconds from the accept instant, stamped by the
//! listener and worker), and the [`RequestRecorder`] retains the top-N
//! slowest requests, ranked deterministically by total time.
//!
//! Nothing here reads a clock: the serving layer measures and passes
//! explicit offsets, keeping this crate free of wall-clock calls.

use crate::topn::{Ranked, TopN};

/// The lifecycle phases of one served request, in wire order.
pub const REQUEST_PHASES: [&str; 4] = ["queue_wait", "parse", "handle", "write"];

/// One phase of a request's timeline, as microsecond offsets from the
/// accept instant. Spans within a record are contiguous and
/// non-overlapping: each phase starts where the previous one ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (one of [`REQUEST_PHASES`]).
    pub phase: &'static str,
    /// Offset from accept at which the phase began, microseconds.
    pub start_micros: u64,
    /// Offset from accept at which the phase ended, microseconds.
    pub end_micros: u64,
}

impl PhaseSpan {
    /// The phase's duration in microseconds.
    pub fn duration_micros(&self) -> u64 {
        self.end_micros.saturating_sub(self.start_micros)
    }
}

/// One completed request's wire-level timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id assigned by the listener at accept — the same id the
    /// response echoes in `x-spotlake-request-id` and query traces carry.
    pub request_id: u64,
    /// Request target (path and query), or `-` when the head never
    /// parsed.
    pub target: String,
    /// Response status label (`200`, `503`, ... or `aborted`).
    pub status: String,
    /// Accept-to-finish wall time in microseconds.
    pub total_micros: u64,
    /// The phase timeline, in execution order.
    pub phases: Vec<PhaseSpan>,
}

/// Fixed-capacity top-N recorder of the slowest requests, ranked by
/// total time descending with ties broken by ascending request id —
/// fully deterministic given the same records.
pub type RequestRecorder = TopN<RequestRecord>;

impl Ranked for RequestRecord {
    fn rank(&self) -> (u64, u64) {
        (self.total_micros, self.request_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(request_id: u64, total: u64) -> RequestRecord {
        let spans: Vec<PhaseSpan> = REQUEST_PHASES
            .iter()
            .enumerate()
            .map(|(i, phase)| PhaseSpan {
                phase,
                start_micros: i as u64 * total / 4,
                end_micros: (i as u64 + 1) * total / 4,
            })
            .collect();
        RequestRecord {
            request_id,
            target: format!("/query?n={request_id}"),
            status: "200".into(),
            total_micros: total,
            phases: spans,
        }
    }

    #[test]
    fn retains_slowest_with_deterministic_ties() {
        let rr = RequestRecorder::new(3);
        for (id, total) in [(1, 500), (2, 900), (3, 500), (4, 100), (5, 900)] {
            rr.record(record(id, total));
        }
        assert_eq!(rr.observed(), 5);
        let ranked: Vec<(u64, u64)> = rr
            .snapshot()
            .iter()
            .map(|r| (r.total_micros, r.request_id))
            .collect();
        assert_eq!(ranked, vec![(900, 2), (900, 5), (500, 1)]);
    }

    #[test]
    fn phases_are_contiguous_and_non_overlapping() {
        let r = record(7, 400);
        assert_eq!(r.phases.len(), REQUEST_PHASES.len());
        let mut cursor = 0;
        for span in &r.phases {
            assert!(span.start_micros <= span.end_micros);
            assert_eq!(span.start_micros, cursor, "{} overlaps", span.phase);
            cursor = span.end_micros;
        }
        assert_eq!(cursor, r.total_micros);
        assert_eq!(r.phases[1].duration_micros(), 100);
    }

    #[test]
    fn capacity_floor_is_one() {
        let rr = RequestRecorder::new(0);
        rr.record(record(1, 10));
        rr.record(record(2, 20));
        let snap = rr.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].request_id, 2);
    }
}
