//! Slow-query flight recorder: a fixed-size, deterministic top-N of the
//! most expensive queries the gateway has served.
//!
//! Operators debugging a slow archive need the *actual worst queries*, not
//! aggregate histograms. The recorder keeps the top-N completed queries
//! ranked by a deterministic cost proxy (work units, never nanoseconds),
//! so two same-seed runs dump byte-identical flight records. It is a
//! [`TopN`] of [`FlightEntry`].

use crate::topn::{Ranked, TopN};

/// Identity and timing context a query carries through the store layers.
///
/// Constructed by the gateway from the journal's trace-id allocator and
/// the simulation tick of the request; the store stamps both into its
/// cost profile and metrics so one query correlates across the trace
/// journal, the flight recorder, and EXPLAIN output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCtx {
    /// Trace id from [`crate::TraceJournal::next_trace_id`].
    pub trace_id: u64,
    /// Simulation tick at which the query ran.
    pub tick: u64,
    /// Wire-level request id assigned by the serving listener at accept
    /// (0 when the query ran without a network request, e.g. in-process).
    /// Joins gateway query traces to the server's request timeline.
    pub request_id: u64,
}

/// One completed query as retained by the [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEntry {
    /// Trace id correlating this entry with the trace journal.
    pub trace_id: u64,
    /// Wire-level request id (0 for in-process queries) — joins this
    /// entry to the server's `/debug/requests` timeline.
    pub request_id: u64,
    /// Simulation tick of the request.
    pub tick: u64,
    /// Store operation (`query`, `latest`, `value_at`, `window`).
    pub op: String,
    /// Request path (or another human-readable query description).
    pub query: String,
    /// Deterministic cost proxy in work units.
    pub cost: u64,
    /// Rows returned to the client.
    pub rows: u64,
    /// Response body size in bytes.
    pub response_bytes: u64,
}

/// Fixed-capacity top-N recorder of the most expensive queries: cost
/// descending, then trace id ascending.
pub type FlightRecorder = TopN<FlightEntry>;

impl Default for FlightRecorder {
    fn default() -> Self {
        TopN::new(32)
    }
}

impl Ranked for FlightEntry {
    fn rank(&self) -> (u64, u64) {
        (self.cost, self.trace_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, cost: u64) -> FlightEntry {
        FlightEntry {
            trace_id,
            request_id: trace_id + 100,
            tick: trace_id,
            op: "query".into(),
            query: format!("/query?n={trace_id}"),
            cost,
            rows: 1,
            response_bytes: 10,
        }
    }

    #[test]
    fn retains_top_n_by_cost_with_deterministic_ties() {
        let fr = FlightRecorder::new(3);
        for (id, cost) in [(0, 5), (1, 9), (2, 5), (3, 1), (4, 9)] {
            fr.record(entry(id, cost));
        }
        let snap = fr.snapshot();
        assert_eq!(fr.observed(), 5);
        assert_eq!(fr.capacity(), 3);
        let ranked: Vec<(u64, u64)> = snap.iter().map(|e| (e.cost, e.trace_id)).collect();
        // Cost desc, trace id asc on ties; cheapest (cost 1) and the
        // later cost-5 entry evicted.
        assert_eq!(ranked, vec![(9, 1), (9, 4), (5, 0)]);
    }

    #[test]
    fn insertion_order_does_not_change_the_snapshot() {
        let fill = |order: &[u64]| {
            let fr = FlightRecorder::new(4);
            for &id in order {
                fr.record(entry(id, id * 3 % 7));
            }
            fr.snapshot()
        };
        assert_eq!(fill(&[0, 1, 2, 3, 4, 5]), fill(&[5, 1, 3, 0, 4, 2]));
    }

    #[test]
    fn capacity_floor_is_one() {
        let fr = FlightRecorder::new(0);
        fr.record(entry(0, 1));
        fr.record(entry(1, 2));
        assert_eq!(fr.snapshot().len(), 1);
        assert_eq!(fr.snapshot()[0].trace_id, 1);
    }
}
