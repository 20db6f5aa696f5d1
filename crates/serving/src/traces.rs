//! The gateway's query traces: typed records in the `TraceRing` every
//! trace shares, rendered as trace-journal JSON lines only when
//! `/debug/traces` asks.
//!
//! A query is kept as the [`QueryProfile`] the store built, the request
//! path and its cost; an SLO alert as its objective and transition.
//! Recording formats nothing. Rendering gives each record the entries the
//! gateway's journal used to hold — a query's root `query` span plus one
//! child span per cost stage, an alert's one `slo_alert` event — so below
//! capacity the document is byte for byte that journal.

use spotlake_obs::{AlertTransition, JournalWriter, TraceRecord};
use spotlake_timestream::QueryProfile;

/// One record of the gateway's trace ring.
#[derive(Debug, Clone)]
pub(crate) enum QueryTrace {
    Query {
        profile: QueryProfile,
        /// The request's path and query string.
        query: String,
        cost: u64,
    },
    Alert {
        tick: u64,
        objective: String,
        transition: AlertTransition,
    },
}

/// Whether two stage counters belong to one stage, hence one child span.
fn same_stage(a: &(&str, &str, u64), b: &(&str, &str, u64)) -> bool {
    a.0 == b.0
}

impl TraceRecord for QueryTrace {
    fn entries(&self) -> u64 {
        match self {
            QueryTrace::Query { profile, .. } => {
                1 + profile.stages().chunk_by(same_stage).count() as u64
            }
            QueryTrace::Alert { .. } => 1,
        }
    }

    fn write(&self, seq: u64, out: &mut JournalWriter) {
        match self {
            QueryTrace::Query {
                profile,
                query,
                cost,
            } => {
                let tick = profile.tick;
                let (trace_id, request_id, cost) = (
                    profile.trace_id.to_string(),
                    profile.request_id.to_string(),
                    cost.to_string(),
                );
                out.span(
                    seq,
                    tick,
                    Some(tick),
                    "query",
                    None,
                    &mut [
                        ("trace_id", &trace_id),
                        ("request_id", &request_id),
                        ("op", profile.op),
                        ("table", &profile.table),
                        ("query", query),
                        ("cost", &cost),
                    ],
                );
                for (child, group) in (seq + 1..).zip(profile.stages().chunk_by(same_stage)) {
                    let values: Vec<String> = group.iter().map(|s| s.2.to_string()).collect();
                    let mut attrs: Vec<(&str, &str)> = group
                        .iter()
                        .zip(&values)
                        .map(|(s, v)| (s.1, v.as_str()))
                        .collect();
                    out.span(child, tick, Some(tick), group[0].0, Some(seq), &mut attrs);
                }
            }
            QueryTrace::Alert {
                tick,
                objective,
                transition: t,
            } => {
                let (at_micros, sample_seq) = (t.at_micros.to_string(), t.seq.to_string());
                let fast_burn = format!("{:.4}", t.fast_burn);
                let slow_burn = format!("{:.4}", t.slow_burn);
                out.event(
                    seq,
                    *tick,
                    "slo_alert",
                    &mut [
                        ("at_micros", &at_micros),
                        ("fast_burn", &fast_burn),
                        ("from", t.from.as_str()),
                        ("objective", objective),
                        ("sample_seq", &sample_seq),
                        ("slow_burn", &slow_burn),
                        ("to", t.to.as_str()),
                    ],
                );
            }
        }
    }
}
