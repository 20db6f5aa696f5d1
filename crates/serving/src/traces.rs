//! The gateway's query traces: a fixed ring of the newest typed records,
//! rendered as trace-journal JSON lines only when `/debug/traces` asks.
//!
//! A query is kept as the [`QueryProfile`] the store built, the request
//! path and its cost; an SLO alert as its name and attributes. Recording
//! formats nothing, and the ring holds at most [`QUERY_TRACE_CAPACITY`]
//! records however many queries are served: the oldest is dropped to
//! make room. Rendering gives each record the entries the journal used to
//! hold — a query's root `query` span plus one child span per cost stage,
//! an event's one line — numbered by a sequence that counts every record
//! ever pushed, so a child's `parent` names its root even after older
//! records are gone. Below capacity the document is byte for byte the
//! journal the gateway used to append to.

use spotlake_obs::JournalWriter;
use spotlake_timestream::QueryProfile;
use std::collections::VecDeque;

/// How many records (queries and alert events) `/debug/traces` keeps.
pub(crate) const QUERY_TRACE_CAPACITY: usize = 1024;

#[derive(Debug, Clone)]
enum TraceRecord {
    Query {
        profile: QueryProfile,
        /// The request's path and query string.
        query: String,
        cost: u64,
    },
    Event {
        tick: u64,
        name: String,
        attrs: Vec<(String, String)>,
    },
}

impl TraceRecord {
    /// Journal entries the record renders as.
    fn entries(&self) -> u64 {
        match self {
            TraceRecord::Query { profile, .. } => {
                1 + profile.stages().chunk_by(same_stage).count() as u64
            }
            TraceRecord::Event { .. } => 1,
        }
    }
}

/// Whether two stage counters belong to one stage, hence one child span.
fn same_stage(a: &(&str, &str, u64), b: &(&str, &str, u64)) -> bool {
    a.0 == b.0
}

/// The ring of the newest query traces and alert events.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryTraces {
    records: VecDeque<TraceRecord>,
    /// Sequence number of the oldest retained record's first entry.
    first_seq: u64,
}

impl QueryTraces {
    /// Keeps one completed query.
    pub(crate) fn push_query(&mut self, profile: QueryProfile, query: String, cost: u64) {
        self.push(TraceRecord::Query {
            profile,
            query,
            cost,
        });
    }

    /// Keeps one event, such as an SLO alert transition.
    pub(crate) fn push_event(&mut self, tick: u64, name: &str, attrs: &[(&str, String)]) {
        self.push(TraceRecord::Event {
            tick,
            name: name.to_owned(),
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }

    fn push(&mut self, record: TraceRecord) {
        if self.records.len() == QUERY_TRACE_CAPACITY {
            if let Some(oldest) = self.records.pop_front() {
                self.first_seq += oldest.entries();
            }
        }
        self.records.push_back(record);
    }

    /// Renders the retained records as a trace-journal document.
    pub(crate) fn render(&self) -> String {
        let entries: u64 = self.records.iter().map(TraceRecord::entries).sum();
        let mut out = JournalWriter::new(entries as usize);
        let mut seq = self.first_seq;
        for record in &self.records {
            match record {
                TraceRecord::Query {
                    profile,
                    query,
                    cost,
                } => {
                    let tick = profile.tick;
                    let root = seq;
                    let (trace_id, request_id, cost) = (
                        profile.trace_id.to_string(),
                        profile.request_id.to_string(),
                        cost.to_string(),
                    );
                    out.span(
                        root,
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
                    for group in profile.stages().chunk_by(same_stage) {
                        seq += 1;
                        let values: Vec<String> = group.iter().map(|s| s.2.to_string()).collect();
                        let mut attrs: Vec<(&str, &str)> = group
                            .iter()
                            .zip(&values)
                            .map(|(s, v)| (s.1, v.as_str()))
                            .collect();
                        out.span(seq, tick, Some(tick), group[0].0, Some(root), &mut attrs);
                    }
                }
                TraceRecord::Event { tick, name, attrs } => {
                    let mut attrs: Vec<(&str, &str)> = attrs
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect();
                    out.event(seq, *tick, name, &mut attrs);
                }
            }
            seq += 1;
        }
        out.finish()
    }
}

#[cfg(test)]
impl QueryTraces {
    /// The newest record's profile, query and cost, if it is a query.
    pub(crate) fn newest_query(&self) -> Option<(&QueryProfile, &str, u64)> {
        match self.records.back()? {
            TraceRecord::Query {
                profile,
                query,
                cost,
            } => Some((profile, query, *cost)),
            TraceRecord::Event { .. } => None,
        }
    }

    /// Records held now.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}
