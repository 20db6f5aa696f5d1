//! Structured trace journal: spans and events keyed on simulation ticks.
//!
//! The journal is the narrative complement to the registry's aggregates —
//! *what happened, in order*, with enough structure to grep. Entries are
//! appended in execution order and rendered as JSON lines with sorted
//! attribute keys, so a replay under a fixed seed produces a byte-identical
//! journal.
//!
//! The rendered document is versioned: the first line is a header record
//! (`{"kind":"header","schema":"spotlake-trace","version":2,...}`) and
//! [`TraceJournal::parse`] refuses documents whose schema or version does
//! not match, so an old reader never silently misinterprets a new journal.
//! Spans may nest: [`TraceJournal::begin_child_span`] links a stage span to
//! its parent by entry sequence number, which is how the query path records
//! its per-stage cost profile under one root span.

use crate::json;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Schema name stamped into the journal header.
pub const JOURNAL_SCHEMA: &str = "spotlake-trace";

/// Current journal format version. Bump when the line format changes
/// incompatibly; [`TraceJournal::parse`] rejects any other version.
pub const JOURNAL_VERSION: u64 = 2;

#[derive(Debug, Clone, PartialEq, Eq)]
enum EntryKind {
    Event,
    Span {
        end: Option<u64>,
        /// Sequence number of the parent span's entry, for child spans.
        parent: Option<u64>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    tick: u64,
    name: String,
    kind: EntryKind,
    attrs: Vec<(String, String)>,
}

/// Handle to an open span returned by [`TraceJournal::begin_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Errors from [`TraceJournal::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The document has no header line.
    MissingHeader,
    /// The header names a different schema or version.
    VersionMismatch {
        /// Schema named in the document (empty if absent).
        schema: String,
        /// Version named in the document (0 if absent).
        version: u64,
    },
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::MissingHeader => write!(f, "journal has no header record"),
            JournalError::VersionMismatch { schema, version } => write!(
                f,
                "journal schema {schema:?} version {version} (expected {JOURNAL_SCHEMA:?} version {JOURNAL_VERSION})"
            ),
            JournalError::Malformed { line, detail } => {
                write!(f, "malformed journal line {line}: {detail}")
            }
        }
    }
}

impl Error for JournalError {}

/// An append-only journal of spans and events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceJournal {
    entries: Vec<Entry>,
    /// Monotonic trace-id allocator; see [`TraceJournal::next_trace_id`].
    trace_ids: u64,
}

impl TraceJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        TraceJournal::default()
    }

    /// Allocates the next trace id — a monotonically increasing number the
    /// query path stamps into spans, flight-recorder entries, and EXPLAIN
    /// bodies so one query can be correlated across all three.
    pub fn next_trace_id(&mut self) -> u64 {
        let id = self.trace_ids;
        self.trace_ids += 1;
        id
    }

    /// Records a point-in-time event at `tick` with the given attributes.
    pub fn event(&mut self, tick: u64, name: &str, attrs: &[(&str, String)]) {
        self.entries.push(Entry {
            tick,
            name: name.to_owned(),
            kind: EntryKind::Event,
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
    }

    /// Opens a span starting at `tick`. Close it with
    /// [`TraceJournal::end_span`]; attach attributes with
    /// [`TraceJournal::span_attr`].
    pub fn begin_span(&mut self, tick: u64, name: &str) -> SpanId {
        self.push_span(tick, name, None)
    }

    /// Opens a span nested under `parent` — the rendered entry carries a
    /// `parent` field with the parent's sequence number.
    pub fn begin_child_span(&mut self, tick: u64, name: &str, parent: SpanId) -> SpanId {
        self.push_span(tick, name, Some(parent.0 as u64))
    }

    fn push_span(&mut self, tick: u64, name: &str, parent: Option<u64>) -> SpanId {
        self.entries.push(Entry {
            tick,
            name: name.to_owned(),
            kind: EntryKind::Span { end: None, parent },
            attrs: Vec::new(),
        });
        SpanId(self.entries.len() - 1)
    }

    /// Attaches an attribute to an open (or closed) span.
    pub fn span_attr(&mut self, span: SpanId, key: &str, value: String) {
        if let Some(entry) = self.entries.get_mut(span.0) {
            entry.attrs.push((key.to_owned(), value));
        }
    }

    /// Closes a span at `tick`.
    pub fn end_span(&mut self, span: SpanId, tick: u64) {
        if let Some(entry) = self.entries.get_mut(span.0) {
            if let EntryKind::Span { end, .. } = &mut entry.kind {
                *end = Some(tick);
            }
        }
    }

    /// The sequence number of `span` — its position in the journal, as
    /// rendered in the `seq` field.
    pub fn span_seq(&self, span: SpanId) -> u64 {
        span.0 as u64
    }

    /// Number of journal entries (the header record is not an entry).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the journal as JSON lines: a schema/version header record
    /// first, then one entry per line in append order. Attribute keys are
    /// sorted, strings escaped — the output is a deterministic function of
    /// the recorded entries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"header\",\"schema\":\"{JOURNAL_SCHEMA}\",\"version\":{JOURNAL_VERSION},\"entries\":{}}}",
            self.entries.len()
        );
        for (seq, entry) in self.entries.iter().enumerate() {
            match &entry.kind {
                EntryKind::Event => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"event\",\"seq\":{seq},\"tick\":{},\"name\":",
                        entry.tick
                    );
                    json::write_string(&mut out, &entry.name);
                }
                EntryKind::Span { end, parent } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"span\",\"seq\":{seq},\"start\":{},\"end\":{},\"name\":",
                        entry.tick,
                        end.map_or("null".to_owned(), |e| e.to_string())
                    );
                    json::write_string(&mut out, &entry.name);
                    if let Some(parent) = parent {
                        let _ = write!(out, ",\"parent\":{parent}");
                    }
                }
            }
            if !entry.attrs.is_empty() {
                let mut attrs = entry.attrs.clone();
                attrs.sort();
                out.push_str(",\"attrs\":{");
                for (i, (k, v)) in attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_string(&mut out, k);
                    out.push(':');
                    json::write_string(&mut out, v);
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }

    /// Parses a document produced by [`TraceJournal::render`].
    ///
    /// The first line must be a header record naming this schema and
    /// version; anything else is rejected rather than misread. The parser
    /// only accepts the exact line shape `render` emits (it is a format
    /// check as much as a reader).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingHeader`] for an empty or headerless
    /// document, [`JournalError::VersionMismatch`] for a foreign schema or
    /// version, and [`JournalError::Malformed`] for unparseable lines.
    pub fn parse(text: &str) -> Result<TraceJournal, JournalError> {
        let mut lines = text.lines().enumerate();
        let Some((_, header)) = lines.next() else {
            return Err(JournalError::MissingHeader);
        };
        let header_fields = parse_line_fields(header, 1)?;
        if field_str(&header_fields, "kind") != Some("header") {
            return Err(JournalError::MissingHeader);
        }
        let schema = field_str(&header_fields, "schema").unwrap_or("").to_owned();
        let version = field_u64(&header_fields, "version").unwrap_or(0);
        if schema != JOURNAL_SCHEMA || version != JOURNAL_VERSION {
            return Err(JournalError::VersionMismatch { schema, version });
        }

        let mut journal = TraceJournal::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            if line.is_empty() {
                continue;
            }
            let fields = parse_line_fields(line, lineno)?;
            let malformed = |detail: &str| JournalError::Malformed {
                line: lineno,
                detail: detail.to_owned(),
            };
            let attrs = match fields.iter().find(|(k, _)| k == "attrs") {
                Some((_, Field::Attrs(attrs))) => attrs.clone(),
                Some(_) => return Err(malformed("attrs is not an object")),
                None => Vec::new(),
            };
            match field_str(&fields, "kind") {
                Some("event") => {
                    let tick = field_u64(&fields, "tick").ok_or_else(|| malformed("no tick"))?;
                    let name = field_str(&fields, "name").ok_or_else(|| malformed("no name"))?;
                    let borrowed: Vec<(&str, String)> =
                        attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    journal.event(tick, name, &borrowed);
                }
                Some("span") => {
                    let start = field_u64(&fields, "start").ok_or_else(|| malformed("no start"))?;
                    let name = field_str(&fields, "name").ok_or_else(|| malformed("no name"))?;
                    let span = match field_u64(&fields, "parent") {
                        Some(parent) => {
                            journal.begin_child_span(start, name, SpanId(parent as usize))
                        }
                        None => journal.begin_span(start, name),
                    };
                    for (k, v) in attrs {
                        journal.span_attr(span, &k, v);
                    }
                    if let Some(end) = field_u64(&fields, "end") {
                        journal.end_span(span, end);
                    }
                }
                Some(other) => {
                    return Err(JournalError::Malformed {
                        line: lineno,
                        detail: format!("unknown kind {other:?}"),
                    })
                }
                None => return Err(malformed("no kind field")),
            }
        }
        Ok(journal)
    }
}

/// A parsed top-level field of one journal line.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    Str(String),
    Num(u64),
    Null,
    Attrs(Vec<(String, String)>),
}

fn field_str<'a>(fields: &'a [(String, Field)], key: &str) -> Option<&'a str> {
    fields.iter().find_map(|(k, v)| match v {
        Field::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

fn field_u64(fields: &[(String, Field)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        Field::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

/// Parses one rendered journal line into its top-level fields. This is a
/// reader for the journal's own output shape, not a general JSON parser:
/// values are strings, non-negative integers, `null`, or the one-level
/// string-to-string `attrs` object.
fn parse_line_fields(line: &str, lineno: usize) -> Result<Vec<(String, Field)>, JournalError> {
    let malformed = |detail: String| JournalError::Malformed {
        line: lineno,
        detail,
    };
    let bytes = line.as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return Err(malformed("line is not a JSON object".into()));
    }
    let mut fields = Vec::new();
    let mut i = 1usize;
    loop {
        // End of object (possibly empty).
        while i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
        if i >= bytes.len() - 1 {
            break;
        }
        let key = json::parse_string(line, &mut i).map_err(&malformed)?;
        if bytes.get(i) != Some(&b':') {
            return Err(malformed(format!("missing ':' after key {key:?}")));
        }
        i += 1;
        let value = match bytes.get(i) {
            Some(b'"') => Field::Str(json::parse_string(line, &mut i).map_err(&malformed)?),
            Some(b'{') => {
                // The attrs object: string keys to string values.
                i += 1;
                let mut attrs = Vec::new();
                while bytes.get(i) != Some(&b'}') {
                    if bytes.get(i) == Some(&b',') {
                        i += 1;
                        continue;
                    }
                    let k = json::parse_string(line, &mut i).map_err(&malformed)?;
                    if bytes.get(i) != Some(&b':') {
                        return Err(malformed(format!("missing ':' in attrs after {k:?}")));
                    }
                    i += 1;
                    let v = json::parse_string(line, &mut i).map_err(&malformed)?;
                    attrs.push((k, v));
                }
                i += 1;
                Field::Attrs(attrs)
            }
            Some(b'n') if line[i..].starts_with("null") => {
                i += 4;
                Field::Null
            }
            Some(c) if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n = line[start..i]
                    .parse()
                    .map_err(|_| malformed("number out of range".into()))?;
                Field::Num(n)
            }
            other => return Err(malformed(format!("unexpected value start: {other:?}"))),
        };
        fields.push((key, value));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_spans_render_in_order_after_the_header() {
        let mut j = TraceJournal::new();
        let span = j.begin_span(3, "round");
        j.event(
            3,
            "dataset",
            &[("dataset", "sps".into()), ("records", "12".into())],
        );
        j.span_attr(span, "degraded", "false".into());
        j.end_span(span, 3);
        let text = j.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 entries");
        assert!(
            lines[0]
                .starts_with("{\"kind\":\"header\",\"schema\":\"spotlake-trace\",\"version\":2"),
            "{}",
            lines[0]
        );
        assert!(lines[1]
            .starts_with("{\"kind\":\"span\",\"seq\":0,\"start\":3,\"end\":3,\"name\":\"round\""));
        assert!(lines[1].contains("\"attrs\":{\"degraded\":\"false\"}"));
        assert!(lines[2].contains("\"dataset\":\"sps\""));
        assert!(lines[2].contains("\"records\":\"12\""));
        assert_eq!(j.len(), 2);
        assert!(!j.is_empty());
    }

    #[test]
    fn unclosed_span_renders_null_end() {
        let mut j = TraceJournal::new();
        j.begin_span(1, "open");
        assert!(j.render().contains("\"end\":null"));
    }

    #[test]
    fn child_spans_carry_their_parent_seq() {
        let mut j = TraceJournal::new();
        let root = j.begin_span(5, "query");
        let child = j.begin_child_span(5, "scan", root);
        j.end_span(child, 5);
        j.end_span(root, 5);
        assert_eq!(j.span_seq(root), 0);
        assert_eq!(j.span_seq(child), 1);
        let text = j.render();
        assert!(
            text.contains("\"seq\":1,\"start\":5,\"end\":5,\"name\":\"scan\",\"parent\":0"),
            "{text}"
        );
    }

    #[test]
    fn trace_ids_are_sequential() {
        let mut j = TraceJournal::new();
        assert_eq!(j.next_trace_id(), 0);
        assert_eq!(j.next_trace_id(), 1);
        assert_eq!(j.next_trace_id(), 2);
    }

    #[test]
    fn attrs_render_sorted_regardless_of_insertion_order() {
        let mut a = TraceJournal::new();
        a.event(0, "e", &[("z", "1".into()), ("a", "2".into())]);
        let mut b = TraceJournal::new();
        b.event(0, "e", &[("a", "2".into()), ("z", "1".into())]);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("{\"a\":\"2\",\"z\":\"1\"}"));
    }

    #[test]
    fn strings_are_json_escaped() {
        let mut j = TraceJournal::new();
        j.event(0, "weird\"name", &[("k", "line\nbreak\\\u{1}".into())]);
        let text = j.render();
        assert!(text.contains("weird\\\"name"));
        assert!(text.contains("line\\nbreak\\\\\\u0001"));
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let mut j = TraceJournal::new();
        let root = j.begin_span(2, "query");
        let child = j.begin_child_span(2, "scan", root);
        j.span_attr(child, "rows", "14".into());
        j.end_span(child, 2);
        j.event(
            3,
            "odd \"названия\"",
            &[("k", "v\nwith\tescapes\\".into()), ("a", "1".into())],
        );
        j.span_attr(root, "trace", "7".into());
        j.end_span(root, 4);
        j.begin_span(9, "open-ended");
        let rendered = j.render();
        let parsed = TraceJournal::parse(&rendered).expect("parses");
        assert_eq!(parsed.render(), rendered, "round-trip is byte-identical");
        assert_eq!(parsed.len(), j.len());
    }

    #[test]
    fn parse_rejects_missing_header_and_foreign_versions() {
        assert_eq!(
            TraceJournal::parse(""),
            Err(JournalError::MissingHeader),
            "empty document"
        );
        assert_eq!(
            TraceJournal::parse(
                "{\"kind\":\"span\",\"seq\":0,\"start\":1,\"end\":null,\"name\":\"x\"}\n"
            ),
            Err(JournalError::MissingHeader),
            "headerless document"
        );
        let wrong_version =
            "{\"kind\":\"header\",\"schema\":\"spotlake-trace\",\"version\":99,\"entries\":0}\n";
        assert!(matches!(
            TraceJournal::parse(wrong_version),
            Err(JournalError::VersionMismatch { version: 99, .. })
        ));
        let wrong_schema =
            "{\"kind\":\"header\",\"schema\":\"acme-trace\",\"version\":2,\"entries\":0}\n";
        assert!(matches!(
            TraceJournal::parse(wrong_schema),
            Err(JournalError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        let header =
            "{\"kind\":\"header\",\"schema\":\"spotlake-trace\",\"version\":2,\"entries\":1}\n";
        let garbage = format!("{header}not json\n");
        assert!(matches!(
            TraceJournal::parse(&garbage),
            Err(JournalError::Malformed { line: 2, .. })
        ));
        let unknown_kind = format!("{header}{{\"kind\":\"wormhole\",\"tick\":0,\"name\":\"x\"}}\n");
        assert!(matches!(
            TraceJournal::parse(&unknown_kind),
            Err(JournalError::Malformed { .. })
        ));
        let no_tick = format!("{header}{{\"kind\":\"event\",\"name\":\"x\"}}\n");
        assert!(matches!(
            TraceJournal::parse(&no_tick),
            Err(JournalError::Malformed { .. })
        ));
    }
}
