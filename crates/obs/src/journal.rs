//! Structured trace journal: the narrative complement to the registry's
//! aggregates — *what happened, in order*. A [`TraceRing`] keeps the
//! newest typed records a component appends (the collector's rounds, the
//! gateway's queries), keyed on simulation ticks, and formats nothing
//! until it renders them through a [`JournalWriter`] as JSON lines with
//! sorted attribute keys: a replay under a fixed seed renders the same
//! bytes.
//!
//! The rendered document is versioned: the first line is a header record
//! (`{"kind":"header","schema":"spotlake-trace","version":2,...}`) and
//! [`TraceJournal::parse`] refuses documents whose schema or version does
//! not match, so an old reader never silently misinterprets a new journal.
//! A child span names its parent by entry sequence number.

use crate::json;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Schema name stamped into the journal header.
pub const JOURNAL_SCHEMA: &str = "spotlake-trace";

/// Current journal format version. Bump when the line format changes
/// incompatibly; [`TraceJournal::parse`] rejects any other version.
pub const JOURNAL_VERSION: u64 = 2;

/// How many records a [`TraceRing`] keeps.
pub const TRACE_RING_CAPACITY: usize = 1024;

/// A typed record a [`TraceRing`] keeps: it knows how many journal
/// entries it renders as, and writes them.
pub trait TraceRecord {
    /// Journal entries the record renders as.
    fn entries(&self) -> u64;

    /// Writes the record's entries, the first numbered `seq`.
    fn write(&self, seq: u64, out: &mut JournalWriter);
}

/// The newest [`TRACE_RING_CAPACITY`] records of a trace, the oldest
/// dropped to make room, rendered as a journal document only when asked.
/// Entries are numbered by a sequence that counts every entry ever
/// pushed, so a child's `parent` names its root even after older records
/// are gone; below capacity the numbering starts at 0.
#[derive(Debug, Clone)]
pub struct TraceRing<R> {
    records: VecDeque<R>,
    /// `seq` of the oldest kept record's first entry.
    first_seq: u64,
}

impl<R> Default for TraceRing<R> {
    fn default() -> Self {
        TraceRing {
            records: VecDeque::new(),
            first_seq: 0,
        }
    }
}

impl<R: TraceRecord> TraceRing<R> {
    /// Keeps `record`, dropping the oldest when the ring is full.
    pub fn push(&mut self, record: R) {
        if self.records.len() == TRACE_RING_CAPACITY {
            if let Some(oldest) = self.records.pop_front() {
                self.first_seq += oldest.entries();
            }
        }
        self.records.push_back(record);
    }

    /// The newest record, if any.
    pub fn newest(&self) -> Option<&R> {
        self.records.back()
    }

    /// Records kept now.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no record is kept.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the kept records as a journal document.
    pub fn render(&self) -> String {
        render(self.first_seq, &self.records)
    }
}

/// Writes `records` after a header announcing their entries, numbered
/// on from `first_seq`.
fn render<'a, R: TraceRecord + 'a>(
    first_seq: u64,
    records: impl IntoIterator<Item = &'a R, IntoIter: Clone>,
) -> String {
    let records = records.into_iter();
    let entries: u64 = records.clone().map(R::entries).sum();
    let mut out = JournalWriter::new(entries as usize);
    let mut seq = first_seq;
    for record in records {
        record.write(seq, &mut out);
        seq += record.entries();
    }
    out.finish()
}

/// One parsed journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    tick: u64,
    name: String,
    /// A span's `end` and `parent`; `None` for an event.
    span: Option<(Option<u64>, Option<u64>)>,
    attrs: Vec<(String, String)>,
}

impl TraceRecord for Entry {
    fn entries(&self) -> u64 {
        1
    }

    fn write(&self, seq: u64, out: &mut JournalWriter) {
        let mut attrs: Vec<(&str, &str)> = self
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        match self.span {
            None => out.event(seq, self.tick, &self.name, &mut attrs),
            Some((end, parent)) => out.span(seq, self.tick, end, &self.name, parent, &mut attrs),
        }
    }
}

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

/// A parsed journal document: its entries as read, whatever record
/// wrote them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceJournal {
    entries: Vec<Entry>,
    /// `seq` of the first entry: past 0 in a document whose older
    /// entries a [`TraceRing`] dropped.
    first_seq: u64,
}

impl TraceJournal {
    /// Number of journal entries (the header record is not an entry).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the document holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the document again, byte for byte as it was parsed.
    pub fn render(&self) -> String {
        render(self.first_seq, &self.entries)
    }

    /// Parses a document a [`JournalWriter`] wrote.
    ///
    /// The first line must be a header record naming this schema and
    /// version; anything else is rejected rather than misread. The parser
    /// only accepts the exact line shape the writer emits (it is a format
    /// check as much as a reader). Entries are numbered on from the first
    /// entry's `seq`, so a document whose oldest entries were dropped
    /// renders back byte for byte.
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

        let mut journal = TraceJournal::default();
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
            if journal.entries.is_empty() {
                // A document that dropped its oldest entries starts past 0.
                journal.first_seq = field_u64(&fields, "seq").unwrap_or(0);
            }
            let attrs = match fields.iter().find(|(k, _)| k == "attrs") {
                Some((_, Field::Attrs(attrs))) => attrs.clone(),
                Some(_) => return Err(malformed("attrs is not an object")),
                None => Vec::new(),
            };
            let span = (field_u64(&fields, "end"), field_u64(&fields, "parent"));
            let (tick, span) = match field_str(&fields, "kind") {
                Some("event") => (field_u64(&fields, "tick"), None),
                Some("span") => (field_u64(&fields, "start"), Some(span)),
                Some(other) => return Err(malformed(&format!("unknown kind {other:?}"))),
                None => return Err(malformed("no kind field")),
            };
            journal.entries.push(Entry {
                tick: tick.ok_or_else(|| malformed("no tick or start"))?,
                name: field_str(&fields, "name")
                    .ok_or_else(|| malformed("no name"))?
                    .to_owned(),
                span,
                attrs,
            });
        }
        Ok(journal)
    }
}

/// Writes a journal document line by line: the header first, then
/// entries in the order they are written. The caller numbers the
/// entries; `seq` and `parent` are written as given.
#[derive(Debug)]
pub struct JournalWriter {
    out: String,
}

impl JournalWriter {
    /// Starts a document whose header announces `entries` entries.
    pub fn new(entries: usize) -> Self {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"header\",\"schema\":\"{JOURNAL_SCHEMA}\",\"version\":{JOURNAL_VERSION},\"entries\":{entries}}}"
        );
        JournalWriter { out }
    }

    /// Writes an event line. `attrs` is sorted in place.
    pub fn event(&mut self, seq: u64, tick: u64, name: &str, attrs: &mut [(&str, &str)]) {
        let _ = write!(
            self.out,
            "{{\"kind\":\"event\",\"seq\":{seq},\"tick\":{tick},\"name\":"
        );
        json::write_string(&mut self.out, name);
        self.finish_line(attrs);
    }

    /// Writes a span line (`end` is `null` while open; `parent` is the
    /// parent span's `seq`, for a child). `attrs` is sorted in place.
    pub fn span(
        &mut self,
        seq: u64,
        start: u64,
        end: Option<u64>,
        name: &str,
        parent: Option<u64>,
        attrs: &mut [(&str, &str)],
    ) {
        let _ = write!(
            self.out,
            "{{\"kind\":\"span\",\"seq\":{seq},\"start\":{start},\"end\":"
        );
        let _ = match end {
            Some(end) => write!(self.out, "{end}"),
            None => self.out.write_str("null"),
        };
        self.out.push_str(",\"name\":");
        json::write_string(&mut self.out, name);
        if let Some(parent) = parent {
            let _ = write!(self.out, ",\"parent\":{parent}");
        }
        self.finish_line(attrs);
    }

    /// Writes the sorted attributes, if any, and closes the line.
    fn finish_line(&mut self, attrs: &mut [(&str, &str)]) {
        if !attrs.is_empty() {
            attrs.sort_unstable();
            self.out.push_str(",\"attrs\":{");
            for (i, (k, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                json::write_string(&mut self.out, k);
                self.out.push(':');
                json::write_string(&mut self.out, v);
            }
            self.out.push('}');
        }
        self.out.push_str("}\n");
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
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

    /// A test record: a `round` span and one `dataset` event per dataset.
    struct Round {
        tick: u64,
        datasets: u64,
    }

    impl TraceRecord for Round {
        fn entries(&self) -> u64 {
            1 + self.datasets
        }

        fn write(&self, seq: u64, out: &mut JournalWriter) {
            let tick = Some(self.tick);
            out.span(
                seq,
                self.tick,
                tick,
                "round",
                None,
                &mut [("degraded", "false")],
            );
            for i in 1..=self.datasets {
                let records = (10 * i).to_string();
                out.event(seq + i, self.tick, "dataset", &mut [("records", &records)]);
            }
        }
    }

    #[test]
    fn events_and_spans_render_in_order_after_the_header() {
        let mut ring = TraceRing::default();
        assert!(ring.is_empty());
        ring.push(Round {
            tick: 3,
            datasets: 1,
        });
        ring.push(Round {
            tick: 4,
            datasets: 0,
        });
        let text = ring.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "{\"kind\":\"header\",\"schema\":\"spotlake-trace\",\"version\":2,\"entries\":3}",
                "{\"kind\":\"span\",\"seq\":0,\"start\":3,\"end\":3,\"name\":\"round\",\"attrs\":{\"degraded\":\"false\"}}",
                "{\"kind\":\"event\",\"seq\":1,\"tick\":3,\"name\":\"dataset\",\"attrs\":{\"records\":\"10\"}}",
                "{\"kind\":\"span\",\"seq\":2,\"start\":4,\"end\":4,\"name\":\"round\",\"attrs\":{\"degraded\":\"false\"}}",
            ]
        );
        assert_eq!((ring.len(), ring.newest().map(|r| r.tick)), (2, Some(4)));
        assert_eq!(TraceJournal::parse(&text).expect("parses").len(), 3);
    }

    #[test]
    fn a_full_ring_drops_the_oldest_and_numbers_on() {
        let mut ring = TraceRing::default();
        let pushed = TRACE_RING_CAPACITY as u64 + 5;
        for tick in 0..pushed {
            ring.push(Round {
                tick,
                datasets: tick % 3,
            });
        }
        assert_eq!(ring.len(), TRACE_RING_CAPACITY);
        let text = ring.render();
        let mut lines = text.lines();
        let header = lines.next().expect("header");
        let kept: u64 = (5..pushed).map(|tick| 1 + tick % 3).sum();
        assert!(
            header.ends_with(&format!("\"entries\":{kept}}}")),
            "{header}"
        );
        let dropped: u64 = (0..5).map(|tick| 1 + tick % 3).sum();
        for (seq, line) in (dropped..).zip(lines) {
            assert!(line.contains(&format!("\"seq\":{seq},")), "{line}");
        }
        assert_eq!(text.lines().count() as u64, 1 + kept);
        let parsed = TraceJournal::parse(&text).expect("parses");
        assert_eq!(parsed.len() as u64, kept);
        assert_eq!(parsed.render(), text, "a trimmed document round-trips");
    }

    #[test]
    fn unclosed_span_renders_null_end() {
        let mut out = JournalWriter::new(1);
        out.span(0, 1, None, "open", None, &mut []);
        assert!(out.finish().ends_with(
            "{\"kind\":\"span\",\"seq\":0,\"start\":1,\"end\":null,\"name\":\"open\"}\n"
        ));
    }

    #[test]
    fn child_spans_carry_their_parent_seq() {
        let mut out = JournalWriter::new(2);
        out.span(0, 5, Some(5), "query", None, &mut []);
        out.span(1, 5, Some(5), "scan", Some(0), &mut []);
        let text = out.finish();
        assert!(
            text.contains("\"seq\":1,\"start\":5,\"end\":5,\"name\":\"scan\",\"parent\":0}"),
            "{text}"
        );
    }

    #[test]
    fn attrs_render_sorted_regardless_of_insertion_order() {
        let render = |attrs: &mut [(&str, &str)]| {
            let mut out = JournalWriter::new(1);
            out.event(0, 0, "e", attrs);
            out.finish()
        };
        let sorted = render(&mut [("a", "2"), ("z", "1")]);
        assert_eq!(render(&mut [("z", "1"), ("a", "2")]), sorted);
        assert!(sorted.contains("{\"a\":\"2\",\"z\":\"1\"}"));
    }

    #[test]
    fn strings_are_json_escaped() {
        let mut out = JournalWriter::new(1);
        out.event(0, 0, "weird\"name", &mut [("k", "line\nbreak\\\u{1}")]);
        let text = out.finish();
        assert!(text.contains("weird\\\"name"));
        assert!(text.contains("line\\nbreak\\\\\\u0001"));
    }

    #[test]
    fn render_parse_round_trips_byte_identically() {
        let mut out = JournalWriter::new(4);
        out.span(0, 2, Some(4), "query", None, &mut [("trace", "7")]);
        out.span(1, 2, Some(2), "scan", Some(0), &mut [("rows", "14")]);
        out.event(
            2,
            3,
            "odd \"названия\"",
            &mut [("k", "v\nwith\tescapes\\"), ("a", "1")],
        );
        out.span(3, 9, None, "open-ended", None, &mut []);
        let rendered = out.finish();
        let parsed = TraceJournal::parse(&rendered).expect("parses");
        assert_eq!(parsed.render(), rendered, "round-trip is byte-identical");
        assert_eq!(parsed.len(), 4);
    }

    #[test]
    fn a_document_starting_past_seq_zero_round_trips() {
        let mut out = JournalWriter::new(3);
        out.span(40, 2, Some(2), "query", None, &mut [("trace_id", "9")]);
        out.span(41, 2, Some(2), "scan", Some(40), &mut [("rows", "3")]);
        out.event(42, 3, "slo_alert", &mut []);
        let text = out.finish();
        let parsed = TraceJournal::parse(&text).expect("parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed.render(), text);
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
