//! The traced pass's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions (spans inside the crates are a later
//! issue). They stay in memory and are written out when the run ends. A
//! layer's self time is its span minus the part of that interval its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle to a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `timestream.commit`.
    pub name: &'static str,
    /// Request class or dataset the call served; empty when there is none.
    pub class: &'static str,
    /// Shared by every span of one round or request: its sequence number.
    pub trace: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; equals `start_ns` while open.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log. Each thread records into its own tracer (sharing
/// one epoch); [`Tracer::absorb`] merges them when the threads are joined.
///
/// While disabled — the whole end-to-end pass, and the plain stretch the
/// traced pass compares itself to — every call is a branch and nothing else,
/// so workloads call it unconditionally.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    /// An empty, disabled log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// A disabled or enabled log sharing this one's epoch, for another thread.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
            enabled: self.enabled,
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn begin(
        &mut self,
        name: &'static str,
        class: &'static str,
        trace: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            class,
            trace,
            parent: parent.map(|p| p.0).filter(|p| *p != usize::MAX),
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id.0) {
            span.end_ns = now.max(span.start_ns);
        }
    }

    /// Records a leaf span around `f`.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        class: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, class, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of every span called `name` (and, when
    /// `class` is non-empty, of that class), in recording order.
    pub fn durations_ms(&self, name: &str, class: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (class.is_empty() || s.class == class))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span in nanoseconds: its duration minus the union
    /// of its children's intervals, clipped to the span. Children may
    /// overlap (parallel calls) without being counted twice.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                children.entry(parent).or_default().push((start, end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                let mut covered = 0;
                if let Some(intervals) = children.get_mut(&i) {
                    intervals.sort_unstable();
                    let mut reach = span.start_ns;
                    for &(start, end) in intervals.iter() {
                        if end > reach {
                            covered += end - start.max(reach);
                            reach = end;
                        }
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total duration and total self time, in milliseconds, of the spans
    /// called `name` — their ratio is the share no child accounts for.
    pub fn total_and_self_ms(&self, name: &str) -> (f64, f64) {
        let self_ns = self.self_ns();
        let (mut total, mut own) = (0u64, 0u64);
        for (span, own_ns) in self.spans.iter().zip(self_ns) {
            if span.name == name {
                total += span.duration_ns();
                own += own_ns;
            }
        }
        (total as f64 / 1e6, own as f64 / 1e6)
    }

    /// Writes one JSON object per span: `name`, `class`, `trace`, `id`,
    /// `parent`, `start_us`, `end_us`, `self_us`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"class\":\"{}\",\"trace\":{},\"id\":{id},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                span.name,
                span.class,
                span.trace,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                own as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            class: "",
            trace: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 60),  // overlaps the first child: counted once
            span(Some(0), 80, 120), // runs past the parent: clipped at 100
            span(Some(1), 15, 20),  // grandchild: only its own parent's business
        ];
        assert_eq!(t.self_ns(), vec![30, 25, 30, 40, 5]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.spans = vec![span(None, 0, 10)];
        let mut b = Tracer::new(epoch);
        b.spans = vec![span(None, 0, 50), span(Some(0), 10, 20)];
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.self_ns(), vec![10, 40, 10]);
    }

    #[test]
    fn leaf_spans_nest_under_an_open_root_and_cover_it() {
        let mut t = Tracer::new(Instant::now());
        let off = t.begin("round", "", 6, None);
        t.leaf("child", "sps", 6, Some(off), || ());
        t.end(off);
        assert_eq!(t.len(), 0, "a disabled tracer records nothing");
        t.set_enabled(true);
        let root = t.begin("round", "", 7, None);
        t.leaf("child", "sps", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        assert!(t.durations_ms("round", "")[0] >= 2.0);
        assert_eq!(t.durations_ms("child", "sps").len(), 1);
        assert!(t.durations_ms("child", "price").is_empty());
        let (total, own) = t.total_and_self_ms("round");
        assert!(own < total * 0.5, "the child covers most of the root");
    }
}
