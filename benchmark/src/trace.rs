//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from the benchmark's files only (spans inside the
//! program are a later change), kept in memory, and written as JSON lines
//! when the run ends. A layer's self time is its span minus its children.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Receives layer-boundary events from the replay. [`NoTrace`] compiles to
/// nothing, so the untraced replay is the plain sequence of calls.
pub trait Tracer {
    fn enter(&mut self, name: &'static str) -> usize;
    fn exit(&mut self, token: usize);
}

pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _token: usize) {}
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to (index into the trace sample).
    pub request: u32,
    /// Position in the recorder, 1-based; `parent == 0` marks a root.
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanRecorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

impl SpanRecorder {
    pub fn with_capacity(spans: usize) -> SpanRecorder {
        SpanRecorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(8),
            request: 0,
        }
    }

    /// Spans entered from now on belong to `request`.
    pub fn begin_request(&mut self, request: u32) {
        self.request = request;
        self.stack.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records an already-measured root span (the live end-to-end call).
    pub fn record_root(&mut self, name: &'static str, request: u32, start: Instant, end: Instant) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            request,
            id,
            parent: 0,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Appends root spans recorded elsewhere (the generator's), re-numbered.
    pub fn append_roots(&mut self, roots: Vec<Span>) {
        for root in roots {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span { id, parent: 0, ..root });
        }
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let line = Json::obj([
                ("name", Json::Str(span.name.to_string())),
                ("request", Json::Num(f64::from(span.request))),
                ("id", Json::Num(f64::from(span.id))),
                ("parent", Json::Num(f64::from(span.parent))),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
            ])
            .to_line();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

impl Tracer for SpanRecorder {
    fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let parent = self.stack.last().map_or(0, |&p| p as u32 + 1);
        self.stack.push(index);
        self.spans.push(Span {
            name,
            request: self.request,
            id: index as u32 + 1,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        // Read the clock last so the span excludes its own bookkeeping.
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        index
    }

    fn exit(&mut self, token: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[token].end_ns = now;
        while let Some(top) = self.stack.pop() {
            if top == token {
                break;
            }
        }
    }
}

/// Self time (span minus the part its children cover) of every span,
/// grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut child_total = vec![0u64; spans.len() + 1];
    for span in spans {
        child_total[span.parent as usize] += span.duration_ns();
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration_ns().saturating_sub(child_total[span.id as usize]));
    }
    by_name
}

/// The replay runs leaf hops one after another; on the wire they run in
/// parallel, so the blocking path of a request is its root span minus
/// every `hop_name` child except the slowest. Returns one value per root
/// span named `root_name`, in recording order.
pub fn critical_paths(spans: &[Span], root_name: &str, hop_name: &str) -> Vec<u64> {
    let mut hop_sum = vec![0u64; spans.len() + 1];
    let mut hop_max = vec![0u64; spans.len() + 1];
    for span in spans.iter().filter(|s| s.name == hop_name) {
        let parent = span.parent as usize;
        hop_sum[parent] += span.duration_ns();
        hop_max[parent] = hop_max[parent].max(span.duration_ns());
    }
    spans
        .iter()
        .filter(|s| s.name == root_name && s.parent == 0)
        .map(|root| {
            let id = root.id as usize;
            root.duration_ns().saturating_sub(hop_sum[id]) + hop_max[id]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, request: 0, id, parent, start_ns, end_ns }
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = SpanRecorder::with_capacity(4);
        rec.begin_request(7);
        let root = rec.enter("request");
        let child = rec.enter("midtier.plan");
        rec.exit(child);
        let sibling = rec.enter("midtier.merge");
        rec.exit(sibling);
        rec.exit(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent, spans[0].request), (1, 0, 7));
        assert_eq!((spans[1].id, spans[1].parent), (2, 1));
        assert_eq!((spans[2].id, spans[2].parent), (3, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 1, 0, 0, 100),
            span("leaf.hop", 2, 1, 10, 40),
            span("leaf.handle", 3, 2, 15, 35),
            span("leaf.hop", 4, 1, 40, 90),
        ];
        let by_name = self_times(&spans);
        assert_eq!(by_name["request"], vec![20]);
        assert_eq!(by_name["leaf.hop"], vec![10, 50]);
        assert_eq!(by_name["leaf.handle"], vec![20]);
    }

    #[test]
    fn critical_path_keeps_only_the_slowest_hop() {
        let spans = vec![
            span("request", 1, 0, 0, 100),
            span("leaf.hop", 2, 1, 10, 40),
            span("leaf.hop", 3, 1, 40, 90),
            span("request", 4, 0, 100, 130),
        ];
        assert_eq!(critical_paths(&spans, "request", "leaf.hop"), vec![70, 30]);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut rec = SpanRecorder::with_capacity(2);
        let root = rec.enter("request");
        rec.exit(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        rec.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let parsed = Json::parse(lines[0]).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("request"));
        assert_eq!(parsed.get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
