//! In-memory spans, recorded by the benchmark around its calls into the
//! program (the program itself carries no instrumentation).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval of one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or operation name, e.g. `db.reader`.
    pub name: &'static str,
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u64>,
    /// Request the span belongs to (shared by its whole tree).
    pub request: u64,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One client thread's span buffer. Spans stay here until the run ends.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    client: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer for client `client`; timestamps count from `origin`.
    pub fn new(origin: Instant, client: u64) -> SpanBuf {
        SpanBuf {
            origin,
            client,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh request id, unique across clients.
    pub fn request(&mut self) -> u64 {
        self.next += 1;
        (self.client << 40) | self.next
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.client << 40) | self.next;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
