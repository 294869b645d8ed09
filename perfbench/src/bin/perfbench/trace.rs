//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, plus a sink that stamps the program's own `obs` events
//! with their arrival time so pass events become child spans.
//!
//! Spans are kept in memory while the run measures and written as JSON
//! lines when it ends.

use negassoc::obs::{json_escape, Event, TraceSink};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One timed interval: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `txdb.decode`.
    pub name: String,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The mine cycle or query the span belongs to.
    pub request: u64,
}

/// Span identifier: an index into [`Tracer::spans`].
pub type SpanId = usize;

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; span times are written relative to now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a finished span.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Make `id` a child of `parent` (for spans timed before their
    /// enclosing span was known to end).
    pub fn reparent(&mut self, id: SpanId, parent: SpanId) {
        self.spans[id].parent = Some(parent);
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let id = self.push(name, start, Instant::now(), parent, request);
        (out, id)
    }

    /// Wall time of span `id`.
    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        s.end.saturating_duration_since(s.start)
    }

    /// Span time minus the part of it that child spans cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        let me = &self.spans[id];
        let mut kids: Vec<(Instant, Instant)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(me.start), s.end.min(me.end)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = me.start;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self.duration(id).saturating_sub(covered)
    }

    /// Write every span as one JSON object per line: name, start and end
    /// in microseconds since the run began, parent index, request id and
    /// self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"request\":{},\"self_us\":{:.3}}}",
                json_escape(&s.name),
                us(s.start),
                us(s.end),
                s.request,
                self.self_time(id).as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// A [`TraceSink`] that keeps each event with the instant it arrived.
#[derive(Default)]
pub struct StampedSink {
    events: Mutex<Vec<(Instant, Event)>>,
}

impl StampedSink {
    /// Take every event recorded so far.
    pub fn drain(&self) -> Vec<(Instant, Event)> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl TraceSink for StampedSink {
    fn record(&self, event: &Event) {
        let now = Instant::now();
        // A push leaves the list valid at every step, so a poisoned lock
        // still guards good data.
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((now, event.clone()));
    }
}
