//! In-memory spans around the calls the benchmark makes into each
//! layer, written out once the run ends.
//!
//! A span is `(name, id, parent, symbol, n, start, end)`; times are
//! nanoseconds since the tracer's epoch. Spans are recorded only from
//! the benchmark's own code, around public calls: nothing inside the
//! library is instrumented.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `core.execute_into`.
    pub name: &'static str,
    /// Unique per tracer (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
    /// The symbol, frame or round the call served.
    pub symbol: u64,
    /// Transform size the call worked on (0 where none applies).
    pub n: u32,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans while enabled; when disabled every call is a no-op
/// that reads no clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A tracer sharing `epoch` with any others in the run.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer { epoch, enabled, next_id: 0, spans: Vec::new(), cap: usize::MAX }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// How many more spans fit under the cap.
    pub fn room(&self) -> usize {
        self.cap.saturating_sub(self.spans.len())
    }

    /// Keeps at most `n` more spans; later ones are dropped, but clock
    /// reads go on, so the tracing cost stays the same.
    pub fn budget(&mut self, n: usize) {
        self.cap = self.spans.len().saturating_add(n);
    }

    /// Switches recording on or off (the overhead probe alternates).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The clock, as ns since the epoch (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.enabled {
            self.stamp(Instant::now())
        } else {
            0
        }
    }

    /// An instant as ns since the epoch.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id (for a parent recorded after its children).
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span under a reserved or fresh id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        symbol: u64,
        n: usize,
        start: u64,
        end: u64,
    ) {
        if self.enabled && self.spans.len() < self.cap {
            self.spans.push(Span { name, id, parent, symbol, n: n as u32, start, end });
        }
    }

    /// Records a span that started at `start` and ends now; returns its
    /// id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        symbol: u64,
        n: usize,
        start: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now();
        let id = self.reserve();
        self.record_as(id, name, parent, symbol, n, start, end);
        id
    }

    /// Takes another tracer's spans (a worker thread's), renumbering
    /// their ids past this tracer's; spans past the cap are dropped.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.next_id;
        let bump = |id: u64| if id == 0 { 0 } else { id + base };
        for s in other.spans.into_iter().take(self.room()) {
            self.spans.push(Span { id: bump(s.id), parent: bump(s.parent), ..s });
        }
        self.next_id += other.next_id;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans named `name`, at size `n` when given.
    pub fn durations(&self, name: &str, n: Option<usize>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && n.is_none_or(|n| s.n as usize == n))
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any file-system error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"symbol\":{},\"n\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.symbol, s.n, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let start = t.now();
        assert_eq!(start, 0);
        assert_eq!(t.record("x", 0, 1, 64, start), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parent_links() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, true);
        main.record("a", 0, 0, 0, main.now());
        let mut worker = Tracer::new(epoch, true);
        let parent = worker.reserve();
        let child = worker.record("child", parent, 7, 0, worker.now());
        worker.record_as(parent, "parent", 0, 7, 0, 0, worker.now());
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        let child_span = spans.iter().find(|s| s.name == "child").expect("child");
        let parent_span = spans.iter().find(|s| s.name == "parent").expect("parent");
        assert_eq!(child_span.parent, parent_span.id);
        assert_eq!(child_span.id, child + 1);
        assert_ne!(parent_span.id, spans[0].id);
    }
}
