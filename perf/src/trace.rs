//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (the layer), a start and end on a monotonic clock,
//! the span that caused it, and a trace id `<workload>/<suite>` shared by
//! every span of one suite. Spans stay in memory and are written out as
//! JSONL when the run ends. A layer's self time is its spans' duration
//! minus the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::write_str;

/// One recorded span (times in nanoseconds since the tracer started).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in [`Tracer::spans`].
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Trace id: `<workload>` or `<workload>/<suite>`.
    pub trace: String,
    /// Start, ns after the tracer's epoch.
    pub start_ns: u64,
    /// End, ns after the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Total and self time of one layer across its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub spans: usize,
    /// Summed span duration (ns).
    pub total_ns: u64,
    /// Summed duration minus child-span time (ns).
    pub self_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: String,
}

impl Tracer {
    /// A tracer whose spans carry trace id `trace` until [`Tracer::set_trace`].
    pub fn new(trace: &str) -> Tracer {
        Tracer {
            // lint:allow-wall-clock: spans time the host, not the model.
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: trace.to_string(),
        }
    }

    /// Sets the trace id of spans opened from now on.
    pub fn set_trace(&mut self, trace: String) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested in the innermost open
    /// span, and returns what `f` returns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            trace: self.trace.clone(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (ns) of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Per-layer span count, total time and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[s.id]);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!("{{\"id\":{},\"parent\":", s.id));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"name\":");
            write_str(s.name, &mut out);
            out.push_str(",\"trace\":");
            write_str(&s.trace, &mut out);
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.start_ns, s.end_ns
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}
