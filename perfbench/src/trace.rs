//! In-memory layer spans recorded around the replay's calls into each
//! crate. Spans are appended under a mutex while the replay runs and
//! written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Root span around one executor job.
pub const JOB: &str = "job";

/// What a span was working on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Serial work on the calling thread.
    Run,
    /// A shard job, by its first individual id.
    Shard(usize),
    /// One individual, by id.
    Individual(usize),
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `core.train` (or [`JOB`] for a root).
    pub layer: &'static str,
    /// The shard or individual the span worked on.
    pub tag: Tag,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A span recorder shared by the replay's jobs.
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Trace {
    /// An empty trace starting now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer` tagged `tag`.
    pub fn time<T>(&self, layer: &'static str, tag: Tag, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let span = Span {
            layer,
            tag,
            start_ns: nanos(start.duration_since(self.origin)),
            dur_ns: nanos(start.elapsed()),
        };
        // A span pushed by a job that panicked elsewhere is still whole.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Summed duration of `layer`'s spans, in seconds.
    #[must_use]
    pub fn total_s(&self, layer: &str) -> f64 {
        // Folded from +0.0: an empty float sum is -0.0.
        self.durations_s(layer).iter().fold(0.0, |acc, d| acc + d)
    }

    /// Durations of `layer`'s spans, in seconds, in recording order.
    #[must_use]
    pub fn durations_s(&self, layer: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let (kind, id) = match s.tag {
                Tag::Run => ("run", 0),
                Tag::Shard(id) => ("shard", id),
                Tag::Individual(id) => ("individual", id),
            };
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"{kind}\":{id},\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
