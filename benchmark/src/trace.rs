//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer; nothing inside the repository's crates is instrumented. They
//! stay in memory (one buffer per recording thread, merged afterwards) and
//! are written once, when the run ends.

use std::io::Write as _;
use std::time::Instant;

use crate::stats;

/// "No parent": the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// All spans of one request share this id.
    pub request: u64,
    /// Index (within the same buffer) of the span that caused this one.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. All buffers of a run share `epoch`.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index (a `parent` for later
    /// spans of the same request).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span and passes its result through.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.record(name, request, parent, start, Instant::now());
        r
    }

    /// Duration in nanoseconds of the span recorded last.
    pub fn last_ns(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur_ns() as f64)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so child
    /// spans recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, request: u64, parent: u32, start: Instant) -> u32 {
        self.record(name, request, parent, start, start)
    }

    pub fn close(&mut self, span: u32, end: Instant) {
        self.spans[span as usize].end_ns = self.ns(end);
    }
}

/// Appends another thread's buffer, keeping its parent links valid.
pub fn append(spans: &mut Vec<Span>, other: Vec<Span>) {
    let base = spans.len() as u32;
    spans.extend(other.into_iter().map(|mut s| {
        if s.parent != ROOT {
            s.parent += base;
        }
        s
    }));
}

/// Median duration in nanoseconds of the spans called `name`.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let mut durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    stats::median(&mut durs)
}

/// Median self time in nanoseconds of the spans called `name`: each span's
/// duration minus the durations of the spans naming it as parent. (Children
/// here are re-executions of the request's stages outside the parent's
/// interval, so durations are subtracted rather than intervals intersected.)
pub fn median_self_ns(spans: &[Span], name: &str) -> f64 {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut selfs: Vec<f64> = spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &c)| s.dur_ns() as f64 - c as f64)
        .collect();
    stats::median(&mut selfs)
}

/// Writes every buffer to `benchmark/out/trace-<workload>.json` (relative to
/// the working directory, which is the checkout root).
pub fn write(workload: &str, buffers: &[(&str, &[Span])]) -> std::io::Result<()> {
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace-{workload}.json")))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
    )?;
    let mut first = true;
    for (lane, spans) in buffers {
        for (i, s) in spans.iter().enumerate() {
            let sep = if first { "" } else { ",\n" };
            first = false;
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                "{sep}{{\"lane\": \"{lane}\", \"id\": {i}, \"name\": \"{}\", \"request\": {}, \
                 \"parent\": {parent}, \"start\": {}, \"end\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch);
        let parent = t.record("round_trip", 7, ROOT, at(0), at(100));
        t.record("build", 7, parent, at(200), at(230));
        t.record("simulate", 7, parent, at(230), at(280));
        t.record("unrelated", 8, ROOT, at(0), at(5));
        assert_eq!(median_ns(&t.spans, "round_trip"), 100_000.0);
        assert_eq!(median_self_ns(&t.spans, "round_trip"), 20_000.0);
        assert_eq!(median_self_ns(&t.spans, "build"), 30_000.0);
    }

    #[test]
    fn appended_buffers_keep_their_parents() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Tracer::new(epoch), Tracer::new(epoch));
        a.record("request", 1, ROOT, epoch, epoch);
        let parent = b.record("request", 2, ROOT, epoch, epoch);
        b.record("child", 2, parent, epoch, epoch);
        append(&mut a.spans, b.spans);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[a.spans[2].parent as usize].request, 2);
        assert_eq!(a.spans[1].parent, ROOT);
    }

    #[test]
    fn open_then_close_sets_the_end() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let s = t.open("request", 1, ROOT, epoch + Duration::from_micros(10));
        t.close(s, epoch + Duration::from_micros(25));
        assert_eq!(t.spans[0].dur_ns(), 15_000);
    }
}
