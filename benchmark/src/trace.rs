//! In-memory spans around the calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! the program are a later change), kept in memory, and written as JSON
//! lines when the run ends. A span's *self time* is its duration minus
//! the part its children cover; the load generator's own cost is the
//! self time of the per-tick `step` spans.

use std::io::Write;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = u32;
/// Index of an interned span name.
pub type NameId = u16;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: NameId,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub rep: u32,
    /// Calls into the layer this span covers (1 for a single call).
    pub calls: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, `open` is one predictable branch and
/// nothing is stored, so the untraced reps pay nothing for it.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    names: Vec<String>,
    pub spans: Vec<Span>,
    /// Repetition number stamped on new spans.
    pub rep: u32,
    /// Count each segment's allocations. Kept apart from `on`: counting
    /// costs three atomic updates per allocation, which would inflate
    /// the very tick times the spans measure, so the traced pass counts
    /// in one extra repetition with spans off.
    pub count_allocs: bool,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            rep: 0,
            count_allocs: false,
        }
    }

    /// Intern a span name (do this outside hot loops).
    pub fn name(&mut self, name: &str) -> NameId {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as NameId;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as NameId
    }

    pub fn name_of(&self, span: &Span) -> &str {
        &self.names[span.name as usize]
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; `None` when tracing is off.
    #[inline]
    pub fn open(&mut self, name: NameId, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.unwrap_or(NO_PARENT),
            rep: self.rep,
            calls: 0,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// End a span now, recording how many layer calls it covered.
    #[inline]
    pub fn close(&mut self, id: Option<SpanId>, calls: u64) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns;
            span.calls = calls;
        }
    }

    /// Self time per span: duration minus the time its direct children
    /// cover (children of one parent never overlap here — everything is
    /// recorded by one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Every span called `name`, in the order they were opened, each with
    /// its index (a name never recorded matches nothing).
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| self.names[s.name as usize] == name)
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|(_, s)| s.dur_ns()).collect()
    }

    /// `(total ns, total calls)` over every span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.named(name).fold((0, 0), |(ns, calls), (_, s)| {
            (ns + s.dur_ns(), calls + s.calls)
        })
    }

    /// Summed self time (ns) of every span called `name`.
    pub fn self_total_ns(&self, name: &str) -> u64 {
        let own = self.self_times_ns();
        self.named(name).map(|(i, _)| own[i]).sum()
    }

    /// One JSON object per line:
    /// `{"name":…,"start_ns":…,"end_ns":…,"parent":…,"rep":…,"calls":…}`
    /// where `parent` is the 0-based line of the parent span or `null`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rep\":{},\"calls\":{}}}",
                self.name_of(span),
                span.start_ns,
                span.end_ns,
                parent,
                span.rep,
                span.calls
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: NameId, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(true);
        let seg = tr.name("seg");
        let step = tr.name("step");
        let call = tr.name("call");
        tr.spans = vec![
            span(seg, 0, 1_000, NO_PARENT),
            span(step, 100, 600, 0),
            span(call, 150, 350, 1),
            span(call, 400, 550, 1),
            span(step, 600, 900, 0),
        ];
        let own = tr.self_times_ns();
        // seg: 1000 − (500 + 300); first step: 500 − (200 + 150).
        assert_eq!(own, vec![200, 150, 200, 150, 300]);
        assert_eq!(tr.self_total_ns("step"), 450);
        assert_eq!(tr.total("call"), (350, 2));
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(own.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn spans_nest_and_stay_inside_their_parent() {
        let mut tr = Tracer::new(true);
        let outer = tr.name("outer");
        let inner = tr.name("inner");
        let a = tr.open(outer, None);
        let b = tr.open(inner, a);
        tr.close(b, 3);
        tr.close(a, 1);
        let (p, c) = (tr.spans[0], tr.spans[1]);
        assert_eq!(c.parent, 0);
        assert_eq!(p.parent, NO_PARENT);
        assert!(p.start_ns <= c.start_ns && c.end_ns <= p.end_ns);
        assert_eq!(c.calls, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let n = tr.name("x");
        let s = tr.open(n, None);
        tr.close(s, 1);
        assert!(s.is_none() && tr.spans.is_empty());
    }
}
