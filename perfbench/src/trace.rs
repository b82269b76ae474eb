//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer crate. Each span keeps its name, start, end and parent; they stay
//! in memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Calls and total self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub calls: u64,
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call, 0 when the span never ran.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; spans opened before the matching [`Tracer::exit`]
    /// become its children.
    pub fn enter(&mut self, name: &'static str) {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = std::hint::black_box(f());
        self.exit();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls and self time per span name. A span's self time is its
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent as usize] -= i128::from(span.end_ns - span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.self_ns += u64::try_from(own.max(0)).unwrap_or(u64::MAX);
        }
        out
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`; the root
    /// spans' parent is empty).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{id},{parent},{},{},{}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.enter("outer");
        tracer.span("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.span("leaf", || ());
        tracer.exit();
        let times = tracer.self_times();
        assert_eq!(times["leaf"].calls, 2);
        assert_eq!(times["outer"].calls, 1);
        let outer = &tracer.spans()[0];
        assert_eq!(
            times["outer"].self_ns + times["leaf"].self_ns,
            outer.end_ns - outer.start_ns
        );
        assert_eq!(tracer.spans()[1].parent, Some(0));
    }
}
