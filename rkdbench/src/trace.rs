//! The benchmark's own span tracer.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's files, never inside the program. They stay in
//! memory (name, start, end, parent, one id per event) and are written
//! out when the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use crate::report::Report;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans a run keeps: enough for every layer's medians, small enough
/// that the span file stays a few MB.
pub const SPAN_CAP: usize = 1 << 18;

/// Index of a recorded span (`0` is "no parent").
pub type SpanId = u32;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, `module.function` style.
    pub name: &'static str,
    /// The span this one was called from (`0` = root).
    pub parent: SpanId,
    /// The event (page access, migration query, flow batch) it serves.
    pub event: u64,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`0` while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with a fixed capacity, so a long run cannot
/// grow without bound: once full, [`Tracer::full`] tells the workload
/// loop to stop tracing.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// A tracer holding at most `cap` spans.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether the store has reached its capacity.
    pub fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: SpanId, event: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, parent, event, start_ns, 0)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Renames a span after the fact (a call is classified by what it
    /// turned out to do, e.g. an access that triggered a retrain).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize - 1].name = name;
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        event: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            event,
            start_ns,
            end_ns,
        });
        self.spans.len() as SpanId
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time of every span, indexed like the span store: duration
    /// minus the union of its children's intervals (children of one
    /// span may overlap when requests are pipelined).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.dur_ns().saturating_sub(covered(kids)))
            .collect()
    }

    /// Per-name `(count, total ns, self ns)` over all spans.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span as tab-separated lines (`id parent event name
    /// start_ns end_ns self_ns`) after a per-layer summary header.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, (n, total, own)) in self.summary() {
            writeln!(w, "# layer {name} spans={n} total_ns={total} self_ns={own}")?;
        }
        writeln!(w, "id\tparent\tevent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.event,
                s.name,
                s.start_ns,
                s.end_ns,
                own
            )?;
        }
        w.flush()
    }
}

/// Writes the traced run's spans and notes where they went.
pub fn write_spans(r: &mut Report, tracer: &Tracer, workload: &str) {
    let path = crate::spans_path(workload);
    match tracer.write(&path) {
        Ok(()) => r.note(format!(
            "{workload}: {} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => r.mismatch(format!("cannot write spans to {}: {e}", path.display()), 0),
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(16);
        let p = t.push("parent", 0, 0, 0, 100);
        t.push("a", p, 0, 10, 40);
        t.push("b", p, 0, 30, 60); // overlaps a
        t.push("c", p, 0, 80, 90);
        let selfs = t.self_times();
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
        let sum = t.summary();
        assert_eq!(sum["parent"], (1, 100, 40));
    }
}
