//! In-memory spans recorded from the benchmark's own code, around each
//! call into a layer, written out when the run ends.
//!
//! A span has a name, a start, an end, a parent and a point id. A
//! layer's self time is its spans' durations minus the part their child
//! spans cover; children never overlap, so that part is their sum.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::workload::Call;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name: a layer (`core.run`) or a grouping (`pass`, `point`).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Grid point the span served, if any.
    pub point: Option<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: f64,
    /// Summed self times (duration minus child spans), ns.
    pub self_ns: f64,
}

/// Collects spans in memory.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        point: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            point,
        });
        self.spans.len() - 1
    }

    /// Records `calls` under `parent`, grouping each point's calls under
    /// a `point` span that runs from its first call to its last.
    pub fn calls(&mut self, calls: &[Call], parent: Option<usize>) {
        let mut i = 0;
        while i < calls.len() {
            let point = calls[i].point;
            let n = calls[i..].iter().take_while(|c| c.point == point).count();
            let group = &calls[i..i + n];
            let parent = match point {
                Some(_) => {
                    Some(self.span("point", group[0].start, group[n - 1].end, parent, point))
                }
                None => parent,
            };
            for c in group {
                self.span(c.name, c.start, c.end, parent, c.point);
            }
            i += n;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name counts, total and self times.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur as f64;
            e.self_ns += dur.saturating_sub(child_ns[i]) as f64;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"point\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.point),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tracer = Tracer::new(t0);
        let pass = tracer.span("pass", at(0), at(100), None, None);
        let calls = [
            Call {
                name: "core.build",
                point: Some(0),
                start: at(10),
                end: at(20),
            },
            Call {
                name: "core.run",
                point: Some(0),
                start: at(20),
                end: at(60),
            },
            Call {
                name: "core.run",
                point: Some(1),
                start: at(70),
                end: at(90),
            },
        ];
        tracer.calls(&calls, Some(pass));
        let t = tracer.self_times();
        let ms = |name: &str| (t[name].total_ns * 1e-6, t[name].self_ns * 1e-6);
        assert_eq!(t["point"].count, 2);
        assert_eq!(ms("point"), (70.0, 0.0));
        assert_eq!(ms("pass"), (100.0, 30.0));
        assert_eq!(ms("core.run"), (60.0, 60.0));
        assert_eq!(tracer.spans()[1].parent, Some(pass));
    }
}
