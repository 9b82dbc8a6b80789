//! In-memory spans around the harness's own calls into each layer.
//!
//! A traced run records one span per layer boundary it crosses — name,
//! start, end, the span that caused it, and the request it belongs to —
//! into a per-thread `Vec`, merges them when the run ends, and writes
//! them as JSON lines. Nothing is recorded inside the programs under
//! test; end-to-end metrics always come from an untraced run.

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Instant;

/// Span id 0 means "no parent".
pub const ROOT: u32 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Request the span belongs to; 0 for spans outside any request.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. Ids are local until [`merge`] renumbers them.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// All recorders of one run share `epoch`, so their clocks compare.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
        id
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, 0, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Reserves a parent span whose end is filled in by [`Self::close`],
    /// so children recorded meanwhile can name it.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, parent, 0, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id as usize - 1].end_ns = end;
    }
}

/// Concatenates per-thread logs, renumbering ids so they stay unique and
/// parent links stay within their thread.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut out = Vec::new();
    for rec in recorders {
        let base = out.len() as u32;
        out.extend(rec.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> HashMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = HashMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += own[&s.id];
    }
    by_name
}

/// The largest relative gap, over all requests, between the sum of a
/// request's span self times and the duration of its root span. Spans
/// that nest properly close the budget exactly; a gap means a span was
/// recorded outside its parent's interval.
pub fn worst_request_closure(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let mut sums: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.req != 0) {
        let entry = sums.entry(s.req).or_insert((0, 0));
        entry.0 += own[&s.id];
        if s.parent == ROOT {
            entry.1 = s.duration_ns();
        }
    }
    sums.values()
        .filter(|(_, root)| *root > 0)
        .map(|&(sum, root)| (sum as f64 - root as f64).abs() / root as f64)
        .fold(0.0, f64::max)
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, req: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, ROOT, 7, 0, 100),
            span(2, 1, 7, 10, 30),
            // Overlaps span 2 on [20, 30): counted once.
            span(3, 1, 7, 20, 50),
            span(4, 3, 7, 25, 45),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 20);
        assert_eq!(own[&4], 20);
    }

    #[test]
    fn child_cover_is_clipped_to_the_parent() {
        let spans = vec![span(1, ROOT, 1, 10, 20), span(2, 1, 1, 0, 15)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn nested_request_spans_close_the_budget() {
        let spans = vec![
            span(1, ROOT, 9, 0, 100),
            span(2, 1, 9, 0, 40),
            span(3, 1, 9, 40, 100),
        ];
        assert_eq!(worst_request_closure(&spans), 0.0);
        // A child recorded outside its parent's interval breaks closure.
        let broken = vec![span(1, ROOT, 9, 0, 100), span(2, 1, 9, 90, 150)];
        assert!(worst_request_closure(&broken) > 0.05);
    }

    #[test]
    fn merge_keeps_ids_unique_and_parents_local() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let mut b = Recorder::new(epoch);
        let now = Instant::now();
        let root_a = a.record("root", ROOT, 1, now, now);
        a.record("kid", root_a, 1, now, now);
        let root_b = b.record("root", ROOT, 2, now, now);
        b.record("kid", root_b, 2, now, now);
        let merged = merge(vec![a, b]);
        let ids: Vec<u32> = merged.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4]);
        assert_eq!(merged[1].parent, 1);
        assert_eq!(merged[2].parent, ROOT);
        assert_eq!(merged[3].parent, 3);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = Vec::new();
        write_jsonl(&[span(1, ROOT, 3, 5, 9)], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let v = crate::json::Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("req").and_then(|r| r.as_f64()), Some(3.0));
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("s"));
    }
}
