//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (the program itself is not changed). Each span has a name, a start and
//! an end on one clock, the span that caused it, and a trace id shared by
//! every span of one request (or of the set-up). Spans stay in memory
//! and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

/// One recorded span. Times are nanoseconds since the run's clock base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique within a log (1-based; 0 means "no parent").
    pub id: u64,
    /// The causing span's id, or 0 for a root.
    pub parent: u64,
    /// Shared by every span of one request: the request id.
    pub trace: u64,
    /// Span name (`request`, `encode`, `setup`, `swap`, ...).
    pub name: &'static str,
    /// Start time, ns.
    pub start_ns: u64,
    /// End time, ns (`>= start_ns`).
    pub end_ns: u64,
}

/// An append-only span log.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    spans: Vec<SpanRec>,
}

impl SpanLog {
    /// An empty log with room for `cap` spans.
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            spans: Vec::with_capacity(cap),
        }
    }

    /// Records a span and returns its id (for children to name as parent).
    pub fn record(
        &mut self,
        parent: u64,
        trace: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(SpanRec {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Moves every span of `other` into this log, renumbering ids so they
    /// stay unique.
    pub fn absorb(&mut self, other: SpanLog) {
        let offset = self.spans.len() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.clamp(lo, hi).max(cursor);
        let e = e.clamp(lo, hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Returned per span name, in record order.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        out.entry(s.name).or_default().push(dur - covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_not_double_counted() {
        // Overlapping [2,6] and [4,8], disjoint [9,10], one sticking out
        // past the parent's end: covered within [0,10] = 6 + 1 = 7.
        let mut iv = vec![(4, 8), (2, 6), (9, 12)];
        assert_eq!(covered_ns(0, 10, &mut iv), 7);
        let mut none: Vec<(u64, u64)> = vec![];
        assert_eq!(covered_ns(0, 10, &mut none), 0);
        let mut nested = vec![(1, 9), (2, 3)];
        assert_eq!(
            covered_ns(0, 10, &mut nested),
            8,
            "nested child adds nothing"
        );
    }

    #[test]
    fn self_time_subtracts_children_from_each_span() {
        let mut log = SpanLog::default();
        // request [0, 100]: encode [10,20], write [20,30], wait [30,90],
        // decode [90,95]; the 10 ns before encode (generator lag) and the
        // 5 ns after decode are the root's own.
        let root = log.record(0, 7, "request", 0, 100);
        log.record(root, 7, "encode", 10, 20);
        log.record(root, 7, "write", 20, 30);
        log.record(root, 7, "wait", 30, 90);
        log.record(root, 7, "decode", 90, 95);
        let st = self_times(log.spans());
        assert_eq!(st["request"], vec![15]);
        assert_eq!(st["encode"], vec![10]);
        assert_eq!(st["wait"], vec![60]);
        let total: u64 = st.values().flatten().sum();
        assert_eq!(total, 100, "self times partition the root");
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = SpanLog::default();
        a.record(0, 1, "setup", 0, 10);
        let mut b = SpanLog::default();
        let r = b.record(0, 2, "request", 0, 10);
        b.record(r, 2, "wait", 2, 8);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].parent, s[1].id);
        assert_eq!(self_times(s)["request"], vec![4]);
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\":\"wait\",\"start_ns\":2,\"end_ns\":8"));
    }
}
