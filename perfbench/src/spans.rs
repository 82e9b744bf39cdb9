//! The benchmark's own spans: recorded in memory around each call it makes
//! into the program, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Spans of one operation share `op`; `parent` is the span
/// that caused this one (0 for an operation's root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer. When off, it only measures durations.
pub struct Recorder {
    enabled: bool,
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Span ids are unique across threads that share `epoch`.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            enabled: on,
            on,
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Record spans from now on only when `on` (the recorder must have
    /// been created on for this to turn it on).
    pub fn set_on(&mut self, on: bool) {
        self.on = on && self.enabled;
    }

    /// A fresh id, usable as an operation or span id.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        (self.thread << 40) | self.next
    }

    /// Start timing a span; close it with [`Recorder::end`].
    pub fn begin(&self) -> Begun {
        Begun {
            at: Instant::now(),
            start_ns: if self.on {
                u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            } else {
                0
            },
        }
    }

    /// Close a span under id `id` (from [`Recorder::id`], so children can
    /// name it as their parent); returns its duration in ns.
    pub fn end(&mut self, begun: Begun, id: u64, name: &'static str, op: u64, parent: u64) -> u64 {
        let start_ns = begun.start_ns;
        let dur = u64::try_from(begun.at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
        dur
    }

    /// Run `f` under a fresh span; returns its value and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.id();
        let begun = self.begin();
        let value = f();
        (value, self.end(begun, id, name, op, parent))
    }
}

/// The start of an open span.
pub struct Begun {
    at: Instant,
    start_ns: u64,
}

/// Per-name totals: `(count, total duration ns, total self time ns)`.
pub type SpanTotals = BTreeMap<&'static str, (u64, u64, u64)>;

/// Aggregate spans by name. Self time is a span's duration minus the part
/// of its interval that its children cover.
pub fn totals(spans: &[Span]) -> SpanTotals {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = SpanTotals::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in v {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Spans as JSON lines: `{"id":…,"parent":…,"op":…,"name":…,"start_ns":…,"end_ns":…}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_parent() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "a", 30, 50),  // overlaps the first child
            span(4, 1, "b", 90, 130), // runs past the parent's end
            span(5, 4, "c", 95, 100),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["a"], (2, 50, 50));
        assert_eq!(t["b"], (1, 40, 35));
        assert_eq!(t["c"], (1, 5, 5));
    }

    #[test]
    fn recorder_links_children_and_stays_empty_when_off() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch, 1);
        let op = rec.id();
        let root = rec.id();
        let begun = rec.begin();
        rec.time("child", op, root, || {});
        rec.end(begun, root, "op", op, 0);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].parent, root);
        assert_eq!(rec.spans[1].id, root);
        assert!(rec.spans[0].start_ns >= rec.spans[1].start_ns);
        assert_eq!(totals(&rec.spans)["op"].0, 1);
        assert_eq!(to_jsonl(&rec.spans).lines().count(), 2);

        rec.set_on(false);
        rec.time("paused", op, 0, || {});
        assert_eq!(rec.spans.len(), 2);

        let mut off = Recorder::new(false, epoch, 2);
        off.set_on(true);
        let (v, _) = off.time("x", 0, 0, || 7);
        assert_eq!(v, 7);
        assert!(off.spans.is_empty());
    }
}
