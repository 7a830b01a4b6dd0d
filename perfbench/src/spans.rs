//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program. They stay in memory until the run ends, when
//! [`Recorder::write_json`] writes them out. A layer's self time is its
//! spans' durations minus the part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xbar_obs::json::Json;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One finished span. `trace` groups the spans of one request or one
/// mapped configuration; `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Worker threads get their own recorder from
/// [`Recorder::worker`] and hand it back with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last; `end_ns` is unset until exit.
    open: Vec<Span>,
}

/// Handle of an open span; pass it back to [`Recorder::exit`].
#[must_use]
pub struct Open(u64);

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for worker thread `thread` sharing this one's clock.
    pub fn worker(&self, thread: u32) -> Recorder {
        Recorder {
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread, if any.
    pub fn current(&self) -> Option<u64> {
        self.open.last().map(|s| s.id)
    }

    /// Opens a span under the innermost open one, or under `parent` when
    /// nothing is open on this thread.
    pub fn enter_under(&mut self, name: &'static str, trace: u64, parent: Option<u64>) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.open.push(Span {
            id,
            parent: self.current().or(parent),
            trace,
            name,
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        Open(id)
    }

    pub fn enter(&mut self, name: &'static str, trace: u64) -> Open {
        self.enter_under(name, trace, None)
    }

    /// Closes the innermost open span, which must be `span`.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        let mut done = self.open.pop().expect("a span is open");
        assert_eq!(done.id, span.0, "spans must close innermost first");
        done.end_ns = end;
        self.spans.push(done);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, trace);
        let out = f();
        self.exit(span);
        out
    }

    /// Takes over a worker's finished spans.
    pub fn absorb(&mut self, worker: Recorder) {
        assert!(worker.open.is_empty(), "worker left a span open");
        self.spans.extend(worker.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON array (times in µs since the run's
    /// first span clock).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("id".into(), Json::Num(s.id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("trace".into(), Json::Num(s.trace as f64)),
                    ("thread".into(), Json::Num(f64::from(s.thread))),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(rows).to_json() + "\n")
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (children on other threads may overlap each other;
/// covered time is counted once).
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_len(iv, s.start_ns, s.end_ns));
        *out.entry(s.name).or_insert(0) += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            thread: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            // Two overlapping children (worker threads): union is 10..70.
            span(2, Some(1), "child", 10, 50),
            span(3, Some(1), "child", 30, 70),
            span(4, Some(2), "leaf", 20, 25),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t["root"], 40);
        assert_eq!(t["child"], 40 - 5 + 40);
        assert_eq!(t["leaf"], 5);
        // Self times of a single-threaded tree sum to the root's duration.
        let serial = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 0, 30),
            span(3, Some(1), "b", 40, 90),
            span(4, Some(3), "a", 50, 60),
        ];
        let t = self_time_ns(&serial);
        assert_eq!(t.values().sum::<u64>(), 100);
        assert_eq!(t["a"], 40);
    }

    #[test]
    fn recorder_links_parents_and_traces() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer", 7);
        let inner = rec.enter("inner", 7);
        rec.exit(inner);
        let outer_id = rec.current().expect("outer open");
        let mut worker = rec.worker(1);
        let w = worker.enter_under("work", 7, Some(outer_id));
        worker.exit(w);
        rec.exit(outer);
        rec.absorb(worker);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        assert_eq!(by_name("outer").parent, None);
        assert_eq!(by_name("inner").parent, Some(outer_id));
        assert_eq!(by_name("work").parent, Some(outer_id));
        assert_eq!(by_name("work").thread, 1);
        assert!(spans.iter().all(|s| s.trace == 7 && s.end_ns >= s.start_ns));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_exit_panics() {
        let mut rec = Recorder::new();
        let a = rec.enter("a", 1);
        let _b = rec.enter("b", 1);
        rec.exit(a);
    }
}
