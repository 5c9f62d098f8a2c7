//! Spans recorded by the benchmark's own files, around its calls into each
//! layer. They are kept in memory and written out when the run ends.
//!
//! Recording is off unless [`set_enabled`] turned it on, and an idle
//! [`enter`] costs one relaxed atomic load, so the untraced binary can share
//! the workload code. A span's parent is the span open on the same thread
//! when it began; a thread with none open (an executor worker running a
//! task of a job) adopts the *ambient* span, which the workload sets around
//! a whole job.

use crate::json::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// The span that caused this one; 0 for a top-level span.
    pub parent: u64,
    /// Shared by all spans of one top-level operation.
    pub op: u64,
    /// Small per-thread number (not the OS thread id).
    pub tid: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans beyond this many are counted, not kept: a traced run must not
/// grow memory without limit.
const MAX_SPANS: usize = 4_000_000;
const SHARDS: usize = 16;

struct Recorder {
    origin: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    ambient_parent: AtomicU64,
    ambient_op: AtomicU64,
    kept: AtomicU64,
    dropped: AtomicU64,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        ambient_parent: AtomicU64::new(0),
        ambient_op: AtomicU64::new(0),
        kept: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
    })
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    /// `(span id, op id)` of the innermost span open on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(recorder().next_tid.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turn recording on or off. Spans already open keep recording.
pub fn set_enabled(on: bool) {
    // SeqCst: the flag orders nothing else, but it is flipped a few times
    // per run and the strongest ordering costs nothing there.
    recorder().enabled.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    recorder().enabled.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    name: &'static str,
    /// Shorter spans are not kept (see [`enter_if_longer`]).
    min_ns: u64,
    start_ns: u64,
    id: u64,
    parent: u64,
    op: u64,
    saved: (u64, u64),
}

/// Begin a span named `name` on this thread.
pub fn enter(name: &'static str) -> Guard {
    enter_if_longer(name, 0)
}

/// Begin a span that is kept only if it lasts at least `min_ns`: for calls
/// made by the million, most of which only copy into a buffer. Whoever
/// uses this keeps its own total of the time, since the trace will not.
pub fn enter_if_longer(name: &'static str, min_ns: u64) -> Guard {
    let r = recorder();
    if !r.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = r.next_id.fetch_add(1, Ordering::Relaxed);
    let saved = CURRENT.with(Cell::get);
    let (parent, op) = if saved.0 != 0 {
        saved
    } else {
        // Relaxed: the ambient pair is set before the job's tasks start and
        // read by threads the job itself hands work to.
        let parent = r.ambient_parent.load(Ordering::Relaxed);
        if parent != 0 {
            (parent, r.ambient_op.load(Ordering::Relaxed))
        } else {
            (0, id)
        }
    };
    CURRENT.with(|c| c.set((id, op)));
    Guard {
        open: Some(Open {
            name,
            min_ns,
            start_ns: r.origin.elapsed().as_nanos() as u64,
            id,
            parent,
            op,
            saved,
        }),
    }
}

impl Guard {
    /// Make this span the ambient parent of spans begun on threads that
    /// have none open, until the guard is dropped.
    pub fn make_ambient(&self) {
        if let Some(open) = &self.open {
            let r = recorder();
            r.ambient_op.store(open.op, Ordering::Relaxed);
            r.ambient_parent.store(open.id, Ordering::Relaxed);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let r = recorder();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(open.saved));
        if r.ambient_parent.load(Ordering::Relaxed) == open.id {
            r.ambient_parent.store(0, Ordering::Relaxed);
        }
        if end_ns - open.start_ns < open.min_ns {
            return;
        }
        if r.kept.fetch_add(1, Ordering::Relaxed) >= MAX_SPANS as u64 {
            r.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let tid = tid();
        let span = Span {
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            id: open.id,
            parent: open.parent,
            op: open.op,
            tid,
        };
        // A poisoned shard only means another thread panicked mid-push; the
        // vector is still a valid vector, and `Drop` must not panic.
        let mut shard = match r.shards[tid as usize % SHARDS].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        shard.push(span);
    }
}

/// Take every recorded span, ordered by start time, and the number that
/// were dropped because the cap was reached.
pub fn drain() -> (Vec<Span>, u64) {
    let r = recorder();
    let mut all = Vec::new();
    for shard in &r.shards {
        let mut guard = match shard.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        all.append(&mut guard);
    }
    all.sort_by_key(|s| (s.start_ns, s.id));
    r.kept.store(0, Ordering::Relaxed);
    (all, r.dropped.swap(0, Ordering::Relaxed))
}

/// Total length covered by a set of `[start, end)` intervals, overlaps
/// counted once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut covered_to = 0u64;
    for &(start, end) in intervals.iter() {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Per span id: its duration minus the part of that interval its child
/// spans cover (children on other threads may overlap each other, hence
/// the union; a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations: the time the layer was busy, summed over threads.
    pub busy_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Busy and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.duration_ns();
        t.self_ns += self_ns[&s.id];
    }
    out
}

/// Render spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// complete events, microsecond timestamps, span/parent/op ids in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Value::object([
                ("name", Value::Str(s.name.to_string())),
                (
                    "cat",
                    Value::Str(s.name.split('.').next().unwrap_or("").to_string()),
                ),
                ("ph", Value::Str("X".into())),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(s.tid as f64)),
                (
                    "args",
                    Value::object([
                        ("id", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("op", Value::Num(s.op as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::object([
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Arr(events)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: if parent == 0 { "top" } else { "child" },
            start_ns,
            end_ns,
            id,
            parent,
            op: 1,
            tid: 1,
        }
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 10), (2, 4), (20, 30), (25, 27)]), 20);
        assert_eq!(union_len(&mut [(3, 3), (0, 1)]), 1);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children on different threads cover [10, 40).
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),
            // A child that outlives its parent is clipped to [90, 100).
            span(4, 1, 90, 120),
            // A grandchild reduces its own parent only.
            span(5, 2, 12, 18),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 6);
        assert_eq!(st[&3], 20);
        assert_eq!(st[&4], 30);
        assert_eq!(st[&5], 6);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["top"].busy_ns, 100);
        assert_eq!(totals["top"].self_ns, 60);
        assert_eq!(totals["child"].count, 4);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let text = chrome_trace(&[span(1, 0, 1_000, 3_500), span(2, 1, 1_500, 2_000)]);
        let v = crate::json::parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[0].get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Value::as_f64),
            Some(1.0)
        );
    }

    // The recorder is process-wide, so everything that records runs in this
    // one test; the other tests above are pure functions.
    #[test]
    fn recorder_nests_adopts_the_ambient_span_and_idles_when_off() {
        set_enabled(false);
        drop(enter("ignored"));
        set_enabled(true);
        {
            let job = enter("job");
            job.make_ambient();
            {
                let _inner = enter("inner");
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(enter("worker")));
            });
        }
        drop(enter("after"));
        set_enabled(false);
        let (spans, dropped) = drain();
        assert_eq!(dropped, 0);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert!(spans.iter().all(|s| s.name != "ignored"));
        let job = by_name("job");
        assert_eq!(job.parent, 0);
        assert_eq!(by_name("inner").parent, job.id);
        assert_eq!(by_name("worker").parent, job.id);
        assert_eq!(by_name("worker").op, job.op);
        assert_ne!(by_name("worker").tid, job.tid);
        // The ambient span ended with the job.
        assert_eq!(by_name("after").parent, 0);
        assert_ne!(by_name("after").op, job.op);
        assert!(drain().0.is_empty());
    }
}
