//! In-memory spans recorded around calls into the workspace's layers, and
//! the self-time accounting over them.
//!
//! A span has a name, a start and end (nanoseconds since the trace epoch),
//! an optional parent and the recording thread. Spans are buffered per
//! thread, merged into the [`Trace`] when the thread's [`ThreadSpans`] is
//! dropped, and written out once, at the end of the run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: u64,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `fault.capture`.
    pub name: &'static str,
    /// Recording thread.
    pub thread: u32,
    /// Start, in nanoseconds since the trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A trace: an epoch, an id source and the merged spans of every thread.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_thread: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A span buffer for the calling thread.
    pub fn thread(&self) -> ThreadSpans<'_> {
        let thread = self.next_thread.fetch_add(1, Ordering::Relaxed) as u32;
        ThreadSpans { trace: self, thread, local: Vec::new(), open: Vec::new() }
    }

    /// Every span merged so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// The spans one thread is recording. Spans opened with [`ThreadSpans::open`]
/// nest: each one's parent is the innermost span still open on the thread.
pub struct ThreadSpans<'a> {
    trace: &'a Trace,
    thread: u32,
    local: Vec<Span>,
    open: Vec<(u64, Option<u64>, &'static str, u64)>,
}

impl ThreadSpans<'_> {
    /// Opens a span nested in the innermost open one, or under `parent`
    /// (a span of another thread) when none is open. Returns its id.
    pub fn open_under(&mut self, name: &'static str, parent: Option<u64>) -> u64 {
        let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current().or(parent);
        self.open.push((id, parent, name, self.trace.now()));
        id
    }

    /// Opens a span nested in the innermost open one. Returns its id.
    pub fn open(&mut self, name: &'static str) -> u64 {
        self.open_under(name, None)
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// When no span is open — a bug in the harness.
    pub fn close(&mut self) {
        let (id, parent, name, start) = self.open.pop().expect("close without open span");
        let end = self.trace.now();
        self.local.push(Span { id, parent, name, thread: self.thread, start, end });
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Records an already-closed span `[start, end]` as a child of the
    /// innermost open span — for intervals derived from callbacks, such as
    /// the gap between two trial observations.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        let id = self.trace.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        self.local.push(Span { id, parent, name, thread: self.thread, start, end });
    }

    /// Id of the innermost open span.
    pub fn current(&self) -> Option<u64> {
        self.open.last().map(|o| o.0)
    }

    /// Nanoseconds since the trace epoch.
    pub fn now(&self) -> u64 {
        self.trace.now()
    }
}

impl Drop for ThreadSpans<'_> {
    fn drop(&mut self) {
        // Spans still open (a panic unwound through them) are dropped.
        if let Ok(mut spans) = self.trace.spans.lock() {
            spans.append(&mut self.local);
        }
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id: its duration minus the part of its
/// interval covered by its children on the same thread. A child on another
/// thread runs concurrently and is not subtracted.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent.and_then(|p| by_id.get(&p)) {
            if parent.thread == s.thread {
                let clipped = (s.start.max(parent.start), s.end.min(parent.end));
                if clipped.0 < clipped.1 {
                    children.entry(parent.id).or_default().push(clipped);
                }
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_len);
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

/// The traced wall in thread-nanoseconds: the summed duration of every
/// thread-root span (one without a parent on its own thread).
pub fn thread_wall(spans: &[Span]) -> u64 {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| s.parent.and_then(|p| by_id.get(&p)).is_none_or(|p| p.thread != s.thread))
        .map(Span::duration)
        .sum()
}

/// How far the summed self times stray from the traced wall, as a share of
/// the wall: `|Σ self − wall| / wall`. Zero when every child lies inside its
/// parent and no two siblings overlap; overlapping or escaping spans would
/// count time twice or lose it.
pub fn reconciliation_error(spans: &[Span]) -> f64 {
    let wall = thread_wall(spans);
    if wall == 0 {
        return 0.0;
    }
    let total: u64 = self_times(spans).values().sum();
    (total as f64 - wall as f64).abs() / wall as f64
}

/// One span as a JSON line.
pub fn to_json_line(s: &Span) -> String {
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    format!(
        "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
        s.id, s.name, s.thread, s.start, s.end
    )
}
