//! Span and counter recording around calls into the workspace crates.
//!
//! A span is one call into a layer: its name, start and end on a shared
//! monotonic clock, the span that caused it, the recording thread, and the
//! work it did (records or bytes). Spans stay in memory and are written
//! out when the pass ends. With recording off, [`Recorder::span`] only
//! runs its closure, which is what the untraced pass uses to measure the
//! recording overhead. A span recorded on a thread with no span of its own
//! open (a worker of the crates' thread pools or of the harness) is a
//! child of the open [`Recorder::root`] span.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    /// Id of the enclosing span (0 for a root).
    pub parent: u32,
    pub thread: u32,
    pub work: u64,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    /// Id of the open root span (0 when none).
    root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `work` sizes the result.
    pub fn span<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        work: impl Fn(&T) -> u64,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o
                .last()
                .copied()
                .unwrap_or_else(|| self.root.load(Ordering::Relaxed));
            o.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|o| o.borrow_mut().pop());
        let span = Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            thread: thread_id(),
            work: work(&out),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Runs `f` inside a span named `name` that adopts the spans of every
    /// thread with none of its own open, for the benchmark's `bench.*`
    /// roots.
    pub fn root<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(
            name,
            || {
                let id = OPEN.with(|o| o.borrow().last().copied().unwrap_or(0));
                let outer = self.root.swap(id, Ordering::Relaxed);
                let out = f();
                self.root.store(outer, Ordering::Relaxed);
                out
            },
            |_| 0,
        )
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span list poisoned");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Renders spans as a JSON array of
/// `[name, start_ns, end_ns, id, parent, thread, work]` rows.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "[\"{}\",{},{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.thread, s.work
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}
