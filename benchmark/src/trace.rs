//! In-memory span tracer for the traced run.
//!
//! Spans are opened around calls into each layer's public functions (see
//! `wrap.rs` and `redrive.rs`) and closed in strict LIFO order on one thread, so a
//! span's self time is its duration minus the summed durations of its children.
//! Closed spans are folded into one record per span name (count, total, self)
//! and per counter name; nothing is written until the run ends.
//!
//! Tracing is per thread: every run executes on one thread (see
//! [`run_sequential`]), and any span attempted on another thread while tracing is
//! on is counted as foreign — a failed check, since its time would be attributed
//! to the wrong layer.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

/// The layers a span name can start with, in report order.  `bench` is the
/// benchmark's own glue (root spans, evaluator construction, median selection).
pub const LAYERS: [&str; 7] = ["platform", "ml", "core", "opt", "obs", "dist", "bench"];

/// Aggregate of every closed span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    /// Smallest self time of one span (negative only if children overran it).
    pub min_self_s: f64,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub spans: BTreeMap<&'static str, SpanTotals>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Durations of the root spans, by name.
    pub roots: BTreeMap<&'static str, f64>,
    /// Spans attempted on a thread other than the tracing one.
    pub foreign_spans: u64,
    /// Spans still open when the trace was taken.
    pub unclosed: usize,
}

impl TraceReport {
    /// Total duration of all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.total_s)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.count)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Summed self time of every span whose name starts with `layer.`.
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .fold(0.0, |sum, (_, s)| sum + s.self_s)
    }

    /// Relative gap between the summed self times and the summed root durations;
    /// 0 when every child span lies inside its parent and nothing escaped.
    pub fn accounting_error(&self) -> f64 {
        let roots: f64 = self.roots.values().sum();
        let selves = LAYERS
            .iter()
            .fold(0.0, |sum, layer| sum + self.layer_self_s(layer));
        (selves - roots).abs() / roots.max(f64::MIN_POSITIVE)
    }

    /// Whether every child span summed to at most its parent.
    pub fn children_fit(&self) -> bool {
        self.spans.values().all(|s| s.min_self_s >= -1e-9)
    }
}

/// The layer a span or counter name belongs to: the text before its first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

struct Open {
    name: &'static str,
    start: Instant,
    child_s: f64,
}

#[derive(Default)]
struct State {
    stack: Vec<Open>,
    report: TraceReport,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static FOREIGN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State::default());
}

fn enabled() -> bool {
    if ENABLED.with(Cell::get) {
        return true;
    }
    if TRACING.load(Ordering::Relaxed) {
        FOREIGN.fetch_add(1, Ordering::Relaxed);
    }
    false
}

/// Start tracing on the calling thread, discarding anything recorded before.
pub fn start() {
    STATE.with(|state| *state.borrow_mut() = State::default());
    FOREIGN.store(0, Ordering::Relaxed);
    ENABLED.with(|flag| flag.set(true));
    TRACING.store(true, Ordering::Relaxed);
}

/// Stop tracing and return what was recorded.
pub fn finish() -> TraceReport {
    TRACING.store(false, Ordering::Relaxed);
    ENABLED.with(|flag| flag.set(false));
    STATE.with(|state| {
        let state = std::mem::take(&mut *state.borrow_mut());
        let mut report = state.report;
        report.unclosed = state.stack.len();
        report.foreign_spans = FOREIGN.load(Ordering::Relaxed);
        report
    })
}

/// Run `f` inside a span called `name` (a no-op wrapper when tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    STATE.with(|state| {
        state.borrow_mut().stack.push(Open {
            name,
            start: Instant::now(),
            child_s: 0.0,
        })
    });
    let out = f();
    let end = Instant::now();
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        let open = state.stack.pop().expect("span stack underflow");
        debug_assert_eq!(open.name, name, "spans must close in LIFO order");
        let duration = end.duration_since(open.start).as_secs_f64();
        let self_s = duration - open.child_s;
        match state.stack.last_mut() {
            Some(parent) => parent.child_s += duration,
            None => *state.report.roots.entry(name).or_default() += duration,
        }
        let totals = state.report.spans.entry(name).or_insert(SpanTotals {
            min_self_s: f64::INFINITY,
            ..SpanTotals::default()
        });
        totals.count += 1;
        totals.total_s += duration;
        totals.self_s += self_s;
        totals.min_self_s = totals.min_self_s.min(self_s);
    });
    out
}

/// Add `delta` to the counter `name` (ignored when tracing is off).
pub fn count(name: &'static str, delta: u64) {
    if ENABLED.with(Cell::get) {
        STATE.with(|state| *state.borrow_mut().report.counters.entry(name).or_default() += delta);
    }
}

/// Run `f` on one thread with every nested parallel combinator of the workspace's
/// rayon stand-in running sequentially (it runs nested combinators inline on its
/// worker threads).  Every workload runs this way.  The traced run needs it so
/// that spans nest on one stack, and its untraced comparison runs the same way,
/// so the difference is tracing alone.  The untraced run needs it to be steady:
/// on a shared 2-vCPU machine, five runs of paper-repro spread by 5.5 % in CPU
/// time on two threads and by 1.8 % on one.
pub fn run_sequential<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let job = Mutex::new(Some(f));
    let mut results: Vec<Option<T>> = vec![true, false]
        .into_par_iter()
        .map(|run| {
            let f = run.then(|| job.lock().expect("job lock poisoned").take())??;
            Some(f())
        })
        .collect();
    results
        .swap_remove(0)
        .expect("the job ran on the first worker")
}
