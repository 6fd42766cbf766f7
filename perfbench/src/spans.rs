//! The benchmark's own span recorder.
//!
//! Spans wrap the calls the benchmark makes into each layer's public API:
//! name, start, end, parent span and the id of the op they belong to.
//! They are kept in memory and written out when the run ends. Recording
//! is off unless [`set_enabled`] turns it on, so untraced runs pay one
//! relaxed load per call site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static OP: AtomicU64 = AtomicU64::new(0);
static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts op `id`: spans opened from now on carry it.
pub fn begin_op(id: u64) {
    OP.store(id, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
pub struct Guard(Option<(u64, Option<u64>, &'static str, u64)>);

/// Opens a span named `name` under the thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = epoch().elapsed().as_nanos() as u64;
    Guard(Some((id, parent, name, start)))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_ns)) = self.0.take() else {
            return;
        };
        let end_ns = epoch().elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().retain(|&open| open != id));
        let span = Span {
            id,
            parent,
            name,
            op: OP.load(Ordering::Relaxed),
            start_ns,
            end_ns,
        };
        if let Ok(mut closed) = CLOSED.lock() {
            closed.push(span);
        }
    }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Every span closed so far, in close order.
pub fn closed() -> Vec<Span> {
    CLOSED.lock().expect("span sink poisoned").clone()
}

/// Durations of spans named `name`, in close order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ms)
        .collect()
}

/// Renders spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.name, s.op, s.start_ns, s.end_ns
        ));
    }
    out
}

/// Self time per op of the program's own `ip-obs` spans named `name`
/// (duration minus direct children on the same thread), summed per
/// drained trace — one drained trace per op.
pub fn program_self_ms(trace: &ip_obs::Trace, name: &str) -> f64 {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for c in &trace.spans {
        if let Some(p) = c.parent {
            *covered.entry(p).or_default() += c.dur_ns;
        }
    }
    trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            s.dur_ns.saturating_sub(children) as f64 / 1e6
        })
        .sum()
}
