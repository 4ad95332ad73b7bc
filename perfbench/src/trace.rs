//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records name, start, end, parent span and op id. Spans are
//! kept in memory while tracing is on and written out at exit as Chrome
//! Trace Event JSON (viewable offline in Perfetto or `about:tracing`).
//! With tracing off, [`span`] is one relaxed atomic load and a call.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One finished span. Times are nanoseconds since [`epoch`].
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span on the same thread; 0 for a root.
    pub parent: u64,
    /// Op the span ran in; 0 outside any op (set-up, isolation probes).
    pub op: u64,
    pub name: &'static str,
    pub tid: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// The process-wide time origin of all spans.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Records a span named `name` around `f` when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let _guard = Open::new(name);
    f()
}

/// Runs `f` as op `op` (1-based), so spans opened inside carry its id.
pub fn in_op<R>(op: u64, f: impl FnOnce() -> R) -> R {
    let prev = OP.with(|c| c.replace(op));
    let r = span("par.op", f);
    OP.with(|c| c.set(prev));
    r
}

/// An open span; closing it (also while unwinding) records it.
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
}

impl Open {
    fn new(name: &'static str) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Open {
            id,
            parent,
            name,
            start: now_ns(),
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end = now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: OP.with(Cell::get),
            name: self.name,
            tid: TID.with(|t| *t),
            start: self.start,
            end,
        };
        // A poisoned lock only means another span's push panicked; the
        // vector itself is always valid.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span, in `spans` order: its duration minus the
/// part of its interval that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.end - s.start - covered) as f64 * 1e-9
        })
        .collect()
}

/// Chrome Trace Event JSON of `spans`: complete ("X") events in
/// microseconds, with op id, parent and self time in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (k, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"self_us\":{:.3}}}}}{}\n",
            s.name,
            layer,
            s.tid,
            s.start as f64 * 1e-3,
            (s.end - s.start) as f64 * 1e-3,
            s.id,
            s.parent,
            s.op,
            self_s * 1e6,
            if k + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "x",
            tid: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 20, 40),
            sp(4, 1, 60, 70),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 60e-9).abs() < 1e-15);
        assert!((selfs[1] - 20e-9).abs() < 1e-15);
    }
}
