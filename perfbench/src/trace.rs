//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each crate in a span: name,
//! layer (the crate), start, end, parent span and operation id. Spans
//! stay in memory and are turned into per-layer numbers and a
//! Chrome-trace file when the run ends. Recording is off unless
//! [`set_enabled`] turned it on, so untraced cycles pay one atomic load
//! per span site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Layer name of the benchmark's own root spans (one per cycle or job).
/// Root spans are not a layer of the program: coverage is measured
/// against them.
pub const ROOT: &str = "bench";

/// One closed span. Times are nanoseconds since the process-wide epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turn recording on or off for spans opened from now on (all threads).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Guard of an open span; the span closes when it drops.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<Open>);

struct Open {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: &'static str,
    op: u64,
    start: Instant,
}

/// Open a span on this thread. Its parent is the innermost span this
/// thread has open.
pub fn span(layer: &'static str, name: &'static str, op: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard(Some(Open {
        id,
        parent,
        layer,
        name,
        op,
        start: Instant::now(),
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(o) = self.0.take() {
            let end = Instant::now();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&id| id == o.id) {
                    s.truncate(pos);
                }
            });
            push(Span {
                id: o.id,
                parent: o.parent,
                layer: o.layer,
                name: o.name,
                op: o.op,
                tid: TID.with(|t| *t),
                start_ns: ns(o.start),
                end_ns: ns(end),
            });
        }
    }
}

/// A fresh span id, for a span recorded later with [`record`] whose
/// children are recorded first.
pub fn reserve() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Record a span whose bounds were measured elsewhere (for example a
/// serve job's queue wait, reported by the plane), under an id from
/// [`reserve`]. Records nothing while recording is off.
pub fn record(
    id: u64,
    layer: &'static str,
    name: &'static str,
    op: u64,
    parent: Option<u64>,
    start: Instant,
    end: Instant,
) {
    if !enabled() {
        return;
    }
    push(Span {
        id,
        parent,
        layer,
        name,
        op,
        tid: TID.with(|t| *t),
        start_ns: ns(start),
        end_ns: ns(end),
    });
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(span);
}

/// Take every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span analysis of a recorded trace.
pub struct Analysis {
    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover. Same order as the input.
    pub self_ns: Vec<u64>,
    /// Total duration of the root spans.
    pub root_ns: u64,
    /// Time inside root spans covered by their children.
    pub covered_ns: u64,
}

pub fn analyze(spans: &[Span]) -> Analysis {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut root_ns = 0;
    let mut covered_ns = 0;
    let self_ns = spans
        .iter()
        .map(|s| {
            let c = children
                .get(&s.id)
                .map_or(0, |iv| covered(iv.clone(), s.start_ns, s.end_ns));
            if s.layer == ROOT {
                root_ns += s.dur_ns();
                covered_ns += c;
            }
            s.dur_ns() - c
        })
        .collect();
    Analysis {
        self_ns,
        root_ns,
        covered_ns,
    }
}

/// Durations in microseconds of the spans named `layer`.`name`.
pub fn durations_us(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Chrome-trace JSON ("X" complete events; one track per thread).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.layer,
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent.unwrap_or(0),
            s.op
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "x",
            op: 0,
            tid: 1,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0,100]; children [10,30] and [20,50] overlap (union 40)
        // and [60,70]; a grandchild [62,66] belongs to its own parent.
        let spans = vec![
            sp(1, None, ROOT, 0, 100),
            sp(2, Some(1), "odin", 10, 30),
            sp(3, Some(1), "odin", 20, 50),
            sp(4, Some(1), "seamless", 60, 70),
            sp(5, Some(4), "comm", 62, 66),
        ];
        let a = analyze(&spans);
        assert_eq!(a.self_ns, vec![50, 20, 30, 6, 4]);
        assert_eq!(a.root_ns, 100);
        assert_eq!(a.covered_ns, 50);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![sp(1, None, ROOT, 10, 20), sp(2, Some(1), "odin", 0, 15)];
        let a = analyze(&spans);
        assert_eq!(a.self_ns[0], 5);
        assert_eq!(a.covered_ns, 5);
    }

    #[test]
    fn guards_nest_and_export_validates() {
        // The store is process-wide: this is the only test that records.
        set_enabled(true);
        {
            let _root = span(ROOT, "cycle", 7);
            let _child = span("odin", "sum", 7);
        }
        set_enabled(false);
        {
            let _ignored = span("odin", "sum", 8);
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        obs::json::validate(&chrome_json(&spans)).expect("chrome trace is valid JSON");
    }
}
