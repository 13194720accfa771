//! The four workloads and what they share.

use crate::report::{Report, LAYERS};
use crate::trace::{self, Span};
use std::collections::HashMap;

mod bulk;
mod dispatch;
mod serve;
mod solve;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["dispatch", "bulk", "solve", "serve"];

/// Problem sizes: `Full` is the benchmark; `Tiny` is the smoke-test
/// scale of the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
}

/// Run one workload by name.
pub fn run(name: &str, p: &Params) -> Result<Report, String> {
    trace::set_enabled(false);
    drop(trace::take());
    let mut report = match name {
        "dispatch" => dispatch::run(p),
        "bulk" => bulk::run(p),
        "solve" => solve::run(p),
        "serve" => serve::run(p),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    };
    trace::set_enabled(false);
    report.notes.insert(
        0,
        format!(
            "host {} bulk_array={} f64 ({} MiB)",
            crate::host::note(),
            bulk::N_FULL,
            (bulk::N_FULL * 8) >> 20
        ),
    );
    report.notes.insert(
        1,
        format!(
            "workload {name} seed {} seconds {} trace {}",
            p.seed, p.seconds, p.trace
        ),
    );
    report.set("peak_rss_mb", crate::host::peak_rss_mb());
    Ok(report)
}

/// Wall times of the measured cycles of a closed loop, split by whether
/// the cycle was traced. A traced run alternates traced and untraced
/// cycles so both halves see the same warm state; an untraced run
/// traces nothing.
#[derive(Default)]
pub struct Cycles {
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl Cycles {
    /// Room for `n` cycles of each kind, written once up front so the
    /// benchmark's own memory does not grow with the cycle count (it
    /// would show in `peak_rss_mb`).
    pub fn with_capacity(n: usize) -> Self {
        let touched = || {
            let mut v = Vec::with_capacity(n);
            v.resize(n, 1.0);
            v.clear();
            v
        };
        Cycles {
            untraced_s: touched(),
            traced_s: touched(),
        }
    }

    /// Closed-loop throughput at the median cycle: `per_cycle` units of
    /// work over the median untraced cycle time.
    pub fn rate(&self, per_cycle: f64) -> f64 {
        let m = crate::stats::median(&self.untraced_s);
        if m > 0.0 {
            per_cycle / m
        } else {
            0.0
        }
    }

    /// Should cycle `i` of a run in mode `trace` be traced?
    pub fn traced(trace: bool, i: u64) -> bool {
        trace && i % 2 == 1
    }

    pub fn push(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
        }
    }

    /// `(traced - untraced) / untraced` on the median cycle.
    pub fn overhead(&self) -> f64 {
        let u = crate::stats::median(&self.untraced_s);
        let t = crate::stats::median(&self.traced_s);
        if u > 0.0 {
            (t - u) / u
        } else {
            0.0
        }
    }
}

/// Per-layer self-time shares and root coverage from the recorded
/// spans, plus the Chrome-trace file. Returns the spans for the
/// workload's own per-layer medians.
pub fn finish_trace(name: &str, report: &mut Report) -> Vec<Span> {
    trace::set_enabled(false);
    let spans = trace::take();
    let a = trace::analyze(&spans);
    let root = a.root_ns.max(1) as f64;
    // Shares of the root spans' time: only spans inside a root count.
    let parent: HashMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let layer_of: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.layer)).collect();
    let in_root = |mut id: u64| loop {
        match parent.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return layer_of.get(&id) == Some(&trace::ROOT),
        }
    };
    for &layer in LAYERS {
        let self_ns: u64 = spans
            .iter()
            .zip(&a.self_ns)
            .filter(|(s, _)| s.layer == layer && in_root(s.id))
            .map(|(_, &n)| n)
            .sum();
        report.set(self_frac_key(layer), self_ns as f64 / root);
    }
    report.set("obs.span_coverage", a.covered_ns as f64 / root);
    let json = trace::chrome_json(&spans);
    match obs::json::validate(&json) {
        Ok(()) => {
            let dir = out_dir();
            let path = format!("{dir}/trace-{name}.json");
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json));
            match written {
                Ok(()) => report
                    .notes
                    .push(format!("trace {} spans written to {path}", spans.len())),
                Err(e) => report
                    .notes
                    .push(format!("trace not written to {path}: {e}")),
            }
        }
        Err(e) => report.mismatch(format!("chrome trace does not validate: {e}")),
    }
    spans
}

fn self_frac_key(layer: &str) -> &'static str {
    match layer {
        "odin" => "odin.self_frac",
        "seamless" => "seamless.self_frac",
        "comm" => "comm.self_frac",
        "dmap" => "dmap.self_frac",
        "dlinalg" => "dlinalg.self_frac",
        "solvers" => "solvers.self_frac",
        "serve" => "serve.self_frac",
        other => unreachable!("no self_frac metric for layer {other}"),
    }
}

/// Where the benchmark writes its files: `out/` inside its own
/// directory of the checkout.
pub fn out_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/out").to_string()
}
