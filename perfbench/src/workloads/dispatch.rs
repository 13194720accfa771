//! `dispatch`: closed loop, one client (the ODIN master), 2 workers,
//! arrays of 4 to 64 elements. Every operation is bound by the
//! master-worker round trip; the kernel bodies are almost free.
//!
//! One cycle is four observation operations: the `sum` of a 4-element
//! array, an eager `a*2+a` on 64 elements then its `sum`, `to_vec` of 64
//! elements, and a 3-statement traced program whose `TracedScalar`
//! feeds a later statement.
//!
//! Inputs are multiples of 1/8 in [-8, 8] and the program coefficient is
//! a small integer, so every sum is exact in any order and must equal
//! the serially computed value bit for bit.

use super::{finish_trace, Cycles, Params};
use crate::report::Report;
use crate::stats::{median, windowed_tail, WINDOW};
use crate::trace::{self, ROOT};
use obs::SplitMix64;
use odin::{ContextStats, Dist, DistArray, OdinConfig, OdinContext, PExpr};
use std::time::Instant;

const WORKERS: usize = 2;
/// Set-ups per run; the median is `setup_s`.
const SETUP_REPS: usize = 9;
const OPS_PER_CYCLE: u64 = 4;
/// Elements each cycle touches: the 4-element sum; `a*2`, `+a` and the
/// sum over 64; the 64-element fetch; three 64-element statements.
const ELEMS_PER_CYCLE: f64 = (4 + 3 * 64 + 64 + 3 * 64) as f64;
/// More cycles per second than the host can run; sizes the sample buffer.
const MAX_CYCLES_PER_S: f64 = 20_000.0;
/// Latency limit of one operation for `slo_attainment`.
const SLO_OP_S: f64 = 1e-3;

/// Seeded inputs. `k[rep]` is the program coefficient of set-up `rep`;
/// each set-up gets its own, so each builds its own kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub a4: Vec<f64>,
    pub a64: Vec<f64>,
    pub b64: Vec<f64>,
    pub k: Vec<f64>,
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xd15_7a7c);
    let mut eighths = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| (rng.gen_index(129) as f64 - 64.0) / 8.0)
            .collect()
    };
    let (a4, a64, b64) = (eighths(4), eighths(64), eighths(64));
    let base = rng.gen_index(16);
    let k = (0..SETUP_REPS)
        .map(|rep| (2 + (base + rep) % 16) as f64)
        .collect();
    Inputs { a4, a64, b64, k }
}

/// The serially computed results of one cycle.
struct Expected {
    sum4: f64,
    eager_sum: f64,
    program: f64,
}

fn expected(inp: &Inputs, k: f64) -> Expected {
    let t1: Vec<f64> = inp
        .a64
        .iter()
        .zip(&inp.b64)
        .map(|(a, b)| a * k + b)
        .collect();
    let s1: f64 = t1.iter().map(|t| t * t).sum();
    Expected {
        sum4: inp.a4.iter().sum(),
        eager_sum: inp.a64.iter().map(|a| a * 2.0 + a).sum(),
        program: t1.iter().zip(&inp.a64).map(|(t, a)| t * s1 + a).sum(),
    }
}

struct Arrays<'c> {
    a4: DistArray<'c>,
    a64: DistArray<'c>,
    b64: DistArray<'c>,
}

/// `t1 = a*k + b; s1 = sum(t1*t1); s2 = sum(t1*s1 + a)`, read `s2`.
fn program(ctx: &OdinContext, a: &DistArray<'_>, b: &DistArray<'_>, k: f64) -> f64 {
    let mut p = ctx.trace();
    let (al, bl) = (p.leaf(a), p.leaf(b));
    let t1 = p.assign(al.clone() * k + bl);
    let s1 = p.sum(PExpr::from(t1) * PExpr::from(t1));
    let s2 = p.sum(PExpr::from(t1) * PExpr::from(s1) + al);
    p.run(&[]).scalar(s2)
}

/// One cycle of four operations. Returns the per-operation wall times.
fn cycle(
    ctx: &OdinContext,
    arr: &Arrays<'_>,
    inp: &Inputs,
    k: f64,
    want: &Expected,
    op: u64,
    report: &mut Report,
) -> [f64; 4] {
    let mut t = Instant::now();
    let mut lap = || {
        let now = Instant::now();
        let d = now.duration_since(t).as_secs_f64();
        t = now;
        d
    };
    let sum4 = {
        let _s = trace::span("odin", "sum", op);
        arr.a4.sum()
    };
    let d_sum = lap();
    let eager_sum = {
        let tmp = {
            let _s = trace::span("odin", "eager_issue", op);
            &(&arr.a64 * 2.0) + &arr.a64
        };
        let _s = trace::span("odin", "eager_sum", op);
        tmp.sum()
    };
    let d_eager = lap();
    let fetched = {
        let _s = trace::span("odin", "fetch", op);
        arr.a64.to_vec()
    };
    let d_fetch = lap();
    let prog = {
        let _s = trace::span("odin", "program_run", op);
        program(ctx, &arr.a64, &arr.b64, k)
    };
    let d_prog = lap();

    report.attempted += OPS_PER_CYCLE;
    if sum4.to_bits() != want.sum4.to_bits() {
        report.mismatch(format!("cycle {op}: sum4 {sum4} != {}", want.sum4));
    }
    if eager_sum.to_bits() != want.eager_sum.to_bits() {
        report.mismatch(format!(
            "cycle {op}: eager sum {eager_sum} != {}",
            want.eager_sum
        ));
    }
    let same = fetched.len() == inp.a64.len()
        && fetched
            .iter()
            .zip(&inp.a64)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if !same {
        report.mismatch(format!("cycle {op}: to_vec differs from the input"));
    }
    if prog.to_bits() != want.program.to_bits() {
        report.mismatch(format!("cycle {op}: program {prog} != {}", want.program));
    }
    [d_sum, d_eager, d_fetch, d_prog]
}

fn delta(a: &ContextStats, b: &ContextStats) -> [f64; 3] {
    [
        (b.ctrl_msgs - a.ctrl_msgs) as f64,
        (b.ctrl_bytes - a.ctrl_bytes) as f64,
        (b.data_msgs - a.data_msgs) as f64,
    ]
}

pub fn run(p: &Params) -> Report {
    let mut report = Report::default();
    let inp = inputs(p.seed);
    let mut setup_s = Vec::new();
    let mut spawn_s = Vec::new();
    for (rep, &k) in inp.k.iter().enumerate() {
        let t0 = Instant::now();
        let ctx = OdinContext::new(OdinConfig::default().with_n_workers(WORKERS));
        spawn_s.push(t0.elapsed().as_secs_f64());
        let arr = Arrays {
            a4: ctx.from_vec(&inp.a4, Dist::Block),
            a64: ctx.from_vec(&inp.a64, Dist::Block),
            b64: ctx.from_vec(&inp.b64, Dist::Block),
        };
        let want = expected(&inp, k);
        // The first cycle builds the program's kernel (cc and parity
        // probe on the native tier): part of set-up.
        let mut warm = Report::default();
        cycle(&ctx, &arr, &inp, k, &want, 0, &mut warm);
        setup_s.push(t0.elapsed().as_secs_f64());
        report.failed += warm.failed;
        report.notes.extend(warm.notes);
        if rep + 1 == inp.k.len() {
            measure(p, &ctx, &arr, &inp, k, &want, &mut report);
        }
    }
    report.set("setup_s", median(&setup_s));
    report.set("odin.spawn_ms", median(&spawn_s) * 1e3);
    report
}

fn measure(
    p: &Params,
    ctx: &OdinContext,
    arr: &Arrays<'_>,
    inp: &Inputs,
    k: f64,
    want: &Expected,
    report: &mut Report,
) {
    let mut cycles = Cycles::with_capacity((p.seconds * MAX_CYCLES_PER_S) as usize);
    let mut within_slo = 0u64;
    // Message counts repeat exactly from cycle to cycle; a sample of
    // them is enough.
    let mut per_op = [Vec::new(), Vec::new(), Vec::new()];
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < p.seconds || i < 2 {
        let traced = Cycles::traced(p.trace, i);
        trace::set_enabled(traced);
        let before = ctx.stats();
        let t = Instant::now();
        let ops = {
            let _root = trace::span(ROOT, "cycle", i);
            cycle(ctx, arr, inp, k, want, i + 1, report)
        };
        let secs = t.elapsed().as_secs_f64();
        let d = delta(&before, &ctx.stats());
        trace::set_enabled(false);
        cycles.push(traced, secs);
        within_slo += ops.iter().filter(|&&s| s <= SLO_OP_S).count() as u64;
        if per_op[0].len() < 1000 {
            for (acc, v) in per_op.iter_mut().zip(d) {
                acc.push(v / OPS_PER_CYCLE as f64);
            }
        }
        i += 1;
    }
    let lat = &cycles.untraced_s;
    report.set("latency_p50_us", median(lat) * 1e6);
    let (tail_s, pct) = windowed_tail(lat, WINDOW);
    report.set("latency_tail_us", tail_s * 1e6);
    report.notes.push(format!(
        "latency per cycle of {OPS_PER_CYCLE} operations: {} untraced cycles; tail is the \
         median over windows of {WINDOW} cycles of p{pct:.3}",
        lat.len()
    ));
    report.set("ops_per_s", cycles.rate(OPS_PER_CYCLE as f64));
    report.set("elems_per_s", cycles.rate(ELEMS_PER_CYCLE));
    report.set(
        "slo_attainment",
        within_slo as f64 / report.attempted.max(1) as f64,
    );
    report.set("odin.ctrl_msgs_per_op", median(&per_op[0]));
    report.set("odin.ctrl_bytes_per_op", median(&per_op[1]));
    report.set("odin.data_msgs_per_op", median(&per_op[2]));
    if p.trace {
        report.set("obs.trace_overhead_frac", cycles.overhead());
        let spans = finish_trace("dispatch", report);
        let med = |name| median(&trace::durations_us(&spans, "odin", name));
        report.set("odin.sum_us", med("sum"));
        report.set("odin.fetch_us", med("fetch"));
        report.set("odin.eager_issue_us", med("eager_issue"));
        report.set("odin.program_run_us", med("program_run"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
        let k = inputs(7).k;
        for (i, a) in k.iter().enumerate() {
            assert!(
                k[i + 1..].iter().all(|b| b != a),
                "set-up coefficients repeat"
            );
        }
    }

    #[test]
    fn expected_sums_are_order_independent() {
        let inp = inputs(3);
        let want = expected(&inp, inp.k[0]);
        let rev: f64 = inp.a64.iter().rev().map(|a| a * 2.0 + a).sum();
        assert_eq!(rev.to_bits(), want.eager_sum.to_bits());
    }
}
