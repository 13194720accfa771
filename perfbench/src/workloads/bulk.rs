//! `bulk`: closed loop, one client, 2 workers, 4M-element f64 arrays
//! (32 MiB each, well past the per-core L2). Kernel bodies, staging and
//! redistribution dominate; dispatch is almost free.
//!
//! One cycle is seven passes: one straight-line body as `Kernel::map`
//! built with `Tier::Native`, the same body built with `Tier::Vm`,
//! `Kernel::map_reduce` (sum), the same expression through `Expr::eval`,
//! an eager ufunc chain (`sin`, `exp`, `*`, `+`), a block-to-cyclic
//! `redistribute`, and a traced stencil that consumes the cyclic array
//! with a fused reduction.
//!
//! References, computed once before the loop: `Expr::eval_rpn` of the
//! body (which the plain serial loop must match bit for bit), the serial
//! ufunc chain, and the stencil's statement-at-a-time `Expr::eval` twin.
//! Every cycle, native, VM and `Expr::eval` must equal the `eval_rpn`
//! reference, the ufunc chain and the traced stencil theirs, and the
//! `map_reduce` sum and the stencil's fused sum must match bitwise.
//! Fetching a 32 MiB array costs more than the passes themselves, so
//! each cycle checks every array exactly on the workers and fetches one
//! of them, in turn, to compare its bits.

use super::{finish_trace, Cycles, Params, Scale};
use crate::report::Report;
use crate::stats::{bit_hash, median, windowed_tail, WINDOW};
use crate::trace::{self, ROOT};
use obs::SplitMix64;
use odin::kernel::{Kernel, Tier};
use odin::lazy::Expr;
use odin::{Dist, DistArray, OdinConfig, OdinContext, PExpr, ReduceKind};
use std::time::Instant;

const WORKERS: usize = 2;
const SETUP_REPS: usize = 3;
/// Array length at full scale: 4M f64 = 32 MiB per array.
pub const N_FULL: usize = 1 << 22;
const N_TINY: usize = 4096;
const PASSES: u64 = 7;
/// Floating-point operations per element of the straight-line body.
const BODY_FLOPS: f64 = 12.0;
/// Latency limit of one pass for `slo_attainment`.
const SLO_PASS_S: f64 = 1.0;

/// Seeded inputs: the two operand arrays and, per set-up, the five body
/// coefficients (distinct per set-up, so each builds its own kernels).
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    pub coeffs: Vec<[f64; 5]>,
}

pub fn inputs(seed: u64, n: usize) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xb01c);
    let x = (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
    let y = (0..n).map(|_| rng.gen_range_f64(0.5, 1.5)).collect();
    let coeffs = (0..SETUP_REPS)
        .map(|_| std::array::from_fn(|_| rng.gen_range_f64(0.25, 1.75)))
        .collect();
    Inputs { x, y, coeffs }
}

/// The body as kernel source. `{:?}` prints each coefficient so it
/// parses back to the same f64.
fn source(c: &[f64; 5]) -> String {
    format!(
        "def body(x, y):\n    return (x * {:?} + y) * (x - y * {:?}) + (x * y + {:?}) * {:?} - x * x * {:?}\n",
        c[0], c[1], c[2], c[3], c[4]
    )
}

/// The same body, serially.
fn body(x: f64, y: f64, c: &[f64; 5]) -> f64 {
    (x * c[0] + y) * (x - y * c[1]) + (x * y + c[2]) * c[3] - x * x * c[4]
}

/// The same body as a lazy expression.
fn expr<'x, 'c>(x: &'x DistArray<'c>, y: &'x DistArray<'c>, c: &[f64; 5]) -> Expr<'x, 'c> {
    let (xl, yl) = (|| Expr::leaf(x), || Expr::leaf(y));
    (xl() * c[0] + yl()) * (xl() - yl() * c[1]) + (xl() * yl() + c[2]) * c[3] - xl() * xl() * c[4]
}

/// Traced stencil: `lap = 2x - y`, `upd = x + (lap*cy + x*cy) * c4`,
/// `sum(lap*lap)`, where `cy` is cyclic and the rest block.
fn stencil<'c>(
    ctx: &'c OdinContext,
    x: &DistArray<'c>,
    y: &DistArray<'c>,
    cy: &DistArray<'c>,
    c4: f64,
) -> (DistArray<'c>, f64, odin::ProgramStats) {
    let mut p = ctx.trace();
    let (xl, yl, cl) = (p.leaf(x), p.leaf(y), p.leaf(cy));
    let lap = p.assign(xl.clone() * 2.0 - yl);
    let upd = p.assign(xl.clone() + (PExpr::from(lap) * cl.clone() + xl * cl) * c4);
    let s = p.sum(PExpr::from(lap) * PExpr::from(lap));
    let mut run = p.run(&[upd]);
    let stats = run.stats();
    let out = run.array(upd);
    (out, run.scalar(s), stats)
}

/// The stencil statement at a time, through `Expr::eval`.
fn stencil_eager<'c>(
    x: &DistArray<'c>,
    y: &DistArray<'c>,
    cy: &DistArray<'c>,
    c4: f64,
) -> (DistArray<'c>, f64) {
    let lap = (Expr::leaf(x) * 2.0 - Expr::leaf(y)).eval();
    let upd = (Expr::leaf(x)
        + (Expr::leaf(&lap) * Expr::leaf(cy) + Expr::leaf(x) * Expr::leaf(cy)) * c4)
        .eval();
    let s = (Expr::leaf(&lap) * Expr::leaf(&lap)).sum();
    (upd, s)
}

struct Kernels<'c> {
    native: Kernel<'c>,
    vm: Kernel<'c>,
}

/// What every cycle's outputs must equal: reference arrays kept on the
/// workers, with their bitwise fingerprints, and reference scalars.
struct Expected<'c> {
    body: (DistArray<'c>, u64),
    map_sum: u64,
    ufunc: (DistArray<'c>, u64),
    stencil: (DistArray<'c>, u64),
    stencil_sum: u64,
}

/// Exact equality of two arrays' values, reduced on the workers:
/// `max |a - r| == 0`. Bitwise for these bodies, which produce neither
/// NaN nor signed zeros from the seeded inputs; the rotating fetch in
/// the cycle checks the bits themselves.
fn same_values(a: &DistArray<'_>, r: &DistArray<'_>) -> bool {
    (Expr::leaf(a) - Expr::leaf(r)).abs().max() == 0.0
}

fn hash_of(a: &DistArray<'_>) -> u64 {
    bit_hash(&a.to_vec())
}

pub fn run(p: &Params) -> Report {
    let n = match p.scale {
        Scale::Full => N_FULL,
        Scale::Tiny => N_TINY,
    };
    let mut report = Report::default();
    let inp = inputs(p.seed, n);
    report.notes.push(format!(
        "bulk arrays: {n} f64 = {} MiB each, {WORKERS} workers",
        n * 8 / (1 << 20)
    ));
    let (mut setup_s, mut spawn_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    for (rep, c) in inp.coeffs.iter().enumerate() {
        let t0 = Instant::now();
        let ctx = OdinContext::new(OdinConfig::default().with_n_workers(WORKERS));
        spawn_s.push(t0.elapsed().as_secs_f64());
        let x = ctx.from_vec(&inp.x, Dist::Block);
        let y = ctx.from_vec(&inp.y, Dist::Block);
        let tb = Instant::now();
        let build = |tier| ctx.kernel(&source(c), "body").tier(tier).build();
        let native = build(Tier::Native).expect("body kernel compiles");
        build_s.push(tb.elapsed().as_secs_f64());
        let vm = build(Tier::Vm).expect("body kernel compiles");
        // Build the lowered expression and the stencil's fused group
        // too (same kernels at any length), on short arrays.
        let (xs, ys) = (
            ctx.from_vec(&inp.x[..64], Dist::Block),
            ctx.from_vec(&inp.y[..64], Dist::Block),
        );
        drop(expr(&xs, &ys, c).eval());
        let cys = ys.redistribute(Dist::Cyclic);
        drop(stencil(&ctx, &xs, &ys, &cys, c[4]));
        ctx.barrier();
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 == inp.coeffs.len() {
            report.notes.push(format!(
                "kernel tiers: native build armed {:?}, vm build armed {:?}",
                native.tier(),
                vm.tier()
            ));
            let k = Kernels { native, vm };
            measure(p, &ctx, &x, &y, &k, c, &inp, &mut report);
        }
    }
    report.set("setup_s", median(&setup_s));
    report.set("odin.spawn_ms", median(&spawn_s) * 1e3);
    report.set("seamless.build_ms", median(&build_s) * 1e3);
    // Computed from array sizes (two f64 inputs and one output per
    // element), not measured: no roofline ratio, since 4x the L3 would
    // need arrays of over a gigabyte.
    report.set("seamless.computed_bytes_per_pass", (3 * 8 * n) as f64);
    report.set("seamless.ops_per_byte", BODY_FLOPS / 24.0);
    report.notes.push(format!(
        "body pass: {} bytes and {BODY_FLOPS} flops per element, computed from array sizes",
        3 * 8
    ));
    report
}

fn expected<'c>(
    ctx: &'c OdinContext,
    x: &DistArray<'c>,
    y: &DistArray<'c>,
    k: &Kernels<'c>,
    c: &[f64; 5],
    inp: &Inputs,
    report: &mut Report,
) -> Expected<'c> {
    let rpn = expr(x, y, c).eval_rpn();
    let serial: Vec<f64> = inp
        .x
        .iter()
        .zip(&inp.y)
        .map(|(&a, &b)| body(a, b, c))
        .collect();
    let body_hash = hash_of(&rpn);
    report.attempted += 1;
    if bit_hash(&serial) != body_hash {
        report.mismatch("serial body differs from Expr::eval_rpn".into());
    }
    let ufunc: Vec<f64> = inp
        .x
        .iter()
        .zip(&inp.y)
        .map(|(&a, &b)| a.sin().exp() * b + a)
        .collect();
    let cy = y.redistribute(Dist::Cyclic);
    let (upd, s) = stencil_eager(x, y, &cy, c[4]);
    let upd_hash = hash_of(&upd);
    let want = Expected {
        map_sum: k.native.map(&[x, y]).sum().to_bits(),
        ufunc: (ctx.from_vec(&ufunc, Dist::Block), bit_hash(&ufunc)),
        body: (rpn, body_hash),
        stencil: (upd, upd_hash),
        stencil_sum: s.to_bits(),
    };
    ctx.barrier();
    want
}

#[allow(clippy::too_many_arguments)]
fn measure<'c>(
    p: &Params,
    ctx: &'c OdinContext,
    x: &DistArray<'c>,
    y: &DistArray<'c>,
    k: &Kernels<'c>,
    c: &[f64; 5],
    inp: &Inputs,
    report: &mut Report,
) {
    let n = inp.x.len() as f64;
    let want = expected(ctx, x, y, k, c, inp, report);
    let mut cycles = Cycles::default();
    let mut elems = Vec::new();
    let mut within_slo = 0u64;
    let mut launches = 0u64;
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < p.seconds || i < 2 {
        let traced = Cycles::traced(p.trace, i);
        trace::set_enabled(traced);
        let mut passes = Vec::with_capacity(PASSES as usize);
        let t = Instant::now();
        let root = trace::span(ROOT, "cycle", i);
        let mut pass = |layer, name, f: &mut dyn FnMut()| {
            let t = Instant::now();
            let _s = trace::span(layer, name, i);
            f();
            passes.push(t.elapsed().as_secs_f64());
        };
        let (mut o_native, mut o_vm, mut o_expr, mut o_ufunc, mut cy) =
            (None, None, None, None, None);
        let mut map_sum = 0.0;
        let mut sten = None;
        pass("seamless", "native_map", &mut || {
            o_native = Some(k.native.map(&[x, y]));
            ctx.barrier();
        });
        pass("seamless", "vm_map", &mut || {
            o_vm = Some(k.vm.map(&[x, y]));
            ctx.barrier();
        });
        pass("seamless", "map_reduce", &mut || {
            map_sum = k.native.map_reduce(&[x, y], ReduceKind::Sum);
        });
        pass("seamless", "expr_eval", &mut || {
            o_expr = Some(expr(x, y, c).eval());
            ctx.barrier();
        });
        pass("odin", "ufunc", &mut || {
            o_ufunc = Some(&(&x.sin().exp() * y) + x);
            ctx.barrier();
        });
        pass("odin", "redistribute", &mut || {
            cy = Some(y.redistribute(Dist::Cyclic));
            ctx.barrier();
        });
        let cy = cy.expect("redistribute pass ran");
        pass("odin", "program_run", &mut || {
            sten = Some(stencil(ctx, x, y, &cy, c[4]));
            ctx.barrier();
        });
        drop(root);
        let secs = t.elapsed().as_secs_f64();
        trace::set_enabled(false);
        cycles.push(traced, secs);
        within_slo += passes.iter().filter(|&&s| s <= SLO_PASS_S).count() as u64;

        let (upd, s, stats) = sten.expect("stencil pass ran");
        launches = stats.kernel_launches;
        elems.push(
            n * (4.0 + 4.0 + 1.0 + (stats.kernel_launches + stats.redistributes_issued) as f64),
        );
        report.attempted += PASSES;
        let arrays = [
            ("native map", o_native.as_ref(), &want.body),
            ("vm map", o_vm.as_ref(), &want.body),
            ("Expr::eval", o_expr.as_ref(), &want.body),
            ("ufunc chain", o_ufunc.as_ref(), &want.ufunc),
            ("traced stencil", Some(&upd), &want.stencil),
        ];
        // Every array output is checked exactly on the workers; one of
        // them, in turn, is fetched and checked bit for bit.
        for (j, (what, out, (r, r_hash))) in arrays.into_iter().enumerate() {
            let out = out.expect("pass ran");
            let bitwise_ok = j as u64 != i % 5 || hash_of(out) == *r_hash;
            if !bitwise_ok || !same_values(out, r) {
                report.mismatch(format!("cycle {i}: {what} differs from its reference"));
            }
        }
        for (what, got, want) in [
            ("map_reduce sum", map_sum.to_bits(), want.map_sum),
            ("traced stencil sum", s.to_bits(), want.stencil_sum),
        ] {
            if got != want {
                report.mismatch(format!("cycle {i}: {what} differs bitwise"));
            }
        }
        i += 1;
    }
    let lat = &cycles.untraced_s;
    let (tail_s, pct) = windowed_tail(lat, WINDOW);
    report.set("latency_p50_us", median(lat) * 1e6);
    report.set("latency_tail_us", tail_s * 1e6);
    report.notes.push(format!(
        "latency per cycle of {PASSES} passes: {} untraced cycles, tail is p{pct:.3}",
        lat.len()
    ));
    report.set("ops_per_s", cycles.rate(PASSES as f64));
    report.set("elems_per_s", cycles.rate(median(&elems)));
    report.set("slo_attainment", within_slo as f64 / (PASSES * i) as f64);
    report.set("odin.launches", launches as f64);
    if p.trace {
        report.set("obs.trace_overhead_frac", cycles.overhead());
        let mut serial_s = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let out: Vec<f64> = inp
                .x
                .iter()
                .zip(&inp.y)
                .map(|(&a, &b)| body(a, b, c))
                .collect();
            serial_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        report.set("seamless.serial_pass_ms", median(&serial_s) * 1e3);
        let spans = finish_trace("bulk", report);
        let med = |layer, name| median(&trace::durations_us(&spans, layer, name)) / 1e3;
        report.set("seamless.native_map_ms", med("seamless", "native_map"));
        report.set("seamless.vm_map_ms", med("seamless", "vm_map"));
        report.set("seamless.map_reduce_ms", med("seamless", "map_reduce"));
        report.set("seamless.expr_eval_ms", med("seamless", "expr_eval"));
        report.set("odin.ufunc_ms", med("odin", "ufunc"));
        report.set("odin.redistribute_ms", med("odin", "redistribute"));
        report.set("odin.program_run_ms", med("odin", "program_run"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(inputs(5, 256), inputs(5, 256));
        assert_ne!(inputs(5, 256), inputs(6, 256));
    }

    #[test]
    fn source_round_trips_coefficients() {
        let c = inputs(1, 1).coeffs[0];
        let src = source(&c);
        for v in c {
            assert!(src.contains(&format!("{v:?}")));
            assert_eq!(
                format!("{v:?}").parse::<f64>().unwrap().to_bits(),
                v.to_bits()
            );
        }
    }
}
