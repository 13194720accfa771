//! `solve`: SPMD on 2 `comm` ranks, no ODIN master. The operator is
//! `galeri::laplace_2d` on a 256x256 grid, the right-hand side a seeded
//! `galeri::workloads::random_vector`. One cycle runs `cg` to rtol 1e-8
//! with `JacobiPrecond` (many cheap, collective-bound iterations) and
//! then with `AmgPreconditioner` (few compute-heavy ones after a
//! set-up): the same layers used two ways.
//!
//! Check: rank 0 gathers `A`, `b` and each solution and recomputes
//! `||b - Ax|| / ||b||` serially; it must be at most 1e-8.

use super::{finish_trace, Cycles, Params, Scale};
use crate::report::Report;
use crate::stats::{median, windowed_tail, WINDOW};
use crate::trace::{self, ROOT};
use comm::{Comm, Universe, UniverseConfig};
use dlinalg::{CsrMatrix, DistVector};
use solvers::amg::AmgConfig;
use solvers::{cg, AmgPreconditioner, JacobiPrecond, KrylovConfig, Preconditioner};
use std::time::Instant;

const RANKS: usize = 2;
const GRID_FULL: usize = 256;
const GRID_TINY: usize = 16;
const SETUP_REPS: usize = 3;
const RTOL: f64 = 1e-8;
const MAX_ITER: usize = 5000;
const SOLVES_PER_CYCLE: u64 = 2;
/// Latency limit of one solve for `slo_attainment`.
const SLO_SOLVE_S: f64 = 5.0;

/// Times each application of the preconditioner `cg` receives.
struct TimedPrecond<'a> {
    inner: &'a dyn Preconditioner<f64>,
    op: u64,
}

impl Preconditioner<f64> for TimedPrecond<'_> {
    fn apply(&self, comm: &Comm, r: &DistVector<f64>) -> DistVector<f64> {
        let _s = trace::span("solvers", "precond_apply", self.op);
        self.inner.apply(comm, r)
    }
    fn apply_into(&self, comm: &Comm, r: &DistVector<f64>, z: &mut DistVector<f64>) {
        let _s = trace::span("solvers", "precond_apply", self.op);
        self.inner.apply_into(comm, r, z);
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `||b - Ax|| / ||b||` from globally gathered rows.
fn relative_residual(rows: &[Vec<(usize, f64)>], b: &[f64], x: &[f64]) -> f64 {
    let (mut rr, mut bb) = (0.0, 0.0);
    for (g, row) in rows.iter().enumerate() {
        let ax: f64 = row.iter().map(|&(c, v)| v * x[c]).sum();
        rr += (b[g] - ax) * (b[g] - ax);
        bb += b[g] * b[g];
    }
    (rr / bb).sqrt()
}

/// What each rank measured.
#[derive(Default)]
struct RankOut {
    setup_s: Vec<f64>,
    amg_setup_s: Vec<f64>,
    cycles: Cycles,
    /// Per cycle: Jacobi and AMG iterations.
    iters: Vec<(usize, usize)>,
    /// Per cycle: messages and bytes sent inside the two solves.
    sent: Vec<(u64, u64)>,
    /// Per cycle: modeled (virtual-clock) time of the two solves.
    modeled_s: Vec<f64>,
    plan: (u64, u64),
    within_slo: u64,
    attempted: u64,
    mismatches: Vec<String>,
}

struct Problem {
    a: CsrMatrix<f64>,
    b: DistVector<f64>,
    jacobi: JacobiPrecond<f64>,
    amg: AmgPreconditioner,
}

fn setup(comm: &Comm, grid: usize, seed: u64, out: &mut RankOut) -> Problem {
    comm.barrier();
    let t0 = Instant::now();
    let a = galeri::laplace_2d(comm, grid, grid);
    let b = galeri::workloads::random_vector(comm, grid * grid, seed);
    let jacobi = JacobiPrecond::new(&a);
    let ta = Instant::now();
    let amg = AmgPreconditioner::new(comm, &a, AmgConfig::default());
    out.amg_setup_s.push(ta.elapsed().as_secs_f64());
    comm.barrier();
    out.setup_s.push(t0.elapsed().as_secs_f64());
    Problem { a, b, jacobi, amg }
}

fn solve(
    comm: &Comm,
    pb: &Problem,
    m: &dyn Preconditioner<f64>,
    op: u64,
) -> (DistVector<f64>, usize, bool) {
    let cfg = KrylovConfig::default()
        .with_rtol(RTOL)
        .with_max_iter(MAX_ITER);
    let mut x = DistVector::zeros(pb.a.domain_map().clone());
    let st = cg(
        comm,
        &pb.a,
        &pb.b,
        &mut x,
        &TimedPrecond { inner: m, op },
        &cfg,
    );
    (x, st.iterations, st.converged)
}

fn rank_main(comm: &Comm, p: &Params, grid: usize) -> RankOut {
    let mut out = RankOut::default();
    let stats0 = comm.stats();
    let mut pb = setup(comm, grid, p.seed, &mut out);
    for _ in 1..SETUP_REPS {
        pb = setup(comm, grid, p.seed, &mut out);
    }
    let rows = pb.a.gather_to_root(comm);
    let b_glob = pb.b.gather_global(comm);
    let root = comm.rank() == 0;
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let go = (start.elapsed().as_secs_f64() < p.seconds || i < 2) as u64;
        if comm.bcast(0, root.then_some(go)) == 0 {
            break;
        }
        let traced = Cycles::traced(p.trace, i);
        if root {
            trace::set_enabled(traced);
        }
        comm.barrier();
        let (s0, v0) = (comm.stats(), comm.virtual_time());
        let t = Instant::now();
        let cyc = trace::span(ROOT, "cycle", i);
        let mut solves = Vec::new();
        for (name, m) in [
            ("cg_jacobi", &pb.jacobi as &dyn Preconditioner<f64>),
            ("cg_amg", &pb.amg),
        ] {
            let ts = Instant::now();
            let _s = trace::span("solvers", name, i);
            solves.push(solve(comm, &pb, m, i));
            if ts.elapsed().as_secs_f64() <= SLO_SOLVE_S {
                out.within_slo += 1;
            }
        }
        drop(cyc);
        let secs = t.elapsed().as_secs_f64();
        let (s1, v1) = (comm.stats(), comm.virtual_time());
        out.cycles.push(traced, secs);
        out.sent
            .push((s1.msgs_sent - s0.msgs_sent, s1.bytes_sent - s0.bytes_sent));
        out.modeled_s.push(v1 - v0);
        out.iters.push((solves[0].1, solves[1].1));
        out.attempted += SOLVES_PER_CYCLE;
        for ((x, iters, converged), name) in solves.iter().zip(["Jacobi", "AMG"]) {
            let x = x.gather_global(comm);
            if let Some(rows) = &rows {
                let res = relative_residual(rows, &b_glob, &x);
                if !converged || res.is_nan() || res > RTOL {
                    out.mismatches.push(format!(
                        "cycle {i}: {name} CG converged={converged} after {iters} iterations, \
                         ||b-Ax||/||b|| = {res:e} > {RTOL:e}"
                    ));
                }
            }
        }
        if traced {
            // Time the solve's own operands' matvec and dot, once per
            // Jacobi iteration, outside the cycle.
            let x = &solves[0].0;
            let mut y = DistVector::zeros(pb.a.row_map().clone());
            for _ in 0..solves[0].1 {
                {
                    let _s = trace::span("dlinalg", "matvec", i);
                    pb.a.matvec_into(comm, x, &mut y);
                }
                let _s = trace::span("dlinalg", "dot", i);
                std::hint::black_box(x.dot(&y, comm));
            }
        }
        comm.barrier();
        if root {
            trace::set_enabled(false);
        }
        i += 1;
    }
    let s1 = comm.stats();
    out.plan = (
        s1.plan_hits - stats0.plan_hits,
        s1.plan_misses - stats0.plan_misses,
    );
    out
}

/// The same two solves on one rank: the single-threaded baseline.
fn serial_cg_s(seed: u64, grid: usize) -> f64 {
    Universe::run(1, |comm| {
        let mut out = RankOut::default();
        let pb = setup(comm, grid, seed, &mut out);
        let t = Instant::now();
        std::hint::black_box(solve(comm, &pb, &pb.jacobi, 0));
        std::hint::black_box(solve(comm, &pb, &pb.amg, 0));
        t.elapsed().as_secs_f64()
    })[0]
}

pub fn run(p: &Params) -> Report {
    let grid = match p.scale {
        Scale::Full => GRID_FULL,
        Scale::Tiny => GRID_TINY,
    };
    let mut report = Report::default();
    report.notes.push(format!(
        "solve: laplace_2d {grid}x{grid} ({} unknowns) on {RANKS} ranks, CG rtol {RTOL:e}",
        grid * grid
    ));
    let run = Universe::run_report(UniverseConfig::default(), RANKS, |comm| {
        rank_main(comm, p, grid)
    });
    let mut outs = run.results;
    let rest: Vec<RankOut> = outs.drain(1..).collect();
    let r0 = outs.pop().expect("rank 0 result");
    report.attempted = r0.attempted;
    for m in &r0.mismatches {
        report.mismatch(m.clone());
    }
    let first = r0.iters.first().copied().unwrap_or_default();
    if r0.iters.iter().any(|&it| it != first) {
        report.mismatch(format!(
            "iteration counts vary across cycles: {:?}",
            r0.iters
        ));
    }
    let per_cycle_iters = (first.0 + first.1) as f64;
    let lat = &r0.cycles.untraced_s;
    let (tail_s, pct) = windowed_tail(lat, WINDOW);
    report.set("setup_s", median(&r0.setup_s));
    report.set("latency_p50_us", median(lat) * 1e6);
    report.set("latency_tail_us", tail_s * 1e6);
    report.notes.push(format!(
        "latency per cycle (one Jacobi and one AMG solve = time to solution): \
         {} untraced cycles, tail is p{pct:.3}",
        lat.len()
    ));
    report.set("ops_per_s", r0.cycles.rate(SOLVES_PER_CYCLE as f64));
    report.set(
        "elems_per_s",
        r0.cycles.rate((grid * grid) as f64 * per_cycle_iters),
    );
    report.set(
        "slo_attainment",
        r0.within_slo as f64 / r0.attempted.max(1) as f64,
    );

    report.set("solvers.iterations_jacobi", first.0 as f64);
    report.set("solvers.iterations_amg", first.1 as f64);
    report.set("solvers.iterations", per_cycle_iters);
    report.set("solvers.amg_setup_ms", median(&r0.amg_setup_s) * 1e3);
    let all = std::iter::once(&r0).chain(&rest);
    let msgs: Vec<f64> = (0..r0.sent.len())
        .map(|c| all.clone().map(|r| r.sent[c].0).sum::<u64>() as f64 / per_cycle_iters)
        .collect();
    let bytes: Vec<f64> = (0..r0.sent.len())
        .map(|c| all.clone().map(|r| r.sent[c].1).sum::<u64>() as f64 / per_cycle_iters)
        .collect();
    let modeled: Vec<f64> = (0..r0.modeled_s.len())
        .map(|c| all.clone().map(|r| r.modeled_s[c]).fold(0.0, f64::max))
        .collect();
    report.set("comm.msgs_per_iter", median(&msgs));
    report.set("comm.bytes_per_iter", median(&bytes));
    report.set("comm.modeled_makespan_ms", median(&modeled) * 1e3);
    let (hits, misses) = all.fold((0, 0), |(h, m), r| (h + r.plan.0, m + r.plan.1));
    report.set(
        "dmap.plan_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.notes.push(format!(
        "dmap plan cache over the run: {hits} hits, {misses} misses; \
         modeled makespan of the whole run {:.3} s, measured {:.3} s",
        run.makespan_s, run.wall_s
    ));
    if p.trace {
        report.set("obs.trace_overhead_frac", r0.cycles.overhead());
        report.set("solvers.serial_cg_ms", serial_cg_s(p.seed, grid) * 1e3);
        let spans = finish_trace("solve", &mut report);
        report.set(
            "solvers.precond_apply_us",
            median(&trace::durations_us(&spans, "solvers", "precond_apply")),
        );
        report.set(
            "dlinalg.matvec_us",
            median(&trace::durations_us(&spans, "dlinalg", "matvec")),
        );
        report.set(
            "dlinalg.dot_us",
            median(&trace::durations_us(&spans, "dlinalg", "dot")),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The right-hand side of seed `seed`, as rank 0 sees it globally.
    fn rhs(seed: u64, grid: usize) -> Vec<f64> {
        Universe::run(RANKS, |comm| {
            galeri::workloads::random_vector(comm, grid * grid, seed).gather_global(comm)
        })
        .swap_remove(0)
    }

    #[test]
    fn same_seed_same_rhs() {
        assert_eq!(rhs(11, 8), rhs(11, 8));
        assert_ne!(rhs(11, 8), rhs(12, 8));
    }

    #[test]
    fn residual_of_an_exact_solution_is_zero() {
        let rows = vec![vec![(0, 2.0), (1, -1.0)], vec![(0, -1.0), (1, 2.0)]];
        assert_eq!(relative_residual(&rows, &[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!(relative_residual(&rows, &[1.0, 1.0], &[0.0, 0.0]) == 1.0);
    }
}
