//! `serve`: open loop at a fixed offered rate from one generator
//! thread, into one `ServePlane` with one pool of 2 workers and 4
//! weighted tenants. Jobs are a heavy-tailed mix of `Array`, `Kernel`
//! and `Solve` specs. One seeded worker kill arrives mid-run through
//! `OdinConfig::with_fault`, so the run also measures failure detection
//! and `recover`.
//!
//! Each job's latency runs from its due time, so a late generator or a
//! stalled pool shows in every job behind it. Every completed result
//! must equal `serve::reference_result(spec, workers)` bit for bit.
//!
//! Offers 40% to 50% into the run are large solves, and the kill is
//! aimed into them, so it lands inside a collective: then the peer waits
//! for the dead rank until the 2 s stall timeout before the pool can be
//! recovered. Whether the peer was already waiting depends on thread
//! timing, and in a minority of runs recovery takes milliseconds. So the
//! kill's cost is reported per layer (`serve.recovered_service_ms`,
//! `serve.max_latency_ms`, `serve.worst_window_slo`), and the end-to-end
//! median, tail and SLO attainment are medians over windows of 100
//! offers, which the burst and one recovery episode do not move.

use super::{finish_trace, Params, Scale};
use crate::report::Report;
use crate::stats::{bit_hash, median, tail, windowed_tail, windows, WINDOW};
use crate::trace::{self, ROOT};
use comm::FaultPlan;
use obs::SplitMix64;
use odin::OdinConfig;
use serve::{
    reference_result, JobOutcome, JobRequest, JobSpec, JobTicket, Priority, ServeConfig,
    ServeError, ServePlane, TenantQuota,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const SETUP_REPS: usize = 15;
const TENANTS: [&str; 4] = ["aero", "biolab", "cfd", "devrel"];
/// Offered load, jobs per second.
const RATE_FULL: f64 = 100.0;
const RATE_TINY: f64 = 20.0;
/// Latency limit of one job for `slo_attainment`.
pub const SLO_JOB: Duration = Duration::from_millis(250);
/// A job's deadline budget; generous, so the kill shows as latency.
const BUDGET: Duration = Duration::from_secs(20);
/// Detection bounds for the killed worker (as the E23 chaos runs).
const STALL: Duration = Duration::from_secs(2);
/// Victim operations (commands and messages) per job of the mixed
/// traffic, and at least per large solve, as measured on this mix. They
/// aim the kill 30% to 70% into the solve burst, so it lands inside a
/// collective whatever the seed's mix before the burst.
const MIXED_OPS: f64 = 40.0;
const SOLVE_OPS: f64 = 200.0;

/// One offered job: when it is due (from the start of the run), whose
/// it is, and what it asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Offer {
    pub due: Duration,
    pub tenant: usize,
    pub priority: Priority,
    pub spec: JobSpec,
}

/// The seeded job mix and arrival schedule, plus the kill point.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub offers: Vec<Offer>,
    pub kill_after_ops: u64,
}

/// Round a heavy-tailed draw to a multiple of 16 in `[16, cap]`, so the
/// reference results can be memoized.
fn quant(x: f64, cap: usize) -> usize {
    ((x as usize / 16).max(1) * 16).min(cap)
}

/// The job at stratum `u` in (0, 1] of its class's size distribution:
/// Pareto sizes, tail index 1.4 for arrays and kernels, 2 for solves.
fn spec(class: usize, u: f64, seed: u64) -> JobSpec {
    match class {
        0 => JobSpec::Array {
            seed,
            n: quant(48.0 * u.powf(-1.0 / 1.4), 4096),
        },
        1 => JobSpec::Kernel {
            seed,
            n: quant(48.0 * u.powf(-1.0 / 1.4), 4096),
        },
        _ => JobSpec::Solve {
            seed,
            n: quant(24.0 * u.powf(-1.0 / 2.0), 128),
        },
    }
}

/// Fisher-Yates shuffle of `0..n`.
fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_index(i + 1));
    }
    p
}

/// `n` mixed jobs, stratified: 3/5 arrays, 1/5 kernels, 1/5 solves, and
/// within each class the sizes sit at stratified quantiles of its
/// heavy-tailed distribution, in seeded order. Drawn once per window of
/// offers, so every window (and every seed) carries nearly the same
/// multiset of jobs; the seed sets their order and data.
fn mixed(rng: &mut SplitMix64, n: usize) -> Vec<JobSpec> {
    let class_of = |i: usize| match i * 5 / n.max(1) {
        0..=2 => 0,
        3 => 1,
        _ => 2,
    };
    let mut count = [0usize; 3];
    for i in 0..n {
        count[class_of(i)] += 1;
    }
    let mut strata: Vec<Vec<usize>> = count.iter().map(|&c| permutation(rng, c)).collect();
    permutation(rng, n)
        .into_iter()
        .map(|slot| {
            let class = class_of(slot);
            let k = strata[class]
                .pop()
                .expect("one stratum per job of the class");
            let u = (k as f64 + rng.next_f64().max(1e-9)) / count[class] as f64;
            spec(class, u, rng.gen_index(6) as u64)
        })
        .collect()
}

pub fn inputs(seed: u64, rate: f64, seconds: f64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let n = ((rate * seconds).round() as usize).max(1);
    let burst = burst_range(n);
    let mut specs = Vec::with_capacity(n);
    for start in (0..n).step_by(WINDOW) {
        let slots = start..(start + WINDOW).min(n);
        let mut mix = mixed(
            &mut rng,
            slots.clone().filter(|i| !burst.contains(i)).count(),
        );
        for i in slots {
            specs.push(if burst.contains(&i) {
                JobSpec::Solve {
                    seed: rng.gen_index(6) as u64,
                    n: 128,
                }
            } else {
                mix.pop()
                    .expect("one mixed job per offer outside the burst")
            });
        }
    }
    let prios = [Priority::Low, Priority::Normal, Priority::High];
    let offers = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| Offer {
            due: Duration::from_secs_f64(i as f64 / rate),
            tenant: rng.gen_index(TENANTS.len()),
            priority: prios[rng.gen_index(3)],
            spec,
        })
        .collect();
    let aim = rng.gen_range_f64(0.3, 0.7) * SOLVE_OPS * burst.len() as f64;
    let kill_after_ops = (MIXED_OPS * burst.start as f64 + aim) as u64;
    Inputs {
        offers,
        kill_after_ops,
    }
}

/// Offers 40% to 50% into the run are all large solves: the burst the
/// kill is aimed at.
fn burst_range(n: usize) -> std::ops::Range<usize> {
    let start = n * 2 / 5;
    start..start + (n / 10).max(1)
}

fn config(kill_after_ops: u64, seed: u64) -> ServeConfig {
    // The victim is rank 0, the root of the 2-rank reductions: of the two
    // ranks, its death inside a collective most often leaves the peer
    // waiting on it.
    let fault = FaultPlan {
        seed,
        kill_rank: Some(0),
        kill_after_ops,
        ..FaultPlan::none()
    };
    ServeConfig {
        n_pools: 1,
        workers_per_pool: WORKERS,
        odin: OdinConfig::default()
            .with_fault(fault)
            .with_stall_timeout(STALL)
            .with_reply_timeout(STALL),
        max_queued_total: 256,
        tenants: TENANTS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.to_string(),
                    TenantQuota {
                        weight: 1.0 + i as f64,
                        max_queued: 64,
                        max_inflight: 8,
                    },
                )
            })
            .collect(),
        ..ServeConfig::default()
    }
}

/// Start a plane and push one small job of each class through it, so
/// kernels are built and pools warm.
fn start(cfg: ServeConfig) -> ServePlane {
    let plane = ServePlane::new(cfg);
    let session = plane.session(TENANTS[0]).expect("tenant is registered");
    let warm = [
        JobSpec::Array { seed: 0, n: 16 },
        JobSpec::Kernel { seed: 0, n: 16 },
        JobSpec::Solve { seed: 0, n: 16 },
    ];
    let tickets: Vec<JobTicket> = warm
        .into_iter()
        .map(|spec| {
            session
                .submit(JobRequest {
                    spec,
                    priority: Priority::Normal,
                    budget: BUDGET,
                })
                .expect("warm-up job admitted")
        })
        .collect();
    for t in tickets {
        t.wait();
    }
    plane
}

/// What the generator saw for one offer.
pub struct Fired<T> {
    /// Start of the submit call, and its end.
    pub start: Instant,
    pub end: Instant,
    pub result: T,
}

/// The open loop: fire `submit(i)` for each offer at `t0 + due[i]`,
/// never waiting on earlier jobs. When the loop runs late, later offers
/// fire as soon as it can, and their latency still counts from `due`.
pub fn open_loop<T>(
    t0: Instant,
    due: &[Duration],
    mut submit: impl FnMut(usize) -> T,
) -> Vec<Fired<T>> {
    due.iter()
        .enumerate()
        .map(|(i, &d)| {
            let at = t0 + d;
            // Busy-wait: arrivals stay exact, and the generator keeps its
            // core awake, so a virtual CPU's wake-up from idle (tens to
            // hundreds of microseconds, varying with the host's load)
            // does not enter the jobs' latency.
            while Instant::now() < at {
                std::hint::spin_loop();
            }
            let start = Instant::now();
            let result = submit(i);
            Fired {
                start,
                end: Instant::now(),
                result,
            }
        })
        .collect()
}

/// Latency of a completed job from its due time: the generator's delay
/// and the submit call, then the queue wait and service the plane
/// reported (measured from admission inside the submit call).
pub fn latency_from_due(
    t0: Instant,
    due: Duration,
    submitted: Instant,
    queue_wait: Duration,
    service: Duration,
) -> Duration {
    submitted.duration_since(t0 + due) + queue_wait + service
}

fn spec_key(spec: &JobSpec, workers: usize) -> (u8, u64, usize, usize) {
    match *spec {
        JobSpec::Array { seed, n } => (0, seed, n, workers),
        JobSpec::Kernel { seed, n } => (1, seed, n, workers),
        JobSpec::Solve { seed, n } => (2, seed, n, workers),
    }
}

pub fn run(p: &Params) -> Report {
    // Injected kills unwind through worker and pool threads by design;
    // keep their panic messages off stderr, and keep this thread's.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let quiet = std::thread::current()
            .name()
            .is_none_or(|n| n.starts_with("serve-pool"));
        if !quiet {
            default_hook(info);
        }
    }));
    let rate = match p.scale {
        Scale::Full => RATE_FULL,
        Scale::Tiny => RATE_TINY,
    };
    let inp = inputs(p.seed, rate, p.seconds);
    let mut report = Report::default();
    report.notes.push(format!(
        "serve: {} jobs offered at {rate}/s, 1 pool of {WORKERS} workers, {} tenants, \
         worker kill after {} victim comm ops, SLO {} ms",
        inp.offers.len(),
        TENANTS.len(),
        inp.kill_after_ops,
        SLO_JOB.as_millis()
    ));
    let mut setup_s = Vec::new();
    let mut plane = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let pl = start(config(inp.kill_after_ops, p.seed));
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = plane.replace(pl) {
            old.shutdown();
        }
    }
    report.set("setup_s", median(&setup_s));
    let plane = plane.expect("at least one set-up");
    measure(p, &plane, &inp, &mut report);
    let stats = plane.shutdown();
    if !stats.reconciles() {
        report.mismatch(format!("serve ledger does not reconcile: {stats:?}"));
    }
    report.set("serve.recoveries", stats.recoveries as f64);
    report.set("serve.retries", stats.retries as f64);
    report.set("serve.shed", stats.shed as f64);
    report.set("serve.refused", stats.rejected_quota as f64);
    report.set(
        "serve.expired",
        (stats.expired_queued + stats.expired_running) as f64,
    );
    let _ = std::panic::take_hook();
    report
}

fn measure(p: &Params, plane: &ServePlane, inp: &Inputs, report: &mut Report) {
    let sessions: Vec<_> = TENANTS
        .iter()
        .map(|t| plane.session(t).expect("tenant is registered"))
        .collect();
    let due: Vec<Duration> = inp.offers.iter().map(|o| o.due).collect();
    let t0 = Instant::now();
    let fired = open_loop(t0, &due, |i| {
        let o = &inp.offers[i];
        let traced = p.trace && i % 2 == 1;
        trace::set_enabled(traced);
        let ts = Instant::now();
        let r = sessions[o.tenant].submit(JobRequest {
            spec: o.spec.clone(),
            priority: o.priority,
            budget: BUDGET,
        });
        // The generator's own instrumentation: the submit span.
        let root = trace::reserve();
        trace::record(
            trace::reserve(),
            "serve",
            "submit",
            i as u64,
            Some(root),
            ts,
            Instant::now(),
        );
        trace::set_enabled(false);
        (root, traced, r)
    });
    // Goodput runs from the start of the schedule to the last completion,
    // so a backlog that outlasts the schedule lowers it.
    let mut window = Duration::ZERO;
    let mut lat_ms = Vec::new();
    let (mut queue_ms, mut service_ms, mut recovered_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut submit_us, mut submit_traced_us) = (Vec::new(), Vec::new());
    let mut lag_ms = Vec::new();
    let (mut completed, mut elems) = (0u64, 0u64);
    // Per offer, in due order: completed correctly within the SLO?
    let mut met = vec![false; inp.offers.len()];
    let mut oracle: HashMap<(u8, u64, usize, usize), u64> = HashMap::new();
    for (i, f) in fired.into_iter().enumerate() {
        let o = &inp.offers[i];
        let (root, traced, result) = f.result;
        let sub_us = f.end.duration_since(f.start).as_secs_f64() * 1e6;
        if traced {
            submit_traced_us.push(sub_us);
        } else {
            submit_us.push(sub_us);
        }
        lag_ms.push(f.start.saturating_duration_since(t0 + o.due).as_secs_f64() * 1e3);
        report.attempted += 1;
        let ticket = match result {
            Ok(t) => t,
            Err(ServeError::QuotaExceeded { .. }) => continue, // refused: an SLO miss
            Err(e) => {
                report.mismatch(format!("job {i}: submit failed: {e}"));
                continue;
            }
        };
        match ticket.wait() {
            JobOutcome::Completed {
                data,
                workers,
                recoveries,
                queue_wait,
                service,
                ..
            } => {
                let want = *oracle
                    .entry(spec_key(&o.spec, workers))
                    .or_insert_with(|| bit_hash(&reference_result(&o.spec, workers)));
                if bit_hash(&data) != want {
                    report.mismatch(format!(
                        "job {i}: {:?} at {workers} workers differs from reference_result",
                        o.spec
                    ));
                    continue;
                }
                let lat = latency_from_due(t0, o.due, f.end, queue_wait, service);
                window = window.max(o.due + lat);
                completed += 1;
                elems += data.len() as u64;
                met[i] = lat <= SLO_JOB;
                lat_ms.push(lat.as_secs_f64() * 1e3);
                queue_ms.push(queue_wait.as_secs_f64() * 1e3);
                service_ms.push(service.as_secs_f64() * 1e3);
                if recoveries >= 1 {
                    if recovered_ms.is_empty() {
                        report.notes.push(format!(
                            "first recovered job: {i} ({:?}), due at {:.3} s",
                            o.spec,
                            o.due.as_secs_f64()
                        ));
                    }
                    recovered_ms.push(service.as_secs_f64() * 1e3);
                }
                if traced {
                    trace::set_enabled(true);
                    let due_at = t0 + o.due;
                    let (q0, s0) = (f.end, f.end + queue_wait);
                    let op = i as u64;
                    trace::record(
                        trace::reserve(),
                        "serve",
                        "queue_wait",
                        op,
                        Some(root),
                        q0,
                        s0,
                    );
                    trace::record(
                        trace::reserve(),
                        "serve",
                        "service",
                        op,
                        Some(root),
                        s0,
                        s0 + service,
                    );
                    trace::record(
                        root,
                        ROOT,
                        "job",
                        op,
                        None,
                        due_at,
                        due_at.max(s0 + service),
                    );
                    trace::set_enabled(false);
                }
            }
            JobOutcome::Failed { error, .. } => {
                report.mismatch(format!("job {i}: failed: {error}"));
            }
            // Shed and expired jobs are SLO misses, not wrong results.
            JobOutcome::Shed { .. } | JobOutcome::Expired { .. } => {}
        }
    }
    // The run is cut into consecutive windows of WINDOW offers; median
    // latency, latency tail and SLO attainment are medians over windows.
    // The windows of the solve burst and of the recovery are slow by
    // design, and their extent varies from run to run. Whether the killed
    // worker's peer sat in a collective (a stall of the 2 s timeout) or
    // not (recovery in milliseconds) depends on thread timing, so the
    // recovery episode is reported on its own below, and kept out of
    // the steady figures by the window median.
    let lat_us: Vec<f64> = lat_ms.iter().map(|m| m * 1e3).collect();
    let (tail_us, pct) = windowed_tail(&lat_us, WINDOW);
    let (whole_tail, whole_pct) = tail(&lat_us);
    let slo: Vec<f64> = windows(&met, WINDOW)
        .map(|w| w.iter().filter(|&&m| m).count() as f64 / w.len() as f64)
        .collect();
    let p50s: Vec<f64> = windows(&lat_us, WINDOW).map(median).collect();
    report.set("latency_p50_us", median(&p50s));
    report.set("latency_tail_us", tail_us);
    report.notes.push(format!(
        "latency per completed job from its due time: {} jobs; p50 and tail are medians \
         over windows of {WINDOW} (tail p{pct:.3}); over the whole run p50 is {:.3} ms and \
         p{whole_pct:.3} is {:.3} ms",
        lat_us.len(),
        median(&lat_us) / 1e3,
        whole_tail / 1e3
    ));
    let window = window.as_secs_f64();
    report.set("ops_per_s", completed as f64 / window);
    report.set("elems_per_s", elems as f64 / window);
    report.set("slo_attainment", median(&slo));
    report.set(
        "serve.worst_window_slo",
        slo.iter().copied().fold(1.0, f64::min),
    );
    report.set(
        "serve.max_latency_ms",
        lat_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set("serve.queue_wait_p50_ms", median(&queue_ms));
    report.set("serve.queue_wait_tail_ms", tail(&queue_ms).0);
    report.set("serve.service_p50_ms", median(&service_ms));
    report.set("serve.service_tail_ms", tail(&service_ms).0);
    report.set("serve.recovered_service_ms", median(&recovered_ms));
    report.set(
        "serve.generator_lag_ms",
        lag_ms.iter().copied().fold(0.0, f64::max),
    );
    if p.trace {
        let all_submit: Vec<f64> = submit_us.iter().chain(&submit_traced_us).copied().collect();
        report.set("serve.submit_us", median(&all_submit));
        let (u, t) = (median(&submit_us), median(&submit_traced_us));
        report.set(
            "obs.trace_overhead_frac",
            if u > 0.0 { (t - u) / u } else { 0.0 },
        );
        finish_trace("serve", report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(inputs(9, 40.0, 2.0), inputs(9, 40.0, 2.0));
        assert_ne!(inputs(9, 40.0, 2.0), inputs(10, 40.0, 2.0));
        let inp = inputs(9, 40.0, 2.0);
        assert_eq!(inp.offers.len(), 80);
        assert_eq!(inp.offers[40].due, Duration::from_secs(1));
    }

    #[test]
    fn latency_counts_generator_lateness_from_the_due_time() {
        // Job 0 blocks the generator for 30 ms; job 1, due at 10 ms,
        // fires at ~30 ms and its latency includes those 20 ms.
        let t0 = Instant::now();
        let due = [Duration::ZERO, Duration::from_millis(10)];
        let fired = open_loop(t0, &due, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        let f1 = &fired[1];
        assert!(f1.start >= t0 + Duration::from_millis(30));
        let service = Duration::from_millis(5);
        let lat = latency_from_due(t0, due[1], f1.end, Duration::ZERO, service);
        assert!(
            lat >= Duration::from_millis(25),
            "lateness missing: {lat:?}"
        );
        // An on-time job's latency is its own queue wait and service.
        let on_time = latency_from_due(t0, Duration::ZERO, t0, Duration::from_millis(1), service);
        assert_eq!(on_time, Duration::from_millis(6));
    }
}
