//! Every workload at the smoke-test scale, untraced and traced: it must
//! run, check its outputs, and report every metric. One test, so the
//! process-wide span store sees one workload at a time.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Params, Scale, NAMES};

#[test]
fn every_workload_runs_at_tiny_scale() {
    for &name in NAMES {
        for trace in [false, true] {
            let p = Params {
                seed: 3,
                seconds: 0.5,
                trace,
                scale: Scale::Tiny,
            };
            let r = workloads::run(name, &p).expect("known workload");
            let lines = r.lines(trace).join("\n");
            assert!(r.correct(trace), "{name} trace={trace} failed:\n{lines}");
            assert!(r.attempted > 0 && r.failed == 0, "{name}: {lines}");
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            for (metric, unit) in catalogue {
                assert!(
                    lines.contains(&format!("\n{metric} ")) && lines.contains(unit),
                    "{name}: {metric} missing"
                );
            }
            obs::json::validate(&r.json(trace)).expect("result line is JSON");
            if trace {
                let cov = r.get("obs.span_coverage").expect("coverage reported");
                assert!(cov >= 0.9, "{name}: spans cover only {cov} of the cycles");
            } else {
                for m in ["setup_s", "latency_p50_us", "ops_per_s", "elems_per_s"] {
                    assert!(r.get(m).unwrap_or(0.0) > 0.0, "{name}: {m} is not positive");
                }
            }
        }
    }
    assert!(workloads::run(
        "nope",
        &Params {
            seed: 0,
            seconds: 0.1,
            trace: false,
            scale: Scale::Tiny
        }
    )
    .is_err());
}
