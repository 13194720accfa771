//! The metric catalogue and the result every workload returns.
//!
//! Every workload reports every metric of the catalogue: the full
//! end-to-end set from an untraced run and the full per-layer set from a
//! traced run, so results of all workloads share one schema. A per-layer
//! metric of a crate the workload does not call reads 0 and is marked as
//! not exercised.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. All are defined on every
/// workload (see `BENCHMARK.json` for how each workload counts an
/// operation).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("ops_per_s", "1/s"),
    ("elems_per_s", "1/s"),
    ("slo_attainment", "frac"),
];

/// Per-layer metrics: `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("odin.sum_us", "us"),
    ("odin.fetch_us", "us"),
    ("odin.eager_issue_us", "us"),
    ("odin.program_run_us", "us"),
    ("odin.ctrl_msgs_per_op", "count"),
    ("odin.ctrl_bytes_per_op", "B"),
    ("odin.data_msgs_per_op", "count"),
    ("odin.ufunc_ms", "ms"),
    ("odin.redistribute_ms", "ms"),
    ("odin.program_run_ms", "ms"),
    ("odin.launches", "count"),
    ("odin.spawn_ms", "ms"),
    ("odin.self_frac", "frac"),
    ("seamless.native_map_ms", "ms"),
    ("seamless.vm_map_ms", "ms"),
    ("seamless.map_reduce_ms", "ms"),
    ("seamless.expr_eval_ms", "ms"),
    ("seamless.build_ms", "ms"),
    ("seamless.computed_bytes_per_pass", "B"),
    ("seamless.ops_per_byte", "flop/B"),
    ("seamless.serial_pass_ms", "ms"),
    ("seamless.self_frac", "frac"),
    ("comm.msgs_per_iter", "count"),
    ("comm.bytes_per_iter", "B"),
    ("comm.modeled_makespan_ms", "ms"),
    ("comm.self_frac", "frac"),
    ("dmap.plan_hit_ratio", "frac"),
    ("dmap.self_frac", "frac"),
    ("dlinalg.matvec_us", "us"),
    ("dlinalg.dot_us", "us"),
    ("dlinalg.self_frac", "frac"),
    ("solvers.precond_apply_us", "us"),
    ("solvers.amg_setup_ms", "ms"),
    ("solvers.iterations", "count"),
    ("solvers.iterations_jacobi", "count"),
    ("solvers.iterations_amg", "count"),
    ("solvers.serial_cg_ms", "ms"),
    ("solvers.self_frac", "frac"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_tail_ms", "ms"),
    ("serve.recovered_service_ms", "ms"),
    ("serve.recoveries", "count"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.refused", "count"),
    ("serve.expired", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.worst_window_slo", "frac"),
    ("serve.max_latency_ms", "ms"),
    ("serve.self_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
    ("obs.span_coverage", "frac"),
];

/// The crates whose calls the traced run wraps in spans; each has a
/// `<layer>.self_frac` metric.
pub const LAYERS: &[&str] = &[
    "odin", "seamless", "comm", "dmap", "dlinalg", "solvers", "serve",
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed before the metrics (host note, checks).
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

impl Report {
    /// Record a metric of the catalogue.
    ///
    /// # Panics
    /// On a name that is not in the catalogue (a bug in a workload).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a wrong result: it counts as failed, and explains itself.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self
            .notes
            .iter()
            .filter(|n| n.starts_with("MISMATCH"))
            .count()
            < 20
        {
            self.notes.push(format!("MISMATCH {what}"));
        }
    }

    /// Share of attempted operations that failed or were wrong.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every reported value is a finite number.
    pub fn finite(&self, trace: bool) -> bool {
        Self::catalogue(trace)
            .iter()
            .all(|(n, _)| self.get(n).unwrap_or(0.0).is_finite())
    }

    /// Correct: at least one operation ran, none failed or was wrong,
    /// and every metric is a finite number.
    pub fn correct(&self, trace: bool) -> bool {
        self.attempted > 0 && self.failed == 0 && self.finite(trace)
    }

    /// Human-readable lines: one per metric, by name and unit.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        let mut out = self.notes.clone();
        out.push(format!(
            "failed_frac {} ({} of {} operations)",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        for &(name, unit) in Self::catalogue(trace) {
            match self.get(name) {
                Some(v) => out.push(format!("{name} {v} {unit}")),
                None => out.push(format!("{name} 0 {unit} (not exercised by this workload)")),
            }
        }
        out
    }

    /// The result line: one JSON object with every metric of the
    /// catalogue this mode reports.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::catalogue(trace)
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(trace),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
        for layer in LAYERS {
            let key = format!("{layer}.self_frac");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == key), "{key} missing");
        }
    }

    #[test]
    fn json_line_carries_every_metric_and_validates() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.25);
        for trace in [false, true] {
            let line = r.json(trace);
            obs::json::validate(&line).expect("result line is valid JSON");
            for (name, _) in Report::catalogue(trace) {
                assert!(line.contains(&format!("\"{name}\"")));
            }
        }
        assert!(r
            .json(false)
            .contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        r.mismatch("x".into());
        assert!(!r.correct(false));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        obs::json::validate(&text).expect("BENCHMARK.json is valid JSON");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
