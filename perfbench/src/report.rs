//! The run record and the one-line result every run ends with.

use crate::harness::Timed;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (untraced runs) and
/// `BENCHMARK.json` bounds. The run record carries more; see the README.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_cost_refs", "refs"),
];

/// Per-layer metrics (traced runs). A workload whose ops never enter a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("chaos.apply_ms", "ms"),
    ("sim.fleet.run_ms", "ms"),
    ("sim.fleet.finalize_ms", "ms"),
    ("sim.requests", "count"),
    ("sim.requests_per_s", "1/s"),
    ("sim.borrow.transfers", "count"),
    ("sim.borrow.driver_ratio", "ratio"),
    ("obs.record_ratio", "ratio"),
    ("obs.render_ms", "ms"),
    ("obs.exposition_bytes", "bytes"),
    ("par.threads", "count"),
    ("par.scaling", "ratio"),
    ("models.fit_ms", "ms"),
    ("models.predict_ms", "ms"),
    ("core.fleet.budgeted_ms", "ms"),
    ("ssa.fit_ms", "ms"),
    ("ssa.lag_covariance_ms", "ms"),
    ("ssa.eigen_ms", "ms"),
    ("saa.sweep_cache.build_ms", "ms"),
    ("nn.gemm_flops", "count"),
    ("serve.http.queue_ms", "ms"),
    ("serve.http.parse_ms", "ms"),
    ("serve.http.handle_ms", "ms"),
    ("serve.http.write_ms", "ms"),
    ("serve.http.inject_ms", "ms"),
    ("serve.http.read_ms", "ms"),
    ("serve.ticks", "count"),
    ("serve.controller.inject_batch_us", "us"),
    ("serve.controller.step_ms", "ms"),
    ("serve.controller.doc_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// One metric: its reported value plus the in-run spread of the samples
/// it was taken from.
#[derive(Debug, Clone)]
pub struct Stat {
    pub value: f64,
    pub unit: &'static str,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed or were refused.
    pub failed_ops: u64,
    /// Output checks that failed, with what was expected.
    pub check_failures: Vec<String>,
    /// Host facts, sizes and other context, in insertion order.
    pub facts: Vec<(String, String)>,
    pub metrics: BTreeMap<String, Stat>,
}

impl Report {
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Records an output check; a failed one counts against the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// A metric reported as the median of `samples`.
    pub fn median_of(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if samples.is_empty() {
            self.check_failures
                .push(format!("{name}: no samples were measured"));
            return;
        }
        let median = stats::median(samples);
        self.insert(name, unit, median, samples);
    }

    /// A metric with one value, reported as measured.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64) {
        self.insert(name, unit, value, &[value]);
    }

    fn insert(&mut self, name: &str, unit: &'static str, value: f64, samples: &[f64]) {
        let (q1, q3) = stats::quartiles(samples);
        self.metrics.insert(
            name.to_string(),
            Stat {
                value,
                unit,
                q1,
                median: stats::median(samples),
                q3,
                n: samples.len(),
            },
        );
    }

    /// Records the tail of `samples` as `<name>` with its percentile, when
    /// there are enough samples for one.
    pub fn tail_of(&mut self, name: &str, samples: &[f64]) {
        match stats::tail(samples) {
            Some((p, v)) => {
                self.value(name, "ms", v);
                self.fact(&format!("{name}.percentile"), format!("p{p}"));
            }
            None => self.fact(
                &format!("{name}.percentile"),
                format!(
                    "none: {} samples leave no percentile with 10 beyond it",
                    samples.len()
                ),
            ),
        }
    }

    /// Records what the timed loop saw: op counts, failures and, for an
    /// untraced run, the end-to-end timings with `work_per_op` units of
    /// `work_unit` finished per op.
    pub fn timed_ops(&mut self, t: &Timed, traced: bool, work_per_op: f64, work_unit: &str) {
        self.attempted += (t.warmup + t.wall_ms.len()) as u64 + t.errors;
        self.failed_ops += t.errors;
        if let Some(e) = &t.first_error {
            self.check_failures.push(format!("op failed: {e}"));
        }
        self.fact("warmup_ops", t.warmup);
        self.fact("timed_ops", t.wall_ms.len());
        self.fact("op_wall_samples_ms", format!("{:.1?}", t.wall_ms));
        self.fact("op_cpu_samples_ms", format!("{:.1?}", t.cpu_ms));
        if traced {
            return;
        }
        self.median_of("op_p50_ms", "ms", &t.wall_ms);
        self.median_of("op_cpu_ms", "ms", &t.cpu_ms);
        let mean_cpu_ms = t.cpu_ms.iter().sum::<f64>() / t.cpu_ms.len().max(1) as f64;
        self.op_cost(mean_cpu_ms, &t.reference_ms);
        // The larger of set-up's peak and the mean op's. The whole
        // process's peak would be the worst of however many ops the run
        // fitted, and with recording on, the peaks of identical ops vary
        // with how the threads interleave; their mean moves least.
        self.fact("setup_peak_rss_mb", t.setup_peak_mb);
        self.fact("op_peak_rss_samples_mb", format!("{:.1?}", t.peak_mb));
        let op_peak_mb = if t.peak_mb.is_empty() {
            0.0
        } else {
            t.peak_mb.iter().sum::<f64>() / t.peak_mb.len() as f64
        };
        if t.setup_peak_mb > op_peak_mb {
            self.value("peak_rss_mb", "MiB", t.setup_peak_mb);
        } else {
            self.insert("peak_rss_mb", "MiB", op_peak_mb, &t.peak_mb);
        }
        self.tail_of("op_tail_ms", &t.wall_ms);
        self.value(
            "work_per_s",
            "1/s",
            work_per_op * t.wall_ms.len() as f64 / t.wall_s,
        );
        self.fact("work_unit", work_unit);
    }

    /// Records `op_cost_refs`: `op_cpu_ms`, an op's mean CPU time over the
    /// timed phase, divided by the mean CPU time of the reference kernel
    /// sampled through the same phase. Means, not medians: the host
    /// flips between a fast and a slow speed every few seconds, and the
    /// median of such samples jumps from one speed to the other, while
    /// the mean follows the share of the run spent at each.
    pub fn op_cost(&mut self, op_cpu_ms: f64, reference_ms: &[f64]) {
        if reference_ms.is_empty() {
            self.check_failures
                .push("the reference kernel was never sampled".into());
            return;
        }
        let reference = reference_ms.iter().sum::<f64>() / reference_ms.len() as f64;
        self.fact("op_cpu_mean_ms", op_cpu_ms);
        self.median_of("reference_ms", "ms", reference_ms);
        self.fact("reference_mean_ms", reference);
        self.value("op_cost_refs", "refs", op_cpu_ms / reference);
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops + self.check_failures.len() as u64
    }

    /// The run record: facts, then every metric with its in-run spread.
    pub fn record_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, v) in &self.facts {
            out.push(format!("fact {k} = {v}"));
        }
        for (name, s) in &self.metrics {
            out.push(format!(
                "metric {name} = {} {} (median {}, q1 {}, q3 {}, n {})",
                s.value, s.unit, s.median, s.q1, s.q3, s.n
            ));
        }
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed() as f64 / self.attempted as f64
        };
        out.push(format!(
            "metric error_rate = {error_rate} ratio ({} failed of {} attempted)",
            self.failed(),
            self.attempted
        ));
        for f in &self.check_failures {
            out.push(format!("CHECK FAILED: {f}"));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and exactly the
    /// metrics of `wanted`. Layer metrics a workload never measured read 0.
    pub fn result_json(
        &self,
        wanted: &[(&str, &str)],
        fill_missing: bool,
    ) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(*name) {
                Some(s) if s.unit != *unit => {
                    return Err(format!("metric {name} has unit {} not {unit}", s.unit))
                }
                // `+ 0.0` turns an empty sum's -0.0 into 0.
                Some(s) => s.value + 0.0,
                None if fill_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        if self.attempted == 0 {
            return Err("no op was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed()
        ))
    }
}
