//! Metric names, the result a workload returns, and its JSON line.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports, with their units (see
/// README.md for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("throughput", "1/s"),
    ("latency_us", "us"),
    ("quality", "fraction"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pfp-ehr.cohort.generate_s", "s"),
    ("pfp-ehr.cohort.patients_per_s", "1/s"),
    ("core.dataset.featurize_s", "s"),
    ("core.dataset.samples", "count"),
    ("core.dataset.nnz", "count"),
    ("pfp-math.csr.pack_ms", "ms"),
    ("pfp-math.csr.scores_ns_per_nnz", "ns"),
    ("pfp-math.csr.scatter_ns_per_nnz", "ns"),
    ("pfp-math.csr.bytes_per_pass", "bytes"),
    ("pfp-math.csr.flops_per_pass", "count"),
    ("pfp-math.softmax.ns_per_row", "ns"),
    ("core.loss.vg_ms_serial", "ms"),
    ("core.loss.vg_ms_pooled", "ms"),
    ("core.loss.pool_speedup", "ratio"),
    ("pfp-math.parallel.run_us", "us"),
    ("pfp-math.parallel.tree_reduce_us", "us"),
    ("pfp-optim.admm.passes", "count"),
    ("pfp-optim.admm.outer_iters", "count"),
    ("pfp-optim.admm.objective_share", "fraction"),
    ("pfp-optim.admm.overhead_s", "s"),
    ("pfp-optim.prox.group_lasso_us", "us"),
    ("core.stream.vg_ms", "ms"),
    ("pfp-serve.service.submit_us", "us"),
    ("pfp-serve.service.batch_rows_mean_low", "rows"),
    ("pfp-serve.service.batch_rows_mean_mid", "rows"),
    ("pfp-serve.service.batch_rows_mean_high", "rows"),
    ("pfp-serve.service.full_batch_frac_low", "fraction"),
    ("pfp-serve.service.full_batch_frac_mid", "fraction"),
    ("pfp-serve.service.full_batch_frac_high", "fraction"),
    ("pfp-serve.service.generator_lag_us_p50", "us"),
    ("pfp-serve.service.generator_lag_us_p99", "us"),
    ("pfp-serve.service.shed", "count"),
    ("pfp-serve.service.deadline", "count"),
    ("pfp-serve.service.errors", "count"),
    ("core.model.score_block_us", "us"),
    ("pfp-serve.batcher.collect_us", "us"),
    ("pfp-eval.scenario.predict_calls", "count"),
    ("pfp-eval.scenario.predict_us", "us"),
    ("pfp-eval.scenario.predict_share", "fraction"),
    ("pfp-eval.scenario.stays_per_rollout", "count"),
    ("core.features.featurize_us", "us"),
    ("core.model.probabilities_us", "us"),
    ("pfp-eval.scenario.admissions_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Named values in insertion order; a later value replaces an earlier one.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check, by name.
    pub checks: Vec<(String, bool)>,
    /// Operations the timed phase attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    pub layers: Metrics,
    /// Workload-specific figures printed for people under their usual
    /// names (`train_s`, `serve_p99_us_high`, ...); not in the JSON line.
    pub details: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The unit of a declared metric.
pub fn unit_of(table: &[(&str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// The result line: exactly the declared metrics of `table`, in its order.
pub fn json_line(outcome: &Outcome, table: &[(&str, &'static str)], metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload did not measure {name}"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_declared_metrics_with_units() {
        let mut o = Outcome::default();
        o.check("ok", true);
        o.attempted = 3;
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        m.set("setup_s", 1.25);
        let line = json_line(&o, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"quality\": {\"value\": 4.5, \"unit\": \"fraction\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn metric_names_are_unique_and_within_the_naming_rules() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_run_with_no_checks_or_a_failed_one_is_not_correct() {
        let mut o = Outcome::default();
        assert!(!o.correct());
        o.check("a", true);
        o.check("b", false);
        assert!(!o.correct());
    }
}
