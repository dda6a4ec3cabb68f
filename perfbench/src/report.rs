//! Metric declarations and the result line.

/// End-to-end metrics (`--trace 0`): name and unit, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("individuals_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_bytes", "bytes"),
    ("mse_mean", "mse"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.generate_s", "s"),
    ("data.window_s", "s"),
    ("similarity.build_graph_s", "s"),
    ("graph.sparsify_s", "s"),
    ("similarity.series_distance_s", "s"),
    ("models.construct_s", "s"),
    ("models.forward_ms_per_epoch", "ms"),
    ("autodiff.backward_ms_per_epoch", "ms"),
    ("nn.adam_ms_per_epoch", "ms"),
    ("autodiff.tape_nodes", "count"),
    ("tensor.matmul_calls", "count"),
    ("tensor.matmul_gflop", "GFLOP"),
    ("tensor.matmul_bytes_computed", "bytes"),
    ("tensor.flop_per_byte", "flop/byte"),
    ("tensor.achieved_gflops", "GFLOP/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.peak_operand_bytes", "bytes"),
    ("tensor.pct_of_peak", "%"),
    ("tensor.pool_hit_rate", "ratio"),
    ("alloc.allocs_per_individual", "count"),
    ("core.train_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.train.epochs_total", "count"),
    ("core.cohort.fallbacks", "count"),
    ("core.exec.busy_frac", "ratio"),
    ("core.exec.wait_s", "s"),
    ("core.exec.job_p50_ms", "ms"),
    ("core.exec.job_p90_ms", "ms"),
    ("core.exec.job_samples", "count"),
    ("core.exec.jobs", "count"),
    ("core.exec.workers", "count"),
    ("core.exec.speedup_vs_1t", "ratio"),
    ("core.cluster.plan_s", "s"),
    ("core.cluster.serial_frac", "ratio"),
    ("core.cluster.cache_hit_rate", "ratio"),
    ("obs.tracing_overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Individuals attempted across all passes.
    pub attempted: u64,
    /// Individuals that failed (panicked pass or non-finite MSE).
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Builds a report from `(name, value)` pairs, which must name
    /// exactly the `declared` metrics, in order.
    ///
    /// # Panics
    /// Panics when the values do not match the declaration.
    #[must_use]
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        declared: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) -> Self {
        assert_eq!(
            declared.len(),
            values.len(),
            "one value per declared metric"
        );
        let metrics = declared
            .iter()
            .zip(values)
            .map(|(&(name, unit), &(got, value))| {
                assert_eq!(name, got, "metrics out of declaration order");
                Metric { name, unit, value }
            })
            .collect::<Vec<_>>();
        // A non-finite value, which no formula here should produce,
        // cannot be printed as JSON and fails the run.
        let finite = metrics.iter().all(|m| m.value.is_finite());
        Self {
            correct: correct && finite,
            attempted,
            failed,
            metrics,
        }
    }

    /// The metric called `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object. Values print with every digit
    /// (Rust's shortest round-trip form); a non-finite value prints as
    /// `null`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
