//! Metric names, units and the result line.
//!
//! The lists here are the benchmark's contract with `BENCHMARK.json`;
//! the self-tests check that the two agree name for name.

use std::fmt::Write as _;

/// Workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["viper-paper", "s5378g-sampled", "serve-mixed"];

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("faults_per_sec", "faults/s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("circuits.build_ms", "ms"),
    ("netlist.import_ms", "ms"),
    ("netlist.levelize_ms", "ms"),
    ("sim.compile_ms", "ms"),
    ("sim.golden_ms", "ms"),
    ("sim.golden_stored_bits", "bits"),
    ("sim.span_replay_ms", "ms"),
    ("sim.span_replayed_cycles", "cycles"),
    ("faultsim.sample_ms", "ms"),
    ("faultsim.grade_us_per_fault", "us"),
    ("faultsim.faulty_cycles_per_fault", "cycles"),
    ("faultsim.lane_occupancy", "ratio"),
    ("engine.build_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("engine.chunk_us_p50", "us"),
    ("engine.chunk_us_p90", "us"),
    ("engine.idle_frac", "ratio"),
    ("engine.sink_fold_ms", "ms"),
    ("engine.checkpoint_write_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_samples", "count"),
    ("serve.unwatched_finishes", "count"),
    ("serve.rounds_per_job", "count"),
    ("serve.rebuild_frac", "ratio"),
    ("trace.faults_per_sec", "faults/s"),
    ("trace.untraced_faults_per_sec", "faults/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// True for a name the benchmark contract accepts: a leading letter or
/// digit, then at most 63 more letters, digits, `_`, `.` or `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Failed ops as a share of ops attempted (0 when nothing ran).
#[must_use]
pub fn failed_ops_frac(attempted: usize, failed: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records `name` with the unit the contract lists for it.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither contract list (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the contract"));
        self.rows.retain(|(n, _, _)| *n != name);
        self.rows.push((name, unit, value));
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.rows.iter().map(|r| r.0)
    }

    /// One human-readable `name value unit` line per metric.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.rows {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`. Non-finite values (a metric with no samples) are
    /// written as `null`.
    #[must_use]
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit, value)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
