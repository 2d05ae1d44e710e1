//! `perfbench` — the seugrade end-to-end and per-layer benchmark.
//!
//! Three workloads (see `NOTES.md` for why each exists) run the library
//! in process: `viper-paper` and `s5378g-sampled` grade campaigns back
//! to back on a prebuilt engine, `serve-mixed` drives an in-process
//! grading daemon over its line-JSON protocol. An untraced run reports
//! the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics from the benchmark's own timed calls into each
//! crate. Every op is checked against reference verdicts computed in a
//! child process through a different configuration.

pub mod layers;
pub mod oneshot;
pub mod reference;
pub mod report;
pub mod serve;
pub mod sink;
pub mod stats;
pub mod workload;

use std::time::Instant;

use report::Metrics;

/// Ops graded and discarded before timing starts (a cold campaign runs
/// at a fraction of the warm rate).
pub const WARMUP_OPS: usize = 4;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Tail percentile reported as `campaign_ms_p90`.
pub const TAIL_PCT: usize = 90;

/// Ops each phase of a traced run times at least.
pub const TRACE_MIN_OPS: usize = 20;

/// No phase measures longer than this, whatever its op minimum, so a
/// run always ends within its time limit.
pub const HARD_CAP_S: f64 = 60.0;

/// How long a timed phase runs: at least `seconds` and at least
/// `min_ops` ops, but never past [`HARD_CAP_S`].
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Minimum measuring time in seconds.
    pub seconds: f64,
    /// Minimum timed ops.
    pub min_ops: usize,
}

impl Budget {
    /// True while a phase that started at `start` and has timed `ops`
    /// ops should start another.
    #[must_use]
    pub fn more(&self, start: Instant, ops: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        (elapsed < self.seconds || ops < self.min_ops) && elapsed < HARD_CAP_S
    }
}

/// Ops attempted and failed over a whole run (warm-up included).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed: wrong digest or class counts, an error, a
    /// panic, or a job that did not end `done`.
    pub failed: usize,
}

impl Tally {
    /// Counts one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// What one invocation reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// The metrics for the result line.
    pub metrics: Metrics,
    /// Op accounting; the run is correct when no op failed.
    pub tally: Tally,
    /// Human-readable report lines printed before the result line.
    pub notes: Vec<String>,
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
