//! Progress reporting and runtime statistics for engine runs.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use seugrade_faultsim::GradingSummary;

/// One completed shard, as observed by a progress callback.
///
/// Events are emitted **from worker threads** as shards finish, so their
/// order varies run to run; the graded outcomes do not (the engine merges
/// them back into submission order).
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// Queue index of the finished shard.
    pub shard: usize,
    /// Faults graded by this shard.
    pub faults: usize,
    /// Classification tallies of this shard alone.
    pub summary: GradingSummary,
}

/// A shareable progress callback for the streamed resumable path.
///
/// Wraps an `Arc<dyn Fn(ProgressEvent)>` so the same hook can be handed
/// to [`ResumeOptions`](crate::ResumeOptions) by value, cloned per run,
/// and invoked **from worker threads** as chunks finish. The closure
/// must therefore be cheap and lock-light — a couple of atomic adds or a
/// bounded channel send, not a blocking write. Event order varies run to
/// run (workers race); the graded verdicts do not.
#[derive(Clone)]
pub struct ProgressHook(Arc<dyn Fn(ProgressEvent) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback.
    #[must_use]
    pub fn new(f: impl Fn(ProgressEvent) + Send + Sync + 'static) -> Self {
        ProgressHook(Arc::new(f))
    }

    /// Invokes the callback with one finished-chunk event.
    pub fn call(&self, event: ProgressEvent) {
        (self.0)(event);
    }

    /// The wrapped callback.
    pub(crate) fn as_fn(&self) -> &(dyn Fn(ProgressEvent) + Sync) {
        &*self.0
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// A thread-safe aggregator for [`ProgressEvent`]s — the simplest useful
/// progress sink (live fault counters for a CLI spinner or a stats
/// endpoint).
#[derive(Debug, Default)]
pub struct ProgressCounter {
    faults: AtomicUsize,
    shards: AtomicUsize,
}

impl ProgressCounter {
    /// A fresh counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event in (callable concurrently from any worker).
    pub fn observe(&self, event: &ProgressEvent) {
        self.faults.fetch_add(event.faults, Ordering::Relaxed);
        self.shards.fetch_add(1, Ordering::Relaxed);
    }

    /// Faults graded so far.
    #[must_use]
    pub fn faults_done(&self) -> usize {
        self.faults.load(Ordering::Relaxed)
    }

    /// Shards completed so far.
    #[must_use]
    pub fn shards_done(&self) -> usize {
        self.shards.load(Ordering::Relaxed)
    }
}

/// What an engine run cost: the raw material for throughput tracking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Faults graded.
    pub faults: usize,
    /// Shards dispatched through the chunk queue.
    pub shards: usize,
    /// Worker threads that actually ran (the policy's request capped at
    /// the shard count — spawning more workers than shards is pointless).
    pub threads: usize,
    /// Wall-clock nanoseconds spent grading (excluding golden-run setup).
    pub wall_ns: u128,
    /// Chunks that left deviation space for the companion-lane tape
    /// walk under the `auto` kernel (summed
    /// [`GradeScratch::kernel_switches`](seugrade_faultsim::GradeScratch::kernel_switches)).
    pub kernel_switches: u64,
}

impl EngineStats {
    /// Grading throughput in faults per second (0 for an empty run).
    #[must_use]
    pub fn faults_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.faults as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Average microseconds per fault (0 for an empty run).
    #[must_use]
    pub fn us_per_fault(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.wall_ns as f64 / 1e3 / self.faults as f64
        }
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faults in {} shards on {} threads: {:.0} faults/sec",
            self.faults,
            self.shards,
            self.threads,
            self.faults_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = ProgressCounter::new();
        for shard in 0..5 {
            c.observe(&ProgressEvent {
                shard,
                faults: 64,
                summary: GradingSummary::new(),
            });
        }
        assert_eq!(c.faults_done(), 320);
        assert_eq!(c.shards_done(), 5);
    }

    #[test]
    fn stats_rates() {
        let s = EngineStats {
            faults: 1000,
            shards: 16,
            threads: 4,
            wall_ns: 2_000_000_000,
            kernel_switches: 0,
        };
        assert!((s.faults_per_sec() - 500.0).abs() < 1e-9);
        assert!((s.us_per_fault() - 2000.0).abs() < 1e-9);
        assert!(s.to_string().contains("4 threads"));
    }

    #[test]
    fn stats_degenerate_cases() {
        let s = EngineStats { faults: 0, shards: 0, threads: 1, wall_ns: 0, kernel_switches: 0 };
        assert_eq!(s.faults_per_sec(), 0.0);
        assert_eq!(s.us_per_fault(), 0.0);
    }
}
