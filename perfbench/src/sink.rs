//! A timing [`VerdictSink`] for traced runs.
//!
//! The engine's pool folds every chunk into a fresh `Default` sink and
//! then merges that one-chunk sink into the worker's accumulator; after
//! the join it merges the worker accumulators together. Both calls
//! arrive here, so the sink sees chunk completions exactly as the
//! engine schedules them — no copy of its chunking — and a change to
//! chunk packing shows up in the chunk timings.

use std::time::Instant;

use seugrade_engine::VerdictSink;
use seugrade_faultsim::{Fault, FaultOutcome};

/// Wraps a sink `A`, timing its folds and the chunk completions.
#[derive(Debug)]
pub struct TimingSink<A> {
    inner: A,
    created: Instant,
    last_done: Option<Instant>,
    /// Faults observed directly: non-zero only for a one-chunk sink.
    observed: usize,
    /// Per-worker intervals between chunk completions, in ns; a
    /// worker's first interval starts when its accumulator is created.
    gaps_ns: Vec<u64>,
    /// Busy span of every merged worker: accumulator creation to its
    /// last chunk completion, in ns.
    busy_ns: Vec<u64>,
    /// Time spent inside the wrapped sink's `observe` and `merge`.
    fold_ns: u64,
}

impl<A: Default> Default for TimingSink<A> {
    fn default() -> Self {
        TimingSink {
            inner: A::default(),
            created: Instant::now(),
            last_done: None,
            observed: 0,
            gaps_ns: Vec::new(),
            busy_ns: Vec::new(),
            fold_ns: 0,
        }
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

impl<A: VerdictSink> VerdictSink for TimingSink<A> {
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
        let t0 = Instant::now();
        self.inner.observe(fault, outcome);
        self.observed += 1;
        self.fold_ns += ns_between(t0, Instant::now());
    }

    fn merge(&mut self, other: Self) {
        let t0 = Instant::now();
        let one_chunk = other.observed > 0 && other.gaps_ns.is_empty() && other.busy_ns.is_empty();
        if one_chunk {
            self.gaps_ns
                .push(ns_between(self.last_done.unwrap_or(self.created), t0));
            self.last_done = Some(t0);
        } else {
            self.gaps_ns.extend(other.gaps_ns);
            self.busy_ns.extend(other.busy_ns);
            if let Some(done) = other.last_done {
                self.busy_ns.push(ns_between(other.created, done));
            }
        }
        self.inner.merge(other.inner);
        self.fold_ns += other.fold_ns + ns_between(t0, Instant::now());
    }
}

/// What a traced campaign's sink saw.
#[derive(Debug)]
pub struct ChunkTrace<A> {
    /// The wrapped sink, fully folded.
    pub inner: A,
    /// Every worker's intervals between chunk completions, in ns (one
    /// entry per chunk).
    pub gaps_ns: Vec<u64>,
    /// One busy span per worker that graded at least one chunk, in ns.
    pub busy_ns: Vec<u64>,
    /// Time inside the wrapped sink's `observe`/`merge`, in ns.
    pub fold_ns: u64,
}

impl<A> TimingSink<A> {
    /// The wrapped sink.
    #[must_use]
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Closes the trace: the receiving accumulator's own busy span is
    /// added to the merged workers'.
    #[must_use]
    pub fn finish(mut self) -> ChunkTrace<A> {
        if let Some(done) = self.last_done {
            self.busy_ns.push(ns_between(self.created, done));
        }
        ChunkTrace {
            inner: self.inner,
            gaps_ns: self.gaps_ns,
            busy_ns: self.busy_ns,
            fold_ns: self.fold_ns,
        }
    }
}
