//! Streaming campaign primitives: cycle-major chunk plans and online
//! verdict accumulation.
//!
//! The paper's emulator never materializes a campaign — faults are
//! enumerated cycle-major on the fly and classified results are dropped
//! as soon as they are tallied. This module is the software analogue:
//!
//! - `ChunkPlan` and `MultiPlan` (crate-internal) turn every
//!   [`FaultSource`](crate::FaultSource), MBUs included, into a sequence
//!   of chunks of at most 63 lanes inside one golden span. For the
//!   exhaustive source the chunks are *computed arithmetically*, one
//!   cycle at a time — no `flip-flops × cycles` fault vector ever
//!   exists; workers regenerate their chunk from its index. Every other
//!   source is packed span by span by the one planner,
//!   [`SpanOrder`].
//! - [`VerdictSink`] is the online accumulator contract: each worker
//!   folds `(fault, outcome)` pairs into a private sink, and the
//!   per-worker sinks are merged after the join. Sinks must be
//!   **order-insensitive** (commutative observes/merges), which is what
//!   keeps every thread count bit-identical to the serial reference —
//!   a property the agreement suites enforce.
//! - [`StreamAccumulator`] is the standard sink: class tallies, the
//!   per-flip-flop failure map, and an order-independent verdict
//!   [digest](StreamAccumulator::digest) that lets two streamed runs
//!   (or a streamed and a materialized run) be compared fault-for-fault
//!   without either of them storing a single outcome.

use std::borrow::Cow;

use seugrade_faultsim::{
    Fault, FaultClass, FaultList, FaultOutcome, GradingSummary, Injection, MultiFault, SpanOrder,
};
use seugrade_netlist::FfIndex;

/// A campaign cut into one-span chunks of at most
/// [`Grader::chunk_lanes`](seugrade_faultsim::Grader::chunk_lanes)
/// lanes, in cycle-major order — what the engine's chunk driver grades.
///
/// The chunk sequence is the unit the pool's workers pull lazily; a
/// worker holds one chunk (≤ 63 lanes) and its grading scratch at a
/// time.
pub(crate) trait Chunks: Sync {
    /// One lane's injection set.
    type Lane: Injection + Send;

    /// Number of chunks.
    fn num_chunks(&self) -> usize;

    /// Total faults across all chunks.
    fn num_faults(&self) -> usize;

    /// Faults covered by the chunks before `chunk` — the fault-space
    /// position of a resume cursor.
    fn faults_before(&self, chunk: usize) -> usize;

    /// Writes chunk `i`'s lanes (all inside one golden span) into
    /// `buf`.
    fn fill(&self, i: usize, buf: &mut Vec<Self::Lane>);

    /// Scatters chunk `i`'s verdicts back into submission order.
    fn scatter(&self, i: usize, out: &[FaultOutcome], dest: &mut [FaultOutcome]);
}

/// A single-fault campaign cut into chunks, in cycle-major order. For
/// the exhaustive source the chunks are computed arithmetically, one
/// cycle at a time, so campaign memory is independent of the
/// fault-space size; an explicit list is packed span by span.
#[derive(Debug)]
pub(crate) enum ChunkPlan<'a> {
    /// The full `flip-flops × cycles` space; chunk `i` is derived from
    /// its index alone.
    Exhaustive {
        /// Flip-flop dimension.
        num_ffs: usize,
        /// Fault lanes per chunk (63: the grader's golden companion
        /// machine reserves lane 63).
        lanes: usize,
        /// Chunks per cycle: `ceil(num_ffs / lanes)`.
        per_cycle: usize,
        /// Total chunks: `per_cycle × num_cycles`.
        chunks: usize,
        /// Total faults.
        faults: usize,
    },
    /// An explicit list (a borrowed list or a drawn sample), in
    /// submission order, with its span-packed chunking.
    Ordered(Cow<'a, FaultList>, SpanOrder),
}

impl<'a> ChunkPlan<'a> {
    /// Plans the exhaustive `num_ffs × num_cycles` space without
    /// materializing it, cutting each cycle into chunks of at most
    /// `lanes` faults.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or exceeds the 64-lane word width.
    pub(crate) fn exhaustive(num_ffs: usize, num_cycles: usize, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "chunk lanes out of range");
        let per_cycle = num_ffs.div_ceil(lanes);
        ChunkPlan::Exhaustive {
            num_ffs,
            lanes,
            per_cycle,
            chunks: per_cycle * num_cycles,
            faults: num_ffs * num_cycles,
        }
    }

    /// The planned faults in submission order (the exhaustive space
    /// materialized) — what a materialized run reports alongside its
    /// verdicts.
    pub(crate) fn into_fault_list(self, num_cycles: usize) -> FaultList {
        match self {
            ChunkPlan::Exhaustive { num_ffs, .. } => FaultList::exhaustive(num_ffs, num_cycles),
            ChunkPlan::Ordered(faults, _) => faults.into_owned(),
        }
    }
}

impl Chunks for ChunkPlan<'_> {
    type Lane = Fault;

    fn num_chunks(&self) -> usize {
        match self {
            ChunkPlan::Exhaustive { chunks, .. } => *chunks,
            ChunkPlan::Ordered(_, order) => order.num_chunks(),
        }
    }

    fn num_faults(&self) -> usize {
        match self {
            ChunkPlan::Exhaustive { faults, .. } => *faults,
            ChunkPlan::Ordered(faults, _) => faults.len(),
        }
    }

    fn faults_before(&self, chunk: usize) -> usize {
        match self {
            ChunkPlan::Exhaustive { num_ffs, lanes, per_cycle, chunks, faults } => {
                if chunk >= *chunks {
                    return *faults;
                }
                // Within a cycle, chunk j starts at flip-flop j*lanes,
                // and j*lanes < num_ffs for every in-cycle index.
                (chunk / per_cycle) * num_ffs + (chunk % per_cycle) * lanes
            }
            ChunkPlan::Ordered(_, order) => order.faults_before(chunk),
        }
    }

    fn fill(&self, i: usize, buf: &mut Vec<Fault>) {
        buf.clear();
        match self {
            ChunkPlan::Exhaustive { num_ffs, lanes, per_cycle, .. } => {
                let cycle = (i / per_cycle) as u32;
                let lo = (i % per_cycle) * lanes;
                let hi = (lo + lanes).min(*num_ffs);
                buf.extend((lo..hi).map(|ff| Fault::new(FfIndex::new(ff), cycle)));
            }
            ChunkPlan::Ordered(faults, order) => {
                let faults = faults.as_slice();
                buf.extend(order.chunk(i).map(|fi| faults[fi]));
            }
        }
    }

    fn scatter(&self, i: usize, out: &[FaultOutcome], dest: &mut [FaultOutcome]) {
        match self {
            ChunkPlan::Exhaustive { num_ffs, lanes, per_cycle, .. } => {
                // Exhaustive submission order *is* cycle-major, so the
                // chunk lands contiguously.
                let cycle = i / per_cycle;
                let start = cycle * num_ffs + (i % per_cycle) * lanes;
                dest[start..start + out.len()].copy_from_slice(out);
            }
            ChunkPlan::Ordered(_, order) => order.scatter(i, out, dest),
        }
    }
}

/// A multi-bit-upset campaign cut into span-packed chunks: each lane
/// flips one [`MultiFault`]'s whole flip-flop set.
#[derive(Debug)]
pub(crate) struct MultiPlan<'a> {
    /// The MBUs, in submission order.
    faults: &'a [MultiFault],
    order: SpanOrder,
}

impl<'a> MultiPlan<'a> {
    /// Plans an MBU list with its chunking (see
    /// [`Grader::span_order`](seugrade_faultsim::Grader::span_order)).
    pub(crate) fn new(faults: &'a [MultiFault], order: SpanOrder) -> Self {
        MultiPlan { faults, order }
    }
}

impl<'a> Chunks for MultiPlan<'a> {
    type Lane = &'a MultiFault;

    fn num_chunks(&self) -> usize {
        self.order.num_chunks()
    }

    fn num_faults(&self) -> usize {
        self.faults.len()
    }

    fn faults_before(&self, chunk: usize) -> usize {
        self.order.faults_before(chunk)
    }

    fn fill(&self, i: usize, buf: &mut Vec<&'a MultiFault>) {
        buf.clear();
        buf.extend(self.order.chunk(i).map(|fi| &self.faults[fi]));
    }

    fn scatter(&self, i: usize, out: &[FaultOutcome], dest: &mut [FaultOutcome]) {
        self.order.scatter(i, out, dest);
    }
}

/// An online accumulator of streamed verdicts.
///
/// One sink is created per worker ([`Default`]); the pool folds every
/// graded `(fault, outcome)` pair into the worker's private sink and
/// merges the sinks after the join, in worker order. Because workers
/// race for chunks, `observe`/`merge` **must be order-insensitive**
/// (commutative tallies, sums, maxima, …) — that is what makes a
/// streamed campaign bit-identical at every thread count. The agreement
/// suites enforce the property against the serial reference.
pub trait VerdictSink: Default + Send {
    /// Folds one graded fault into the sink.
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome);

    /// Absorbs another worker's sink.
    fn merge(&mut self, other: Self);
}

/// The standard streaming sink: class tallies, a per-flip-flop failure
/// map, and an order-independent verdict digest.
#[derive(Clone, Debug, Default)]
pub struct StreamAccumulator {
    summary: GradingSummary,
    failure_map: Vec<usize>,
    digest: u64,
}

/// One fault's contribution to the order-independent digest: a
/// SplitMix64-style finalizer over the packed `(fault, outcome)`,
/// combined across faults with wrapping addition (commutative), so the
/// digest is a fault-for-fault fingerprint of the whole verdict set.
fn verdict_hash(fault: Fault, outcome: FaultOutcome) -> u64 {
    let tag = |c: Option<u32>| c.map_or(u64::MAX, u64::from);
    let mut z = ((fault.ff.index() as u64) << 32) | u64::from(fault.cycle);
    z = z
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(match outcome.class {
            FaultClass::Failure => 1,
            FaultClass::Latent => 2,
            FaultClass::Silent => 3,
        })
        .wrapping_add(tag(outcome.detect_cycle).rotate_left(17))
        .wrapping_add(tag(outcome.converge_cycle).rotate_left(41));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StreamAccumulator {
    /// Reassembles an accumulator from persisted parts (the inverse of
    /// reading [`summary`](Self::summary), [`failure_map`](Self::failure_map)
    /// and [`digest`](Self::digest)); used when restoring a campaign
    /// checkpoint.
    pub(crate) fn from_parts(
        summary: GradingSummary,
        failure_map: Vec<usize>,
        digest: u64,
    ) -> Self {
        StreamAccumulator { summary, failure_map, digest }
    }

    /// Pooled classification tallies.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// Failure count per flip-flop index (the weak-area map); indices
    /// past the highest failing flip-flop may be absent.
    #[must_use]
    pub fn failure_map(&self) -> &[usize] {
        &self.failure_map
    }

    /// Order-independent fingerprint of every `(fault, verdict)` pair.
    ///
    /// Two campaigns over the same fault set produced this digest
    /// equally iff they agreed on (essentially) every single verdict —
    /// whatever their thread counts, chunk schedules or
    /// [`TracePolicy`](seugrade_sim::TracePolicy)s.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Computes the digest of a materialized `(faults, outcomes)` pair —
    /// the bridge for comparing a streamed run against a serial or
    /// materialized reference.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn digest_of(faults: &[Fault], outcomes: &[FaultOutcome]) -> u64 {
        assert_eq!(faults.len(), outcomes.len(), "outcomes parallel to faults");
        faults
            .iter()
            .zip(outcomes)
            .fold(0u64, |acc, (&f, &o)| acc.wrapping_add(verdict_hash(f, o)))
    }
}

impl VerdictSink for StreamAccumulator {
    fn observe(&mut self, fault: Fault, outcome: FaultOutcome) {
        self.summary.add(outcome.class);
        if outcome.class == FaultClass::Failure {
            let ff = fault.ff.index();
            if self.failure_map.len() <= ff {
                self.failure_map.resize(ff + 1, 0);
            }
            self.failure_map[ff] += 1;
        }
        self.digest = self.digest.wrapping_add(verdict_hash(fault, outcome));
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(&other.summary);
        if self.failure_map.len() < other.failure_map.len() {
            self.failure_map.resize(other.failure_map.len(), 0);
        }
        for (dst, src) in self.failure_map.iter_mut().zip(&other.failure_map) {
            *dst += src;
        }
        self.digest = self.digest.wrapping_add(other.digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An explicit-list plan packed into golden spans of `span` cycles.
    fn ordered(list: &FaultList, num_cycles: usize, span: usize, lanes: usize) -> ChunkPlan<'_> {
        ChunkPlan::Ordered(Cow::Borrowed(list), SpanOrder::new(list.as_slice(), num_cycles, span, lanes))
    }

    #[test]
    fn exhaustive_plan_covers_the_space_in_cycle_major_order() {
        let plan = ChunkPlan::exhaustive(70, 3, 64);
        assert_eq!(plan.num_chunks(), 2 * 3);
        assert_eq!(plan.num_faults(), 210);
        let mut buf = Vec::new();
        let mut all = Vec::new();
        for i in 0..plan.num_chunks() {
            plan.fill(i, &mut buf);
            assert!(buf.len() <= 64 && !buf.is_empty());
            let t = buf[0].cycle;
            assert!(buf.iter().all(|f| f.cycle == t), "same-cycle chunk");
            all.extend_from_slice(&buf);
        }
        let reference = FaultList::exhaustive(70, 3);
        assert_eq!(all, reference.as_slice());
    }

    #[test]
    fn narrower_lane_plans_cover_the_same_space() {
        // 63-lane (companion) plans must enumerate exactly the same
        // faults in the same cycle-major order, just in more chunks.
        for (ffs, cycles) in [(70, 3), (64, 4), (63, 2), (1, 5)] {
            let plan = ChunkPlan::exhaustive(ffs, cycles, 63);
            let mut buf = Vec::new();
            let mut all = Vec::new();
            for i in 0..plan.num_chunks() {
                plan.fill(i, &mut buf);
                assert!(buf.len() <= 63 && !buf.is_empty());
                all.extend_from_slice(&buf);
            }
            let reference = FaultList::exhaustive(ffs, cycles);
            assert_eq!(all, reference.as_slice(), "{ffs}x{cycles}");
        }
    }

    #[test]
    fn ordered_plan_matches_exhaustive_plan_on_the_same_list() {
        let list = FaultList::exhaustive(70, 3);
        // One-cycle spans are the exhaustive plan's per-cycle cut.
        let ordered = ordered(&list, 3, 1, 64);
        let arithmetic = ChunkPlan::exhaustive(70, 3, 64);
        assert_eq!(ordered.num_chunks(), arithmetic.num_chunks());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..ordered.num_chunks() {
            ordered.fill(i, &mut a);
            arithmetic.fill(i, &mut b);
            assert_eq!(a, b, "chunk {i}");
        }
    }

    #[test]
    fn faults_before_matches_walked_prefix_sums() {
        let list = FaultList::sampled(70, 9, 150, 3);
        let plans = [
            ChunkPlan::exhaustive(70, 3, 64),
            ChunkPlan::exhaustive(70, 3, 63),
            ChunkPlan::exhaustive(64, 4, 63),
            ordered(&list, 9, 1, 64),
            ordered(&list, 9, 4, 63),
            ordered(&list, 9, 64, 63),
        ];
        for plan in &plans {
            let mut buf = Vec::new();
            let mut walked = 0usize;
            for i in 0..plan.num_chunks() {
                assert_eq!(plan.faults_before(i), walked, "chunk {i}");
                plan.fill(i, &mut buf);
                walked += buf.len();
            }
            assert_eq!(plan.faults_before(plan.num_chunks()), plan.num_faults());
            assert_eq!(plan.faults_before(plan.num_chunks() + 10), plan.num_faults());
        }
    }

    #[test]
    fn scatter_inverts_fill() {
        let list = FaultList::sampled(10, 9, 40, 3);
        let plan = ordered(&list, 9, 4, 64);
        let mut buf = Vec::new();
        let mut dest = vec![FaultOutcome::latent(); list.len()];
        for i in 0..plan.num_chunks() {
            plan.fill(i, &mut buf);
            // Tag each verdict with its fault's cycle so the scatter is
            // checkable.
            let out: Vec<FaultOutcome> =
                buf.iter().map(|f| FaultOutcome::failure(f.cycle)).collect();
            plan.scatter(i, &out, &mut dest);
        }
        for (f, o) in list.iter().zip(&dest) {
            assert_eq!(o.detect_cycle, Some(f.cycle), "{f}");
        }
    }

    #[test]
    fn accumulator_is_order_insensitive() {
        let list = FaultList::exhaustive(5, 7);
        let outcomes: Vec<FaultOutcome> = list
            .iter()
            .enumerate()
            .map(|(i, _)| match i % 3 {
                0 => FaultOutcome::failure(i as u32 % 7),
                1 => FaultOutcome::silent(i as u32 % 7),
                _ => FaultOutcome::latent(),
            })
            .collect();
        let mut forward = StreamAccumulator::default();
        for (f, &o) in list.iter().zip(&outcomes) {
            forward.observe(f, o);
        }
        let pairs: Vec<(Fault, FaultOutcome)> =
            list.iter().zip(outcomes.iter().copied()).collect();
        let mut halves = (StreamAccumulator::default(), StreamAccumulator::default());
        for (i, &(f, o)) in pairs.iter().enumerate().rev() {
            if i % 2 == 0 {
                halves.0.observe(f, o);
            } else {
                halves.1.observe(f, o);
            }
        }
        let mut merged = StreamAccumulator::default();
        merged.merge(halves.1);
        merged.merge(halves.0);
        assert_eq!(merged.summary(), forward.summary());
        assert_eq!(merged.failure_map(), forward.failure_map());
        assert_eq!(merged.digest(), forward.digest());
        assert_eq!(
            merged.digest(),
            StreamAccumulator::digest_of(list.as_slice(), &outcomes)
        );
    }

    #[test]
    fn digest_distinguishes_single_verdict_flips() {
        let list = FaultList::exhaustive(4, 4);
        let a = vec![FaultOutcome::latent(); list.len()];
        let mut b = a.clone();
        b[7] = FaultOutcome::silent(2);
        assert_ne!(
            StreamAccumulator::digest_of(list.as_slice(), &a),
            StreamAccumulator::digest_of(list.as_slice(), &b)
        );
    }
}
