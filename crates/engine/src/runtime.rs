//! The sharded campaign runtime.
//!
//! Every run path — materialized, one-shot streamed, resumable — resolves
//! its fault source into one cycle-major chunk plan and grades it
//! through one private chunk driver on the pool's one scheduler; the
//! paths differ only in what they fold each graded chunk into and
//! whether a round ends in a checkpoint. MBU campaigns take the same
//! driver: a lane is an injection set, and an SEU is its one-flip case.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use seugrade_faultsim::{Fault, FaultList, FaultOutcome, Grader, GradingSummary};
use seugrade_sim::BitCache;

use crate::error::EngineError;
use crate::plan::{CampaignPlan, FaultSource, Technique};
use crate::pool::{run_folded_ctl, FoldControl};
use crate::progress::{EngineStats, ProgressEvent};
use crate::resume::{Checkpoint, Fingerprint, PersistentSink, ResumeError, ResumeOptions};
use crate::stream::{ChunkPlan, Chunks, MultiPlan, VerdictSink};

/// Observer of finished chunks, called from worker threads.
type ChunkProgress<'r> = &'r (dyn Fn(ProgressEvent) + Sync);

/// How the chunk driver walks a campaign's queue.
struct Rounds<'r> {
    /// First chunk to grade: a resume cursor, 0 for fresh runs.
    from: usize,
    /// Chunks per round; every round ends in a join barrier (and, on
    /// the resumable path, a checkpoint).
    every: usize,
    /// Grade at most this many chunks in this invocation.
    limit: Option<usize>,
    /// Cancellation and panic-retry control.
    ctl: FoldControl<'r>,
    /// Per-chunk progress callback; `None` costs nothing.
    progress: Option<ChunkProgress<'r>>,
}

impl Rounds<'_> {
    /// The whole queue as a single round: no cancellation, no
    /// checkpoint, no progress callback, default retry budget.
    fn once() -> Self {
        Rounds { from: 0, every: usize::MAX, limit: None, ctl: FoldControl::default(), progress: None }
    }
}

/// What the chunk driver got through.
struct Driven {
    /// Chunks completed, cumulative from chunk 0.
    done: usize,
    /// True when the driver stopped before the last chunk.
    interrupted: bool,
    /// The run's cost (`faults`/`shards` cumulative from chunk 0).
    stats: EngineStats,
}

/// Folds a graded chunk into a [`VerdictSink`].
fn observe_chunk<A: VerdictSink>(
    sink: &mut A,
    _chunk: usize,
    faults: &[Fault],
    out: &[FaultOutcome],
) {
    for (&f, &o) in faults.iter().zip(out) {
        sink.observe(f, o);
    }
}

/// One finished campaign: its verdicts (in submission order), the
/// pooled summary and the runtime statistics — plus the single-fault
/// list for SEU campaigns (an MBU campaign's faults are the list its
/// plan was built with).
#[derive(Clone, Debug)]
pub struct CampaignRun {
    faults: Option<FaultList>,
    outcomes: Vec<FaultOutcome>,
    summary: GradingSummary,
    stats: EngineStats,
    techniques: Vec<Technique>,
}

impl CampaignRun {
    /// The single-fault list, if this was a single-fault campaign.
    #[must_use]
    pub fn single(&self) -> Option<&FaultList> {
        self.faults.as_ref()
    }

    /// Per-fault verdicts, in the order of the plan's faults.
    #[must_use]
    pub fn outcomes(&self) -> &[FaultOutcome] {
        &self.outcomes
    }

    /// Pooled classification tallies.
    #[must_use]
    pub fn summary(&self) -> &GradingSummary {
        &self.summary
    }

    /// What the run cost.
    #[must_use]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The techniques the plan targeted.
    #[must_use]
    pub fn techniques(&self) -> &[Technique] {
        &self.techniques
    }

    /// Consumes the run into `(fault list, outcomes)` for single-fault
    /// campaigns (`None` for MBU campaigns).
    #[must_use]
    pub fn into_single(self) -> Option<(FaultList, Vec<FaultOutcome>)> {
        Some((self.faults?, self.outcomes))
    }
}

/// One invocation of the **resumable** streaming path: the folded sink
/// so far, the thread-count-independent chunk cursor, and whether the
/// run stopped early (cancelled or chunk-limited) or finished.
///
/// Produced by [`Engine::run_streamed_resumable_with`]. The cursor
/// counts an exact prefix of the cycle-major chunk queue, so
/// `chunks_done` identifies precisely which faults the sink has folded —
/// the invariant that lets a later invocation continue from a checkpoint
/// and land on the uninterrupted run's digest bit-for-bit.
#[derive(Clone, Debug)]
pub struct ResumableRun<A> {
    /// The folded sink — cumulative across all resumed invocations.
    pub sink: A,
    /// This invocation's cost (`faults`/`shards` are cumulative counts;
    /// `wall_ns` covers only this invocation).
    pub stats: EngineStats,
    /// Chunks completed so far (cumulative).
    pub chunks_done: usize,
    /// Total chunks in the campaign.
    pub chunks_total: usize,
    /// Faults folded so far (cumulative).
    pub faults_done: usize,
    /// Total faults in the campaign.
    pub faults_total: usize,
    /// Cursor position this invocation started from (0 for fresh runs).
    pub resumed_from: usize,
    /// True when the run stopped before the last chunk (cancellation or
    /// a chunk limit); a final checkpoint was written if one was
    /// configured.
    pub interrupted: bool,
}

impl<A> ResumableRun<A> {
    /// True when every chunk has been graded.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.chunks_done == self.chunks_total
    }
}

/// The campaign engine: a compiled simulator plus golden trace, reusable
/// across many plan executions (each run may use a different fault
/// source or shard policy).
///
/// It has one run method per result contract:
///
/// - [`run`](Self::run) materializes every verdict, for every fault
///   source (MBUs included);
/// - [`try_run_streamed_with`](Self::try_run_streamed_with) folds one
///   round into a [`VerdictSink`];
/// - [`run_streamed_resumable_with`](Self::run_streamed_resumable_with)
///   folds checkpointed rounds into a [`PersistentSink`].
///
/// # Determinism
///
/// Shards are batches of up to 63 faults inside one golden span (lane
/// 63 carries the golden companion) dispatched through a chunk queue;
/// which worker grades which shard varies run to run, but verdicts
/// depend only on the fault itself, and the engine merges per-shard
/// results back into submission order. Every `(fault source, seed)`
/// pair therefore produces **bit-identical outcomes at every thread
/// count**, equal to the serial reference engine — a property the
/// cross-engine agreement suite enforces.
#[derive(Debug)]
pub struct Engine {
    grader: Grader,
    /// Identity of the compiled circuit, kept so a run can reject plans
    /// for a *different* circuit that happens to share dimensions with
    /// this one.
    circuit_name: String,
    num_cells: usize,
}

impl Engine {
    /// Builds the runtime for a plan's circuit, test bench and
    /// golden-trace storage policy (runs the golden reference once).
    ///
    /// Under [`TracePolicy::Checkpoint`](seugrade_sim::TracePolicy::Checkpoint)
    /// the engine's golden-trace memory is `O(FFs × cycles / K)` and
    /// golden spans are replayed from the nearest checkpoint on demand;
    /// verdicts are bit-identical to the dense engine and to the serial
    /// reference (the agreement suites enforce both).
    #[must_use]
    pub fn new(plan: &CampaignPlan<'_>) -> Self {
        let circuit = plan.circuit();
        Engine {
            grader: Grader::with_policy(circuit, plan.testbench(), plan.trace_policy()),
            circuit_name: circuit.name().to_owned(),
            num_cells: circuit.num_cells(),
        }
    }

    /// The underlying grader (compiled simulator + golden trace).
    #[must_use]
    pub fn grader(&self) -> &Grader {
        &self.grader
    }

    /// Executes a plan, materializing every verdict in submission order.
    /// Every fault source grades through the one chunk driver; an MBU
    /// campaign's lanes flip each fault's whole flip-flop set.
    ///
    /// # Panics
    ///
    /// Panics if the plan's dimensions do not match the engine's circuit
    /// and test bench, or if a fault targets an out-of-range cycle or
    /// flip-flop.
    #[must_use]
    pub fn run(&self, plan: &CampaignPlan<'_>) -> CampaignRun {
        self.check_plan(plan);
        let (faults, outcomes, stats) = if let FaultSource::Multi(list) = plan.source() {
            let chunks = MultiPlan::new(list, self.grader.span_order(list));
            let (outcomes, stats) = self.materialize(plan, &chunks);
            (None, outcomes, stats)
        } else {
            let chunks = self.chunk_plan(plan.source());
            let (outcomes, stats) = self.materialize(plan, &chunks);
            (Some(chunks.into_fault_list(self.grader.testbench().num_cycles())), outcomes, stats)
        };
        CampaignRun {
            faults,
            summary: GradingSummary::from_outcomes(&outcomes),
            outcomes,
            stats,
            techniques: plan.techniques().to_vec(),
        }
    }

    /// Executes a single-fault plan through the **memory-bounded
    /// streaming path**: chunks are pulled lazily from the cycle-major
    /// chunk plan (the exhaustive space is never materialized) and
    /// verdicts fold into per-worker [`VerdictSink`]s (one
    /// `Default`-created per worker) that merge after the join —
    /// campaign memory is `O(threads × FFs)` on top of the golden trace,
    /// independent of `faults × cycles`. Sinks must be order-insensitive
    /// for the result to be schedule-independent; the standard
    /// [`StreamAccumulator`](crate::StreamAccumulator)'s digest proves
    /// the verdicts bit-identical to the materialized and serial engines.
    ///
    /// Worker panics are contained, retried up to a bounded budget, and
    /// surfaced as [`EngineError::WorkerPanic`] instead of propagating.
    /// The whole queue is one round: no checkpoint, no join barrier
    /// before the last chunk.
    ///
    /// # Panics
    ///
    /// Panics on plan/engine mismatch or a [`FaultSource::Multi`] source
    /// (programmer errors: a sink observes single faults); grading
    /// failures are `Err`.
    pub fn try_run_streamed_with<A: VerdictSink>(
        &self,
        plan: &CampaignPlan<'_>,
    ) -> Result<(A, EngineStats), EngineError> {
        self.check_plan(plan);
        let chunks = self.chunk_plan(plan.source());
        let mut sink = A::default();
        let driven = self.drive(
            plan,
            &chunks,
            &Rounds::once(),
            &mut sink,
            A::merge,
            observe_chunk,
            |_, _| Ok(()),
        )?;
        Ok((sink, driven.stats))
    }

    /// The **interruption-safe** streaming path: grades in rounds of
    /// [`ResumeOptions::every`] chunks, persisting an atomic checkpoint
    /// (fingerprint + chunk cursor + folded sink) after every round, and
    /// stopping cleanly at chunk boundaries on cancellation or a chunk
    /// limit. With [`ResumeOptions::resume`] the campaign continues from
    /// the checkpoint's cursor instead of starting over — completed
    /// chunks are skipped arithmetically, never re-graded.
    ///
    /// Because completed chunks always form an exact queue prefix and
    /// the sink is order-insensitive, any interleaving of interruptions
    /// and resumes reproduces the uninterrupted run's digest exactly, at
    /// every thread count and trace policy.
    ///
    /// # Panics
    ///
    /// Panics on plan/engine mismatch, a [`FaultSource::Multi`] source,
    /// or `resume` without a checkpoint path (programmer errors). All
    /// checkpoint and grading failures are `Err`.
    pub fn run_streamed_resumable_with<A: PersistentSink>(
        &self,
        plan: &CampaignPlan<'_>,
        opts: &ResumeOptions,
    ) -> Result<ResumableRun<A>, EngineError> {
        self.check_plan(plan);
        assert!(
            !opts.resume || opts.checkpoint.is_some(),
            "resuming requires a checkpoint path"
        );
        let chunks = self.chunk_plan(plan.source());
        let fingerprint = Fingerprint::of(plan, chunks.num_chunks(), chunks.num_faults());

        let mut sink = A::default();
        let mut meta = opts.meta.clone();
        let mut from = 0usize;
        if opts.resume {
            let path = opts.checkpoint.as_ref().expect("checked above");
            let ck = Checkpoint::load(path)?;
            ck.verify(&fingerprint)?;
            // The cursor must sit on a real chunk boundary of *this*
            // plan; the fingerprint matched, so a disagreement here
            // means the file's cursor line was rewritten.
            if ck.faults_done() != chunks.faults_before(ck.chunks_done()) {
                return Err(ResumeError::Corrupt {
                    line: 8,
                    msg: format!(
                        "cursor {} {} does not sit on a chunk boundary of this plan",
                        ck.chunks_done(),
                        ck.faults_done()
                    ),
                }
                .into());
            }
            from = ck.chunks_done();
            sink = ck.restore_sink::<A>()?;
            meta = ck.meta().to_vec();
        }

        let save = |done: usize, sink: &A| -> Result<(), EngineError> {
            if let Some(path) = &opts.checkpoint {
                let faults_done = chunks.faults_before(done);
                Checkpoint::new(fingerprint.clone(), done, faults_done, meta.clone(), sink)
                    .write_atomic(path)?;
            }
            Ok(())
        };
        let rounds = Rounds {
            from,
            every: opts.every.max(1),
            limit: opts.limit,
            ctl: FoldControl { cancel: opts.cancel.as_ref(), retry_budget: opts.retry_budget },
            progress: opts.progress.as_ref().map(|hook| hook.as_fn()),
        };
        let driven =
            self.drive(plan, &chunks, &rounds, &mut sink, A::merge, observe_chunk, save)?;
        // Zero-round invocations (already complete, limit 0, pre-
        // cancelled) still leave a valid checkpoint behind.
        if driven.done == from {
            save(from, &sink)?;
        }

        Ok(ResumableRun {
            sink,
            chunks_done: driven.done,
            chunks_total: chunks.num_chunks(),
            faults_done: driven.stats.faults,
            faults_total: chunks.num_faults(),
            resumed_from: from,
            interrupted: driven.interrupted,
            stats: driven.stats,
        })
    }

    /// Rejects plans built for a different circuit or test bench.
    fn check_plan(&self, plan: &CampaignPlan<'_>) {
        assert_eq!(
            plan.testbench(),
            self.grader.testbench(),
            "plan test bench does not match engine"
        );
        assert!(
            plan.circuit().name() == self.circuit_name
                && plan.circuit().num_cells() == self.num_cells
                && plan.circuit().num_ffs() == self.grader.sim().num_ffs(),
            "plan circuit does not match engine"
        );
    }

    /// Resolves a single-fault source into its chunk plan. The
    /// exhaustive space chunks arithmetically, cycle by cycle; an
    /// explicit list is borrowed and packed span by span by the
    /// grader's [`span_order`](Grader::span_order); a sample is the one
    /// source that materializes its faults — only the drawn ones, the
    /// draw never builds the whole space. MBU sources are planned by
    /// [`run`](Self::run), the one path that grades them.
    fn chunk_plan<'p>(&self, source: &'p FaultSource) -> ChunkPlan<'p> {
        let num_ffs = self.grader.sim().num_ffs();
        let num_cycles = self.grader.testbench().num_cycles();
        let ordered = |list: Cow<'p, FaultList>| {
            let order = self.grader.span_order(list.as_slice());
            ChunkPlan::Ordered(list, order)
        };
        match source {
            FaultSource::Exhaustive => {
                ChunkPlan::exhaustive(num_ffs, num_cycles, self.grader.chunk_lanes())
            }
            FaultSource::Sampled { count, seed } => {
                ordered(Cow::Owned(FaultList::sampled(num_ffs, num_cycles, *count, *seed)))
            }
            FaultSource::List(list) => ordered(Cow::Borrowed(list)),
            FaultSource::Multi(_) => {
                panic!("streamed execution grades single-fault sources; use run() for MBUs")
            }
        }
    }

    /// Grades `chunks` as one round, scattering the verdicts back into
    /// submission order.
    fn materialize<C: Chunks>(
        &self,
        plan: &CampaignPlan<'_>,
        chunks: &C,
    ) -> (Vec<FaultOutcome>, EngineStats) {
        // Verdicts fold tagged with their chunk index and are scattered
        // into submission order after the join.
        let mut tagged: Vec<(usize, Vec<FaultOutcome>)> = Vec::new();
        let driven = self
            .drive(
                plan,
                chunks,
                &Rounds::once(),
                &mut tagged,
                |a: &mut Vec<_>, b| a.extend(b),
                |acc, i, _, out| acc.push((i, out.to_vec())),
                |_, _| Ok(()),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        let mut outcomes = vec![FaultOutcome::latent(); chunks.num_faults()];
        for (i, out) in &tagged {
            chunks.scatter(*i, out, &mut outcomes);
        }
        (outcomes, driven.stats)
    }

    /// The chunk driver every run path grades through.
    ///
    /// Grades `chunks` from `rounds.from` in rounds of `rounds.every`
    /// chunks on the pool. `fold` folds each graded chunk (its queue
    /// index, lanes and verdicts) into a per-worker accumulator; after
    /// each round's join the accumulators `merge` into `sink` and
    /// `after_round` sees the cumulative cursor. Stops early, between
    /// chunks, on cancellation or `rounds.limit`.
    #[allow(clippy::too_many_arguments)]
    fn drive<C: Chunks, A: Default + Send>(
        &self,
        plan: &CampaignPlan<'_>,
        chunks: &C,
        rounds: &Rounds<'_>,
        sink: &mut A,
        merge: impl Fn(&mut A, A) + Sync,
        fold: impl Fn(&mut A, usize, &[C::Lane], &[FaultOutcome]) + Sync,
        mut after_round: impl FnMut(usize, &A) -> Result<(), EngineError>,
    ) -> Result<Driven, EngineError> {
        let total = chunks.num_chunks();
        let threads = if chunks.num_faults() < plan.policy().serial_below {
            1
        } else {
            plan.policy().resolved_threads().max(1)
        };
        let cancelled = || rounds.ctl.cancel.is_some_and(crate::CancelToken::is_cancelled);
        // One golden span store per run, shared by every worker of every
        // round: a span is replayed once per run, not once per worker or
        // round.
        let bits = BitCache::shared(plan.window_cache());
        let switches = AtomicU64::new(0);
        let start = Instant::now();
        let (mut done, mut interrupted) = (rounds.from, false);
        while done < total {
            let budget = rounds.limit.map_or(usize::MAX, |l| l.saturating_sub(done - rounds.from));
            if budget == 0 || cancelled() {
                interrupted = true;
                break;
            }
            let (base, round) = (done, rounds.every.min(total - done).min(budget));
            let status = run_folded_ctl(
                round,
                threads,
                // Per-worker: the grader's scratch (simulator state, span
                // cache handle, collapse mode, kernel), the chunk's lanes
                // and its verdicts.
                || {
                    let scratch = self
                        .grader
                        .new_scratch_with_cache(plan.collapse(), bits.clone_handle())
                        .with_kernel(plan.kernel());
                    (scratch, Vec::with_capacity(63), [FaultOutcome::latent(); 63])
                },
                A::default,
                &merge,
                |(st, buf, out), acc, i| {
                    let i = base + i;
                    chunks.fill(i, buf);
                    let out = &mut out[..buf.len()];
                    let before = st.kernel_switches();
                    self.grader.grade_chunk(st, buf, out);
                    let switched = st.kernel_switches() - before;
                    if switched != 0 {
                        switches.fetch_add(switched, Ordering::Relaxed);
                    }
                    fold(acc, i, buf, out);
                    if let Some(progress) = rounds.progress {
                        let summary = GradingSummary::from_outcomes(out);
                        progress(ProgressEvent { shard: i, faults: buf.len(), summary });
                    }
                },
                &rounds.ctl,
            )?;
            for acc in status.accs {
                merge(sink, acc);
            }
            done += status.completed;
            interrupted = status.completed < round;
            after_round(done, sink)?;
            if interrupted {
                break;
            }
        }
        let stats = EngineStats {
            faults: chunks.faults_before(done),
            shards: done,
            threads: threads.min(total.max(1)),
            wall_ns: start.elapsed().as_nanos(),
            kernel_switches: switches.into_inner(),
        };
        Ok(Driven { done, interrupted, stats })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    use seugrade_circuits::{generators, registry};
    use seugrade_faultsim::{FaultClass, MultiFault};
    use seugrade_netlist::Netlist;
    use seugrade_sim::{Kernel, Testbench, TracePolicy};

    use crate::plan::ShardPolicy;
    use crate::progress::ProgressHook;
    use crate::stream::StreamAccumulator;
    use super::*;

    /// An engine for the default plan of a circuit / test-bench pair.
    fn engine_for(circuit: &Netlist, tb: &Testbench) -> Engine {
        Engine::new(&CampaignPlan::builder(circuit, tb).build())
    }

    /// One streamed round into the standard accumulator.
    fn streamed(engine: &Engine, plan: &CampaignPlan<'_>) -> (StreamAccumulator, EngineStats) {
        engine.try_run_streamed_with::<StreamAccumulator>(plan).expect("streamed run")
    }

    #[test]
    fn exhaustive_matches_serial_engine_at_every_thread_count() {
        let circuit = registry::build("b03s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 25, 3);
        let grader = Grader::new(&circuit, &tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), 25);
        let serial = grader.run_serial(faults.as_slice());
        for threads in [1, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = plan.execute();
            assert_eq!(run.outcomes(), serial.as_slice(), "{threads} threads");
            assert_eq!(run.summary(), &GradingSummary::from_outcomes(&serial));
            assert_eq!(run.stats().threads, threads.min(run.stats().shards.max(1)));
        }
    }

    #[test]
    fn every_run_path_counts_auto_kernel_switches() {
        let circuit = registry::build("viper").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 12, 5);
        let plan_for = |kernel| {
            CampaignPlan::builder(&circuit, &tb)
                .trace_policy(TracePolicy::Checkpoint(4))
                .kernel(kernel)
                .threads(2)
                .build()
        };
        let auto = plan_for(Kernel::Auto);
        let engine = Engine::new(&auto);
        let materialized = engine.run(&auto);
        let one_round = streamed(&engine, &auto);
        // Rounds of 3 chunks: the resumable path crosses many join
        // barriers where the other two run the queue as one round.
        let resumable = engine
            .run_streamed_resumable_with::<StreamAccumulator>(
                &auto,
                &ResumeOptions { every: 3, ..ResumeOptions::default() },
            )
            .unwrap();
        assert!(resumable.is_complete());
        assert!(resumable.chunks_total > 3 * 2, "the queue spans several rounds");

        let m = materialized.stats();
        assert!(m.kernel_switches > 0, "viper's cones flood under auto");
        let digest = StreamAccumulator::digest_of(
            materialized.single().unwrap().as_slice(),
            materialized.outcomes(),
        );
        for (path, (sink, s)) in
            [("streamed", &one_round), ("resumable", &(resumable.sink, resumable.stats))]
        {
            assert_eq!(
                (s.faults, s.shards, s.threads, s.kernel_switches),
                (m.faults, m.shards, m.threads, m.kernel_switches),
                "{path} stats"
            );
            assert_eq!(sink.summary(), materialized.summary(), "{path} summary");
            assert_eq!(sink.digest(), digest, "{path} digest");
        }
        let differential = plan_for(Kernel::Differential);
        assert_eq!(streamed(&engine, &differential).1.kernel_switches, 0);
    }

    #[test]
    fn worker_count_is_capped_at_shard_count() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4); // 8 faults -> 4 one-cycle shards
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy::with_threads(8))
            .build();
        let run = plan.execute();
        assert_eq!(run.stats().shards, 4);
        assert_eq!(run.stats().threads, 4, "stats report actual workers, not the request");
    }

    #[test]
    fn sampled_runs_are_seed_deterministic() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 30, 11);
        let engine = engine_for(&circuit, &tb);
        let a = engine.run(
            &CampaignPlan::builder(&circuit, &tb).sampled(50, 23).threads(4).build(),
        );
        let b = engine.run(&CampaignPlan::builder(&circuit, &tb).sampled(50, 23).build());
        assert_eq!(a.single(), b.single(), "same sample whatever the policy");
        assert_eq!(a.outcomes(), b.outcomes());
        assert_eq!(a.single().unwrap().len(), 50);
    }

    #[test]
    fn explicit_list_roundtrips_in_submission_order() {
        let circuit = generators::shift_register(6);
        let tb = Testbench::random(1, 15, 3);
        let grader = Grader::new(&circuit, &tb);
        // A deliberately shuffled (reverse cycle-major) list.
        let mut faults: Vec<Fault> = FaultList::exhaustive(6, 15).iter().collect();
        faults.reverse();
        let list = FaultList::from_faults(faults.clone(), 6, 15);
        let serial = grader.run_serial(&faults);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(list)
            .policy(ShardPolicy::with_threads(3))
            .build();
        let run = plan.execute();
        assert_eq!(run.outcomes(), serial.as_slice());
    }

    #[test]
    fn multi_fault_campaign_matches_serial_multi_engine() {
        let circuit = generators::lfsr(6, &[5, 2]);
        let tb = Testbench::constant_low(0, 12);
        let grader = Grader::new(&circuit, &tb);
        let faults = MultiFault::adjacent_pairs(6, 12, 2);
        let serial = grader.run_multi(&faults);
        for threads in [1, 3] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .multi(faults.clone())
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = plan.execute();
            assert_eq!(run.outcomes(), serial.as_slice(), "{threads} threads");
            assert!(run.single().is_none());
            assert!(run.into_single().is_none());
        }
    }

    #[test]
    fn mbu_runs_shard_into_span_packed_chunks_and_count_kernel_switches() {
        let circuit = registry::build("viper").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 12, 5);
        let faults = MultiFault::adjacent_pairs(circuit.num_ffs(), 12, 2);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .multi(faults.clone())
            .trace_policy(TracePolicy::Checkpoint(4))
            .threads(2)
            .build();
        let run = plan.execute();
        // 214 pairs per cycle, 4 cycles per golden span, cut at 63
        // lanes: 14 chunks per span, 3 spans.
        let per_span = (4 * (circuit.num_ffs() - 1)).div_ceil(63);
        assert_eq!(run.stats().shards, per_span * 3);
        assert_eq!(run.stats().faults, faults.len());
        assert!(run.stats().kernel_switches > 0, "viper's MBU cones flood under auto");
        assert_eq!(run.outcomes(), Engine::new(&plan).grader().run_multi(&faults).as_slice());
    }

    #[test]
    fn progress_events_cover_every_fault_exactly_once() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 20, 5);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy::with_threads(2))
            .build();
        let counts = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        let seen = Arc::clone(&counts);
        let opts = ResumeOptions {
            every: 5,
            progress: Some(ProgressHook::new(move |e| {
                seen.0.fetch_add(e.faults, Ordering::Relaxed);
                seen.1.fetch_add(1, Ordering::Relaxed);
            })),
            ..ResumeOptions::default()
        };
        let run = Engine::new(&plan)
            .run_streamed_resumable_with::<StreamAccumulator>(&plan, &opts)
            .unwrap();
        assert_eq!(counts.0.load(Ordering::Relaxed), circuit.num_ffs() * 20);
        assert_eq!(counts.0.load(Ordering::Relaxed), run.faults_total);
        assert_eq!(counts.1.load(Ordering::Relaxed), run.chunks_total);
    }

    #[test]
    fn serial_below_forces_inline_execution() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 6);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .policy(ShardPolicy { threads: 8, serial_below: 1_000 })
            .build();
        let run = plan.execute();
        assert_eq!(run.stats().threads, 1, "18 faults < serial_below");
        assert_eq!(run.summary().count(FaultClass::Failure), run.outcomes().len());
    }

    #[test]
    fn empty_campaign_is_fine() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(FaultList::from_faults(Vec::new(), 2, 4))
            .build();
        let run = plan.execute();
        assert!(run.outcomes().is_empty());
        assert_eq!(run.stats().shards, 0);
        assert_eq!(run.summary().total(), 0);
    }

    #[test]
    fn engine_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<CampaignRun>();
        assert_send_sync::<EngineStats>();
        assert_send_sync::<ResumableRun<StreamAccumulator>>();
    }

    #[test]
    fn streamed_run_matches_materialized_at_every_thread_count() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 24, 7);
        let engine = engine_for(&circuit, &tb);
        let reference = engine.run(&CampaignPlan::builder(&circuit, &tb).build());
        let ref_digest = StreamAccumulator::digest_of(
            reference.single().unwrap().as_slice(),
            reference.outcomes(),
        );
        for threads in [1, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(crate::ShardPolicy::with_threads(threads))
                .build();
            let (acc, stats) = streamed(&engine, &plan);
            assert_eq!(acc.summary(), reference.summary(), "{threads} threads");
            assert_eq!(acc.digest(), ref_digest, "{threads} threads");
            assert_eq!(stats.faults, reference.outcomes().len());
            assert_eq!(stats.shards, reference.stats().shards);
        }
        // Failure map agrees with the grader's materialized one.
        let map = engine
            .grader()
            .failure_map(reference.single().unwrap().as_slice(), reference.outcomes());
        let (acc, _) = streamed(&engine, &CampaignPlan::builder(&circuit, &tb).build());
        assert_eq!(&map[..acc.failure_map().len()], acc.failure_map());
        assert!(map[acc.failure_map().len()..].iter().all(|&c| c == 0));
    }

    #[test]
    fn streamed_checkpoint_engine_matches_dense_and_serial() {
        let circuit = registry::build("b03s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 40, 11);
        let grader = Grader::new(&circuit, &tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), 40);
        let serial = grader.run_serial(faults.as_slice());
        let serial_digest = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        for k in [1, 7, 40, 64] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(TracePolicy::Checkpoint(k))
                .threads(2)
                .build();
            let engine = Engine::new(&plan);
            assert_eq!(engine.grader().trace_policy(), TracePolicy::Checkpoint(k));
            assert_eq!(streamed(&engine, &plan).0.digest(), serial_digest, "K={k}");
            // The materialized path agrees under the same policy too.
            let run = engine.run(&plan);
            assert_eq!(run.outcomes(), serial.as_slice(), "K={k} materialized");
        }
    }

    #[test]
    fn streamed_sampled_and_list_sources_agree_with_run() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 20, 3);
        let engine = engine_for(&circuit, &tb);
        for source in [
            FaultSource::Sampled { count: 50, seed: 23 },
            FaultSource::List(FaultList::sampled(circuit.num_ffs(), 20, 30, 5)),
        ] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .source(source)
                .threads(3)
                .build();
            let run = engine.run(&plan);
            let (acc, _) = streamed(&engine, &plan);
            assert_eq!(acc.summary(), run.summary());
            assert_eq!(
                acc.digest(),
                StreamAccumulator::digest_of(run.single().unwrap().as_slice(), run.outcomes())
            );
        }
    }

    #[test]
    #[should_panic(expected = "single-fault sources")]
    fn streamed_multi_source_rejected() {
        let circuit = generators::counter(3);
        let tb = Testbench::constant_low(0, 6);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .multi(MultiFault::adjacent_pairs(3, 6, 2))
            .build();
        let _ = streamed(&Engine::new(&plan), &plan);
    }

    #[test]
    fn streamed_empty_campaign_is_fine() {
        let circuit = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(FaultList::from_faults(Vec::new(), 2, 4))
            .build();
        let (acc, stats) = streamed(&Engine::new(&plan), &plan);
        assert_eq!(acc.summary().total(), 0);
        assert_eq!(acc.digest(), 0);
        assert_eq!(stats.shards, 0);
    }

    #[test]
    #[should_panic(expected = "does not match engine")]
    fn mismatched_plan_rejected() {
        let c1 = generators::counter(2);
        let tb1 = Testbench::constant_low(0, 4);
        let tb2 = Testbench::constant_low(0, 9);
        let engine = engine_for(&c1, &tb1);
        let plan = CampaignPlan::builder(&c1, &tb2).build();
        let _ = engine.run(&plan);
    }

    #[test]
    #[should_panic(expected = "test bench does not match")]
    fn same_shape_different_stimuli_rejected() {
        // Same width and cycle count, different input vectors: grading
        // against the wrong golden trace must not happen silently.
        let circuit = generators::shift_register(4);
        let tb1 = Testbench::random(1, 10, 1);
        let tb2 = Testbench::random(1, 10, 2);
        let engine = engine_for(&circuit, &tb1);
        let plan = CampaignPlan::builder(&circuit, &tb2).build();
        let _ = engine.run(&plan);
    }

    #[test]
    #[should_panic(expected = "circuit does not match")]
    fn different_circuit_with_same_dimensions_rejected() {
        // Both circuits: 0 inputs, 4 flip-flops — dimensions alone would
        // not catch the swap.
        let c1 = generators::counter(4);
        let c2 = generators::lfsr(4, &[3, 2]);
        let tb = Testbench::constant_low(0, 8);
        let engine = engine_for(&c1, &tb);
        let plan = CampaignPlan::builder(&c2, &tb).build();
        let _ = engine.run(&plan);
    }
}
