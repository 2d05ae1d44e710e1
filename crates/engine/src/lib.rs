//! `seugrade-engine` — the sharded, multi-threaded campaign runtime.
//!
//! The paper's core argument is that fault grading must be *fast at
//! campaign scale*: autonomous emulation removes the per-fault host
//! bottleneck and grades all 34,400 b14 faults in bulk. This crate is the
//! software analogue of that move for the workspace's own engines — where
//! [`Grader`](seugrade_faultsim::Grader) runs one fault list on one core,
//! this runtime shards a campaign into batches of up to 63 faults
//! inside one golden span (lane 63 carries the golden companion),
//! dispatches them
//! across a home-grown chunk-queue thread pool (`std::thread::scope`,
//! no external dependencies), and merges the
//! per-shard verdicts **deterministically**: every thread count produces
//! bit-identical outcomes, equal to the serial reference engine.
//!
//! | module | role |
//! |--------|------|
//! | [`plan`] | [`CampaignPlan`] builder: circuit × test bench × fault source (SEUs or MBUs) × techniques × [`ShardPolicy`] × `TracePolicy` |
//! | [`runtime`] | [`Engine`]: one chunk driver behind three run methods — materialized [`CampaignRun`], one streamed round, checkpointed [`ResumableRun`] rounds |
//! | [`stream`] | cycle-major chunk plans for every fault source and online [`VerdictSink`]s — the memory-bounded campaign core |
//! | [`resume`] | `seugrade-campaign-ckpt/v2` checkpoints, [`Fingerprint`] verification, [`PersistentSink`] — the interruption-safety layer |
//! | [`error`] | [`EngineError`]: structured failures (worker panics, checkpoint problems) |
//! | [`cancel`] | [`CancelToken`]: cooperative chunk-boundary cancellation |
//! | [`progress`] | per-shard [`ProgressEvent`]s, the [`ProgressHook`] resumable runs call, [`EngineStats`] |
//! | [`mod@bench`] | [`throughput_harness`] and the stable `BENCH_engine.json` schema |
//!
//! # Example
//!
//! ```
//! use seugrade_circuits::generators;
//! use seugrade_engine::{CampaignPlan, ShardPolicy};
//! use seugrade_sim::Testbench;
//!
//! let circuit = generators::lfsr(8, &[7, 5, 4, 3]);
//! let tb = Testbench::constant_low(0, 20);
//! let plan = CampaignPlan::builder(&circuit, &tb)
//!     .policy(ShardPolicy::with_threads(2))
//!     .build();
//! let run = plan.execute();
//! assert_eq!(run.summary().total(), 8 * 20);
//! println!("{}", run.stats());
//! ```
//!
//! # Determinism guarantees
//!
//! Fault verdicts depend only on the fault itself (a property the
//! bit-parallel engine already has: lanes are independent), so the only
//! thing scheduling can change is *order*. The runtime pins order down by
//! tagging every shard with its queue index and scattering per-shard
//! outcome vectors back into submission order after the join. Progress
//! events are the one observable that *does* vary run to run — they fire
//! as shards finish.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cancel;
pub mod error;
pub mod plan;
mod pool;
pub mod progress;
pub mod resume;
pub mod runtime;
pub mod stream;

pub use bench::{
    host_cores, throughput_harness, BenchRecord, BenchReport, GradeBenchReport, GradeRecord,
    BENCH_SCHEMA, GRADE_BENCH_SCHEMA,
};
pub use cancel::CancelToken;
pub use error::EngineError;
pub use plan::{CampaignPlan, CampaignPlanBuilder, FaultSource, ShardPolicy, Technique};
pub use progress::{EngineStats, ProgressEvent, ProgressHook};
pub use resume::{
    write_durable, Checkpoint, Fingerprint, PersistentSink, ResumeError, ResumeOptions,
    CKPT_SCHEMA, DEFAULT_CHECKPOINT_EVERY,
};
pub use runtime::{CampaignRun, Engine, ResumableRun};
pub use stream::{StreamAccumulator, VerdictSink};
