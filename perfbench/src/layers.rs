//! Per-layer probes of a traced run: the benchmark's own calls into
//! each crate's public functions, timed and counted one layer at a
//! time. No crate source is instrumented.

use std::hint::black_box;
use std::time::Instant;

use seugrade_engine::{CampaignPlan, Engine};
use seugrade_faultsim::{FaultList, FaultOutcome};
use seugrade_netlist::Netlist;
use seugrade_sim::{BitCache, CompiledSim, Kernel, Testbench, TracePolicy, WindowCache};

use crate::stats;

/// Repetitions behind every median-timed probe.
pub const PROBE_REPS: usize = 5;

/// Milliseconds since `t0`.
#[must_use]
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` [`PROBE_REPS`] times; returns the last result and the
/// median time in ms.
pub fn median_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        last = Some(black_box(f()));
        times.push(ms_since(t0));
    }
    (
        last.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// Layer costs of one campaign shape (circuit × bench × plan).
#[derive(Debug)]
pub struct ShapeProbe {
    /// `Netlist::levelize` + `levelized_fanout`.
    pub levelize_ms: f64,
    /// `CompiledSim::new`.
    pub compile_ms: f64,
    /// `CompiledSim::run_golden_with` under the plan's trace policy.
    pub golden_ms: f64,
    /// `GoldenTrace::stored_bits`.
    pub golden_stored_bits: f64,
    /// Every golden span of the bench through a fresh span cache.
    pub span_replay_ms: f64,
    /// Golden cycles that replay re-simulated.
    pub span_replayed_cycles: f64,
    /// `FaultList::sampled` (0 for an exhaustive source).
    pub sample_ms: f64,
    /// `Grader::grade_chunk` on one thread, per fault.
    pub grade_us_per_fault: f64,
    /// `GradeScratch::sim_steps` of that drive, per fault.
    pub faulty_cycles_per_fault: f64,
    /// Faults one campaign of this shape grades.
    pub faults: f64,
}

/// Probes the layers under one campaign shape. `engine` must have been
/// built for `plan`.
#[must_use]
pub fn probe_shape(
    circuit: &Netlist,
    tb: &Testbench,
    plan: &CampaignPlan<'_>,
    sample: Option<(usize, u64)>,
    engine: &Engine,
) -> ShapeProbe {
    let (_, levelize_ms) = median_ms(|| {
        let lv = circuit.levelize().expect("workload circuits are acyclic");
        circuit.levelized_fanout(&lv)
    });
    let (sim, compile_ms) = median_ms(|| CompiledSim::new(circuit));
    let (golden, golden_ms) = median_ms(|| sim.run_golden_with(tb, plan.trace_policy()));
    let (num_ffs, num_cycles) = (circuit.num_ffs(), tb.num_cycles());
    let (faults, sample_ms) = match sample {
        Some((count, seed)) => median_ms(|| FaultList::sampled(num_ffs, num_cycles, count, seed)),
        None => (FaultList::exhaustive(num_ffs, num_cycles), 0.0),
    };
    let (span_replayed_cycles, span_replay_ms) = span_replay(engine, plan.kernel());
    let (grade_us_per_fault, faulty_cycles_per_fault) = grade_drive(engine, plan, &faults);
    ShapeProbe {
        levelize_ms,
        compile_ms,
        golden_ms,
        golden_stored_bits: golden.stored_bits() as f64,
        span_replay_ms,
        span_replayed_cycles: span_replayed_cycles as f64,
        sample_ms,
        grade_us_per_fault,
        faulty_cycles_per_fault,
        faults: faults.len() as f64,
    }
}

/// Replays every span of the engine's golden trace through a fresh
/// cache of the kind the plan's kernel grades from; returns the
/// replayed cycles and the median time in ms.
fn span_replay(engine: &Engine, kernel: Kernel) -> (u64, f64) {
    let g = engine.grader();
    let (golden, sim, tb) = (g.golden(), g.sim(), g.testbench());
    let n = tb.num_cycles();
    let k = match g.trace_policy() {
        TracePolicy::Checkpoint(k) => k,
        TracePolicy::Dense => n,
    };
    let spans: Vec<(usize, usize)> = (0..n).step_by(k).map(|s| (s, (s + k).min(n))).collect();
    median_ms(|| {
        if kernel.resolve() == Kernel::Differential {
            let mut cache = BitCache::new(spans.len());
            for &(s, e) in &spans {
                black_box(golden.bit_span_cached(sim, tb, s, e, &mut cache));
            }
            cache.replayed_cycles()
        } else {
            let mut cache = WindowCache::new(spans.len());
            for &(s, e) in &spans {
                black_box(golden.window_cached(sim, tb, s, e, &mut cache).start());
            }
            cache.replayed_cycles()
        }
    })
}

/// Drives `Grader::grade_chunk` on one thread over same-cycle chunks
/// of `faults` (median of [`PROBE_REPS`] drives, each with a fresh
/// scratch); returns µs per fault and faulty cycles per fault.
fn grade_drive(engine: &Engine, plan: &CampaignPlan<'_>, faults: &FaultList) -> (f64, f64) {
    let g = engine.grader();
    let lanes = g.chunk_lanes();
    let mut sorted = faults.as_slice().to_vec();
    sorted.sort_by_key(|f| f.cycle);
    let mut out = [FaultOutcome::latent(); 64];
    let (steps, ms) = median_ms(|| {
        let mut scratch = g
            .new_scratch(plan.collapse(), plan.window_cache())
            .with_kernel(plan.kernel());
        for run in sorted.chunk_by(|a, b| a.cycle == b.cycle) {
            for chunk in run.chunks(lanes) {
                g.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
                black_box(&out);
            }
        }
        scratch.sim_steps()
    });
    let n = faults.len().max(1) as f64;
    (ms * 1e3 / n, steps as f64 / n)
}
