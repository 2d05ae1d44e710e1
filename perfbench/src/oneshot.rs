//! The one-shot workloads: campaigns graded back to back on one
//! prebuilt engine (`viper-paper`, `s5378g-sampled`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use seugrade::paper;
use seugrade_emulation::controller::TimingConfig;
use seugrade_emulation::CampaignSink;
use seugrade_engine::{CampaignPlan, Engine, EngineStats, StreamAccumulator, VerdictSink};

use crate::layers::{self, ms_since};
use crate::reference::{self, Modelled, Reference};
use crate::sink::{ChunkTrace, TimingSink};
use crate::stats::{self, median, percentile};
use crate::workload::OneShot;
use crate::{Budget, RunOutput, Tally, HARD_CAP_S, SETUPS, TAIL_PCT, TRACE_MIN_OPS, WARMUP_OPS};

/// Grades one campaign into a fresh sink `A`; an engine error or a
/// panic is an `Err`.
///
/// # Errors
///
/// The engine's error, or the panic message.
pub fn campaign<A: VerdictSink>(
    engine: &Engine,
    plan: &CampaignPlan<'_>,
) -> Result<(A, EngineStats), String> {
    match catch_unwind(AssertUnwindSafe(|| engine.try_run_streamed_with::<A>(plan))) {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("campaign panicked".to_owned()),
    }
}

/// The samples of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every op, in ms; a failed op reads `+inf`, so it
    /// misses every latency percentile.
    pub op_ms: Vec<f64>,
    /// Faults graded by the phase's correct ops.
    pub faults: usize,
    /// Wall time of the phase, in s.
    pub wall_s: f64,
}

impl Phase {
    /// Faults graded per second of phase wall time.
    #[must_use]
    pub fn faults_per_sec(&self) -> f64 {
        self.faults as f64 / self.wall_s
    }
}

/// Grades campaigns back to back until `budget` is spent, cycling
/// through the programs (op `i` grades program `i % programs`) and
/// stopping only after whole rotations. Every op is checked with `ok`
/// against its program's reference; correct ops are handed to `keep`
/// with their program, stats and latency in ms.
pub fn measure<A: VerdictSink>(
    engines: &[Engine],
    plans: &[CampaignPlan<'_>],
    refs: &[Reference],
    budget: Budget,
    tally: &mut Tally,
    ok: impl Fn(&A, &Reference) -> bool,
    mut keep: impl FnMut(A, usize, EngineStats, f64),
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let i = phase.op_ms.len();
        let mid_rotation = i % plans.len() != 0 && start.elapsed().as_secs_f64() < HARD_CAP_S;
        if !budget.more(start, i) && !mid_rotation {
            break;
        }
        let k = i % plans.len();
        let t0 = Instant::now();
        let run = campaign::<A>(&engines[k], &plans[k]);
        let ms = ms_since(t0);
        match run {
            Ok((sink, stats)) if ok(&sink, &refs[k]) => {
                tally.record(true);
                phase.op_ms.push(ms);
                phase.faults += stats.faults;
                keep(sink, k, stats, ms);
            }
            _ => {
                tally.record(false);
                phase.op_ms.push(f64::INFINITY);
            }
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// True when a streamed campaign's modelled emulation costs equal the
/// reference's bit for bit.
fn modelled_match(sink: &CampaignSink, w: &OneShot, k: usize, modelled: &[Modelled]) -> bool {
    let timings = sink.finish_timings(
        &TimingConfig::default(),
        w.tbs[k].num_cycles(),
        w.circuit.num_ffs(),
    );
    timings.len() == modelled.len()
        && timings.iter().zip(modelled).all(|(t, m)| {
            t.technique == m.technique
                && t.total_cycles == m.total_cycles
                && t.us_per_fault().to_bits() == m.us_per_fault.to_bits()
        })
}

/// The modelled-versus-paper table printed for the paper circuit: the
/// modelled µs/fault averaged over the programs.
fn modelled_table(modelled: &[Vec<Modelled>], host_us_per_fault: f64) -> Vec<String> {
    let mut lines = vec![format!(
        "modelled autonomous emulation (simulated time, mean of {} programs) vs paper Table 2 and host grading:",
        modelled.len()
    )];
    for (i, row) in paper::TABLE2.iter().enumerate() {
        let model = modelled.iter().map(|p| p[i].us_per_fault).sum::<f64>() / modelled.len() as f64;
        lines.push(format!(
            "  {:<18} model {model:>10.4} us/fault   paper {:>6.2} us/fault",
            modelled[0][i].technique.label(),
            row.us_per_fault,
        ));
    }
    lines.push(format!(
        "  {:<18} paper {:>10.1} us/fault (2005 workstation fault simulation)",
        "fault simulation",
        paper::FAULT_SIM_US_PER_FAULT
    ));
    lines.push(format!(
        "  {:<18} host  {host_us_per_fault:>10.4} us/fault (wall, this run)",
        "seugrade"
    ));
    lines
}

/// Runs a one-shot workload.
///
/// # Errors
///
/// An unknown workload name or a failed reference computation.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    // The references come first: the child keeps both cores busy for a
    // few seconds, so the set-ups below start on a machine already
    // running at its working pace rather than waking from idle.
    let refs = reference::in_child(name, seed)?;
    let (mut setup_ms, mut build_ms, mut engine_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first: only one copy of the workload
        // is ever alive, in the peak RSS too.
        drop(built.take());
        let t0 = Instant::now();
        let w = OneShot::build(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
        build_ms.push(ms_since(t0));
        let t1 = Instant::now();
        let engines: Vec<Engine> = (0..w.tbs.len()).map(|k| Engine::new(&w.plan(k))).collect();
        engine_ms.push(ms_since(t1) / engines.len() as f64);
        setup_ms.push(ms_since(t0));
        built = Some((w, engines));
    }
    let (w, engines) = built.expect("at least one set-up");
    let plans: Vec<CampaignPlan<'_>> = (0..w.tbs.len()).map(|k| w.plan(k)).collect();
    if refs.refs.len() != plans.len() {
        return Err(format!(
            "reference child graded {} of {} programs",
            refs.refs.len(),
            plans.len()
        ));
    }

    let mut out = RunOutput::default();
    let mut tally = Tally::default();
    // Warm-up ops on the first programs. On the paper circuit they also
    // check that the measured configuration's modelled emulation costs
    // equal the reference's: a speed-only change must not move a
    // simulated statistic.
    for (k, plan) in plans.iter().enumerate().take(WARMUP_OPS) {
        let good = match refs.modelled.get(k) {
            Some(modelled) => campaign::<CampaignSink>(&engines[k], plan).is_ok_and(|(s, _)| {
                refs.refs[k].matches(s.digest(), s.summary()) && modelled_match(&s, &w, k, modelled)
            }),
            None => campaign::<StreamAccumulator>(&engines[k], plan)
                .is_ok_and(|(s, _)| refs.refs[k].matches(s.digest(), s.summary())),
        };
        tally.record(good);
    }

    let accept = |s: &StreamAccumulator, r: &Reference| r.matches(s.digest(), s.summary());
    let m = &mut out.metrics;
    let timed_fps;
    if trace {
        let half = Budget {
            seconds: seconds / 2.0,
            min_ops: TRACE_MIN_OPS,
        };
        let untraced = measure(
            &engines,
            &plans,
            &refs.refs,
            half,
            &mut tally,
            accept,
            |_, _, _, _| {},
        );
        let mut traces: Vec<(ChunkTrace<StreamAccumulator>, EngineStats, f64)> = Vec::new();
        let mut first_program_ms = Vec::new();
        let traced = measure::<TimingSink<StreamAccumulator>>(
            &engines,
            &plans,
            &refs.refs,
            half,
            &mut tally,
            |s, r| accept(s.inner(), r),
            |s, k, stats, ms| {
                if k == 0 {
                    first_program_ms.push(ms);
                }
                traces.push((s.finish(), stats, ms));
            },
        );
        // The layer probes grade the rotation's first program.
        let probe = layers::probe_shape(
            &w.circuit,
            &w.tbs[0],
            &plans[0],
            w.sample_of(0),
            &engines[0],
        );
        timed_fps = traced.faults_per_sec();

        let lanes = engines[0].grader().chunk_lanes();
        let (faults, shards): (usize, usize) = traces
            .iter()
            .fold((0, 0), |(f, s), (_, st, _)| (f + st.faults, s + st.shards));
        let gaps_us: Vec<f64> = traces
            .iter()
            .flat_map(|(t, _, _)| t.gaps_ns.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        let mismatched = traces
            .iter()
            .filter(|(t, st, _)| t.gaps_ns.len() != st.shards)
            .count();
        if mismatched > 0 {
            out.notes.push(format!(
                "warning: {mismatched} traced ops saw a chunk count other than the engine's"
            ));
        }
        let run_ms = median(&traces.iter().map(|t| t.2).collect::<Vec<_>>());
        let threads = traces.first().map_or(1, |t| t.1.threads) as f64;
        let unaccounted: Vec<f64> = traces
            .iter()
            .map(|(t, st, ms)| {
                let busy_ms = t.busy_ns.iter().sum::<u64>() as f64 / 1e6 / st.threads as f64;
                1.0 - (probe.sample_ms + busy_ms) / ms
            })
            .collect();

        m.set("circuits.build_ms", median(&build_ms));
        m.set("netlist.import_ms", 0.0);
        m.set("netlist.levelize_ms", probe.levelize_ms);
        m.set("sim.compile_ms", probe.compile_ms);
        m.set("sim.golden_ms", probe.golden_ms);
        m.set("sim.golden_stored_bits", probe.golden_stored_bits);
        m.set("sim.span_replay_ms", probe.span_replay_ms);
        m.set("sim.span_replayed_cycles", probe.span_replayed_cycles);
        m.set("faultsim.sample_ms", probe.sample_ms);
        m.set("faultsim.grade_us_per_fault", probe.grade_us_per_fault);
        m.set(
            "faultsim.faulty_cycles_per_fault",
            probe.faulty_cycles_per_fault,
        );
        m.set(
            "faultsim.lane_occupancy",
            faults as f64 / (shards * lanes) as f64,
        );
        m.set("engine.build_ms", median(&engine_ms));
        m.set("engine.run_ms", run_ms);
        m.set("engine.chunk_us_p50", percentile(&gaps_us, 50));
        m.set("engine.chunk_us_p90", percentile(&gaps_us, 90));
        // Idle share of the probed program's own campaigns.
        let first_ms = median(&first_program_ms);
        m.set(
            "engine.idle_frac",
            1.0 - probe.faults * probe.grade_us_per_fault / (first_ms * 1e3 * threads),
        );
        m.set(
            "engine.sink_fold_ms",
            median(
                &traces
                    .iter()
                    .map(|t| t.0.fold_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
        );
        m.set("engine.checkpoint_write_ms", 0.0);
        for name in [
            "serve.submit_ms",
            "serve.status_ms",
            "serve.queue_wait_ms_p50",
            "serve.queue_wait_samples",
            "serve.unwatched_finishes",
            "serve.rounds_per_job",
            "serve.rebuild_frac",
        ] {
            m.set(name, 0.0);
        }
        m.set("trace.faults_per_sec", traced.faults_per_sec());
        m.set("trace.untraced_faults_per_sec", untraced.faults_per_sec());
        m.set(
            "trace.overhead_frac",
            1.0 - traced.faults_per_sec() / untraced.faults_per_sec(),
        );
        m.set("trace.unaccounted_frac", median(&unaccounted));
        out.notes.push(format!(
            "traced: {} untraced + {} traced ops; {} chunk intervals",
            untraced.op_ms.len(),
            traced.op_ms.len(),
            gaps_us.len()
        ));
    } else {
        let budget = Budget {
            seconds,
            min_ops: stats::min_samples(TAIL_PCT),
        };
        let phase = measure(
            &engines,
            &plans,
            &refs.refs,
            budget,
            &mut tally,
            accept,
            |_, _, _, _| {},
        );
        timed_fps = phase.faults_per_sec();
        m.set("faults_per_sec", timed_fps);
        m.set("campaign_ms_p50", median(&phase.op_ms));
        m.set("campaign_ms_p90", percentile(&phase.op_ms, TAIL_PCT));
        m.set("setup_s", median(&setup_ms) / 1e3);
        m.set("peak_rss_mb", crate::peak_rss_mb());
        out.notes.push(format!(
            "{} timed ops ({} beyond p{TAIL_PCT}) over {} programs in {:.2} s after {WARMUP_OPS} warm-up ops; {} faults per op",
            phase.op_ms.len(),
            stats::beyond(phase.op_ms.len(), TAIL_PCT),
            plans.len(),
            phase.wall_s,
            w.num_faults()
        ));
    }
    if !refs.modelled.is_empty() {
        out.notes
            .extend(modelled_table(&refs.modelled, 1e6 / timed_fps));
    }
    out.tally = tally;
    Ok(out)
}
