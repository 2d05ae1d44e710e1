//! The fault-grading engines.

use std::sync::Arc;

use seugrade_netlist::Netlist;
use seugrade_sim::{
    BitCache, BitSpan, CompiledSim, DiffScratch, GoldenTrace, Kernel, SimState, Testbench,
    TracePolicy, TraceWindow,
};

use crate::{Fault, FaultClass, FaultOutcome, Injection, SpanOrder};

/// Default [`BitCache`] capacity (in spans) for grading scratch
/// state: enough that a worker walking a cycle-major plan keeps its
/// current span plus a few neighbours hot, small enough that per-worker
/// memory stays `O(FFs × K)`.
pub const DEFAULT_WINDOW_CACHE_SPANS: usize = 8;

/// A [`Kernel::Auto`] chunk leaves deviation space for good once one
/// cycle's deviation cone covers more than `1 / FLOODED_CONE_DIVISOR`
/// of the netlist's gates: from then on the cone walk costs more than
/// the full-evaluation tape it was meant to undercut. At 1/8 long
/// latent tails switch too early and pay full-netlist cost to the
/// horizon; at 1/2 flooded chunks stay in the slower walk too long.
const FLOODED_CONE_DIVISOR: usize = 4;

/// When a decided fault lane stops being simulated — the paper's
/// mask-scan early-abort knob.
///
/// Every grading engine compares the faulty lanes against the golden
/// machine *every cycle*, so a lane's verdict (first output mismatch =
/// failure, first state reconvergence = silent) is known the cycle it
/// happens. `Collapse` only controls what the engine does with the rest
/// of the horizon:
///
/// - [`Early`](Collapse::Early) (default) — a chunk stops simulating the
///   cycle its last live lane is decided, exactly like the autonomous
///   emulator releasing the circuit for the next fault.
/// - [`Horizon`](Collapse::Horizon) — the chunk runs to the observation
///   horizon regardless; verdicts still record only the *first* event
///   per lane.
///
/// Verdicts are bit-identical either way (the collapse-equivalence
/// suite enforces digest equality); only the work differs. `Horizon`
/// exists as the measurable baseline that shows what early collapse
/// buys.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Collapse {
    /// Retire lanes at their decision cycle; stop the chunk when all
    /// lanes are decided.
    #[default]
    Early,
    /// Simulate every chunk to the observation horizon.
    Horizon,
}

impl Collapse {
    /// Parses a collapse label: `on` (early) or `off` (horizon).
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "on" => Some(Collapse::Early),
            "off" => Some(Collapse::Horizon),
            _ => None,
        }
    }

    /// The label form parsed by [`from_label`](Self::from_label).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Collapse::Early => "on",
            Collapse::Horizon => "off",
        }
    }
}

/// Per-worker grading scratch: a reusable [`SimState`], the deviation
/// state, a golden [`BitCache`], the [`Collapse`] mode, the [`Kernel`]
/// and work counters.
///
/// One `GradeScratch` belongs to exactly one worker thread (no sharing,
/// no locks); the engine's thread pool creates one per worker via
/// [`Grader::new_scratch_with_cache`] and rebuilds it after a contained
/// panic. Scratch configuration affects only *speed* — verdicts are
/// identical for every collapse mode, kernel and cache capacity.
#[derive(Debug)]
pub struct GradeScratch {
    st: SimState,
    collapse: Collapse,
    sim_steps: u64,
    cone_gates: u64,
    kernel: Kernel,
    diff: DiffScratch,
    bits: BitCache,
    kernel_switches: u64,
}

impl GradeScratch {
    /// The golden bit-span cache every chunk walk reads (for
    /// hit/miss/replay statistics).
    #[must_use]
    pub fn bit_cache(&self) -> &BitCache {
        &self.bits
    }

    /// The faulty-evaluation kernel this scratch grades with.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the faulty-evaluation [`Kernel`] (chainable; the default
    /// is [`Kernel::Auto`]). A pure speed knob — verdicts are identical
    /// for every kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Faulty-machine cycles simulated through this scratch (one per
    /// walked cycle of a chunk, differential or tape; golden replay
    /// cycles are counted by the [`bit_cache`](Self::bit_cache)
    /// instead). The collapse-equivalence suite uses this to prove a
    /// retired lane is never re-simulated.
    #[must_use]
    pub fn sim_steps(&self) -> u64 {
        self.sim_steps
    }

    /// Gates evaluated by deviation-cone walks through this scratch,
    /// summed over walked cycles — against
    /// `num_instrs × sim_steps` it is the activity the differential
    /// walk actually paid for.
    #[must_use]
    pub fn cone_gates(&self) -> u64 {
        self.cone_gates
    }

    /// Times a [`Kernel::Auto`] chunk graded through this scratch left
    /// deviation space because its cone flooded the netlist, and went on
    /// as a companion-lane tape walk.
    #[must_use]
    pub fn kernel_switches(&self) -> u64 {
        self.kernel_switches
    }
}

/// Fault grader: compiled simulator + golden trace for one
/// (circuit, test bench) pair, with serial and bit-parallel engines.
///
/// All engines implement the classification semantics documented at the
/// [crate root](crate); the test suite enforces that they agree fault by
/// fault.
///
/// # Golden-trace storage
///
/// The grader consumes the golden run only through bounded spans —
/// [`TraceWindow`]s for the serial reference, bit-packed golden
/// [`BitSpan`]s for the bit-parallel walk — so it works identically
/// under every [`TracePolicy`]: with [`TracePolicy::Dense`] (the
/// [`new`](Self::new) default) every cycle's state is stored, with
/// [`TracePolicy::Checkpoint`] ([`with_policy`](Self::with_policy)) only
/// every `K`-th — memory `O(FFs × cycles / K)` instead of
/// `O(FFs × cycles)`, at the cost of replaying the golden machine once
/// per span. Verdicts are bit-identical across policies (enforced by
/// the agreement suites).
#[derive(Debug)]
pub struct Grader {
    sim: CompiledSim,
    tb: Testbench,
    golden: GoldenTrace,
    policy: TracePolicy,
}

impl Grader {
    /// Builds the grader with a dense golden trace (runs the golden
    /// reference once).
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the netlist's inputs.
    #[must_use]
    pub fn new(netlist: &Netlist, tb: &Testbench) -> Self {
        Self::with_policy(netlist, tb, TracePolicy::Dense)
    }

    /// Builds the grader with an explicit golden-trace storage policy.
    ///
    /// # Panics
    ///
    /// Panics if the test bench width does not match the netlist's
    /// inputs, or if the policy is `Checkpoint(0)`.
    #[must_use]
    pub fn with_policy(netlist: &Netlist, tb: &Testbench, policy: TracePolicy) -> Self {
        assert_eq!(
            tb.num_inputs(),
            netlist.num_inputs(),
            "test bench width does not match circuit"
        );
        let sim = CompiledSim::new(netlist);
        let golden = sim.run_golden_with(tb, policy);
        Grader { sim, tb: tb.clone(), golden, policy }
    }

    /// The golden reference trace.
    #[must_use]
    pub fn golden(&self) -> &GoldenTrace {
        &self.golden
    }

    /// The golden-trace storage policy this grader was built with.
    #[must_use]
    pub fn trace_policy(&self) -> TracePolicy {
        self.policy
    }

    /// The golden window covering cycle `t`: the whole trace under
    /// `Dense` (borrowed, zero copy), the checkpoint-aligned `K`-cycle
    /// span containing `t` under `Checkpoint(K)` — so the window after
    /// `win` is `window_at(win.end())`, whose replay starts exactly at a
    /// stored checkpoint.
    pub(crate) fn window_at(&self, t: usize) -> TraceWindow<'_> {
        let (start, end) = match self.policy {
            TracePolicy::Dense => (0, self.tb.num_cycles()),
            TracePolicy::Checkpoint(k) => self.aligned_span(t, k),
        };
        self.golden.window(&self.sim, &self.tb, start, end)
    }

    /// The `k`-aligned span of at most `k` cycles containing cycle `t`.
    fn aligned_span(&self, t: usize, k: usize) -> (usize, usize) {
        let start = t - t % k;
        (start, (start + k).min(self.tb.num_cycles()))
    }

    /// The compiled simulator (shared with emulation models).
    #[must_use]
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// The test bench.
    #[must_use]
    pub fn testbench(&self) -> &Testbench {
        &self.tb
    }

    // ------------------------------------------------------------------
    // Serial engine (reference implementation)
    // ------------------------------------------------------------------

    /// Grades one fault with the straightforward serial algorithm.
    ///
    /// The golden run is consumed through bounded windows, so this works
    /// — and produces bit-identical verdicts — under every
    /// [`TracePolicy`].
    ///
    /// # Panics
    ///
    /// Panics if the fault's cycle is outside the test bench or its
    /// flip-flop index outside the circuit.
    #[must_use]
    pub fn classify_serial(&self, fault: Fault) -> FaultOutcome {
        self.classify_serial_with(fault, Collapse::Early)
    }

    /// [`classify_serial`](Self::classify_serial) under an explicit
    /// [`Collapse`] mode. The verdict is identical either way —
    /// [`Collapse::Horizon`] merely keeps simulating the decided lane to
    /// the observation horizon, which is what the collapse benchmarks
    /// measure against.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`classify_serial`](Self::classify_serial).
    #[must_use]
    pub fn classify_serial_with(&self, fault: Fault, collapse: Collapse) -> FaultOutcome {
        let n_cycles = self.tb.num_cycles();
        let t = fault.cycle as usize;
        assert!(t < n_cycles, "fault cycle out of range");
        let mut win = self.window_at(t);
        let mut st = self.sim.new_state();
        self.sim.load_state(&mut st, win.state_at(t));
        self.sim.flip_ff_lane(&mut st, fault.ff, 0);
        let mut verdict = FaultOutcome::latent();
        let mut decided = false;
        for u in t..n_cycles {
            if u >= win.end() {
                win = self.window_at(u);
            }
            self.sim.set_inputs(&mut st, self.tb.cycle(u));
            self.sim.eval(&mut st);
            if !decided && self.sim.outputs_lane(&st, 0) != win.output_at(u) {
                verdict = FaultOutcome::failure(u as u32);
                decided = true;
            }
            if decided && collapse == Collapse::Early {
                return verdict;
            }
            self.sim.step(&mut st);
            if !decided && self.sim.state_lane(&st, 0) == win.state_at(u + 1) {
                verdict = FaultOutcome::silent(u as u32);
                decided = true;
                if collapse == Collapse::Early {
                    return verdict;
                }
            }
        }
        verdict
    }

    /// Grades a fault list serially, in order.
    #[must_use]
    pub fn run_serial(&self, faults: &[Fault]) -> Vec<FaultOutcome> {
        faults.iter().map(|&f| self.classify_serial(f)).collect()
    }

    // ------------------------------------------------------------------
    // Bit-parallel engine (63 faults + the golden companion per pass)
    // ------------------------------------------------------------------

    /// Grades a fault list with the bit-parallel engine: the faults are
    /// cut by [`span_order`](Self::span_order) into chunks of up to
    /// [`chunk_lanes`](Self::chunk_lanes) faults inside one golden span,
    /// one simulation pass each. Outcomes are returned in the order of
    /// `faults`.
    #[must_use]
    pub fn run_parallel(&self, faults: &[Fault]) -> Vec<FaultOutcome> {
        let mut scratch = self.new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS);
        let order = self.span_order(faults);
        let mut outcomes = vec![FaultOutcome::latent(); faults.len()];
        let mut buf = Vec::with_capacity(self.chunk_lanes());
        let mut out = [FaultOutcome::latent(); 63];
        for i in 0..order.num_chunks() {
            buf.clear();
            buf.extend(order.chunk(i).map(|fi| faults[fi]));
            let out = &mut out[..buf.len()];
            self.grade_chunk(&mut scratch, &buf, out);
            order.scatter(i, out, &mut outcomes);
        }
        outcomes
    }

    /// The lane budget a chunk is cut to: 63 under every
    /// [`TracePolicy`]. Lane 63 is reserved for the golden companion
    /// machine, which rides the same bit-parallel pass as the faulty
    /// lanes (see [`grade_chunk`](Self::grade_chunk)).
    #[must_use]
    pub fn chunk_lanes(&self) -> usize {
        63
    }

    /// Cycles per golden span — the unit a chunk's injection cycles must
    /// share: `K` under `Checkpoint(K)`, 64 under `Dense` (bounding span
    /// memory the same way checkpoints do). Spans are aligned to
    /// multiples of this length.
    #[must_use]
    pub fn span_len(&self) -> usize {
        match self.policy {
            TracePolicy::Dense => 64,
            TracePolicy::Checkpoint(k) => k,
        }
    }

    /// Plans `faults` into chunks for [`grade_chunk`](Self::grade_chunk):
    /// [`chunk_lanes`](Self::chunk_lanes) faults at most, all inside
    /// one [`span_len`](Self::span_len)-aligned golden span.
    ///
    /// # Panics
    ///
    /// Panics if a fault's cycle is outside the test bench.
    #[must_use]
    pub fn span_order<I: Injection>(&self, faults: &[I]) -> SpanOrder {
        SpanOrder::new(faults, self.tb.num_cycles(), self.span_len(), self.chunk_lanes())
    }

    /// Builds a per-worker [`GradeScratch`] with the given collapse mode
    /// and a private bit-span cache of `cache_spans` spans (0 disables
    /// caching).
    #[must_use]
    pub fn new_scratch(&self, collapse: Collapse, cache_spans: usize) -> GradeScratch {
        self.new_scratch_with_cache(collapse, BitCache::new(cache_spans))
    }

    /// Builds a per-worker [`GradeScratch`] around an existing cache
    /// handle — the engine hands every worker in a pool a
    /// [`BitCache::clone_handle`] of one shared per-run span store, so
    /// the whole pool replays each golden span once in total.
    #[must_use]
    pub fn new_scratch_with_cache(&self, collapse: Collapse, bits: BitCache) -> GradeScratch {
        GradeScratch {
            st: self.sim.new_state(),
            collapse,
            sim_steps: 0,
            cone_gates: 0,
            kernel: Kernel::Auto,
            diff: self.sim.new_diff_scratch(),
            bits,
            kernel_switches: 0,
        }
    }

    /// Grades up to 63 faults whose injection cycles share one golden
    /// span in a single bit-parallel pass, writing the verdicts into
    /// `out` (parallel to `chunk`). A lane is an [`Injection`]: every
    /// flip-flop in its set is flipped in that lane — one for an SEU,
    /// several for an MBU.
    ///
    /// This is the shard-sized building block the batching engines are
    /// made of: a runtime can cut any fault list into one-span chunks
    /// (see [`span_order`](Self::span_order)) and grade each on
    /// whichever thread with whichever scratch, and the verdicts stay
    /// identical to the serial engine's — they depend only on the
    /// fault, never on lane placement, chunk composition, kernel or
    /// collapse mode.
    ///
    /// The walk starts at the chunk's earliest injection cycle. A lane
    /// is *pending* until the walk reaches its own cycle: it equals the
    /// golden machine, costs nothing and can never be claimed. It is
    /// seeded at its cycle and is *live* until its first event decides
    /// it; under [`Collapse::Early`] a decided lane is *retired* — its
    /// bits are masked out of every deviation word, so a failed lane
    /// stops feeding the cone. When no lane is live and some are
    /// pending, the walk jumps straight to the next injection.
    ///
    /// Lanes are seeded as deviations, and the walk evaluates only the
    /// deviation cone, against golden [`BitSpan`]s from the scratch's
    /// cache, until its kernel's switch point. There it leaves
    /// deviation space and a companion walk continues on the tape, with
    /// lane 63 as the golden machine and later lanes seeded by a
    /// flip-flop flip:
    ///
    /// - [`Kernel::Tape`] switches at once;
    /// - [`Kernel::Auto`] switches after a cycle whose cone drains more
    ///   than `1 / FLOODED_CONE_DIVISOR` of the netlist's gates without
    ///   retiring a lane (counted by [`GradeScratch::kernel_switches`]);
    /// - [`Kernel::Differential`] never switches.
    ///
    /// A jump returns to deviation space. Failures are claimed before
    /// same-cycle silences, each lane records its first event only, and
    /// the scratch's `sim_steps` counts one per walked cycle on either
    /// side of the switch.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is empty, holds more than 63 faults, mixes
    /// golden spans, targets an out-of-range cycle, or if `out` has a
    /// different length than `chunk`.
    pub fn grade_chunk<I: Injection>(
        &self,
        scratch: &mut GradeScratch,
        chunk: &[I],
        out: &mut [FaultOutcome],
    ) {
        let GradeScratch {
            st, collapse, sim_steps, cone_gates, kernel, diff: sc, bits, kernel_switches,
        } = scratch;
        let mut schedule = [(0u32, 0u32); 63];
        let schedule = self.validate_chunk(chunk, out, &mut schedule);
        let n_cycles = self.tb.num_cycles();
        let early = *collapse == Collapse::Early;
        let flood_limit = match kernel {
            Kernel::Auto => self.sim.num_instrs() / FLOODED_CONE_DIVISOR,
            Kernel::Tape | Kernel::Differential => usize::MAX,
        };
        // Lanes `schedule[next..]` are pending; `undecided` holds the
        // live ones.
        let mut undecided = 0u64;
        let mut next = 0usize;
        let mut u = schedule[0].0 as usize;
        let mut span = self.bit_span_for(u, bits);
        let mut switch = *kernel == Kernel::Tape;
        let mut tape = false;
        while u < n_cycles {
            // The companion walk reads no golden spans.
            if !tape && u >= span.end() {
                span = self.bit_span_for(u, bits);
            }
            if !tape && switch {
                self.sim.diff_materialize(sc, &span, u, st);
                *kernel_switches += u64::from(*kernel == Kernel::Auto);
                tape = true;
            }
            // Seed the lanes injected at `u`: pending -> live.
            while let Some(&(c, lane)) = schedule.get(next) {
                if c as usize != u {
                    break;
                }
                for &ff in chunk[lane as usize].ffs() {
                    if tape {
                        self.sim.flip_ff_lane(st, ff, lane);
                    } else {
                        self.sim.diff_seed(sc, ff, lane);
                    }
                }
                undecided |= 1u64 << lane;
                next += 1;
            }
            let (out_diff, state_diff) = if tape {
                self.companion_cycle(st, u, undecided, early)
            } else {
                let diffs = self.sim.diff_cycle(sc, &span, u);
                *cone_gates += sc.cone_gates() as u64;
                diffs
            };
            *sim_steps += 1;
            let failed = out_diff & undecided;
            undecided = claim(out, undecided, out_diff, FaultOutcome::failure(u as u32));
            undecided = claim(out, undecided, !state_diff, FaultOutcome::silent(u as u32));
            // A silent lane has no deviation left; a failed one is
            // masked out so it stops feeding the cone.
            let retired = if early && !tape { failed } else { 0 };
            if retired != 0 {
                sc.retire(retired);
            }
            if early && undecided == 0 {
                // Nothing live: jump to the next injection, back in
                // deviation space, or end the chunk.
                let Some(&(c, _)) = schedule.get(next) else { break };
                debug_assert!(tape || sc.active_signals() == 0, "decided lanes left deviations");
                u = c as usize;
                tape = false;
                switch = *kernel == Kernel::Tape;
                continue;
            }
            if !tape {
                switch = retired == 0 && sc.cone_gates() > flood_limit;
            }
            u += 1;
        }
        debug_assert_eq!(next, chunk.len(), "a pending lane was never seeded");
        if !tape {
            self.sim.diff_reset(sc);
        }
    }

    /// Validates a one-span chunk, resets `out` to latent, and writes
    /// the chunk's injection schedule — `(cycle, lane)` in walk order —
    /// into `schedule`, returning the used prefix.
    fn validate_chunk<'s, I: Injection>(
        &self,
        chunk: &[I],
        out: &mut [FaultOutcome],
        schedule: &'s mut [(u32, u32); 63],
    ) -> &'s [(u32, u32)] {
        assert!(!chunk.is_empty(), "empty chunk");
        assert!(
            chunk.len() <= self.chunk_lanes(),
            "a chunk holds at most 63 faults: lane 63 is the golden companion"
        );
        assert_eq!(chunk.len(), out.len(), "outcome slice width");
        let span_len = self.span_len();
        let span = chunk[0].cycle() as usize / span_len;
        for (lane, f) in chunk.iter().enumerate() {
            assert!((f.cycle() as usize) < self.tb.num_cycles(), "fault cycle out of range");
            assert!(f.cycle() as usize / span_len == span, "chunk mixes golden spans");
            schedule[lane] = (f.cycle(), lane as u32);
        }
        for o in out.iter_mut() {
            *o = FaultOutcome::latent();
        }
        let schedule = &mut schedule[..chunk.len()];
        schedule.sort_unstable();
        schedule
    }

    /// One cycle of the golden-companion walk: lane 63 of `st` holds
    /// the golden state like every never-seeded lane but never carries
    /// a fault, so it *is* the golden machine, advanced for free by the
    /// same bit-parallel pass. Comparison then reduces to XOR-ing each
    /// signal word against its own lane 63 broadcast (an arithmetic
    /// shift) — no stored golden values, however far a latent tail
    /// walks.
    ///
    /// Returns `(out_diff, state_diff)` like
    /// [`diff_cycle`](CompiledSim::diff_cycle), exact for the `live`
    /// lanes. Under early collapse a cycle whose every live lane fails
    /// skips the step, and the register scan stops once every live lane
    /// has diverged: no lane can go silent this cycle, so long latent
    /// tails break within a handful of words. Verdicts are bit-identical
    /// to the serial reference: the compiled simulator is deterministic
    /// per lane, so lane 63 carries exactly the golden bits, and `live`
    /// never holds lane 63.
    fn companion_cycle(&self, st: &mut SimState, u: usize, live: u64, early: bool) -> (u64, u64) {
        debug_assert_eq!(live >> 63, 0, "lane 63 is the golden companion");
        // Broadcast of a word's golden (lane 63) bit to all 64 lanes.
        let golden = |word: u64| ((word as i64) >> 63) as u64;
        self.sim.set_inputs(st, self.tb.cycle(u));
        self.sim.eval(st);
        let mut out_diff = 0u64;
        for word in self.sim.outputs_raw(st) {
            out_diff |= word ^ golden(word);
        }
        let live = live & !out_diff;
        if early && live == 0 {
            return (out_diff, 0);
        }
        self.sim.step(st);
        let mut state_diff = 0u64;
        for ff in 0..self.sim.num_ffs() {
            let word = self.sim.ff_raw(st, seugrade_netlist::FfIndex::new(ff));
            state_diff |= word ^ golden(word);
            if state_diff & live == live {
                break;
            }
        }
        (out_diff, state_diff)
    }

    /// The golden bit span covering cycle `t`: the
    /// [`span_len`](Self::span_len)-aligned span containing it.
    fn bit_span_for(&self, t: usize, bits: &mut BitCache) -> Arc<BitSpan> {
        let (start, end) = self.aligned_span(t, self.span_len());
        self.golden.bit_span_cached(&self.sim, &self.tb, start, end, bits)
    }

    /// Per-flip-flop failure counts (a weak-area map, the re-design aid
    /// the paper's introduction motivates).
    #[must_use]
    pub fn failure_map(&self, faults: &[Fault], outcomes: &[FaultOutcome]) -> Vec<usize> {
        let mut map = vec![0usize; self.sim.num_ffs()];
        for (f, o) in faults.iter().zip(outcomes) {
            if o.class == FaultClass::Failure {
                map[f.ff.index()] += 1;
            }
        }
        map
    }
}

/// Records `verdict` for every `undecided` lane set in `hit` and
/// returns the lanes still undecided.
fn claim(out: &mut [FaultOutcome], undecided: u64, hit: u64, verdict: FaultOutcome) -> u64 {
    let newly = hit & undecided;
    if newly != 0 {
        for (lane, o) in out.iter_mut().enumerate() {
            if newly >> lane & 1 == 1 {
                *o = verdict;
            }
        }
    }
    undecided & !newly
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::generators::{self, RandomCircuitConfig};
    use seugrade_netlist::{FfIndex, NetlistBuilder};
    use seugrade_sim::Testbench;

    use crate::FaultList;
    use super::*;

    #[test]
    fn counter_faults_fail_immediately() {
        // Every counter bit is a primary output: any flip is visible at
        // its own injection cycle.
        let n = generators::counter(4);
        let tb = Testbench::constant_low(0, 10);
        let g = Grader::new(&n, &tb);
        for f in FaultList::exhaustive(4, 10).iter() {
            let o = g.classify_serial(f);
            assert_eq!(o.class, FaultClass::Failure, "{f}");
            assert_eq!(o.detect_cycle, Some(f.cycle), "{f}");
        }
    }

    #[test]
    fn shift_register_detection_latency() {
        // Flip bit i at cycle t; dout is bit w-1; the corrupted bit
        // reaches the output after (w-1-i) further cycles.
        let w = 6;
        let n = generators::shift_register(w);
        let cycles = 20;
        let tb = Testbench::random(1, cycles, 3);
        let g = Grader::new(&n, &tb);
        for i in 0..w {
            for t in 0..cycles as u32 {
                let o = g.classify_serial(Fault::new(FfIndex::new(i), t));
                let arrival = t + (w - 1 - i) as u32;
                if arrival < cycles as u32 {
                    assert_eq!(o.class, FaultClass::Failure, "ff{i}@{t}");
                    assert_eq!(o.detect_cycle, Some(arrival), "ff{i}@{t}");
                } else {
                    assert_eq!(o.class, FaultClass::Latent, "ff{i}@{t}");
                }
            }
        }
    }

    #[test]
    fn overwritten_ff_is_silent() {
        // q <= input every cycle; output independent of q.
        let mut b = NetlistBuilder::new("overwrite");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 8, 5);
        let g = Grader::new(&n, &tb);
        for t in 0..8 {
            let o = g.classify_serial(Fault::new(FfIndex::new(0), t));
            assert_eq!(o.class, FaultClass::Silent, "cycle {t}");
            assert_eq!(o.converge_cycle, Some(t), "overwritten next cycle");
        }
    }

    #[test]
    fn unobserved_self_loop_is_latent() {
        let mut b = NetlistBuilder::new("latent");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, q).unwrap(); // holds forever
        b.output("y", a); // q unobservable
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 8, 5);
        let g = Grader::new(&n, &tb);
        for t in 0..8 {
            let o = g.classify_serial(Fault::new(FfIndex::new(0), t));
            assert_eq!(o.class, FaultClass::Latent, "cycle {t}");
        }
    }

    #[test]
    fn masking_produces_silent_later() {
        // q <= q AND a: once `a` goes low, both golden and faulty collapse
        // to 0 -> convergence strictly after injection.
        let mut b = NetlistBuilder::new("mask");
        let a = b.input("a");
        let q = b.dff(true);
        let g1 = b.and2(q, a);
        b.connect_dff(q, g1).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        // a = 1,1,0,...
        let tb = Testbench::new(vec![
            vec![true],
            vec![true],
            vec![false],
            vec![false],
        ]);
        let g = Grader::new(&n, &tb);
        let o = g.classify_serial(Fault::new(FfIndex::new(0), 0));
        assert_eq!(o.class, FaultClass::Silent);
        assert_eq!(o.converge_cycle, Some(2), "converges when a drops");
    }

    #[test]
    fn parallel_matches_serial_on_small_circuits() {
        for name in ["b01s", "b02s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), 25, 11);
            let g = Grader::new(&n, &tb);
            let faults = FaultList::exhaustive(n.num_ffs(), 25);
            let serial = g.run_serial(faults.as_slice());
            let parallel = g.run_parallel(faults.as_slice());
            assert_eq!(serial, parallel, "{name}");
        }
    }

    #[test]
    fn parallel_matches_serial_on_random_circuits() {
        for seed in 0..8 {
            let cfg = RandomCircuitConfig {
                num_ffs: 10,
                num_gates: 60,
                ..Default::default()
            };
            let n = generators::random_sequential(&cfg, seed);
            let tb = Testbench::random(n.num_inputs(), 30, seed + 100);
            let g = Grader::new(&n, &tb);
            let faults = FaultList::exhaustive(n.num_ffs(), 30);
            let serial = g.run_serial(faults.as_slice());
            let parallel = g.run_parallel(faults.as_slice());
            assert_eq!(serial, parallel, "seed {seed}");
        }
    }

    #[test]
    fn sampled_subset_consistent_with_exhaustive() {
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 30, 17);
        let g = Grader::new(&n, &tb);
        let full = FaultList::exhaustive(n.num_ffs(), 30);
        let all = g.run_parallel(full.as_slice());
        let sample = FaultList::sampled(n.num_ffs(), 30, 50, 23);
        let sampled = g.run_parallel(sample.as_slice());
        for (f, o) in sample.iter().zip(&sampled) {
            let idx = f.cycle as usize * n.num_ffs() + f.ff.index();
            assert_eq!(*o, all[idx], "{f}");
        }
    }

    #[test]
    fn failure_map_localizes_weak_ffs() {
        // Shift register: earlier bits (closer to input) have fewer
        // detected faults? Actually later bits detect sooner; with a long
        // bench every bit's faults all arrive. Use a short bench so the
        // *early* bits' faults stay latent.
        let n = generators::shift_register(8);
        let tb = Testbench::random(1, 6, 29);
        let g = Grader::new(&n, &tb);
        let faults = FaultList::exhaustive(8, 6);
        let outcomes = g.run_parallel(faults.as_slice());
        let map = g.failure_map(faults.as_slice(), &outcomes);
        // bit 7 (output) always fails; bit 0 needs 7 cycles to surface,
        // impossible within 6 cycles.
        assert_eq!(map[7], 6);
        assert_eq!(map[0], 0);
    }

    #[test]
    fn grade_chunk_matches_serial() {
        let n = seugrade_circuits::registry::build("b03s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 20, 7);
        let g = Grader::new(&n, &tb);
        let mut scratch = g.new_scratch(Collapse::Early, 0);
        for t in 0..20u32 {
            let chunk: Vec<Fault> = (0..n.num_ffs())
                .map(|ff| Fault::new(FfIndex::new(ff), t))
                .collect();
            let mut out = vec![FaultOutcome::latent(); chunk.len()];
            g.grade_chunk(&mut scratch, &chunk, &mut out);
            for (f, o) in chunk.iter().zip(&out) {
                assert_eq!(*o, g.classify_serial(*f), "{f}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk mixes golden spans")]
    fn mixed_span_chunk_rejected() {
        use seugrade_sim::TracePolicy;
        let n = generators::counter(2);
        let tb = Testbench::constant_low(0, 8);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(4));
        let mut scratch = g.new_scratch(Collapse::Early, 0);
        let mut out = [FaultOutcome::latent(); 2];
        // Cycles 0 and 3 share span 0..4: one chunk.
        let chunk = [Fault::new(FfIndex::new(0), 0), Fault::new(FfIndex::new(1), 3)];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(out, [g.classify_serial(chunk[0]), g.classify_serial(chunk[1])]);
        // Cycles 3 and 4 straddle the span boundary.
        let chunk = [Fault::new(FfIndex::new(0), 3), Fault::new(FfIndex::new(1), 4)];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
    }

    #[test]
    fn checkpoint_policy_matches_dense_verdicts() {
        use seugrade_sim::TracePolicy;
        for name in ["b03s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), 25, 19);
            let dense = Grader::new(&n, &tb);
            let faults = FaultList::exhaustive(n.num_ffs(), 25);
            let reference = dense.run_serial(faults.as_slice());
            // K smaller than, dividing, not dividing, and exceeding the
            // bench length — every window geometry.
            for k in [1, 3, 5, 25, 64] {
                let cp = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(k));
                assert_eq!(cp.trace_policy(), TracePolicy::Checkpoint(k));
                assert_eq!(cp.run_serial(faults.as_slice()), reference, "{name} K={k} serial");
                assert_eq!(cp.run_parallel(faults.as_slice()), reference, "{name} K={k} parallel");
            }
        }
    }

    #[test]
    fn checkpoint_golden_memory_is_bounded() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("b03s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 128, 3);
        let dense = Grader::new(&n, &tb);
        let cp = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(16));
        // 128/16 + 1 checkpoints (+ the end state) vs 129 full states
        // plus all outputs: an order of magnitude, growing with cycles.
        assert!(
            cp.golden().stored_bits() * 8 < dense.golden().stored_bits(),
            "checkpointed {} bits vs dense {} bits",
            cp.golden().stored_bits(),
            dense.golden().stored_bits()
        );
    }

    #[test]
    fn grader_is_send_sync() {
        // The parallel engine hands `&Grader` to scoped worker threads;
        // this must stay true as the interior types evolve.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Grader>();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_cycle_out_of_range_panics() {
        let n = generators::counter(2);
        let tb = Testbench::constant_low(0, 4);
        let g = Grader::new(&n, &tb);
        let _ = g.classify_serial(Fault::new(FfIndex::new(0), 99));
    }

    #[test]
    fn collapse_labels_round_trip() {
        for c in [Collapse::Early, Collapse::Horizon] {
            assert_eq!(Collapse::from_label(c.label()), Some(c));
        }
        assert_eq!(Collapse::default(), Collapse::Early);
        assert_eq!(Collapse::from_label("sometimes"), None);
    }

    #[test]
    fn horizon_collapse_matches_early_verdicts() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("b06s").unwrap();
        let tb = Testbench::random(n.num_inputs(), 25, 11);
        let faults = FaultList::exhaustive(n.num_ffs(), 25);
        for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(4)] {
            let g = Grader::with_policy(&n, &tb, policy);
            let reference = g.run_serial(faults.as_slice());
            for (i, &f) in faults.as_slice().iter().enumerate() {
                assert_eq!(
                    g.classify_serial_with(f, Collapse::Horizon),
                    reference[i],
                    "{f} under {policy}"
                );
            }
            let mut scratch = g.new_scratch(Collapse::Horizon, 4);
            let mut out = [FaultOutcome::latent(); 63];
            // Exhaustive lists are cycle-major: each group shares a cycle.
            for (group_start, group) in faults.as_slice().chunks(n.num_ffs()).enumerate() {
                for (k0, chunk) in group.chunks(g.chunk_lanes()).enumerate() {
                    g.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
                    let base = group_start * n.num_ffs() + k0 * g.chunk_lanes();
                    for (k, o) in out[..chunk.len()].iter().enumerate() {
                        assert_eq!(
                            *o, reference[base + k],
                            "chunked horizon verdict under {policy}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn retired_chunk_is_never_resimulated_past_its_decision_cycle() {
        use seugrade_sim::TracePolicy;
        // q <= input every cycle: the fault is overwritten (silent) at
        // its own injection cycle, so exactly one faulty cycle may run.
        let mut b = NetlistBuilder::new("overwrite");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 32, 5);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        let mut scratch = g.new_scratch(Collapse::Early, 4);
        let mut out = [FaultOutcome::latent()];
        let t = 3;
        g.grade_chunk(&mut scratch, &[Fault::new(FfIndex::new(0), t)], &mut out);
        assert_eq!(out[0].class, FaultClass::Silent);
        assert_eq!(out[0].converge_cycle, Some(t));
        assert_eq!(
            scratch.sim_steps(),
            1,
            "a lane decided at its injection cycle must simulate exactly one cycle"
        );
        // The same chunk without collapse walks all the way out.
        let mut horizon = g.new_scratch(Collapse::Horizon, 4);
        g.grade_chunk(&mut horizon, &[Fault::new(FfIndex::new(0), t)], &mut out);
        assert_eq!(out[0].converge_cycle, Some(t), "verdict unchanged");
        assert_eq!(horizon.sim_steps(), 32 - u64::from(t));
    }

    #[test]
    fn companion_chunk_replays_only_the_seed_span() {
        use seugrade_sim::TracePolicy;
        // A latent-heavy circuit: the fault walks to the horizon, but the
        // companion-lane walk must still fetch exactly one golden span.
        let n = generators::lfsr(12, &[11, 9, 7, 4]);
        let tb = Testbench::random(0, 64, 9);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        // Pinned to the tape kernel, which leaves deviation space at the
        // injection cycle: the seed span is its only golden fetch.
        let mut scratch = g.new_scratch(Collapse::Early, 4).with_kernel(Kernel::Tape);
        let mut out = [FaultOutcome::latent(); 2];
        let chunk = [Fault::new(FfIndex::new(0), 10), Fault::new(FfIndex::new(3), 10)];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(
            scratch.bit_cache().misses(),
            1,
            "one span replay to seed the chunk, none for the walk"
        );
        // A same-span neighbour chunk is served from the cache.
        let chunk2 = [Fault::new(FfIndex::new(5), 11)];
        g.grade_chunk(&mut scratch, &chunk2, &mut out[..1]);
        assert_eq!(scratch.bit_cache().misses(), 1);
        assert_eq!(scratch.bit_cache().hits(), 1);
    }

    #[test]
    fn every_kernel_agrees_with_serial() {
        use seugrade_sim::TracePolicy;
        for name in ["b03s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let tb = Testbench::random(n.num_inputs(), 25, 31);
            let faults = FaultList::exhaustive(n.num_ffs(), 25);
            for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(4)] {
                let g = Grader::with_policy(&n, &tb, policy);
                let reference = g.run_serial(faults.as_slice());
                for kernel in Kernel::ALL {
                    for collapse in [Collapse::Early, Collapse::Horizon] {
                        let mut scratch =
                            g.new_scratch(collapse, 4).with_kernel(kernel);
                        assert_eq!(scratch.kernel(), kernel);
                        let mut got = vec![FaultOutcome::latent(); faults.len()];
                        let mut out = [FaultOutcome::latent(); 63];
                        for (gi, group) in
                            faults.as_slice().chunks(n.num_ffs()).enumerate()
                        {
                            for (ci, chunk) in
                                group.chunks(g.chunk_lanes()).enumerate()
                            {
                                g.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
                                let base = gi * n.num_ffs() + ci * g.chunk_lanes();
                                got[base..base + chunk.len()]
                                    .copy_from_slice(&out[..chunk.len()]);
                            }
                        }
                        assert_eq!(
                            got, reference,
                            "{name} {policy} kernel {kernel} collapse {}",
                            collapse.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn differential_kernel_replays_bit_spans_once() {
        use seugrade_sim::TracePolicy;
        // Latent-heavy: faults walk to the horizon, crossing every span.
        let n = generators::lfsr(12, &[11, 9, 7, 4]);
        let tb = Testbench::random(0, 64, 9);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        // Pinned to the differential kernel: under `Auto` this flooding
        // LFSR chunk would hand over to the companion-lane tape walk.
        // Early collapse decides the chunk inside its first span: one
        // bit-span replay.
        let mut scratch = g.new_scratch(Collapse::Early, 16).with_kernel(Kernel::Differential);
        let mut out = [FaultOutcome::latent(); 2];
        let chunk = [Fault::new(FfIndex::new(0), 10), Fault::new(FfIndex::new(3), 10)];
        g.grade_chunk(&mut scratch, &chunk, &mut out);
        assert_eq!(scratch.bit_cache().misses(), 1);
        // A horizon walk from cycle 10 crosses spans 8..16 through
        // 56..64: 7 distinct spans replayed into a fresh cache.
        let mut horizon = g.new_scratch(Collapse::Horizon, 16).with_kernel(Kernel::Differential);
        g.grade_chunk(&mut horizon, &chunk, &mut out);
        assert_eq!(horizon.bit_cache().misses(), 7);
        // Re-walking the same chunk hits every span.
        g.grade_chunk(&mut horizon, &chunk, &mut out);
        assert_eq!(horizon.bit_cache().misses(), 7);
        assert_eq!(horizon.bit_cache().hits(), 7);
    }

    /// `n` flip-flops under a prefix-XOR next-state map (invertible, so
    /// a flip never reconverges) with only the last one observed, gated
    /// by an input: a flip of an early flip-flop floods the XOR chain
    /// the cycle it is injected, yet cannot fail before the next cycle.
    fn flood_chain(n: usize) -> Netlist {
        flood_chain_with_latch(n, false)
    }

    /// [`flood_chain`], plus with `latch` an unobserved self-loop
    /// flip-flop (index `n`): a flip of it is latent forever and has an
    /// empty cone.
    fn flood_chain_with_latch(n: usize, latch: bool) -> Netlist {
        let mut b = NetlistBuilder::new("flood");
        let en = b.input("en");
        let qs: Vec<_> = (0..n).map(|i| b.dff(i % 3 == 0)).collect();
        let mut acc = qs[0];
        let mut next = vec![qs[0]];
        for &q in &qs[1..] {
            acc = b.xor2(acc, q);
            next.push(acc);
        }
        for (&q, &d) in qs.iter().zip(&next) {
            b.connect_dff(q, d).unwrap();
        }
        if latch {
            let z = b.dff(false);
            b.connect_dff(z, z).unwrap();
        }
        let y = b.and2(qs[n - 1], en);
        b.output("y", y);
        b.finish().unwrap()
    }

    /// Grades `chunk` under `Auto`, `Differential` and `Tape` in both
    /// collapse modes, asserting identical verdicts and walked cycles;
    /// returns `Auto`'s kernel switches (early, horizon) and its
    /// bit-span misses under early collapse.
    fn auto_against_fixed_kernels(g: &Grader, chunk: &[Fault]) -> ((u64, u64), u64) {
        let mut switches = [0u64; 2];
        let mut auto_misses = 0;
        for (ci, collapse) in [Collapse::Early, Collapse::Horizon].into_iter().enumerate() {
            let mut graded = Vec::new();
            for kernel in [Kernel::Auto, Kernel::Differential, Kernel::Tape] {
                let mut scratch = g.new_scratch(collapse, 8).with_kernel(kernel);
                let mut out = vec![FaultOutcome::latent(); chunk.len()];
                g.grade_chunk(&mut scratch, chunk, &mut out);
                graded.push((kernel, out, scratch));
            }
            let (_, auto_out, auto) = &graded[0];
            for (kernel, out, scratch) in &graded[1..] {
                assert_eq!(auto_out, out, "auto vs {kernel} verdicts, collapse {}", collapse.label());
                assert_eq!(
                    auto.sim_steps(),
                    scratch.sim_steps(),
                    "auto vs {kernel} walked cycles, collapse {}",
                    collapse.label()
                );
                assert_eq!(scratch.kernel_switches(), 0, "{kernel} never switches");
            }
            switches[ci] = auto.kernel_switches();
            if collapse == Collapse::Early {
                auto_misses = auto.bit_cache().misses();
            }
        }
        ((switches[0], switches[1]), auto_misses)
    }

    fn same_cycle_chunk(ffs: std::ops::Range<usize>, t: u32) -> Vec<Fault> {
        ffs.map(|ff| Fault::new(FfIndex::new(ff), t)).collect()
    }

    #[test]
    fn auto_switch_on_a_span_boundary_fetches_the_next_span() {
        use seugrade_sim::TracePolicy;
        let n = flood_chain(16);
        let tb = Testbench::random(1, 32, 21);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        // Injected in the last cycle of span 0..8: the chunk floods at
        // once, so its tape walk resumes at 8 == span.end().
        let (switches, misses) = auto_against_fixed_kernels(&g, &same_cycle_chunk(0..8, 7));
        assert_eq!(switches, (1, 1));
        assert_eq!(misses, 2, "span 0..8 for the cone walk, 8..16 for the hand-over");
        // The same chunk mid-span switches inside its first span.
        let (switches, misses) = auto_against_fixed_kernels(&g, &same_cycle_chunk(0..8, 3));
        assert_eq!(switches, (1, 1));
        assert_eq!(misses, 1);
    }

    #[test]
    fn auto_never_switches_past_the_last_cycle() {
        use seugrade_sim::TracePolicy;
        let n = flood_chain(16);
        let tb = Testbench::random(1, 32, 21);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(8));
        // Flooded in the last cycle: there is no cycle left to hand
        // over, so the chunk ends in deviation space.
        let (switches, _) = auto_against_fixed_kernels(&g, &same_cycle_chunk(0..8, 31));
        assert_eq!(switches, (0, 0));
        // One cycle earlier the hand-over walks exactly the last cycle.
        let (switches, _) = auto_against_fixed_kernels(&g, &same_cycle_chunk(0..8, 30));
        assert_eq!(switches, (1, 1));
    }

    #[test]
    fn flooded_dense_chunk_switches() {
        let n = flood_chain(80);
        let tb = Testbench::random(1, 24, 5);
        let g = Grader::new(&n, &tb);
        // Lane 63 is the golden companion under every policy, so a full
        // Dense chunk leaves deviation space once its cone floods.
        assert_eq!(g.chunk_lanes(), 63);
        let (switches, _) = auto_against_fixed_kernels(&g, &same_cycle_chunk(0..63, 2));
        assert_eq!(switches, (1, 1));
    }

    #[test]
    #[should_panic(expected = "at most 63 faults")]
    fn sixty_four_fault_chunk_is_rejected() {
        let n = flood_chain(80);
        let tb = Testbench::random(1, 24, 5);
        let g = Grader::new(&n, &tb);
        let mut scratch = g.new_scratch(Collapse::Early, 4);
        let mut out = [FaultOutcome::latent(); 64];
        g.grade_chunk(&mut scratch, &same_cycle_chunk(0..64, 2), &mut out);
    }

    #[test]
    fn auto_switches_on_the_paper_circuit() {
        use seugrade_sim::TracePolicy;
        let n = seugrade_circuits::registry::build("viper").unwrap();
        let tb = Testbench::random(n.num_inputs(), 160, 1);
        let g = Grader::with_policy(&n, &tb, TracePolicy::Checkpoint(64));
        let mut auto = g.new_scratch(Collapse::Early, 4);
        let mut tape = g.new_scratch(Collapse::Early, 4).with_kernel(Kernel::Tape);
        let (mut a, mut b) = ([FaultOutcome::latent(); 63], [FaultOutcome::latent(); 63]);
        let mut chunks = 0;
        for t in [0, 63, 100] {
            let faults = same_cycle_chunk(0..n.num_ffs(), t);
            for chunk in faults.chunks(g.chunk_lanes()) {
                g.grade_chunk(&mut auto, chunk, &mut a[..chunk.len()]);
                g.grade_chunk(&mut tape, chunk, &mut b[..chunk.len()]);
                assert_eq!(a[..chunk.len()], b[..chunk.len()], "cycle {t}");
                chunks += 1;
            }
        }
        assert_eq!(auto.sim_steps(), tape.sim_steps());
        assert!(
            auto.kernel_switches() > 0 && auto.kernel_switches() <= chunks,
            "{} of {chunks} chunks switched",
            auto.kernel_switches()
        );
    }

    #[test]
    fn packed_span_chunks_match_serial_under_every_kernel() {
        use seugrade_sim::TracePolicy;
        use crate::MultiFault;
        for name in ["b03s", "b06s"] {
            let n = seugrade_circuits::registry::build(name).unwrap();
            let cycles = 25;
            let tb = Testbench::random(n.num_inputs(), cycles, 41);
            let seus = FaultList::sampled(n.num_ffs(), cycles, 150, 9);
            let mbus: Vec<MultiFault> =
                MultiFault::adjacent_pairs(n.num_ffs(), cycles, 2).into_iter().step_by(3).collect();
            for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(4)] {
                let g = Grader::with_policy(&n, &tb, policy);
                let seu_reference = g.run_serial(seus.as_slice());
                let mbu_reference = g.run_multi(&mbus);
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    let mut steps = Vec::new();
                    for kernel in Kernel::ALL {
                        let mut scratch = g.new_scratch(collapse, 4).with_kernel(kernel);
                        let label = format!("{name} {policy} {kernel} collapse {}", collapse.label());
                        let got = grade_packed(&g, &mut scratch, seus.as_slice());
                        assert_eq!(got, seu_reference, "SEU {label}");
                        let got = grade_packed(&g, &mut scratch, &mbus);
                        assert_eq!(got, mbu_reference, "MBU {label}");
                        steps.push(scratch.sim_steps());
                    }
                    assert!(
                        steps.windows(2).all(|w| w[0] == w[1]),
                        "{name} {policy} collapse {}: kernels walked {steps:?} cycles",
                        collapse.label()
                    );
                }
            }
        }
    }

    /// Grades `faults` through [`Grader::span_order`]'s one-span chunks,
    /// asserting some chunk holds several injection cycles.
    fn grade_packed<I: Injection>(g: &Grader, scratch: &mut GradeScratch, faults: &[I]) -> Vec<FaultOutcome> {
        let order = g.span_order(faults);
        let mut outcomes = vec![FaultOutcome::latent(); faults.len()];
        let mut out = [FaultOutcome::latent(); 63];
        let mut multi_cycle = false;
        for i in 0..order.num_chunks() {
            let chunk: Vec<&I> = order.chunk(i).map(|fi| &faults[fi]).collect();
            multi_cycle |= chunk.iter().any(|f| f.cycle() != chunk[0].cycle());
            let out = &mut out[..chunk.len()];
            g.grade_chunk(scratch, &chunk, out);
            order.scatter(i, out, &mut outcomes);
        }
        assert!(multi_cycle, "some chunk packs several injection cycles");
        outcomes
    }

    #[test]
    fn pending_lane_is_never_claimed_before_its_cycle() {
        // `q <= a`, unobserved: a flip of q is overwritten (silent) at
        // its own cycle. `z <= z`, unobserved: a flip of z is latent.
        let mut b = NetlistBuilder::new("pending");
        let a = b.input("a");
        let q = b.dff(false);
        b.connect_dff(q, a).unwrap();
        let z = b.dff(false);
        b.connect_dff(z, z).unwrap();
        b.output("y", a);
        let n = b.finish().unwrap();
        let tb = Testbench::random(1, 16, 5);
        let g = Grader::new(&n, &tb);
        let (q, z) = (FfIndex::new(0), FfIndex::new(1));
        for kernel in Kernel::ALL {
            for collapse in [Collapse::Early, Collapse::Horizon] {
                let label = format!("{kernel} collapse {}", collapse.label());
                let mut scratch = g.new_scratch(collapse, 4).with_kernel(kernel);
                let mut out = [FaultOutcome::latent(); 2];
                // The cycle-5 lane equals golden until cycle 5 — it would
                // read as silent at cycle 1 if it were live — whether it
                // goes silent or stays latent once seeded. Either lane
                // order.
                for chunk in [
                    [Fault::new(z, 1), Fault::new(q, 5)],
                    [Fault::new(q, 5), Fault::new(z, 1)],
                    [Fault::new(q, 1), Fault::new(z, 5)],
                ] {
                    g.grade_chunk(&mut scratch, &chunk, &mut out);
                    for (f, o) in chunk.iter().zip(&out) {
                        assert_eq!(*o, g.classify_serial(*f), "{f} {label}");
                    }
                }
                assert_eq!(g.classify_serial(Fault::new(q, 5)), FaultOutcome::silent(5));
                // Both lanes silent at their own cycles: under early
                // collapse the walk jumps from cycle 1 straight to 5.
                let chunk = [Fault::new(q, 1), Fault::new(q, 5)];
                let before = scratch.sim_steps();
                g.grade_chunk(&mut scratch, &chunk, &mut out);
                assert_eq!(out, [FaultOutcome::silent(1), FaultOutcome::silent(5)], "{label}");
                let walked = scratch.sim_steps() - before;
                let expected = match collapse {
                    Collapse::Early => 2,
                    Collapse::Horizon => 16 - 1,
                };
                assert_eq!(walked, expected, "{label}");
            }
        }
    }

    #[test]
    fn retire_shrinks_the_cone_after_a_flooding_lane_fails() {
        let n = flood_chain_with_latch(40, true);
        let tb = Testbench::new((0..32).map(|t| vec![t % 4 == 3]).collect());
        let g = Grader::new(&n, &tb);
        let flood = Fault::new(FfIndex::new(0), 2);
        let latch = Fault::new(FfIndex::new(40), 2);
        assert_eq!(g.classify_serial(flood), FaultOutcome::failure(3));
        assert_eq!(g.classify_serial(latch), FaultOutcome::latent());
        let cone = |collapse, chunk: &[Fault]| {
            let mut scratch = g.new_scratch(collapse, 4).with_kernel(Kernel::Differential);
            let mut out = vec![FaultOutcome::latent(); chunk.len()];
            g.grade_chunk(&mut scratch, chunk, &mut out);
            for (f, o) in chunk.iter().zip(&out) {
                assert_eq!(*o, g.classify_serial(*f), "{f}");
            }
            (scratch.cone_gates(), scratch.sim_steps())
        };
        let (solo, solo_steps) = cone(Collapse::Early, &[flood]);
        assert_eq!(solo_steps, 2, "the flooding lane fails on its second cycle");
        // The latent lane walks to the horizon with an empty cone: once
        // the flooding lane fails and retires, nothing is evaluated.
        let (pair, pair_steps) = cone(Collapse::Early, &[flood, latch]);
        assert_eq!(pair_steps, 32 - 2);
        assert_eq!(pair, solo, "a failed lane stops feeding the cone");
        // Without collapse nothing retires: the flood persists.
        let (horizon, _) = cone(Collapse::Horizon, &[flood, latch]);
        assert!(horizon > 4 * solo, "horizon {horizon} vs retired {solo}");
    }

    #[test]
    fn kernel_labels_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_label(k.label()), Some(k));
        }
        assert_eq!(Kernel::default(), Kernel::Auto);
        assert_eq!(Kernel::Auto.resolve(), Kernel::Differential);
        assert_eq!(Kernel::Tape.resolve(), Kernel::Tape);
        assert_eq!(Kernel::from_label("quantum"), None);
    }
}
