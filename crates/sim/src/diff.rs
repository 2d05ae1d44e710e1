//! The differential (activity-driven) faulty-evaluation kernel.
//!
//! A faulty machine differs from the golden one only inside a deviation
//! cone seeded by the injected bit-flip — the observation the source
//! paper's autonomous emulator is built on. The full-evaluation kernels
//! ignore it: every gate of the netlist is re-evaluated every faulty
//! cycle, even when the cone has collapsed to nothing.
//!
//! This module simulates **deviations instead of values**. For every
//! signal the scratch state holds `dev[sig] = faulty ⊕ golden` (64 lanes
//! of faulty machines against one golden reference), so the faulty word
//! is recoverable as `broadcast(golden_bit) ⊕ dev[sig]` and a signal is
//! clean exactly when its deviation word is zero. Per cycle:
//!
//! 1. the dirty frontier is seeded from the signals with non-zero
//!    deviations (initially the flipped flip-flops) and expanded through
//!    the levelized fanout adjacency;
//! 2. gates are drained off a position-indexed dirty bitmap in ascending
//!    order — ascending positions in the levelized program are
//!    topological, so each cone gate is evaluated exactly once — and
//!    evaluated in deviation space against the golden bits; a zero
//!    deviation out of a gate prunes its fanout (the logical-masking
//!    collapse the paper exploits);
//! 3. output deviations are OR-folded into the failure word, the
//!    flip-flop step transfers `D`-deviations to `Q` slots two-phase,
//!    and the OR of the new state deviations is the reconvergence word:
//!    **zero means every lane is back in lock-step with golden** — a
//!    proof that feeds `Collapse::Early` without scanning a single
//!    register.
//!
//! The golden bits come from a [`BitSpan`]: one bit per cell per cycle
//! (golden values are lane-uniform), replayed once per checkpoint span
//! and shared across all chunks of a campaign through a [`BitCache`] —
//! the one golden source of every grading walk, at 1/64th the word cost
//! of a value trace.

use std::sync::Arc;

use seugrade_netlist::FfIndex;

use crate::{tape, CompiledSim, GoldenTrace, SimState, SpanCache, Testbench};

/// Golden internal values for a contiguous cycle span, bit-packed: one
/// bit per cell per cycle.
///
/// Captured post-`eval`, pre-`step`, so for cycle `t` the flip-flop
/// slots hold the start-of-cycle state and gate/input slots hold the
/// during-cycle values — exactly the operand view a combinational cone
/// evaluation at cycle `t` needs.
#[derive(Debug)]
pub struct BitSpan {
    start: usize,
    end: usize,
    /// Words per cycle: `ceil(num_cells / 64)`.
    stride: usize,
    words: Vec<u64>,
}

impl BitSpan {
    /// First cycle covered.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last covered cycle.
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Golden bit of `slot` during (absolute) cycle `t`, broadcast to
    /// all 64 lanes.
    #[inline]
    #[must_use]
    pub fn word_at(&self, slot: usize, t: usize) -> u64 {
        Self::word_in_row(self.row(t), slot)
    }

    /// The packed word row of (absolute) cycle `t`.
    #[inline]
    fn row(&self, t: usize) -> &[u64] {
        &self.words[(t - self.start) * self.stride..][..self.stride]
    }

    /// Golden bit of `slot` within a [`row`](Self::row), broadcast to
    /// all 64 lanes.
    #[inline]
    fn word_in_row(row: &[u64], slot: usize) -> u64 {
        0u64.wrapping_sub(row[slot / 64] >> (slot % 64) & 1)
    }

    /// Golden bit of `slot` during (absolute) cycle `t`.
    #[must_use]
    pub fn bit_at(&self, slot: usize, t: usize) -> bool {
        self.word_at(slot, t) != 0
    }
}

/// A [`SpanCache`] of replayed golden [`BitSpan`]s — the differential
/// kernel's golden source: every span is replayed at most once per store
/// and then served zero-copy to all chunks grading inside it.
pub type BitCache = SpanCache<BitSpan>;

/// Per-worker mutable state of the differential kernel: the deviation
/// words, the list of currently-deviant slots, and the cone worklist.
///
/// Create via [`CompiledSim::new_diff_scratch`]; one scratch serves any
/// number of chunks sequentially (the grader resets it between chunks).
#[derive(Debug)]
pub struct DiffScratch {
    /// `faulty ⊕ golden` per signal slot; non-zero only at `touched`.
    dev: Vec<u64>,
    /// Slots with a non-zero deviation word, unique.
    touched: Vec<u32>,
    /// One bit per instruction position: scheduled for evaluation.
    /// Drained in ascending position order (topological for a levelized
    /// program) by a forward scan that clears each bit as it pops —
    /// O(1) insert, no heap, and the scan touches only the word range
    /// the frontier actually spans.
    dirty: Vec<u64>,
    /// Two-phase flip-flop transfer buffer: `(q_slot, deviation)`.
    ff_updates: Vec<(u32, u64)>,
    /// Gates the last [`diff_cycle`](CompiledSim::diff_cycle) drained.
    cone_gates: usize,
}

impl DiffScratch {
    /// Number of signals currently carrying a deviation (diagnostics).
    #[must_use]
    pub fn active_signals(&self) -> usize {
        self.touched.len()
    }

    /// Gates the last [`diff_cycle`](CompiledSim::diff_cycle) evaluated:
    /// the size of that cycle's deviation cone. Compared against
    /// [`num_instrs`](CompiledSim::num_instrs) it tells how much of the
    /// netlist a cycle's faults have flooded.
    #[must_use]
    pub fn cone_gates(&self) -> usize {
        self.cone_gates
    }

    /// Retires `lanes`: masks their bits out of every deviation word
    /// and drops the slots left clean. A retired lane then reads as the
    /// golden machine, so it stops feeding the cone the next
    /// [`diff_cycle`](CompiledSim::diff_cycle) walks. Call between
    /// cycles, for lanes whose verdict is already decided.
    pub fn retire(&mut self, lanes: u64) {
        let DiffScratch { dev, touched, .. } = self;
        touched.retain(|&slot| {
            let d = &mut dev[slot as usize];
            *d &= !lanes;
            *d != 0
        });
    }
}

impl CompiledSim {
    /// Creates a [`DiffScratch`] sized for this program.
    #[must_use]
    pub fn new_diff_scratch(&self) -> DiffScratch {
        DiffScratch {
            dev: vec![0u64; self.num_cells],
            touched: Vec::new(),
            dirty: vec![0u64; self.instrs.len().div_ceil(64)],
            ff_updates: Vec::new(),
            cone_gates: 0,
        }
    }

    /// Injects an SEU into the deviation state: flips flip-flop `ff` in
    /// lane `lane` (the dev-space form of
    /// [`flip_ff_lane`](Self::flip_ff_lane)).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn diff_seed(&self, sc: &mut DiffScratch, ff: FfIndex, lane: u32) {
        assert!(lane < 64);
        let slot = self.ffs[ff.index()] as usize;
        if sc.dev[slot] == 0 {
            sc.touched.push(slot as u32);
        }
        sc.dev[slot] ^= 1u64 << lane;
        debug_assert!(sc.dev[slot] != 0, "duplicate (ff, lane) seed cancelled itself");
    }

    /// Advances the deviation state through one cycle: cone-limited
    /// combinational settle, then the dev-space flip-flop step.
    ///
    /// Returns `(out_diff, state_diff)`: the OR over primary outputs of
    /// the during-cycle output deviations (lanes whose outputs disagree
    /// with golden — failure detection), and the OR over flip-flops of
    /// the next-state deviations (zero means **every** lane has
    /// reconverged with golden — the early-collapse proof, established
    /// without a register scan).
    ///
    /// `span` must cover cycle `t`; only gates reachable from the dirty
    /// frontier are evaluated.
    pub fn diff_cycle(&self, sc: &mut DiffScratch, span: &BitSpan, t: usize) -> (u64, u64) {
        debug_assert!(
            t >= span.start() && t < span.end(),
            "cycle {t} outside bit span {}..{}",
            span.start(),
            span.end()
        );
        let DiffScratch { dev, touched, dirty, ff_updates, cone_gates } = sc;
        let row = span.row(t);
        // Seed the frontier: every gate reading a deviant signal. Track
        // the word range the frontier spans so the drain scan below
        // never walks the clean remainder of the bitmap.
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &slot in touched.iter() {
            for &pos in self.fanout.consumers_of_slot(slot as usize) {
                let w = pos as usize / 64;
                dirty[w] |= 1u64 << (pos % 64);
                lo = lo.min(w);
                hi = hi.max(w);
            }
        }
        // Cone walk in ascending position order: drain the bitmap with a
        // forward scan, re-reading the current word after every pop so
        // same-word insertions are picked up. A consumer's position
        // always exceeds its producers', so each popped gate sees final
        // operand deviations and is evaluated exactly once.
        let mut w = lo;
        let mut drained = 0usize;
        while w <= hi {
            let word = dirty[w];
            if word == 0 {
                w += 1;
                continue;
            }
            let bit = word.trailing_zeros();
            dirty[w] &= !(1u64 << bit);
            drained += 1;
            let pos = w * 64 + bit as usize;
            let instr = &self.instrs[pos];
            let pins = &self.pin_pool
                [instr.pin_start as usize..(instr.pin_start + instr.pin_len) as usize];
            let faulty = tape::eval_gate(instr.kind, pins, |p| {
                BitSpan::word_in_row(row, p as usize) ^ dev[p as usize]
            });
            let dv = faulty ^ BitSpan::word_in_row(row, instr.out as usize);
            // A zero deviation prunes the fanout: logical masking has
            // absorbed the fault on this path.
            if dv != 0 {
                dev[instr.out as usize] = dv;
                touched.push(instr.out);
                for &succ in self.fanout.consumers_of_slot(instr.out as usize) {
                    let sw = succ as usize / 64;
                    dirty[sw] |= 1u64 << (succ % 64);
                    hi = hi.max(sw);
                }
            }
        }
        *cone_gates = drained;
        let mut out_diff = 0u64;
        for &o in &self.outputs {
            out_diff |= dev[o as usize];
        }
        // Dev-space flip-flop step, two-phase: sample every deviant `D`,
        // clear the old deviations, then write the new `Q` deviations.
        ff_updates.clear();
        for &slot in touched.iter() {
            let dv = dev[slot as usize];
            let row = self.ff_q_start[slot as usize] as usize
                ..self.ff_q_start[slot as usize + 1] as usize;
            for &q in &self.ff_q_targets[row] {
                ff_updates.push((q, dv));
            }
        }
        for &slot in touched.iter() {
            dev[slot as usize] = 0;
        }
        touched.clear();
        let mut state_diff = 0u64;
        for &(q, dv) in ff_updates.iter() {
            if dv != 0 {
                dev[q as usize] = dv;
                touched.push(q);
                state_diff |= dv;
            }
        }
        (out_diff, state_diff)
    }

    /// Leaves deviation space: writes every flip-flop slot of `st` as
    /// the golden state at (absolute) cycle `t` XOR its deviation word,
    /// then clears the deviations.
    ///
    /// Call between cycles — after [`diff_cycle`](Self::diff_cycle) for
    /// cycle `t - 1`, or right after [`diff_seed`](Self::diff_seed) at
    /// injection cycle `t` — when only flip-flop slots carry deviations. A lane
    /// that was never seeded carries no deviation, so it comes out as
    /// the golden machine itself — the companion lane a full-evaluation
    /// walk compares against.
    pub fn diff_materialize(
        &self,
        sc: &mut DiffScratch,
        span: &BitSpan,
        t: usize,
        st: &mut SimState,
    ) {
        debug_assert!(
            t >= span.start() && t < span.end(),
            "cycle {t} outside bit span {}..{}",
            span.start(),
            span.end()
        );
        let row = span.row(t);
        for &slot in &self.ffs {
            let slot = slot as usize;
            st.values[slot] = BitSpan::word_in_row(row, slot) ^ sc.dev[slot];
        }
        self.diff_reset(sc);
    }

    /// Clears all deviations, returning the scratch to the all-clean
    /// state (cheap: proportional to the number of deviant slots).
    pub fn diff_reset(&self, sc: &mut DiffScratch) {
        for &slot in &sc.touched {
            sc.dev[slot as usize] = 0;
        }
        sc.touched.clear();
        debug_assert!(sc.dirty.iter().all(|&w| w == 0), "cone worklist not drained");
    }

    /// Replays the golden run from `seed` (the state at cycle `from`)
    /// and captures the bit-packed internal values for `start..end`.
    pub(crate) fn capture_bit_span(
        &self,
        tb: &Testbench,
        seed: &[bool],
        from: usize,
        start: usize,
        end: usize,
    ) -> BitSpan {
        debug_assert!(from <= start && start < end && end <= tb.num_cycles());
        let mut st = self.new_state();
        self.load_state(&mut st, seed);
        for t in from..start {
            self.set_inputs(&mut st, tb.cycle(t));
            self.eval(&mut st);
            self.step(&mut st);
        }
        let stride = self.num_cells.div_ceil(64);
        let mut words = vec![0u64; stride * (end - start)];
        for t in start..end {
            self.set_inputs(&mut st, tb.cycle(t));
            self.eval(&mut st);
            let base = (t - start) * stride;
            // Golden values are lane-uniform; bit 0 is the whole story.
            for (slot, &v) in st.values.iter().enumerate() {
                words[base + slot / 64] |= (v & 1) << (slot % 64);
            }
            self.step(&mut st);
        }
        BitSpan { start, end, stride, words }
    }
}

impl GoldenTrace {
    /// The golden [`BitSpan`] for cycles `start..end`, served through
    /// (and retained in) `cache` — replayed from the nearest stored
    /// state on a miss, zero-copy on a hit.
    ///
    /// Unlike value windows, bit spans are replayed under **every**
    /// trace policy (internal gate values are never stored); a dense
    /// trace merely seeds the replay at `start` itself.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`, `end > num_cycles()`, or `sim`/`tb`
    /// dimensions do not match the trace.
    #[must_use]
    pub fn bit_span_cached(
        &self,
        sim: &CompiledSim,
        tb: &Testbench,
        start: usize,
        end: usize,
        cache: &mut BitCache,
    ) -> Arc<BitSpan> {
        assert!(start < end, "empty bit span {start}..{end}");
        assert!(end <= self.num_cycles(), "bit span end {end} beyond trace");
        assert_eq!(sim.num_ffs(), self.num_ffs(), "bit span sim flip-flop count");
        assert_eq!(tb.num_cycles(), self.num_cycles(), "bit span test-bench length");
        let (seed, from) = self.seed_for(start);
        cache.get_or_replay((start, end), from, || sim.capture_bit_span(tb, seed, from, start, end))
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::NetlistBuilder;

    use super::*;
    use crate::{broadcast, TracePolicy};

    /// A small sequential circuit with reconvergent fanout, masking
    /// paths and an inverter chain — enough structure to exercise cone
    /// growth, pruning and reconvergence.
    fn gadget() -> seugrade_netlist::Netlist {
        let mut b = NetlistBuilder::new("gadget");
        let en = b.input("en");
        let q0 = b.dff(false);
        let q1 = b.dff(true);
        let q2 = b.dff(false);
        let inv = b.not(q0);
        let inv2 = b.not(inv);
        let a = b.and2(inv2, en);
        let o = b.or2(a, q1);
        let x = b.xor2(o, q2);
        let m = b.mux(en, x, inv);
        b.connect_dff(q0, x).unwrap();
        b.connect_dff(q1, m).unwrap();
        b.connect_dff(q2, a).unwrap();
        b.output("x", x);
        b.output("m", m);
        b.finish().unwrap()
    }

    #[test]
    fn bit_spans_match_golden_values() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(1, 24, 7);
        for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(5)] {
            let trace = sim.run_golden_with(&tb, policy);
            let mut cache = BitCache::new(4);
            let span = trace.bit_span_cached(&sim, &tb, 6, 14, &mut cache);
            // Brute-force reference: full golden run, checking every cell.
            let mut st = sim.new_state();
            for t in 0..14 {
                sim.set_inputs(&mut st, tb.cycle(t));
                sim.eval(&mut st);
                if t >= 6 {
                    for slot in 0..n.num_cells() {
                        assert_eq!(
                            span.word_at(slot, t),
                            broadcast(st.values[slot] & 1 == 1),
                            "policy {policy} slot {slot} cycle {t}"
                        );
                    }
                }
                sim.step(&mut st);
            }
        }
    }

    #[test]
    fn diff_cycles_match_brute_force_divergence() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(1, 30, 42);
        let trace = sim.run_golden(&tb);
        let mut cache = BitCache::new(2);
        let mut sc = sim.new_diff_scratch();
        for ff in 0..sim.num_ffs() {
            for inject in [0usize, 3, 11] {
                // Reference: a full 64-lane run with the flip applied in
                // lanes 1 and 5 at the injection cycle.
                let mut st = sim.new_state();
                let mut ref_trail = Vec::new();
                for t in 0..tb.num_cycles() {
                    if t == inject {
                        sim.flip_ff_lane(&mut st, FfIndex::new(ff), 1);
                        sim.flip_ff_lane(&mut st, FfIndex::new(ff), 5);
                    }
                    sim.set_inputs(&mut st, tb.cycle(t));
                    sim.eval(&mut st);
                    let mut out_diff = 0u64;
                    for (o, w) in sim.outputs_raw(&st).iter().enumerate() {
                        out_diff |= w ^ broadcast(trace.output_at(t)[o]);
                    }
                    sim.step(&mut st);
                    let mut state_diff = 0u64;
                    for f in 0..sim.num_ffs() {
                        state_diff |= sim.ff_raw(&st, FfIndex::new(f))
                            ^ broadcast(trace.state_at(t + 1)[f]);
                    }
                    if t >= inject {
                        ref_trail.push((out_diff, state_diff));
                    }
                }
                // Differential kernel over the same fault.
                sim.diff_seed(&mut sc, FfIndex::new(ff), 1);
                sim.diff_seed(&mut sc, FfIndex::new(ff), 5);
                for (i, &(ro, rs)) in ref_trail.iter().enumerate() {
                    let t = inject + i;
                    let span =
                        trace.bit_span_cached(&sim, &tb, 0, tb.num_cycles(), &mut cache);
                    let (o, s) = sim.diff_cycle(&mut sc, &span, t);
                    assert_eq!(o, ro, "out_diff ff {ff} inject {inject} cycle {t}");
                    assert_eq!(s, rs, "state_diff ff {ff} inject {inject} cycle {t}");
                }
                sim.diff_reset(&mut sc);
                assert_eq!(sc.active_signals(), 0);
            }
        }
    }

    #[test]
    fn reconverged_state_stays_clean_for_free() {
        // A decaying pipeline: d2 <- d1 <- d0 <- 0. A flip in d0 washes
        // out in three cycles; afterwards diff_cycle must evaluate
        // nothing and report zero diffs.
        let mut b = NetlistBuilder::new("decay");
        let zero = b.constant(false);
        let d0 = b.dff(false);
        let d1 = b.dff(false);
        let d2 = b.dff(false);
        b.connect_dff(d0, zero).unwrap();
        b.connect_dff(d1, d0).unwrap();
        b.connect_dff(d2, d1).unwrap();
        b.output("y", d2);
        let n = b.finish().unwrap();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(0, 8);
        let trace = sim.run_golden(&tb);
        let mut cache = BitCache::new(1);
        let span = trace.bit_span_cached(&sim, &tb, 0, 8, &mut cache);
        let mut sc = sim.new_diff_scratch();
        sim.diff_seed(&mut sc, FfIndex::new(0), 0);
        let mut diffs = Vec::new();
        for t in 0..6 {
            diffs.push(sim.diff_cycle(&mut sc, &span, t));
        }
        // The deviation marches d0 -> d1 -> d2, shows at the output for
        // exactly one cycle, then the machine is reconverged for good.
        assert_eq!(diffs[0].0, 0, "not yet observable");
        assert_ne!(diffs[1].1, 0, "still marching");
        assert_ne!(diffs[2].0, 0, "observable at d2");
        assert_eq!(diffs[2].1, 0, "reconverged after the march");
        assert_eq!(diffs[3], (0, 0));
        assert_eq!(diffs[4], (0, 0));
        assert_eq!(sc.active_signals(), 0, "no lingering deviations");
        assert_eq!(sc.cone_gates(), 0, "a clean cycle evaluates nothing");
    }

    #[test]
    fn materialized_state_matches_the_full_lane_run() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::random(1, 20, 3);
        let trace = sim.run_golden(&tb);
        // 8-cycle bit spans, so the switch cycles below land inside a
        // span, on a span start, and in the last cycle.
        let span_of = |t: usize, cache: &mut BitCache| {
            let start = t - t % 8;
            trace.bit_span_cached(&sim, &tb, start, (start + 8).min(20), cache)
        };
        let mut cache = BitCache::new(4);
        let mut sc = sim.new_diff_scratch();
        for ff in 0..sim.num_ffs() {
            for (inject, switch) in [(0usize, 3usize), (5, 8), (9, 19)] {
                // Reference: the flip applied in lanes 1 and 5 of a
                // full 64-lane run, advanced to the switch cycle.
                let mut reference = sim.new_state();
                for t in 0..switch {
                    if t == inject {
                        sim.flip_ff_lane(&mut reference, FfIndex::new(ff), 1);
                        sim.flip_ff_lane(&mut reference, FfIndex::new(ff), 5);
                    }
                    sim.cycle(&mut reference, tb.cycle(t));
                }
                sim.diff_seed(&mut sc, FfIndex::new(ff), 1);
                sim.diff_seed(&mut sc, FfIndex::new(ff), 5);
                for t in inject..switch {
                    let _ = sim.diff_cycle(&mut sc, &span_of(t, &mut cache), t);
                }
                let span = span_of(switch, &mut cache);
                let mut st = sim.new_state();
                sim.diff_materialize(&mut sc, &span, switch, &mut st);
                assert_eq!(sc.active_signals(), 0, "deviations cleared");
                for f in 0..sim.num_ffs() {
                    let f = FfIndex::new(f);
                    assert_eq!(
                        sim.ff_raw(&st, f),
                        sim.ff_raw(&reference, f),
                        "ff {ff} inject {inject} switch {switch}: {f:?}"
                    );
                    assert_eq!(
                        sim.ff_raw(&st, f) >> 63 & 1 == 1,
                        trace.state_at(switch)[f.index()],
                        "lane 63 is the golden machine"
                    );
                }
            }
        }
    }

    #[test]
    fn retire_masks_lanes_and_drops_clean_slots() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let mut sc = sim.new_diff_scratch();
        sim.diff_seed(&mut sc, FfIndex::new(0), 1);
        sim.diff_seed(&mut sc, FfIndex::new(0), 5);
        sim.diff_seed(&mut sc, FfIndex::new(2), 1);
        assert_eq!(sc.active_signals(), 2);
        // Lane 1 leaves ff 2 clean; ff 0 keeps lane 5.
        sc.retire(1 << 1);
        assert_eq!(sc.active_signals(), 1);
        sc.retire(1 << 5);
        assert_eq!(sc.active_signals(), 0);
    }

    #[test]
    fn shared_bit_cache_replays_each_span_once() {
        let n = gadget();
        let sim = crate::CompiledSim::new(&n);
        let tb = Testbench::constant_low(1, 16);
        let trace = sim.run_golden_with(&tb, TracePolicy::Checkpoint(4));
        let root = BitCache::shared(4);
        let mut a = root.clone_handle();
        let mut b = root.clone_handle();
        let _ = trace.bit_span_cached(&sim, &tb, 4, 8, &mut a);
        let _ = trace.bit_span_cached(&sim, &tb, 4, 8, &mut b);
        assert_eq!((a.misses(), a.hits()), (1, 0));
        assert_eq!((b.misses(), b.hits()), (0, 1));
        assert_eq!(a.replayed_cycles(), 4);
        assert_eq!(b.replayed_cycles(), 0);
        // Disabled cache: every request replays.
        let mut d = BitCache::disabled();
        let _ = trace.bit_span_cached(&sim, &tb, 4, 8, &mut d);
        let _ = trace.bit_span_cached(&sim, &tb, 4, 8, &mut d);
        assert_eq!((d.misses(), d.hits()), (2, 0));
    }
}
