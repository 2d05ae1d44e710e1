//! The one chunk planner: injections packed into golden spans.

use crate::{FaultOutcome, Injection};

/// A stable counting sort of a fault list by injection cycle, cut into
/// chunks of at most `lanes` faults whose cycles all fall in one
/// `span`-aligned golden span — the chunking of every fault source but
/// the arithmetic exhaustive space.
///
/// A chunk is a span, not a cycle: [`Grader::grade_chunk`](crate::Grader::grade_chunk)
/// starts at the chunk's earliest cycle and seeds each lane when the
/// walk reaches that lane's own cycle, so sparse samples fill their
/// lanes instead of running one near-empty chunk per injection cycle.
/// Inside a span, chunks are consecutive runs in cycle order.
#[derive(Clone, Debug)]
pub struct SpanOrder {
    /// Cycle-major permutation of submission indices.
    order: Vec<u32>,
    /// `(lo, hi)` ranges into `order`, one per chunk.
    batches: Vec<(usize, usize)>,
}

impl SpanOrder {
    /// Sorts `faults` by injection cycle (stable) and cuts every
    /// `span`-aligned run of cycles into chunks of at most `lanes`.
    ///
    /// # Panics
    ///
    /// Panics if a fault's cycle is `>= num_cycles`, if `span` is 0, or
    /// if `lanes` is 0 or exceeds the 64-lane word width.
    #[must_use]
    pub fn new<I: Injection>(faults: &[I], num_cycles: usize, span: usize, lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "chunk lanes out of range");
        assert!(span > 0, "golden spans hold at least one cycle");
        let mut offsets = vec![0usize; num_cycles + 1];
        for f in faults {
            assert!((f.cycle() as usize) < num_cycles, "fault cycle out of range");
            offsets[f.cycle() as usize + 1] += 1;
        }
        for c in 0..num_cycles {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0u32; faults.len()];
        for (i, f) in faults.iter().enumerate() {
            let c = f.cycle() as usize;
            order[cursor[c]] = i as u32;
            cursor[c] += 1;
        }
        let mut batches: Vec<(usize, usize)> = Vec::new();
        for s in (0..num_cycles).step_by(span) {
            let (mut start, end) = (offsets[s], offsets[(s + span).min(num_cycles)]);
            while start < end {
                let stop = (start + lanes).min(end);
                batches.push((start, stop));
                start = stop;
            }
        }
        SpanOrder { order, batches }
    }

    /// Number of chunks.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.batches.len()
    }

    /// Faults before chunk `chunk`: chunks partition the sorted list
    /// contiguously, so this is the previous chunk's end.
    #[must_use]
    pub fn faults_before(&self, chunk: usize) -> usize {
        match chunk {
            0 => 0,
            c if c >= self.batches.len() => self.order.len(),
            c => self.batches[c - 1].1,
        }
    }

    /// Submission indices of chunk `i`'s faults, in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_chunks()`.
    pub fn chunk(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = self.batches[i];
        self.order[lo..hi].iter().map(|&fi| fi as usize)
    }

    /// Scatters chunk `i`'s verdicts (parallel to [`chunk`](Self::chunk))
    /// back into submission order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_chunks()` or `dest` is shorter than the list.
    pub fn scatter(&self, i: usize, out: &[FaultOutcome], dest: &mut [FaultOutcome]) {
        for (fi, &o) in self.chunk(i).zip(out) {
            dest[fi] = o;
        }
    }
}

#[cfg(test)]
mod tests {
    use seugrade_netlist::FfIndex;

    use super::*;
    use crate::{Fault, FaultList};

    #[test]
    fn chunks_pack_whole_spans_in_cycle_order() {
        // Cycles 0..12, spans of 4: 3 faults per cycle, so 12 per span.
        let list = FaultList::exhaustive(3, 12);
        let order = SpanOrder::new(list.as_slice(), 12, 4, 5);
        // Each 12-fault span cuts into 5 + 5 + 2.
        assert_eq!(order.num_chunks(), 3 * 3);
        let mut walked = 0;
        for i in 0..order.num_chunks() {
            assert_eq!(order.faults_before(i), walked);
            let faults: Vec<Fault> = order.chunk(i).map(|fi| list.as_slice()[fi]).collect();
            let span = faults[0].cycle / 4;
            assert!(faults.iter().all(|f| f.cycle / 4 == span), "chunk {i} stays in one span");
            assert!(faults.windows(2).all(|w| w[0].cycle <= w[1].cycle), "cycle order");
            walked += faults.len();
        }
        assert_eq!(order.faults_before(order.num_chunks()), list.len());
    }

    #[test]
    fn a_short_last_span_and_unit_spans_cut_correctly() {
        let faults: Vec<Fault> =
            [(0, 9), (1, 0), (2, 9), (0, 3)].map(|(ff, c)| Fault::new(FfIndex::new(ff), c)).into();
        // Span 4 over 10 cycles: spans 0..4, 4..8, 8..10.
        let order = SpanOrder::new(&faults, 10, 4, 63);
        let chunks: Vec<Vec<usize>> = (0..order.num_chunks()).map(|i| order.chunk(i).collect()).collect();
        assert_eq!(chunks, [vec![1, 3], vec![0, 2]], "stable inside a span");
        // Span 1 is the per-cycle cut.
        let per_cycle = SpanOrder::new(&faults, 10, 1, 63);
        assert_eq!(per_cycle.num_chunks(), 3);
        let mut dest = vec![FaultOutcome::latent(); faults.len()];
        for i in 0..per_cycle.num_chunks() {
            let out: Vec<FaultOutcome> =
                per_cycle.chunk(i).map(|fi| FaultOutcome::failure(faults[fi].cycle)).collect();
            per_cycle.scatter(i, &out, &mut dest);
        }
        for (f, o) in faults.iter().zip(&dest) {
            assert_eq!(o.detect_cycle, Some(f.cycle), "{f}");
        }
    }
}
