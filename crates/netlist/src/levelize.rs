//! Topological levelization of the combinational network.

use crate::{CellKind, Netlist, NetlistError, SigId};

/// Result of levelizing a netlist: a topological order of the combinational
/// cells plus per-cell logic levels.
///
/// Sources (primary inputs, constants and flip-flop outputs) sit at level
/// 0; every gate sits one level above its deepest pin. The order is the
/// evaluation schedule used by the compiled simulator.
#[derive(Clone, Debug)]
pub struct Levelization {
    order: Vec<SigId>,
    level: Vec<u32>,
    depth: u32,
}

impl Levelization {
    /// Combinational cells in evaluation (topological) order.
    #[must_use]
    pub fn order(&self) -> &[SigId] {
        &self.order
    }

    /// Logic level of a cell (0 for sources).
    ///
    /// # Panics
    ///
    /// Panics if `sig` is out of range for the levelized netlist.
    #[must_use]
    pub fn level(&self, sig: SigId) -> u32 {
        self.level[sig.index()]
    }

    /// Maximum logic level in the netlist (the combinational depth).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Levelized fanout adjacency: for every signal, the gates that consume
/// it, identified by their **position** in a [`Levelization::order`]
/// (compressed sparse rows).
///
/// Positions, not [`SigId`]s, because the consumers of a levelized
/// program are evaluation engines: a position indexes straight into the
/// compiled tape, and ascending positions are already topological — a
/// worklist that pops positions in increasing order evaluates every
/// gate after all of its cone predecessors. This is the traversal
/// structure behind the differential (dirty-frontier) fault kernel.
#[derive(Clone, Debug)]
pub struct FanoutAdjacency {
    /// CSR row starts, one per signal plus a terminator.
    start: Vec<u32>,
    /// Consumer gate positions, ascending within each row.
    targets: Vec<u32>,
}

impl FanoutAdjacency {
    /// Order positions of the gates reading `sig`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `sig` is out of range for the levelized netlist.
    #[must_use]
    pub fn consumers(&self, sig: SigId) -> &[u32] {
        let i = sig.index();
        &self.targets[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Consumer positions of a raw signal slot (same rows as
    /// [`consumers`](Self::consumers), index form).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn consumers_of_slot(&self, slot: usize) -> &[u32] {
        &self.targets[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// Total number of (signal → gate) edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

impl Netlist {
    /// Builds the [`FanoutAdjacency`] of a levelization of this netlist:
    /// for each signal, the order-positions of the gates consuming it.
    ///
    /// `lv` must be a levelization of this same netlist (the compiled
    /// simulator guarantees this by construction).
    ///
    /// # Panics
    ///
    /// Panics if `lv` orders a different cell count than this netlist
    /// has gates.
    #[must_use]
    pub fn levelized_fanout(&self, lv: &Levelization) -> FanoutAdjacency {
        assert_eq!(lv.order().len(), self.num_gates(), "levelization mismatch");
        let n = self.cells.len();
        let mut counts = vec![0u32; n + 1];
        for &id in lv.order() {
            for p in self.cell(id).pins() {
                counts[p.index() + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let start = counts;
        let mut cursor = start.clone();
        let mut targets = vec![0u32; start[n] as usize];
        // Walking positions in ascending order fills each row ascending,
        // which is what keeps frontier traversals topological.
        for (pos, &id) in lv.order().iter().enumerate() {
            for p in self.cell(id).pins() {
                let c = &mut cursor[p.index()];
                targets[*c as usize] = pos as u32;
                *c += 1;
            }
        }
        FanoutAdjacency { start, targets }
    }

    /// Computes a topological order of the combinational cells.
    ///
    /// Flip-flop outputs, constants and inputs are treated as sources, so
    /// sequential loops through flip-flops are fine; loops through gates
    /// are reported as errors.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] listing the cells that
    /// could not be scheduled (all of them lie on, or are fed by, a cycle).
    pub fn levelize(&self) -> Result<Levelization, NetlistError> {
        let n = self.cells.len();
        let mut remaining_pins = vec![0u32; n];
        let mut level = vec![0u32; n];
        let mut ready: Vec<SigId> = Vec::new();

        // A cell "waits" on a pin only if the pin is driven by a
        // combinational cell (gates). Dffs/inputs/constants are sources.
        for (id, cell) in self.iter_cells() {
            if !matches!(cell.kind(), CellKind::Gate(_)) {
                continue;
            }
            let waits = cell
                .pins()
                .iter()
                .filter(|p| matches!(self.cell(**p).kind(), CellKind::Gate(_)))
                .count() as u32;
            remaining_pins[id.index()] = waits;
            if waits == 0 {
                ready.push(id);
            }
        }

        let fanout = self.fanout_map();
        let total_gates = self.num_gates();
        let mut order = Vec::with_capacity(total_gates);
        let mut depth = 0u32;

        while let Some(id) = ready.pop() {
            let lvl = self
                .cell(id)
                .pins()
                .iter()
                .map(|p| level[p.index()])
                .max()
                .unwrap_or(0)
                + 1;
            level[id.index()] = lvl;
            depth = depth.max(lvl);
            order.push(id);
            for &succ in &fanout[id.index()] {
                if matches!(self.cell(succ).kind(), CellKind::Gate(_)) {
                    let r = &mut remaining_pins[succ.index()];
                    *r -= 1;
                    if *r == 0 {
                        ready.push(succ);
                    }
                }
            }
        }

        if order.len() != total_gates {
            let mut cells: Vec<SigId> = self
                .iter_cells()
                .filter(|(id, c)| {
                    matches!(c.kind(), CellKind::Gate(_)) && remaining_pins[id.index()] > 0
                })
                .map(|(id, _)| id)
                .collect();
            cells.sort();
            return Err(NetlistError::CombinationalLoop { cells });
        }

        Ok(Levelization { order, level, depth })
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, NetlistBuilder};
    use super::*;

    #[test]
    fn linear_chain_levels() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.not(a);
        let g2 = b.not(g1);
        let g3 = b.not(g2);
        b.output("y", g3);
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.depth(), 3);
        assert_eq!(lv.level(g1), 1);
        assert_eq!(lv.level(g2), 2);
        assert_eq!(lv.level(g3), 3);
        assert_eq!(lv.order().len(), 3);
        // Topological: g1 before g2 before g3.
        let pos = |s| lv.order().iter().position(|&x| x == s).unwrap();
        assert!(pos(g1) < pos(g2));
        assert!(pos(g2) < pos(g3));
    }

    #[test]
    fn dff_breaks_cycles() {
        let mut b = NetlistBuilder::new("loop_ok");
        let q = b.dff(false);
        let inv = b.not(q);
        b.connect_dff(q, inv).unwrap();
        b.output("q", q);
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.depth(), 1);
        assert_eq!(lv.level(q), 0);
    }

    #[test]
    fn diamond_depth() {
        let mut b = NetlistBuilder::new("diamond");
        let a = b.input("a");
        let l = b.not(a);
        let r = b.buf(a);
        let j = b.and2(l, r);
        b.output("y", j);
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.depth(), 2);
        assert_eq!(lv.level(j), 2);
    }

    #[test]
    fn combinational_loop_detected_via_text() {
        // The builder API cannot express gate loops, but the text parser
        // can; ensure levelize rejects them.
        let src = "\
model bad
input a
gate and g1 a g2
gate and g2 a g1
output y g1
end
";
        let err = crate::text::parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { cells } if cells.len() == 2));
    }

    #[test]
    fn constants_are_sources() {
        let mut b = NetlistBuilder::new("c");
        let c = b.constant(true);
        let g = b.not(c);
        b.output("y", g);
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.level(g), 1);
    }

    #[test]
    fn fanout_adjacency_rows_are_topological() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let q = b.dff(false);
        let inv = b.not(a);
        let g1 = b.and2(inv, q);
        let g2 = b.or2(a, g1);
        b.connect_dff(q, g2).unwrap();
        b.output("y", g2);
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        let fan = n.levelized_fanout(&lv);
        assert_eq!(fan.num_edges(), 5, "one edge per gate pin");
        let pos = |s: SigId| lv.order().iter().position(|&x| x == s).unwrap() as u32;
        // `a` feeds the inverter and the or gate.
        let mut expect = [pos(inv), pos(g2)];
        expect.sort_unstable();
        assert_eq!(fan.consumers(a), &expect[..]);
        // The flip-flop output feeds only the and gate.
        assert_eq!(fan.consumers(q), &[pos(g1)]);
        // Rows are ascending (topological worklist invariant).
        for (id, _) in n.iter_cells() {
            let row = fan.consumers(id);
            assert!(row.windows(2).all(|w| w[0] <= w[1]), "row sorted");
        }
        // Every consumer position is after the producer's own position.
        for &id in lv.order() {
            for &c in fan.consumers(id) {
                assert!(c > pos(id), "consumer scheduled after producer");
            }
        }
    }

    #[test]
    fn wide_netlist_orders_all_gates() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.input("a");
        let mut sigs = vec![a];
        for i in 0..50 {
            let prev = sigs[i / 2];
            let s = b.gate(GateKind::Xor, &[prev, sigs[sigs.len() - 1]]);
            sigs.push(s);
        }
        b.output("y", *sigs.last().unwrap());
        let n = b.finish().unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.order().len(), n.num_gates());
    }
}
