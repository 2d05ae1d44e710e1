//! Name → circuit lookup for examples and the benchmark harness.

use seugrade_netlist::Netlist;

use crate::{fixtures, generators, small, viper};

/// Names accepted by [`build`], in display order.
///
/// The `s27`/`s208a`/`s344a` entries are backed by the on-disk
/// benchmark fixtures under `fixtures/` (see [`fixtures`]), imported
/// through the `seugrade-netlist` ingestion layer — so the
/// external-format path is exercised by every registry-driven suite.
/// The `*v` entries are their structural-Verilog twins and `b14c` is
/// the b14-interface-class VHDL fixture (32 in, 54 out, 245 FFs), so
/// both HDL frontends ride the same suites. `s5378g` is the
/// generator-produced s5378-class scale fixture
/// ([`generators::s5378_class`], 1536 flip-flops): the workload the
/// streaming campaign core (`TracePolicy::Checkpoint`, streamed fault
/// sources) exists for. `s38417g` ([`generators::s38417_class`],
/// 10,240 flip-flops) is its order-of-magnitude-larger sibling for
/// scale benchmarking.
pub const NAMES: [&str; 19] = [
    "viper",
    "b01s",
    "b02s",
    "b03s",
    "b06s",
    "b09s",
    "b13s",
    "b14c",
    "s27",
    "s27v",
    "s208a",
    "s208av",
    "s344a",
    "s344av",
    "s5378g",
    "s38417g",
    "lfsr16",
    "counter8",
    "shreg32",
];

/// Builds a registered circuit by name, or `None` for unknown names.
///
/// # Example
///
/// ```
/// let n = seugrade_circuits::registry::build("counter8").expect("known");
/// assert_eq!(n.num_ffs(), 8);
/// assert!(seugrade_circuits::registry::build("nope").is_none());
/// ```
#[must_use]
pub fn build(name: &str) -> Option<Netlist> {
    match name {
        "viper" => Some(viper::viper()),
        "b01s" => Some(small::b01_style()),
        "b02s" => Some(small::b02_style()),
        "b03s" => Some(small::b03_style()),
        "b06s" => Some(small::b06_style()),
        "b09s" => Some(small::b09_style()),
        "b13s" => Some(small::b13_style()),
        "b14c" => Some(fixtures::b14c()),
        "s27" => Some(fixtures::s27()),
        "s27v" => Some(fixtures::s27v()),
        "s208a" => Some(fixtures::s208a()),
        "s208av" => Some(fixtures::s208av()),
        "s344a" => Some(fixtures::s344a()),
        "s344av" => Some(fixtures::s344av()),
        "s5378g" => Some(generators::s5378_class()),
        "s38417g" => Some(generators::s38417_class()),
        "lfsr16" => Some(generators::lfsr(16, &[15, 13, 12, 10])),
        "counter8" => Some(generators::counter(8)),
        "shreg32" => Some(generators::shift_register(32)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_build() {
        for name in NAMES {
            let n = build(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(!n.name().is_empty());
            assert!(n.num_ffs() > 0, "{name} has no flip-flops");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("definitely-not-a-circuit").is_none());
    }

    #[test]
    fn names_are_unique() {
        let set: std::collections::HashSet<&str> = NAMES.iter().copied().collect();
        assert_eq!(set.len(), NAMES.len());
    }
}
