//! Netlist ingestion: shared lowering, format detection, buffer
//! sweeping and import statistics.
//!
//! This module is the common back half of every textual frontend in the
//! crate — the native [SNL format](crate::text), the ISCAS'85/'89
//! [`.bench` format](crate::bench), the [structural BLIF
//! subset](crate::blif), the [structural Verilog subset](crate::vlog)
//! and the [ITC'99-style VHDL subset](crate::vhdl). Each frontend
//! tokenizes its own surface syntax
//! into the shared statement IR (`Stmt`, crate-internal) and hands it
//! to the one lowering path, which:
//!
//! 1. rejects duplicate net definitions and duplicate output ports with
//!    source line numbers;
//! 2. declares inputs, constants and flip-flops so forward references
//!    resolve;
//! 3. materializes gates to a fixpoint (any statement order is accepted)
//!    and reports never-defined nets as [`NetlistError::UnknownNet`];
//! 4. closes sequential loops and validates the result through
//!    [`NetlistBuilder::finish`] (dangling signals, levelization /
//!    combinational-cycle check, flip-flop connectivity).
//!
//! The user-facing entry points are [`import_str`] and [`import_path`],
//! which add [format detection](SourceFormat), an optional buffer sweep
//! and an [`ImportStats`] report on top of the raw parsers. The on-disk
//! grammars themselves are specified in `docs/FORMATS.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use seugrade_netlist::import::{import_str, SourceFormat};
//!
//! let src = "\
//! INPUT(a)
//! OUTPUT(y)
//! q = DFF(nx)
//! nx = XOR(a, q)
//! y = BUF(q)
//! ";
//! let imported = import_str(src, SourceFormat::Bench)?;
//! assert_eq!(imported.netlist.num_ffs(), 1);
//! assert_eq!(imported.stats.swept_buffers, 1); // the BUF was swept
//! # Ok::<(), seugrade_netlist::NetlistError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::Path;

use crate::{Cell, CellKind, GateKind, Netlist, NetlistBuilder, NetlistError, SigId};

/// One frontend-independent netlist statement, tagged with its 1-based
/// source line for error reporting.
///
/// Net references are plain tokens; resolution (including forward
/// references) happens in [`lower`].
#[derive(Clone, Debug)]
pub(crate) enum Stmt<'a> {
    /// A primary input declaration.
    Input {
        /// Port (and net) name.
        name: &'a str,
    },
    /// A constant driver.
    Const {
        /// Net name.
        net: &'a str,
        /// Driven value.
        value: bool,
    },
    /// A combinational gate.
    Gate {
        /// Gate function.
        kind: GateKind,
        /// Output net name.
        net: &'a str,
        /// Input net names, in pin order.
        pins: Vec<&'a str>,
    },
    /// A D flip-flop.
    Dff {
        /// Output net name.
        net: &'a str,
        /// Cycle-0 value.
        init: bool,
        /// Data-input net name (forward references allowed).
        d: &'a str,
    },
    /// A primary output declaration.
    Output {
        /// Port name.
        name: &'a str,
        /// Driven-by net name.
        net: &'a str,
    },
}

/// Lowers a frontend's statement list into a validated [`Netlist`].
///
/// This is the shared import layer: every textual frontend funnels
/// through here, so duplicate/undefined-net diagnostics, gate fixpoint
/// ordering and final validation behave identically across formats.
pub(crate) fn lower(
    model_name: String,
    stmts: &[(usize, Stmt<'_>)],
) -> Result<Netlist, NetlistError> {
    // Duplicate net definitions and duplicate output ports, with lines.
    {
        let mut defined: HashMap<&str, usize> = HashMap::new();
        let mut out_ports: HashMap<&str, usize> = HashMap::new();
        for (line, stmt) in stmts {
            match stmt {
                Stmt::Input { name } => {
                    if defined.insert(name, *line).is_some() {
                        return Err(NetlistError::Parse {
                            line: *line,
                            msg: format!("net `{name}` defined twice"),
                        });
                    }
                }
                Stmt::Const { net, .. } | Stmt::Dff { net, .. } | Stmt::Gate { net, .. } => {
                    if defined.insert(net, *line).is_some() {
                        return Err(NetlistError::Parse {
                            line: *line,
                            msg: format!("net `{net}` defined twice"),
                        });
                    }
                }
                Stmt::Output { name, .. } => {
                    if out_ports.insert(name, *line).is_some() {
                        return Err(NetlistError::Parse {
                            line: *line,
                            msg: format!("output `{name}` declared twice"),
                        });
                    }
                }
            }
        }
    }

    let mut b = NetlistBuilder::new(model_name);
    let mut nets: HashMap<&str, SigId> = HashMap::new();

    // Inputs, constants and flip-flops first: they can be referenced
    // freely (flip-flop outputs are the sequential feedback points).
    for (_, stmt) in stmts {
        match stmt {
            Stmt::Input { name } => {
                let id = b.input(*name);
                nets.insert(name, id);
            }
            Stmt::Const { net, value } => {
                // Constants are deduplicated by the builder: several
                // const nets of the same value alias one cell.
                let id = b.constant(*value);
                nets.insert(net, id);
            }
            Stmt::Dff { net, init, .. } => {
                let id = b.dff(*init);
                nets.insert(net, id);
            }
            _ => {}
        }
    }

    // Gates to a fixpoint: statement order is usually already
    // topological, so this loop normally completes in one sweep. Gates
    // whose pins are not all resolved yet are retried next round.
    let mut pending: Vec<(usize, &Stmt<'_>)> = stmts
        .iter()
        .filter(|(_, s)| matches!(s, Stmt::Gate { .. }))
        .map(|(l, s)| (*l, s))
        .collect();
    loop {
        let before = pending.len();
        pending.retain(|(_, stmt)| {
            let Stmt::Gate { kind, net, pins } = stmt else { unreachable!() };
            let resolved: Option<Vec<SigId>> =
                pins.iter().map(|p| nets.get(p).copied()).collect();
            match resolved {
                Some(pin_ids) => {
                    let id = b.gate(*kind, &pin_ids);
                    nets.insert(net, id);
                    false
                }
                None => true,
            }
        });
        if pending.is_empty() || pending.len() == before {
            break;
        }
    }
    if !pending.is_empty() {
        // Either a reference to a never-defined net, or a combinational
        // loop among gates; distinguish by checking whether every pin
        // name is defined *somewhere* in the file.
        let all_defined: std::collections::HashSet<&str> = stmts
            .iter()
            .filter_map(|(_, s)| match s {
                Stmt::Input { name } => Some(*name),
                Stmt::Const { net, .. } | Stmt::Dff { net, .. } | Stmt::Gate { net, .. } => {
                    Some(*net)
                }
                Stmt::Output { .. } => None,
            })
            .collect();
        for (line, stmt) in &pending {
            let Stmt::Gate { pins, .. } = stmt else { unreachable!() };
            for p in pins {
                if !all_defined.contains(p) {
                    return Err(NetlistError::UnknownNet {
                        line: *line,
                        name: (*p).to_owned(),
                    });
                }
            }
        }
        // All names exist but the gates never became ready: a cycle.
        // The cells were never created, so report placeholder ids in
        // file order.
        let cells: Vec<SigId> = (0..pending.len()).map(SigId::new).collect();
        return Err(NetlistError::CombinationalLoop { cells });
    }

    // Close sequential loops and declare outputs.
    for (line, stmt) in stmts {
        match stmt {
            Stmt::Dff { net, d, .. } => {
                let ff = nets[net];
                let d_id = *nets.get(d).ok_or_else(|| NetlistError::UnknownNet {
                    line: *line,
                    name: (*d).to_owned(),
                })?;
                b.connect_dff(ff, d_id)?;
            }
            Stmt::Output { name, net } => {
                let sig = *nets.get(net).ok_or_else(|| NetlistError::UnknownNet {
                    line: *line,
                    name: (*net).to_owned(),
                })?;
                b.output(*name, sig);
            }
            _ => {}
        }
    }

    b.finish()
}

/// The on-disk netlist formats the import layer understands.
///
/// Grammars for all five are specified in `docs/FORMATS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SourceFormat {
    /// The crate's native line-based format ([`crate::text`]).
    Snl,
    /// ISCAS'85/'89 `.bench` ([`crate::bench`]).
    Bench,
    /// Structural BLIF subset ([`crate::blif`]).
    Blif,
    /// Structural Verilog subset ([`crate::vlog`]).
    Verilog,
    /// ITC'99-style VHDL subset ([`crate::vhdl`], import only).
    Vhdl,
}

impl SourceFormat {
    /// Guesses the format from a file extension (`snl`, `bench`, `blif`,
    /// `v`/`vlog`, `vhd`/`vhdl`; case-insensitive). Returns `None` for
    /// anything else.
    #[must_use]
    pub fn from_extension(path: &Path) -> Option<Self> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "snl" => Some(SourceFormat::Snl),
            "bench" => Some(SourceFormat::Bench),
            "blif" => Some(SourceFormat::Blif),
            "v" | "vlog" => Some(SourceFormat::Verilog),
            "vhd" | "vhdl" => Some(SourceFormat::Vhdl),
            _ => None,
        }
    }

    /// Guesses the format from file contents.
    ///
    /// The first non-blank, non-`#`-comment line decides: a `//` or
    /// `/*` comment or a leading `module` keyword means Verilog; a `--`
    /// comment or a leading `entity`/`library`/`use`/`architecture`
    /// keyword (case-insensitive) means VHDL; a `.` keyword means BLIF;
    /// `INPUT(`/`OUTPUT(`/`=` assignments mean `.bench`; everything
    /// else is assumed to be SNL.
    #[must_use]
    pub fn sniff(src: &str) -> Self {
        for raw in src.lines() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with("//") || line.starts_with("/*") {
                return SourceFormat::Verilog;
            }
            if line.starts_with("--") {
                return SourceFormat::Vhdl;
            }
            if line.starts_with('.') {
                return SourceFormat::Blif;
            }
            let first = line.split_whitespace().next().unwrap_or("");
            if first == "module" {
                return SourceFormat::Verilog;
            }
            if ["entity", "library", "use", "architecture"]
                .iter()
                .any(|kw| first.eq_ignore_ascii_case(kw))
            {
                return SourceFormat::Vhdl;
            }
            if line.contains('=')
                || line.to_ascii_uppercase().starts_with("INPUT(")
                || line.to_ascii_uppercase().starts_with("OUTPUT(")
            {
                return SourceFormat::Bench;
            }
            return SourceFormat::Snl;
        }
        SourceFormat::Snl
    }

    /// Lower-case label (`snl`, `bench`, `blif`, `verilog`, `vhdl`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SourceFormat::Snl => "snl",
            SourceFormat::Bench => "bench",
            SourceFormat::Blif => "blif",
            SourceFormat::Verilog => "verilog",
            SourceFormat::Vhdl => "vhdl",
        }
    }

    /// Parses a label produced by [`label`](Self::label); the file
    /// extensions (`v`, `vlog`, `vhd`) are accepted as aliases.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "snl" => Some(SourceFormat::Snl),
            "bench" => Some(SourceFormat::Bench),
            "blif" => Some(SourceFormat::Blif),
            "verilog" | "v" | "vlog" => Some(SourceFormat::Verilog),
            "vhdl" | "vhd" => Some(SourceFormat::Vhdl),
            _ => None,
        }
    }
}

impl fmt::Display for SourceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Knobs for [`import_str_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImportOptions {
    /// Remove identity buffers by rewiring their consumers (default
    /// `true`). Mapped benchmark netlists are full of `BUF`s that would
    /// otherwise waste simulator cells.
    pub sweep_buffers: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions { sweep_buffers: true }
    }
}

/// What an import did, for reporting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportStats {
    /// The frontend that parsed the source.
    pub format: SourceFormat,
    /// Cells produced by the parser, before sweeping.
    pub parsed_cells: usize,
    /// Identity buffers removed by the sweep (0 when disabled).
    pub swept_buffers: usize,
    /// Primary inputs of the imported netlist.
    pub inputs: usize,
    /// Primary outputs of the imported netlist.
    pub outputs: usize,
    /// Flip-flops of the imported netlist.
    pub ffs: usize,
    /// Combinational gates after sweeping.
    pub gates: usize,
}

impl fmt::Display for ImportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} import: {} in, {} out, {} FF, {} gates ({} parsed cells, {} buffers swept)",
            self.format, self.inputs, self.outputs, self.ffs, self.gates,
            self.parsed_cells, self.swept_buffers
        )
    }
}

/// A successfully imported netlist plus its [`ImportStats`].
#[derive(Clone, Debug)]
pub struct Imported {
    /// The validated (and, by default, buffer-swept) netlist.
    pub netlist: Netlist,
    /// What the import did.
    pub stats: ImportStats,
}

/// Imports netlist text in the given format with default options
/// (buffer sweeping on).
///
/// # Errors
///
/// Propagates the frontend's parse errors and the shared validation
/// errors; see the [error contract](crate::NetlistError).
pub fn import_str(src: &str, format: SourceFormat) -> Result<Imported, NetlistError> {
    import_str_with(src, format, ImportOptions::default())
}

/// Imports netlist text with explicit [`ImportOptions`].
///
/// # Errors
///
/// Propagates the frontend's parse errors and the shared validation
/// errors; see the [error contract](crate::NetlistError).
pub fn import_str_with(
    src: &str,
    format: SourceFormat,
    options: ImportOptions,
) -> Result<Imported, NetlistError> {
    let parsed = match format {
        SourceFormat::Snl => crate::text::parse(src)?,
        SourceFormat::Bench => crate::bench::parse(src)?,
        SourceFormat::Blif => crate::blif::parse(src)?,
        SourceFormat::Verilog => crate::vlog::parse(src)?,
        SourceFormat::Vhdl => crate::vhdl::parse(src)?,
    };
    let parsed_cells = parsed.num_cells();
    let (netlist, swept_buffers) = if options.sweep_buffers {
        sweep_buffers(&parsed)
    } else {
        (parsed, 0)
    };
    let stats = ImportStats {
        format,
        parsed_cells,
        swept_buffers,
        inputs: netlist.num_inputs(),
        outputs: netlist.num_outputs(),
        ffs: netlist.num_ffs(),
        gates: netlist.num_gates(),
    };
    Ok(Imported { netlist, stats })
}

/// Error type of [`import_path`]: either the file could not be read, or
/// its contents failed to import.
#[derive(Clone, Debug)]
pub enum ImportError {
    /// Reading the file failed.
    Io {
        /// The path that failed.
        path: String,
        /// The I/O error message.
        msg: String,
    },
    /// The contents failed to parse or validate.
    Netlist {
        /// The path being imported.
        path: String,
        /// The underlying error (carries a line number where available).
        source: NetlistError,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io { path, msg } => write!(f, "cannot read {path}: {msg}"),
            ImportError::Netlist { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl Error for ImportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ImportError::Io { .. } => None,
            ImportError::Netlist { source, .. } => Some(source),
        }
    }
}

/// Reads and imports a netlist file, detecting the format from the
/// extension (falling back to [`SourceFormat::sniff`] on the contents).
///
/// # Errors
///
/// Returns [`ImportError::Io`] when the file cannot be read and
/// [`ImportError::Netlist`] when its contents fail to import.
pub fn import_path(path: impl AsRef<Path>) -> Result<Imported, ImportError> {
    import_path_with(path, None, ImportOptions::default())
}

/// [`import_path`] with an explicit format override and options.
///
/// # Errors
///
/// Returns [`ImportError::Io`] when the file cannot be read and
/// [`ImportError::Netlist`] when its contents fail to import.
pub fn import_path_with(
    path: impl AsRef<Path>,
    format: Option<SourceFormat>,
    options: ImportOptions,
) -> Result<Imported, ImportError> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let src = std::fs::read_to_string(path).map_err(|e| ImportError::Io {
        path: display.clone(),
        msg: e.to_string(),
    })?;
    let format = format
        .or_else(|| SourceFormat::from_extension(path))
        .unwrap_or_else(|| SourceFormat::sniff(&src));
    let mut imported = import_str_with(&src, format, options)
        .map_err(|source| ImportError::Netlist { path: display, source })?;
    // `.bench` has no name directive and `.model`/`model` lines are
    // optional elsewhere; when the source left the default in place,
    // the file stem is the better label.
    let is_default = matches!(imported.netlist.name(), "bench" | "blif" | "unnamed");
    if is_default {
        if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
            imported.netlist.name = stem.to_owned();
        }
    }
    Ok(imported)
}

/// Removes identity buffers by rewiring every consumer (gate pins, DFF
/// data inputs and primary outputs) to the buffer's driver, then
/// compacting cell ids. Returns the swept netlist and the number of
/// buffers removed.
///
/// The circuit function, port interface and flip-flop order are
/// preserved; only `Buf` cells (including chains of them) disappear.
/// Debug names attached to swept buffers are dropped.
#[must_use]
pub fn sweep_buffers(netlist: &Netlist) -> (Netlist, usize) {
    let n = netlist.num_cells();

    // Resolve each signal through any chain of buffers to its root
    // driver. Cells are in topological-creation order only for DAG
    // edges, not necessarily for ids, so resolve iteratively per cell.
    let root: Vec<SigId> = (0..n)
        .map(|i| {
            let mut cur = SigId::new(i);
            // Follow the chain; buffer chains are acyclic because the
            // combinational part of a validated netlist is acyclic.
            while let CellKind::Gate(GateKind::Buf) = netlist.cell(cur).kind() {
                cur = netlist.cell(cur).pins()[0];
            }
            cur
        })
        .collect();

    let is_buf =
        |id: SigId| matches!(netlist.cell(id).kind(), CellKind::Gate(GateKind::Buf));
    let removed = (0..n).map(SigId::new).filter(|&id| is_buf(id)).count();
    if removed == 0 {
        return (netlist.clone(), 0);
    }

    // Compact: survivors keep their relative order.
    let mut new_id: HashMap<SigId, SigId> = HashMap::new();
    let mut cells: Vec<Cell> = Vec::new();
    for (id, cell) in netlist.iter_cells() {
        if is_buf(id) {
            continue;
        }
        let nid = SigId::new(cells.len());
        new_id.insert(id, nid);
        cells.push(cell.clone());
    }
    let map = |sig: SigId| -> SigId { new_id[&root[sig.index()]] };
    for cell in &mut cells {
        for pin in cell.pins_mut() {
            *pin = new_id[&root[pin.index()]];
        }
    }

    let inputs: Vec<SigId> = netlist.inputs.iter().map(|&i| map(i)).collect();
    let outputs: Vec<(String, SigId)> = netlist
        .outputs
        .iter()
        .map(|(name, s)| (name.clone(), map(*s)))
        .collect();
    let ffs: Vec<SigId> = netlist.ffs.iter().map(|&f| map(f)).collect();
    let cell_names = netlist
        .cell_names
        .iter()
        .filter_map(|(old, name)| new_id.get(old).map(|&nid| (nid, name.clone())))
        .collect();

    let swept = Netlist {
        name: netlist.name.clone(),
        cells,
        inputs,
        input_names: netlist.input_names.clone(),
        outputs,
        ffs,
        cell_names,
    };
    debug_assert!(swept.levelize().is_ok(), "sweep broke the netlist");
    (swept, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_removes_buffer_chains() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let b1 = b.buf(a);
        let b2 = b.buf(b1);
        let g = b.not(b2);
        b.output("y", g);
        b.output("z", b2);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 2);
        assert_eq!(swept.num_gates(), 1);
        // The output that pointed at a buffer now points at the input.
        assert_eq!(swept.outputs()[1].1, swept.inputs()[0]);
    }

    #[test]
    fn sweep_rewires_dff_data_pins() {
        let mut b = NetlistBuilder::new("dffbuf");
        let q = b.dff(true);
        let inv = b.not(q);
        let buffered = b.buf(inv);
        b.connect_dff(q, buffered).unwrap();
        b.output("q", q);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 1);
        assert_eq!(swept.num_ffs(), 1);
        assert_eq!(swept.ff_init_values(), vec![true]);
        // The DFF's data pin now points directly at the inverter.
        let ff = swept.ff_signal(crate::FfIndex::new(0));
        let d = swept.cell(ff).pins()[0];
        assert!(matches!(swept.cell(d).kind(), CellKind::Gate(GateKind::Not)));
    }

    #[test]
    fn sweep_is_identity_without_buffers() {
        let mut b = NetlistBuilder::new("plain");
        let a = b.input("a");
        let g = b.not(a);
        b.output("y", g);
        let n = b.finish().unwrap();
        let (swept, removed) = sweep_buffers(&n);
        assert_eq!(removed, 0);
        assert_eq!(swept, n);
    }

    #[test]
    fn format_detection() {
        assert_eq!(
            SourceFormat::from_extension(Path::new("a/b/s27.bench")),
            Some(SourceFormat::Bench)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.BLIF")),
            Some(SourceFormat::Blif)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.snl")),
            Some(SourceFormat::Snl)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.v")),
            Some(SourceFormat::Verilog)
        );
        assert_eq!(
            SourceFormat::from_extension(Path::new("x.VHD")),
            Some(SourceFormat::Vhdl)
        );
        assert_eq!(SourceFormat::from_extension(Path::new("x.edif")), None);
        assert_eq!(SourceFormat::sniff(".model m\n.end\n"), SourceFormat::Blif);
        assert_eq!(SourceFormat::sniff("# c\nINPUT(a)\n"), SourceFormat::Bench);
        assert_eq!(SourceFormat::sniff("g = AND(a, b)\n"), SourceFormat::Bench);
        assert_eq!(SourceFormat::sniff("model m\nend\n"), SourceFormat::Snl);
        assert_eq!(SourceFormat::sniff(""), SourceFormat::Snl);
        assert_eq!(SourceFormat::sniff("// hdl\nmodule m;\n"), SourceFormat::Verilog);
        assert_eq!(SourceFormat::sniff("module m (a);\n"), SourceFormat::Verilog);
        assert_eq!(SourceFormat::sniff("-- hdl\nentity e is\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::sniff("LIBRARY ieee;\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::sniff("entity e is\n"), SourceFormat::Vhdl);
        assert_eq!(SourceFormat::from_label("blif"), Some(SourceFormat::Blif));
        assert_eq!(SourceFormat::from_label("vhdl"), Some(SourceFormat::Vhdl));
        assert_eq!(SourceFormat::from_label("v"), Some(SourceFormat::Verilog));
        assert_eq!(SourceFormat::from_label("edif"), None);
    }

    #[test]
    fn import_str_reports_stats() {
        let src = "\
model t
input a
gate buf b1 a
gate not g b1
output y g
end
";
        let imp = import_str(src, SourceFormat::Snl).unwrap();
        assert_eq!(imp.stats.swept_buffers, 1);
        assert_eq!(imp.stats.parsed_cells, 3);
        assert_eq!(imp.stats.gates, 1);
        assert_eq!(imp.stats.inputs, 1);
        let text = imp.stats.to_string();
        assert!(text.contains("snl import"), "{text}");
        assert!(text.contains("1 buffers swept"), "{text}");
    }

    #[test]
    fn sweep_can_be_disabled() {
        let src = "model t\ninput a\ngate buf b1 a\noutput y b1\nend\n";
        let opts = ImportOptions { sweep_buffers: false };
        let imp = import_str_with(src, SourceFormat::Snl, opts).unwrap();
        assert_eq!(imp.stats.swept_buffers, 0);
        assert_eq!(imp.netlist.num_gates(), 1);
    }

    #[test]
    fn import_path_reports_io_errors() {
        let err = import_path("/definitely/not/a/real/file.bench").unwrap_err();
        assert!(matches!(err, ImportError::Io { .. }));
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn import_errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ImportError>();
    }
}
