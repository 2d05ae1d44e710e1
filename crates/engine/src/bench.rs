//! Throughput benchmarking: measured engine runs serialized to a stable
//! JSON schema (`BENCH_engine.json`), so the perf trajectory of the
//! runtime is tracked in data rather than anecdotes.
//!
//! # Schema (`seugrade-engine-bench/v1`)
//!
//! ```json
//! {
//!   "schema": "seugrade-engine-bench/v1",
//!   "records": [
//!     {
//!       "circuit": "viper",
//!       "technique": "engine",
//!       "threads": 4,
//!       "faults": 34400,
//!       "wall_ns": 123456789,
//!       "faults_per_sec": 278662.0,
//!       "speedup_vs_serial": 61.2,
//!       "speedup_vs_single_thread": 2.9
//!     }
//!   ]
//! }
//! ```
//!
//! - `technique` — which grading path produced the row: `"serial"` (the
//!   one-fault-at-a-time reference), `"engine"` (this crate's sharded
//!   runtime), or a modelled autonomous-emulation technique appended by
//!   the `repro` binary.
//! - `speedup_vs_serial` — per-fault speedup over the scalar serial
//!   engine (row-to-row comparable even when fault counts differ).
//! - `speedup_vs_single_thread` — wall-clock speedup over the same
//!   engine at one thread; the thread-scaling signal.

use std::fmt::Write as _;
use std::time::Instant;

use seugrade_faultsim::FaultList;
use seugrade_netlist::Netlist;
use seugrade_sim::Testbench;

use crate::plan::{CampaignPlan, ShardPolicy};
use crate::runtime::{CampaignRun, Engine};

/// The schema identifier embedded in every report.
pub const BENCH_SCHEMA: &str = "seugrade-engine-bench/v1";

/// The schema identifier of the streamed-grading scaling report
/// (`BENCH_grade.json`).
pub const GRADE_BENCH_SCHEMA: &str = "seugrade-grade-bench/v1";

/// One measured streamed-campaign row: throughput *and* golden-trace
/// memory, the two axes the streaming core trades against each other.
#[derive(Clone, Debug, PartialEq)]
pub struct GradeRecord {
    /// Circuit label.
    pub circuit: String,
    /// Golden-trace storage policy label (`dense` / `checkpoint:K`).
    pub policy: String,
    /// Worker threads used.
    pub threads: usize,
    /// Circuit flip-flops.
    pub ffs: usize,
    /// Test-bench cycles.
    pub cycles: usize,
    /// Faults graded by this row.
    pub faults: usize,
    /// Fault source label (`exhaustive` / `sampled:N`).
    pub source: String,
    /// Wall-clock nanoseconds of the streamed run.
    pub wall_ns: u128,
    /// Throughput in faults per second.
    pub faults_per_sec: f64,
    /// Bits of golden-trace state actually held in host memory under
    /// the policy.
    pub golden_stored_bits: u64,
    /// What a dense golden trace of the same run would store.
    pub golden_dense_bits: u64,
    /// Early-collapse label (`on` / `off`) the row was measured under.
    /// Additive `seugrade-grade-bench/v1` field: appended after the v1
    /// columns so existing consumers are unaffected.
    pub collapse: String,
    /// Faulty-evaluation kernel label (`auto` / `tape` /
    /// `differential`) the row was measured under. Additive field,
    /// appended after `collapse`.
    pub kernel: String,
    /// Logical cores of the measuring host (see [`host_cores`]), so
    /// committed rows carry the hardware context of their thread counts.
    /// Additive field, appended after `kernel`.
    pub host_cores: usize,
}

/// A streamed-grading scaling report, serializable to the stable
/// `seugrade-grade-bench/v1` JSON schema.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GradeBenchReport {
    /// The rows, in measurement order.
    pub records: Vec<GradeRecord>,
}

impl GradeBenchReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, record: GradeRecord) {
        self.records.push(record);
    }

    /// Finds a row by policy label.
    #[must_use]
    pub fn find(&self, policy: &str) -> Option<&GradeRecord> {
        self.records.iter().find(|r| r.policy == policy)
    }

    /// Serializes the report with a stable field order; the output is
    /// valid JSON (non-finite floats are clamped to `0.0`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_string(GRADE_BENCH_SCHEMA));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(
                s,
                "\"circuit\": {}, \"policy\": {}, \"threads\": {}, \"ffs\": {}, \
                 \"cycles\": {}, \"faults\": {}, \"source\": {}, \"wall_ns\": {}, \
                 \"faults_per_sec\": {}, \"golden_stored_bits\": {}, \
                 \"golden_dense_bits\": {}, \"collapse\": {}, \"kernel\": {}, \
                 \"host_cores\": {}",
                json_string(&r.circuit),
                json_string(&r.policy),
                r.threads,
                r.ffs,
                r.cycles,
                r.faults,
                json_string(&r.source),
                r.wall_ns,
                json_number(r.faults_per_sec),
                r.golden_stored_bits,
                r.golden_dense_bits,
                json_string(&r.collapse),
                json_string(&r.kernel),
                r.host_cores,
            );
            s.push('}');
            if i + 1 < self.records.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// One measured (or modelled) throughput row.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Circuit label.
    pub circuit: String,
    /// Grading path: `"serial"`, `"engine"`, or a modelled technique.
    pub technique: String,
    /// Worker threads used (1 for serial and modelled rows).
    pub threads: usize,
    /// Faults graded by this row.
    pub faults: usize,
    /// Wall-clock (or modelled) nanoseconds.
    pub wall_ns: u128,
    /// Throughput in faults per second.
    pub faults_per_sec: f64,
    /// Per-fault speedup over the scalar serial engine.
    pub speedup_vs_serial: f64,
    /// Wall-clock speedup over the single-threaded engine run.
    pub speedup_vs_single_thread: f64,
    /// Logical cores of the measuring host (see [`host_cores`]).
    /// Additive `seugrade-engine-bench/v1` field, appended last.
    pub host_cores: usize,
}

impl BenchRecord {
    /// Average nanoseconds per fault.
    #[must_use]
    pub fn ns_per_fault(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.faults as f64
        }
    }
}

/// A full benchmark report, serializable to the stable JSON schema.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    /// The rows, in measurement order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, record: BenchRecord) {
        self.records.push(record);
    }

    /// Finds a row by technique and thread count.
    #[must_use]
    pub fn find(&self, technique: &str, threads: usize) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.technique == technique && r.threads == threads)
    }

    /// Serializes the report with a stable field order; the output is
    /// valid JSON (non-finite floats are clamped to `0.0`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_string(BENCH_SCHEMA));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(
                s,
                "\"circuit\": {}, \"technique\": {}, \"threads\": {}, \"faults\": {}, \
                 \"wall_ns\": {}, \"faults_per_sec\": {}, \"speedup_vs_serial\": {}, \
                 \"speedup_vs_single_thread\": {}, \"host_cores\": {}",
                json_string(&r.circuit),
                json_string(&r.technique),
                r.threads,
                r.faults,
                r.wall_ns,
                json_number(r.faults_per_sec),
                json_number(r.speedup_vs_serial),
                json_number(r.speedup_vs_single_thread),
                r.host_cores,
            );
            s.push('}');
            if i + 1 < self.records.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".to_owned()
    }
}

/// Measures campaign throughput on one circuit: the scalar serial engine
/// on a bounded sample, then the sharded engine over the exhaustive list
/// at each requested thread count.
///
/// The engine (golden run included) is built once and reused, so rows
/// differ only in scheduling. `serial_sample` bounds the serial
/// measurement (the slowest engine; its per-fault cost extrapolates
/// linearly). Returns the report together with the **last** engine run
/// (the highest thread count) so callers can reuse the graded outcomes
/// — e.g. to derive emulation-technique reports — without grading the
/// campaign again.
///
/// # Panics
///
/// Panics if `thread_counts` is empty or contains zero, or if the test
/// bench does not match the circuit.
#[must_use]
pub fn throughput_harness(
    circuit: &Netlist,
    tb: &Testbench,
    circuit_label: &str,
    thread_counts: &[usize],
    serial_sample: usize,
) -> (BenchReport, CampaignRun) {
    assert!(!thread_counts.is_empty(), "need at least one thread count");
    assert!(
        thread_counts.iter().all(|&t| t > 0),
        "thread counts must be positive"
    );
    let engine = Engine::for_circuit(circuit, tb);
    let exhaustive = FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles());
    let mut report = BenchReport::new();

    // Scalar serial reference on a bounded sample.
    let sample = FaultList::sampled(
        circuit.num_ffs(),
        tb.num_cycles(),
        serial_sample.max(1),
        7,
    );
    let start = Instant::now();
    let serial_outcomes = engine.grader().run_serial(sample.as_slice());
    let serial_wall = start.elapsed().as_nanos();
    assert_eq!(serial_outcomes.len(), sample.len());
    let serial_ns_per_fault = serial_wall as f64 / sample.len().max(1) as f64;
    report.push(BenchRecord {
        circuit: circuit_label.to_owned(),
        technique: "serial".to_owned(),
        threads: 1,
        faults: sample.len(),
        wall_ns: serial_wall,
        faults_per_sec: rate(sample.len(), serial_wall),
        speedup_vs_serial: 1.0,
        speedup_vs_single_thread: 0.0,
        host_cores: host_cores(),
    });

    // The sharded engine at each thread count (1 first, as the scaling
    // baseline).
    let mut counts: Vec<usize> = thread_counts.to_vec();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts.sort_unstable();
    counts.dedup();
    let mut single_thread_wall = 0u128;
    let mut last_run = None;
    for &threads in &counts {
        let plan = CampaignPlan::builder(circuit, tb)
            .policy(ShardPolicy { threads, serial_below: 0 })
            .build();
        let run = engine.run(&plan);
        let wall = run.stats().wall_ns;
        if threads == 1 {
            single_thread_wall = wall;
        }
        let ns_per_fault = wall as f64 / exhaustive.len().max(1) as f64;
        report.push(BenchRecord {
            circuit: circuit_label.to_owned(),
            technique: "engine".to_owned(),
            threads,
            faults: exhaustive.len(),
            wall_ns: wall,
            faults_per_sec: rate(exhaustive.len(), wall),
            speedup_vs_serial: ratio(serial_ns_per_fault, ns_per_fault),
            speedup_vs_single_thread: ratio(single_thread_wall as f64, wall as f64),
            host_cores: host_cores(),
        });
        last_run = Some(run);
    }
    (report, last_run.expect("at least one thread count measured"))
}

/// Logical cores of the measuring host
/// (`std::thread::available_parallelism`, 1 when undetectable).
///
/// Recorded in every bench row so a committed `BENCH_*.json` carries the
/// hardware context its thread counts were measured on.
#[must_use]
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Throughput in faults per second (0 for a zero-duration measurement).
///
/// Public so every producer of [`BenchRecord`] rows — this harness, the
/// `repro` binary's modelled rows — shares one zero-guarded formula.
#[must_use]
pub fn rate(faults: usize, wall_ns: u128) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        faults as f64 * 1e9 / wall_ns as f64
    }
}

/// Speedup ratio with a zero/negative-denominator guard (returns 0).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use seugrade_circuits::registry;

    use super::*;

    #[test]
    fn harness_produces_serial_and_engine_rows() {
        let circuit = registry::build("b06s").unwrap();
        let tb = Testbench::random(circuit.num_inputs(), 24, 42);
        let (report, run) = throughput_harness(&circuit, &tb, "b06s", &[1, 2], 32);
        assert!(report.find("serial", 1).is_some());
        let e1 = report.find("engine", 1).expect("single-thread row");
        let e2 = report.find("engine", 2).expect("two-thread row");
        assert_eq!(e1.faults, circuit.num_ffs() * 24);
        assert_eq!(e1.faults, e2.faults);
        assert!((e1.speedup_vs_single_thread - 1.0).abs() < 1e-9);
        assert!(e1.speedup_vs_serial > 0.0);
        assert!(e2.wall_ns > 0);
        // The returned run is the last (highest thread count) one.
        assert_eq!(run.stats().threads, 2);
        assert_eq!(run.outcomes().len(), e2.faults);
    }

    #[test]
    fn json_is_schema_stable() {
        let mut report = BenchReport::new();
        report.push(BenchRecord {
            circuit: "b06s".into(),
            technique: "engine".into(),
            threads: 2,
            faults: 100,
            wall_ns: 1_000,
            faults_per_sec: 1e8,
            speedup_vs_serial: 2.5,
            speedup_vs_single_thread: f64::NAN,
            host_cores: 8,
        });
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"seugrade-engine-bench/v1\""));
        assert!(json.contains("\"circuit\": \"b06s\""));
        assert!(json.contains("\"technique\": \"engine\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"faults\": 100"));
        assert!(json.contains("\"wall_ns\": 1000"));
        assert!(json.contains("\"faults_per_sec\": 100000000.000"));
        assert!(json.contains("\"speedup_vs_single_thread\": 0.000"), "NaN clamped");
        assert!(json.contains("\"host_cores\": 8"));
        // Field order is part of the schema contract; the additive
        // `host_cores` column stays last.
        let c = json.find("\"circuit\"").unwrap();
        let t = json.find("\"technique\"").unwrap();
        let th = json.find("\"threads\"").unwrap();
        let st = json.find("\"speedup_vs_single_thread\"").unwrap();
        let hc = json.find("\"host_cores\"").unwrap();
        assert!(c < t && t < th && st < hc);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn grade_json_is_schema_stable() {
        let mut report = GradeBenchReport::new();
        report.push(GradeRecord {
            circuit: "s5378g".into(),
            policy: "checkpoint:64".into(),
            threads: 2,
            ffs: 1536,
            cycles: 4096,
            faults: 65536,
            source: "sampled:65536".into(),
            wall_ns: 5_000,
            faults_per_sec: 1e6,
            golden_stored_bits: 101_376,
            golden_dense_bits: 6_390_720,
            collapse: "on".into(),
            kernel: "differential".into(),
            host_cores: 4,
        });
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"seugrade-grade-bench/v1\""));
        assert!(json.contains("\"policy\": \"checkpoint:64\""));
        assert!(json.contains("\"golden_stored_bits\": 101376"));
        assert!(json.contains("\"source\": \"sampled:65536\""));
        assert!(json.contains("\"collapse\": \"on\""));
        assert!(json.contains("\"kernel\": \"differential\""));
        assert!(json.contains("\"host_cores\": 4"));
        assert_eq!(report.find("checkpoint:64").unwrap().cycles, 4096);
        assert!(report.find("dense").is_none());
        // Field order is part of the schema contract; additive columns
        // stay after every v1 field, in `collapse`, `kernel`,
        // `host_cores` order.
        let p = json.find("\"policy\"").unwrap();
        let f = json.find("\"ffs\"").unwrap();
        let d = json.find("\"golden_dense_bits\"").unwrap();
        let cl = json.find("\"collapse\"").unwrap();
        let k = json.find("\"kernel\"").unwrap();
        let hc = json.find("\"host_cores\"").unwrap();
        assert!(p < f && d < cl && cl < k && k < hc);
    }

    #[test]
    fn host_cores_is_positive() {
        assert!(host_cores() >= 1);
    }
}
