//! `repro` — regenerate every table and figure of the DATE'05 paper,
//! plus the engine throughput benchmark and the external-netlist
//! grading path.
//!
//! ```text
//! cargo run -p seugrade-bench --release --bin repro -- all
//! cargo run -p seugrade-bench --release --bin repro -- table2
//! cargo run -p seugrade-bench --release --bin repro -- crossover --quick
//! cargo run -p seugrade-bench --release --bin repro -- bench --threads 4
//! cargo run -p seugrade-bench --release --bin repro -- grade fixtures/s27.bench
//! ```
//!
//! Subcommands: `table1`, `table2`, `figure1`, `classification`, `speed`,
//! `crossover`, `ablations`, `sampling`, `all`, `bench`, `grade`,
//! `resume`, `serve`, `submit`, `status`, `cancel`. `--quick` shrinks
//! the crossover sweep, sample sizes and the bench circuit. `--csv`
//! additionally prints machine-readable CSV blocks.
//!
//! `bench` measures the sharded campaign engine (serial reference,
//! engine at 1/2/`--threads N` workers, plus the modelled autonomous
//! techniques) and writes the stable `seugrade-engine-bench/v1` schema
//! to `BENCH_engine.json` (`--out PATH` overrides), then the streamed
//! grading scaling rows — the s5378-class fixture under `dense` vs
//! `checkpoint:64`, throughput and golden-trace memory — to the tracked
//! `BENCH_grade.json` (`seugrade-grade-bench/v1`). `--trace-policy
//! auto` widens the sweep to `checkpoint:K` for K ∈ {16, 64, 256,
//! 1024}, reports the fastest policy against dense, and re-measures
//! the winner with early fault collapse inverted (`--collapse on|off`
//! picks the mode for every other row). The grade rows always end with
//! two single-core **kernel sweeps** — `tape` vs `differential` vs
//! `auto` over the exhaustive s5378g space and over the paper's viper
//! @160 setup, digests asserted identical — and one s38417g-class (~10k FF)
//! scale row. It is
//! deliberately *not* part of `all`: wall-clock measurement deserves an
//! unloaded machine.
//!
//! `grade <target>` loads a circuit — a bundled registry name
//! (`repro -- grade s5378g`) or an external netlist file (ISCAS
//! `.bench`, structural BLIF or the native SNL format — auto-detected
//! from the extension, overridable with `--format bench|blif|snl|verilog|vhdl`) —
//! drives it with a seeded random test bench (`--vectors N`,
//! `--seed S`) and grades the `flip-flops × cycles` SEU fault space
//! (or a seeded uniform `--sample N` of it) through the engine's
//! memory-bounded **streaming** path (`--threads N`), printing the
//! failure/silent/latent breakdown, the golden-trace bits the
//! `--trace-policy dense|checkpoint:K` actually held, and the
//! order-independent verdict digest. Verdicts are identical at every
//! thread count and trace policy (the engine's determinism guarantee).
//! The on-disk grammars are specified in `docs/FORMATS.md`.
//!
//! With `--checkpoint PATH` the grade rides the engine's **resumable**
//! path: progress is persisted atomically every `--checkpoint-every N`
//! chunks (default 256), Ctrl-C / SIGTERM drains the in-flight chunks,
//! writes a final checkpoint and exits with code 130, and
//! `repro -- resume PATH` rebuilds the campaign from the checkpoint's
//! own metadata, verifies the fingerprint against the reconstructed
//! plan, and continues from the saved cursor — the resumed verdict
//! digest is bit-identical to an uninterrupted run at any thread count.
//! A corrupt, truncated or mismatched checkpoint is rejected with a
//! line-numbered error and a non-zero exit, never a panic.
//!
//! `grade --progress json` additionally emits one `seugrade-serve/v1`
//! chunk event per graded chunk as a JSON line on **stderr** (stdout
//! keeps the human report) — the same serializer the daemon streams to
//! its subscribers.
//!
//! `serve` runs the campaign daemon (`--addr HOST:PORT`, `--workers N`,
//! `--spool DIR`): campaign jobs arrive as `seugrade-serve/v1` JSON
//! lines, any number of concurrent campaigns multiplex over one shared
//! worker pool, every job checkpoints to its spool directory, and
//! SIGINT/SIGTERM (or a protocol `shutdown`) drains in-flight rounds,
//! writes final checkpoints and exits 0 — a restarted daemon resumes
//! every incomplete spooled job. `submit <circuit-or-file>` (grade-style
//! flags; `--wait` blocks until terminal), `status [job]` (also honors
//! `--wait`) and `cancel <job>` are the matching clients; see
//! `docs/PROTOCOL.md`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use seugrade::experiments::{
    self, ablations_for, classification_for, crossover_for, figure1, sampling_for, speed_for,
    table1, table2_for, viper_crossover_cycles,
};
use seugrade::prelude::*;

struct Options {
    quick: bool,
    csv: bool,
    threads: Option<usize>,
    out: Option<String>,
    format: Option<SourceFormat>,
    vectors: usize,
    seed: u64,
    trace_policy: TracePolicy,
    /// `--trace-policy auto`: sweep K ∈ {16, 64, 256, 1024} plus dense
    /// in `bench` and report the fastest policy.
    trace_policy_auto: bool,
    collapse: Collapse,
    /// `--kernel auto|tape|differential`: the faulty-evaluation
    /// kernel workers grade with (a pure speed knob; verdicts and
    /// digests never change).
    kernel: Kernel,
    sample: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    /// `--progress json`: per-chunk `seugrade-serve/v1` events on stderr.
    progress_json: bool,
    addr: String,
    workers: usize,
    spool: String,
    wait: bool,
}

/// Exit code for a run interrupted by SIGINT/SIGTERM after draining
/// in-flight work and writing a final checkpoint (128 + SIGINT).
const EXIT_INTERRUPTED: i32 = 130;

fn parse_count(it: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    let v = it.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    });
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} needs a positive integer, got `{v}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        quick: false,
        csv: false,
        threads: None,
        out: None,
        format: None,
        vectors: 100,
        seed: 42,
        trace_policy: TracePolicy::Dense,
        trace_policy_auto: false,
        collapse: Collapse::Early,
        kernel: Kernel::Auto,
        sample: None,
        checkpoint: None,
        checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        progress_json: false,
        addr: seugrade_serve::DEFAULT_ADDR.to_owned(),
        workers: seugrade_serve::DEFAULT_WORKERS,
        spool: "serve-spool".to_owned(),
        wait: false,
    };
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--threads" => opts.threads = Some(parse_count(&mut it, "--threads")),
            "--vectors" => opts.vectors = parse_count(&mut it, "--vectors"),
            "--seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                opts.seed = v.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--trace-policy" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--trace-policy needs a value");
                    std::process::exit(2);
                });
                if v == "auto" {
                    opts.trace_policy_auto = true;
                } else {
                    opts.trace_policy = TracePolicy::from_label(&v).unwrap_or_else(|| {
                        eprintln!("--trace-policy expects dense|checkpoint:<K>|auto, got `{v}`");
                        std::process::exit(2);
                    });
                }
            }
            "--collapse" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--collapse needs a value");
                    std::process::exit(2);
                });
                opts.collapse = Collapse::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--collapse expects on|off, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--kernel" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--kernel needs a value");
                    std::process::exit(2);
                });
                opts.kernel = Kernel::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--kernel expects auto|tape|differential, got `{v}`");
                    std::process::exit(2);
                });
            }
            "--sample" => opts.sample = Some(parse_count(&mut it, "--sample")),
            "--checkpoint" => {
                opts.checkpoint = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--checkpoint needs a path");
                    std::process::exit(2);
                }));
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = parse_count(&mut it, "--checkpoint-every");
            }
            "--format" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--format needs a value");
                    std::process::exit(2);
                });
                opts.format = Some(SourceFormat::from_label(&v).unwrap_or_else(|| {
                    eprintln!("--format expects bench|blif|snl|verilog|vhdl, got `{v}`");
                    std::process::exit(2);
                }));
            }
            "--out" => {
                opts.out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }));
            }
            "--progress" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--progress needs a value");
                    std::process::exit(2);
                });
                if v != "json" {
                    eprintln!("--progress expects json, got `{v}`");
                    std::process::exit(2);
                }
                opts.progress_json = true;
            }
            "--addr" => {
                opts.addr = it.next().unwrap_or_else(|| {
                    eprintln!("--addr needs a host:port value");
                    std::process::exit(2);
                });
            }
            "--workers" => opts.workers = parse_count(&mut it, "--workers"),
            "--spool" => {
                opts.spool = it.next().unwrap_or_else(|| {
                    eprintln!("--spool needs a directory");
                    std::process::exit(2);
                });
            }
            "--wait" => opts.wait = true,
            s if s.starts_with("--") => {
                eprintln!("unknown flag `{s}`");
                std::process::exit(2);
            }
            _ => commands.push(a),
        }
    }
    let command = commands.first().map_or("all", String::as_str);

    let known = [
        "table1",
        "table2",
        "figure1",
        "classification",
        "speed",
        "crossover",
        "ablations",
        "sampling",
        "all",
        "bench",
        "grade",
        "resume",
        "serve",
        "submit",
        "status",
        "cancel",
    ];
    if !known.contains(&command) {
        eprintln!("unknown experiment `{command}`; expected one of {known:?}");
        std::process::exit(2);
    }

    if opts.trace_policy_auto && command != "bench" {
        eprintln!("--trace-policy auto is a bench sweep; pick a concrete policy for `{command}`");
        std::process::exit(2);
    }

    let start = Instant::now();
    if command == "bench" {
        run_engine_bench(&opts);
        eprintln!("done in {:.1?}", start.elapsed());
        return;
    }
    if command == "grade" {
        let Some(target) = commands.get(1) else {
            eprintln!(
                "usage: repro -- grade <file-or-registry-name> [--format bench|blif|snl|verilog|vhdl] \
                 [--threads N] [--vectors N] [--seed S] [--trace-policy dense|checkpoint:K] \
                 [--kernel auto|tape|differential] [--sample N] [--checkpoint PATH] \
                 [--checkpoint-every N]"
            );
            std::process::exit(2);
        };
        run_grade(target, &opts);
        eprintln!("done in {:.1?}", start.elapsed());
        return;
    }
    if command == "resume" {
        let Some(path) = commands.get(1) else {
            eprintln!("usage: repro -- resume <checkpoint-path> [--threads N] [--checkpoint-every N]");
            std::process::exit(2);
        };
        run_resume(path, &opts);
        eprintln!("done in {:.1?}", start.elapsed());
        return;
    }
    if command == "serve" {
        run_serve(&opts);
        return;
    }
    if command == "submit" {
        let Some(target) = commands.get(1) else {
            eprintln!(
                "usage: repro -- submit <file-or-registry-name> [--addr HOST:PORT] \
                 [--format bench|blif|snl|verilog|vhdl] [--threads N] [--vectors N] [--seed S] \
                 [--trace-policy dense|checkpoint:K] [--collapse on|off] [--sample N] [--wait]"
            );
            std::process::exit(2);
        };
        run_submit(target, &opts);
        return;
    }
    if command == "status" {
        run_status(commands.get(1).map(String::as_str), &opts);
        return;
    }
    if command == "cancel" {
        let Some(job) = commands.get(1) else {
            eprintln!("usage: repro -- cancel <job-id> [--addr HOST:PORT]");
            std::process::exit(2);
        };
        run_cancel(job, &opts);
        return;
    }

    let run_all = command == "all";

    // The graded campaign is shared by table2 / classification / speed.
    let campaign_needed = run_all
        || matches!(
            command,
            "table2" | "classification" | "speed" | "ablations" | "sampling"
        );
    let fixture = campaign_needed.then(|| {
        let circuit = viper::viper();
        let tb = stimuli::paper_testbench();
        eprintln!(
            "grading {} faults on {} ({} cycles)...",
            circuit.num_ffs() * tb.num_cycles(),
            circuit.name(),
            tb.num_cycles()
        );
        let campaign = AutonomousCampaign::new(&circuit, &tb);
        (circuit, tb, campaign)
    });

    if run_all || command == "figure1" {
        println!("{}", figure1().render());
    }
    if run_all || command == "table1" {
        eprintln!("mapping original, instrumented and controller netlists...");
        let t1 = table1();
        println!("{}", t1.render());
        if opts.csv {
            println!("{}", t1.to_csv());
        }
    }
    if let Some((circuit, tb, campaign)) = &fixture {
        if run_all || command == "table2" {
            let t2 = table2_for(campaign);
            println!("{}", t2.render());
            if opts.csv {
                println!("{}", t2.to_csv());
            }
        }
        if run_all || command == "classification" {
            println!("{}", classification_for(campaign).render());
        }
        if run_all || command == "speed" {
            let sample = if opts.quick { 64 } else { 512 };
            eprintln!("timing software fault simulation ({sample}-fault serial sample)...");
            let s = speed_for(circuit, tb, campaign, sample);
            println!("{}", s.render());
            println!(
                "fastest autonomous technique vs 2005 fault simulation: {:.1} orders of magnitude\n",
                s.orders_of_magnitude_vs_simulation()
            );
        }
        if run_all || command == "ablations" {
            println!("{}", ablations_for(campaign).render());
        }
        if run_all || command == "sampling" {
            let size = if opts.quick { 500 } else { 2_401 };
            let study = sampling_for(circuit, tb, campaign, size, 99);
            println!("{}", study.render());
        }
    }
    if run_all || command == "crossover" {
        let cycles = if opts.quick {
            vec![40, 160, 480]
        } else {
            viper_crossover_cycles()
        };
        eprintln!("crossover sweep over {cycles:?} cycles (one campaign each)...");
        let circuit = viper::viper();
        let x = crossover_for(&circuit, &cycles, stimuli::PAPER_SEED);
        println!("{}", x.render());
        if opts.csv {
            println!("{}", x.to_csv());
        }
    }

    let _ = experiments::paper_campaign; // documented entry point
    eprintln!("done in {:.1?}", start.elapsed());
}

/// The `bench` subcommand: measure the sharded engine, append the
/// modelled autonomous techniques, write `BENCH_engine.json`.
fn run_engine_bench(opts: &Options) {
    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let (circuit, tb, label) = if opts.quick {
        let circuit = registry::build("b13s").expect("registered circuit");
        let tb = Testbench::random(circuit.num_inputs(), 48, 42);
        (circuit, tb, "b13s")
    } else {
        (viper::viper(), stimuli::paper_testbench(), "viper")
    };
    let serial_sample = if opts.quick { 64 } else { 512 };
    let mut counts = vec![1, 2, threads];
    counts.sort_unstable();
    counts.dedup();

    eprintln!(
        "engine bench: {} ({} faults, {} cycles), threads {:?}...",
        label,
        circuit.num_ffs() * tb.num_cycles(),
        tb.num_cycles(),
        counts
    );
    let (mut report, run) = throughput_harness(&circuit, &tb, label, &counts, serial_sample);

    // Modelled autonomous-emulation rows for the same campaign, derived
    // from the harness's own graded outcomes (no re-grading).
    let (faults, outcomes) = run.into_single().expect("exhaustive plan");
    let n_faults = faults.len();
    let campaign =
        AutonomousCampaign::from_graded(&circuit, &tb, faults, outcomes, TimingConfig::default());
    let serial_ns_per_fault = report
        .find("serial", 1)
        .map_or(0.0, seugrade::BenchRecord::ns_per_fault);
    for technique in Technique::ALL {
        let emu = campaign.run(technique);
        let wall_ns = emu.timing.emulation_time().as_nanos();
        let ns_per_fault = wall_ns as f64 / n_faults.max(1) as f64;
        report.push(BenchRecord {
            circuit: label.to_owned(),
            technique: format!("autonomous {}", technique.label()),
            threads: 1,
            faults: n_faults,
            wall_ns,
            faults_per_sec: engine_bench::rate(n_faults, wall_ns),
            speedup_vs_serial: engine_bench::ratio(serial_ns_per_fault, ns_per_fault),
            speedup_vs_single_thread: 0.0,
            host_cores: engine_bench::host_cores(),
        });
    }

    for r in &report.records {
        println!(
            "{:<28} threads {:>2}: {:>12.0} faults/sec ({} faults), x{:.2} vs serial, x{:.2} vs 1 thread",
            r.technique,
            r.threads,
            r.faults_per_sec,
            r.faults,
            r.speedup_vs_serial,
            r.speedup_vs_single_thread,
        );
    }

    let path = opts.out.as_deref().unwrap_or("BENCH_engine.json");
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {path} ({} records, schema {})", report.records.len(), BENCH_SCHEMA);

    run_grade_scaling(opts, threads);
    run_serve_bench(opts, threads);
}

/// The multi-tenant serve rows of the `bench` subcommand: an in-process
/// daemon grades 1, 4 and 16 concurrent copies of the same sampled
/// campaign over a shared worker pool, every digest is checked against
/// the solo reference, and jobs/sec plus aggregate faults/sec go to the
/// tracked `BENCH_serve.json` (`seugrade-serve-bench/v1`).
fn run_serve_bench(opts: &Options, threads: usize) {
    let (name, vectors, sample, round) =
        if opts.quick { ("b13s", 48, 256, 8) } else { ("s5378g", 256, 2_048, 16) };
    let mut spec = JobSpec::registry(name);
    spec.vectors = vectors;
    spec.sample = Some(sample);
    spec.round = round;
    spec.trace_policy = opts.trace_policy;
    spec.collapse = opts.collapse;
    let workers = threads.clamp(1, 4);
    eprintln!(
        "serve bench: {name} ({sample} sampled faults/job, round {round}), {workers} workers, \
         1/4/16 concurrent jobs..."
    );
    let report = seugrade_serve::bench::multi_tenant_sweep(&spec, workers).unwrap_or_else(|e| {
        eprintln!("serve bench failed: {e}");
        std::process::exit(1);
    });
    for r in &report.records {
        println!(
            "{:<8} workers {:>2} concurrent {:>2}: {:>8.2} jobs/sec, {:>12.0} faults/sec \
             ({} jobs, all digests == solo)",
            r.circuit, r.workers, r.concurrent, r.jobs_per_sec, r.faults_per_sec, r.jobs,
        );
    }
    let path = "BENCH_serve.json";
    std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "wrote {path} ({} records, schema {})",
        report.records.len(),
        seugrade_serve::SERVE_BENCH_SCHEMA
    );
}

/// The streamed-grading scaling rows of the `bench` subcommand: the
/// s5378-class fixture (1536 FFs) over a long bench, dense vs
/// checkpointed, measuring throughput *and* golden-trace memory —
/// written to the tracked `BENCH_grade.json` perf snapshot.
///
/// With `--trace-policy auto` the sweep covers `checkpoint:K` for
/// K ∈ {16, 64, 256, 1024} alongside dense and reports the fastest
/// policy; the default pair stays `dense` vs `checkpoint:64`. Every
/// row is graded under the requested `--collapse` mode; with `auto`
/// the winning checkpoint policy is re-measured with collapse
/// inverted so the record shows what early collapse buys.
///
/// Two row groups always follow the policy sweep: the single-core
/// **kernel sweeps** (every kernel over the exhaustive s5378g space;
/// `tape` / `differential` / `auto` over the exhaustive viper @160
/// space; one worker, digests asserted bit-identical) and one
/// s38417g-class (~10k FF) scale row.
fn run_grade_scaling(opts: &Options, threads: usize) {
    let circuit = registry::build("s5378g").expect("registered scale fixture");
    let (cycles, sample) = if opts.quick { (512, 8_192) } else { (4_096, 65_536) };
    let tb = Testbench::random(circuit.num_inputs(), cycles, 42);
    eprintln!(
        "grade scaling: s5378g ({} FFs, {} cycles, {} sampled of {} faults)...",
        circuit.num_ffs(),
        cycles,
        sample,
        circuit.num_ffs() * cycles,
    );
    let policies: Vec<TracePolicy> = if opts.trace_policy_auto {
        let mut p = vec![TracePolicy::Dense];
        p.extend([16, 64, 256, 1024].map(TracePolicy::Checkpoint));
        p
    } else {
        vec![TracePolicy::Dense, TracePolicy::Checkpoint(64)]
    };
    let mut grade_report = GradeBenchReport::new();
    let mut digests = Vec::new();
    let mut measure = |policy: TracePolicy, collapse: Collapse| -> f64 {
        let plan = CampaignPlan::builder(&circuit, &tb)
            .sampled(sample, 7)
            .policy(ShardPolicy { threads, serial_below: 0 })
            .trace_policy(policy)
            .collapse(collapse)
            .kernel(opts.kernel)
            .build();
        let engine = Engine::new(&plan);
        let (acc, stats) = streamed(&engine, &plan);
        digests.push(acc.digest());
        let stored = engine.grader().golden().stored_bits();
        let dense_bits = engine.grader().golden().dense_equivalent_bits();
        let rate = engine_bench::rate(stats.faults, stats.wall_ns);
        println!(
            "{:<16} collapse {:<3} threads {:>2}: {:>12.0} faults/sec ({} faults), golden {} bits (dense {} bits, x{:.1})",
            policy.label(),
            collapse.label(),
            stats.threads,
            rate,
            stats.faults,
            stored,
            dense_bits,
            engine_bench::ratio(dense_bits as f64, stored as f64),
        );
        grade_report.push(GradeRecord {
            circuit: circuit.name().to_owned(),
            policy: policy.label(),
            threads: stats.threads,
            ffs: circuit.num_ffs(),
            cycles,
            faults: stats.faults,
            source: format!("sampled:{sample}"),
            wall_ns: stats.wall_ns,
            faults_per_sec: rate,
            golden_stored_bits: stored,
            golden_dense_bits: dense_bits,
            collapse: collapse.label().to_owned(),
            kernel: opts.kernel.label().to_owned(),
            host_cores: engine_bench::host_cores(),
        });
        rate
    };
    let mut rates = Vec::new();
    for &policy in &policies {
        rates.push((policy, measure(policy, opts.collapse)));
    }
    let dense_rate = rates[0].1;
    if opts.trace_policy_auto {
        let &(winner, winner_rate) = rates[1..]
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("auto sweep has checkpoint rows");
        // Show what early collapse buys on the winning policy: one extra
        // row with the collapse mode inverted.
        let inverted = match opts.collapse {
            Collapse::Early => Collapse::Horizon,
            Collapse::Horizon => Collapse::Early,
        };
        let inverted_rate = measure(winner, inverted);
        let (on_rate, off_rate) = match opts.collapse {
            Collapse::Early => (winner_rate, inverted_rate),
            Collapse::Horizon => (inverted_rate, winner_rate),
        };
        println!(
            "auto-selected {} ({:.2}x dense; early collapse {:.2}x over horizon walks)",
            winner.label(),
            engine_bench::ratio(winner_rate, dense_rate),
            engine_bench::ratio(on_rate, off_rate),
        );
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "trace policies must agree fault for fault"
    );

    // Kernel sweeps: single-core faults/sec across faulty-evaluation
    // kernels over exhaustive fault spaces — the scale fixture and the
    // paper's own setup (viper, 160 vectors), where the flooded cones
    // make `auto` hand most chunks over to the tape walk.
    kernel_sweep(
        &circuit,
        &tb,
        &Kernel::ALL,
        opts.collapse,
        1,
        &mut grade_report,
    );
    let viper = registry::build("viper").expect("registered paper circuit");
    let viper_tb = Testbench::random(viper.num_inputs(), 160, 42);
    // A viper run takes ~0.1-0.3 s, so its kernels take nine turns
    // each to steady the same-host comparison.
    kernel_sweep(
        &viper,
        &viper_tb,
        &[Kernel::Tape, Kernel::Differential, Kernel::Auto],
        opts.collapse,
        9,
        &mut grade_report,
    );

    // Scale row: the s38417-class fixture (~10k flip-flops) through the
    // same streamed path — one row showing throughput holds at 6.7x the
    // flip-flop count.
    let scale = registry::build("s38417g").expect("registered scale fixture");
    let (scale_cycles, scale_sample) = if opts.quick { (128, 4_096) } else { (1_024, 32_768) };
    let scale_tb = Testbench::random(scale.num_inputs(), scale_cycles, 42);
    eprintln!(
        "scale row: s38417g ({} FFs, {scale_cycles} cycles, {scale_sample} sampled faults)...",
        scale.num_ffs(),
    );
    let plan = CampaignPlan::builder(&scale, &scale_tb)
        .sampled(scale_sample, 7)
        .policy(ShardPolicy { threads, serial_below: 0 })
        .trace_policy(TracePolicy::Checkpoint(64))
        .collapse(opts.collapse)
        .kernel(opts.kernel)
        .build();
    let engine = Engine::new(&plan);
    let (_, stats) = streamed(&engine, &plan);
    let rate = engine_bench::rate(stats.faults, stats.wall_ns);
    println!(
        "{:<16} collapse {:<3} threads {:>2}: {:>12.0} faults/sec ({} faults) on s38417g",
        TracePolicy::Checkpoint(64).label(),
        opts.collapse.label(),
        stats.threads,
        rate,
        stats.faults,
    );
    grade_report.push(GradeRecord {
        circuit: scale.name().to_owned(),
        policy: TracePolicy::Checkpoint(64).label(),
        threads: stats.threads,
        ffs: scale.num_ffs(),
        cycles: scale_cycles,
        faults: stats.faults,
        source: format!("sampled:{scale_sample}"),
        wall_ns: stats.wall_ns,
        faults_per_sec: rate,
        golden_stored_bits: engine.grader().golden().stored_bits(),
        golden_dense_bits: engine.grader().golden().dense_equivalent_bits(),
        collapse: opts.collapse.label().to_owned(),
        kernel: opts.kernel.label().to_owned(),
        host_cores: engine_bench::host_cores(),
    });

    let path = "BENCH_grade.json";
    std::fs::write(path, grade_report.to_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "wrote {path} ({} records, schema {})",
        grade_report.records.len(),
        GRADE_BENCH_SCHEMA
    );
}

/// Grades the exhaustive fault space of `circuit` once per kernel on
/// one worker under `checkpoint:64`, pushing one BENCH row per kernel.
/// With `reps > 1` the kernels take turns, rep by rep, and each row
/// keeps its fastest run — so a burst of host load hits every kernel
/// alike instead of one kernel's whole series. Bit-identical digests
/// across every run are asserted, not assumed.
fn kernel_sweep(
    circuit: &Netlist,
    tb: &Testbench,
    kernels: &[Kernel],
    collapse: Collapse,
    reps: usize,
    report: &mut GradeBenchReport,
) {
    let cycles = tb.num_cycles();
    eprintln!(
        "kernel sweep: {} exhaustive ({} faults, checkpoint:64, 1 thread)...",
        circuit.name(),
        circuit.num_ffs() * cycles,
    );
    let plans: Vec<CampaignPlan<'_>> = kernels
        .iter()
        .map(|&kernel| {
            CampaignPlan::builder(circuit, tb)
                .policy(ShardPolicy { threads: 1, serial_below: 0 })
                .trace_policy(TracePolicy::Checkpoint(64))
                .collapse(collapse)
                .kernel(kernel)
                .build()
        })
        .collect();
    let engines: Vec<Engine> = plans.iter().map(Engine::new).collect();
    let mut digests = Vec::new();
    let mut best: Vec<Option<EngineStats>> = vec![None; kernels.len()];
    for _ in 0..reps {
        for ((plan, engine), best) in plans.iter().zip(&engines).zip(&mut best) {
            let (acc, stats) = streamed(engine, plan);
            digests.push(acc.digest());
            if best.map_or(true, |b| stats.wall_ns < b.wall_ns) {
                *best = Some(stats);
            }
        }
    }
    for ((&kernel, engine), best) in kernels.iter().zip(&engines).zip(best) {
        let best = best.expect("at least one rep");
        let rate = engine_bench::rate(best.faults, best.wall_ns);
        println!(
            "{:<8} kernel {:<12} threads  1: {:>12.0} faults/sec ({} faults, {} kernel switches)",
            circuit.name(),
            kernel.label(),
            rate,
            best.faults,
            best.kernel_switches,
        );
        report.push(GradeRecord {
            circuit: circuit.name().to_owned(),
            policy: TracePolicy::Checkpoint(64).label(),
            threads: 1,
            ffs: circuit.num_ffs(),
            cycles,
            faults: best.faults,
            source: "exhaustive".to_owned(),
            wall_ns: best.wall_ns,
            faults_per_sec: rate,
            golden_stored_bits: engine.grader().golden().stored_bits(),
            golden_dense_bits: engine.grader().golden().dense_equivalent_bits(),
            collapse: collapse.label().to_owned(),
            kernel: kernel.label().to_owned(),
            host_cores: engine_bench::host_cores(),
        });
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "kernels must agree fault for fault on {}",
        circuit.name()
    );
}

/// The `grade` subcommand: load a circuit (bundled registry name or
/// external netlist file), grade its SEU fault space — exhaustive, or a
/// seeded uniform sample with `--sample N` — through the engine's
/// memory-bounded **streaming** path under the requested
/// `--trace-policy`, and print the per-class breakdown plus the
/// golden-trace memory the policy actually held.
fn run_grade(target: &str, opts: &Options) {
    let circuit = load_circuit(target, opts.format);
    eprintln!("{circuit}");

    // `--threads N` pins the worker count; otherwise defer to the
    // engine's own auto policy so `grade` resolves parallelism exactly
    // like every other engine entry point.
    let policy = opts.threads.map_or_else(ShardPolicy::auto, ShardPolicy::with_threads);
    let tb = Testbench::random(circuit.num_inputs(), opts.vectors, opts.seed);
    let space = circuit.num_ffs() * tb.num_cycles();
    let faults = opts.sample.map_or(space, |n| n.min(space));
    eprintln!(
        "grading {} of {} faults ({} FFs x {} cycles, seed {}, {}, kernel {}) on {} threads...",
        faults,
        space,
        circuit.num_ffs(),
        tb.num_cycles(),
        opts.seed,
        opts.trace_policy,
        opts.kernel,
        policy.resolved_threads()
    );

    let mut builder = CampaignPlan::builder(&circuit, &tb)
        .policy(policy)
        .trace_policy(opts.trace_policy)
        .collapse(opts.collapse)
        .kernel(opts.kernel);
    if let Some(count) = opts.sample {
        builder = builder.sampled(count, opts.seed);
    }
    let plan = builder.build();
    let engine = Engine::new(&plan);

    if let Some(path) = &opts.checkpoint {
        let mut ropts = ResumeOptions::checkpoint_to(path);
        ropts.every = opts.checkpoint_every;
        ropts.cancel = Some(signal_cancel_token());
        ropts.meta = grade_meta(target, opts);
        ropts.progress = progress_hook(opts);
        let run = resumable(&engine, &plan, &ropts);
        finish_resumable(&circuit, target, &engine, path, &run);
    } else if opts.progress_json {
        // Same one-shot semantics as the streamed path, but through the
        // resumable runner (no checkpoint) so the per-chunk hook fires.
        let ropts = ResumeOptions { progress: progress_hook(opts), ..ResumeOptions::default() };
        let run = resumable(&engine, &plan, &ropts);
        print_streamed_report(&circuit, target, &engine, run.sink.summary(), &run.stats, run.sink.digest());
    } else {
        let (acc, stats) = streamed(&engine, &plan);
        print_streamed_report(&circuit, target, &engine, acc.summary(), &stats, acc.digest());
    }
}

/// One streamed round into the standard accumulator.
///
/// # Panics
///
/// Panics if a worker panic survives the engine's retry budget.
fn streamed(engine: &Engine, plan: &CampaignPlan<'_>) -> (StreamAccumulator, EngineStats) {
    engine.try_run_streamed_with::<StreamAccumulator>(plan).unwrap_or_else(|e| panic!("{e}"))
}

/// Checkpointed rounds into the standard accumulator; a checkpoint or
/// grading error is reported and exits 1.
fn resumable(
    engine: &Engine,
    plan: &CampaignPlan<'_>,
    ropts: &ResumeOptions,
) -> ResumableRun<StreamAccumulator> {
    engine.run_streamed_resumable_with(plan, ropts).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// With `--progress json`: a hook that prints each chunk's
/// `seugrade-serve/v1` event line on stderr — the exact serializer the
/// daemon streams to subscribers, minus the job tag.
fn progress_hook(opts: &Options) -> Option<ProgressHook> {
    opts.progress_json.then(|| {
        ProgressHook::new(|ev| eprintln!("{}", seugrade_serve::proto::chunk_event_line(None, &ev)))
    })
}

/// The `resume` subcommand: load a checkpoint, rebuild the campaign from
/// the metadata the `grade` run stored in it, verify the fingerprint and
/// continue from the saved cursor. A second interruption writes another
/// checkpoint and exits 130 again — resume is idempotent.
fn run_resume(path: &str, opts: &Options) {
    let ck = Checkpoint::load(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let fp = ck.fingerprint();
    let target = ck.meta_get("target").unwrap_or_else(|| {
        eprintln!("checkpoint has no `target` metadata; it was not written by `repro -- grade`");
        std::process::exit(1);
    });
    let format = ck.meta_get("format").map(|v| {
        SourceFormat::from_label(v).unwrap_or_else(|| {
            eprintln!("checkpoint stores unknown source format `{v}`");
            std::process::exit(1);
        })
    });
    let vectors = resume_meta_count(&ck, "vectors");
    let seed = resume_meta_count(&ck, "seed") as u64;
    let sample = ck.meta_get("sample").map(|_| resume_meta_count(&ck, "sample"));
    let trace_policy = TracePolicy::from_label(&fp.trace_policy).unwrap_or_else(|| {
        eprintln!("checkpoint stores unknown trace policy `{}`", fp.trace_policy);
        std::process::exit(1);
    });
    eprintln!(
        "resuming `{}` from {}: chunk {}/{}, {}/{} faults graded",
        target,
        path,
        ck.chunks_done(),
        fp.chunks,
        ck.faults_done(),
        fp.faults,
    );

    let circuit = load_circuit(target, format);
    let policy = opts.threads.map_or_else(ShardPolicy::auto, ShardPolicy::with_threads);
    let tb = Testbench::random(circuit.num_inputs(), vectors, seed);
    let mut builder = CampaignPlan::builder(&circuit, &tb)
        .policy(policy)
        .trace_policy(trace_policy)
        .collapse(opts.collapse)
        .kernel(opts.kernel);
    if let Some(count) = sample {
        builder = builder.sampled(count, seed);
    }
    let plan = builder.build();
    let engine = Engine::new(&plan);

    let mut ropts = ResumeOptions::resume_from(path);
    ropts.every = opts.checkpoint_every;
    ropts.cancel = Some(signal_cancel_token());
    let target = target.to_owned();
    let run = resumable(&engine, &plan, &ropts);
    finish_resumable(&circuit, &target, &engine, path, &run);
}

/// The `serve` subcommand: run the campaign daemon until a protocol
/// `shutdown` or SIGINT/SIGTERM, then drain in-flight jobs (each writes
/// a final atomic checkpoint to its spool directory) and exit 0.
fn run_serve(opts: &Options) {
    let config = ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        spool: opts.spool.clone().into(),
    };
    let mut server = Server::bind(&config).unwrap_or_else(|e| {
        eprintln!("cannot start daemon on {}: {e}", config.addr);
        std::process::exit(1);
    });
    eprintln!(
        "seugrade-serve listening on {} ({} workers, spool {})",
        server.local_addr(),
        config.workers,
        config.spool.display(),
    );
    server.serve_until(&signal_cancel_token());
    eprintln!("shutting down: draining in-flight jobs and writing final checkpoints...");
    server.shutdown();
    eprintln!("daemon stopped; spool {} is consistent", config.spool.display());
}

/// Connects to the daemon at `--addr`, exiting 1 with a message when it
/// is not reachable.
fn connect_client(opts: &Options) -> Client {
    Client::connect(&opts.addr as &str).unwrap_or_else(|e| {
        eprintln!("cannot reach daemon at {}: {e}", opts.addr);
        std::process::exit(1);
    })
}

/// Unwraps a client call, exiting 1 with the server's (or transport's)
/// message on failure.
fn client_ok<T>(result: Result<T, ClientError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// The `submit` subcommand: build a job spec from grade-style flags —
/// registry circuits travel by name, external netlist files inline —
/// submit it, and with `--wait` block until the job is terminal.
fn run_submit(target: &str, opts: &Options) {
    let circuit = if registry::build(target).is_some() {
        CircuitSource::Registry(target.to_owned())
    } else {
        let format = opts
            .format
            .or_else(|| {
                let ext = std::path::Path::new(target).extension()?.to_str()?;
                SourceFormat::from_label(ext)
            })
            .unwrap_or_else(|| {
                eprintln!(
                    "`{target}` is not a registry circuit and its format is not recognizable \
                     from the extension; pass --format bench|blif|snl|verilog|vhdl"
                );
                std::process::exit(2);
            });
        let source = std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("cannot read {target}: {e}");
            std::process::exit(1);
        });
        CircuitSource::Inline { format, source }
    };
    let spec = JobSpec {
        circuit,
        vectors: opts.vectors,
        seed: opts.seed,
        sample: opts.sample,
        trace_policy: opts.trace_policy,
        collapse: opts.collapse,
        threads: opts.threads.unwrap_or(1),
        round: opts.checkpoint_every,
    };
    let mut client = connect_client(opts);
    let id = client_ok(client.submit(&spec));
    eprintln!("submitted {target} as {id}");
    if opts.wait {
        let snapshot = client_ok(client.wait(&id, Duration::from_secs(3600)));
        println!("{}", snapshot.to_line());
        let state = snapshot.get("state").and_then(seugrade_serve::json::Value::as_str);
        if state != Some("done") {
            std::process::exit(1);
        }
    } else {
        println!("{id}");
    }
}

/// The `status` subcommand: one job's snapshot, or every job's. With
/// `--wait`, block until the named job reaches a terminal state and
/// exit 1 unless that state is `done`.
fn run_status(job: Option<&str>, opts: &Options) {
    let mut client = connect_client(opts);
    match job {
        Some(id) if opts.wait => {
            let snapshot = client_ok(client.wait(id, Duration::from_secs(3600)));
            println!("{}", snapshot.to_line());
            let state = snapshot.get("state").and_then(seugrade_serve::json::Value::as_str);
            if state != Some("done") {
                std::process::exit(1);
            }
        }
        Some(id) => println!("{}", client_ok(client.status(id)).to_line()),
        None => {
            for snapshot in client_ok(client.list()) {
                println!("{}", snapshot.to_line());
            }
        }
    }
}

/// The `cancel` subcommand: cooperative cancellation; the job's spooled
/// checkpoint survives, so a protocol `resume` can continue it later.
fn run_cancel(job: &str, opts: &Options) {
    let mut client = connect_client(opts);
    let v = client_ok(client.cancel(job));
    println!("{}", v.to_line());
}

/// Resolves a grade/resume target: bundled registry name first, external
/// netlist file otherwise. Load failures exit 1 with the importer's
/// line-numbered message.
fn load_circuit(target: &str, format: Option<SourceFormat>) -> Netlist {
    if let Some(circuit) = registry::build(target) {
        eprintln!("registry circuit `{target}`");
        circuit
    } else {
        let imported = import::import_path_with(target, format, ImportOptions::default())
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
        eprintln!("{}", imported.stats);
        imported.netlist
    }
}

/// Everything `resume` needs to rebuild the campaign plan from the
/// checkpoint file alone (the fingerprint then cross-checks the result).
fn grade_meta(target: &str, opts: &Options) -> Vec<(String, String)> {
    let mut meta = vec![
        ("target".to_owned(), target.to_owned()),
        ("vectors".to_owned(), opts.vectors.to_string()),
        ("seed".to_owned(), opts.seed.to_string()),
    ];
    if let Some(format) = opts.format {
        meta.push(("format".to_owned(), format.label().to_owned()));
    }
    if let Some(count) = opts.sample {
        meta.push(("sample".to_owned(), count.to_string()));
    }
    meta
}

/// Parses a numeric metadata value out of a checkpoint, exiting with a
/// structured message when it is missing or malformed.
fn resume_meta_count(ck: &Checkpoint, key: &str) -> usize {
    let v = ck.meta_get(key).unwrap_or_else(|| {
        eprintln!("checkpoint has no `{key}` metadata; it was not written by `repro -- grade`");
        std::process::exit(1);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("checkpoint metadata `{key}` is not a number: `{v}`");
        std::process::exit(1);
    })
}

/// Prints the outcome of a resumable invocation: the full report when the
/// campaign finished, or the checkpoint cursor + exit 130 when it was
/// interrupted by Ctrl-C / SIGTERM (or a chunk limit).
fn finish_resumable(
    circuit: &Netlist,
    target: &str,
    engine: &Engine,
    path: &str,
    run: &ResumableRun<StreamAccumulator>,
) {
    if run.resumed_from > 0 {
        eprintln!("resumed from chunk {}/{}", run.resumed_from, run.chunks_total);
    }
    if run.interrupted {
        eprintln!(
            "interrupted at chunk {}/{} ({}/{} faults); checkpoint written to {path}",
            run.chunks_done, run.chunks_total, run.faults_done, run.faults_total,
        );
        eprintln!("resume with: repro -- resume {path}");
        std::process::exit(EXIT_INTERRUPTED);
    }
    print_streamed_report(circuit, target, engine, run.sink.summary(), &run.stats, run.sink.digest());
}

/// The shared grade/resume report: per-class breakdown, engine stats,
/// golden-trace memory and the order-independent verdict digest.
fn print_streamed_report(
    circuit: &Netlist,
    target: &str,
    engine: &Engine,
    summary: &GradingSummary,
    stats: &EngineStats,
    digest: u64,
) {
    println!("{} ({})", circuit.name(), target);
    for class in FaultClass::ALL {
        println!(
            "  {:<8} {:>8}  ({:.1}%)",
            class.label(),
            summary.count(class),
            summary.percent(class)
        );
    }
    println!("  {:<8} {:>8}", "total", summary.total());
    println!("{stats}");
    println!(
        "kernel switches: {} hand-overs from deviation space to the tape walk",
        stats.kernel_switches
    );
    let golden = engine.grader().golden();
    let dense_bits = golden.dense_equivalent_bits();
    println!(
        "golden trace: {} bits held ({}), {} bits dense equivalent (x{:.1} smaller), verdict digest {:#018x}",
        golden.stored_bits(),
        golden.policy(),
        dense_bits,
        engine_bench::ratio(dense_bits as f64, golden.stored_bits() as f64),
        digest,
    );
}

/// Set by the signal handler; bridged to a [`CancelToken`] by a watcher
/// thread (signal handlers must only touch async-signal-safe state).
static INTERRUPT_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn note_interrupt(_signum: i32) {
    INTERRUPT_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers (via libc's `signal`, which std
/// already links — no external crates) and returns a [`CancelToken`]
/// that a watcher thread trips once a signal lands. The engine observes
/// the token at chunk boundaries, drains in-flight work, writes a final
/// checkpoint and returns with `interrupted = true`.
fn signal_cancel_token() -> CancelToken {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `note_interrupt` only stores to a static atomic, which is
    // async-signal-safe; `signal` is the C standard library's own entry
    // point and both signal numbers are valid on Linux.
    unsafe {
        signal(SIGINT, note_interrupt as extern "C" fn(i32) as usize);
        signal(SIGTERM, note_interrupt as extern "C" fn(i32) as usize);
    }
    let token = CancelToken::new();
    let watched = token.clone();
    std::thread::spawn(move || loop {
        if INTERRUPT_FLAG.load(Ordering::SeqCst) {
            eprintln!("signal received; draining in-flight chunks...");
            watched.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
    token
}
