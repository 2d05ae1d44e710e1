//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable report, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`.
//! Workloads: `viper-paper`, `s5378g-sampled`, `serve-mixed`. The seed
//! defaults to 1, the measuring time to 20 s. `--reference` makes the
//! process the reference child of a run: it prints the workload's
//! reference verdicts instead of measuring.

use std::process::ExitCode;

use perfbench::report::{failed_ops_frac, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::workload::fold_seed;
use perfbench::{oneshot, reference, serve};

/// Workload seed when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Measuring time when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = fold_seed(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        return match reference::compute(&args.workload, args.seed) {
            Ok(refs) => {
                print!("{}", refs.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench reference: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let run = match args.workload.as_str() {
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        name => oneshot::run(name, args.seed, args.seconds, args.trace),
    };
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut expected: Vec<&str> = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    }
    .iter()
    .map(|m| m.0)
    .collect();
    let mut reported: Vec<&str> = out.metrics.names().collect();
    expected.sort_unstable();
    reported.sort_unstable();
    if reported != expected {
        eprintln!(
            "perfbench: {} reported {reported:?}, not the contract's {expected:?}",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} ({} run, {} host cores)",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for note in &out.notes {
        println!("{note}");
    }
    print!("{}", out.metrics.table());
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} ops failed)",
        "failed_ops_frac",
        failed_ops_frac(out.tally.attempted, out.tally.failed),
        out.tally.failed,
        out.tally.attempted
    );
    println!(
        "{}",
        out.metrics
            .result_line(out.tally.failed == 0, out.tally.attempted, out.tally.failed)
    );
    ExitCode::SUCCESS
}
