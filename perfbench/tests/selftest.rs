//! Self-tests of the benchmark: its percentile rule, its names against
//! `BENCHMARK.json`, and its correctness gate.

use perfbench::oneshot::{campaign, measure};
use perfbench::reference::{Reference, References};
use perfbench::report::{failed_ops_frac, valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::sink::TimingSink;
use perfbench::stats::{beyond, median, min_samples, percentile, MIN_BEYOND};
use perfbench::workload::fold_seed;
use perfbench::{Budget, Tally};
use seugrade_circuits::registry;
use seugrade_engine::{CampaignPlan, Engine, ShardPolicy, StreamAccumulator};
use seugrade_netlist::Netlist;
use seugrade_serve::json::{self, Value};
use seugrade_sim::{Testbench, TracePolicy};

#[test]
fn p90_needs_a_hundred_ops_for_ten_beyond() {
    assert_eq!(min_samples(90), 100);
    assert_eq!(beyond(100, 90), MIN_BEYOND);
    for n in 1..1000 {
        assert_eq!(beyond(n, 90) >= MIN_BEYOND, n >= min_samples(90), "n = {n}");
    }
    // Whole rotations of 32 programs: 128 ops leave 12 beyond.
    assert_eq!(beyond(128, 90), 12);
}

#[test]
fn seeds_fold_into_32_bits() {
    assert_eq!(fold_seed(7), 7);
    assert_eq!(fold_seed(u64::from(u32::MAX)), u64::from(u32::MAX));
    assert!(fold_seed(u64::MAX - 3) < 1 << 32);
    assert_ne!(fold_seed(1 << 40), fold_seed(1 << 41));
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&values, 90), 90.0);
    assert_eq!(percentile(&values, 50), 50.0);
    assert_eq!(median(&values), 50.5);
    assert_eq!(percentile(&[7.0], 90), 7.0);
    assert!(percentile(&[], 90).is_nan());
    // A failed op reads +inf and so misses every percentile above it.
    let mut with_failure = values.clone();
    with_failure.push(f64::INFINITY);
    assert_eq!(percentile(&with_failure, 90), 91.0);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<(String, Option<String>)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned();
            (
                name,
                e.get("unit").and_then(Value::as_str).map(str::to_owned),
            )
        })
        .collect()
}

#[test]
fn names_are_valid_and_match_the_benchmark_file() {
    let bench = benchmark_json();
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), Some(u.to_owned())))
            .collect()
    };
    assert_eq!(names(&bench, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(names(&bench, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = names(&bench, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let all: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .chain(WORKLOADS)
        .collect();
    for name in &all {
        assert!(valid_name(name), "{name} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
    }
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "every name is used once");
    for bad in ["", "-lead", "has space", "slash/", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }

    for metric in bench
        .get("end_to_end")
        .and_then(Value::as_arr)
        .expect("end_to_end")
    {
        let bound = metric.get("bound").and_then(|b| match b {
            Value::Num(n) => Some(*n),
            _ => None,
        });
        assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{metric:?}");
    }
    for w in bench
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
    {
        assert!(
            w.get("why")
                .and_then(Value::as_str)
                .is_some_and(|y| y.len() <= 200),
            "{w:?}"
        );
    }
}

/// A two-worker checkpointed campaign over `s27`, its engine, and its
/// reference verdicts from a dense serial run.
fn small_campaign<'a>(
    circuit: &'a Netlist,
    tb: &'a Testbench,
) -> (CampaignPlan<'a>, Engine, Reference) {
    let plan = CampaignPlan::builder(circuit, tb)
        .policy(ShardPolicy::with_threads(2))
        .trace_policy(TracePolicy::Checkpoint(8))
        .build();
    let reference_plan = CampaignPlan::builder(circuit, tb)
        .policy(ShardPolicy::serial())
        .build();
    let run = Engine::new(&reference_plan).run(&reference_plan);
    let digest =
        StreamAccumulator::digest_of(run.single().expect("single").as_slice(), run.outcomes());
    let engine = Engine::new(&plan);
    (plan, engine, Reference::of(digest, run.summary()))
}

fn s27() -> (Netlist, Testbench) {
    let circuit = registry::build("s27").expect("s27");
    let tb = Testbench::random(circuit.num_inputs(), 40, 5);
    (circuit, tb)
}

#[test]
fn a_wrong_reference_digest_fails_every_op() {
    let (circuit, tb) = s27();
    let (plan, engine, good) = small_campaign(&circuit, &tb);
    let (engines, plans) = (std::slice::from_ref(&engine), std::slice::from_ref(&plan));
    let budget = Budget {
        seconds: 0.0,
        min_ops: 3,
    };
    let accept = |s: &StreamAccumulator, r: &Reference| r.matches(s.digest(), s.summary());

    let mut tally = Tally::default();
    measure(
        engines,
        plans,
        &[good],
        budget,
        &mut tally,
        accept,
        |_, _, _, _| {},
    );
    assert_eq!((tally.attempted, tally.failed), (3, 0));
    assert_eq!(failed_ops_frac(tally.attempted, tally.failed), 0.0);

    let wrong = Reference {
        digest: good.digest ^ 1,
        ..good
    };
    let mut tally = Tally::default();
    let phase = measure(
        engines,
        plans,
        &[wrong],
        budget,
        &mut tally,
        accept,
        |_, _, _, _| {},
    );
    assert_eq!((tally.attempted, tally.failed), (3, 3));
    assert!(failed_ops_frac(tally.attempted, tally.failed) > 0.0);
    assert_eq!(phase.faults, 0, "failed ops grade no counted faults");
    assert!(
        phase.op_ms.iter().all(|ms| ms.is_infinite()),
        "failed ops miss every percentile"
    );
}

#[test]
fn the_timing_sink_sees_every_engine_chunk() {
    let (circuit, tb) = s27();
    let (plan, engine, good) = small_campaign(&circuit, &tb);
    let (sink, stats) =
        campaign::<TimingSink<StreamAccumulator>>(&engine, &plan).expect("campaign");
    assert!(good.matches(sink.inner().digest(), sink.inner().summary()));
    let trace = sink.finish();
    assert_eq!(trace.gaps_ns.len(), stats.shards);
    assert!(!trace.busy_ns.is_empty() && trace.busy_ns.len() <= stats.threads);
}

#[test]
fn references_round_trip_through_the_child_protocol() {
    let (circuit, tb) = s27();
    let (_, _, good) = small_campaign(&circuit, &tb);
    let refs = References {
        refs: vec![
            good,
            Reference {
                digest: u64::MAX,
                classes: [1, 2, 3],
            },
        ],
        modelled: Vec::new(),
    };
    let parsed = References::parse(&refs.render()).expect("parses");
    assert_eq!(parsed.refs, refs.refs);
    assert!(References::parse("ref nothex 1 2 3").is_err());
}
