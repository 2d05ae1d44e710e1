//! The faulty-evaluation kernel is a pure speed knob: the specialized
//! SoA tape, the differential dirty-frontier kernel and the `auto`
//! hybrid (differential, handing flooded chunks to the tape walk) must
//! grade every fault to the identical verdict. This battery pins all
//! three to bit-identical order-independent digests across the whole
//! registry, every trace policy, collapse on/off and 1/2/4/8 worker
//! threads — for single faults and for multi-bit upsets — and repeats
//! the claim on generated random circuits.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

/// One streamed round of `plan` on `engine`, folded into the standard
/// accumulator.
fn streamed_acc(engine: &Engine, plan: &CampaignPlan<'_>) -> StreamAccumulator {
    engine.try_run_streamed_with::<StreamAccumulator>(plan).expect("streamed run").0
}

/// Cycle budget by circuit size, mirroring the other cross-engine
/// suites: the scale fixtures dominate debug-build runtime.
fn cycle_budget(num_ffs: usize) -> usize {
    match num_ffs {
        0..=100 => 18,
        101..=1000 => 8,
        _ => 2,
    }
}

/// Every registry circuit, graded under every kernel, every trace
/// policy, both collapse modes and 1/2/4/8 threads, lands on the
/// serial reference digest bit for bit.
#[test]
fn kernels_agree_on_every_registry_circuit() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let cycles = cycle_budget(circuit.num_ffs());
        let tb = Testbench::random(circuit.num_inputs(), cycles, 77);
        // Exhaustive everywhere except the 10k-flip-flop scale fixture,
        // where a deterministic sample keeps the kernel × policy ×
        // collapse × thread matrix debug-build sized.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), cycles, 256, 77)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), cycles)
        };
        let dense = Grader::new(&circuit, &tb);
        let reference =
            StreamAccumulator::digest_of(faults.as_slice(), &dense.run_serial(faults.as_slice()));
        for kernel in Kernel::ALL {
            for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(3), TracePolicy::Checkpoint(64)] {
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    for threads in [1usize, 2, 4, 8] {
                        let plan = CampaignPlan::builder(&circuit, &tb)
                            .faults(faults.clone())
                            .trace_policy(policy)
                            .collapse(collapse)
                            .kernel(kernel)
                            .policy(ShardPolicy::with_threads(threads))
                            .build();
                        let run = streamed_acc(&Engine::new(&plan), &plan);
                        assert_eq!(
                            run.digest(),
                            reference,
                            "{name}: kernel {} {} collapse {} @ {threads} threads",
                            kernel.label(),
                            policy.label(),
                            collapse.label(),
                        );
                    }
                }
            }
        }
    }
}

/// MBU lanes ride the same chunk walk as SEUs: every registry circuit
/// plus a TMR-hardened one (which adjacent MBUs can defeat), graded
/// with adjacent 2- and 3-bit upsets under every kernel, every trace
/// policy, both collapse modes and 1/2/4/8 threads, lands on the serial
/// multi-bit engine's verdicts fault for fault, in submission order.
#[test]
fn kernels_agree_on_mbu_lanes() {
    let mut circuits: Vec<Netlist> =
        registry::NAMES.iter().map(|name| registry::build(name).expect("registered")).collect();
    circuits.push(tmr(&registry::build("b06s").expect("registered")));
    for circuit in &circuits {
        let name = circuit.name();
        let cycles = cycle_budget(circuit.num_ffs());
        let tb = Testbench::random(circuit.num_inputs(), cycles, 78);
        let serial = Grader::new(circuit, &tb);
        for k in [2, 3].into_iter().filter(|&k| k <= circuit.num_ffs()) {
            let mut faults = MultiFault::adjacent_pairs(circuit.num_ffs(), cycles, k);
            // A deterministic subset on the 10k-flip-flop scale fixture
            // keeps the matrix debug-build sized.
            if circuit.num_ffs() > 4000 {
                faults = faults.into_iter().step_by(79).collect();
            }
            let reference = serial.run_multi(&faults);
            for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(3), TracePolicy::Checkpoint(64)] {
                let engine =
                    Engine::new(&CampaignPlan::builder(circuit, &tb).trace_policy(policy).build());
                for kernel in Kernel::ALL {
                    for collapse in [Collapse::Early, Collapse::Horizon] {
                        for threads in [1usize, 2, 4, 8] {
                            let plan = CampaignPlan::builder(circuit, &tb)
                                .multi(faults.clone())
                                .trace_policy(policy)
                                .collapse(collapse)
                                .kernel(kernel)
                                .policy(ShardPolicy::with_threads(threads))
                                .build();
                            assert_eq!(
                                engine.run(&plan).outcomes(),
                                reference.as_slice(),
                                "{name}: k={k} kernel {} {} collapse {} @ {threads} threads",
                                kernel.label(),
                                policy.label(),
                                collapse.label(),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A chunk is a span, not a cycle: sparse sampled SEU and MBU sources
/// pack up to 63 lanes across the injection cycles of one golden span,
/// each lane pending until the walk reaches its own cycle. Every kernel,
/// trace policy, collapse mode and thread count still lands on the
/// serial verdicts, in fewer shards than the sources have injection
/// cycles.
#[test]
fn span_packed_sparse_sources_agree_with_serial() {
    for (name, cycles, count) in [("b06s", 40, 90), ("b13s", 40, 160), ("viper", 24, 300)] {
        let circuit = registry::build(name).expect("registered");
        let tb = Testbench::random(circuit.num_inputs(), cycles, 79);
        let seus = FaultList::sampled(circuit.num_ffs(), cycles, count, 79);
        let mbus: Vec<MultiFault> = MultiFault::adjacent_pairs(circuit.num_ffs(), cycles, 2)
            .into_iter()
            .step_by(circuit.num_ffs() * cycles / count)
            .collect();
        let serial = Grader::new(&circuit, &tb);
        let seu_digest =
            StreamAccumulator::digest_of(seus.as_slice(), &serial.run_serial(seus.as_slice()));
        let mbu_reference = serial.run_multi(&mbus);
        let distinct_cycles = |cycles: &mut Vec<u32>| {
            cycles.sort_unstable();
            cycles.dedup();
            cycles.len()
        };
        let seu_cycles = distinct_cycles(&mut seus.iter().map(|f| f.cycle).collect());
        let mbu_cycles = distinct_cycles(&mut mbus.iter().map(Injection::cycle).collect());
        for policy in [TracePolicy::Dense, TracePolicy::Checkpoint(4), TracePolicy::Checkpoint(64)] {
            let engine = Engine::new(&CampaignPlan::builder(&circuit, &tb).trace_policy(policy).build());
            let seu_shards = engine.grader().span_order(seus.as_slice()).num_chunks();
            let mbu_shards = engine.grader().span_order(&mbus).num_chunks();
            assert!(seu_shards < seu_cycles, "{name} {policy}: {seu_shards} SEU shards");
            assert!(mbu_shards < mbu_cycles, "{name} {policy}: {mbu_shards} MBU shards");
            for kernel in Kernel::ALL {
                for collapse in [Collapse::Early, Collapse::Horizon] {
                    for threads in [1usize, 3] {
                        let label = format!(
                            "{name}: kernel {} {} collapse {} @ {threads} threads",
                            kernel.label(),
                            policy.label(),
                            collapse.label(),
                        );
                        let plan = |source| {
                            CampaignPlan::builder(&circuit, &tb)
                                .source(source)
                                .trace_policy(policy)
                                .collapse(collapse)
                                .kernel(kernel)
                                .policy(ShardPolicy::with_threads(threads))
                                .build()
                        };
                        let seu = plan(FaultSource::List(seus.clone()));
                        let (acc, stats) =
                            engine.try_run_streamed_with::<StreamAccumulator>(&seu).expect("streamed run");
                        assert_eq!(acc.digest(), seu_digest, "SEU {label}");
                        assert_eq!(stats.shards, seu_shards, "SEU shards {label}");
                        let mbu = plan(FaultSource::Multi(mbus.clone()));
                        let run = engine.run(&mbu);
                        assert_eq!(run.outcomes(), mbu_reference.as_slice(), "MBU {label}");
                        assert_eq!(run.stats().shards, mbu_shards, "MBU shards {label}");
                    }
                }
            }
        }
    }
}

/// `Kernel::Auto` grades identically to every concrete kernel — the
/// resolver may pick any of them without changing a verdict.
#[test]
fn auto_kernel_matches_every_concrete_kernel() {
    let circuit = registry::build("b09s").expect("registered");
    let cycles = 24;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 3);
    let auto_plan = CampaignPlan::builder(&circuit, &tb)
        .trace_policy(TracePolicy::Checkpoint(8))
        .threads(2)
        .build();
    assert_eq!(auto_plan.kernel(), Kernel::Auto, "builder default");
    let auto_digest = streamed_acc(&Engine::new(&auto_plan), &auto_plan).digest();
    for kernel in Kernel::CONCRETE {
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(TracePolicy::Checkpoint(8))
            .kernel(kernel)
            .threads(2)
            .build();
        let digest = streamed_acc(&Engine::new(&plan), &plan).digest();
        assert_eq!(digest, auto_digest, "auto vs {}", kernel.label());
    }
}

/// The kernel is excluded from resume fingerprints: a campaign
/// checkpointed under one kernel is resumable under another, because
/// the knob cannot change a verdict.
#[test]
fn kernel_does_not_perturb_the_resume_fingerprint() {
    let circuit = registry::build("b06s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 16, 9);
    let fingerprints: Vec<Fingerprint> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let plan = CampaignPlan::builder(&circuit, &tb).kernel(kernel).build();
            Fingerprint::of(&plan, 4, 96)
        })
        .collect();
    for fp in &fingerprints[1..] {
        assert_eq!(*fp, fingerprints[0], "kernel must not fingerprint");
    }
}

fn arb_config() -> impl Strategy<Value = RandomCircuitConfig> {
    (2usize..6, 2usize..14, 10usize..80, 1usize..5, 0u32..9).prop_map(
        |(num_inputs, num_ffs, num_gates, num_outputs, observability_num)| RandomCircuitConfig {
            num_inputs,
            num_ffs,
            num_gates,
            num_outputs,
            observability_num,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated circuits — arbitrary gate mixes, fanout shapes and
    /// observability — grade to the identical digest under every
    /// kernel, checkpointed and multi-threaded.
    #[test]
    fn kernels_agree_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..24,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x4B52_4E4C);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let serial = Grader::new(&circuit, &tb).run_serial(faults.as_slice());
        let reference = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        for kernel in Kernel::ALL {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .trace_policy(TracePolicy::Checkpoint(k))
                .kernel(kernel)
                .threads(2)
                .build();
            let run = streamed_acc(&Engine::new(&plan), &plan);
            prop_assert_eq!(run.digest(), reference, "kernel {}", kernel.label());
        }
    }
}
