//! Cross-engine agreement: every fault-grading engine in the workspace
//! must produce identical verdicts — including the sharded
//! `seugrade-engine` runtime at every thread count.

use proptest::prelude::*;
use seugrade::generators::{random_sequential, RandomCircuitConfig};
use seugrade::prelude::*;

/// One streamed round of `plan` on `engine`, folded into the standard
/// accumulator.
fn streamed_acc(engine: &Engine, plan: &CampaignPlan<'_>) -> StreamAccumulator {
    engine.try_run_streamed_with::<StreamAccumulator>(plan).expect("streamed run").0
}

/// Serial reference vs bit-parallel on every registered benchmark
/// circuit (the sharded engine's thread counts are pinned below).
#[test]
fn all_engines_agree_on_registry_circuits() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        // Keep debug-build runtime sane on the big circuits (s5378g has
        // 1536 flip-flops; its serial reference dominates this suite).
        let cycles = match circuit.num_ffs() {
            0..=100 => 30,
            101..=1000 => 12,
            _ => 3,
        };
        let tb = if circuit.num_inputs() == viper::NUM_INPUTS {
            stimuli::viper_program(cycles, 5)
        } else {
            Testbench::random(circuit.num_inputs(), cycles, 5)
        };
        let grader = Grader::new(&circuit, &tb);
        // The s38417-class fixture (10k+ flip-flops) would make even a
        // short exhaustive serial reference dominate the suite; a
        // deterministic sample still crosses every engine pair.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), tb.num_cycles(), 192, 5)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), tb.num_cycles())
        };
        let serial = grader.run_serial(faults.as_slice());
        let parallel = grader.run_parallel(faults.as_slice());
        assert_eq!(serial, parallel, "{name}: serial vs parallel");
    }
}

/// The compiled simulator agrees with the event-driven simulator on the
/// golden run of every registered circuit.
#[test]
fn compiled_and_event_sim_agree_everywhere() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        // The event-driven simulator is the slow oracle; give the
        // 10k-flip-flop scale fixture a shorter golden run.
        let cycles = if circuit.num_ffs() > 4000 { 6 } else { 40 };
        let tb = Testbench::random(circuit.num_inputs(), cycles, 9);
        let fast = CompiledSim::new(&circuit).run_golden(&tb);
        let slow = EventSim::new(&circuit).run_golden(&tb);
        assert_eq!(fast, slow, "{name}");
    }
}

/// A fault graded through the event simulator (a third, independent
/// implementation of the semantics) matches the compiled-engine verdict.
#[test]
fn event_sim_oracle_agrees_on_fault_outcomes() {
    let circuit = registry::build("b06s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 20, 13);
    let grader = Grader::new(&circuit, &tb);
    let golden = grader.golden().clone();

    let mut ev = EventSim::new(&circuit);
    for fault in FaultList::exhaustive(circuit.num_ffs(), 20).iter() {
        // Replay golden up to the injection cycle on the event sim.
        ev.reset();
        for u in 0..fault.cycle as usize {
            ev.set_inputs(tb.cycle(u));
            ev.step();
        }
        ev.flip_ff(fault.ff);
        let mut verdict = None;
        for u in fault.cycle as usize..20 {
            ev.set_inputs(tb.cycle(u));
            if ev.outputs() != golden.output_at(u) {
                verdict = Some(FaultOutcome::failure(u as u32));
                break;
            }
            ev.step();
            if ev.state() == golden.state_at(u + 1) {
                verdict = Some(FaultOutcome::silent(u as u32));
                break;
            }
        }
        let expected = grader.classify_serial(fault);
        assert_eq!(verdict.unwrap_or(FaultOutcome::latent()), expected, "{fault}");
    }
}

/// The sharded engine runtime agrees with the serial reference on every
/// registered benchmark circuit, exhaustive and sampled.
#[test]
fn sharded_engine_agrees_on_registry_circuits() {
    for name in registry::NAMES {
        let circuit = registry::build(name).expect("registered");
        let cycles = match circuit.num_ffs() {
            0..=100 => 24,
            101..=1000 => 10,
            _ => 3,
        };
        let tb = Testbench::random(circuit.num_inputs(), cycles, 21);
        let grader = Grader::new(&circuit, &tb);
        // Sampled campaign on the 10k-flip-flop scale fixture: the serial
        // reference is the slow engine here, as in the streamed test below.
        let faults = if circuit.num_ffs() > 4000 {
            FaultList::sampled(circuit.num_ffs(), cycles, 192, 21)
        } else {
            FaultList::exhaustive(circuit.num_ffs(), cycles)
        };
        let serial = grader.run_serial(faults.as_slice());
        let serial_digest = StreamAccumulator::digest_of(faults.as_slice(), &serial);
        let engine = Engine::new(&CampaignPlan::builder(&circuit, &tb).build());
        for threads in [1, 4] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .faults(faults.clone())
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = engine.run(&plan);
            assert_eq!(run.outcomes(), serial.as_slice(), "{name} @ {threads} threads");
            // The streamed path never materializes the campaign, yet its
            // digest proves the verdicts fault-for-fault identical.
            let streamed = streamed_acc(&engine, &plan);
            assert_eq!(streamed.digest(), serial_digest, "{name} streamed @ {threads}");
            assert_eq!(streamed.summary(), run.summary(), "{name} streamed @ {threads}");
        }
        // Sampled campaigns shard identically too.
        let sample = FaultList::sampled(circuit.num_ffs(), cycles, 40, 5);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .sampled(40, 5)
            .policy(ShardPolicy::with_threads(3))
            .build();
        let run = engine.run(&plan);
        assert_eq!(run.single(), Some(&sample), "{name}: sample is policy-independent");
        assert_eq!(run.outcomes(), grader.run_serial(sample.as_slice()), "{name}: sampled");
    }
}

/// The streaming core end to end on the s5378-class scale fixture: a
/// checkpointed engine with a streamed fault source agrees with the
/// dense materialized engine and the serial reference at 1/2/4/8
/// threads, while storing an order of magnitude less golden state.
#[test]
fn streamed_checkpoint_campaign_agrees_on_the_scale_fixture() {
    let circuit = registry::build("s5378g").expect("registered");
    let cycles = 3; // debug-build budget; release CI grades 4096 cycles
    let tb = Testbench::random(circuit.num_inputs(), cycles, 42);
    // Sampled subset: the serial reference is the slow engine here.
    let sample = FaultList::sampled(circuit.num_ffs(), cycles, 256, 9);
    let dense = Grader::new(&circuit, &tb);
    let serial = dense.run_serial(sample.as_slice());
    let serial_digest = StreamAccumulator::digest_of(sample.as_slice(), &serial);
    for threads in [1usize, 2, 4, 8] {
        let plan = CampaignPlan::builder(&circuit, &tb)
            .faults(sample.clone())
            .trace_policy(TracePolicy::Checkpoint(64))
            .policy(ShardPolicy::with_threads(threads))
            .build();
        let engine = Engine::new(&plan);
        let streamed = streamed_acc(&engine, &plan);
        assert_eq!(streamed.digest(), serial_digest, "{threads} threads");
        let run = engine.run(&plan);
        assert_eq!(run.outcomes(), serial.as_slice(), "{threads} threads materialized");
        assert!(
            engine.grader().golden().stored_bits() <= dense.golden().stored_bits(),
            "checkpointed golden must not out-store dense"
        );
    }
}

/// `TracePolicy::Dense` and `Checkpoint(K)` are interchangeable for
/// every engine entry point: serial, bit-parallel, materialized engine
/// and streamed engine all agree for a spread of `K`s.
#[test]
fn trace_policies_agree_across_all_entry_points() {
    let circuit = registry::build("b09s").expect("registered");
    let cycles = 22;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 13);
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    let dense = Grader::new(&circuit, &tb);
    let reference = dense.run_serial(faults.as_slice());
    let reference_digest = StreamAccumulator::digest_of(faults.as_slice(), &reference);
    for k in [1, 4, 9, 22, 100] {
        let policy = TracePolicy::Checkpoint(k);
        let grader = Grader::with_policy(&circuit, &tb, policy);
        assert_eq!(grader.run_serial(faults.as_slice()), reference, "serial K={k}");
        assert_eq!(grader.run_parallel(faults.as_slice()), reference, "parallel K={k}");
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(policy)
            .threads(2)
            .build();
        let engine = Engine::new(&plan);
        assert_eq!(engine.run(&plan).outcomes(), reference.as_slice(), "engine K={k}");
        assert_eq!(
            streamed_acc(&engine, &plan).digest(),
            reference_digest,
            "streamed K={k}"
        );
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Generated circuits graded serial vs the sharded engine at 1, 2, 4
    /// and 8 threads: fault-by-fault identical outcomes, fault-by-fault
    /// identical order, whatever the shard schedule.
    #[test]
    fn sharded_engine_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        tb_seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, tb_seed);
        let grader = Grader::new(&circuit, &tb);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let serial = grader.run_serial(faults.as_slice());
        let engine = Engine::new(&CampaignPlan::builder(&circuit, &tb).build());
        for threads in [1usize, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let run = engine.run(&plan);
            prop_assert_eq!(run.outcomes(), serial.as_slice(), "{} threads", threads);
            prop_assert_eq!(run.summary().total(), faults.len());
        }
    }

    /// Random circuits, random checkpoint interval: `Checkpoint(K)`
    /// grades bit-identically to `Dense` through both the serial grader
    /// and the streamed engine.
    #[test]
    fn checkpoint_policy_matches_dense_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0xC0FFEE);
        let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
        let dense = Grader::new(&circuit, &tb);
        let reference = dense.run_serial(faults.as_slice());
        let cp = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
        prop_assert_eq!(&cp.run_serial(faults.as_slice()), &reference, "serial K={}", k);
        let plan = CampaignPlan::builder(&circuit, &tb)
            .trace_policy(TracePolicy::Checkpoint(k))
            .threads(2)
            .build();
        let streamed = streamed_acc(&Engine::new(&plan), &plan);
        prop_assert_eq!(
            streamed.digest(),
            StreamAccumulator::digest_of(faults.as_slice(), &reference),
            "streamed K={}", k
        );
    }

    /// Random checkpoint interval, shuffled fault order, adversarial
    /// window-cache capacities (disabled, one entry, effectively
    /// unbounded): the streamed engine reproduces the serial no-cache
    /// digest regardless — the cache only ever changes how often golden
    /// spans are replayed, never a verdict.
    #[test]
    fn window_cache_never_changes_verdicts(
        config in arb_config(),
        seed in 0u64..1000,
        k in 1usize..40,
        shuffle_seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 16usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0xCAC4E);
        let mut faults: Vec<Fault> =
            FaultList::exhaustive(circuit.num_ffs(), cycles).iter().collect();
        // Deterministic Fisher–Yates: chunk order over the wire is
        // whatever the shuffle says, not cycle-major.
        let mut rng = SplitMix64::new(shuffle_seed);
        for i in (1..faults.len()).rev() {
            #[allow(clippy::cast_possible_truncation)]
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            faults.swap(i, j);
        }
        let dense = Grader::new(&circuit, &tb);
        let serial = dense.run_serial(&faults);
        let reference = StreamAccumulator::digest_of(&faults, &serial);
        let list = FaultList::from_faults(faults, circuit.num_ffs(), cycles);
        for cache in [0usize, 1, 1024] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .faults(list.clone())
                .trace_policy(TracePolicy::Checkpoint(k))
                .window_cache(cache)
                .threads(2)
                .build();
            prop_assert_eq!(
                streamed_acc(&Engine::new(&plan), &plan).digest(),
                reference,
                "cache {} K={}", cache, k
            );
        }
    }

    /// Streamed and materialized fault sources agree at 1/2/4/8 threads
    /// on generated circuits (summary and fault-for-fault digest).
    #[test]
    fn streamed_matches_materialized_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..1000,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 14usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x57EA);
        let engine = Engine::new(&CampaignPlan::builder(&circuit, &tb).build());
        let reference = engine.run(&CampaignPlan::builder(&circuit, &tb).build());
        let ref_digest = StreamAccumulator::digest_of(
            reference.single().expect("exhaustive").as_slice(),
            reference.outcomes(),
        );
        for threads in [1usize, 2, 4, 8] {
            let plan = CampaignPlan::builder(&circuit, &tb)
                .policy(ShardPolicy::with_threads(threads))
                .build();
            let streamed = streamed_acc(&engine, &plan);
            prop_assert_eq!(streamed.summary(), reference.summary(), "{} threads", threads);
            prop_assert_eq!(streamed.digest(), ref_digest, "{} threads", threads);
        }
    }

    /// Multi-bit campaigns shard identically to the serial MBU engine,
    /// under every kernel.
    #[test]
    fn sharded_mbu_matches_serial_on_generated_circuits(
        config in arb_config(),
        seed in 0u64..500,
    ) {
        let circuit = random_sequential(&config, seed);
        let cycles = 12usize;
        let tb = Testbench::random(circuit.num_inputs(), cycles, seed ^ 0x5EED);
        let grader = Grader::new(&circuit, &tb);
        let k = 2.min(circuit.num_ffs());
        let faults = MultiFault::adjacent_pairs(circuit.num_ffs(), cycles, k);
        let serial = grader.run_multi(&faults);
        let engine = Engine::new(&CampaignPlan::builder(&circuit, &tb).build());
        for kernel in Kernel::ALL {
            for threads in [2usize, 8] {
                let plan = CampaignPlan::builder(&circuit, &tb)
                    .multi(faults.clone())
                    .kernel(kernel)
                    .policy(ShardPolicy::with_threads(threads))
                    .build();
                let run = engine.run(&plan);
                prop_assert_eq!(
                    run.outcomes(),
                    serial.as_slice(),
                    "kernel {} @ {} threads",
                    kernel.label(),
                    threads
                );
            }
        }
    }
}

/// Cycle-major chunk order keeps the per-worker golden span cache hot:
/// the K-aligned seed span changes only every `K` injection cycles, so a
/// full exhaustive walk misses exactly once per distinct span and hits
/// everywhere else.
#[test]
fn cycle_major_walk_mostly_hits_the_window_cache() {
    let circuit = registry::build("b03s").expect("registered");
    let cycles = 48;
    let k = 16;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 77);
    let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
    let faults = FaultList::exhaustive(circuit.num_ffs(), cycles);
    // Pin the tape kernel: it leaves deviation space at the injection
    // cycle, so each chunk reads exactly one golden span — its seed.
    let mut scratch = grader
        .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
        .with_kernel(Kernel::Tape);
    let mut out = vec![FaultOutcome::latent(); grader.chunk_lanes()];
    for cycle_group in faults.as_slice().chunks(circuit.num_ffs()) {
        for chunk in cycle_group.chunks(grader.chunk_lanes()) {
            grader.grade_chunk(&mut scratch, chunk, &mut out[..chunk.len()]);
        }
    }
    // b03s fits one chunk per cycle: 48 seed lookups over 3 spans.
    let cache = scratch.bit_cache();
    assert_eq!(cache.misses(), (cycles / k) as u64);
    assert_eq!(cache.hits(), (cycles - cycles / k) as u64);
    assert!(cache.hits() > cache.misses());
    // Each span is replayed once, so total replay work equals one golden
    // pass over the bench — not one per chunk.
    assert_eq!(cache.replayed_cycles(), cycles as u64);
}

/// The sampled streaming path reconstructs each golden span exactly
/// once: sparse span-packed chunks seed from the cache instead of
/// re-replaying the span per chunk (the old per-chunk reconstruction
/// tax this suite pins shut).
#[test]
fn sampled_checkpoint_grading_reconstructs_each_span_once() {
    let circuit = registry::build("s344a").expect("registered");
    let cycles = 60;
    let k = 10;
    let tb = Testbench::random(circuit.num_inputs(), cycles, 23);
    let grader = Grader::with_policy(&circuit, &tb, TracePolicy::Checkpoint(k));
    let sample = FaultList::sampled(circuit.num_ffs(), cycles, 120, 3);
    // Group the sample cycle-major, exactly like ChunkPlan::ordered cuts
    // a sorted streamed campaign.
    let mut by_cycle: Vec<Vec<Fault>> = vec![Vec::new(); cycles];
    for f in sample.iter() {
        by_cycle[f.cycle as usize].push(f);
    }
    // Tape kernel for the same reason as above: one seed span per chunk
    // is the property under test.
    let mut scratch = grader
        .new_scratch(Collapse::Early, DEFAULT_WINDOW_CACHE_SPANS)
        .with_kernel(Kernel::Tape);
    let mut lookups = 0u64;
    let mut spans = std::collections::HashSet::new();
    for group in by_cycle.iter().filter(|g| !g.is_empty()) {
        for chunk in group.chunks(grader.chunk_lanes()) {
            let mut out = vec![FaultOutcome::latent(); chunk.len()];
            grader.grade_chunk(&mut scratch, chunk, &mut out);
            lookups += 1;
            spans.insert(chunk[0].cycle as usize / k);
        }
    }
    // One reconstruction per distinct K-aligned span — every other seed
    // lookup is a cache hit.
    let cache = scratch.bit_cache();
    assert_eq!(cache.misses(), spans.len() as u64);
    assert_eq!(cache.hits(), lookups - spans.len() as u64);
    assert_eq!(cache.replayed_cycles(), (spans.len() * k) as u64);
}

/// Lane independence: grading the same fault in different lanes of the
/// bit-parallel engine yields the same outcome.
#[test]
fn parallel_outcomes_are_order_independent() {
    let circuit = registry::build("b03s").expect("registered");
    let tb = Testbench::random(circuit.num_inputs(), 25, 17);
    let grader = Grader::new(&circuit, &tb);
    let faults = FaultList::exhaustive(circuit.num_ffs(), 25);
    let forward = grader.run_parallel(faults.as_slice());
    let mut reversed: Vec<Fault> = faults.as_slice().to_vec();
    reversed.reverse();
    let backward = grader.run_parallel(&reversed);
    for (i, f) in faults.iter().enumerate() {
        let j = reversed.iter().position(|&g| g == f).expect("same fault");
        assert_eq!(forward[i], backward[j], "{f}");
    }
}
